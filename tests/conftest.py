import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def fill_circle(blocks, count, half_offset=True, sign=1):
    """A full-circle stream of (r, stride, block) filled into one array.

    Sub-grid r takes the block; on the half-offset grid with stride > 1 the
    block also stands for sub-grid stride - 1 - r, which takes sign *
    conj(block[::-1]) (evaluate.iter_circle_values' mirror rule; sign = -1
    for the odd slope R' of iter_circle_squares).
    """
    out = None
    for r, stride, block in blocks:
        if out is None:
            out = np.empty(count, block.dtype)
        out[r::stride] = block
        if half_offset and stride > 1:
            out[stride - 1 - r::stride] = sign * np.conj(block[::-1])
    return out
