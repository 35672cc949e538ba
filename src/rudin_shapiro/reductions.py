"""Deterministic pairwise reductions for quadrature sums.

Every integral in the package is a mean over grid samples.  Summing
each block of a grid, then the block sums, in fixed binary trees makes
the result depend on the grid alone, and keeps rounding error at the
O(log n) level of pairwise summation.
"""

from __future__ import annotations

import numpy as np


def pairwise_sum(values) -> float:
    """Sum a 1-d array by halving: v <- v[0::2] + v[1::2] until scalar.

    Zero-padding to a power of two does not change the sum, so the
    reduction tree depends only on the length of the input.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("pairwise_sum expects a 1-d array")
    n = v.size
    if n == 0:
        return 0.0
    size = 1 << (n - 1).bit_length()
    if size != n:
        v = np.concatenate([v, np.zeros(size - n)])
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return float(v[0])

