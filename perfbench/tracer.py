"""Outside-in span recorder for the rudin_shapiro package.

``Tracer.install`` wraps every public function of the package's layer
modules at run time and rebinds each wrapped name in every package
namespace that holds it (``from .reductions import pairwise_mean``
copies the binding, and ``cli.COMMANDS`` holds the subcommands), so
calls between layers are seen too.  Samplers returned by ``evaluate``
are wrapped as well.  Generators such as ``iter_pair_chunks`` are timed
while they are consumed: a generator span is busy only inside ``next``.

Spans (name, start, end, parent, task id, busy, self) stay in memory
and are written out once, at the end of the pass.  Self time is busy
time minus the busy time of direct children; the pass is single
threaded, so children never overlap.  Counters are taken at the same
boundaries from call arguments and results.  An untraced pass imports
this module not at all.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("core", "evaluate", "reductions", "norms", "roots", "gf2",
          "verify", "cli")

ARTIFACT_WRITERS = ("cli.write_json_artifact", "cli.write_csv_artifact")


class Span:
    __slots__ = ("name", "layer", "parent", "task", "start", "end", "busy",
                 "child", "note")

    def __init__(self, name, layer, parent, task, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.task = task
        self.start = start
        self.end = start
        self.busy = 0.0
        self.child = 0.0
        self.note = None


def _digest(array) -> bytes:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.blake2b(data.tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.task = None
        self.counts = Counter()
        self.grids: set = set()

    # -- installation ------------------------------------------------------

    def install(self, package: str = "rudin_shapiro") -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)][1])
                elif isinstance(obj, dict) and name != "__builtins__":
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)][1]

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return self._consume(name, layer, fn(*args, **kwargs), hook,
                                     arguments(args, kwargs) if hook else None)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, self.spans[index], arguments(args, kwargs), result)
            if layer == "evaluate" and inspect.isfunction(result):
                result = self._wrap(result, layer)
            return result
        return wrapper

    def _consume(self, name, layer, gen, hook, args):
        index = None
        try:
            while True:
                if index is None:
                    index = self._open(name, layer)
                    start = self.spans[index].start
                else:
                    self.stack.append(index)
                    start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(index, start)
                if hook is not None:
                    hook(self, self.spans[index], args, item)
                yield item
        finally:
            gen.close()

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, layer, parent, self.task,
                               time.perf_counter()))
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index, start=None) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        elapsed = end - (span.start if start is None else start)
        span.busy += elapsed
        span.end = end
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child += elapsed

    def outermost(self, span) -> bool:
        """True when no span of the same layer encloses this one."""
        return (span.parent is None or
                self.spans[span.parent].layer != span.layer)

    # -- counters ----------------------------------------------------------

    def grid(self, key, points: int) -> None:
        self.counts["evaluate.points"] += points
        if key not in self.grids:
            self.grids.add(key)
            self.counts["evaluate.distinct_points"] += points

    def layer_metrics(self) -> dict:
        calls = Counter()
        self_s = defaultdict(float)
        busy = defaultdict(float)
        for span in self.spans:
            calls[span.layer] += 1
            self_s[span.layer] += span.busy - span.child
            busy[span.name] += span.busy
        c = self.counts
        points = c["evaluate.points"]
        certs = c["gf2.certificates"]
        out = {
            "evaluate.calls": calls["evaluate"],
            "evaluate.self_s": self_s["evaluate"],
            "evaluate.points": points,
            "evaluate.points_per_s": (points / self_s["evaluate"]
                                      if self_s["evaluate"] else 0.0),
            "evaluate.distinct_point_frac": (
                c["evaluate.distinct_points"] / points if points else 0.0),
            "evaluate.horner_terms": c["evaluate.horner_terms"],
            "reductions.calls": calls["reductions"],
            "reductions.self_s": self_s["reductions"],
            "reductions.values": c["reductions.values"],
            "norms.calls": calls["norms"],
            "norms.self_s": self_s["norms"],
            "norms.estimates": c["norms.estimates"],
            "norms.flagged": c["norms.flagged"],
            "norms.excluded_samples": c["norms.excluded_samples"],
            "verify.calls": calls["verify"],
            "verify.self_s": self_s["verify"],
            "verify.reports": c["verify.reports"],
            "verify.failed": c["verify.failed"],
            "roots.sturm_calls": c["roots.sturm_calls"],
            "roots.sturm_s": busy["roots.real_zero_count_exact"],
            "roots.sturm_max_degree": c["roots.sturm_max_degree"],
            "roots.aberth_calls": c["roots.aberth_calls"],
            "roots.aberth_s": busy["roots.find_roots"],
            "roots.aberth_sweeps": c["roots.aberth_sweeps"],
            "roots.aberth_flagged_roots": c["roots.aberth_flagged_roots"],
            "roots.aberth_work": c["roots.aberth_work"],
            "gf2.calls": calls["gf2"],
            "gf2.self_s": self_s["gf2"],
            "gf2.certified_frac": (c["gf2.certified"] / certs
                                   if certs else 0.0),
            "core.calls": calls["core"],
            "core.self_s": self_s["core"],
            "cli.invocations": c["cli.invocations"],
            "cli.self_s": self_s["cli"],
            "cli.artifact_s": sum(busy[name] for name in ARTIFACT_WRITERS),
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        return out

    def write(self, path: str, extra: dict) -> None:
        spans = [[s.name, s.start, s.end, s.busy, s.busy - s.child, s.parent,
                  s.task] for s in self.spans]
        payload = dict(extra, span_fields=["name", "start", "end", "busy_s",
                                           "self_s", "parent", "task"],
                       spans=spans)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Counter hooks: (tracer, span, bound arguments, result or yielded item)
# ---------------------------------------------------------------------------

def _chunks(tr, span, a, item):
    if span.note is None:  # the grid is requested at the first chunk
        kernel = "deriv" if a["deriv"] else "pair"
        key = (kernel, a["pair"].k, a["alpha"], a["beta"], a["count"],
               a["half_offset"])
        span.note = key not in tr.grids
        tr.grids.add(key)
    tr.counts["evaluate.points"] += item[0].size
    if span.note:
        tr.counts["evaluate.distinct_points"] += item[0].size


def _eval_grid(tr, span, a, result):
    arc = a["arc"]
    tr.grid(("pair", a["pair"].k, arc.alpha, arc.beta, a["count"],
             a["half_offset"]), a["count"])


def _theta_grid(kernel):
    def hook(tr, span, a, result):
        thetas = np.asarray(a["thetas"], dtype=np.float64)
        tr.grid((kernel, a["pair"].k, _digest(thetas)), thetas.size)
    return hook


def _point(tr, span, a, result):
    point = a["point"]
    theta = getattr(point, "theta", point)
    tr.grid(("point", a["pair"].k, float(theta)), 1)


def _horner(tr, span, a, result):
    poly, point = a["poly"], a["point"]
    coeffs = np.asarray(getattr(poly, "coeffs", poly), dtype=np.float64)
    thetas = np.atleast_1d(np.asarray(getattr(point, "theta", point),
                                      dtype=np.float64))
    tr.grid(("horner", _digest(coeffs), _digest(thetas)), thetas.size)
    tr.counts["evaluate.horner_terms"] += thetas.size * coeffs.size


def _reduction(tr, span, a, result):
    if tr.outermost(span):
        tr.counts["reductions.values"] += int(np.size(a["values"]))


def _estimates(tr, span, a, result):
    if not tr.outermost(span):
        return
    for est in result if isinstance(result, list) else [result]:
        tr.counts["norms.estimates"] += 1
        tr.counts["norms.flagged"] += int(bool(est.flagged))
        tr.counts["norms.excluded_samples"] += int(est.excluded)


def _reports(tr, span, a, result):
    if not tr.outermost(span):
        return
    items = result if isinstance(result, list) else [result]
    for report in items:
        if hasattr(report, "passed"):
            tr.counts["verify.reports"] += 1
            tr.counts["verify.failed"] += int(not report.passed)
        elif hasattr(report, "sup_distance_to_uniform"):
            tr.counts["verify.reports"] += 1


def _sturm(tr, span, a, result):
    poly = a["poly"]
    degree = len(getattr(poly, "coeffs", poly)) - 1
    tr.counts["roots.sturm_calls"] += 1
    tr.counts["roots.sturm_max_degree"] = max(
        tr.counts["roots.sturm_max_degree"], degree)


def _aberth(tr, span, a, result):
    tr.counts["roots.aberth_calls"] += 1
    tr.counts["roots.aberth_sweeps"] += result.iterations
    tr.counts["roots.aberth_flagged_roots"] += int(result.flags.sum())
    tr.counts["roots.aberth_work"] += result.degree ** 2 * result.iterations


def _certificate(tr, span, a, result):
    tr.counts["gf2.certificates"] += 1
    tr.counts["gf2.certified"] += int(result.certified_zero_free_on_circle)


def _cli_main(tr, span, a, result):
    tr.counts["cli.invocations"] += 1
    tr.counts["cli.nonzero_exits"] += int(result != 0)


HOOKS = {
    "evaluate.iter_pair_chunks": _chunks,
    "evaluate.eval_grid": _eval_grid,
    "evaluate.eval_pair_grid": _theta_grid("pair"),
    "evaluate.eval_pair_negated_grid": _theta_grid("negated"),
    "evaluate.eval_pair_deriv_grid": _theta_grid("deriv"),
    "evaluate.eval_pair_point": _point,
    "evaluate.eval_horner": _horner,
    "reductions.pairwise_sum": _reduction,
    "reductions.pairwise_mean": _reduction,
    "norms.mq_arc": _estimates,
    "norms.mahler_arc": _estimates,
    "norms.mq_limit_diagnostic": _estimates,
    "norms.flatness_defect_mahler": _estimates,
    "verify.check_lattice_pair_bound": _reports,
    "verify.check_certified_intervals": _reports,
    "verify.bernstein_ratio": _reports,
    "verify.check_level_set_measure": _reports,
    "verify.check_subarc_moment_bounds": _reports,
    "verify.saffari_ratio": _reports,
    "verify.mahler_asymptote_ratio": _reports,
    "verify.subarc_mahler_ratio": _reports,
    "verify.value_distribution": _reports,
    "verify.saffari_trend": _reports,
    "verify.mahler_asymptote_trend": _reports,
    "verify.run_verification": _reports,
    "roots.real_zero_count_exact": _sturm,
    "roots.find_roots": _aberth,
    "gf2.mercer_certificate": _certificate,
    "cli.main": _cli_main,
}
