"""Spans and counters recorded around the public functions of each layer.

Inside ``with traced(recorder):`` each wrapped function is replaced in every
mollikit module namespace that binds it (and on the class, for methods), so
calls made from inside the library are seen too; the originals are put back
when the block ends.  Nothing in the library is edited.  Spans are kept in memory
as (name, start, end, parent, counts) and turned into per-layer metrics
when the operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)


class Recorder:
    """Spans of one operation.  The parent of a span is the innermost open
    span of the same thread; spans opened in pool threads have none."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, 0.0, parent=stack[-1] if stack else -1)
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        span.start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._local.stack.pop()


# ---------------------------------------------------------------------- #
# what is wrapped, and what each call counts


def _points(a) -> int:
    return int(np.atleast_2d(a["points"]).shape[0])


def _active(a, strict: bool) -> int:
    step = np.asarray(a["step"])
    return int(np.count_nonzero(step > 0.0 if strict else step >= a["h"]))


def _nodes(a) -> dict:
    cfg = a["cfg"]
    step = cfg.step_inside()
    active = step >= cfg.domain.h
    return {"active_nodes": int(active.sum()),
            "subgrid_nodes": int(((step > 0.0) & ~active).sum()),
            "identity_nodes": int((step == 0.0).sum())}


def _sigma_counts(a) -> dict:
    """A call, and whether it computes sigma rather than returning the copy
    the domain keeps (``Domain._sigma_values``; should that attribute go,
    every call is counted as computing)."""
    return {"calls": 1, "computed": int(getattr(a["self"], "_sigma_values", None) is None)}


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# (span name, module, attribute, counts from the arguments before the call,
#  counts from the arguments and result after it)
TARGETS = [
    ("grid.sigma", "mollikit.grid", "Domain.sigma", _sigma_counts, None),
    ("grid.sigma_at", "mollikit.grid", "Domain.sigma_at",
     lambda a: {"points": _points(a)}, None),
    ("grid.interpolate", "mollikit.grid", "Domain.interpolate",
     lambda a: {"points": _points(a)}, None),
    ("grid.distance_field", "mollikit.grid", "distance_field", None, None),
    ("grid.csv", "mollikit.grid", "write_field_csv", None,
     lambda a, r: {"bytes": _file_bytes(a["path"])}),
    ("grid.csv", "mollikit.grid", "read_field_csv",
     lambda a: {"bytes": _file_bytes(a["path"])}, None),
    ("kernels.make_kernel", "mollikit.kernels", "make_kernel", None,
     lambda a, r: {"nodes": len(r.nodes)}),
    ("eta.whitney", "mollikit.eta", "build_whitney_eta", None, None),
    ("eta.regdist", "mollikit.eta", "regularized_distance", None, None),
    ("eta.quadratic", "mollikit.eta", "quadratic_eta", None, None),
    ("eta.bv_step", "mollikit.eta", "bv_step_eta", None, None),
    ("eta.calibrated", "mollikit.eta", "calibrated_eta", None, None),
    ("eta.modulus", "mollikit.eta", "estimate_modulus", None, None),
    ("sampling.average", "mollikit._sampling", "variable_step_average",
     lambda a: {"samples": _active(a, False) * len(a["kernel"].nodes)}, None),
    ("sampling.zdot", "mollikit._sampling", "weighted_z_dot",
     lambda a: {"samples": _active(a, False) * a["kernel"].paired_count}, None),
    ("sampling.max", "mollikit._sampling", "variable_step_max",
     lambda a: {"samples": _active(a, True) * len(a["kernel"].nodes)}, None),
    ("mollify.config", "mollikit.mollify", "MollifierConfig.__post_init__", None, None),
    ("mollify.mollify", "mollikit.mollify", "mollify", _nodes, None),
    ("mollify.mollify", "mollikit.mollify", "mollify_with_report", _nodes, None),
    ("mollify.gradient", "mollikit.mollify", "mollify_gradient", None, None),
    ("analysis.norm1", "mollikit.analysis", "l1_operator_norm_report", None, None),
    ("analysis.study", "mollikit.analysis", "convergence_study", None, None),
    ("analysis.norm", "mollikit.analysis", "norm", None, None),
    ("feasible.ball_max", "mollikit.feasible", "convergence_factor", None, None),
    ("feasible.smooth", "mollikit.feasible", "feasible_smooth", None, None),
    ("feasible.density", "mollikit.feasible", "density_study", None, None),
    ("cli.eta", "mollikit.cli", "cmd_eta", None, None),
    ("cli.mollify", "mollikit.cli", "cmd_mollify", None, None),
    ("cli.norm1", "mollikit.cli", "cmd_norm1", None, None),
    ("cli.feasible", "mollikit.cli", "cmd_feasible", None, None),
    ("cli.study", "mollikit.cli", "cmd_study", None, None),
]


def _wrap(recorder: Recorder, name: str, fn, before, after):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments if (before or after) else None
        counts = before(bound) if before else {}
        idx = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if after:
            counts |= after(bound, result)
        recorder.spans[idx].counts = counts
        return result

    return wrapper


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Wrap every target wherever a mollikit namespace binds it, for the
    duration of the block."""
    modules = [m for k, m in sys.modules.items() if k == "mollikit" or k.startswith("mollikit.")]
    replaced: list[tuple[object, str, object]] = []
    try:
        for name, modname, attr, before, after in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                replaced.append((owner, attr, original))
                setattr(owner, attr, _wrap(recorder, name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(recorder, name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        replaced.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# spans to metrics


def _self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Children that leave their parent's interval or whose self time
    exceeds the parent's duration."""
    selfs = _self_times(spans)
    bad = []
    for i, s in enumerate(spans):
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end or selfs[i] > p.end - p.start:
            bad.append(f"span {s.name} escapes its parent {p.name}")
    return bad


def _outermost(spans: list[Span], i: int) -> bool:
    """False when an ancestor carries the same name (no double counting)."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == spans[i].name:
            return False
        p = spans[p].parent
    return True


def counts(spans: list[Span], root: int = -1) -> dict:
    """Summed counts ``<name>.<count>`` over all spans, or over the spans
    below ``root`` and ``root`` itself."""
    out: dict = {}
    for i, s in enumerate(spans):
        if root >= 0:
            p = i
            while p >= 0 and p != root:
                p = spans[p].parent
            if p != root:
                continue
        for k, v in s.counts.items():
            out[f"{s.name}.{k}"] = out.get(f"{s.name}.{k}", 0) + v
    return out


def summarize(spans: list[Span]) -> dict:
    """Inclusive time ``<name>_s``, self time ``<name>_self_s`` and summed
    counts ``<name>.<count>`` per span name."""
    selfs = _self_times(spans)
    out = counts(spans)
    for i, s in enumerate(spans):
        if _outermost(spans, i):
            out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + (s.end - s.start)
        out[s.name + "_self_s"] = out.get(s.name + "_self_s", 0.0) + selfs[i]
    return out


def _per(seconds: float, count: int) -> float:
    """Nanoseconds per item; 0 where the layer did no work."""
    return seconds * 1e9 / count if count else 0.0


def _time(key: str):
    return "s", lambda t: t.get(key, 0.0)


def _count(key: str, unit: str = "count"):
    return unit, lambda t: t.get(key, 0)


def _rate(time_key: str, count_key: str):
    return "ns", lambda t: _per(t.get(time_key, 0.0), t.get(count_key, 0))


LOOPS = ("sampling.average", "sampling.zdot", "sampling.max")


def sampling_samples(t: dict) -> int:
    return sum(t.get(f"{k}.samples", 0) for k in LOOPS)


def ns_per_sample(t: dict) -> float:
    """Inclusive time of the three sampling loops per (point x kernel node)."""
    return _per(sum(t.get(f"{k}_s", 0.0) for k in LOOPS), sampling_samples(t))


# metric name -> (unit, how it is read from a summary); eta.* and
# sampling.*_self_s are self times, the other times inclusive
LAYER_METRICS = {
    "grid.sigma_s": _time("grid.sigma_s"),
    "grid.sigma_calls": _count("grid.sigma.calls"),
    "grid.sigma_computed": _count("grid.sigma.computed"),
    "grid.sigma_at_s": _time("grid.sigma_at_s"),
    "grid.sigma_at_points": _count("grid.sigma_at.points"),
    "grid.sigma_at_ns_per_point": _rate("grid.sigma_at_s", "grid.sigma_at.points"),
    "grid.distance_field_s": _time("grid.distance_field_s"),
    "grid.interpolate_s": _time("grid.interpolate_s"),
    "grid.interpolate_points": _count("grid.interpolate.points"),
    "grid.interpolate_ns_per_point": _rate("grid.interpolate_s", "grid.interpolate.points"),
    "grid.csv_s": _time("grid.csv_s"),
    "grid.csv_bytes": _count("grid.csv.bytes", "bytes"),
    "kernels.make_kernel_s": _time("kernels.make_kernel_s"),
    "kernels.nodes": _count("kernels.make_kernel.nodes"),
    **{f"eta.{b}_s": _time(f"eta.{b}_self_s")
       for b in ("whitney", "regdist", "quadratic", "bv_step", "calibrated", "modulus")},
    **{f"{k}_self_s": _time(f"{k}_self_s") for k in LOOPS},
    "sampling.samples": ("count", sampling_samples),
    "sampling.ns_per_sample": ("ns", ns_per_sample),
    "mollify.config_s": _time("mollify.config_s"),
    "mollify.mollify_s": _time("mollify.mollify_s"),
    "mollify.gradient_s": _time("mollify.gradient_s"),
    **{f"mollify.{k}_nodes": _count(f"mollify.mollify.{k}_nodes")
       for k in ("active", "subgrid", "identity")},
    **{f"{k}_s": _time(f"{k}_s") for k in ("analysis.norm1", "analysis.study", "analysis.norm",
                                           "feasible.ball_max", "feasible.smooth",
                                           "feasible.density")},
    **{f"cli.{c}_s": _time(f"cli.{c}_s") for c in ("eta", "mollify", "norm1", "feasible", "study")},
}

# Counters that must repeat exactly between operations, runs and thread counts.
COUNTERS = [k for k, (unit, _) in LAYER_METRICS.items() if unit in ("count", "bytes")]

# metrics run.py adds to the traced result
EXTRA_UNITS = {"sampling.ns_per_sample_2t": "ns", "trace.overhead_s": "s"}


def unit(name: str) -> str:
    return EXTRA_UNITS[name] if name in EXTRA_UNITS else LAYER_METRICS[name][0]


def layer_metrics(summary: dict) -> dict:
    return {k: read(summary) for k, (_, read) in LAYER_METRICS.items()}


def median_metrics(per_op: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced operations; counters must agree."""
    out, errors = {}, []
    for k in per_op[0]:
        values = [m[k] for m in per_op]
        if k in COUNTERS:
            if len(set(values)) != 1:
                errors.append(f"counter {k} differs between operations: {values}")
            out[k] = values[0]
        else:
            out[k] = statistics.median(values)
    return out, errors
