"""The one sampling sweep behind every variable-step operator.

``_sweep`` calls each sample function once per (point, kernel node) and
reduces per point: the weighted sum, the hull of the samples and, for
gradient stacks, the mirror-pair z-dot sum.  The three public entries are
thin views of it.  Every reduction is per evaluation point, so output values
do not depend on how the point axis is chunked across worker threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .kernels import Kernel


def _chunks(m: int, threads: int) -> list[slice]:
    """Contiguous slices of the point axis, one per worker; never more
    workers than the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, cpus or 1)
    if threads <= 1 or m < 2 * threads:
        return [slice(0, m)]
    size = (m + threads - 1) // threads
    return [slice(i, min(i + size, m)) for i in range(0, m, size)]


def _run(worker: Callable[[slice], None], m: int, threads: int) -> None:
    slices = _chunks(m, threads)
    if len(slices) == 1:
        worker(slices[0])
        return
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        list(pool.map(worker, slices))


def _sweep(points: np.ndarray, step: np.ndarray, act_idx: np.ndarray,
           nodes: np.ndarray, coeffs: np.ndarray, sample_fns: Sequence[Callable],
           threads: int, paired_count: int = 0):
    """Sample F fields once at each ``points[i] - step[i] * nodes[k]``, i in
    ``act_idx``, in node order.

    Returns per field and point ``sum_k coeffs_k v_k`` and the min and max of
    the samples, and per point ``sum_p coeffs_2p sum_a z_2p,a (v_2p+1,a -
    v_2p,a)`` over the first ``paired_count`` nodes, field a read as the a-th
    gradient component.  ``nodes[2p+1]`` is the exact negation of
    ``nodes[2p]``, so its sample point is bitwise ``x + step z_2p`` and the
    mirror terms meet before they are accumulated (exact zeros for a
    constant gradient).
    """
    n_f, m = len(sample_fns), len(act_idx)
    total = np.zeros((n_f, m))
    lo = np.full((n_f, m), np.inf)
    hi = np.full((n_f, m), -np.inf)
    pairs = np.zeros(m)

    def worker(sl: slice) -> None:
        idx = act_idx[sl]
        x = points[idx]
        s = step[idx][:, None]
        acc, low, high, pr = total[:, sl], lo[:, sl], hi[:, sl], pairs[sl]
        for k, z in enumerate(nodes):
            shifted = x - s * z
            try:
                vals = [fn(shifted) for fn in sample_fns]
            except ValueError as err:
                raise ValueError(
                    f"sampling failed at kernel node k={k}, z_k={z}: {err}") from err
            for f, v in enumerate(vals):
                acc[f] += coeffs[k] * v
                np.minimum(low[f], v, out=low[f])
                np.maximum(high[f], v, out=high[f])
            if k >= paired_count:
                continue
            if k % 2 == 0:
                prev = vals
                continue
            mirror = nodes[k - 1]
            diff = np.zeros(len(idx))
            for axis, za in enumerate(mirror):
                if za != 0.0:
                    diff += za * (vals[axis] - prev[axis])
            pr += coeffs[k - 1] * diff

    _run(worker, m, threads)
    return total, lo, hi, pairs


class Sweep(NamedTuple):
    """Per-point results of one sweep, one row per sampled field.

    ``values`` is the weighted sum clamped into the hull ``[lo, hi]`` of the
    samples, so convex-combination facts (sup bound, positivity, oscillation
    bound) survive floating point exactly.  Points left out of the sweep keep
    their identity value in ``values``, ``lo`` and ``hi``, and 0 in ``zdot``.
    """

    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    active: np.ndarray
    zdot: np.ndarray | None


def _average(points, step, kernel: Kernel, sample_fns, identity_values, h: float,
             threads: int, pairs: bool) -> Sweep:
    points = np.atleast_2d(points)
    values = np.array(identity_values, dtype=float, ndmin=2)
    lo, hi = values.copy(), values.copy()
    zdot = np.zeros(len(points)) if pairs else None
    active = step >= h
    act_idx = np.flatnonzero(active)
    if len(act_idx):
        total, lo_a, hi_a, pair_sum = _sweep(
            points, step, act_idx, kernel.nodes, kernel.coeffs, sample_fns, threads,
            kernel.paired_count if pairs else 0)
        values[:, act_idx] = np.clip(total, lo_a, hi_a)
        lo[:, act_idx] = lo_a
        hi[:, act_idx] = hi_a
        if pairs:
            zdot[act_idx] = pair_sum
    return Sweep(values, lo, hi, active, zdot)


def variable_step_average(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                          sample_fns: Sequence[Callable], identity_values, h: float,
                          threads: int = 1) -> Sweep:
    """Weighted average of each field's samples around each point.

    ``values[f, i] = sum_k coeff_k * sample_fns[f](points[i] - step[i] * z_k)``,
    clamped into the hull of the samples; ``identity_values`` holds one row
    per field.  Points with ``step[i] < h`` are not sampled.
    """
    return _average(points, step, kernel, sample_fns, identity_values, h, threads, False)


def weighted_z_dot(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                   grad_sample_fns: Sequence[Callable], identity_values, h: float,
                   threads: int = 1) -> Sweep:
    """``variable_step_average`` plus, in ``zdot``, the step-variation sum
    ``sum_k coeff_k * (-z_k) . grad(points[i] - step[i] * z_k)``.

    The first N sample functions are the gradient components; fields after
    them are only averaged.
    """
    return _average(points, step, kernel, grad_sample_fns, identity_values, h, threads, True)


def variable_step_max(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                      sample_fn: Callable, identity_values: np.ndarray,
                      threads: int = 1) -> np.ndarray:
    """Max of samples over the quadrature set, the 2N axis-extreme points of
    each ball, and the center.  No subgrid guard: a zero step reduces the set
    to the center value."""
    points = np.atleast_2d(points)
    dim = points.shape[1]
    out = np.array(identity_values, dtype=float, copy=True)
    act_idx = np.flatnonzero(step > 0.0)
    if len(act_idx) == 0:
        return out
    eye = np.eye(dim)  # +e_a then -e_a per axis, with +0.0 off the axis
    extremes = np.stack([eye, 0.0 - eye], axis=1).reshape(2 * dim, dim)
    nodes = np.vstack([kernel.nodes, extremes])
    coeffs = np.concatenate([kernel.coeffs, np.zeros(2 * dim)])
    _, _, hi, _ = _sweep(points, step, act_idx, nodes, coeffs, [sample_fn], threads)
    out[act_idx] = np.maximum(out[act_idx], hi[0])
    return out
