"""Low-level variable-step sampling loops shared by the step builders and
the mollification operators.

Every reduction here is per evaluation point, so output values do not depend
on how the point axis is chunked across worker threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

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


def variable_step_average(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                          sample_fn: Callable[[np.ndarray], np.ndarray],
                          identity_values: np.ndarray, h: float,
                          threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Weighted average of samples around each point with per-point radius.

    ``out[i] = sum_k coeff_k * sample_fn(points[i] - step[i] * z_k)``, clamped
    into the hull of the sampled values so that convex-combination facts
    (sup bound, positivity, oscillation bound) survive floating point exactly.
    Points with ``step[i] < h`` keep ``identity_values[i]``; the second return
    value marks the points that were actually smoothed.
    """
    points = np.atleast_2d(points)
    m = len(points)
    out = np.array(identity_values, dtype=float, copy=True)
    active = step >= h
    if not active.any():
        return out, active
    act_idx = np.flatnonzero(active)

    def worker(sl: slice) -> None:
        idx = act_idx[sl]
        x = points[idx]
        s = step[idx][:, None]
        acc = np.zeros(len(idx))
        lo = np.full(len(idx), np.inf)
        hi = np.full(len(idx), -np.inf)
        for k in range(len(kernel.nodes)):
            try:
                vals = sample_fn(x - s * kernel.nodes[k])
            except ValueError as err:
                raise ValueError(
                    f"sampling failed at kernel node k={k}, z_k={kernel.nodes[k]}: "
                    f"{err}") from err
            acc += kernel.coeffs[k] * vals
            np.minimum(lo, vals, out=lo)
            np.maximum(hi, vals, out=hi)
        out[idx] = np.clip(acc, lo, hi)

    _run(worker, len(act_idx), threads)
    return out, active


def weighted_z_dot(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                   grad_sample_fns: list[Callable[[np.ndarray], np.ndarray]],
                   h: float, threads: int = 1) -> np.ndarray:
    """``sum_k coeff_k * (-z_k) . grad(points[i] - step[i] * z_k)`` per point.

    Runs over the kernel's +/- pairs so the two mirror terms are combined
    before accumulation; for a spatially constant gradient the pair sums are
    exact zeros.  Points with ``step < h`` get 0.
    """
    points = np.atleast_2d(points)
    out = np.zeros(len(points))
    active = step >= h
    if not active.any():
        return out
    act_idx = np.flatnonzero(active)
    pc = kernel.paired_count

    def worker(sl: slice) -> None:
        idx = act_idx[sl]
        x = points[idx]
        s = step[idx][:, None]
        acc = np.zeros(len(idx))
        for p in range(pc // 2):
            z = kernel.nodes[2 * p]
            shift = s * z
            diff = np.zeros(len(idx))
            for axis, g in enumerate(grad_sample_fns):
                if z[axis] != 0.0:
                    diff += z[axis] * (g(x + shift) - g(x - shift))
            acc += kernel.coeffs[2 * p] * diff
        out[idx] = acc

    _run(worker, len(act_idx), threads)
    return out


def variable_step_max(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                      sample_fn: Callable[[np.ndarray], np.ndarray],
                      identity_values: np.ndarray,
                      include_axis_extremes: bool = True,
                      threads: int = 1) -> np.ndarray:
    """Max of samples over the quadrature set, the center, and (optionally)
    the 2N axis-extreme points of each ball.  No subgrid guard: a zero step
    reduces the set to the center value."""
    points = np.atleast_2d(points)
    m, dim = points.shape
    out = np.array(identity_values, dtype=float, copy=True)
    act_idx = np.flatnonzero(step > 0.0)
    if len(act_idx) == 0:
        return out

    def worker(sl: slice) -> None:
        idx = act_idx[sl]
        x = points[idx]
        s = step[idx][:, None]
        best = np.array(out[idx], copy=True)
        for k in range(len(kernel.nodes)):
            np.maximum(best, sample_fn(x - s * kernel.nodes[k]), out=best)
        if include_axis_extremes:
            for axis in range(dim):
                for sign in (-1.0, 1.0):
                    shifted = x.copy()
                    shifted[:, axis] += sign * s[:, 0]
                    np.maximum(best, sample_fn(shifted), out=best)
        out[idx] = best

    _run(worker, len(act_idx), threads)
    return out
