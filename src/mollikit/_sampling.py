"""The one sampling sweep behind every variable-step operator.

``_sweep`` takes each sample once per (point, kernel node) and reduces per
point: the weighted sum, the hull of the samples and, for gradient stacks,
the mirror-pair z-dot sum.  The three public entries are thin views of it.
Every reduction is per evaluation point, so output values do not depend on
how the point axis is chunked into blocks or across worker threads.

Grid fields (``GridSample``) are sampled without calling them: per block of
points the sweep computes the axis half of ``Domain.interpolate`` once per
distinct node coordinate on each axis, then each node adds its axes' flat
offsets and blends one corner gather of the whole field stack.  This is the
interpolation contract of ``grid``: every sample is bitwise the value
``Domain.interpolate`` returns at ``points[i] - step[i] * nodes[k]``, because
each axis coordinate is that same product and difference and the halves are
the ones ``interpolate`` runs.  Other callables are called once per node on
the block's shifted points.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import Domain
from .kernels import Kernel


# Points per block of a grid-field sweep.  A block's cell tables hold
# (distinct node coordinates per axis) x _BLOCK entries, so the block bounds
# the sweep's memory; worker threads are handed whole blocks.
_BLOCK = 4096


def _chunks(m: int, threads: int) -> list[slice]:
    """Contiguous slices of the point axis, one per worker, each made of
    whole sweep blocks; never more workers than the CPUs this process may
    run on, nor than whole blocks, so a sweep of fewer than two blocks stays
    on the calling thread."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(threads, cpus or 1, m // _BLOCK)
    if threads <= 1:
        return [slice(0, m)]
    blocks = -(-m // _BLOCK)
    size = -(-blocks // threads) * _BLOCK
    return [slice(i, min(i + size, m)) for i in range(0, m, size)]


def _run(worker: Callable[[slice], None], m: int, threads: int) -> None:
    slices = _chunks(m, threads)
    if len(slices) == 1:
        worker(slices[0])
        return
    with ThreadPoolExecutor(max_workers=len(slices)) as pool:
        list(pool.map(worker, slices))


@dataclass(frozen=True, eq=False)
class GridSample:
    """A node array on a domain's grid as a sample function.

    Calling it interpolates, pulling points onto the bounding box when
    ``clamp``.  A sweep whose sample functions are all ``GridSample``s of one
    grid and one ``clamp`` gathers them as one (F, nodes) stack instead,
    through cell tables shared by every field and node.
    """

    domain: Domain
    values: np.ndarray
    clamp: bool = False

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.domain.interpolate(self.values, p, clamp=self.clamp)


def _grid_stack(sample_fns: Sequence[Callable]):
    """The shared domain, the (F, nodes) value stack and the clamp flag when
    every sample function is a ``GridSample`` of one grid; else None."""
    first = sample_fns[0]
    if not all(isinstance(fn, GridSample) and fn.clamp == first.clamp
               and fn.domain.shape == first.domain.shape
               and fn.domain.bbox == first.domain.bbox for fn in sample_fns):
        return None
    stack = np.array([np.reshape(fn.values, -1) for fn in sample_fns], dtype=float)
    return first.domain, stack, first.clamp


def _node_error(k: int, z: np.ndarray, err: str) -> ValueError:
    return ValueError(f"sampling failed at kernel node k={k}, z_k={z}: {err}")


def _call_sampler(sample_fns, x, s, nodes):
    """Per-node samples of callables: each is called on the shifted points."""
    def sample(k: int) -> np.ndarray:
        shifted = x - s[:, None] * nodes[k]
        try:
            return np.array([fn(shifted) for fn in sample_fns], dtype=float)
        except ValueError as err:
            raise _node_error(k, nodes[k], str(err)) from err

    return sample


def _grid_sampler(grid, axis_values, x, s, nodes):
    """Per-node samples of a grid stack.

    Each axis coordinate ``x_a - s z_a`` is turned into its cell offset and
    fraction once per distinct ``z_a`` (``axis_values``: the distinct values
    and each node's index into them), so a node costs the sum of its axes'
    offsets and one corner gather of the stack.  A sample outside the closed
    bbox (possible only when the step invariant is broken) raises before any
    node of the block is sampled, naming the first such node and its point.
    """
    domain, stack, clamp = grid
    tables = [(which, [domain._axis_cells(axis, x[:, axis] - s * z, clamp) for z in values])
              for axis, (values, which) in enumerate(axis_values)]
    node_outside = np.any([np.array([out.any() for *_, out in cells])[which]
                           for which, cells in tables], axis=0)
    if node_outside.any():
        k = int(np.argmax(node_outside))
        i = int(np.argmax(np.any([cells[which[k]][2] for which, cells in tables], axis=0)))
        raise _node_error(k, nodes[k], (
            f"evaluation outside the closed domain bbox at point "
            f"{x[i] - s[i] * nodes[k]} (step invariant violated)"))

    def sample(k: int) -> np.ndarray:
        base = 0
        fracs = []
        for which, cells in tables:
            offset, frac, _ = cells[which[k]]
            base = base + offset
            fracs.append(frac)
        return domain._blend(stack, base, fracs)

    return sample


def _axis_values(nodes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the distinct node coordinates and each node's index into
    them; grouped by bit pattern, so +0.0 and -0.0 stay apart."""
    out = []
    for axis in range(nodes.shape[1]):
        bits = np.ascontiguousarray(nodes[:, axis], dtype=float).view(np.int64)
        uniq, which = np.unique(bits, return_inverse=True)
        out.append((uniq.view(float), which.reshape(-1)))
    return out


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
    grid = _grid_stack(sample_fns)
    axis_values = _axis_values(nodes) if grid else None

    def block(b: slice) -> None:
        idx = act_idx[b]
        x = points[idx]
        s = step[idx]
        if grid:
            sample = _grid_sampler(grid, axis_values, x, s, nodes)
        else:
            sample = _call_sampler(sample_fns, x, s, nodes)
        acc, low, high, pr = total[:, b], lo[:, b], hi[:, b], pairs[b]
        for k, z in enumerate(nodes):
            vals = sample(k)
            acc += coeffs[k] * vals
            np.minimum(low, vals, out=low)
            np.maximum(high, vals, out=high)
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

    def worker(sl: slice) -> None:
        # callables see a whole slice per call; grid stacks go block by block
        size = _BLOCK if grid else sl.stop - sl.start
        for start in range(sl.start, sl.stop, size):
            block(slice(start, min(start + size, sl.stop)))

    _run(worker, m, threads)
    return total, lo, hi, pairs


class Sweep(NamedTuple):
    """Per-point results of one sweep, one row per sampled field.

    ``values`` is the weighted sum clamped into the hull ``[lo, hi]`` of the
    samples, so convex-combination facts (sup bound, positivity, oscillation
    bound) survive floating point exactly; ``clamped`` holds what the clamp
    added to the weighted sum (0 where it did not fire).  Points left out of
    the sweep keep their identity value in ``values``, ``lo`` and ``hi``, and
    0 in ``clamped`` and ``zdot``.
    """

    values: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    clamped: np.ndarray
    active: np.ndarray
    zdot: np.ndarray | None


def _average(points, step, kernel: Kernel, sample_fns, identity_values, h: float,
             threads: int, pairs: bool) -> Sweep:
    points = np.atleast_2d(points)
    values = np.array(identity_values, dtype=float, ndmin=2)
    lo, hi = values.copy(), values.copy()
    clamped = np.zeros(values.shape)
    zdot = np.zeros(len(points)) if pairs else None
    active = step >= h
    act_idx = np.flatnonzero(active)
    if len(act_idx):
        total, lo_a, hi_a, pair_sum = _sweep(
            points, step, act_idx, kernel.nodes, kernel.coeffs, sample_fns, threads,
            kernel.paired_count if pairs else 0)
        inside_hull = np.clip(total, lo_a, hi_a)
        values[:, act_idx] = inside_hull
        clamped[:, act_idx] = inside_hull - total
        lo[:, act_idx] = lo_a
        hi[:, act_idx] = hi_a
        if pairs:
            zdot[act_idx] = pair_sum
    return Sweep(values, lo, hi, clamped, active, zdot)


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
