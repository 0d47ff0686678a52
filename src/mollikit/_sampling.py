"""The one sampling sweep behind every variable-step operator.

``_sweep`` takes each sample once per (point, kernel node) and reduces per
point: the weighted sum, the hull of the samples and, for gradient stacks,
the mirror-pair z-dot sum.  The three public entries are thin views of it.
Every reduction is per evaluation point, so output values do not depend on
how the point axis is chunked into blocks or across worker threads.

Every sample is taken in two halves: per block of points, an axis half runs
once per distinct node coordinate on each axis, on ``x_a - s z_a``; then a
combine half runs once per node on its axes' entries.  For grid fields
(``GridSample``) these are ``Domain._axis_cells`` and, with the flat offsets
summed, ``Domain._blend`` over the whole field stack; for box and ball
distances (``SigmaSample``), ``Domain._sigma_axis`` and
``Domain._sigma_combine``, the halves of ``interpolate`` and ``sigma_at``.
Each coordinate is the product and difference of ``points[i] - step[i] *
nodes[k]``, so every sample is bitwise what ``interpolate`` or ``sigma_at``
returns there.  Mask distances are taken over each point's candidate
boundary midpoints, a superset that holds the nearest midpoint of every
sample of the point: ``Domain._mask_sigma_axis`` squares the axis offsets of
the (point, candidate) pairs and ``Domain._mask_sigma_combine`` sums them in
axis order and takes the minimum, as the KD-tree of ``sigma_at`` does, so
the bits are the same.  The candidate tables grow with the pairs, so mask
blocks are split into sub-blocks of about ``_BLOCK_PAIRS`` pairs.  A plain
callable has the coordinate as its axis half and is called once per node on
the stacked coordinates.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import Domain
from .kernels import Kernel


# Points per block of a sweep.  A block's axis tables hold one axis-half
# entry per distinct node coordinate per axis, each of _BLOCK points, so the
# block bounds the sweep's memory; worker threads are handed whole blocks.
_BLOCK = 4096

# Candidate pairs per sub-block of a mask distance sweep.  Its axis tables
# hold one entry per pair for each distinct node coordinate per axis, so a
# block whose points see many boundary midpoints is split to keep them small.
_BLOCK_PAIRS = 1 << 14


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


@dataclass(frozen=True, eq=False)
class SigmaSample:
    """``Domain.sigma_at`` as a sample function; a sweep takes the distances
    through their halves instead."""

    domain: Domain

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.domain.sigma_at(p)


def _halves(sample_fns: Sequence[Callable], nodes: np.ndarray) -> Callable:
    """The halves of a sweep's sample functions, per block of points.

    Called with a block's points ``x`` and steps ``s``, it returns the
    block's sub-blocks as ``(slice, axis half, combine half)``.  The axis
    half maps ``(axis, coords)`` to an entry whose last item masks the
    coordinates outside the closed bbox (None where none can be); the
    combine half maps a node's entries, in axis order, to its (F, M)
    samples.  Only mask distances split a block (see ``_mask_halves``)."""
    first = sample_fns[0]
    dom = getattr(first, "domain", None)
    if len(sample_fns) == 1 and isinstance(first, SigmaSample) and dom.kind == "mask":
        return _mask_halves(dom, np.sqrt((nodes * nodes).sum(axis=1)).max())
    if all(isinstance(fn, GridSample) and fn.clamp == first.clamp
           and (fn.domain.shape, fn.domain.bbox) == (dom.shape, dom.bbox) for fn in sample_fns):
        stack = np.array([np.reshape(fn.values, -1) for fn in sample_fns], dtype=float)
        halves = (lambda axis, c: dom._axis_cells(axis, c, first.clamp),
                  lambda cells: dom._blend(stack, sum([c[0] for c in cells]), [c[1] for c in cells]))
    elif len(sample_fns) == 1 and isinstance(first, SigmaSample):
        halves = (lambda axis, c: (dom._sigma_axis(axis, c), None),
                  lambda terms: dom._sigma_combine([t for t, _ in terms])[None])
    else:
        halves = (lambda axis, c: (c, None),
                  lambda coords: np.array([fn(np.column_stack([c for c, _ in coords]))
                                           for fn in sample_fns], dtype=float))
    return lambda x, s: [(slice(None), *halves)]


def _mask_halves(dom: Domain, reach: float) -> Callable:
    """Per block, the mask distance halves over each point's candidate
    boundary midpoints (``Domain._mask_radius``, for samples within ``reach
    * s`` of the point), in sub-blocks of about ``_BLOCK_PAIRS`` candidate
    pairs; a first ball query only counts them, so that no more than a
    sub-block's candidates are ever listed.  The candidates hold each
    sample's nearest midpoint and the squares are summed in the tree's axis
    order, so every sample is bitwise ``sigma_at``."""
    tree = dom._boundary_tree()  # built here, before any worker thread

    def split(x: np.ndarray, s: np.ndarray):
        radius = dom._mask_radius(x, reach * s)
        ends = np.cumsum(tree.query_ball_point(x, radius, workers=1, return_length=True))
        start = 0
        while start < len(x):
            begin = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, begin + _BLOCK_PAIRS, side="right")), start + 1)
            counts, found = dom._mask_candidates(x[start:stop], radius[start:stop])
            owner = np.repeat(np.arange(stop - start), counts)
            targets = tree.data[found].T.copy()
            starts = np.cumsum(counts) - counts
            yield (slice(start, stop),
                   lambda axis, c, t=targets, o=owner: (dom._mask_sigma_axis(c, o, t[axis]), None),
                   lambda parts, st=starts: dom._mask_sigma_combine([p for p, _ in parts], st)[None])
            start = stop

    return split


def _node_error(k: int, z: np.ndarray, err: str) -> ValueError:
    return ValueError(f"sampling failed at kernel node k={k}, z_k={z}: {err}")


def _block_sampler(halves, axis_values, x, s, nodes):
    """Per-node samples of one block of points ``x`` with steps ``s``.

    Each axis coordinate ``x_a - s z_a`` goes through the axis half once per
    distinct ``z_a`` (see ``_axis_values``), so a node costs one combine of
    its axes' entries.  A sample outside the closed bbox (possible only when
    the step invariant is broken) raises before any node of the block is
    sampled, naming the first such node and its point."""
    axis_half, combine = halves
    tables = [(which, [axis_half(axis, x[:, axis] - s * z) for z in values])
              for axis, (values, which) in enumerate(axis_values)]
    node_outside = np.any([np.array([out is not None and out.any() for *_, out in entries])[which]
                           for which, entries in tables], axis=0)
    if node_outside.any():
        k = int(np.argmax(node_outside))
        i = int(np.argmax(np.any([entries[which[k]][-1] for which, entries in tables], axis=0)))
        raise _node_error(k, nodes[k], (
            f"evaluation outside the closed domain bbox at point "
            f"{x[i] - s[i] * nodes[k]} (step invariant violated)"))

    def sample(k: int) -> np.ndarray:
        try:
            return combine([entries[which[k]] for which, entries in tables])
        except ValueError as err:
            raise _node_error(k, nodes[k], str(err)) from err

    return sample


def _axis_values(nodes: np.ndarray) -> list[tuple[np.ndarray, list[int]]]:
    """Per axis, the distinct node coordinates and each node's index into
    them, as a list (cheaper than an array to index once per node); grouped
    by bit pattern, so +0.0 and -0.0 stay apart."""
    out = []
    for axis in range(nodes.shape[1]):
        bits = np.ascontiguousarray(nodes[:, axis], dtype=float).view(np.int64)
        uniq, which = np.unique(bits, return_inverse=True)
        out.append((uniq.view(float), which.reshape(-1).tolist()))
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
    split = _halves(sample_fns, nodes)
    axis_values = _axis_values(nodes)

    def block(b: slice) -> None:
        idx = act_idx[b]
        x, s = points[idx], step[idx]
        for sub, *halves in split(x, s):
            sub_block(_block_sampler(halves, axis_values, x[sub], s[sub], nodes),
                      total[:, b][:, sub], lo[:, b][:, sub], hi[:, b][:, sub], pairs[b][sub])

    def sub_block(sample, acc, low, high, pr) -> None:
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
            diff = np.zeros(len(pr))
            for axis, za in enumerate(mirror):
                if za != 0.0:
                    diff += za * (vals[axis] - prev[axis])
            pr += coeffs[k - 1] * diff

    def worker(sl: slice) -> None:
        for start in range(sl.start, sl.stop, _BLOCK):
            block(slice(start, min(start + _BLOCK, sl.stop)))

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
