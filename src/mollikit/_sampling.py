"""The one sampling sweep behind every variable-step operator.

``_sweep`` takes each sample once per (point, kernel node) and reduces per
point: the weighted sum, the hull of the samples and, for gradient stacks,
the mirror-pair z-dot sum.  The three public entries are thin views of it.
Every reduction is per evaluation point, so output values do not depend on
how the point axis is cut into blocks.  A sweep runs on the calling thread,
in near-equal blocks of ``_BLOCK`` to ``2 _BLOCK - 1`` points (``_blocks``),
so no short tail block pays the per-node cost for a few points.

Every sample is taken in two halves: per block of points, an axis half runs
once per distinct node coordinate on each axis, on ``x_a - s z_a``; then a
combine half runs once per tile of nodes on its axes' entries.  For grid
fields (``GridSample``) these are ``Domain._axis_cells`` and, with the flat
offsets summed, ``Domain._blend`` over the tables of the whole field stack,
which ``Domain._blend_tables`` builds once per sweep (the stack and its
last-axis differences), so no node redoes a subtraction that depends on the
field alone; for box and ball distances (``SigmaSample``),
``Domain._sigma_axis`` and ``Domain._sigma_combine``, the halves of
``interpolate`` and ``sigma_at``.
Each coordinate is the product and difference of ``points[i] - step[i] *
nodes[k]``, so every sample is bitwise what ``interpolate`` or ``sigma_at``
returns there.  A plain callable (and ``SigmaSample`` on a mask domain) has
the coordinate as its axis half and is called once per tile on the stacked
coordinates of the tile's nodes.

A tile holds ``max(1, _BLOCK // M)`` consecutive kernel nodes of a block of
M points (``_tile``), so the combine half runs on (tile, M) entries and
makes (F, tile, M) samples, at most F ``_BLOCK`` values: a small sweep pays
the combine's dozen or so numpy calls once per tile instead of once per
node, and the block still bounds the memory.  A block of more than
``_BLOCK / 2`` points has one node per tile and runs the calls of a
per-node loop on the axis half's own arrays, without a copy.  The weighted
sum, the hull and the z-dot term still take the nodes one at a time, in
node order: ``np.minimum`` and ``np.maximum`` return one operand of a tie,
so another order could flip the sign of a zero in ``lo`` or ``hi``.

``column_sums`` is the transpose of a grid sweep's weighted sum: in the
sweep's blocks, on the cells of the same axis tables and bbox check
(``_axis_tables``), it scatters each node's corner weights in node order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .grid import Domain
from .kernels import Kernel


# Points per block of a sweep, and the size of a node tile.  A block's axis
# tables hold one axis-half entry per distinct node coordinate per axis, each
# as long as the block, and a tile of max(1, _BLOCK // M) nodes of a block of
# M points holds at most F * _BLOCK samples, so the block bounds the sweep's
# memory.  The m points of a sweep are cut into max(1, m // _BLOCK)
# near-equal blocks, from _BLOCK to 2 * _BLOCK - 1 points (fewer only in a
# sweep shorter than _BLOCK), so no short tail block pays a node loop; only
# such a short sweep can have more than one node per tile.
_BLOCK = 4096


def _tile(m: int) -> int:
    """Kernel nodes per tile in a block of ``m`` points (see ``_BLOCK``)."""
    return max(1, _BLOCK // m)


def _blocks(m: int) -> list[slice]:
    """The near-equal blocks of a sweep over ``m`` points, none if 0 (see ``_BLOCK``)."""
    count = max(1, m // _BLOCK)
    edges = [i * m // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:]) if b > a]


@dataclass(frozen=True, eq=False)
class GridSample:
    """A node array on a domain's grid as a sample function.

    Calling it interpolates.  A sweep whose sample functions are all
    ``GridSample``s of one grid gathers them as one (F, nodes) stack
    instead, through cell tables shared by every field and node.
    """

    domain: Domain
    values: np.ndarray

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.domain.interpolate(self.values, p)


@dataclass(frozen=True, eq=False)
class SigmaSample:
    """``Domain.sigma_at`` as a sample function; a sweep takes box and ball
    distances through their halves instead."""

    domain: Domain

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self.domain.sigma_at(p)


def _halves(sample_fns: Sequence[Callable]) -> tuple[Callable, Callable]:
    """The halves of a sweep's sample functions.

    The axis half maps ``(axis, coords)``, coordinates of any shape, to an
    entry of arrays of that shape whose last item masks the coordinates
    outside the closed bbox (None where none can be); the combine half maps
    the entries of a node or a tile, in axis order and without their masks,
    each (M,) or (tile, M), to its (F, M) or (F, tile, M) samples."""
    first = sample_fns[0]
    dom = getattr(first, "domain", None)
    if all(isinstance(fn, GridSample)
           and (fn.domain.shape, fn.domain.bbox) == (dom.shape, dom.bbox) for fn in sample_fns):
        tables = dom._blend_tables(
            np.array([np.reshape(fn.values, -1) for fn in sample_fns], dtype=float))
        return (dom._axis_cells,
                lambda cells: dom._blend(tables, reduce(np.add, [c[0] for c in cells]),
                                         [c[1] for c in cells]))
    if len(sample_fns) == 1 and isinstance(first, SigmaSample) and dom.kind != "mask":
        return (lambda axis, c: (dom._sigma_axis(axis, c), None),
                lambda terms: dom._sigma_combine([t[0] for t in terms])[None])

    def called(coords):
        shape = coords[0][0].shape
        points = np.column_stack([c[0].reshape(-1) for c in coords])
        return np.array([np.reshape(fn(points), shape) for fn in sample_fns], dtype=float)

    return lambda axis, c: (c, None), called


def _node_error(k: int, z: np.ndarray, err: str) -> ValueError:
    return ValueError(f"sampling failed at kernel node k={k}, z_k={z}: {err}")


def _axis_tables(axis_half, axis_values, x, s, nodes):
    """Per axis, each node's index into the distinct coordinates
    (``_axis_values``) and the items of the axis half's entries on a block
    of points ``x`` with steps ``s``: at one node per tile (``_tile``) an
    item lists one (M,) array per distinct ``x_a - s z_a``, at more it is one
    (distinct, M) array.  The masks go after the bbox check, which names the
    first node and point outside the closed bbox (a broken step invariant)."""
    per_node = _tile(len(x)) == 1
    tables = []
    for axis, (values, which) in enumerate(axis_values):
        if per_node:
            *parts, outs = zip(*[axis_half(axis, x[:, axis] - s * z) for z in values])
        else:
            *parts, outs = axis_half(axis, x[:, axis] - s * values[:, None])
            which = np.asarray(which)
        tables.append((which, parts, [None] * len(values) if outs is None else outs))
    node_outside = np.any([np.array([out is not None and out.any() for out in outs])[which]
                           for which, _, outs in tables], axis=0)
    if node_outside.any():
        k = int(np.argmax(node_outside))
        i = int(np.argmax(np.any([outs[which[k]] for which, _, outs in tables], axis=0)))
        raise _node_error(k, nodes[k], "evaluation outside the closed domain bbox at point "
                          f"{x[i] - s[i] * nodes[k]} (step invariant violated)")
    return [(which, parts) for which, parts, _ in tables]


def _node_entries(tables, k: int) -> list[list[np.ndarray]]:
    """Per axis, node ``k``'s entry in ``_axis_tables``, in either layout."""
    return [[part[which[k]] for part in parts] for which, parts in tables]


def _block_sampler(halves, axis_values, x, s, nodes):
    """The samples of one block of points ``x`` with steps ``s``:
    ``sample(start, stop)`` returns those of nodes ``start`` up to ``stop``
    (a tile, see ``_tile``; ``stop`` may pass the last node), one (F, M)
    array per node, from one combine of the entries of ``_axis_tables``, as
    they are at one node per tile and gathered at more.  A ``ValueError`` in
    a combine is re-raised naming the first node of the tile that raises it
    alone."""
    axis_half, combine = halves
    per_node = _tile(len(x)) == 1
    tables = _axis_tables(axis_half, axis_values, x, s, nodes)

    def combined(start: int, stop: int):
        if per_node:
            return [combine(_node_entries(tables, start))]
        return np.ascontiguousarray(combine([[part.take(which[start:stop], axis=0)
                                              for part in parts]
                                             for which, parts in tables]).swapaxes(0, 1))

    def sample(start: int, stop: int):
        try:
            return combined(start, stop)
        except ValueError:
            for k in range(start, min(stop, len(nodes))):  # the tile again, node by node
                try:
                    combined(k, k + 1)
                except ValueError as err:
                    raise _node_error(k, nodes[k], str(err)) from err
            raise

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
           paired_count: int = 0):
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
    halves = _halves(sample_fns)
    axis_values = _axis_values(nodes)

    def block(sample, acc, low, high, pr) -> None:
        tile = _tile(len(pr))
        for start in range(0, len(nodes), tile):
            for k, vals in enumerate(sample(start, start + tile), start):
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

    for b in _blocks(m):
        x, s = points[act_idx[b]], step[act_idx[b]]
        block(_block_sampler(halves, axis_values, x, s, nodes),
              total[:, b], lo[:, b], hi[:, b], pairs[b])
    return total, lo, hi, pairs


def column_sums(points: np.ndarray, step: np.ndarray, act_idx: np.ndarray, kernel: Kernel,
                dom: Domain) -> np.ndarray:
    """Per flat node of ``dom``'s grid, the column sum of a ``GridSample``
    sweep's weighted sum over ``act_idx`` (the hull clamp left out):
    ``coeffs_k`` times the corner weights of each ``points[i] - step[i] *
    nodes[k]``, in the sweep's blocks, from its ``Domain._axis_cells``
    tables and bbox check (``_axis_tables``), scattered by ``Domain._spread``
    from the block's lowest corner: the sum over the axes of the smallest
    offset in each axis table."""
    axis_values = _axis_values(kernel.nodes)
    total = np.zeros(dom.inside_mask.size)
    for b in _blocks(len(act_idx)):
        x, s = points[act_idx[b]], step[act_idx[b]]
        tables = _axis_tables(dom._axis_cells, axis_values, x, s, kernel.nodes)
        lo = sum(min(int(o.min()) for o in parts[0]) for _, parts in tables)
        for k, c in enumerate(kernel.coeffs):
            offsets, fracs = zip(*_node_entries(tables, k))
            dom._spread(total, reduce(np.add, offsets), fracs, c, lo)
    return total


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


def smoothed(step: np.ndarray, h: float) -> np.ndarray:
    """The subgrid guard: the points an average samples, those with a step
    of at least one grid spacing ``h``; every other point is the identity."""
    return step >= h


def _average(points, step, kernel: Kernel, sample_fns, identity_values, h: float,
             pairs: bool) -> Sweep:
    points = np.atleast_2d(points)
    values = np.array(identity_values, dtype=float, ndmin=2)
    lo, hi = values.copy(), values.copy()
    clamped = np.zeros(values.shape)
    zdot = np.zeros(len(points)) if pairs else None
    active = smoothed(step, h)
    act_idx = np.flatnonzero(active)
    if len(act_idx):
        total, lo_a, hi_a, pair_sum = _sweep(
            points, step, act_idx, kernel.nodes, kernel.coeffs, sample_fns,
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
                          sample_fns: Sequence[Callable], identity_values, h: float) -> Sweep:
    """Weighted average of each field's samples around each point.

    ``values[f, i] = sum_k coeff_k * sample_fns[f](points[i] - step[i] * z_k)``,
    clamped into the hull of the samples; ``identity_values`` holds one row
    per field.  The subgrid guard is part of the operator: a point with
    ``step[i] < h`` is not sampled and keeps its identity value, and these
    guarded columns carry the L1 norm's excess over 1 (see ``column_sums``).
    """
    return _average(points, step, kernel, sample_fns, identity_values, h, False)


def weighted_z_dot(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                   grad_sample_fns: Sequence[Callable], identity_values, h: float) -> Sweep:
    """``variable_step_average`` plus, in ``zdot``, the step-variation sum
    ``sum_k coeff_k * (-z_k) . grad(points[i] - step[i] * z_k)``.

    The first N sample functions are the gradient components; fields after
    them are only averaged.
    """
    return _average(points, step, kernel, grad_sample_fns, identity_values, h, True)


def variable_step_max(points: np.ndarray, step: np.ndarray, kernel: Kernel,
                      sample_fn: Callable, identity_values: np.ndarray) -> np.ndarray:
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
    _, _, hi, _ = _sweep(points, step, act_idx, nodes, coeffs, [sample_fn])
    out[act_idx] = np.maximum(out[act_idx], hi[0])
    return out
