"""Every operator built on the sampling sweep against the reference loops
of ``sampling_oracle``, bit for bit, over box, ball and mask domains in 1D,
2D and 3D with anisotropic spacing, even and odd kernel orders (odd orders
carry the origin node and zero node components), in one block and in
several."""

import gc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

import sampling_oracle as oracle
from mollikit import _sampling
from mollikit import eta as eta_mod
from mollikit._sampling import (GridSample, SigmaSample, _axis_values, _block_sampler,
                                _halves, _sweep, variable_step_average, weighted_z_dot)
from mollikit.analysis import _operator_columns, trace_check
from mollikit.eta import (EtaProfile, build_whitney_eta, bv_step_eta, quadratic_eta,
                          regularized_distance)
from mollikit.feasible import ConstraintSpec, convergence_factor
from mollikit.grid import Domain, ScalarField, gradient_central
from mollikit.kernels import make_kernel
from mollikit.mollify import (MollifierConfig, mollify, mollify_at_points, mollify_gradient,
                              pointwise_gradient_bound_check, psi_field)

BBOX = {1: [(0.0, 1.3)],
        2: [(0.0, 1.3), (-0.2, 0.5)],
        3: [(0.0, 0.9), (-0.25, 0.5), (0.1, 0.85)]}
SHAPE = {1: (97,), 2: (41, 29), 3: (17, 13, 15)}
ORDERS = {1: (16, 15), 2: (8, 7), 3: (6, 5)}


def _domain(kind: str, dim: int, bbox=None, shape=None) -> Domain:
    bbox, shape = bbox or BBOX[dim], shape or SHAPE[dim]
    if kind == "box":
        return Domain.box(bbox, shape)
    if kind == "ball":
        return Domain.ball(bbox, shape)
    grids = np.meshgrid(*[np.linspace(-1.0, 1.0, n) for n in shape], indexing="ij")
    inside = sum(g * g for g in grids) < 0.8
    notch = (grids[0] > 0.1) & (grids[0] < 0.4)
    for g in grids[1:]:
        notch &= np.abs(g) < 0.3
    return Domain.from_mask(bbox, inside & ~notch)


def _theta(dom: Domain) -> np.ndarray:
    """The boundary plus a few inside nodes: an interior zero set."""
    theta = ~dom.inside_mask
    inside = np.flatnonzero(dom.inside_mask)
    theta.flat[inside[len(inside) // 3::max(1, len(inside) // 4)]] = True
    return theta


DOMAINS = [(kind, dim) for dim in (1, 2, 3) for kind in ("box", "ball", "mask")]


@pytest.fixture(scope="module", params=DOMAINS, ids=lambda p: f"{p[0]}{p[1]}d")
def setup(request):
    kind, dim = request.param
    dom = _domain(kind, dim)
    rng = np.random.default_rng(7 * dim + len(kind))
    f = ScalarField(dom, rng.standard_normal(dom.shape))
    theta = _theta(dom)
    alpha = 0.5 + np.abs(rng.standard_normal(dom.shape))
    alpha[theta & dom.inside_mask] = 0.0
    return {"dom": dom, "f": f, "theta": theta, "alpha": ScalarField(dom, alpha),
            "eta0": build_whitney_eta(dom, None, 0.5),
            "eta1": build_whitney_eta(dom, theta, 0.5)}


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
def test_operators_bitwise_equal_to_reference_loops(setup, parity, blocks, monkeypatch):
    # blocks=1: every sweep in one block; blocks=2: blocks of 32 points, so
    # that some sweep of each case runs in 2 or more
    if blocks > 1:
        monkeypatch.setattr(_sampling, "_BLOCK", 32)
    counts = []
    cut = _sampling._blocks

    def counted(m):
        out = cut(m)
        counts.append(len(out))
        return out

    monkeypatch.setattr(_sampling, "_blocks", counted)
    dom, f, eta0, eta1 = setup["dom"], setup["f"], setup["eta0"], setup["eta1"]
    kernel = make_kernel("bump", dom.dim, ORDERS[dom.dim][parity])
    assert (kernel.paired_count < len(kernel.nodes)) == bool(parity)
    cfg = MollifierConfig(kernel, eta0)
    active = cfg.step_inside() >= dom.h
    assert active.any() and not active.all()
    grad_f = gradient_central(f)

    flat = ScalarField.constant(dom, 0.3)  # the hull clamp fires at most of its nodes
    for g in (f, flat):
        assert np.array_equal(mollify(g, cfg).values, oracle.mollify(g, cfg))

    deep = dom.sigma().values > 2.0 * max(dom.spacing)
    points = dom.node_coords(deep) + 0.25 * np.asarray(dom.spacing)
    wave = lambda p: np.sin(3.0 * p.sum(axis=1))  # noqa: E731
    for g in (f, wave):
        assert np.array_equal(mollify_at_points(g, cfg, points),
                              oracle.mollify_at_points(g, cfg, points))

    got = mollify_gradient(f, grad_f, cfg).arrays()
    want = oracle.mollify_gradient(f, grad_f, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert (pointwise_gradient_bound_check(f, cfg)
            == oracle.pointwise_gradient_bound_check(f, cfg))
    assert trace_check(f, cfg) == oracle.trace_check(f, cfg)

    for n in (None, 4):
        got = psi_field(f, eta1, eta0, n, kernel).arrays()
        want = oracle.psi_field(f, eta1, eta0, n, kernel)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    for mode in ("value", "gradient"):
        spec = ConstraintSpec(setup["alpha"], mode)
        m, sup = convergence_factor(spec, eta1, 2, kernel)
        m_ref, sup_ref = oracle.convergence_factor(spec, eta1, 2, kernel)
        assert np.array_equal(m.values, m_ref) and sup == sup_ref
    assert (max(counts) > 1) == (blocks > 1)


@pytest.mark.parametrize("kind,dim", DOMAINS, ids=[f"{k}{d}d" for k, d in DOMAINS])
def test_boundary_step_keeps_every_sample_inside_the_bbox(kind, dim):
    # step = sigma at every node, as in the integrability counterexample:
    # sigma is at most the distance to each bbox face and |z_a| <= 1 - 1/order,
    # so every sample lies at least step / order inside the closed bbox, the
    # sweeps and the column sums raise no bbox error, and they match the
    # reference loops, which refuse any point outside it
    dom = _domain(kind, dim, shape={1: (41,), 2: (23, 17), 3: (11, 9, 10)}[dim])
    prof = EtaProfile(dom.sigma(), 1.0, "linear", None, ~dom.inside_mask)
    f = ScalarField(dom, np.random.default_rng(dim).standard_normal(dom.shape))
    grad_f = gradient_central(f)
    step = prof.values[dom.inside_mask]
    x = dom.node_coords()[step >= dom.h]
    s = step[step >= dom.h]
    for profile in ("bump", "box", "plateau"):
        for order in {1: (8, 7), 2: (6, 5), 3: (4, 3)}[dim]:
            kernel = make_kernel(profile, dim, order, 3 if profile == "plateau" else None)
            y = x[:, None] - s[:, None, None] * kernel.nodes
            margin = np.minimum(y - dom.lo, dom.hi - y).min(axis=(1, 2))
            assert (margin >= s / order * (1.0 - 1e-9)).all()
            cfg = MollifierConfig(kernel, prof, allow_boundary_step=True)
            assert mollify(f, cfg).values.tobytes() == oracle.mollify(f, cfg).tobytes()
            got = mollify_gradient(f, grad_f, cfg).arrays()
            want = oracle.mollify_gradient(f, grad_f, cfg)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
            columns, _ = _operator_columns(cfg)
            expect = oracle.column_sums(cfg)
            assert np.all(np.abs(columns - expect) <= 1e-14 * expect)


def test_step_builders_bitwise_equal_to_reference_loops(setup, monkeypatch):
    dom, theta = setup["dom"], setup["theta"]

    def build():
        quad = quadratic_eta(dom, 0.25)
        return [build_whitney_eta(dom, None, 0.25), build_whitney_eta(dom, theta, 0.25),
                regularized_distance(dom, 0.25), quad, bv_step_eta(dom, 3, quad)]

    got = build()
    monkeypatch.setattr(eta_mod, "variable_step_average", oracle.average_entry)
    want = build()
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.values, b.values) and a.grad_bound == b.grad_bound


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_interpolate_bitwise_equal_to_tuple_gather(dim):
    bbox = [(0.0, hi) for _, hi in BBOX[dim]]  # lo = 0.0, so that -0.0 is on the grid
    dom = Domain.box(bbox, SHAPE[dim])
    lo, hi = dom.lo, dom.hi
    rng = np.random.default_rng(dim)
    values = rng.standard_normal(dom.shape)
    values.flat[::5] = 0.0
    values.flat[1::5] = -0.0
    nodes = dom.node_coords(np.ones(dom.shape, dtype=bool))
    inner = lo + rng.random((500, dim)) * (hi - lo)
    upper = inner.copy()  # on the upper face i0 clips to n - 2
    face = rng.integers(dim, size=500)
    upper[np.arange(500), face] = hi[face]
    zeros = inner.copy()
    zeros[::2, 0] = -0.0
    zeros[1::2, 0] = 0.0
    beyond = lo + (rng.random((500, dim)) * 1.6 - 0.3) * (hi - lo)
    for pts in (nodes, inner, upper, zeros):
        got = dom.interpolate(values, pts)
        want = oracle.interpolate(dom, values, pts)
        assert got.tobytes() == want.tobytes()  # the sign of every zero too
    with pytest.raises(ValueError, match="outside the closed domain bbox"):
        dom.interpolate(values, beyond)


@pytest.mark.parametrize("beyond", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_table_blend_bitwise_equal_to_corner_gathers(dim, beyond):
    # beyond: points outside the closed bbox are mixed in, and the axis
    # half's mask flags exactly their coordinates outside it, so that both
    # interpolate and the sweep refuse them
    dom = Domain.box(BBOX[dim], SHAPE[dim])  # anisotropic, non-dyadic spacing
    lo, hi = dom.lo, dom.hi
    rng = np.random.default_rng(10 + dim)
    inner = lo + rng.random((400, dim)) * (hi - lo)
    upper = inner[:100].copy()  # on the upper face i0 clips to n - 2
    face = rng.integers(dim, size=100)
    upper[np.arange(100), face] = hi[face]
    pts = np.vstack([dom.node_coords(), inner, upper])
    if beyond:
        mixed = np.vstack([pts, lo + (rng.random((300, dim)) * 1.6 - 0.3) * (hi - lo)])
        rng.shuffle(mixed)
        outs = [dom._axis_cells(axis, mixed[:, axis])[2] for axis in range(dim)]
        assert np.array_equal(np.column_stack(outs), (mixed < lo) | (mixed > hi))
        first = mixed[int(np.argmax(np.any(outs, axis=0)))]
        with pytest.raises(ValueError, match="outside the closed domain bbox") as err:
            dom.interpolate(rng.standard_normal(dom.shape), mixed)
        assert f"at point {first}" in str(err.value)
    cells = [dom._axis_cells(axis, pts[:, axis]) for axis in range(dim)]
    assert not any(out.any() for *_, out in cells)
    base, fracs = reduce(np.add, [c[0] for c in cells]), [c[1] for c in cells]
    for n_f in (1, dim + 1):
        values = rng.standard_normal((n_f, *dom.shape))
        values.reshape(n_f, -1)[:, ::5] = 0.0
        values.reshape(n_f, -1)[:, 1::5] = -0.0
        stack = values.reshape(n_f, -1)
        got = dom._blend(dom._blend_tables(stack), base, fracs)
        assert got.tobytes() == oracle.flat_blend(dom, stack, base, fracs).tobytes()
        for f, row in zip(values, got, strict=True):
            want = oracle.interpolate(dom, f, pts)
            assert row.tobytes() == want.tobytes()  # the sign of every zero too
            assert dom.interpolate(f, pts).tobytes() == want.tobytes()


def test_sweep_blocks_are_balanced(monkeypatch):
    # a sweep of m points makes max(1, m // B) blocks, each of B to 2B - 1
    # points (fewer only when m < B), and no block size moves a bit
    block = 16
    dom = _domain("box", 2)
    kernel = make_kernel("bump", 2, 8)
    rng = np.random.default_rng(5)
    lo, hi = dom.lo, dom.hi
    x = lo + (0.2 + 0.6 * rng.random((2 * block + 1, 2))) * (hi - lo)
    s = rng.uniform(0.0, 0.15, len(x)) * min(hi - lo)
    fields = [GridSample(dom, rng.standard_normal(dom.shape)) for _ in range(3)]
    sizes = []
    block_sampler = _sampling._block_sampler

    def recording(halves, axis_values, xb, *args):
        sizes.append(len(xb))
        return block_sampler(halves, axis_values, xb, *args)

    monkeypatch.setattr(_sampling, "_block_sampler", recording)
    monkeypatch.setattr(_sampling, "_BLOCK", block)
    for m in (1, block - 1, block, block + 1, 2 * block - 1, 2 * block + 1):
        sizes.clear()
        got = _sweep(x[:m], s[:m], np.arange(m), kernel.nodes, kernel.coeffs, fields)
        assert sum(sizes) == m and len(sizes) == max(1, m // block)
        assert max(sizes) < 2 * block and (min(sizes) >= block or sizes == [m] and m < block)
        total, low, high = np.zeros((3, m)), np.full((3, m), np.inf), np.full((3, m), -np.inf)
        for c, z in zip(kernel.coeffs, kernel.nodes):
            vals = np.array([dom.interpolate(fn.values, x[:m] - s[:m, None] * z)
                             for fn in fields])
            total += c * vals
            np.minimum(low, vals, out=low)
            np.maximum(high, vals, out=high)
        for a, b in zip(got[:3], (total, low, high)):
            assert a.tobytes() == b.tobytes()


def test_sweep_outside_the_bbox_names_the_node_and_point():
    dom = _domain("box", 2)
    kernel = make_kernel("bump", 2, 8)
    pts = dom.node_coords()[:3]
    step = np.full(3, 10.0)  # every node's sample leaves the bbox
    point = pts[0] - step[0] * kernel.nodes[0]
    with pytest.raises(ValueError, match="step invariant") as err:
        variable_step_average(pts, step, kernel, [GridSample(dom, np.zeros(dom.shape))],
                              [np.zeros(3)], dom.h)
    assert f"kernel node k=0, z_k={kernel.nodes[0]}" in str(err.value)
    assert f"at point {point}" in str(err.value)


def _record_tiles(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch the sweep to record (points, start, stop) of every tile it samples."""
    tiles = []
    block_sampler = _sampling._block_sampler

    def recording(halves, axis_values, xb, s, nodes):
        sample = block_sampler(halves, axis_values, xb, s, nodes)

        def tile(start, stop):
            tiles.append((len(xb), start, min(stop, len(nodes))))
            return sample(start, stop)

        return tile

    monkeypatch.setattr(_sampling, "_block_sampler", recording)
    return tiles


def test_node_tiles_bitwise_equal_to_reference_loops(monkeypatch):
    # a field with +0.0 and -0.0 regions, 0.9 alpha u with alpha = 0 on a
    # disk, and its gradient: values, hull, clamp and z-dot match the
    # reference loops in every bit, signed zeros included, in tiles of 5
    # nodes (odd, so that mirror pairs straddle tile edges) and of 1
    dom = Domain.box([(0.0, 1.3), (-0.2, 0.5)], (41, 29))
    gx, gy = dom.node_grids()
    alpha = np.where((gx - 0.6) ** 2 + (gy - 0.3) ** 2 < 0.06, 0.0, 1.0 + gx * gy)
    u = np.random.default_rng(3).standard_normal(dom.shape)
    f = ScalarField(dom, 0.9 * alpha * u)
    fields = [*gradient_central(f).components, f]
    kernel = make_kernel("bump", 2, 8)
    pts = dom.node_coords()
    step = build_whitney_eta(dom, None, 0.5).values[dom.inside_mask]
    ident = [g.values[dom.inside_mask] for g in fields]
    m = int((step >= dom.h).sum())
    want = oracle.z_dot_sweep(pts, step, kernel, [oracle._sample(g) for g in fields],
                              ident, dom.h)
    assert any((w == 0.0).any() and np.signbit(w[w == 0.0]).any() for w in want[1:3])
    tiles = _record_tiles(monkeypatch)
    for block, tile in ((5 * m, 5), (32, 1)):
        monkeypatch.setattr(_sampling, "_BLOCK", block)
        tiles.clear()
        got = weighted_z_dot(pts, step, kernel, [GridSample(dom, g.values) for g in fields],
                             ident, dom.h)
        for a, b in zip((got.values, got.lo, got.hi, got.clamped, got.zdot), want, strict=True):
            assert a.tobytes() == b.tobytes()
        assert max(stop - start for _, start, stop in tiles) == tile
        if tile > 1:  # some pair (2p, 2p + 1) of the z-dot sum is split across two tiles
            assert any(start % 2 and start < kernel.paired_count for _, start, _ in tiles)
        else:
            assert len({points for points, _, _ in tiles}) > 1  # in several blocks


@pytest.mark.parametrize("block", [_sampling._BLOCK, 32], ids=["tiles", "one-node"])
def test_sweep_leaves_no_reference_cycle(block, monkeypatch):
    # a block's axis tables are freed when its sampling ends, not at the
    # next garbage collection, so that no two blocks' tables (nor two
    # sweeps') are alive at once
    monkeypatch.setattr(_sampling, "_BLOCK", block)
    dom = _domain("box", 2)
    kernel = make_kernel("bump", 2, 8)
    pts = dom.node_coords()
    step = 0.5 * dom.sigma().values[dom.inside_mask]
    field = np.random.default_rng(0).standard_normal(dom.shape)
    gc.collect()
    gc.disable()
    try:
        for fns in ([GridSample(dom, field)], [SigmaSample(dom)], [lambda p: p[:, 0]]):
            _sweep(pts, step, np.arange(len(pts)), kernel.nodes, kernel.coeffs, fns)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("block", [_sampling._BLOCK, 2], ids=["tiles", "one-node"])
def test_failure_in_a_tile_names_the_first_failing_node(block, monkeypatch):
    # the first node whose sample fails sits in the middle of a tile of all
    # 52 nodes at the default block, and in a tile of its own at block 2
    dom = _domain("box", 2)
    kernel = make_kernel("bump", 2, 8)
    pts = dom.node_coords()[[200, 400, 600]]
    step = np.full(3, 0.05)
    reach = (pts[:, None, 1] - step[:, None] * kernel.nodes[None, :, 1]).max(axis=0)
    cut = np.sort(np.unique(reach))[-2]  # nodes reaching beyond it on axis 1 fail
    k = int(np.argmax(reach > cut))
    assert 0 < k < len(kernel.nodes) - 1
    tiles = _record_tiles(monkeypatch)
    monkeypatch.setattr(_sampling, "_BLOCK", block)

    def capped(p):
        if (p[:, 1] > cut).any():
            raise ValueError("beyond the cap")
        return p[:, 0]

    named = f"kernel node k={k}, z_k={kernel.nodes[k]}"
    with pytest.raises(ValueError, match="beyond the cap") as err:
        variable_step_average(pts, step, kernel, [capped], [np.zeros(3)], dom.h)
    assert named in str(err.value)
    assert max(stop - start for _, start, stop in tiles) == (len(kernel.nodes) if block > 2 else 1)

    # the same node, when its samples leave the bbox of a grid field
    shifted = replace(dom, bbox=(dom.bbox[0], (dom.bbox[1][0], cut)))
    i = int(np.argmax(pts[:, 1] - step * kernel.nodes[k, 1] > cut))
    with pytest.raises(ValueError, match="step invariant") as err:
        variable_step_average(pts, step, kernel, [GridSample(shifted, np.zeros(dom.shape))],
                              [np.zeros(3)], dom.h)
    assert named in str(err.value)
    assert f"at point {pts[i] - step[i] * kernel.nodes[k]}" in str(err.value)


# lo = 0.0 on the first axis in 1D and 3D, so that a -0.0 coordinate there
# gives a -0.0 box distance
SIGMA_BBOX = {1: [(0.0, 1.3)],
              2: [(0.1, 0.7), (-0.2, 0.5)],
              3: [(0.0, 0.9), (-0.25, 0.5), (0.1, 0.85)]}


def _sigma_sample_points(dom: Domain, rng):
    """Points, steps and nodes whose samples include +-0.0 coordinates and
    points exactly on the bbox faces and (up to rounding) on the sphere."""
    dim, lo, hi = dom.dim, dom.lo, dom.hi
    center, radius = (lo + hi) / 2.0, min(hi - lo) / 2.0
    inner = lo + rng.random((300, dim)) * (hi - lo)
    faces = inner[:100].copy()
    axis = rng.integers(dim, size=100)
    faces[np.arange(100), axis] = np.where(rng.random(100) < 0.5, lo[axis], hi[axis])
    sphere = np.repeat(center[None], 2 * dim, axis=0)
    for axis in range(dim):
        sphere[2 * axis, axis] += radius
        sphere[2 * axis + 1, axis] -= radius
    zeros = inner[:40].copy()
    zeros[::2, 0], zeros[1::2, 0] = -0.0, 0.0
    x = np.vstack([inner, faces, sphere, zeros])
    s = rng.uniform(0.0, 0.3, len(x)) * min(hi - lo)
    s[300:] = 0.0  # the face, sphere and zero points are themselves sampled
    eye = np.eye(dim)
    nodes = np.vstack([make_kernel("bump", dim, ORDERS[dim][1]).nodes,  # odd: zero components
                       eye, 0.0 - eye, np.full((1, dim), -0.0)])
    return x, s, nodes


@pytest.mark.parametrize("kind", ["box", "ball"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma_samples_bitwise_equal_to_sigma_at(kind, dim, monkeypatch):
    dom = _domain(kind, dim, SIGMA_BBOX[dim])
    rng = np.random.default_rng(dim)
    x, s, nodes = _sigma_sample_points(dom, rng)
    shifted = [x - s[:, None] * z for z in nodes]
    want = [dom.sigma_at(p) for p in shifted]
    assert any((w == 0.0).any() for w in want)
    assert any(np.signbit(w).any() for w in want)

    # in one block of tiles of many nodes, and in blocks of 64 points and
    # tiles of one node, every sample bitwise sigma_at
    halves = _halves([SigmaSample(dom)])
    tiles = set()
    for block in (_sampling._BLOCK, 64):
        monkeypatch.setattr(_sampling, "_BLOCK", block)
        for b in _sampling._blocks(len(x)):
            sample = _block_sampler(halves, _axis_values(nodes), x[b], s[b], nodes)
            tile = _sampling._tile(b.stop - b.start)
            tiles.add(tile)
            for start in range(0, len(nodes), tile):
                for k, vals in enumerate(sample(start, start + tile), start):
                    assert vals[0].tobytes() == want[k][b].tobytes(), k  # signed zeros too
    assert 1 in tiles and max(tiles) > 1

    # the whole sweep, in several blocks, never calls sigma_at and matches
    # a loop over sigma_at in every bit
    coeffs = np.random.default_rng(0).random(len(nodes))
    total, lo, hi = np.zeros(len(x)), np.full(len(x), np.inf), np.full(len(x), -np.inf)
    for c, w in zip(coeffs, want):
        total += c * w
        np.minimum(lo, w, out=lo)
        np.maximum(hi, w, out=hi)
    monkeypatch.setattr(Domain, "sigma_at", None)
    got = _sweep(x, s, np.arange(len(x)), nodes, coeffs, [SigmaSample(dom)])
    for a, b in zip(got[:3], (total, lo, hi)):
        assert a[0].tobytes() == b.tobytes()


def test_sigma_sample_refuses_a_mask_domain():
    # the builders sample node sigma of a mask domain as a GridSample
    with pytest.raises(ValueError, match="mask domain"):
        SigmaSample(_domain("mask", 2))
    SigmaSample(_domain("ball", 2))
