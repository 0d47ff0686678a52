"""Every operator built on the sampling sweep against the reference loops
of ``sampling_oracle``, bit for bit, over box, ball and mask domains in 1D,
2D and 3D with anisotropic spacing, even and odd kernel orders (odd orders
carry the origin node and zero node components) and 1 and 2 threads."""

import os

import numpy as np
import pytest

import sampling_oracle as oracle
from mollikit import _sampling
from mollikit import eta as eta_mod
from mollikit._sampling import (GridSample, SigmaSample, _axis_values, _block_sampler,
                                _halves, _sweep, variable_step_average)
from mollikit.analysis import trace_check
from mollikit.eta import build_whitney_eta, bv_step_eta, quadratic_eta, regularized_distance
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


def _domain(kind: str, dim: int, bbox=None) -> Domain:
    bbox, shape = bbox or BBOX[dim], SHAPE[dim]
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


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
def test_operators_bitwise_equal_to_reference_loops(setup, parity, threads, monkeypatch):
    if threads > 1:  # small blocks, so that these grids make several slices and blocks
        monkeypatch.setattr(_sampling, "_BLOCK", 64)
    dom, f, eta0, eta1 = setup["dom"], setup["f"], setup["eta0"], setup["eta1"]
    kernel = make_kernel("bump", dom.dim, ORDERS[dom.dim][parity])
    assert (kernel.paired_count < len(kernel.nodes)) == bool(parity)
    cfg = MollifierConfig(kernel, eta0)
    active = cfg.step_inside() >= dom.h
    assert active.any() and not active.all()
    grad_f = gradient_central(f)

    flat = ScalarField.constant(dom, 0.3)  # the hull clamp fires at most of its nodes
    for g in (f, flat):
        assert np.array_equal(mollify(g, cfg, threads).values, oracle.mollify(g, cfg, threads))
    clamped = MollifierConfig(kernel, eta0, n=2, allow_boundary_step=True)
    assert np.array_equal(mollify(f, clamped, threads).values,
                          oracle.mollify(f, clamped, threads))

    deep = dom.sigma().values > 2.0 * max(dom.spacing)
    points = dom.node_coords(deep) + 0.25 * np.asarray(dom.spacing)
    wave = lambda p: np.sin(3.0 * p.sum(axis=1))  # noqa: E731
    for g in (f, wave):
        assert np.array_equal(mollify_at_points(g, cfg, points, threads),
                              oracle.mollify_at_points(g, cfg, points, threads))

    got = mollify_gradient(f, grad_f, cfg, threads).arrays()
    want = oracle.mollify_gradient(f, grad_f, cfg, threads)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert (pointwise_gradient_bound_check(f, cfg, threads)
            == oracle.pointwise_gradient_bound_check(f, cfg, threads))
    assert trace_check(f, cfg, threads=threads) == oracle.trace_check(f, cfg, threads=threads)

    for n in (None, 4):
        got = psi_field(f, eta1, eta0, n, kernel, threads).arrays()
        want = oracle.psi_field(f, eta1, eta0, n, kernel, threads)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    spec = ConstraintSpec(setup["alpha"])
    m, sup = convergence_factor(spec, eta1, 2, kernel, threads)
    m_ref, sup_ref = oracle.convergence_factor(spec, eta1, 2, kernel, threads)
    assert np.array_equal(m.values, m_ref) and sup == sup_ref


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
    for pts, clamp in ((nodes, False), (inner, False), (upper, False), (zeros, False),
                       (beyond, True), (nodes, True)):
        got = dom.interpolate(values, pts, clamp=clamp)
        want = oracle.interpolate(dom, values, pts, clamp=clamp)
        assert got.tobytes() == want.tobytes()  # the sign of every zero too
    with pytest.raises(ValueError, match="outside the closed domain bbox"):
        dom.interpolate(values, beyond)


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


@pytest.mark.parametrize("kind", ["box", "ball", "mask"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sigma_samples_bitwise_equal_to_sigma_at(kind, dim, monkeypatch):
    dom = _domain(kind, dim, SIGMA_BBOX[dim])
    rng = np.random.default_rng(dim)
    x, s, nodes = _sigma_sample_points(dom, rng)
    if kind == "mask":
        # inside nodes with steps up to sigma, the largest a certified step
        # profile takes, and the boundary midpoints themselves (sigma 0)
        pts = dom.node_coords()
        mids = dom.boundary_face_midpoints()[::7]
        x = np.vstack([x, pts, mids])
        s = np.concatenate([s, dom.sigma_at(pts) * rng.uniform(0.9, 1.0, len(pts)),
                            np.zeros(len(mids))])
    shifted = [x - s[:, None] * z for z in nodes]
    want = [dom.sigma_at(p) for p in shifted]
    assert any((w == 0.0).any() for w in want)
    assert any(np.signbit(w).any() for w in want) == (kind != "mask")

    # blocks of 64 points; mask blocks in sub-blocks of about 300 pairs
    monkeypatch.setattr(_sampling, "_BLOCK", 64)
    monkeypatch.setattr(_sampling, "_BLOCK_PAIRS", 300)
    if kind == "mask":  # some point takes every boundary midpoint as a candidate
        reach = np.sqrt((nodes * nodes).sum(axis=1)).max()
        counts, _ = dom._mask_candidates(x, dom._mask_radius(x, reach * s))
        assert counts.max() == len(dom.boundary_face_midpoints()) and counts.min() >= 1
    subs = 0
    for sub, *halves in _halves([SigmaSample(dom)], nodes)(x, s):
        sample = _block_sampler(halves, _axis_values(nodes), x[sub], s[sub], nodes)
        for k, w in enumerate(want):
            assert sample(k)[0].tobytes() == w[sub].tobytes(), k  # the sign of every zero too
        subs += 1
    assert (subs > 1) == (kind == "mask")

    # the whole sweep, in blocks over one or two worker slices, never calls
    # sigma_at and matches a loop over sigma_at in every bit
    coeffs = np.random.default_rng(0).random(len(nodes))
    total, lo, hi = np.zeros(len(x)), np.full(len(x), np.inf), np.full(len(x), -np.inf)
    for c, w in zip(coeffs, want):
        total += c * w
        np.minimum(lo, w, out=lo)
        np.maximum(hi, w, out=hi)
    assert len(_sampling._chunks(len(x), 2)) == min(2, len(os.sched_getaffinity(0)))
    monkeypatch.setattr(Domain, "sigma_at", None)
    for threads in (1, 2):
        got = _sweep(x, s, np.arange(len(x)), nodes, coeffs, [SigmaSample(dom)], threads)
        for a, b in zip(got[:3], (total, lo, hi)):
            assert a[0].tobytes() == b.tobytes()
