"""Every operator built on the sampling sweep against the reference loops
of ``sampling_oracle``, bit for bit, over box, ball and mask domains in 1D,
2D and 3D with anisotropic spacing, even and odd kernel orders (odd orders
carry the origin node and zero node components) and 1 and 2 threads."""

import numpy as np
import pytest

import sampling_oracle as oracle
from mollikit import _sampling
from mollikit import eta as eta_mod
from mollikit._sampling import GridSample, variable_step_average
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


def _domain(kind: str, dim: int) -> Domain:
    bbox, shape = BBOX[dim], SHAPE[dim]
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
