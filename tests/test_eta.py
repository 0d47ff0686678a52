import numpy as np
import pytest
from scipy.integrate import quad

import sampling_oracle as oracle
from mollikit.eta import (CLAMP, FLOOR_SLOPE, CertificationError, ModulusOfContinuity,
                          build_whitney_eta, bv_step_eta, calibrated_eta, estimate_modulus,
                          quadratic_eta, regularized_distance)
from mollikit.grid import Domain, ScalarField, distance_field, gradient_central
from mollikit.kernels import make_kernel
from grid_helpers import second_differences
from modulus_oracle import discrete_modulus, modulus_at
from test_acceptance import _disk_alpha
from test_sampling import _domain, _theta


@pytest.fixture(scope="module")
def line():
    return Domain.box([(0.0, 1.0)], 513)


@pytest.fixture(scope="module")
def square():
    return Domain.box([(0.0, 1.0), (0.0, 1.0)], 65)


# ---------------------------------------------------------------------- #
# Whitney-style builder


def test_whitney_basic_bounds(line):
    prof = build_whitney_eta(line, epsilon=0.25)
    center = line.shape[0] // 2
    assert 0.0 < prof.values[center] <= 0.125
    assert prof.values[0] == 0.0 and prof.values[-1] == 0.0
    assert prof.grad_bound <= 0.25
    prof.check_invariants()


def test_whitney_discrete_slope_cap(line):
    prof = build_whitney_eta(line, epsilon=0.25)
    h = line.h
    slopes = np.abs(np.diff(prof.values)) / h
    d2 = second_differences(prof.field).max() / h ** 2
    assert slopes.max() <= 0.25 + 2.0 * h * d2


def test_whitney_dominated_by_scaled_distance(line):
    eps = 0.25
    prof = build_whitney_eta(line, epsilon=eps)
    sigma = line.sigma().values
    inside = line.inside_mask
    assert (prof.values[inside] < eps * sigma[inside]).all()
    assert (prof.values[inside] < sigma[inside]).all()


def test_whitney_vanishing_differences_near_theta(line):
    # within the first two shells of Theta, undivided first and second
    # differences stay below 10 h (the finite-order vanishing certificate)
    prof = build_whitney_eta(line, epsilon=0.5)
    h = line.h
    sigma = line.sigma().values
    near = line.inside_mask & (sigma <= 2 * h)
    d1 = np.zeros_like(prof.values)
    d1[1:-1] = np.maximum(np.abs(prof.values[1:-1] - prof.values[:-2]),
                          np.abs(prof.values[2:] - prof.values[1:-1]))
    assert d1[near].max() <= 10 * h
    assert second_differences(prof.field)[near].max() <= 10 * h
    assert second_differences(prof.field).max() <= 10 * h


def test_whitney_interior_zero_set(line):
    theta = ~line.inside_mask.copy()
    theta[line.shape[0] // 2] = True  # add x = 0.5
    prof = build_whitney_eta(line, theta, epsilon=0.25)
    assert prof.values[line.shape[0] // 2] == 0.0
    off = line.inside_mask & ~theta
    assert (prof.values[off] > 0).all()
    d = distance_field(Domain(line.kind, line.bbox, line.shape, line.inside_mask,
                              theta & line.inside_mask), "theta")
    assert (prof.values[off] < d.values[off]).all()


def _whitney_reference(dom: Domain, theta: np.ndarray, eps: float, exact_sigma: bool):
    """``build_whitney_eta`` over the reference loops: pass 1 samples
    ``dom.sigma_at`` (``exact_sigma``) or the tuple-gather interpolant of
    node dist(., Theta), pass 2 the interpolant of pass 1's node output."""
    inside = dom.inside_mask
    interior = theta & inside
    d = np.where(interior, 0.0, distance_field(dom.with_delta(interior), "theta").values)
    kernel = make_kernel("bump", dom.dim, {1: 64, 2: 24, 3: 8}[dom.dim])
    pts, step = dom.node_coords(), np.maximum(eps * d[inside] / 2.0, 0.0)
    src = d
    for pass_ in (1, 2):
        grid = src
        sample = (dom.sigma_at if pass_ == 1 and exact_sigma
                  else lambda p: oracle.interpolate(dom, grid, p))
        src = src.copy()
        src[inside] = oracle.variable_step_average(pts, step, kernel, sample, grid[inside],
                                                   dom.h)[0]
    raw = np.maximum(np.minimum(src, d * CLAMP), 0.0)
    raw[theta] = 0.0
    g = gradient_central(ScalarField(dom, raw)).magnitude().values[inside].max()
    return raw * (eps / max(g * (1.0 + 1e-12), 1.0)), (step >= dom.h).sum()


@pytest.mark.parametrize("kind,dim,interior", [
    ("box", 1, False), ("box", 2, False), ("box", 3, False),
    ("ball", 1, False), ("ball", 2, False), ("ball", 3, False),
    ("mask", 2, False), ("mask", 3, False), ("box", 2, True), ("ball", 3, True),
])
def test_whitney_first_pass_samples_the_exact_boundary_distance(kind, dim, interior):
    # anisotropic, non-dyadic bboxes; Theta the boundary (box, ball: pass 1
    # on sigma_at) or with interior nodes (and on a mask: two interpolants);
    # 3D on a finer grid than the sampling tests', so that steps reach h
    dom = _domain(kind, dim, shape=(33, 25, 29) if dim == 3 else None)
    theta = _theta(dom) if interior else ~dom.inside_mask
    exact = kind != "mask" and not interior
    got = build_whitney_eta(dom, theta, 0.5).values
    want, smoothed = _whitney_reference(dom, theta, 0.5, exact)
    assert smoothed > 0
    assert got.tobytes() == want.tobytes()
    if exact:  # the interpolant of node sigma would give other bits
        assert want.tobytes() != _whitney_reference(dom, theta, 0.5, False)[0].tobytes()


def test_whitney_validation(line):
    with pytest.raises(ValueError, match="epsilon"):
        build_whitney_eta(line, epsilon=0.75)
    bad_theta = np.zeros(line.shape, dtype=bool)  # misses the boundary
    with pytest.raises(ValueError, match="boundary"):
        build_whitney_eta(line, bad_theta, epsilon=0.25)


def test_whitney_2d(square):
    prof = build_whitney_eta(square, epsilon=0.25)
    prof.check_invariants()
    assert prof.grad_bound <= 0.25
    h = square.h
    sigma = square.sigma().values
    near = square.inside_mask & (sigma <= 2 * h)
    assert second_differences(prof.field)[near].max() <= 10 * h


# ---------------------------------------------------------------------- #
# regularized distance


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
def test_regularized_distance_sandwich_1d(line, eps):
    prof = regularized_distance(line, eps)
    sigma = line.sigma().values[line.inside_mask]
    vals = prof.values[line.inside_mask]
    assert ((1 - eps) * sigma <= vals).all()
    assert (vals <= (1 + eps) * sigma).all()
    assert prof.values[0] == 0.0 and prof.values[-1] == 0.0


def test_regularized_distance_sandwich_2d(square):
    prof = regularized_distance(square, 0.1)
    sigma = square.sigma().values[square.inside_mask]
    vals = prof.values[square.inside_mask]
    assert ((0.9 * sigma <= vals) & (vals <= 1.1 * sigma)).all()


def test_regularized_distance_center_value_oracle(line):
    # independent oracle: adaptive quadrature of the averaging integral at
    # x = 1/2 using the same base step that the builder certifies
    eps = 0.1
    prof = regularized_distance(line, eps)
    base = build_whitney_eta(line, None, eps)
    center = line.shape[0] // 2
    b = base.values[center]
    mass = quad(lambda z: np.exp(-1 / (1 - z * z)), -1, 1, limit=200)[0]
    oracle = quad(lambda z: np.exp(-1 / (1 - z * z))
                  * min(0.5 - b * z, 0.5 + b * z), -1, 1, limit=200)[0] / mass
    assert prof.values[center] == pytest.approx(oracle, rel=5e-3)
    assert 0.45 <= prof.values[center] <= 0.55


def test_regularized_distance_needs_smooth_kernel(line):
    with pytest.raises(ValueError, match="smooth"):
        regularized_distance(line, 0.1, make_kernel("box", 1, 16))


# ---------------------------------------------------------------------- #
# quadratic profile


def test_quadratic_kappa_value(line):
    prof = quadratic_eta(line, 0.1)
    assert prof.kappa == pytest.approx((0.9 / 1.1) ** 2, abs=1e-12)
    assert prof.kappa == pytest.approx(0.6694, abs=1e-4)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.25])
def test_quadratic_certificate(line, eps):
    prof = quadratic_eta(line, eps)
    sigma = line.sigma().values[line.inside_mask]
    vals = prof.values[line.inside_mask]
    assert (prof.kappa * sigma ** 2 <= vals).all()
    assert (vals <= sigma ** 2).all()


def test_quadratic_2d_dominated_by_sigma_squared(square):
    prof = quadratic_eta(square, 0.1)
    sigma = square.sigma().values[square.inside_mask]
    assert (prof.values[square.inside_mask] <= sigma ** 2).all()
    boundary = ~square.inside_mask
    assert (prof.values[boundary] == 0.0).all()


def test_quadratic_rejects_wide_domains():
    wide = Domain.box([(0.0, 4.0)], 257)
    with pytest.raises(ValueError, match="rescale"):
        quadratic_eta(wide, 0.1)


# ---------------------------------------------------------------------- #
# modified-family profile


@pytest.mark.parametrize("n", [2, 16])
def test_bv_step_certificate(line, n):
    quad_prof = quadratic_eta(line, 0.1)
    prof = bv_step_eta(line, n, quad_prof)
    sigma = line.sigma().values[line.inside_mask]
    vals = prof.values[line.inside_mask]
    assert (vals <= sigma ** 2).all()
    assert (vals >= ((1 - sigma / n) * sigma) ** 2 * (1 - 1e-5)).all()
    prof.check_invariants()


# ---------------------------------------------------------------------- #
# modulus of continuity


def test_modulus_of_linear_bound():
    dom = Domain.box([(0.0, 1.0)], 65)  # 64 cells, knots align with the grid
    alpha = ScalarField.from_function(dom, lambda x: x)
    mod = estimate_modulus(alpha, 1.0)
    h = dom.h
    for t, v in zip(mod.knots[1:], mod.values[1:]):
        if t >= 2 * h:
            assert t * (1 - 2 * h) <= v <= t + 1e-9


def test_modulus_constant_bound_is_floor():
    dom = Domain.box([(0.0, 1.0)], 65)
    alpha = ScalarField.constant(dom, 2.0)
    mod = estimate_modulus(alpha, 1.0)
    assert np.allclose(mod.values, 1e-12 * mod.knots)


def test_modulus_lipschitz_bound():
    dom = Domain.box([(0.0, 1.0)], 65)
    alpha = ScalarField.from_function(dom, lambda x: np.minimum(x, 1 - x))
    mod = estimate_modulus(alpha, 1.0)
    assert (mod.values <= mod.knots + 1e-9).all()


def test_modulus_inverse_roundtrip():
    dom = Domain.box([(0.0, 1.0)], 65)
    alpha = ScalarField.from_function(dom, lambda x: np.sqrt(x))
    mod = estimate_modulus(alpha, 1.0)
    t = mod.knots[1:]
    assert (mod.inverse(mod(t)) >= t * (1 - 1e-9)).all()
    with pytest.raises(ValueError, match="strictly increasing"):
        ModulusOfContinuity([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])


def test_modulus_large_grid_whole_reach():
    dom = Domain.box([(0.0, 1.0)], 4097)  # every one of the 4096 offsets
    alpha = ScalarField.from_function(dom, lambda x: x)
    mod = estimate_modulus(alpha, 1.0)
    assert (mod.values <= mod.knots + 1e-9).all()
    assert mod.values[-1] >= 0.9


def _modulus_case(name):
    """A bound field and a reach: random values on box and mask grids
    (anisotropic, non-dyadic bboxes), or criterion 10's disk bound with the
    reach of its calibrated step."""
    if name == "disk96":
        dom = Domain.box([(0.0, 1.0)] * 2, 96)
        alpha = _disk_alpha(dom)
        theta = (alpha.values == 0.0) | ~dom.inside_mask
        return alpha, build_whitney_eta(dom, theta, 0.25).values.max()
    aniso = [(0.1, 0.7), (-0.2, 0.5)]
    disk = np.add.outer(np.linspace(-1, 1, 23) ** 2, np.linspace(-1, 1, 31) ** 2) < 0.8
    dom, reach = {
        "1d": (Domain.box([(0.0, 1.0)], 65), 0.3),
        "2d-aniso": (Domain.box(aniso, (23, 31)), 0.2),
        "2d-aniso-whole": (Domain.box(aniso, (23, 31)), 10.0),
        "2d-mask": (Domain.from_mask(aniso, disk), 0.15),
        "3d": (Domain.box([(0.0, 1.0), (0.0, 0.5), (0.0, 0.7)], (9, 7, 11)), 0.3),
    }[name]
    return ScalarField(dom, np.random.default_rng(5).random(dom.shape)), reach


@pytest.mark.parametrize("name", ["1d", "2d-aniso", "2d-aniso-whole", "2d-mask", "3d",
                                  "disk96"])
def test_modulus_matches_all_pairs_oracle(name):
    alpha, reach = _modulus_case(name)
    mod = estimate_modulus(alpha, reach)
    dist, running = discrete_modulus(alpha, reach)
    # a knot at 0, at every distinct pair distance, and at the reach
    assert np.array_equal(mod.knots, np.union1d(dist, [0.0, reach]))
    want = modulus_at(dist, running, mod.knots) + FLOOR_SLOPE * mod.knots
    # where the floor does not show above the previous knot: one ulp above it
    prev = np.concatenate([[-np.inf], mod.values[:-1]])
    want = np.where(want > prev, want, np.nextafter(prev, np.inf))
    assert np.array_equal(mod.values, want)
    t = np.random.default_rng(3).uniform(0.0, reach, 200)
    assert (mod(t) >= modulus_at(dist, running, t)).all()


# ---------------------------------------------------------------------- #
# calibrated profile


@pytest.fixture(scope="module")
def calibrated(line):
    x = line.axis_coords(0)
    alpha = ScalarField(line, np.minimum(x, 1.0 - x))
    base = build_whitney_eta(line, epsilon=0.25)
    mod = estimate_modulus(alpha, base.values.max())
    return alpha, mod, base, calibrated_eta(line, alpha, mod, base)


def test_calibrated_certificate(line, calibrated):
    alpha, mod, base, prof = calibrated
    inside = line.inside_mask
    eta0 = base.values / max(1.0, base.values.max())
    lhs = mod(prof.values[inside])
    assert (lhs <= (alpha.values * eta0)[inside]).all()
    assert (prof.values <= base.values).all()
    prof.check_invariants()


def test_calibrated_identity_modulus(line):
    x = line.axis_coords(0)
    sigma = line.sigma()
    base = build_whitney_eta(line, epsilon=0.25)
    ident = ModulusOfContinuity([0.0, 2.0], [0.0, 2.0])
    prof = calibrated_eta(line, sigma, ident, base)
    inside = line.inside_mask
    eta0 = base.values / max(1.0, base.values.max())
    assert (prof.values[inside] <= (sigma.values * eta0)[inside] + 1e-15).all()
    assert (prof.values[inside] <= sigma.values[inside]).all()


def test_calibrated_refuses_modulus_short_of_base(line):
    # beyond its last knot omega is an extrapolation, not a bound
    x = line.axis_coords(0)
    alpha = ScalarField(line, np.minimum(x, 1.0 - x))
    base = build_whitney_eta(line, epsilon=0.25)
    top = base.values.max()
    with pytest.raises(ValueError, match="knots end"):
        calibrated_eta(line, alpha, estimate_modulus(alpha, 0.5 * top), base)
    calibrated_eta(line, alpha, estimate_modulus(alpha, top), base)
    for reach in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="reach"):
            estimate_modulus(alpha, reach)


def test_calibrated_zero_bound_gives_zero_step(line):
    # Theta is every node, so the reach is 0 and so is the step
    alpha = ScalarField.constant(line, 0.0)
    base = build_whitney_eta(line, np.ones(line.shape, dtype=bool), epsilon=0.25)
    prof = calibrated_eta(line, alpha, estimate_modulus(alpha, base.values.max()), base)
    assert (prof.values == 0.0).all()


def test_one_knot_modulus_is_defined_only_at_its_knot(line):
    mod = estimate_modulus(ScalarField.constant(line, 1.0), 0.0)
    assert mod.knots.tolist() == [0.0]
    assert mod(0.0) == 0.0 and mod.inverse(0.0) == 0.0
    for fn in (mod, mod.inverse):
        with pytest.raises(ValueError, match="beyond its only knot"):
            fn(1.0)


def test_calibrated_vanishes_with_alpha(line):
    x = line.axis_coords(0)
    vals = np.minimum(x, 1.0 - x) * (np.abs(x - 0.5) >= 0.125)
    alpha = ScalarField(line, vals)
    theta = (vals == 0.0) | ~line.inside_mask
    base = build_whitney_eta(line, theta, epsilon=0.25)
    mod = estimate_modulus(alpha, base.values.max())
    prof = calibrated_eta(line, alpha, mod, base)
    assert (prof.values[vals == 0.0] == 0.0).all()


def test_calibrated_dini_ratios(line, calibrated):
    # H_n = omega(eta/n) / alpha is nonincreasing in n and decays
    alpha, mod, base, prof = calibrated
    inside = line.inside_mask & ~prof.theta_mask
    a = alpha.values[inside]
    e = prof.values[inside]

    def h_sup(n):
        return float((mod(e / n) / a).max())

    sups = {n: h_sup(n) for n in (1, 2, 4, 8, 16, 32, 64)}
    for n in (1, 2, 4, 8, 16, 32):
        assert sups[2 * n] <= sups[n] + 1e-15
    assert sups[64] <= 0.25 * sups[1]


def test_calibrated_requires_matching_base(line):
    x = line.axis_coords(0)
    alpha = ScalarField(line, np.minimum(x, 1.0 - x) * (np.abs(x - 0.5) >= 0.125))
    base = build_whitney_eta(line, epsilon=0.25)  # vanishes on the boundary only
    mod = estimate_modulus(alpha, base.values.max())
    with pytest.raises(ValueError, match="zero set"):
        calibrated_eta(line, alpha, mod, base)
