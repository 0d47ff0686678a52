import numpy as np
import pytest

from mollikit import _sampling
from mollikit._sampling import GridSample, smoothed, variable_step_max
from mollikit.eta import build_whitney_eta, calibrated_eta
from mollikit.feasible import (ConstraintSpec, convergence_factor, density_study,
                               feasible_smooth, membership)
from mollikit.grid import Domain, ScalarField
from mollikit.kernels import make_kernel
from mollikit.mollify import MollifierConfig, mollify


@pytest.fixture(scope="module")
def line():
    return Domain.box([(0.0, 1.0)], 513)


@pytest.fixture(scope="module")
def kernel1d():
    return make_kernel("bump", 1, 64)


@pytest.fixture(scope="module")
def wedge(line):
    x = line.axis_coords(0)
    return ScalarField(line, np.minimum(x, 1.0 - x))


@pytest.fixture(scope="module")
def wedge_setup(line, wedge):
    return ConstraintSpec(wedge, "value"), calibrated_eta(wedge)


# ---------------------------------------------------------------------- #
# membership


def test_membership_zero_and_alpha(line, wedge):
    spec = ConstraintSpec(wedge, "value")
    ok, _, margin = membership(ScalarField.constant(line, 0.0), spec)
    assert ok and margin <= 0.0
    ok, _, margin = membership(wedge, spec)
    assert ok and margin == 0.0


def test_membership_violation_margin(line, wedge):
    spec = ConstraintSpec(wedge, "value")
    ok, worst, margin = membership(ScalarField(line, 1.1 * wedge.values), spec)
    assert not ok
    assert margin == pytest.approx(0.1 * wedge.values.max(), rel=1e-9)
    assert worst[0] == pytest.approx(0.5, abs=line.h)


def test_membership_gradient_mode(line, wedge):
    spec = ConstraintSpec(wedge, "gradient")
    x = line.axis_coords(0)
    prim = np.where(x <= 0.5, x * x / 2, 0.25 - (1 - x) ** 2 / 2)
    ok, _, margin = membership(ScalarField(line, 0.9 * prim), spec)
    assert ok, margin


def test_constraint_spec_validation(line):
    with pytest.raises(ValueError, match="nonnegative"):
        ConstraintSpec(ScalarField.constant(line, -1.0), "value")
    with pytest.raises(ValueError, match="mode"):
        ConstraintSpec(ScalarField.constant(line, 1.0), "projection")


# ---------------------------------------------------------------------- #
# ball-sup factor


def test_factor_constant_bound_is_one(line, kernel1d):
    alpha = ScalarField.constant(line, 1.0)
    spec = ConstraintSpec(alpha, "value")
    eta = build_whitney_eta(line, epsilon=0.25)
    m, sup = convergence_factor(spec, eta, 2, kernel1d)
    assert (m.values == 1.0).all()
    assert sup == 0.0


def test_factor_is_one_on_zero_set(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    x = line.axis_coords(0)
    vals = wedge.values * (np.abs(x - 0.5) >= 0.25)
    alpha = ScalarField(line, vals)
    spec2 = ConstraintSpec(alpha, "value")
    cal2 = calibrated_eta(alpha)
    m, _ = convergence_factor(spec2, cal2, 4, kernel1d)
    assert (m.values[spec2.delta_mask] == 1.0).all()
    assert (m.values >= 1.0).all()


def test_factor_sup_scales_inversely_with_n(line, kernel1d, wedge_setup):
    spec, cal = wedge_setup
    eta0_max = cal.values.max() / max(1.0, cal.values.max())
    for n in (1, 2, 4, 8):
        _, sup = convergence_factor(spec, cal, n, kernel1d)
        assert sup <= 1.0 / n + 1e-9


def test_factor_sup_halves(line, kernel1d, wedge_setup):
    spec, cal = wedge_setup
    sups = {n: convergence_factor(spec, cal, n, kernel1d)[1]
            for n in (1, 4, 16, 64)}
    for a, b in ((1, 4), (4, 16), (16, 64)):
        assert sups[b] <= 0.5 * sups[a] * 1.1
    assert sups[64] <= 0.25 * sups[1]


def test_factor_requires_vanishing_eta(line, kernel1d, wedge):
    spec = ConstraintSpec(wedge, "value")
    eta = build_whitney_eta(line, epsilon=0.25)  # positive at x=0.5 where alpha=0
    x = line.axis_coords(0)
    alpha0 = ScalarField(line, wedge.values * (np.abs(x - 0.5) >= 0.25))
    with pytest.raises(ValueError, match="zero set"):
        convergence_factor(ConstraintSpec(alpha0, "value"), eta, 2, kernel1d)


def _wedge_case():
    line = Domain.box([(0.0, 1.0)], 1025)
    x = line.axis_coords(0)
    spec = ConstraintSpec(ScalarField(line, np.minimum(x, 1.0 - x)), "value")
    return spec, calibrated_eta(spec.alpha), make_kernel("bump", 1, 32)


def _box2d_case():
    # Whitney steps on an anisotropic box: smoothed nodes in the middle,
    # guarded ones near the boundary at n = 1 and 2, none smoothed at n = 4
    dom = Domain.box([(0.0, 1.0), (0.0, 0.8)], (41, 33))
    spec = ConstraintSpec(ScalarField(dom, dom.sigma().values.clip(min=0.0)), "value")
    return spec, build_whitney_eta(dom, spec.theta_mask, 0.25), make_kernel("bump", 2, 12)


@pytest.mark.parametrize("case, n_active", [
    (_wedge_case, {1: 895, 4: 767, 16: 511, 64: 0}),
    (_box2d_case, {1: 713, 2: 345, 4: 0}),
], ids=["wedge1d", "box2d"])
def test_value_ball_max_sweeps_the_smoothed_nodes_only(case, n_active, monkeypatch):
    spec, eta, kernel = case()
    dom = spec.domain
    inside = dom.inside_mask
    swept = []
    cut = _sampling._blocks

    def counted(m):
        swept.append(m)
        return cut(m)

    monkeypatch.setattr(_sampling, "_blocks", counted)
    rng = np.random.default_rng(3)
    alpha = spec.alpha.values
    fields = [spec.alpha, ScalarField(dom, alpha * rng.uniform(-1.0, 1.0, dom.shape))]
    for n, count in n_active.items():
        step = eta.values[inside] / n
        active = smoothed(step, dom.h)
        assert active.sum() == count and (step > 0.0).sum() > count
        swept.clear()
        m, sup = convergence_factor(spec, eta, n, kernel)
        assert sum(swept) == count
        m_in = m.values[inside]
        assert (m_in[~active] == 1.0).all()
        if count == 0:
            assert sup == 0.0
        cfg = MollifierConfig(kernel, eta, n=n)
        for f in fields:
            assert (np.abs(mollify(f, cfg).values[inside])
                    <= m_in * alpha[inside] + 1e-10).all()

        # gradient mode keeps the ball-max over every node with a positive
        # step; the two modes agree bitwise at the smoothed nodes
        swept.clear()
        m_grad, _ = convergence_factor(ConstraintSpec(spec.alpha, "gradient"), eta, n, kernel)
        assert sum(swept) == (step > 0.0).sum()
        best = variable_step_max(dom.node_coords(inside), step, kernel,
                                 GridSample(dom, alpha), alpha[inside])
        free = ~spec.theta_mask[inside]
        want = np.ones(len(step))
        want[free] = best[free] / alpha[inside][free]
        assert np.array_equal(m_grad.values[inside], want)
        assert np.array_equal(m_in[active], want[active])


# ---------------------------------------------------------------------- #
# feasibility chain


def test_feasibility_chain_numeric(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    f = ScalarField(line, 0.9 * wedge.values)
    n = 4
    m, sup = convergence_factor(spec, cal, n, kernel1d)
    tf = mollify(f, MollifierConfig(kernel1d, cal, n=n))
    inside = line.inside_mask
    beta = 1.0 / (1.0 + sup)
    # |T f| <= M alpha, then scaling restores |beta T f| <= alpha
    assert (np.abs(tf.values[inside])
            <= (m.values * spec.alpha.values)[inside] + 1e-10).all()
    assert (beta * np.abs(tf.values[inside])
            <= spec.alpha.values[inside] * (1 + sup) * beta + 1e-10).all()
    assert beta * (1 + sup) == pytest.approx(1.0, abs=1e-12)


def test_feasible_smooth_zero(line, kernel1d, wedge_setup):
    spec, cal = wedge_setup
    g, info = feasible_smooth(ScalarField.constant(line, 0.0), spec, cal,
                              kernel1d, 4)
    assert (g.values == 0.0).all()
    assert info["margin"] <= 0.0


def test_feasible_smooth_at_bound(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    g, info = feasible_smooth(wedge, spec, cal, kernel1d, 9)
    assert info["beta"] >= 0.9
    ok, _, margin = membership(g, spec)
    assert margin <= info["margin_slack"]


def test_feasible_smooth_rejects_infeasible(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    with pytest.raises(ValueError, match="not feasible"):
        feasible_smooth(ScalarField(line, 1.1 * wedge.values), spec, cal,
                        kernel1d, 4)


def test_feasible_smooth_gradient_mode(line, kernel1d, wedge):
    spec = ConstraintSpec(wedge, "gradient")
    cal = calibrated_eta(wedge)
    x = line.axis_coords(0)
    prim = np.where(x <= 0.5, x * x / 2, 0.25 - (1 - x) ** 2 / 2)
    g, info = feasible_smooth(ScalarField(line, 0.9 * prim), spec, cal, kernel1d, 8)
    assert info["margin"] <= info["margin_slack"]


def test_beta_monotone_and_near_one(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    f = ScalarField(line, 0.9 * wedge.values)
    betas = {}
    for n in (1, 2, 4, 8, 16, 32, 64):
        _, info = feasible_smooth(f, spec, cal, kernel1d, n)
        betas[n] = info["beta"]
    for n in (1, 2, 4, 8, 16, 32):
        assert betas[2 * n] >= betas[n] - 1e-12
    assert betas[64] >= 0.95


def test_iterates_vanish_on_interior_zero_set(line, kernel1d):
    x = line.axis_coords(0)
    vals = np.minimum(x, 1.0 - x) * np.maximum(np.abs(x - 0.5) - 0.125, 0.0)
    alpha = ScalarField(line, vals)
    spec = ConstraintSpec(alpha, "value")
    cal = calibrated_eta(alpha)
    f = ScalarField(line, 0.9 * vals)
    g, _ = feasible_smooth(f, spec, cal, kernel1d, 4)
    assert (g.values[spec.delta_mask] == 0.0).all()


# ---------------------------------------------------------------------- #
# density studies


def test_density_study_w1p(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    f = ScalarField(line, 0.9 * wedge.values)
    rep = density_study(f, spec, cal, kernel1d, [1, 2, 4, 8, 16], "W1p")
    assert rep.passed(), rep.failures()
    errs = rep.errors["W12"]
    assert errs[-1] <= 0.3 * errs[0]
    assert rep.extra["beta"][-1] >= rep.extra["beta"][0] - 1e-12


def test_density_study_truncated(line, kernel1d, wedge_setup, wedge):
    spec, cal = wedge_setup
    f = ScalarField(line, 0.9 * wedge.values)
    rep = density_study(f, spec, cal, kernel1d, [1, 2, 4, 8, 16], "Lp")
    assert rep.passed(), rep.failures()


def test_density_study_gradient(line, kernel1d, wedge):
    spec = ConstraintSpec(wedge, "gradient")
    cal = calibrated_eta(wedge)
    x = line.axis_coords(0)
    prim = np.where(x <= 0.5, x * x / 2, 0.25 - (1 - x) ** 2 / 2)
    rep = density_study(ScalarField(line, 0.9 * prim), spec, cal, kernel1d,
                        [1, 2, 4, 8, 16], "gradient")
    assert rep.passed(), rep.failures()


def test_density_study_zero_input(line, kernel1d, wedge_setup):
    spec, cal = wedge_setup
    rep = density_study(ScalarField.constant(line, 0.0), spec, cal, kernel1d,
                        [1, 2], "W1p")
    assert all(e == 0.0 for e in rep.errors["W12"])
    assert rep.passed()


def _decay_checks(rep) -> list[dict]:
    return [c for c in rep.bound_checks if c["name"] in ("W12 monotone", "W12 final decay")]


def test_density_study_marks_decay_checks_vacuous_without_smoothing(line, kernel1d, wedge_setup,
                                                                    wedge):
    # at n = 4 and 8 the box case smooths no node, so every iterate is its
    # input, the errors read 0 and the decay checks have nothing to check
    spec, eta, kernel = _box2d_case()
    rep = density_study(ScalarField(spec.domain, 0.5 * spec.alpha.values), spec, eta, kernel,
                        [4, 8], "W1p")
    assert rep.extra["active_nodes"] == [0, 0] and rep.errors["W12"] == [0.0, 0.0]
    assert rep.passed()
    assert [c.get("vacuous") for c in _decay_checks(rep)] == [True, True]

    spec, cal = wedge_setup
    rep = density_study(ScalarField(line, 0.9 * wedge.values), spec, cal, kernel1d,
                        [1, 2, 4, 8, 16], "W1p")
    assert min(rep.extra["active_nodes"]) > 0 and rep.passed()
    checks = _decay_checks(rep)
    assert len(checks) == 2 and not any("vacuous" in c for c in checks)

