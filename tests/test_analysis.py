import math

import numpy as np
import pytest

from mollikit.analysis import (InvariantViolation, constant_step_probe,
                               convergence_study, counterexample_run, f0,
                               f0_l1_tail, field_difference,
                               l1_operator_norm_report, norm, norm_by_token,
                               tf0_closed, tf0_quadrature, trace_check,
                               weak_l1_check, _column_mass,
                               _scaled_quadratic_setup)
from mollikit.eta import build_whitney_eta, quadratic_eta
from mollikit.grid import Domain, ScalarField, gradient_central
from mollikit.kernels import make_kernel
from mollikit.mollify import MollifierConfig, modified_config, mollify

from column_mass_oracle import column_mass as oracle_column_mass


@pytest.fixture(scope="module")
def line():
    return Domain.box([(0.0, 1.0)], 513)


@pytest.fixture(scope="module")
def kernel1d():
    return make_kernel("bump", 1, 64)


@pytest.fixture(scope="module")
def quad_prof(line):
    return quadratic_eta(line, 0.1)


# ---------------------------------------------------------------------- #
# norms


def test_l1_of_constant(line):
    f = ScalarField.constant(line, 1.0)
    assert abs(norm(f, "Lp", 1.0) - 1.0) <= line.h


def test_tv_of_unit_jump_exact(line):
    x = line.axis_coords(0)
    f = ScalarField(line, (x > 0.5).astype(float))
    assert norm(f, "TV") == 1.0


def test_w12_seminorm_of_identity(line):
    f = ScalarField.from_function(line, lambda x: x)
    semi = norm(gradient_central(f).magnitude(), "Lp", 2.0)
    assert abs(semi - 1.0) <= 2 * line.h


def test_tv_2d_square_jump():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 65)
    f = ScalarField.from_function(dom, lambda x, y: (x > 0.5).astype(float))
    # one jump line of length ~1
    assert norm(f, "TV") == pytest.approx(1.0, abs=2 * dom.h)


def test_tv_anisotropic_grid():
    dom = Domain.box([(0.0, 1.0), (0.0, 3.0)], (33, 25))
    f = ScalarField.from_function(dom, lambda x, y: (x > 0.5).astype(float))
    # jump of height 1 across a line of length 3
    assert norm(f, "TV") == pytest.approx(3.0, rel=2 * dom.h)


def test_norms_refinement_monotone():
    vals = {}
    for res in (129, 257, 513):
        dom = Domain.box([(0.0, 1.0)], res)
        f = ScalarField.from_function(dom, lambda x: np.sin(np.pi * x))
        vals[res] = norm(f, "Lp", 2.0)
    assert abs(vals[513] - vals[257]) <= abs(vals[257] - vals[129]) + 1e-10


def test_linf(line):
    f = ScalarField.from_function(line, lambda x: x - 0.25)
    assert norm(f, "Lp", math.inf) == pytest.approx(0.75, abs=line.h)


# ---------------------------------------------------------------------- #
# weak type (1,1)


def test_weak_l1_constant_value(line, kernel1d, quad_prof):
    cfg = MollifierConfig(kernel1d, quad_prof, n=2)
    f = ScalarField.constant(line, 0.0)
    rep = weak_l1_check(f, cfg, [1.0])
    assert rep["constant"] == pytest.approx(10.0 * kernel1d.m_rho, rel=1e-12)
    assert rep["constant"] == pytest.approx(22.52, abs=0.02)
    assert rep["rows"][0]["lhs"] == 0.0


def test_weak_l1_spike_and_random(line, kernel1d, quad_prof):
    cfg = MollifierConfig(kernel1d, quad_prof, n=1)
    spike = np.zeros(line.shape)
    spike[line.shape[0] // 3] = 1.0 / line.h  # unit mass at one node
    lambdas = [10.0 ** e for e in range(-3, 3)]
    rep = weak_l1_check(ScalarField(line, spike), cfg, lambdas)
    assert rep["violations"] == 0
    rng = np.random.default_rng(11)
    rep2 = weak_l1_check(ScalarField(line, rng.standard_normal(line.shape)),
                         cfg, lambdas)
    assert rep2["violations"] == 0


def test_weak_l1_2d():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 65)
    cfg = MollifierConfig(make_kernel("bump", 2, 16), quadratic_eta(dom, 0.1), n=1)
    rng = np.random.default_rng(12)
    rep = weak_l1_check(ScalarField(dom, rng.standard_normal(dom.shape)), cfg,
                        [10.0 ** e for e in range(-3, 3)])
    assert rep["violations"] == 0
    assert rep["constant"] == pytest.approx(25 * np.pi * cfg.kernel.m_rho, rel=1e-12)


# ---------------------------------------------------------------------- #
# L1 operator norm


def test_operator_norm_bound_formula(line, kernel1d):
    # eps = 1/3 gives kappa = 1/4, bound = m_rho (2 + 2 ln 8)
    prof = quadratic_eta(line, 1.0 / 3.0)
    cfg = MollifierConfig(kernel1d, prof, n=1)
    rep = l1_operator_norm_report(cfg, probe_count=50)
    est, bound = rep["estimate"], rep["bound"]
    assert bound == pytest.approx(kernel1d.m_rho * (2 + 2 * math.log(8)), rel=1e-6)
    assert bound == pytest.approx(kernel1d.m_rho * 6.159, rel=1e-3)
    assert est <= bound * 1.1


def test_operator_norm_family_estimates(line, kernel1d, quad_prof):
    reports = [l1_operator_norm_report(MollifierConfig(kernel1d, quad_prof, n=n),
                                       probe_count=50) for n in (1, 4, 16)]
    ests = [r["estimate"] for r in reports]
    assert ests[0] >= ests[1] - 1e-9 and ests[1] >= ests[2] - 1e-9
    assert ests[-1] <= reports[-1]["limit_bound"] * 1.1


@pytest.mark.parametrize("dim,res,order,n,resolved", [
    (2, 49, 12, 4, False), (3, 25, 6, 4, False), (2, 96, 24, None, True)])
def test_operator_norm_report_counts_resolved_points(dim, res, order, n, resolved):
    # with no resolved lattice point the estimate is the identity's 1.0,
    # whatever the operator does on the raw grid
    dom = Domain.box([(0.0, 1.0)] * dim, res)
    cfg = MollifierConfig(make_kernel("bump", dim, order), quadratic_eta(dom, 0.1), n=n)
    rep = l1_operator_norm_report(cfg)
    assert (rep["resolved_points"] > 0) == resolved
    if not resolved:
        assert rep["estimate"] == 1.0


def test_operator_norm_requires_quadratic(line, kernel1d):
    prof = build_whitney_eta(line, epsilon=0.25)
    with pytest.raises(ValueError, match="quadratic"):
        l1_operator_norm_report(MollifierConfig(kernel1d, prof, n=1))


def test_more_probes_never_decrease_estimate(line, kernel1d, quad_prof):
    cfg = MollifierConfig(kernel1d, quad_prof, n=1)
    step = cfg.step_inside()
    coords = line.node_coords(line.inside_mask)
    few = coords[::64]
    many = coords[::16]
    m_few = _column_mass(line, quad_prof.values, 1, kernel1d, few, step[::64])[0].max()
    m_many = _column_mass(line, quad_prof.values, 1, kernel1d, many, step[::16])[0].max()
    assert m_many >= m_few


_COLUMN_GRIDS = {1: (129, 32, 8), 2: (49, 12, 4), 3: (25, 6, 2)}  # nodes, order, refine


def _column_mass_setups(kind, dim, profile):
    """The raw and the rescaled (domain, eta, kernel, probes, refine) of a
    quadratic step, probes being seeded inside nodes plus the bbox corner."""
    res, order, refine = _COLUMN_GRIDS[dim]
    bbox = [(0.0, 1.6)] * dim
    if kind == "box":
        dom = Domain.box(bbox, res)
    elif kind == "ball":
        dom = Domain.ball(bbox, res)
    else:
        disk = Domain.ball([(0.0, 1.4)] * dim, res).inside_mask
        dom = Domain.from_mask(bbox, disk)
    kernel = make_kernel(profile, dim, order, 3 if profile == "plateau" else None)
    cfg = MollifierConfig(kernel, quadratic_eta(dom, 0.1), n=1)
    coords = dom.node_coords(dom.inside_mask)
    pick = np.random.default_rng(dim).choice(len(coords), min(len(coords), 120),
                                             replace=False)
    dom2, eta2, scale = _scaled_quadratic_setup(cfg)
    for d, eta, factor in ((dom, cfg.eta.values, 1.0), (dom2, eta2, scale)):
        probes = np.concatenate([coords[pick] * factor, d.lo[None, :]])
        yield d, eta, kernel, probes, refine


@pytest.mark.parametrize("kind", ["box", "ball", "mask"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("profile", ["bump", "box", "plateau"])
def test_column_mass_matches_brute_force_oracle(kind, dim, profile):
    """The scatter sum against a per-probe sum over every lattice point in
    lattice order: the terms are the same, only the order of summation
    differs."""
    smoothed = 0
    for dom, eta, kernel, probes, refine in _column_mass_setups(kind, dim, profile):
        for n in (1, 4):
            steps = dom.interpolate(eta, probes) / n
            steps[-1] = dom.h  # the corner probe: resolved, but no ball reaches it
            got, _ = _column_mass(dom, eta, n, kernel, probes, steps, refine)
            expect = oracle_column_mass(dom, eta, n, kernel, probes, steps, refine)
            assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect))
            assert got[-1] == 0.0
            assert (steps < dom.h).any() and (got[steps < dom.h] >= 1.0).all()
            smoothed += int(((got > 0.0) & (steps >= dom.h)).sum())
    assert smoothed > 0


def test_column_mass_of_a_probe_alone_equals_its_batch_value():
    dom, eta, kernel, probes, refine = next(_column_mass_setups("mask", 2, "bump"))
    steps = dom.interpolate(eta, probes)
    batch, _ = _column_mass(dom, eta, 1, kernel, probes, steps, refine)
    assert (batch[steps >= dom.h] > 0.0).sum() >= 10
    for k in range(0, len(probes), 7):
        alone, _ = _column_mass(dom, eta, 1, kernel, probes[k:k + 1], steps[k:k + 1], refine)
        assert alone[0] == batch[k]


@pytest.mark.parametrize("profile,dim,order,n", [
    ("bump", 1, 32, None), ("bump", 2, 16, None),
    ("box", 1, 32, None), ("plateau", 1, 32, 4),
])
def test_constant_step_probe_normalization(profile, dim, order, n):
    k = make_kernel(profile, dim, order, n)
    assert abs(constant_step_probe(k) - 1.0) <= 1e-12


# ---------------------------------------------------------------------- #
# counterexample


@pytest.fixture(scope="module")
def ce_report():
    return counterexample_run((1025,))


def test_counterexample_l1_tails(ce_report):
    assert ce_report["l1_tail_max_rel_err"] <= 0.01
    assert f0_l1_tail(2.0 ** -12) == pytest.approx(
        1 / math.log(2) - 1 / math.log(2 / 2.0 ** -12), abs=1e-15)


def test_counterexample_point_value():
    assert tf0_quadrature(0.25) == pytest.approx(1.4426950408889634, rel=5e-3)
    assert float(tf0_closed(0.25)) == pytest.approx(1.4426950408889634, abs=1e-12)


def test_counterexample_slopes(ce_report):
    # the raw fit against ln ln(1/delta) lands on the closed-form
    # coefficient 1/2; against the model antiderivative the slope is 1
    assert ce_report["slope_vs_loglog"] == pytest.approx(0.5, abs=0.02)
    assert 0.8 <= ce_report["slope_vs_model"] <= 1.2


def test_counterexample_increment_oracle(ce_report):
    deltas = ce_report["deltas"]
    ivals = dict(zip(deltas, ce_report["I"]))
    inc = ivals[2.0 ** -8] - ivals[2.0 ** -4]
    assert inc == pytest.approx(0.5 * math.log(2), rel=0.2)


def test_counterexample_grid_check(ce_report):
    for row in ce_report["grid_checks"]:
        assert row["rel_err"] <= 0.02


def test_counterexample_cauchy(ce_report):
    assert ce_report["cauchy_decreasing"]


def test_f0_integrable_but_unbounded():
    ys = np.array([1e-6, 1e-3, 0.1, 1.0])
    assert (f0(ys) > 0).all()
    assert f0(1e-12) > 1e8  # spike is unbounded near zero
    assert f0_l1_tail(1e-12) <= 1 / math.log(2)  # but its mass stays finite


# ---------------------------------------------------------------------- #
# convergence studies


def test_convergence_constant_all_zero(line, kernel1d, quad_prof):
    f = ScalarField.constant(line, 2.0)
    rep = convergence_study(f, lambda n: MollifierConfig(kernel1d, quad_prof, n=n),
                            [1, 2, 4], ["L1", "L2", "W12"], "const")
    for errs in (rep.errors["L1"], rep.errors["L2"], rep.errors["W12"]):
        assert all(e == 0.0 for e in errs)
    assert rep.passed()


def test_convergence_sin_strictly_decreasing(line, kernel1d, quad_prof):
    f = ScalarField.from_function(line, lambda x: np.sin(np.pi * x))
    rep = convergence_study(f, lambda n: MollifierConfig(kernel1d, quad_prof, n=n),
                            [1, 2, 4, 8, 16], ["L1", "L2", "W11", "W12"], "sin")
    for token in ("L1", "L2", "W11", "W12"):
        errs = rep.errors[token]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.3 * errs[0]
    assert rep.passed()


def test_convergence_bv_strict(line, kernel1d, quad_prof):
    x = line.axis_coords(0)
    f = ScalarField(line, (x > 0.5).astype(float))
    rep = convergence_study(f, lambda n: modified_config(line, n, quad_prof, 48),
                            [2, 4, 8, 16], ["L1"], "step", bv_mode="strict")
    assert rep.passed(), rep.failures()
    assert abs(rep.errors["TV_of_Tf"][-1] - 1.0) <= 0.1


def test_convergence_bv_weakstar(line, kernel1d, quad_prof):
    x = line.axis_coords(0)
    f = ScalarField(line, (x > 0.5).astype(float))
    rep = convergence_study(f, lambda n: MollifierConfig(kernel1d, quad_prof, n=n),
                            [1, 2, 4, 8, 16], ["L1"], "step", bv_mode="weakstar")
    assert rep.passed(), rep.failures()
    errs = rep.errors["L1"]
    assert errs[-1] <= 0.3 * errs[0]
    assert max(rep.errors["TV_of_Tf"]) <= 1.5


def test_study_report_dict_shape(line, kernel1d, quad_prof):
    f = ScalarField.from_function(line, lambda x: x * (1 - x))
    rep = convergence_study(f, lambda n: MollifierConfig(kernel1d, quad_prof, n=n),
                            [1, 2], ["L2"], "poly")
    d = rep.to_dict()
    assert d["fixture"] == "poly" and d["n_values"] == [1, 2]
    assert all({"name", "lhs", "rhs", "slack", "pass"} <= set(c)
               for c in d["bound_checks"])
    assert "runtime_s" in d and "runtime_s" not in rep.to_dict(include_runtime=False)


# ---------------------------------------------------------------------- #
# trace shells


def test_trace_constant_zero(line, kernel1d, quad_prof):
    cfg = MollifierConfig(kernel1d, quad_prof, n=1)
    rep = trace_check(ScalarField.constant(line, 5.0), cfg)
    assert all(r["max_dev"] == 0.0 for r in rep["rows"])


def test_trace_parabola_quadratic_step(line, kernel1d, quad_prof):
    cfg = MollifierConfig(kernel1d, quad_prof, n=1)
    rep = trace_check(ScalarField.from_function(line, lambda x: x * (1 - x)), cfg)
    assert rep["violations"] == 0


def test_trace_shell_errors_shrink(line, kernel1d):
    # wider linear step so the shells are not all under the subgrid guard
    prof = build_whitney_eta(line, epsilon=0.5)
    cfg = MollifierConfig(kernel1d, prof, n=1)
    f = ScalarField.from_function(line, lambda x: 1.0 + 2.0 * x + np.sin(6 * x))
    rep = trace_check(f, cfg)
    assert trace_check(f, cfg, threads=2) == rep
    assert rep["violations"] == 0
    devs = [r["max_dev"] for r in rep["rows"]]
    assert devs[0] <= devs[2] / 2.0
