import math
from dataclasses import replace

import numpy as np
import pytest

from mollikit import _sampling, analysis
from mollikit.analysis import (InvariantViolation, convergence_study, counterexample_run, f0,
                               f0_l1_tail, field_difference,
                               l1_operator_norm_report, norm, norm_by_token,
                               tf0_closed, tf0_quadrature, trace_check,
                               weak_l1_check, _operator_columns)
from mollikit.eta import build_whitney_eta, quadratic_eta
from mollikit.grid import Domain, ScalarField, gradient_central
from mollikit.kernels import make_kernel
from mollikit.mollify import MollifierConfig, modified_config, mollify

from sampling_oracle import column_sums as oracle_column_sums


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
    rep = l1_operator_norm_report(cfg)
    est, bound = rep["estimate"], rep["bound"]
    assert bound == pytest.approx(kernel1d.m_rho * (2 + 2 * math.log(8)), rel=1e-6)
    assert bound == pytest.approx(kernel1d.m_rho * 6.159, rel=1e-3)
    assert est <= bound * 1.1


def test_operator_norm_family_estimates(line, kernel1d, quad_prof):
    # the norm itself is not monotone in n: its maximum sits on a column the
    # subgrid guard leaves as the identity; the smoothed columns decrease
    reports = [l1_operator_norm_report(MollifierConfig(kernel1d, quad_prof, n=n))
               for n in (1, 4, 16)]
    for rep in reports:
        assert rep["active_nodes"] > 0
        assert rep["estimate"] <= rep["bound"] * 1.1
    smoothed = [r["active_column_max"] for r in reports]
    assert smoothed[0] >= smoothed[1] - 1e-6 and smoothed[1] >= smoothed[2] - 1e-6
    assert smoothed[-1] <= reports[-1]["limit_bound"] * 1.1


@pytest.mark.parametrize("dim,res,order,n,resolved", [
    (2, 49, 12, 4, False), (3, 25, 6, 4, False), (2, 96, 24, None, True)])
def test_operator_norm_report_counts_resolved_points(dim, res, order, n, resolved):
    # the report counts the inside nodes whose step is resolved (at least one
    # cell); `resolved` says whether every node the unrefined step eta
    # resolves stays resolved at this n.  The maximum runs over every column,
    # the guarded identity columns included
    dom = Domain.box([(0.0, 1.0)] * dim, res)
    prof = quadratic_eta(dom, 0.1)
    rep = l1_operator_norm_report(MollifierConfig(make_kernel("bump", dim, order),
                                                  prof, n=n))
    eta = prof.values[dom.inside_mask]
    step = eta / n if n is not None else eta
    assert rep["active_nodes"] == np.count_nonzero(step >= dom.h) > 0
    assert (rep["active_nodes"] == np.count_nonzero(eta >= dom.h)) == resolved
    assert rep["estimate"] >= max(1.0, rep["active_column_max"])


def test_operator_norm_report_counts_active_nodes():
    # the norm of the configured operator, guard included: at n = 16 every
    # step of the 25^3 box is below one cell, so the operator is the identity
    dom = Domain.box([(0.0, 1.0)] * 3, 25)
    prof = quadratic_eta(dom, 0.1)
    kernel = make_kernel("bump", 3, 6)
    rep = l1_operator_norm_report(MollifierConfig(kernel, prof, n=1))
    assert rep["active_nodes"] == 2197
    assert rep["estimate"] == pytest.approx(1.1797, abs=5e-5)
    assert 0.0 < rep["argmax_step_over_h"] < 1.0  # a guarded column
    rep = l1_operator_norm_report(MollifierConfig(kernel, prof, n=16))
    assert rep["active_nodes"] == 0 and rep["active_column_max"] is None
    assert rep["estimate"] == 1.0
    columns, _ = _operator_columns(MollifierConfig(kernel, prof, n=16))
    assert np.array_equal(columns, dom.inside_mask.reshape(-1).astype(float))


def test_column_sums_run_on_the_sweeps_blocks(monkeypatch):
    # one _blocks cut per call, each block's cells from the sweep's own
    # tables: B + 1 points make one block of B + 1 (bitwise what one block
    # of any size gives), 3B + 2 make three; no points make none
    block = 64
    dom = Domain.box([(0.0, 1.3), (-0.2, 0.5)], (41, 29))
    kernel = make_kernel("bump", 2, 8)
    cfg = MollifierConfig(kernel, quadratic_eta(dom, 0.1))
    pts, step = dom.node_coords(), cfg.step_inside()
    act_idx = np.flatnonzero(step >= dom.h)
    assert len(act_idx) > 3 * block + 2
    cuts, tables = [], []
    blocks, axis_tables = _sampling._blocks, _sampling._axis_tables

    def cut(m):
        cuts.append(m)
        return blocks(m)

    def tabled(axis_half, axis_values, x, *args):
        tables.append(len(x))
        return axis_tables(axis_half, axis_values, x, *args)

    monkeypatch.setattr(_sampling, "_blocks", cut)
    monkeypatch.setattr(_sampling, "_axis_tables", tabled)
    for m, sizes in ((block + 1, [block + 1]), (3 * block + 2, [block, block + 1, block + 1]),
                     (0, [])):
        idx = act_idx[:m]
        monkeypatch.setattr(_sampling, "_BLOCK", 10 ** 6)
        whole = _sampling.column_sums(pts, step, idx, kernel, dom)
        monkeypatch.setattr(_sampling, "_BLOCK", block)
        cuts.clear()
        tables.clear()
        got = _sampling.column_sums(pts, step, idx, kernel, dom)
        assert cuts == [m] and tables == sizes
        if len(sizes) == 1:
            assert got.tobytes() == whole.tobytes()
        assert np.all(np.abs(got - whole) <= 1e-14 * whole)
        assert got.any() == (m > 0)


def _spread_per_node_span(self, out, base, fracs, weight, lo):
    """``Domain._spread`` with each call's span from its own ``base.min()``,
    not from the block's lower bound ``lo``."""
    weights = [weight]
    for t in fracs:
        weights = [w * u for w in weights for u in (1.0 - t, t)]
    lo = base.min()
    at = np.concatenate([base - lo + (p + c) for p in self._pair_corners for c in (0, 1)])
    sums = np.bincount(at, weights=np.concatenate(weights))
    out[lo:lo + len(sums)] += sums


@pytest.mark.parametrize("block", [64, 4096])
def test_column_sums_do_not_depend_on_the_span_start(block, monkeypatch):
    # the block's lower bound adds zeros below each node's first corner, in
    # the same bincount order, so the sums keep every bit
    dom = Domain.box([(0.0, 1.0)] * 2, 96)
    cfg = MollifierConfig(make_kernel("bump", 2, 24), quadratic_eta(dom, 0.1), n=1)
    monkeypatch.setattr(_sampling, "_BLOCK", block)
    got, active = _operator_columns(cfg)
    assert active.sum() > 64
    monkeypatch.setattr(Domain, "_spread", _spread_per_node_span)
    want, _ = _operator_columns(cfg)
    assert got.tobytes() == want.tobytes()
    expect = oracle_column_sums(cfg)
    assert np.all(np.abs(got - expect) <= 1e-14 * expect)


def test_broken_step_invariant_raises_the_sweeps_bbox_error(monkeypatch):
    # with validation bypassed and the step above sigma, the L1 report
    # raises the sweep's named-node bbox error instead of reading past the
    # bbox, exactly as mollify does
    dom = Domain.box([(0.0, 1.0)] * 2, 33)
    prof = quadratic_eta(dom, 0.1)
    prof = replace(prof, field=ScalarField(dom, 10.0 * prof.values))  # above sigma inside
    monkeypatch.setattr(MollifierConfig, "__post_init__", lambda self: None)
    cfg = MollifierConfig(make_kernel("bump", 2, 8), prof, n=1)
    assert (cfg.step_inside() > dom.sigma().values[dom.inside_mask]).any()
    f = ScalarField(dom, np.ones(dom.shape))
    with pytest.raises(ValueError, match="outside the closed domain bbox") as want:
        mollify(f, cfg)
    assert "kernel node k=" in str(want.value) and "step invariant violated" in str(want.value)
    with pytest.raises(ValueError, match="outside the closed domain bbox") as got:
        l1_operator_norm_report(cfg)
    assert str(got.value) == str(want.value)


def test_operator_norm_requires_quadratic(line, kernel1d):
    prof = build_whitney_eta(line, epsilon=0.25)
    with pytest.raises(ValueError, match="quadratic"):
        l1_operator_norm_report(MollifierConfig(kernel1d, prof, n=1))


_COLUMN_GRIDS = {1: (129, 32), 2: (49, 12), 3: (25, 6)}  # nodes, kernel order


@pytest.mark.parametrize("kind", ["box", "ball", "mask"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("profile", ["bump", "box", "plateau"])
def test_column_mass_matches_brute_force_oracle(kind, dim, profile, monkeypatch):
    """The scattered column sums and the report against the corner weights
    of every (point, kernel node) added one at a time: the terms are the
    same, only the order of summation differs (small blocks split it)."""
    monkeypatch.setattr(_sampling, "_BLOCK", 512)
    res, order = _COLUMN_GRIDS[dim]
    bbox = [(0.0, 1.6)] * dim
    if kind == "box":
        dom = Domain.box(bbox, res)
    elif kind == "ball":
        dom = Domain.ball(bbox, res)
    else:
        disk = Domain.ball([(0.0, 1.4)] * dim, res).inside_mask
        dom = Domain.from_mask(bbox, disk)
    kernel = make_kernel(profile, dim, order, 3 if profile == "plateau" else None)
    prof = quadratic_eta(dom, 0.1)
    guarded = smoothed = 0
    for n in (1, 4):
        cfg = MollifierConfig(kernel, prof, n=n)
        got, active = _operator_columns(cfg)
        expect = oracle_column_sums(cfg)
        assert np.all(np.abs(got - expect) <= 1e-14 * expect)
        rep = l1_operator_norm_report(cfg)
        assert abs(rep["estimate"] - expect.max()) <= 1e-14 * expect.max()
        assert rep["active_nodes"] == active.sum()
        step = cfg.step_inside()
        guarded += int(((step > 0.0) & ~active).sum())
        smoothed += int(active.sum())
    assert guarded > 0 and smoothed > 0


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


def test_counterexample_grid_check_needs_33_nodes(monkeypatch):
    # more than 33: at 33 nodes the clip 16 h reaches the window's end 0.5,
    # so the clipped spike is flat over the window and the check compares a
    # constant with itself; 34 nodes is the first grid with a spike to check
    [row] = counterexample_run((34,))["grid_checks"]
    assert 0.0 < row["rel_err"] <= 0.02

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(analysis, "quad", no_quadrature)
    for bad in (3, 17, 32, 33):
        with pytest.raises(ValueError, match=f"resolution {bad} is below the minimum of 34"):
            counterexample_run((1025, bad))


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
    rep = convergence_study(f, lambda n: modified_config(n, quad_prof, 48),
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


def test_trace_shell_errors_shrink(line, kernel1d, monkeypatch):
    # wider linear step so the shells are not all under the subgrid guard
    prof = build_whitney_eta(line, epsilon=0.5)
    cfg = MollifierConfig(kernel1d, prof, n=1)
    f = ScalarField.from_function(line, lambda x: 1.0 + 2.0 * x + np.sin(6 * x))
    rep = trace_check(f, cfg)
    monkeypatch.setattr(_sampling, "_BLOCK", 64)  # blocks change no bit
    assert trace_check(f, cfg) == rep
    assert rep["violations"] == 0
    devs = [r["max_dev"] for r in rep["rows"]]
    assert devs[0] <= devs[2] / 2.0
