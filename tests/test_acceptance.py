"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  Grids: 1024 nodes on the interval, 256^2 on the square for the
exactness and certificate suites; the heavier studies run at 128^2.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mollikit.analysis import (convergence_study, counterexample_run,
                               l1_operator_norm_report, norm, norm_by_token,
                               weak_l1_check)
from mollikit.eta import (build_whitney_eta, calibrated_eta, estimate_modulus,
                          quadratic_eta, regularized_distance)
from mollikit.feasible import (ConstraintSpec, convergence_factor, density_study,
                               feasible_smooth, membership)
from mollikit.grid import Domain, ScalarField, gradient_central
from mollikit.kernels import make_kernel
from mollikit.mollify import (MollifierConfig, composite_profile, modified_config,
                              mollify, mollify_at_points, mollify_composite,
                              mollify_gradient, pointwise_gradient_bound_check,
                              psi_field)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------- #
# shared fixtures


@pytest.fixture(scope="module")
def line1024():
    return Domain.box([(0.0, 1.0)], 1024)


@pytest.fixture(scope="module")
def line1025():
    return Domain.box([(0.0, 1.0)], 1025)


@pytest.fixture(scope="module")
def square256():
    return Domain.box([(0.0, 1.0), (0.0, 1.0)], 256)


@pytest.fixture(scope="module")
def square128():
    return Domain.box([(0.0, 1.0), (0.0, 1.0)], 128)


@pytest.fixture(scope="module")
def k1():
    return make_kernel("bump", 1, 64)


@pytest.fixture(scope="module")
def k2():
    return make_kernel("bump", 2, 32)


@pytest.fixture(scope="module")
def quad1d(line1024, k1):
    return quadratic_eta(line1024, 0.1, k1)


@pytest.fixture(scope="module")
def quad2d(square256, k2):
    return quadratic_eta(square256, 0.1, k2)


@pytest.fixture(scope="module")
def quad2d_small(square128, k2):
    return quadratic_eta(square128, 0.1, k2)


# ---------------------------------------------------------------------- #
# 1. exactness suite


def test_criterion_1_exactness(line1024, square256, k1, k2, quad1d, quad2d):
    rng = np.random.default_rng(100)
    worst = {"const": 0.0, "affine": 0.0, "linear": 0.0}
    sup_ok = True
    identity_ok = True
    for dom, kernel, prof in ((line1024, k1, quad1d), (square256, k2, quad2d)):
        cfg = MollifierConfig(kernel, prof, n=2)
        c = ScalarField.constant(dom, 2.875)
        worst["const"] = max(worst["const"],
                             float(np.abs(mollify(c, cfg).values - 2.875).max()))
        aff = ScalarField.from_function(dom, lambda *g: sum(g) - 0.375)
        worst["affine"] = max(worst["affine"],
                              float(np.abs(mollify(aff, cfg).values - aff.values).max()))
        f = ScalarField(dom, rng.standard_normal(dom.shape))
        g = ScalarField(dom, rng.standard_normal(dom.shape))
        combo = ScalarField(dom, 0.6 * f.values + 1.7 * g.values)
        lin = np.abs(mollify(combo, cfg).values
                     - (0.6 * mollify(f, cfg).values + 1.7 * mollify(g, cfg).values))
        worst["linear"] = max(worst["linear"], float(lin.max()))
        for fixture in (f, ScalarField.from_function(dom, lambda *g: np.sin(np.pi * g[0])), c):
            tf = mollify(fixture, cfg)
            sup_ok &= bool(np.abs(tf.values[dom.inside_mask]).max()
                           <= np.abs(fixture.values[dom.inside_mask]).max())
        # identity at nodes where the step vanishes (boundary nodes here)
        tf = mollify(f, cfg)
        identity_ok &= bool((tf.values[~dom.inside_mask]
                             == f.values[~dom.inside_mask]).all())
    # interior zero-step node via a profile vanishing at an interior point
    theta = ~line1024.inside_mask.copy()
    theta[500] = True
    prof_int = build_whitney_eta(line1024, theta, 0.25)
    f = ScalarField(line1024, rng.standard_normal(line1024.shape))
    identity_ok &= bool(mollify(f, MollifierConfig(k1, prof_int, n=1)).values[500]
                        == f.values[500])

    ok = (worst["const"] <= 1e-12 and worst["affine"] <= 1e-10
          and worst["linear"] <= 1e-10 and sup_ok and identity_ok)
    report(1, "exactness suite", ok,
           f"const {worst['const']:.1e}, affine {worst['affine']:.1e}, "
           f"linear {worst['linear']:.1e}, sup exact {sup_ok}, identity {identity_ok}")


# ---------------------------------------------------------------------- #
# 2. gradient formula vs finite differences


def test_criterion_2_gradient(line1024, k1, quad1d):
    dom = line1024
    h = dom.h
    cfg = MollifierConfig(k1, quad1d, n=4)
    f = ScalarField.from_function(dom, lambda x: np.sin(np.pi * x))
    grads = mollify_gradient(f, gradient_central(f), cfg)
    pts = dom.node_coords(dom.inside_mask)
    delta = h / 4.0

    def fn(p):
        return np.sin(np.pi * p[:, 0])

    fd = (mollify_at_points(fn, cfg, pts + delta)
          - mollify_at_points(fn, cfg, pts - delta)) / (2 * delta)
    disc = float(np.abs(grads.components[0].values[dom.inside_mask] - fd).max())
    tol = max(1e-4, 5 * h * h)

    bounds = pointwise_gradient_bound_check(f, cfg)
    ok = disc <= tol and bounds["violations"] == 0
    report(2, "gradient formula", ok,
           f"max FD discrepancy {disc:.2e} (tol {tol:.1e}), "
           f"pointwise-bound violations {bounds['violations']}")


# ---------------------------------------------------------------------- #
# 3. regularized distance certificates


def test_criterion_3_regularized_distance(line1024, square256, k1, k2):
    violations = 0
    for dom, kernel in ((line1024, k1), (square256, k2)):
        sigma = dom.sigma().values[dom.inside_mask]
        for eps in (0.05, 0.1, 0.25):
            reg = regularized_distance(dom, eps, kernel)
            vals = reg.values[dom.inside_mask]
            violations += int((vals < (1 - eps) * sigma).sum())
            violations += int((vals > (1 + eps) * sigma).sum())
            quad = quadratic_eta(dom, eps, kernel)
            kappa = ((1 - eps) / (1 + eps)) ** 2
            qv = quad.values[dom.inside_mask]
            violations += int((qv < kappa * sigma ** 2).sum())
            violations += int((qv > sigma ** 2).sum())
            assert quad.kappa == pytest.approx(kappa, abs=1e-14)
    report(3, "regularized distance", violations == 0,
           f"{violations} certificate violations over eps in {{0.05, 0.1, 0.25}}, 1D+2D")


# ---------------------------------------------------------------------- #
# 4. weak-L1 inequality


def test_criterion_4_weak_l1(line1024, square256, k1, k2, quad1d, quad2d):
    rng = np.random.default_rng(42)
    lambdas = [10.0 ** e for e in range(-3, 3)]
    violations = 0
    for dom, kernel, prof in ((line1024, k1, quad1d), (square256, k2, quad2d)):
        cfg = MollifierConfig(kernel, prof, n=1)
        spike = np.zeros(dom.shape)
        spike[tuple(n // 3 for n in dom.shape)] = 1.0 / dom.cell_volume
        x0 = dom.node_grids()[0]
        fixtures = [
            ScalarField(dom, spike),
            ScalarField(dom, (x0 > 0.5).astype(float)),
            ScalarField(dom, rng.standard_normal(dom.shape)),
        ]
        for f in fixtures:
            violations += weak_l1_check(f, cfg, lambdas)["violations"]
    report(4, "weak-L1 inequality", violations == 0,
           f"{violations} violations over 6-decade sweep, spike/step/random, 1D+2D")


# ---------------------------------------------------------------------- #
# 5. L1 operator norm


def test_criterion_5_operator_norm(line1024, square128, k1, k2, quad1d, quad2d_small):
    ok = True
    details = []
    for dom, kernel, prof in ((line1024, k1, quad1d), (square128, k2, quad2d_small)):
        reports = {n: l1_operator_norm_report(MollifierConfig(kernel, prof, n=n),
                                              probe_count=100)
                   for n in (1, 4, 16)}
        est = [reports[n]["estimate"] for n in (1, 4, 16)]
        ok &= est[0] <= reports[1]["bound"] * 1.1
        ok &= est[0] >= est[1] - 1e-6 and est[1] >= est[2] - 1e-6
        ok &= est[2] <= reports[16]["limit_bound"] * 1.1
        details.append(f"{dom.dim}D est {est[0]:.4f}/{est[1]:.4f}/{est[2]:.4f} "
                       f"bound {reports[1]['bound']:.2f}")
    report(5, "L1 operator norm", ok, "; ".join(details))


# ---------------------------------------------------------------------- #
# 6. the integrability counterexample


def test_criterion_6_counterexample():
    rep = counterexample_run((4097,))
    tails_ok = rep["l1_tail_max_rel_err"] <= 0.01
    point_ok = abs(rep["tf0_quadrature_at_quarter"] - 1.4427) <= 0.005 * 1.4427
    slope_ok = 0.8 <= rep["slope_vs_model"] <= 1.2
    ok = tails_ok and point_ok and slope_ok
    report(6, "L1 counterexample", ok,
           f"tail err {rep['l1_tail_max_rel_err']:.1e}, "
           f"Tf0(1/4) {rep['tf0_quadrature_at_quarter']:.6f}, "
           f"slope vs model {rep['slope_vs_model']:.3f} "
           f"(raw lnln slope {rep['slope_vs_loglog']:.3f})")


# ---------------------------------------------------------------------- #
# 7. convergence suites


def test_criterion_7_convergence(line1024, square128, k1, k2, quad1d, quad2d_small):
    n_list = [1, 2, 4, 8, 16]
    norms = ["L2", "W12", "L1", "W11"]
    ok = True
    details = []
    for dom, kernel, prof in ((line1024, k1, quad1d), (square128, k2, quad2d_small)):
        for name, fn in (("sin", lambda *g: np.prod([np.sin(np.pi * x) for x in g], axis=0)),
                         ("poly", lambda *g: np.prod([x * (1 - x) for x in g], axis=0))):
            f = ScalarField.from_function(dom, fn)
            rep = convergence_study(f, lambda n: MollifierConfig(kernel, prof, n=n),
                                    n_list, norms, fixture=name)
            ok &= rep.passed()
            if not rep.passed():
                details.append(f"{dom.dim}D {name}: {rep.failures()}")
    report(7, "convergence suites", ok,
           "; ".join(details) if details else
           "L2/W12/L1/W11 monotone within 5%, final <= 0.3x initial, 1D+2D sin/poly")


# ---------------------------------------------------------------------- #
# 8. BV behaviour


def test_criterion_8_bv(line1025, k1):
    quad = quadratic_eta(line1025, 0.1, k1)
    x = line1025.axis_coords(0)
    f = ScalarField(line1025, (x > 0.5).astype(float))
    tv16 = norm(mollify(f, modified_config(line1025, 16, quad, 64)), "TV")
    strict_ok = abs(tv16 - 1.0) <= 0.1

    rep = convergence_study(f, lambda n: MollifierConfig(k1, quad, n=n),
                            [1, 2, 4, 8, 16], ["L1"], "step", bv_mode="weakstar")
    l1 = rep.errors["L1"]
    weak_ok = (l1[-1] <= 0.3 * l1[0]) and max(rep.errors["TV_of_Tf"]) <= 1.5
    report(8, "BV behaviour", strict_ok and weak_ok,
           f"TV(modified T_16 f) = {tv16:.4f}, standard L1 {l1[0]:.3e}->{l1[-1]:.3e}, "
           f"max TV {max(rep.errors['TV_of_Tf']):.3f}")


# ---------------------------------------------------------------------- #
# 9. composite operator with an interior zero point


def test_criterion_9_composite(line1025, k1):
    dom = line1025
    mid = dom.shape[0] // 2
    theta = ~dom.inside_mask.copy()
    theta[mid] = True
    eta1 = build_whitney_eta(dom, theta, 0.25)
    eta0 = build_whitney_eta(dom, None, 0.25)
    f = ScalarField.from_function(dom, lambda x: np.sin(2.1 * x + 0.4))
    fmid = float(f.values[mid])

    osc_ok = True
    for n in (4, 16, 64):
        tf = mollify_composite(f, eta1, eta0, n, k1)
        radius = eta0.values[mid] / n
        probe = np.linspace(0.5 - radius, 0.5 + radius, 4001)
        osc = float(np.abs(np.sin(2.1 * probe + 0.4) - fmid).max())
        osc_ok &= abs(float(tf.values[mid]) - fmid) <= osc

    t64 = mollify_composite(f, eta1, eta0, 64, k1)
    t_lim = mollify(f, MollifierConfig(k1, eta1))
    off = dom.inside_mask.copy()
    off[mid] = False
    off_dev = float(np.abs(t64.values[off] - t_lim.values[off]).max())

    psi_lim = psi_field(f, eta1, eta0, None, k1)
    psi_ok = psi_lim.components[0].values[mid] == 0.0

    ok = osc_ok and off_dev <= 1e-3 and psi_ok
    report(9, "composite operator", ok,
           f"oscillation bound at zero point {osc_ok}, off-set deviation "
           f"{off_dev:.2e} (tol 1e-3), psi zero on the set {psi_ok}")


# ---------------------------------------------------------------------- #
# 10. density / feasibility


def _disk_alpha(dom, center=(0.5, 0.5), radius=0.15):
    grids = dom.node_grids()
    r = np.sqrt(sum((g - c) ** 2 for g, c in zip(grids, center)))
    disk_dist = np.maximum(r - radius, 0.0)
    return ScalarField(dom, dom.sigma().values.clip(min=0.0) * disk_dist)


def _feasibility_case(dom, kernel, alpha):
    spec = ConstraintSpec(alpha, "value")
    base = build_whitney_eta(dom, spec.theta_mask, 0.25)
    cal = calibrated_eta(dom, alpha, estimate_modulus(alpha, 32), base)
    lip = float(gradient_central(alpha).magnitude().values[dom.inside_mask].max())
    slack = 1e-8 + 3 * dom.h * lip
    n_list = [1, 2, 4, 8, 16]
    f = ScalarField(dom, 0.9 * alpha.values)

    rep_ii = density_study(f, spec, cal, kernel, n_list, "W1p")
    rep_i = density_study(f, spec, cal, kernel, n_list, "Lp")

    grad_spec = ConstraintSpec(alpha, "gradient")
    if dom.dim == 1:
        x = dom.axis_coords(0)
        prim = np.where(x <= 0.5, x * x / 2, 0.25 - (1 - x) ** 2 / 2)
        fg = ScalarField(dom, 0.9 * prim)
    else:
        # support pulled back from the zero set; scaled so the discrete
        # gradient sits strictly under the bound at every node
        raw = ScalarField(dom, np.maximum(alpha.values - 3 * dom.h * lip, 0.0) ** 2)
        gmag = gradient_central(raw).magnitude().values[dom.inside_mask]
        a_in = alpha.values[dom.inside_mask]
        active = gmag > 0
        scale = 0.9 * float((a_in[active] / gmag[active]).min())
        fg = ScalarField(dom, scale * raw.values)
    rep_iii = density_study(fg, grad_spec, cal, kernel, n_list, "gradient")

    sups = {n: convergence_factor(spec, cal, n, kernel)[1] for n in (1, 4, 16, 64)}
    halving = all(sups[4 * n] <= 0.5 * sups[n] * 1.1 for n in (1, 4, 16))

    betas = {n: feasible_smooth(f, spec, cal, kernel, n)[1]["beta"]
             for n in (1, 2, 4, 8, 16, 32, 64)}
    beta_mono = all(betas[2 * n] >= betas[n] - 1e-12 for n in (1, 2, 4, 8, 16, 32))
    margins_ok = all(c["pass"] for c in rep_ii.bound_checks if c["name"].startswith("feasible"))
    margin_tight = all(c["rhs"] <= slack + 1e-15 for c in rep_ii.bound_checks
                       if c["name"].startswith("feasible"))
    return {
        "modes": rep_i.passed() and rep_ii.passed() and rep_iii.passed(),
        "fails": rep_i.failures() + rep_ii.failures() + rep_iii.failures(),
        "halving": halving,
        "beta_mono": beta_mono,
        "beta64": betas[64],
        "margins": margins_ok and margin_tight,
    }


def test_criterion_10_density(line1025, square128, k1, k2):
    x = line1025.axis_coords(0)
    case1 = _feasibility_case(line1025, k1,
                              ScalarField(line1025, np.minimum(x, 1 - x)))
    case2 = _feasibility_case(square128, k2, _disk_alpha(square128))
    ok = True
    details = []
    for dim, case in ((1, case1), (2, case2)):
        good = (case["modes"] and case["halving"] and case["beta_mono"]
                and case["beta64"] >= 0.95 and case["margins"])
        ok &= good
        details.append(f"{dim}D beta64 {case['beta64']:.4f}"
                       + ("" if good else f" FAILS {case['fails']}"))
    report(10, "density and feasibility", ok, "; ".join(details))


# ---------------------------------------------------------------------- #
# 11. determinism


def test_criterion_11_determinism(tmp_path):
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"selftest_{threads}.json"
        res = subprocess.run(
            [sys.executable, "-m", "mollikit.cli", "selftest", "--threads", threads,
             "--no-timestamp", "--out", str(out)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    passing = json.loads(outs[0])["pass"]
    report(11, "determinism", identical and passing,
           f"byte-identical {identical}, selftest pass {passing}")
