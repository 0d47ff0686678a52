"""Norm diagnostics and the quantitative operator studies.

Covers discrete Lp / Sobolev / total-variation norms, the weak-L1 inequality
with its covering constant, the exact L1 operator norm with its
quadratic-decay bound, the 1D integrability counterexample, and generic
convergence studies producing bound-checked reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from ._sampling import column_sums, smoothed
from .eta import EtaProfile
from .grid import Domain, ScalarField, gradient_central
from .kernels import Kernel, make_kernel, unit_ball_volume
from .mollify import MollifierConfig, _mollify_sweep, mollify

__all__ = [
    "InvariantViolation",
    "StudyReport",
    "norm",
    "weak_l1_check",
    "l1_operator_norm_report",
    "counterexample_run",
    "convergence_study",
    "trace_check",
    "NORM_TOKENS",
]


class InvariantViolation(RuntimeError):
    """A quantitative bound asserted by an operation failed."""


# ---------------------------------------------------------------------- #
# norms


def norm(f: ScalarField, kind: str = "Lp", p: float = 2.0) -> float:
    """Riemann-sum norm over the inside nodes.

    ``Lp``: (h^N sum |f|^p)^(1/p), max for p=inf.  ``W1p`` adds the
    central-difference gradient magnitude.  ``TV`` is the forward-difference
    total variation (one exact jump of height 1 has TV exactly 1).
    """
    dom = f.domain
    inside = dom.inside_mask
    hN = dom.cell_volume
    if kind in ("Lp", "W1p") and not p >= 1.0:
        raise ValueError("norm exponent must satisfy p >= 1")
    if kind == "Lp":
        vals = np.abs(f.values[inside])
        if math.isinf(p):
            return float(vals.max())
        return float((hN * (vals ** p).sum()) ** (1.0 / p))
    if kind == "W1p":
        vals = np.abs(f.values[inside])
        grad = gradient_central(f).magnitude().values[inside]
        if math.isinf(p):
            return float(max(vals.max(), grad.max()))
        return float((hN * ((vals ** p).sum() + (grad ** p).sum())) ** (1.0 / p))
    if kind == "TV":
        return _total_variation(f)
    raise ValueError(f"unknown norm kind {kind!r}")


def _total_variation(f: ScalarField) -> float:
    dom = f.domain
    trim = tuple(slice(None, -1) for _ in range(dom.dim))
    sq = np.zeros(tuple(n - 1 for n in dom.shape))
    isotropic = np.all(dom.spacing == dom.spacing[0])
    for axis in range(dom.dim):
        sl_hi = [slice(None, -1)] * dom.dim
        sl_hi[axis] = slice(1, None)
        diff = f.values[tuple(sl_hi)] - f.values[trim]
        if not isotropic:
            diff = diff / dom.spacing[axis]
        sq += diff * diff
    if isotropic:
        # undivided differences keep a unit jump's TV exactly 1
        h = float(dom.spacing[0])
        return float(h ** (dom.dim - 1) * np.sqrt(sq).sum())
    return float(dom.cell_volume * np.sqrt(sq).sum())


def field_difference(f: ScalarField, g: ScalarField) -> ScalarField:
    return ScalarField(f.domain, f.values - g.values)


NORM_TOKENS: dict[str, tuple[str, float]] = {
    "L1": ("Lp", 1.0),
    "L2": ("Lp", 2.0),
    "Linf": ("Lp", math.inf),
    "W11": ("W1p", 1.0),
    "W12": ("W1p", 2.0),
    "TV": ("TV", 0.0),
}


def norm_by_token(f: ScalarField, token: str) -> float:
    kind, p = NORM_TOKENS[token]
    return norm(f, kind, p)


# ---------------------------------------------------------------------- #
# reports


@dataclass
class StudyReport:
    """Per-n error table plus numeric bound checks.

    ``iterates`` holds the smoothed field of each n where the study keeps
    it (``feasible.density_study`` does); ``to_dict`` leaves it out."""

    fixture: str
    n_values: list = dc_field(default_factory=list)
    errors: dict = dc_field(default_factory=dict)
    bound_checks: list = dc_field(default_factory=list)
    runtime_s: list = dc_field(default_factory=list)
    extra: dict = dc_field(default_factory=dict)
    iterates: list = dc_field(default_factory=list, repr=False)

    def add_check(self, name: str, lhs: float, rhs: float, slack: float = 0.0) -> None:
        self.bound_checks.append({
            "name": name, "lhs": float(lhs), "rhs": float(rhs),
            "slack": float(slack), "pass": bool(lhs <= rhs + slack),
        })

    def add_decay_checks(self, token: str) -> None:
        """Check that the ``token`` errors decay over n: each step at most
        1.05x the one before, the last at most 0.3x the first.  With a first
        error of at most 1e-15 there is nothing to decay (the operator smoothed
        nothing, say): both checks pass on 0, marked ``"vacuous": true``."""
        errs = self.errors[token]
        ratios = [e2 / e1 if e1 > 1e-15 else 0.0 for e1, e2 in zip(errs, errs[1:])]
        self.add_check(f"{token} monotone", max(ratios, default=0.0), 1.0, 0.05)
        final = errs[-1] / errs[0] if errs[0] > 1e-15 else 0.0
        self.add_check(f"{token} final decay", final, 0.3)
        if errs[0] <= 1e-15:
            for check in self.bound_checks[-2:]:
                check["vacuous"] = True

    def passed(self) -> bool:
        return all(c["pass"] for c in self.bound_checks)

    def failures(self) -> list[dict]:
        return [c for c in self.bound_checks if not c["pass"]]

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "fixture": self.fixture,
            "n_values": list(self.n_values),
            "errors": {k: list(v) for k, v in self.errors.items()},
            "bound_checks": self.bound_checks,
            "extra": self.extra,
        }
        if include_runtime:
            out["runtime_s"] = list(self.runtime_s)
        return out


# ---------------------------------------------------------------------- #
# weak-L1


def weak_l1_check(f: ScalarField, cfg: MollifierConfig,
                  lambdas: Sequence[float]) -> dict:
    """Check measure(|Tf| > lam) <= (5^N omega_N m_rho / lam) ||f||_1 + h^N.

    The constant comes from the covering argument behind the weak-type
    bound; the extra cell volume absorbs the measure-vs-count gap.
    """
    dom = cfg.domain
    if any(lam <= 0 for lam in lambdas):
        raise ValueError("lambdas must be positive")
    tf = mollify(f, cfg)
    l1 = norm(f, "Lp", 1.0)
    const = 5.0 ** dom.dim * unit_ball_volume(dom.dim) * cfg.kernel.m_rho
    hN = dom.cell_volume
    tvals = np.abs(tf.values[dom.inside_mask])
    rows = []
    for lam in lambdas:
        lhs = hN * float((tvals > lam).sum())
        rhs = const / lam * l1 + hN
        rows.append({"lambda": lam, "lhs": lhs, "rhs": rhs, "pass": bool(lhs <= rhs)})
    return {
        "constant": const,
        "l1_norm": l1,
        "rows": rows,
        "violations": sum(not r["pass"] for r in rows),
    }


# ---------------------------------------------------------------------- #
# L1 operator norm


def _operator_columns(cfg: MollifierConfig) -> tuple[np.ndarray, np.ndarray]:
    """The column sums ``T^T 1`` of the linear part of ``mollify`` over the
    inside rows, per flat grid node, and the mask of the inside nodes it
    smooths (step >= h); every other inside row is the identity."""
    dom = cfg.domain
    step = cfg.step_inside()
    active = smoothed(step, dom.h)
    columns = column_sums(dom.node_coords(), step, np.flatnonzero(active), cfg.kernel, dom)
    columns[np.flatnonzero(dom.inside_mask)[~active]] += 1.0
    return columns, active


def l1_operator_norm_report(cfg: MollifierConfig) -> dict:
    """The exact L1 operator norm of ``mollify``, against the quadratic-decay
    bound m_rho (omega_N + omega_N N ln(2/kappa)).

    The norm is the largest of ``_operator_columns``: every weight is a
    kernel coefficient times multilinear corner weights, all >= 0, so this
    is the l1 -> l1 norm on the node values, the hull clamp left out.  The
    columns of the subgrid guard's identity rows near the threshold carry
    its excess over 1.  Raises if it exceeds the bound by more than 10%.
    """
    if cfg.eta.decay != "quadratic" or cfg.eta.kappa is None:
        raise ValueError("operator-norm estimate needs a certified quadratic step")
    kappa = cfg.eta.kappa
    dom = cfg.domain
    dim = dom.dim
    omega = unit_ball_volume(dim)
    nval = cfg.n if cfg.n is not None else 1
    columns, active = _operator_columns(cfg)
    j = int(np.argmax(columns))
    estimate = float(columns[j])
    bound = cfg.kernel.m_rho * (omega + omega * dim * math.log(2.0 / kappa))
    if estimate > bound * 1.1:
        raise InvariantViolation(
            f"L1 operator-norm estimate {estimate} exceeds bound {bound} by >10%")

    active_columns = columns[np.flatnonzero(dom.inside_mask)[active]]
    node = np.unravel_index(j, dom.shape)
    return {
        "estimate": estimate,
        "bound": bound,
        "kappa": kappa,
        "n": nval,
        "active_nodes": int(active.sum()),
        "active_column_max": float(active_columns.max()) if active.any() else None,
        "argmax_node": [float(dom.axis_coords(a)[i]) for a, i in enumerate(node)],
        "argmax_step_over_h": float(cfg.eta.values[node] / nval / dom.h),
        "limit_bound": cfg.kernel.m_rho * omega * (1.0 + dim * math.log(1.0 / kappa)),
    }


# ---------------------------------------------------------------------- #
# the 1D integrability counterexample


def f0(y):
    """The integrable spike whose smoothed image leaves L1."""
    y = np.asarray(y, dtype=float)
    log = np.log(2.0 / y)
    return 1.0 / (y * log * log)


def f0_l1_tail(delta: float) -> float:
    """Closed form of the L1 norm of f0 on (delta, 1)."""
    return 1.0 / math.log(2.0) - 1.0 / math.log(2.0 / delta)


def tf0_closed(x):
    """Closed form of the smoothed spike on (0, 1/2): 1 / (2 x ln(1/x))."""
    x = np.asarray(x, dtype=float)
    return 1.0 / (2.0 * x * np.log(1.0 / x))


def tf0_quadrature(x: float) -> float:
    """Smoothed spike at a point by adaptive quadrature of the operator.

    The averaging window at x is (0, 2x); substituting u = ln(2/y) moves the
    integrable endpoint singularity of the spike to a decaying tail, which
    adaptive quadrature handles at machine accuracy.
    """
    if not 0.0 < x < 0.5:
        raise ValueError("quadrature oracle defined on (0, 1/2)")
    val, _ = quad(lambda u: 1.0 / (u * u), math.log(1.0 / x), np.inf, limit=200)
    return val / (2.0 * x)


# The grid cross-check clips the spike at 16 h, and its closed form holds
# while the clip stays inside the averaging window (0, 0.5] of x = 0.25.  At
# h = 1/32 the clip is the window's end and the clipped spike is flat over
# it, so the check has something to check only for h < 1/32 on [0, 1].
_COUNTEREXAMPLE_MIN_RES = 34


def counterexample_run(resolutions: Sequence[int] = (4097,)) -> dict:
    """Exhibit L1 unboundedness: f0 is integrable but its smoothed image
    accumulates mass like ln ln(1/delta) near the boundary.

    Closed forms (antiderivatives 1/ln(2/y) for f0 and (1/2) ln ln(1/x) for
    the smoothed spike) are checked against adaptive quadrature, the growth
    rate of I(delta) is fitted against the closed-form model, and the grid
    pipeline is cross-checked at the given resolutions with the spike
    clipped at a grid-resolvable height.
    """
    for res in resolutions:
        if int(res) < _COUNTEREXAMPLE_MIN_RES:
            raise ValueError(f"counterexample grid resolution {res} is below the minimum of "
                             f"{_COUNTEREXAMPLE_MIN_RES} nodes that its grid check needs")
    deltas = np.array([2.0 ** -k for k in range(4, 13)])

    tails = np.array([f0_l1_tail(d) for d in deltas])
    tails_quad = np.array([quad(f0, d, 1.0, limit=200)[0] for d in deltas])
    tail_err = float(np.abs(tails_quad - tails).max() / tails.max())

    ivals = np.array([quad(tf0_closed, d, 0.5, limit=400)[0] for d in deltas])
    loglog = np.log(np.log(1.0 / deltas))
    model = 0.5 * loglog  # closed-form antiderivative of the smoothed spike
    slope_raw = float(np.polyfit(loglog, ivals, 1)[0])
    slope_model = float(np.polyfit(model, ivals, 1)[0])

    increments = np.abs(np.diff(tails))
    cauchy_ok = bool((np.diff(increments) < 0).all()
                     and increments[-1] <= 0.25 * increments[0])

    point = 0.25
    tf0_quad = tf0_quadrature(point)
    tf0_exact = float(tf0_closed(point))

    grid_checks = []
    for res in resolutions:
        grid_checks.append(_counterexample_grid_check(int(res)))

    report = {
        "deltas": deltas.tolist(),
        "I": ivals.tolist(),
        "l1_tails": tails.tolist(),
        "l1_tail_max_rel_err": tail_err,
        "slope_vs_loglog": slope_raw,
        "slope_vs_model": slope_model,
        "cauchy_decreasing": cauchy_ok,
        "tf0_quadrature_at_quarter": tf0_quad,
        "tf0_closed_at_quarter": tf0_exact,
        "grid_checks": grid_checks,
    }
    if not 0.8 <= slope_model <= 1.2:
        raise InvariantViolation(
            f"counterexample growth slope {slope_model} outside [0.8, 1.2]")
    if not cauchy_ok:
        raise InvariantViolation("f0 L1 tail increments are not Cauchy")
    return report


def _counterexample_grid_check(res: int) -> dict:
    """Grid cross-check with the spike clipped below a resolvable height."""
    dom = Domain.box([(0.0, 1.0)], res)
    ymin = 16.0 * dom.h
    x = dom.axis_coords(0)
    vals = f0(np.maximum(x, ymin))
    sigma_profile = EtaProfile(dom.sigma(), 1.0, "linear", None, ~dom.inside_mask)
    cfg = MollifierConfig(make_kernel("box", 1, 64), sigma_profile,
                          allow_boundary_step=True)
    tf = mollify(ScalarField(dom, vals), cfg)
    node = int(np.argmin(np.abs(x - 0.25)))
    got = float(tf.values[node])
    # T(clipped f0)(x) = (1/2x) [ ymin f0(ymin) + int_ymin^2x f0 ]
    expect = (ymin * float(f0(ymin))
              + (1.0 / math.log(2.0 / 0.5) - 1.0 / math.log(2.0 / ymin))
              ) / (2.0 * 0.25)
    return {"resolution": res, "node_value": got, "closed_form": expect,
            "rel_err": abs(got - expect) / expect}


# ---------------------------------------------------------------------- #
# convergence studies


def convergence_study(f: ScalarField, cfg_for_n: Callable[[int], MollifierConfig],
                      n_list: Sequence[int], norms: Sequence[str],
                      fixture: str = "custom", bv_mode: str | None = None) -> StudyReport:
    """Errors of the approximation family against the input per norm token.

    Adds monotonicity (5% slack) and final-decay (0.3x) checks for the
    convergent norms.  ``bv_mode='strict'`` additionally checks
    |TV(Tf) - TV(f)| against the modified-family tolerance, and
    ``bv_mode='weakstar'`` checks TV(Tf) <= 1.5 TV(f) while the L1 error
    decays.
    """
    report = StudyReport(fixture=fixture, n_values=list(n_list))
    err_norms = [t for t in norms if t != "TV"]
    for token in err_norms:
        report.errors[token] = []
    tv_f = norm_by_token(f, "TV") if (bv_mode or "TV" in norms) else None
    if "TV" in norms or bv_mode:
        report.errors["TV_of_Tf"] = []

    zetas = []
    for n in n_list:
        t0 = time.perf_counter()
        cfg = cfg_for_n(n)
        tf = mollify(f, cfg)
        diff = field_difference(tf, f)
        for token in err_norms:
            report.errors[token].append(norm_by_token(diff, token))
        if "TV_of_Tf" in report.errors:
            report.errors["TV_of_Tf"].append(norm_by_token(tf, "TV"))
        if bv_mode == "strict":
            grad_bound = cfg.eta.grad_bound
            zetas.append(math.inf if n <= 1 else
                         1.0 / (1.0 - 1.0 / n) - 1.0 + grad_bound / n + 0.05)
        report.runtime_s.append(time.perf_counter() - t0)

    for token in err_norms:
        report.add_decay_checks(token)

    if bv_mode == "strict":
        for n, tv, zeta in zip(n_list, report.errors["TV_of_Tf"], zetas):
            rhs = math.inf if math.isinf(zeta) else zeta * tv_f
            report.add_check(f"TV strict n={n}", abs(tv - tv_f), rhs)
    elif bv_mode == "weakstar":
        report.add_check("TV bounded", max(report.errors["TV_of_Tf"]),
                         1.5 * tv_f)
    if tv_f is not None:
        report.extra["TV_of_f"] = tv_f
    return report


def trace_check(f: ScalarField, cfg: MollifierConfig) -> dict:
    """Boundary-shell comparison of the smoothed field against the input.

    On each shell, of width 4, 8 and 16 grid spacings, the max deviation is
    compared to the max local oscillation ``max_k |f(x - s z_k) - f(x)|`` of
    the input at the sampling radius, read off the hull of the smoothing
    pass's own samples; both tend to zero as the shells tighten.
    """
    dom = cfg.domain
    tf, sweep = _mollify_sweep(f, cfg)
    sigma = dom.sigma().values[dom.inside_mask]
    f_in = f.values[dom.inside_mask]
    osc = np.maximum(sweep.hi[0] - f_in, f_in - sweep.lo[0])

    dev = np.abs(tf.values[dom.inside_mask] - f_in)
    rows = []
    for w in (4.0, 8.0, 16.0):
        shell = sigma <= w * dom.h
        if not shell.any():
            rows.append({"width_in_h": w, "max_dev": 0.0, "osc_bound": 0.0,
                         "pass": True})
            continue
        max_dev = float(dev[shell].max())
        osc_bound = float(osc[shell].max())
        rows.append({"width_in_h": w, "max_dev": max_dev,
                     "osc_bound": osc_bound,
                     "pass": bool(max_dev <= osc_bound + 1e-12)})
    return {"rows": rows, "violations": sum(not r["pass"] for r in rows)}
