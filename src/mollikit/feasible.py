"""Pointwise constraint sets and the feasibility-preserving smoothing map.

A constraint set collects the fields whose values (or gradients) are
dominated by a nonnegative bound that may vanish on parts of the closure.
Smoothing a feasible field can overshoot the bound by at most the local
ball-sup ratio of the bound, so rescaling by one over (1 + its sup-norm
excess) restores feasibility exactly; the factor tends to one, which is the
engine behind the density studies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._sampling import GridSample, smoothed, variable_step_max
from .analysis import InvariantViolation, StudyReport, field_difference, norm_by_token
from .eta import EtaProfile, _max_gradient
from .grid import Domain, ScalarField, distance_field, gradient_central
from .kernels import Kernel
from .mollify import MollifierConfig, mollify

__all__ = [
    "ConstraintSpec",
    "membership",
    "convergence_factor",
    "feasible_smooth",
    "density_study",
]

MEMBER_TOL = 1e-12


@dataclass
class ConstraintSpec:
    """Bound field, constraint mode, and the bound's exact zero set."""

    alpha: ScalarField
    mode: str = "value"  # value | gradient

    def __post_init__(self):
        if self.mode not in ("value", "gradient"):
            raise ValueError(f"unknown constraint mode {self.mode!r}")
        if (self.alpha.values[self.domain.inside_mask] < 0.0).any():
            raise ValueError("bound field must be nonnegative")

    @property
    def domain(self) -> Domain:
        return self.alpha.domain

    @property
    def delta_mask(self) -> np.ndarray:
        return (self.alpha.values == 0.0) & self.domain.inside_mask

    @property
    def theta_mask(self) -> np.ndarray:
        return ~self.domain.inside_mask | self.delta_mask

    def constrained_magnitude(self, f: ScalarField) -> np.ndarray:
        if self.mode == "value":
            return np.abs(f.values)
        return gradient_central(f).magnitude().values

    def theta_domain(self) -> Domain:
        return self.domain.with_delta(self.delta_mask)


def membership(f: ScalarField, spec: ConstraintSpec) -> tuple[bool, np.ndarray, float]:
    """(member, worst node coords, margin), margin = max(|f| - alpha)."""
    inside = spec.domain.inside_mask
    viol = spec.constrained_magnitude(f)[inside] - spec.alpha.values[inside]
    k = int(np.argmax(viol))
    margin = float(viol[k])
    worst = spec.domain.node_coords()[k]
    return margin <= MEMBER_TOL, worst, margin


def convergence_factor(spec: ConstraintSpec, eta: EtaProfile, n: int,
                       kernel: Kernel) -> tuple[ScalarField, float]:
    """Local ball-sup ratio of the bound over the smoothing balls.

    The sup runs over the quadrature sample points of the given kernel, the
    2N axis extremes of each ball, and the center itself, so the feasibility
    chain against the smoothing operator (which uses the same samples) is
    exact.  Nodes of the zero set map to exactly 1.  Also returns
    ||M_n - 1||_inf over the inside nodes.

    In value mode the sup covers only the nodes the operator smooths
    (``smoothed``); a node the subgrid guard leaves as the identity maps to
    exactly 1, since there beta |T_n f| = beta |f| <= |f| <= alpha (M_n >= 1
    gives beta <= 1).  Gradient mode keeps the sup at every node with a
    positive step: the central-difference gradient of beta T_n f at a
    guarded node mixes in its smoothed neighbours, so that argument does
    not hold there.
    """
    dom = spec.domain
    theta = spec.theta_mask
    if ((eta.values > 0.0) & theta).any():
        raise ValueError("step profile must vanish on the constraint zero set")
    off = dom.inside_mask & ~theta
    if (spec.alpha.values[off] <= 0.0).any():
        raise ValueError("bound vanishes off its declared zero set")

    pts = dom.node_coords(dom.inside_mask)
    step = eta.values[dom.inside_mask] / n
    if spec.mode == "value":
        step[~smoothed(step, dom.h)] = 0.0
    alpha_in = spec.alpha.values[dom.inside_mask]
    best = variable_step_max(pts, step, kernel, GridSample(dom, spec.alpha.values),
                             alpha_in)
    m = np.ones(dom.shape)
    ratios = np.ones(len(pts))
    free = ~theta[dom.inside_mask]
    ratios[free] = best[free] / alpha_in[free]
    m[dom.inside_mask] = ratios
    m[theta] = 1.0
    sup = float(np.abs(ratios - 1.0).max())
    return ScalarField(dom, m), sup


def feasible_smooth(f: ScalarField, spec: ConstraintSpec, eta: EtaProfile,
                    kernel: Kernel, n: int) -> tuple[ScalarField, dict]:
    """Smooth a feasible field and rescale it back into the constraint set.

    Value mode scales by 1/(1 + ||M_n - 1||_inf), with M_n = 1 at the nodes
    the subgrid guard leaves as the identity (``convergence_factor``), so
    beta = 1 when no node is smoothed; gradient mode takes M_n at every node
    with a positive step, and additionally accounts for the step-variation
    term through the certified gradient bound of the step profile.  The
    output is checked to be feasible within 1e-8 + 3 h Lip(alpha).  The
    info's ``active_nodes`` counts the nodes the operator smoothed, in
    value mode also the only ones the ball-max sampled.
    """
    member, worst, margin = membership(f, spec)
    if not member:
        raise ValueError(f"input not feasible: margin {margin} at node {worst}")

    _, m_sup = convergence_factor(spec, eta, n, kernel)
    if spec.mode == "gradient":
        m_sup_eff = (1.0 + eta.grad_bound / n) * (1.0 + m_sup) - 1.0
    else:
        m_sup_eff = m_sup
    beta = 1.0 / (1.0 + m_sup_eff)

    cfg = MollifierConfig(kernel, eta, n=n)
    tf = mollify(f, cfg)
    active = int(smoothed(cfg.step_inside(), spec.domain.h).sum())
    g = ScalarField(spec.domain, beta * tf.values)

    slack = 1e-8 + 3.0 * spec.domain.h * _max_gradient(spec.domain, spec.alpha.values)
    ok, worst_g, margin_g = membership(g, spec)
    if margin_g > slack:
        raise InvariantViolation(
            f"smoothed iterate infeasible: margin {margin_g} > slack {slack} "
            f"at node {worst_g}")
    return g, {
        "n": n,
        "active_nodes": active,
        "beta": beta,
        "mn_sup": m_sup,
        "mn_sup_effective": m_sup_eff,
        "margin": margin_g,
        "margin_slack": slack,
    }


def _check_scheme(scheme: str, mode: str) -> None:
    """Refuse an unknown density scheme, and ``'Lp'`` in gradient mode:
    zeroing the input within 1/n of the zero set breaks its gradient bound,
    so the truncated input is not feasible."""
    if scheme not in ("Lp", "W1p", "gradient"):
        raise ValueError(f"unknown density scheme {scheme!r}")
    if scheme == "Lp" and mode == "gradient":
        raise ValueError("density scheme 'Lp' with constraint mode 'gradient': zeroing the "
                         "input within 1/n of the zero set breaks its gradient bound; "
                         "use scheme 'gradient' or 'W1p'")


def density_study(f: ScalarField, spec: ConstraintSpec, eta: EtaProfile,
                  kernel: Kernel, n_list, scheme: str = "W1p") -> StudyReport:
    """Feasible approximation study for one of the three density modes.

    ``scheme='Lp'`` measures L2 errors of the truncated-then-smoothed
    diagonal sequence (the input is zeroed within 1/n of the constraint zero
    set before smoothing); ``'W1p'`` and ``'gradient'`` measure W12 errors
    of the plain feasible iterates.  Every iterate's feasibility margin and
    scale factor are recorded as bound checks, and the iterates themselves
    are kept on the report, in the order of ``n_list``; ``extra`` holds per
    n the scale ``beta``, ``mn_sup`` and the ``active_nodes`` the operator
    smoothed.
    """
    _check_scheme(scheme, spec.mode)
    token = "L2" if scheme == "Lp" else "W12"
    theta_dist = distance_field(spec.theta_domain(), "theta").values

    report = StudyReport(fixture=f"density-{scheme}", n_values=list(n_list))
    report.errors[token] = []
    betas = []
    mn_sups = []
    active = []
    for n in n_list:
        t0 = time.perf_counter()
        fn = f
        if scheme == "Lp":
            vals = np.where(theta_dist >= 1.0 / n, f.values, 0.0)
            fn = ScalarField(spec.domain, vals)
        g, info = feasible_smooth(fn, spec, eta, kernel, n)
        report.iterates.append(g)
        report.errors[token].append(norm_by_token(field_difference(g, f), token))
        report.add_check(f"feasible n={n}", info["margin"], info["margin_slack"])
        betas.append(info["beta"])
        mn_sups.append(info["mn_sup"])
        active.append(info["active_nodes"])
        report.runtime_s.append(time.perf_counter() - t0)

    report.add_decay_checks(token)
    beta_drops = [b1 - b2 for b1, b2 in zip(betas, betas[1:])]
    report.add_check("beta nondecreasing", max(beta_drops, default=0.0), 0.0, 1e-12)
    report.extra["beta"] = betas
    report.extra["mn_sup"] = mn_sups
    report.extra["active_nodes"] = active
    return report
