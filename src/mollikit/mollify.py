"""The variable-step smoothing operator and its gradient.

At each node the operator averages the input over a ball whose radius is a
certified step profile (optionally divided by a family index n), so the
averaging window always stays inside the domain and boundary values are
reproduced exactly.  Output values are clamped into the hull of the sampled
values, which makes the sup bound, positivity, and the oscillation bound
exact in floating point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._sampling import GridSample, variable_step_average, weighted_z_dot
from .eta import EtaProfile, _max_gradient, bv_step_eta
from .grid import Domain, ScalarField, VectorField, gradient_central
from .kernels import Kernel, make_kernel

__all__ = [
    "MollifierConfig",
    "mollify",
    "mollify_with_report",
    "mollify_at_points",
    "mollify_gradient",
    "pointwise_gradient_bound_check",
    "mollify_composite",
    "composite_profile",
    "psi_field",
    "modified_config",
]


@dataclass
class MollifierConfig:
    """Kernel + step profile + optional family index n.

    The effective step at a node is ``eta(x) / n`` (or ``eta(x)`` when n is
    None).  Construction validates that the step is not negative and stays
    strictly below the boundary distance at every inside node, so every
    averaging ball lies inside the domain; ``allow_boundary_step`` relaxes
    the upper bound to <= for the one caller (the integrability
    counterexample) that runs with step equal to the boundary distance.
    Even then every sample lies at least step / order inside the bbox (sigma
    is at most each face distance, |z_a| <= 1 - 1/order); a sample outside raises.
    """

    kernel: Kernel
    eta: EtaProfile
    n: int | None = None
    variant: str = "standard"
    allow_boundary_step: bool = False

    def __post_init__(self):
        if self.variant not in ("standard", "modified"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n is not None and self.n < 1:
            raise ValueError("family index n must be a positive integer")
        if self.kernel.dim != self.domain.dim:
            raise ValueError("kernel dim does not match domain dim")
        sigma = self.domain.sigma().values[self.domain.inside_mask]
        step = self.step_inside()
        bad = (step < 0.0) | (step > sigma if self.allow_boundary_step else step >= sigma)
        if bad.any():
            k = int(np.argmax(bad))
            pt = self.domain.node_coords()[k]
            raise ValueError(
                f"step invariant violated at node {pt}: step {step[k]} vs "
                f"boundary distance {sigma[k]}")

    @property
    def domain(self) -> Domain:
        return self.eta.domain

    def step_inside(self) -> np.ndarray:
        s = self.eta.values[self.domain.inside_mask]
        return s / self.n if self.n is not None else s.copy()

    def step_at(self, points: np.ndarray) -> np.ndarray:
        s = self.domain.interpolate(self.eta.values, points)
        s = np.maximum(s, 0.0)
        return s / self.n if self.n is not None else s


def _sample_closure(f):
    """Point evaluator for the input: a grid sample of fields, callables as given."""
    if callable(f):
        return lambda p: np.asarray(f(p), dtype=float)
    return GridSample(f.domain, f.values)


def mollify(f: ScalarField, cfg: MollifierConfig, threads: int = 1) -> ScalarField:
    """Apply the smoothing operator to a sampled field.

    The subgrid guard is part of the operator: a node whose step is zero or
    below one grid spacing keeps its value exactly, and
    ``mollify_with_report`` counts the nonzero ones as
    ``flagged_subgrid_nodes``.  A guarded column keeps its own weight 1 and
    also takes weight from smoothed neighbours, so the guarded columns carry
    the L1 norm's excess over 1 (``l1_operator_norm_report``).

    Every sweep runs on the calling thread; ``threads`` is accepted for old
    callers and ignored.
    """
    return _mollify_sweep(f, cfg)[0]


def mollify_with_report(f: ScalarField, cfg: MollifierConfig) -> tuple[ScalarField, dict]:
    t0 = time.perf_counter()
    out, sweep = _mollify_sweep(f, cfg)
    step = cfg.step_inside()
    inside_abs = np.abs(f.values[f.domain.inside_mask])
    sup_f = float(inside_abs.max())
    sup_tf = float(np.abs(out.values[f.domain.inside_mask]).max())
    report = {
        "sup_ratio": sup_tf / sup_f if sup_f > 0 else 0.0,
        "identity_nodes": int((step == 0.0).sum()),
        "flagged_subgrid_nodes": int(((step > 0.0) & ~sweep.active).sum()),
        "hull_clamped_nodes": int(np.count_nonzero(sweep.clamped[0])),
        "max_hull_correction": float(np.abs(sweep.clamped[0]).max()),
        "runtime_ms": (time.perf_counter() - t0) * 1e3,
    }
    return out, report


def _mollify_sweep(f: ScalarField, cfg: MollifierConfig):
    """The smoothed field and the sweep over the inside nodes behind it."""
    dom = cfg.domain
    if f.domain is not dom and (f.domain.shape != dom.shape or f.domain.bbox != dom.bbox):
        raise ValueError("field grid does not match the operator's grid")
    pts = dom.node_coords(dom.inside_mask)
    sweep = variable_step_average(pts, cfg.step_inside(), cfg.kernel, [_sample_closure(f)],
                                  [f.values[dom.inside_mask]], dom.h)
    out = f.values.copy()
    out[dom.inside_mask] = sweep.values[0]
    return ScalarField(dom, out), sweep


def mollify_at_points(f, cfg: MollifierConfig, points: np.ndarray) -> np.ndarray:
    """Evaluate the smoothed function at arbitrary points of the domain.

    ``f`` may be a ScalarField (interpolated) or a callable on (M, N) point
    arrays; callables make refined-grid oracles independent of the node data.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    step = cfg.step_at(points)
    sample = _sample_closure(f)
    return variable_step_average(points, step, cfg.kernel, [sample], [sample(points)],
                                 cfg.domain.h).values[0]


def _gradient_sweep(grad_f: VectorField, extra: list[ScalarField], cfg: MollifierConfig):
    """One sweep over the gradient components and the ``extra`` fields.

    Returns the analytic gradient of the smoothed field at the inside nodes,
    one array per axis, and the smoothed components and extra fields.
    """
    if cfg.variant != "standard":
        raise ValueError("gradient formula applies to the standard variant")
    dom = cfg.domain
    inside = dom.inside_mask
    fields = grad_f.components + extra
    sweep = weighted_z_dot(dom.node_coords(inside), cfg.step_inside(), cfg.kernel,
                           [_sample_closure(c) for c in fields],
                           [c.values[inside] for c in fields], dom.h)
    inv_n = 1.0 / cfg.n if cfg.n is not None else 1.0
    grad_eta = gradient_central(cfg.eta.field)
    grad_tf = [sweep.values[axis] + inv_n * grad_eta.components[axis].values[inside] * sweep.zdot
               for axis in range(dom.dim)]
    return grad_tf, sweep.values


def mollify_gradient(f: ScalarField, grad_f: VectorField, cfg: MollifierConfig) -> VectorField:
    """Analytic gradient of the smoothed field.

    Componentwise smoothing of the input gradient plus the step-variation
    correction ``(grad eta / n) * sum_k coeff_k (-z_k) . grad f(x - s z_k)``;
    the substituted form never divides by the step, so nothing blows up
    where the step vanishes.  The subgrid guard is part of the operator, as
    in ``mollify``: a node whose step is below one grid spacing returns the
    input gradient unchanged.
    """
    dom = cfg.domain
    grad_tf, _ = _gradient_sweep(grad_f, [], cfg)
    out = [comp.values.copy() for comp in grad_f.components]
    for arr, vals in zip(out, grad_tf):
        arr[dom.inside_mask] = vals
    return VectorField.from_arrays(dom, out)


def pointwise_gradient_bound_check(f: ScalarField, cfg: MollifierConfig) -> dict:
    """Verify the pointwise gradient bounds at every inside node.

    Checks |grad Tf| <= |T grad f| + |grad eta| T(|grad f|) and
    |grad Tf - T grad f| <= (|grad eta| / n) T(|grad f|), each with slack
    1e-8 + 5h.  Violations are reported, not raised.
    """
    dom = cfg.domain
    inside = dom.inside_mask
    slack = 1e-8 + 5.0 * dom.h
    grad_f = gradient_central(f)
    grad_tf, smoothed = _gradient_sweep(grad_f, [grad_f.magnitude()], cfg)
    t_comp, t_mag = smoothed[:dom.dim], smoothed[dom.dim]

    pts = dom.node_coords(inside)
    grad_eta_mag = gradient_central(cfg.eta.field).magnitude().values[inside]
    inv_n = 1.0 / cfg.n if cfg.n is not None else 1.0
    lhs_full = np.sqrt(sum(g ** 2 for g in grad_tf))
    t_grad_mag = np.sqrt(sum(v ** 2 for v in t_comp))
    margin_full = lhs_full - (t_grad_mag + grad_eta_mag * t_mag) - slack
    diff = np.sqrt(sum((g - v) ** 2 for g, v in zip(grad_tf, t_comp)))
    margin_comm = diff - (grad_eta_mag * inv_n) * t_mag - slack

    worst_full = int(np.argmax(margin_full))
    worst_comm = int(np.argmax(margin_comm))
    return {
        "slack": slack,
        "violations": int((margin_full > 0).sum() + (margin_comm > 0).sum()),
        "max_margin_triangle": float(margin_full.max()),
        "worst_node_triangle": pts[worst_full].tolist(),
        "max_margin_commutator": float(margin_comm.max()),
        "worst_node_commutator": pts[worst_comm].tolist(),
    }


def composite_profile(eta1: EtaProfile, eta0: EtaProfile,
                      n: int | None) -> EtaProfile:
    """Combined step ``eta1 + eta0 / n`` used by the composite family.

    ``eta1`` vanishes on Theta = boundary + interior zero set, ``eta0`` on
    the boundary only, so the combined step is positive across the interior
    and the composite operator smooths everywhere while converging to the
    eta1 operator as n grows.
    """
    dom = eta1.domain
    if eta0.domain.shape != dom.shape:
        raise ValueError("step profiles live on different grids")
    if (eta0.theta_mask != ~dom.inside_mask).any():
        raise ValueError("eta0 must vanish exactly on the boundary only")
    if (~eta1.theta_mask & ~dom.inside_mask).any():
        raise ValueError("eta1 must vanish on the boundary")
    vals = eta1.values + (eta0.values / n if n is not None else 0.0)
    vals[~dom.inside_mask] = 0.0
    return EtaProfile(ScalarField(dom, vals), _max_gradient(dom, vals),
                      "composite", None, ~dom.inside_mask if n is not None
                      else eta1.theta_mask.copy())


def mollify_composite(f: ScalarField, eta1: EtaProfile, eta0: EtaProfile,
                      n: int | None, kernel: Kernel) -> ScalarField:
    """Smooth with step ``eta1 + eta0 / n`` (or plain eta1 when n is None)."""
    combined = composite_profile(eta1, eta0, n)
    cfg = MollifierConfig(kernel, combined)
    return mollify(f, cfg)


def psi_field(f: ScalarField, eta1: EtaProfile, eta0: EtaProfile,
              n: int | None, kernel: Kernel) -> VectorField:
    """Step-variation part of the composite gradient.

    For finite n this is the correction carried by the combined step; with
    ``n=None`` it is the limiting field, which vanishes identically on the
    interior zero set of eta1.
    """
    dom = eta1.domain
    if kernel.dim != dom.dim:
        raise ValueError("kernel dim does not match domain dim")
    grad_f = gradient_central(f)

    if n is not None:
        step = (eta1.values + eta0.values / n)[dom.inside_mask]
        weights = [g1.values + g0.values / n for g1, g0 in
                   zip(gradient_central(eta1.field).components,
                       gradient_central(eta0.field).components)]
    else:
        step = eta1.values[dom.inside_mask].copy()
        weights = [g.values for g in gradient_central(eta1.field).components]

    scalar = weighted_z_dot(dom.node_coords(dom.inside_mask), step, kernel,
                            [_sample_closure(c) for c in grad_f.components],
                            [c.values[dom.inside_mask] for c in grad_f.components],
                            dom.h).zdot
    delta = eta1.theta_mask & dom.inside_mask
    out = []
    for axis in range(dom.dim):
        arr = np.zeros(dom.shape)
        arr[dom.inside_mask] = weights[axis][dom.inside_mask] * scalar
        if n is None:
            arr[delta] = 0.0
        out.append(arr)
    return VectorField.from_arrays(dom, out)


def modified_config(domain: Domain, n: int, quad_eta: EtaProfile,
                    order: int = 64) -> MollifierConfig:
    """Modified operator: plateau kernel of index n with the index-n
    quadratic step, the family whose L1 operator norms tend to one."""
    kernel = make_kernel("plateau", domain.dim, order, n=n)
    eta_n = bv_step_eta(domain, n, quad_eta)
    return MollifierConfig(kernel, eta_n, n=n, variant="modified")
