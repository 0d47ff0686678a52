"""Admissible step functions for the variable-step smoothing operator.

A step profile vanishes exactly on a closed node set Theta, is positive and
strictly below dist(., Theta) everywhere else, and carries a certified bound
on its discrete gradient.  Four builders are provided:

* ``build_whitney_eta``   -- small-slope profile below eps * dist(., Theta)
* ``regularized_distance``-- smoothed boundary distance in [(1-eps), (1+eps)] * sigma
* ``quadratic_eta``       -- profile with kappa * sigma^2 <= eta <= sigma^2
* ``calibrated_eta``      -- profile matched to a bound field via its modulus
                             of continuity

Each builder averages a distance with ``variable_step_average``.  On box and
ball domains the boundary distance is sampled in closed form (``SigmaSample``)
wherever the builder averages it: in ``regularized_distance`` and
``bv_step_eta``, and in the first of Whitney's two passes when Theta is the
boundary alone.  Whitney's second pass averages the first pass's node output,
and a Theta with interior (delta) nodes makes dist(., Theta) a field known
only at the nodes, so those passes, and every average on a mask domain,
sample the multilinear interpolant of a node array (``GridSample``).

Certificates are asserted on every node; a failed certificate raises.  The
modulus of continuity is ``estimate_modulus(alpha, reach)``, exact on the
grid over ``[0, reach]``: never below the largest node-pair difference at
any distance up to ``reach``.  ``calibrated_eta`` reads it up to the largest
step of its Whitney base, which it builds on the bound's zero set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sampling import GridSample, SigmaSample, variable_step_average
from .grid import Domain, ScalarField, distance_field, gradient_central
from .kernels import Kernel, make_kernel

__all__ = [
    "EtaProfile",
    "ModulusOfContinuity",
    "CertificationError",
    "build_whitney_eta",
    "regularized_distance",
    "quadratic_eta",
    "estimate_modulus",
    "calibrated_eta",
    "bv_step_eta",
]

CLAMP = 1.0 - 1e-6  # strictness margin keeping eta below its dominating field


class CertificationError(RuntimeError):
    """A builder's certified bound failed at some node."""


@dataclass
class EtaProfile:
    """A step function together with its certified properties."""

    field: ScalarField
    grad_bound: float
    decay: str  # linear | quadratic | calibrated | whitney
    kappa: float | None
    theta_mask: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def domain(self) -> Domain:
        return self.field.domain

    def theta_distance(self) -> np.ndarray:
        """dist(., Theta) at every node, negative outside the domain."""
        dom = self.domain
        return distance_field(dom.with_delta(self.theta_mask & dom.inside_mask), "theta").values

    def check_invariants(self) -> None:
        """Zero set, positivity, and strict domination by dist(., Theta)."""
        dom = self.domain
        vals = self.values
        if (vals[self.theta_mask] != 0.0).any():
            raise CertificationError("eta not exactly zero on Theta")
        off = dom.inside_mask & ~self.theta_mask
        if (vals[off] <= 0.0).any():
            raise CertificationError("eta not positive off Theta")
        dist = self.theta_distance()
        if (vals[off] >= dist[off]).any():
            raise CertificationError("eta >= dist(., Theta) at some node")


def _max_gradient(domain: Domain, values: np.ndarray) -> float:
    g = gradient_central(ScalarField(domain, values))
    return float(g.magnitude().values[domain.inside_mask].max())


_SMOOTH_ORDER = {1: 64, 2: 24, 3: 8}


def _sigma_sample(domain: Domain, sigma: np.ndarray) -> GridSample | SigmaSample:
    """The boundary distance the builders average: closed form on box and
    ball domains, and on a mask domain the interpolant of node ``sigma``, the
    field they certify against.  Whitney's first pass takes it when Theta is
    the boundary; ``regularized_distance`` and ``bv_step_eta`` always do."""
    if domain.kind == "mask":
        return GridSample(domain, sigma)
    return SigmaSample(domain)


def build_whitney_eta(domain: Domain, theta_mask: np.ndarray | None = None,
                      epsilon: float = 0.25) -> EtaProfile:
    """Profile vanishing exactly on Theta with eta <= eps * dist(., Theta)
    and certified discrete gradient at most eps.

    The distance field is averaged twice with a per-node radius of
    eps * dist / 2 (which stays inside the domain), clamped strictly below
    eps * dist, and rescaled so the measured gradient bound holds exactly.
    When Theta is the boundary, dist is sigma and the first pass averages
    ``_sigma_sample`` (closed form on box and ball domains, the node
    interpolant on a mask); with interior Theta nodes it averages the
    interpolant of node dist(., Theta).  The second pass always averages
    the interpolant of the first pass's node output.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if theta_mask is None:
        theta_mask = ~domain.inside_mask
    else:
        theta_mask = theta_mask.astype(bool)
        if (~theta_mask & ~domain.inside_mask).any():
            raise ValueError("Theta must contain every boundary node")
    interior = theta_mask & domain.inside_mask
    d = distance_field(domain.with_delta(interior), "theta").values
    d = np.where(interior, 0.0, d)

    kernel = make_kernel("bump", domain.dim, _SMOOTH_ORDER[domain.dim])
    pts = domain.node_coords(domain.inside_mask)
    step = np.maximum(epsilon * d[domain.inside_mask] / 2.0, 0.0)

    def smooth(sample, src: np.ndarray) -> np.ndarray:
        out = src.copy()
        out[domain.inside_mask] = variable_step_average(
            pts, step, kernel, [sample], [src[domain.inside_mask]], domain.h).values[0]
        return out

    once = smooth(GridSample(domain, d) if interior.any() else _sigma_sample(domain, d), d)
    smoothed = smooth(GridSample(domain, once), once)

    raw = np.minimum(smoothed, d * CLAMP)
    raw = np.maximum(raw, 0.0)
    raw[theta_mask] = 0.0
    g = _max_gradient(domain, raw)
    scale = epsilon / max(g * (1.0 + 1e-12), 1.0)
    values = raw * scale

    profile = EtaProfile(ScalarField(domain, values), _max_gradient(domain, values),
                         "whitney", None, theta_mask)
    profile.check_invariants()
    if profile.grad_bound > epsilon:
        raise CertificationError(
            f"whitney gradient bound {profile.grad_bound} exceeds eps={epsilon}")
    return profile


def regularized_distance(domain: Domain, epsilon: float,
                         kernel: Kernel | None = None) -> EtaProfile:
    """Smoothed boundary distance certified inside [(1-eps), (1+eps)] * sigma.

    On box and ball domains the boundary distance is sampled in closed form;
    on a mask domain node sigma is interpolated, so the sandwich is checked
    against the same field that is averaged.  The certificate is asserted at
    every inside node.
    """
    if not 1e-5 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [1e-5, 1)")
    if kernel is None:
        kernel = make_kernel("bump", domain.dim, _SMOOTH_ORDER[domain.dim])
    if not kernel.smooth:
        raise ValueError("regularized distance needs a smooth kernel (not box)")
    if kernel.dim != domain.dim:
        raise ValueError("kernel dim does not match domain dim")

    base = build_whitney_eta(domain, None, min(epsilon, 0.5))
    sigma = domain.sigma().values
    pts = domain.node_coords(domain.inside_mask)
    vals = variable_step_average(pts, base.values[domain.inside_mask], kernel,
                                 [_sigma_sample(domain, sigma)], [sigma[domain.inside_mask]],
                                 domain.h).values[0]
    vals = np.minimum(vals, sigma[domain.inside_mask] * CLAMP)

    s = sigma[domain.inside_mask]
    lo_bad = vals < (1.0 - epsilon) * s
    hi_bad = vals > (1.0 + epsilon) * s
    if lo_bad.any() or hi_bad.any():
        bad = lo_bad | hi_bad
        k = int(np.argmax(np.abs(vals - s) / s * bad))
        raise CertificationError(
            f"regularized distance outside [(1-eps),(1+eps)]*sigma at node "
            f"{pts[k]}: value {vals[k]}, sigma {s[k]}, eps {epsilon}")

    out = np.zeros(domain.shape)
    out[domain.inside_mask] = vals
    profile = EtaProfile(ScalarField(domain, out), _max_gradient(domain, out),
                         "linear", None, ~domain.inside_mask)
    profile.check_invariants()
    return profile


def quadratic_eta(domain: Domain, epsilon: float,
                  kernel: Kernel | None = None) -> EtaProfile:
    """Profile with certified kappa * sigma^2 <= eta <= sigma^2,
    kappa = ((1-eps)/(1+eps))^2.  Requires max sigma < 1 so that the
    quadratic profile stays an admissible step."""
    sigma = domain.sigma().values
    if sigma[domain.inside_mask].max() >= 1.0:
        raise ValueError("quadratic step needs max boundary distance < 1; rescale first")
    reg = regularized_distance(domain, epsilon, kernel)
    t = reg.values / (1.0 + epsilon)
    values = t * t
    kappa = ((1.0 - epsilon) / (1.0 + epsilon)) ** 2

    s = sigma[domain.inside_mask]
    v = values[domain.inside_mask]
    if (v < kappa * (s * s)).any() or (v > s * s).any():
        bad = (v < kappa * (s * s)) | (v > s * s)
        k = int(np.argmax(bad))
        raise CertificationError(
            f"quadratic certificate failed at inside node #{k}: "
            f"eta {v[k]}, sigma^2 {s[k]**2}, kappa {kappa}")

    profile = EtaProfile(ScalarField(domain, values), _max_gradient(domain, values),
                         "quadratic", kappa, ~domain.inside_mask)
    profile.check_invariants()
    return profile


def bv_step_eta(domain: Domain, n: int, quad_eta: EtaProfile,
                kernel: Kernel | None = None) -> EtaProfile:
    """Index-n quadratic profile for the modified operator family, certified
    to satisfy (1 - sigma/n)^2 sigma^2 <= eta_n <= sigma^2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if quad_eta.decay != "quadratic":
        raise ValueError("bv_step_eta needs a quadratic base profile")
    if kernel is None:
        kernel = make_kernel("bump", domain.dim, _SMOOTH_ORDER[domain.dim])
    sigma = domain.sigma().values
    pts = domain.node_coords(domain.inside_mask)
    step = quad_eta.values[domain.inside_mask] / n
    vals = variable_step_average(pts, step, kernel, [_sigma_sample(domain, sigma)],
                                 [sigma[domain.inside_mask]], domain.h).values[0]
    s = sigma[domain.inside_mask]
    vals = np.minimum(vals, s)
    sq = vals * vals

    lower = (s * (1.0 - s / n)) ** 2
    if (sq < lower).any() or (sq > s * s).any():
        bad = (sq < lower) | (sq > s * s)
        k = int(np.argmax(bad))
        raise CertificationError(
            f"modified-step certificate failed at inside node #{k}: "
            f"eta_n {sq[k]} not in [{lower[k]}, {s[k]**2}]")

    out = np.zeros(domain.shape)
    out[domain.inside_mask] = sq * CLAMP
    kappa = float((1.0 - s.max() / n) ** 2)
    profile = EtaProfile(ScalarField(domain, out), _max_gradient(domain, out),
                         "quadratic", kappa, ~domain.inside_mask)
    profile.check_invariants()
    return profile


# ---------------------------------------------------------------------- #
# modulus of continuity


@dataclass
class ModulusOfContinuity:
    """Nondecreasing piecewise-linear modulus with a monotone inverse.

    A strictly increasing floor of slope 1e-12 keeps the inverse well
    defined even for locally flat (e.g. constant-bound) data.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots[0] != 0.0 or self.values[0] != 0.0:
            raise ValueError("modulus must start at (0, 0)")
        if (np.diff(self.knots) <= 0).any() or (np.diff(self.values) <= 0).any():
            raise ValueError("modulus knots and values must be strictly increasing")

    def __call__(self, t) -> np.ndarray:
        return _continued(t, self.knots, self.values)

    def inverse(self, v) -> np.ndarray:
        return _continued(v, self.values, self.knots)


def _continued(x, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The piecewise-linear map through ``(xs, ys)`` at ``x``, continued
    beyond the last knot along the last segment.  A one-knot modulus has no
    segment, so it is defined only at its knot."""
    x = np.asarray(x, dtype=float)
    out = np.interp(x, xs, ys)
    beyond = x > xs[-1]
    if beyond.any():
        if len(xs) < 2:
            raise ValueError(f"one-knot modulus: {float(np.max(x))} lies beyond its only "
                             f"knot {xs[-1]}")
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(beyond, ys[-1] + slope * (x - xs[-1]), out)
    return out


FLOOR_SLOPE = 1e-12


def estimate_modulus(alpha: ScalarField, reach: float) -> ModulusOfContinuity:
    """Exact modulus of continuity of a grid field on ``[0, reach]``.

    For each integer node offset ``o`` with ``|o * spacing| <= reach`` (one
    of ``o`` and ``-o``), one slice difference of the value array gives the
    largest ``|alpha(x + o) - alpha(x)|`` over all grid nodes.  The knots are
    0, every distinct offset distance and ``reach``; a knot's value is the
    running max over the distances up to it plus the floor ``FLOOR_SLOPE *
    t``, raised to one ulp above the previous value where the floor does not
    show.  No node pair lies between two knots, so omega is at least the
    discrete modulus on ``[0, reach]`` and equals it (plus the floor) at the
    knots; beyond ``reach`` it is an extrapolation, not a bound.
    """
    if not 0.0 <= reach < np.inf:
        raise ValueError(f"modulus reach must be finite and at least 0, got {reach}")
    dom = alpha.domain
    vals = alpha.values
    spans = [min(int(reach / h) + 1, n - 1) for h, n in zip(dom.spacing, dom.shape)]
    offsets = np.indices([2 * m + 1 for m in spans]).reshape(dom.dim, -1).T - spans
    offsets = offsets[len(offsets) // 2 + 1:]  # lexicographic: one of each +-o, no 0
    dist = np.sqrt(((offsets * dom.spacing) ** 2).sum(axis=1))
    offsets, dist = offsets[dist <= reach], dist[dist <= reach]

    def diff_max(o) -> float:
        lo = tuple(slice(max(-c, 0), n - max(c, 0)) for c, n in zip(o, dom.shape))
        hi = tuple(slice(max(c, 0), n + min(c, 0)) for c, n in zip(o, dom.shape))
        return float(np.abs(vals[hi] - vals[lo]).max())

    knots, at = np.unique(np.concatenate([[0.0], dist, [reach]]), return_inverse=True)
    peak = np.zeros(len(knots))
    np.maximum.at(peak, at, [0.0] + [diff_max(o) for o in offsets] + [0.0])
    values = np.maximum.accumulate(peak) + FLOOR_SLOPE * knots
    for k in range(1, len(values)):
        values[k] = max(values[k], np.nextafter(values[k - 1], np.inf))
    return ModulusOfContinuity(knots, values)


def calibrated_eta(alpha: ScalarField, epsilon: float = 0.25) -> EtaProfile:
    """Step profile small enough that omega(eta) <= alpha * eta0 pointwise.

    The base is ``build_whitney_eta`` with slope ``epsilon`` on Theta =
    boundary + alpha's exact zero set, and omega is alpha's exact modulus up
    to the base's largest step; ``eta0`` is the base rescaled to at most 1.
    The result is also dominated by the base and vanishes exactly on Theta.
    """
    domain = alpha.domain
    if (alpha.values[domain.inside_mask] < 0.0).any():
        raise ValueError("bound field must be nonnegative")
    base = build_whitney_eta(domain, ~domain.inside_mask | (alpha.values == 0.0), epsilon)
    top = float(base.values.max())
    modulus = estimate_modulus(alpha, top)
    eta0 = base.values / max(1.0, top)
    target = alpha.values * eta0
    values = np.minimum(base.values, modulus.inverse(target) * CLAMP)
    values[base.theta_mask] = 0.0
    values = np.maximum(values, 0.0)

    check = modulus(values[domain.inside_mask]) - target[domain.inside_mask]
    if (check > 0.0).any():
        k = int(np.argmax(check))
        raise CertificationError(
            f"calibration failed: omega(eta) exceeds alpha*eta0 by {check[k]}")

    profile = EtaProfile(ScalarField(domain, values), _max_gradient(domain, values),
                         "calibrated", None, base.theta_mask)
    profile.check_invariants()
    return profile
