"""Admissible step functions for the variable-step smoothing operator.

A step profile vanishes exactly on a closed node set Theta, is positive and
strictly below dist(., Theta) everywhere else, and carries a certified bound
on its discrete gradient.  Four builders are provided:

* ``build_whitney_eta``   -- small-slope profile below eps * dist(., Theta)
* ``regularized_distance``-- smoothed boundary distance in [(1-eps), (1+eps)] * sigma
* ``quadratic_eta``       -- profile with kappa * sigma^2 <= eta <= sigma^2
* ``calibrated_eta``      -- profile matched to a bound field via its modulus
                             of continuity

Certificates are asserted on every node; a failed certificate raises.
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


def build_whitney_eta(domain: Domain, theta_mask: np.ndarray | None = None,
                      epsilon: float = 0.25) -> EtaProfile:
    """Profile vanishing exactly on Theta with eta <= eps * dist(., Theta)
    and certified discrete gradient at most eps.

    The distance field is averaged twice with a per-node radius of
    eps * dist / 2 (which stays inside the domain), clamped strictly below
    eps * dist, and rescaled so the measured gradient bound holds exactly.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if theta_mask is None:
        theta_mask = ~domain.inside_mask
    else:
        theta_mask = theta_mask.astype(bool)
        if (~theta_mask & ~domain.inside_mask).any():
            raise ValueError("Theta must contain every boundary node")
    d = distance_field(domain.with_delta(theta_mask & domain.inside_mask), "theta").values
    d = np.where(theta_mask & domain.inside_mask, 0.0, d)

    kernel = make_kernel("bump", domain.dim, _SMOOTH_ORDER[domain.dim])
    pts = domain.node_coords(domain.inside_mask)
    step = np.maximum(epsilon * d[domain.inside_mask] / 2.0, 0.0)

    smoothed = d.copy()
    for _ in range(2):
        src = smoothed
        smoothed = smoothed.copy()
        smoothed[domain.inside_mask] = variable_step_average(
            pts, step, kernel, [GridSample(domain, src)], [src[domain.inside_mask]],
            domain.h).values[0]

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

    The boundary distance is sampled in closed form (never interpolated), so
    the sandwich certificate holds at every inside node without grid slack.
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
                                 [SigmaSample(domain)], [sigma[domain.inside_mask]],
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
    vals = variable_step_average(pts, step, kernel, [SigmaSample(domain)],
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
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.knots, self.values)
        beyond = t > self.knots[-1]
        if beyond.any():
            slope = (self.values[-1] - self.values[-2]) / (self.knots[-1] - self.knots[-2])
            out = np.where(beyond, self.values[-1] + slope * (t - self.knots[-1]), out)
        return out

    def inverse(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        out = np.interp(v, self.values, self.knots)
        beyond = v > self.values[-1]
        if beyond.any():
            slope = (self.knots[-1] - self.knots[-2]) / (self.values[-1] - self.values[-2])
            out = np.where(beyond, self.knots[-1] + slope * (v - self.values[-1]), out)
        return out


FLOOR_SLOPE = 1e-12
_ALL_PAIR_NODE_LIMIT = 2048
_SAMPLED_PAIRS = 200_000


def estimate_modulus(alpha: ScalarField, bins: int = 32, seed: int = 0) -> ModulusOfContinuity:
    """Empirical modulus of continuity of a continuous bound field.

    Bins node-pair distances, takes the running max of |alpha(x) - alpha(y)|
    per bin, and adds the strictly increasing floor.  All pairs are used on
    small grids; large grids fall back to seeded sampling plus every
    axis-adjacent pair (which pins the local Lipschitz behaviour).
    """
    if bins < 8:
        raise ValueError("need at least 8 bins")
    dom = alpha.domain
    coords = dom.node_coords(np.ones(dom.shape, dtype=bool))
    vals = alpha.values.reshape(-1)
    m = len(vals)
    if m <= _ALL_PAIR_NODE_LIMIT:
        ii, jj = np.triu_indices(m, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, m, _SAMPLED_PAIRS)
        jj = rng.integers(0, m, _SAMPLED_PAIRS)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        adj_i, adj_j = [], []
        flat = np.arange(m).reshape(dom.shape)
        for axis in range(dom.dim):
            lo = [slice(None)] * dom.dim
            hi = [slice(None)] * dom.dim
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            adj_i.append(flat[tuple(lo)].reshape(-1))
            adj_j.append(flat[tuple(hi)].reshape(-1))
        ii = np.concatenate([ii] + adj_i)
        jj = np.concatenate([jj] + adj_j)
    dist = np.sqrt(((coords[ii] - coords[jj]) ** 2).sum(axis=1))
    diff = np.abs(vals[ii] - vals[jj])

    tmax = float(dist.max())
    edges = np.linspace(0.0, tmax, bins + 1)
    idx = np.clip(np.searchsorted(edges, dist, side="left") - 1, 0, bins - 1)
    binmax = np.zeros(bins)
    np.maximum.at(binmax, idx, diff)
    running = np.maximum.accumulate(binmax)

    knots = np.concatenate([[0.0], edges[1:]])
    values = np.concatenate([[0.0], running]) + FLOOR_SLOPE * knots
    return ModulusOfContinuity(knots, values)


def calibrated_eta(domain: Domain, alpha: ScalarField,
                   modulus: ModulusOfContinuity, base: EtaProfile) -> EtaProfile:
    """Step profile small enough that omega(eta) <= alpha * eta0 pointwise.

    ``base`` must be a profile vanishing on Theta = boundary + alpha's exact
    zero set; ``eta0`` is that profile rescaled to at most 1.  The result is
    also dominated by ``base`` and vanishes exactly on Theta.
    """
    zeros = (alpha.values == 0.0) & domain.inside_mask
    if (zeros & ~base.theta_mask).any():
        raise ValueError("base profile must vanish on the zero set of alpha")
    if (alpha.values[domain.inside_mask] < 0.0).any():
        raise ValueError("bound field must be nonnegative")

    eta0 = base.values / max(1.0, float(base.values.max()))
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
                         "calibrated", None, base.theta_mask.copy())
    profile.check_invariants()
    return profile
