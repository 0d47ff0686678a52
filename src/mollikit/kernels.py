"""Radial kernel profiles with symmetric unit-ball quadrature.

The quadrature is a midpoint rule on a uniform tensor lattice restricted to
the open unit ball.  Nodes are stored as exact +/- pairs (pair members are
bitwise negations of each other) so that odd-moment sums cancel exactly in
floating point; an optional unpaired origin node sits at the end.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import _check_keys, _exact_int, _spec_value

__all__ = ["Kernel", "make_kernel", "unit_ball_volume", "kernel_from_json"]

PROFILES = ("bump", "box", "plateau")


def unit_ball_volume(dim: int) -> float:
    """omega_N, hard-coded for the supported dimensions."""
    return {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[dim]


def _bridge(t: np.ndarray) -> np.ndarray:
    """Smooth monotone 0-to-1 step on [0, 1], flat to all orders at the ends."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def profile_value(profile: str, r2: np.ndarray, n: int | None = None) -> np.ndarray:
    """Radial profile as a function of |x|^2."""
    r2 = np.asarray(r2, dtype=float)
    if profile == "bump":
        inside = r2 < 1.0
        safe = np.where(inside, 1.0 - r2, 1.0)
        return np.where(inside, np.exp(-1.0 / safe), 0.0)
    if profile == "box":
        return (r2 < 1.0).astype(float)
    if profile == "plateau":
        if n is None or n < 1:
            raise ValueError("plateau profile needs a positive index n")
        r = np.sqrt(r2)
        return _bridge((1.0 - r) * n)
    raise ValueError(f"unknown profile {profile!r}")


@dataclass
class Kernel:
    """Quadrature-backed radial kernel on the unit ball.

    ``nodes[2i]`` and ``nodes[2i+1]`` (for ``i < paired_count/2``) are exact
    negations with equal weights; ``coeffs`` are the mollification weights
    ``m_rho * w_k * rho(z_k)`` and sum to 1 up to round-off.
    """

    profile: str
    dim: int
    order: int
    n: int | None
    nodes: np.ndarray
    weights: np.ndarray
    rho_values: np.ndarray
    paired_count: int
    m_rho: float = field(init=False)
    coeffs: np.ndarray = field(init=False)

    def __post_init__(self):
        mass = float(np.sum(self.weights * self.rho_values))
        if mass <= 0.0:
            raise ValueError("kernel quadrature has zero mass")
        self.m_rho = 1.0 / mass
        self.coeffs = self.m_rho * self.weights * self.rho_values

    @property
    def smooth(self) -> bool:
        return self.profile != "box"


def make_kernel(profile: str, dim: int, order: int, n: int | None = None) -> Kernel:
    """Midpoint-rule kernel on the symmetric lattice of spacing 2/order.

    Lattice centers are generated as mirrored halves so each node has a
    bitwise-exact negation partner; nodes where the profile vanishes are
    dropped (the retained set is still symmetric since rho is radial).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dim {dim}")
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    spacing = 2.0 / order
    neg = np.array([(i + 0.5) * spacing - 1.0 for i in range(order // 2)])
    if order % 2:
        centers = np.concatenate([neg, [0.0], -neg[::-1]])
    else:
        centers = np.concatenate([neg, -neg[::-1]])

    axes = np.meshgrid(*([centers] * dim), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in axes], axis=-1)
    r2 = (pts ** 2).sum(axis=1)
    rho = profile_value(profile, r2, n)
    keep = rho > 0.0

    # Pair each lattice node with its mirror (index order-1-i per axis).
    flat = np.arange(order ** dim).reshape((order,) * dim)
    mirror = flat[tuple(slice(None, None, -1) for _ in range(dim))].reshape(-1)
    order_idx: list[int] = []
    center_idx: int | None = None
    for a in np.flatnonzero(keep):
        b = int(mirror[a])
        if a < b:
            order_idx.extend((int(a), b))
        elif a == b:
            center_idx = int(a)
    paired_count = len(order_idx)
    if center_idx is not None:
        order_idx.append(center_idx)
    idx = np.array(order_idx, dtype=np.int64)

    nodes = pts[idx]
    weights = np.full(len(idx), spacing ** dim)
    return Kernel(profile, dim, order, n, nodes, weights, rho[idx], paired_count)


def kernel_from_json(spec) -> Kernel:
    """Kernel from a JSON spec {"profile", "order", "n"?, "dim"?}."""
    if isinstance(spec, str):
        spec = json.loads(spec)
    _check_keys(spec, ("profile", "order", "n", "dim"))
    return make_kernel(_spec_value(spec, "profile", str), _spec_value(spec, "dim", _exact_int, 1),
                       _spec_value(spec, "order", _exact_int),
                       _spec_value(spec, "n", lambda n: None if n is None else _exact_int(n), None))
