"""Measurements of grids and kernels that only the tests read."""

import numpy as np

from mollikit.grid import Domain, ScalarField
from mollikit.kernels import Kernel


def second_differences(f: ScalarField) -> np.ndarray:
    """Max over axes of |undivided second central difference| per node."""
    out = np.zeros(f.domain.shape)
    for axis in range(f.domain.dim):
        d2 = np.zeros(f.domain.shape)
        mid = [slice(1, -1)] * f.domain.dim
        lo = [slice(None, -2)] * f.domain.dim
        hi = [slice(2, None)] * f.domain.dim
        for sl in (mid, lo, hi):
            for a in range(f.domain.dim):
                if a != axis:
                    sl[a] = slice(None)
        d2[tuple(mid)] = np.abs(f.values[tuple(hi)] - 2.0 * f.values[tuple(mid)]
                                + f.values[tuple(lo)])
        out = np.maximum(out, d2)
    return out


def support_radius(kernel: Kernel) -> float:
    """Largest |z_k| over the retained quadrature nodes (< 1)."""
    return float(np.sqrt((kernel.nodes ** 2).sum(axis=1)).max())


def boundary_shell(domain: Domain, width: float) -> np.ndarray:
    """Boolean mask of inside nodes within ``width`` of the boundary."""
    if width <= 0:
        raise ValueError("shell width must be positive")
    sigma = domain.sigma()
    return domain.inside_mask & (sigma.values <= width)


def kernel_moment(kernel: Kernel, multi_index) -> float:
    """Sum_k w_k rho(z_k) z_k^multi_index, with exact odd-degree cancellation.

    Paired nodes are summed pair-first, so terms that are exact negations
    annihilate before any global accumulation can leave round-off behind.
    """
    mi = np.atleast_1d(np.asarray(multi_index, dtype=int))
    if len(mi) != kernel.dim:
        raise ValueError("multi-index length must match kernel dim")
    if mi.sum() > 4:
        raise ValueError("moment degree above 4 unsupported")
    # repeated multiplication keeps the +/- pair terms exactly antisymmetric
    powers = np.ones(len(kernel.nodes))
    for axis, p in enumerate(mi):
        for _ in range(int(p)):
            powers = powers * kernel.nodes[:, axis]
    terms = kernel.weights * kernel.rho_values * powers
    pc = kernel.paired_count
    paired = terms[:pc].reshape(-1, 2).sum(axis=1)
    return float(np.sum(paired) + terms[pc:].sum())
