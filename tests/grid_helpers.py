"""Measurements of grids and kernels that only the tests read."""

import numpy as np

from mollikit.grid import ScalarField
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
