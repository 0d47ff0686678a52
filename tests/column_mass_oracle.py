"""Brute-force L1 column mass, the reference for ``analysis._column_mass``.

For each probe y, every point x of the refined midpoint lattice is tested
against its own ball, ``|x - y|^2 < s(x)^2``, and the contributions
``C(x) rho(|x - y|^2 / s(x)^2)`` are summed in lattice order with one
``ndarray.sum``.  The library sums the same terms in another order, so the
two agree to rounding, not bit for bit.
"""

import numpy as np

from mollikit.kernels import profile_value


def column_mass(dom, eta_values, n, kernel, probes, probe_steps, refine=4):
    h = dom.h
    axes = []
    for (lo, hi), m in zip(dom.bbox, dom.shape):
        cells = (m - 1) * refine
        axes.append(lo + (np.arange(cells) + 0.5) * (hi - lo) / cells)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    s = dom.interpolate(eta_values, pts) / n
    resolved = s >= h
    pts, s = pts[resolved], s[resolved]
    c = kernel.m_rho / s ** dom.dim
    cellvol = dom.cell_volume / refine ** dom.dim

    out = np.empty(len(probes))
    for k, (y, step) in enumerate(zip(probes, probe_steps)):
        d2 = ((pts - y) ** 2).sum(axis=1)
        m = d2 < s ** 2
        r2 = d2[m] / (s[m] * s[m])
        col = cellvol * float((c[m] * profile_value(kernel.profile, r2, kernel.n)).sum())
        out[k] = (1.0 if step < h else 0.0) + col
    return out
