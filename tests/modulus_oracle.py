"""Reference modulus of continuity for ``eta.estimate_modulus``.

Every pair of grid nodes is visited (rows in chunks, to bound memory).  A
pair's distance is taken from its index offset, ``sqrt(sum_a (o_a h_a)^2)``
with the squares summed in axis order, and its difference is ``|alpha_i -
alpha_j|``: the arithmetic the library performs per offset, so the two agree
bit for bit.
"""

import numpy as np

_CHUNK = 1 << 20


def discrete_modulus(alpha, reach: float):
    """Sorted pair distances up to ``reach`` and the running max of the
    pair differences over them: the discrete modulus at ``t`` is the running
    max at the last distance ``<= t`` (0 below the first)."""
    dom = alpha.domain
    idx = np.indices(dom.shape).reshape(dom.dim, -1)
    # (o h_a)^2 for every index offset o along each axis, looked up by o + n - 1
    squares = [(np.arange(1 - n, n) * h) ** 2 for n, h in zip(dom.shape, dom.spacing)]
    vals = alpha.values.reshape(-1)
    m = len(vals)
    dists, diffs = [], []
    rows = max(1, _CHUNK // m)
    for start in range(0, m, rows):
        ii = np.arange(start, min(start + rows, m))
        jj = np.arange(start + 1, m)  # pairs i < j only
        d2 = sum(sq[ax[jj][None, :] - ax[ii, None] + n - 1]
                 for sq, ax, n in zip(squares, idx, dom.shape))
        dist = np.sqrt(d2)
        near = (dist <= reach) & (jj[None, :] > ii[:, None])
        row, col = np.nonzero(near)
        dists.append(dist[near])
        diffs.append(np.abs(vals[ii[row]] - vals[jj[col]]))
    dist = np.concatenate(dists)
    order = np.argsort(dist, kind="stable")
    return dist[order], np.maximum.accumulate(np.concatenate(diffs)[order])


def modulus_at(dist: np.ndarray, running: np.ndarray, t) -> np.ndarray:
    """The discrete modulus ``max {|alpha_i - alpha_j| : |x_i - x_j| <= t}``."""
    k = np.searchsorted(dist, t, side="right")
    return np.concatenate([[0.0], running])[k]
