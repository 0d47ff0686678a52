"""All-pairs nearest-point distances, the reference for the library's
distance layer.

``sqrt(min_j sum_a (x_a - p_ja)^2)`` per query point, squares summed in axis
order: the same arithmetic the library's KD-tree query performs, so the two
must agree bit for bit.
"""

import numpy as np

_CHUNK = 1 << 18


def nearest_distance(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distance from each of ``points`` (M, N) to the nearest of ``targets``."""
    out = np.empty(len(points))
    step = max(1, _CHUNK // len(targets))
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        d2 = ((chunk[:, None, :] - targets[None, :, :]) ** 2).sum(-1)
        out[start:start + len(chunk)] = np.sqrt(d2.min(axis=1))
    return out


def mask_sigma(dom) -> np.ndarray:
    """Unsigned distance from every node of a mask domain to its boundary
    face midpoints."""
    nodes = dom.node_coords(np.ones(dom.shape, dtype=bool))
    return nearest_distance(nodes, dom.boundary_face_midpoints()).reshape(dom.shape)
