"""Reference distances for the library's distance layer.

Mask domains: all-pairs nearest-point distances to the boundary face
midpoints, ``sqrt(min_j sum_a (x_a - p_ja)^2)`` per query point, squares
summed in axis order: the same arithmetic the library's KD-tree query
performs, so the two must agree bit for bit.  Box and ball domains: the
closed forms, evaluated one axis array at a time.
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


def closed_form_distance(dom, coords) -> np.ndarray:
    """Signed distance to the boundary of a box or ball domain at points
    given as one coordinate array per axis; positive inside."""
    if dom.kind == "box":
        out = None
        for x, (lo, hi) in zip(coords, dom.bbox):
            d = np.minimum(x - lo, hi - x)
            out = d if out is None else np.minimum(out, d)
        return out
    center = [(lo + hi) / 2.0 for lo, hi in dom.bbox]
    radius = min((hi - lo) / 2.0 for lo, hi in dom.bbox)
    return radius - np.sqrt(sum((x - c) ** 2 for x, c in zip(coords, center)))


def sigma_at(dom, points: np.ndarray) -> np.ndarray:
    """Boundary distance at (M, N) points: unsigned for masks, signed for
    box and ball domains."""
    if dom.kind == "mask":
        return nearest_distance(points, dom.boundary_face_midpoints())
    return closed_form_distance(dom, list(points.T))


def node_sigma(dom) -> np.ndarray:
    """Signed boundary distance at every node, negative outside.  The
    bbox-face nodes a ball leaves out lie on its sphere: 0 there."""
    if dom.kind == "mask":
        dist = mask_sigma(dom)
        return np.where(dom.inside_mask, dist, -dist)
    dist = closed_form_distance(dom, dom.node_grids())
    return np.where(dom.inside_mask | (dist <= 0.0), dist, 0.0)
