"""Bounded grid domains, distance-to-boundary fields, and sampled fields.

Domains are open bounded regions of R^N (N = 1, 2, 3) represented on uniform
Cartesian vertex grids.  Box and ball domains carry exact closed-form distance
functions.  Arbitrary regions are given by an inside mask; their boundary is
the set of midpoints of the grid faces that separate inside from outside
nodes.

Box and ball distances separate by axis, in two halves that the sampling
sweep shares: ``Domain._sigma_axis`` maps an axis coordinate ``c`` to
``min(c - lo, hi - c)`` (box) or ``(c - center)^2`` (ball), and
``Domain._sigma_combine`` takes the minimum of a point's terms (box) or
``radius - sqrt`` of their sum in axis order (ball).  ``sigma_at`` is made of
these halves, and sigma at the nodes and the inside test of a ball go
through ``sigma_at``, so each distance has one definition.

Every mask distance (sigma at the nodes, ``sigma_at`` off the grid, and the
distance to an interior delta set) goes through one nearest-point query, a
KD-tree over the target points.  It returns ``sqrt(min_j sum_a (x_a - p_ja)^2)``
with the squares summed in axis order, so its bits are those of the plain
all-pairs minimum.  The tree over the boundary midpoints is built once per
domain and kept.  Above ``EDT_NODE_LIMIT`` nodes, sigma at the nodes comes
from a Euclidean distance transform on the doubled grid instead, because the
tree slows down there; that transform is exact up to rounding but does not
match the all-pairs bits on every spacing, so it serves only those grids.
Mask distances have no halves: the step builders average node sigma on a
mask domain through interpolation, as a grid field, so within one domain
they compare sigma only with itself, whichever source computed it.

Fields are read between nodes by multilinear interpolation, in two halves
that the sampling sweep shares: ``Domain._axis_cells`` turns one axis
coordinate into its cell's flat offset and the fraction ``t - i0`` with
``t = (p - lo) / h_a``, beside the mask of coordinates outside the closed
bbox, which every caller refuses; ``Domain._blend`` reduces the 2^N cell
corners of a stack of fields as ``v0 + t (v1 - v0)``, last axis first.
What depends on the field alone is built once, by
``Domain._blend_tables``: beside the (F, nodes) stack, the last-axis
differences ``stack[:, j + 1] - stack[:, j]``.  The last axis has stride 1,
so one such table holds ``v1 - v0`` of every last-axis corner pair, and a
last-axis step is one gather from it and one from the stack at the pair's
lower corner: the subtraction a per-point gather would make, made once per
node of the grid instead of once per sample.  ``interpolate``
builds the tables per call; the sweep builds them once for all its kernel
nodes.  ``Domain._spread`` is the transpose of the blend: it scatters each
point's corner weights with ``np.bincount`` into a span of flat nodes from
a lower bound its caller gives to the last corner.  The contract is
exactness, not closeness: a value depends only on the point and the node
array, never on which other points or fields are sampled with it, and
constant data interpolates exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import product
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Domain",
    "ScalarField",
    "VectorField",
    "distance_field",
    "read_field_csv",
    "write_field_csv",
    "domain_from_json",
]

# Node count above which mask-domain sigma uses the distance transform.
EDT_NODE_LIMIT = 10**6


def _as_bbox(bbox) -> tuple[tuple[float, float], ...]:
    out = tuple((float(lo), float(hi)) for lo, hi in bbox)
    for lo, hi in out:
        if not hi > lo:
            raise ValueError(f"degenerate bbox interval ({lo}, {hi})")
    return out


@dataclass
class Domain:
    """Open bounded domain on a uniform vertex grid.

    The grid covers the closed bounding box with ``shape[i]`` nodes along
    axis i (spacing ``(hi - lo) / (shape[i] - 1)``).  ``inside_mask`` marks
    the nodes lying in the open region; nodes on the bbox faces are never
    inside.  ``delta_mask`` marks an optional closed interior node set.
    """

    kind: str
    bbox: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    inside_mask: np.ndarray
    delta_mask: np.ndarray | None = None
    _sigma_values: np.ndarray | None = field(default=None, repr=False)
    _face_tree: cKDTree | None = field(default=None, repr=False)

    def __post_init__(self):
        self.bbox = _as_bbox(self.bbox)
        self.shape = tuple(int(n) for n in self.shape)
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim {self.dim} unsupported (need 1, 2 or 3)")
        if len(self.bbox) != self.dim:
            raise ValueError(f"bbox has {len(self.bbox)} intervals, grid has {self.dim} axes")
        if any(n < 3 for n in self.shape):
            raise ValueError("need at least 3 nodes per axis")
        if self.inside_mask.shape != self.shape:
            raise ValueError("inside_mask shape mismatch")
        if not self.inside_mask.any():
            raise ValueError("empty domain: no inside nodes")
        for axis in range(self.dim):
            for idx in (0, -1):
                face = np.take(self.inside_mask, idx, axis=axis)
                if face.any():
                    raise ValueError("inside nodes on bbox face: domain must be open")
        if self.delta_mask is not None:
            if self.delta_mask.shape != self.shape:
                raise ValueError("delta_mask shape mismatch")
            if (self.delta_mask & ~self.inside_mask).any():
                raise ValueError("delta nodes must be interior")

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def box(cls, bbox, resolution) -> "Domain":
        bbox = _as_bbox(bbox)
        shape = _resolution_tuple(resolution, len(bbox))
        return cls("box", bbox, shape, _off_faces(shape))

    @classmethod
    def ball(cls, bbox, resolution) -> "Domain":
        """The ball inscribed in the bbox, centred in it.

        Nodes on the bbox faces are left out: where the sphere touches a
        face, rounding can put the touching node a hair inside it."""
        bbox = _as_bbox(bbox)
        shape = _resolution_tuple(resolution, len(bbox))
        dom = cls("ball", bbox, shape, _off_faces(shape))
        inside = dom.sigma_at(dom.node_coords(np.ones(shape, dtype=bool))).reshape(shape) > 0.0
        return replace(dom, inside_mask=inside & dom.inside_mask)

    @classmethod
    def from_mask(cls, bbox, inside_mask) -> "Domain":
        return cls("mask", _as_bbox(bbox), inside_mask.shape, inside_mask.astype(bool))

    def with_delta(self, delta_mask: np.ndarray) -> "Domain":
        """Copy of the domain with a closed interior zero-set attached.

        Copies made here keep the boundary distances already computed, which
        do not depend on the delta set."""
        return replace(self, delta_mask=delta_mask.astype(bool))

    # ------------------------------------------------------------------ #
    # grid geometry

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def lo(self) -> np.ndarray:
        return np.array([b[0] for b in self.bbox])

    @property
    def hi(self) -> np.ndarray:
        return np.array([b[1] for b in self.bbox])

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / (n - 1) for (lo, hi), n in zip(self.bbox, self.shape)])

    @property
    def h(self) -> float:
        """Coarsest grid spacing; the subgrid-step threshold."""
        return float(self.spacing.max())

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, hi = self.bbox[axis]
        return np.linspace(lo, hi, self.shape[axis])

    def node_grids(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis_coords(a) for a in range(self.dim)], indexing="ij")

    def node_coords(self, mask: np.ndarray | None = None) -> np.ndarray:
        """(M, N) coordinates of the masked nodes (default: inside nodes)."""
        if mask is None:
            mask = self.inside_mask
        grids = self.node_grids()
        return np.stack([g[mask] for g in grids], axis=-1)

    @property
    def theta_mask(self) -> np.ndarray:
        """Closed zero-set Theta: boundary nodes plus the delta set."""
        theta = ~self.inside_mask
        if self.delta_mask is not None:
            theta = theta | self.delta_mask
        return theta

    # ------------------------------------------------------------------ #
    # distances

    def sigma(self) -> "ScalarField":
        """Distance to the domain boundary at the nodes, cached; negative
        outside.

        On a mask domain of more than ``EDT_NODE_LIMIT`` nodes it comes
        from the distance transform on the doubled grid, not from
        ``sigma_at``'s tree, and can differ from ``sigma_at`` at a node in
        the last bits (by up to 3.0e-16 on a 1001^2 disk).  The step
        builders average and certify against this node sigma only."""
        if self._sigma_values is None:
            self._sigma_values = self._compute_sigma()
        return ScalarField(self, self._sigma_values.copy())

    def _compute_sigma(self) -> np.ndarray:
        if self.kind == "mask" and np.prod(self.shape) > EDT_NODE_LIMIT:
            dist = self._mask_sigma_edt()
        else:
            dist = self.sigma_at(self.node_coords(np.ones(self.shape, dtype=bool)))
            dist = dist.reshape(self.shape)
        if self.kind == "mask":
            return np.where(self.inside_mask, dist, -dist)
        # box and ball distances are signed; the bbox-face nodes a ball
        # leaves out lie on its sphere
        return np.where(self.inside_mask, dist, np.minimum(dist, 0.0))

    def _boundary_tree(self) -> cKDTree:
        if self._face_tree is None:
            self._face_tree = cKDTree(self.boundary_face_midpoints())
        return self._face_tree

    def _crossing_faces(self) -> list[np.ndarray]:
        """The boundary of a mask domain: per axis, the mask over the lower
        node of each pair of neighbours along that axis that lie on opposite
        sides of the boundary (one inside, one outside)."""
        return [np.diff(self.inside_mask, axis=axis) for axis in range(self.dim)]

    def boundary_face_midpoints(self) -> np.ndarray:
        """Midpoints of grid faces separating inside from outside nodes."""
        mids = []
        half = self.spacing / 2.0
        for axis, crossing in enumerate(self._crossing_faces()):
            if not crossing.any():
                continue
            lower = np.nonzero(crossing)
            pts = np.stack([self.axis_coords(a)[i] for a, i in enumerate(lower)], axis=-1)
            pts[:, axis] += half[axis]
            mids.append(pts)
        if not mids:
            raise ValueError("mask domain has no boundary faces")
        return np.concatenate(mids, axis=0)

    def _mask_sigma_edt(self) -> np.ndarray:
        # Face midpoints live on the half-spacing lattice, so the transform
        # runs on a doubled grid and stays exact.
        from scipy.ndimage import distance_transform_edt

        dbl_shape = tuple(2 * n - 1 for n in self.shape)
        target = np.zeros(dbl_shape, dtype=bool)
        for axis, crossing in enumerate(self._crossing_faces()):
            dbl_sl = [slice(None, None, 2)] * self.dim
            dbl_sl[axis] = slice(1, None, 2)
            target[tuple(dbl_sl)] |= crossing
        dist = distance_transform_edt(~target, sampling=self.spacing / 2.0)
        node_sl = tuple(slice(None, None, 2) for _ in range(self.dim))
        return np.asarray(dist)[node_sl]

    def sigma_at(self, points: np.ndarray) -> np.ndarray:
        """Exact boundary distance at arbitrary points (signed for box/ball).

        At the nodes of a mask domain of more than ``EDT_NODE_LIMIT`` nodes
        this can differ in the last bits from ``sigma()``, which comes from
        the distance transform there (see ``sigma``)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "mask":
            return _nearest_distance(self._boundary_tree(), points)
        return self._sigma_combine([self._sigma_axis(axis, points[:, axis])
                                    for axis in range(self.dim)])

    def _sigma_axis(self, axis: int, coords: np.ndarray) -> np.ndarray:
        """The axis half of a box or ball distance (see the module doc)."""
        lo, hi = self.bbox[axis]
        if self.kind == "box":
            return np.minimum(coords - lo, hi - coords)
        return (coords - (lo + hi) / 2.0) ** 2

    def _sigma_combine(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """The combine half of a box or ball distance, from its axis halves
        in axis order."""
        if self.kind == "box":
            return reduce(np.minimum, parts)
        radius = min((hi - lo) / 2.0 for lo, hi in self.bbox)
        return radius - np.sqrt(reduce(np.add, parts))

    def delta_coords(self) -> np.ndarray | None:
        if self.delta_mask is None or not self.delta_mask.any():
            return None
        return self.node_coords(self.delta_mask)

    # ------------------------------------------------------------------ #
    # interpolation

    def interpolate(self, values: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of a node array at (M, N) points.

        Points outside the closed bounding box raise.  Uses the delta form
        ``a + t*(b - a)`` per axis so that constant data interpolates exactly.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.dim:
            raise ValueError(f"points have dim {points.shape[1]}, domain has {self.dim}")
        if np.shape(values) != self.shape:
            raise ValueError(f"values have shape {np.shape(values)}, grid has {self.shape}")
        offsets, fracs, outside = zip(*(self._axis_cells(axis, points[:, axis])
                                        for axis in range(self.dim)))
        outside = reduce(np.logical_or, outside)
        if np.any(outside):
            i = int(np.argmax(outside))
            raise ValueError(
                f"evaluation outside the closed domain bbox at point {points[i]}")
        tables = self._blend_tables(np.reshape(np.asarray(values, dtype=float), (1, -1)))
        return self._blend(tables, reduce(np.add, offsets), fracs)[0]

    def _axis_cells(self, axis: int, coords: np.ndarray):
        """The first half of ``interpolate`` for one axis: the flat offset of
        each coordinate's lower cell corner along ``axis``, its fraction ``t -
        i0`` across the cell, and the mask of coordinates outside the closed
        bbox, which every caller refuses."""
        lo, hi = self.bbox[axis]
        t = (coords - lo) / self.spacing[axis]
        i0 = np.clip(np.floor(t).astype(np.int64), 0, self.shape[axis] - 2)
        return i0 * self._strides[axis], t - i0, (coords < lo) | (coords > hi)

    @staticmethod
    def _blend_tables(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The field-only half of ``_blend`` for an (F, nodes) flat value
        ``stack``: the stack and its last-axis differences ``stack[:, j + 1]
        - stack[:, j]``.  The last axis has stride 1, so this one table holds
        ``v1 - v0`` of every last-axis corner pair ``(c0, c0 + 1)``, at ``j =
        base + c0``; a sweep builds it once for all its nodes."""
        return stack, stack[:, 1:] - stack[:, :-1]

    def _blend(self, tables, base: np.ndarray, fracs) -> np.ndarray:
        """The second half of ``interpolate``: reduce the 2^N cell corners
        of each field of ``_blend_tables`` at the flat lower corners
        ``base`` per axis, last axis first (the corner order), into (F,
        *base.shape) values.

        Each step is ``v0 + t * (v1 - v0)``: on the last axis ``v1 - v0`` is
        gathered from the difference table, on the others it is worked in
        place in ``v1``."""
        stack, diff = tables
        vals = []
        for c in self._pair_corners:
            at = base + c if c else base
            v = diff.take(at, axis=1)
            v *= fracs[-1]
            v += stack.take(at, axis=1)
            vals.append(v)
        for t in reversed(fracs[:-1]):
            for v0, v1 in zip(vals[0::2], vals[1::2]):
                v1 -= v0
                v1 *= t
                v1 += v0
            vals = vals[1::2]
        return vals[0]

    def _spread(self, out: np.ndarray, base: np.ndarray, fracs, weight: float,
                lo: int) -> None:
        """The transpose of ``_blend`` for one field: add ``weight`` times
        each point's multilinear corner weights (products over the axes of
        ``1 - t`` and ``t``) into ``out``, summed per flat node over the span
        from ``lo``, a lower bound of ``base`` that the caller takes once for
        many calls, to the last corner reached.  Nodes below the first
        corner receive zeros, so the sums do not depend on ``lo``."""
        weights = [weight]
        for t in fracs:
            weights = [w * u for w in weights for u in (1.0 - t, t)]
        at = np.concatenate([base + (p + c - lo) for p in self._pair_corners for c in (0, 1)])
        sums = np.bincount(at, weights=np.concatenate(weights))
        out[lo:lo + len(sums)] += sums

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        """Flat-index stride of each axis of a C-ordered node array."""
        return tuple(int(np.prod(self.shape[a + 1:])) for a in range(self.dim))

    @cached_property
    def _pair_corners(self) -> list[int]:
        """Flat offsets of the 2^(N-1) cell corners that are the lower end
        of a last-axis corner pair, in corner order (the last axis
        fastest)."""
        return [int(np.dot(c, self._strides[:-1])) for c in product((0, 1), repeat=self.dim - 1)]


def _off_faces(shape: tuple[int, ...]) -> np.ndarray:
    """Mask of the grid nodes that lie on no bbox face."""
    inside = np.zeros(shape, dtype=bool)
    inside[tuple(slice(1, -1) for _ in shape)] = True
    return inside


def _nearest_distance(tree: cKDTree, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest point held by ``tree``."""
    return tree.query(points, workers=1)[0]


def _exact_int(value) -> int:
    """``value`` as an int: an integer, or a float with no fractional part;
    bools and other values are refused."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"need an integer, got {value!r}")


def _resolution_tuple(resolution, dim: int) -> tuple[int, ...]:
    if np.isscalar(resolution):
        return (_exact_int(resolution),) * dim
    res = tuple(_exact_int(r) for r in resolution)
    if len(res) != dim:
        raise ValueError("resolution length must match bbox length")
    return res


# ---------------------------------------------------------------------- #
# fields


@dataclass
class ScalarField:
    """Real values sampled on every grid node of a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            raise ValueError(
                f"field shape {self.values.shape} != grid shape {self.domain.shape}")
        # boundary values are read by interpolation, so they must be finite too
        if not np.isfinite(self.values).all():
            raise ValueError("field has non-finite values")

    @classmethod
    def from_function(cls, domain: Domain, fn: Callable) -> "ScalarField":
        grids = domain.node_grids()
        return cls(domain, np.asarray(fn(*grids), dtype=float))

    @classmethod
    def constant(cls, domain: Domain, c: float) -> "ScalarField":
        return cls(domain, np.full(domain.shape, float(c)))

    def at(self, points: np.ndarray) -> np.ndarray:
        return self.domain.interpolate(self.values, points)


@dataclass
class VectorField:
    """One scalar component per domain axis."""

    domain: Domain
    components: list[ScalarField]

    def __post_init__(self):
        if len(self.components) != self.domain.dim:
            raise ValueError("component count must equal domain dim")

    @classmethod
    def from_arrays(cls, domain: Domain, arrays: Sequence[np.ndarray]) -> "VectorField":
        return cls(domain, [ScalarField(domain, a) for a in arrays])

    def arrays(self) -> list[np.ndarray]:
        return [c.values for c in self.components]

    def magnitude(self) -> ScalarField:
        mag = np.sqrt(sum(c.values ** 2 for c in self.components))
        return ScalarField(self.domain, mag)


def gradient_central(f: ScalarField) -> VectorField:
    """Central-difference gradient, one-sided at the grid edges."""
    spacings = f.domain.spacing
    if f.domain.dim == 1:
        parts = [np.gradient(f.values, spacings[0])]
    else:
        parts = list(np.gradient(f.values, *spacings))
    return VectorField.from_arrays(f.domain, parts)


# ---------------------------------------------------------------------- #
# operations


def distance_field(domain: Domain, target: str = "boundary") -> ScalarField:
    """Distance to the boundary (``target='boundary'``) or to Theta.

    With ``target='theta'`` the distance also sees the interior delta set;
    when the delta set is empty this coincides with the boundary distance.
    Values at nodes outside the open region carry a negative sign.
    """
    if target not in ("boundary", "theta"):
        raise ValueError(f"unknown distance target {target!r}")
    sigma = domain.sigma()
    if target == "boundary":
        return sigma
    deltas = domain.delta_coords()
    if deltas is None:
        return sigma
    nodes = domain.node_coords(np.ones(domain.shape, dtype=bool))
    d_delta = _nearest_distance(cKDTree(deltas), nodes).reshape(domain.shape)
    return ScalarField(domain, np.minimum(sigma.values, d_delta))


# ---------------------------------------------------------------------- #
# I/O


def write_field_csv(f: ScalarField, path) -> None:
    """Write the header line and one ``repr`` per node value, in flat node
    order, in one write."""
    dom = f.domain
    shape = ",".join(str(n) for n in dom.shape)
    bbox = ",".join(f"{float(lo)!r},{float(hi)!r}" for lo, hi in dom.bbox)
    values = "\n".join(map(repr, f.values.reshape(-1).tolist()))
    with open(path, "w") as fh:
        fh.write(f"# dim={dom.dim} shape={shape} bbox={bbox}\n{values}\n")


def read_field_csv(path, domain: Domain | None = None) -> ScalarField:
    """Read a field CSV; builds a box domain from the header if none given."""
    with open(path) as fh:
        header = fh.readline().strip()
        values = np.array([float(line) for line in fh if line.strip()])
    if not header.startswith("#"):
        raise ValueError(f"{path}: missing field CSV header")
    meta = dict(tok.split("=", 1) for tok in header[1:].split())
    shape = tuple(int(s) for s in meta["shape"].split(","))
    nums = [float(s) for s in meta["bbox"].split(",")]
    bbox = tuple((nums[2 * i], nums[2 * i + 1]) for i in range(len(shape)))
    if domain is None:
        domain = Domain.box(bbox, shape)
    elif domain.shape != shape or domain.bbox != _as_bbox(bbox):
        raise ValueError(f"{path}: field grid does not match the given domain")
    return ScalarField(domain, values.reshape(shape))


def _json_spec(spec: str) -> dict:
    """A JSON object given inline or as the path of a file holding it."""
    obj = json.loads(spec if spec.lstrip().startswith("{") else Path(spec).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"a spec must be a JSON object, got {json.dumps(obj)}")
    return obj


def _check_keys(spec: dict, known: Sequence[str]) -> None:
    """Refuse the keys of a JSON spec that are not in ``known``."""
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown spec keys {unknown}; known keys are {sorted(known)}")


def _spec_value(spec: dict, key: str, convert: Callable, *default):
    """``convert(spec[key])``, or ``convert(default)`` when a default is given
    and the key is absent.  A value that ``convert`` refuses raises a
    ValueError naming the key."""
    try:
        return convert(spec.get(key, *default) if default else spec[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"spec key {key!r}: {err}") from None


def domain_from_json(spec) -> Domain:
    """Build a domain from its JSON spec (string, path, or dict).  Field
    paths in it are read relative to the working directory."""
    if isinstance(spec, str):
        spec = _json_spec(spec)
    _check_keys(spec, ("kind", "bbox", "resolution", "mask", "delta"))
    kind = spec.get("kind", "box")
    bbox = _spec_value(spec, "bbox", _as_bbox)
    resolution = _spec_value(spec, "resolution", lambda r: _resolution_tuple(r, len(bbox)))
    if kind == "box":
        dom = Domain.box(bbox, resolution)
    elif kind == "ball":
        dom = Domain.ball(bbox, resolution)
    elif kind == "mask":
        mask_field = _spec_value(spec, "mask", lambda p: read_field_csv(os.fspath(p)))
        for key, want, got in (("resolution", resolution, mask_field.domain.shape),
                               ("bbox", bbox, mask_field.domain.bbox)):
            if got != want:
                raise ValueError(f"spec key {key!r}: {list(want)} does not match the "
                                 f"mask field's {list(got)}")
        dom = Domain.from_mask(bbox, mask_field.values != 0.0)
    else:
        raise ValueError(f"unknown domain kind {kind!r}")
    if spec.get("delta"):
        f = _spec_value(spec, "delta", lambda p: read_field_csv(os.fspath(p), dom))
        dom = dom.with_delta((f.values == 0.0) & dom.inside_mask)
    return dom
