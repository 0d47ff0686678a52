import json

import numpy as np
import pytest

from mollikit.grid import (Domain, ScalarField, distance_field, domain_from_json,
                           gradient_central, read_field_csv, write_field_csv)

from distance_oracle import closed_form_distance, mask_sigma, nearest_distance, node_sigma
from distance_oracle import sigma_at as oracle_sigma_at
from grid_helpers import boundary_shell


def test_box_sigma_1d_node_values():
    dom = Domain.box([(0.0, 1.0)], 11)
    sig = distance_field(dom, "boundary")
    # node at 0.3 sits three cells in; distance is the coordinate exactly
    assert sig.values[3] == dom.axis_coords(0)[3]
    assert sig.values[3] == pytest.approx(0.3)
    assert sig.values[0] == 0.0 and sig.values[-1] == 0.0


def test_box_sigma_2d_nearest_face():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 11)
    sig = distance_field(dom)
    assert sig.values[5, 2] == pytest.approx(0.2)
    assert sig.values[5, 5] == pytest.approx(0.5)


def test_theta_distance_with_interior_point():
    dom = Domain.box([(0.0, 1.0)], 11)
    delta = np.zeros(dom.shape, dtype=bool)
    delta[5] = True  # x = 0.5
    dom = dom.with_delta(delta)
    d = distance_field(dom, "theta")
    assert d.values[4] == pytest.approx(0.1)  # x = 0.4: min(0.4, 0.6, 0.1)
    assert d.values[5] == 0.0


def test_theta_equals_sigma_without_delta():
    dom = Domain.box([(0.0, 1.0)], 33)
    assert np.array_equal(distance_field(dom, "theta").values,
                          distance_field(dom, "boundary").values)
    # dist(., Theta) <= sigma once a delta set exists
    delta = np.zeros(dom.shape, dtype=bool)
    delta[16] = True
    dom2 = dom.with_delta(delta)
    assert (distance_field(dom2, "theta").values
            <= distance_field(dom2, "boundary").values).all()


def test_boundary_shell_example():
    dom = Domain.box([(0.0, 1.0)], 101)  # h = 0.01
    shell = boundary_shell(dom, 0.1)
    got = sorted(dom.axis_coords(0)[shell])
    expect = [0.01 * k for k in range(1, 11)] + [1.0 - 0.01 * k for k in range(1, 11)]
    assert np.allclose(got, sorted(expect))
    assert shell.sum() == 20


def test_boundary_shell_monotone_and_extremes():
    dom = Domain.box([(0.0, 1.0)], 101)
    small = boundary_shell(dom, 0.05)
    large = boundary_shell(dom, 0.25)
    assert (small <= large).all()
    assert boundary_shell(dom, 0.5).sum() == dom.inside_mask.sum()
    assert boundary_shell(dom, dom.h / 2).sum() == 0  # below resolution: empty ok


def test_sigma_is_one_lipschitz_on_random_node_pairs():
    rng = np.random.default_rng(3)
    for make in (lambda: Domain.box([(0.0, 1.0), (0.0, 2.0)], (17, 33)),
                 lambda: Domain.ball([(0.0, 1.0), (0.0, 1.0)], 21)):
        dom = make()
        sig = dom.sigma().values
        coords = dom.node_coords(np.ones(dom.shape, dtype=bool))
        flat = sig.reshape(-1)
        i = rng.integers(0, len(flat), 500)
        j = rng.integers(0, len(flat), 500)
        gap = np.abs(flat[i] - flat[j])
        dist = np.sqrt(((coords[i] - coords[j]) ** 2).sum(axis=1))
        assert (gap <= dist + 1e-12).all()


def test_ball_domain_sigma_closed_form():
    dom = Domain.ball([(0.0, 2.0), (0.0, 2.0)], 41)
    sig = dom.sigma().values
    r = np.sqrt(sum((g - 1.0) ** 2 for g in dom.node_grids()))
    assert np.allclose(sig, 1.0 - r)
    assert (sig[dom.inside_mask] > 0).all()


def test_ball_on_non_dyadic_bbox_leaves_its_face_nodes_out():
    dom = Domain.ball([(0.1, 0.7)] * 2, 21)
    assert not dom.inside_mask[0].any() and not dom.inside_mask[:, 0].any()
    sigma = dom.sigma().values
    assert (sigma[~dom.inside_mask] <= 0.0).all()
    assert (sigma[dom.inside_mask] > 0.0).all()
    # the face-centre node lies on the sphere
    assert sigma[0, 10] == 0.0 and dom.sigma_at(dom.node_coords(
        np.ones(dom.shape, dtype=bool))).reshape(dom.shape)[0, 10] > 0.0


@pytest.mark.parametrize("bbox", [
    [(0.0, 1.0)],
    [(-0.3, 2.2)],
    [(0.0, 1.0), (0.0, 1.0)],
    [(0.1, 0.7), (-0.2, 0.5)],
    [(0.0, 1.3), (-0.2, 0.5)],
    [(0.0, 1.0)] * 3,
    [(0.1, 0.7), (0.0, 1.9), (-1.0, 0.3)],
])
def test_ball_inside_mask_equals_closed_form_oracle(bbox):
    for res in (3, 4, 7, 12, 21, 33, 48):
        shape = tuple(res + 2 * axis for axis in range(len(bbox)))  # anisotropic
        dom = Domain.ball(bbox, shape)
        off_faces = np.zeros(shape, dtype=bool)
        off_faces[tuple(slice(1, -1) for _ in shape)] = True
        want = (closed_form_distance(dom, dom.node_grids()) > 0.0) & off_faces
        assert np.array_equal(dom.inside_mask, want), shape


def test_mask_sigma_matches_offset_box_and_edt_agrees():
    box = Domain.box([(0.0, 1.0)], 65)
    mask = Domain.from_mask([(0.0, 1.0)], box.inside_mask)
    sig_box = box.sigma().values[box.inside_mask]
    sig_mask = mask.sigma().values[mask.inside_mask]
    # the mask boundary is the face-midpoint surface, half a cell inside
    assert np.allclose(sig_mask, sig_box - mask.h / 2.0)
    # sigma is the all-pairs distance to the face midpoints, bit for bit; on
    # this dyadic spacing the large-grid transform matches it bit for bit too
    brute = mask_sigma(mask)
    assert np.array_equal(np.abs(mask.sigma().values), brute)
    assert np.array_equal(brute, mask._mask_sigma_edt())


def test_mask_sigma_2d_edt_vs_brute():
    base = Domain.ball([(0.0, 1.0), (0.0, 1.0)], 25)
    dom = Domain.from_mask([(0.0, 1.0), (0.0, 1.0)], base.inside_mask)
    brute = mask_sigma(dom)
    assert np.array_equal(np.abs(dom.sigma().values), brute)
    # spacing 1/24 is not dyadic: the transform matches only up to rounding
    assert np.allclose(brute, dom._mask_sigma_edt(), atol=1e-12)


def _random_mask(rng, shape):
    inside = rng.random(shape) < 0.6
    for axis in range(len(shape)):
        for idx in (0, -1):
            np.moveaxis(inside, axis, 0)[idx] = False
    return inside


@pytest.mark.parametrize("bbox, shape", [
    ([(0.0, 1.0)], (65,)),
    ([(-0.3, 2.2)], (97,)),
    ([(0.0, 1.3), (-0.2, 0.5)], (41, 29)),
    ([(0.0, 1.0), (0.0, 1.0)], (25, 25)),
    ([(0.0, 1.0)] * 3, (13, 13, 13)),
    ([(0.1, 0.7), (0.0, 1.9), (-1.0, 0.3)], (13, 19, 11)),
])
def test_mask_distances_bitwise_equal_to_all_pairs_oracle(bbox, shape):
    """Mask distances against the all-pairs oracle, and box and ball
    distances against their closed forms, exact to the sign bit."""
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    inside = _random_mask(rng, shape)
    for dom in (Domain.from_mask(bbox, inside), Domain.box(bbox, shape),
                Domain.ball(bbox, shape)):
        nodes = dom.node_coords(np.ones(shape, dtype=bool))
        sigma = dom.sigma().values
        expect = node_sigma(dom)
        assert np.array_equal(sigma, expect), dom.kind
        assert np.array_equal(np.signbit(sigma), np.signbit(expect)), dom.kind
        # off-grid queries, and the nodes themselves, through sigma_at
        pts = rng.uniform(dom.lo, dom.hi, size=(2000, len(shape)))
        assert np.array_equal(dom.sigma_at(pts), oracle_sigma_at(dom, pts))
        at_nodes = dom.sigma_at(nodes).reshape(shape)
        if dom.kind == "mask":
            assert np.array_equal(at_nodes, np.abs(sigma))
        else:
            assert np.array_equal(at_nodes[dom.inside_mask], sigma[dom.inside_mask])

        delta = dom.inside_mask & (rng.random(shape) < 0.05)
        delta.flat[np.flatnonzero(dom.inside_mask)[0]] = True
        theta = distance_field(dom.with_delta(delta), "theta").values
        d_delta = nearest_distance(nodes, dom.node_coords(delta)).reshape(shape)
        assert np.array_equal(theta, np.minimum(sigma, d_delta))


def test_with_delta_and_gamma_keep_the_boundary_distances():
    dom = Domain.from_mask([(0.0, 1.0), (0.0, 1.0)],
                           Domain.ball([(0.0, 1.0), (0.0, 1.0)], 33).inside_mask)
    sigma = dom.sigma().values
    dom.sigma_at(np.array([[0.5, 0.5]]))
    delta = np.zeros(dom.shape, dtype=bool)
    delta[16, 16] = True
    copy = dom.with_delta(delta)
    assert copy._sigma_values is dom._sigma_values
    assert copy._face_tree is dom._face_tree
    assert np.array_equal(copy.sigma().values, sigma)


def test_interpolation_constant_is_exact():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 9)
    f = ScalarField.constant(dom, 2.675)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(200, 2))
    assert (f.at(pts) == 2.675).all()


def test_interpolation_affine_and_bbox_error():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 17)
    f = ScalarField.from_function(dom, lambda x, y: 2.0 * x - 3.0 * y + 0.5)
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(200, 2))
    expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.5
    assert np.allclose(f.at(pts), expect, atol=1e-13)
    with pytest.raises(ValueError, match="outside the closed domain"):
        f.at(np.array([[1.2, 0.5]]))


def test_interpolation_at_closed_corners():
    dom = Domain.box([(0.0, 1.0)], 5)
    f = ScalarField.from_function(dom, lambda x: x)
    assert f.at(np.array([[0.0], [1.0]])) == pytest.approx([0.0, 1.0])


def test_field_validation():
    dom = Domain.box([(0.0, 1.0)], 9)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(dom, np.zeros(5))
    for node in (4, 0):  # inside, then boundary: interpolation reads both
        vals = np.zeros(dom.shape)
        vals[node] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarField(dom, vals)


def test_domain_validation():
    with pytest.raises(ValueError, match="degenerate"):
        Domain.box([(1.0, 1.0)], 9)
    full = np.ones(9, dtype=bool)
    with pytest.raises(ValueError, match="open"):
        Domain.from_mask([(0.0, 1.0)], full)
    with pytest.raises(ValueError, match="empty"):
        Domain.from_mask([(0.0, 1.0)], np.zeros(9, dtype=bool))
    # one bbox interval per grid axis: with two over a 3D grid sigma() would
    # index past the bbox, and a third over a 2D grid would go unread
    for intervals, shape in ((2, (7, 7, 7)), (3, (7, 7))):
        mask = np.zeros(shape, dtype=bool)
        mask[(3,) * len(shape)] = True
        with pytest.raises(ValueError, match=f"bbox has {intervals} intervals, grid has "
                                             f"{len(shape)} axes"):
            Domain.from_mask([(0.0, 1.0), (0.0, 1.0), (0.0, 2.0)][:intervals], mask)


def test_csv_roundtrip_bitwise(tmp_path):
    # the file holds the bytes of a writer that writes one line per value
    dom = Domain.box([(0.0, 1.0), (-1.0, 2.0)], (9, 7))
    rng = np.random.default_rng(5)
    values = rng.standard_normal(dom.shape)
    values.flat[:12] = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1e16, 0.1, 3.0, -2.0, 1e22, 2.0 ** 53]
    f = ScalarField(dom, values)
    path = tmp_path / "field.csv"
    write_field_csv(f, path)
    lines = ["# dim=2 shape=9,7 bbox=0.0,1.0,-1.0,2.0\n"]
    lines += [f"{float(v)!r}\n" for v in values.reshape(-1)]
    assert path.read_bytes() == "".join(lines).encode()
    g = read_field_csv(path)
    assert g.domain.shape == dom.shape
    assert g.domain.bbox == dom.bbox
    assert g.values.tobytes() == f.values.tobytes()


def test_domain_from_json(tmp_path):
    spec = {"kind": "box", "bbox": [[0.0, 1.0]], "resolution": [33]}
    dom = domain_from_json(json.dumps(spec))
    assert dom.kind == "box" and dom.shape == (33,)

    alpha = ScalarField.from_function(dom, lambda x: np.minimum(x, 1 - x)
                                      * (np.abs(x - 0.5) > 0.2))
    path = tmp_path / "alpha.csv"
    write_field_csv(alpha, path)
    spec["delta"] = str(path)
    dom2 = domain_from_json(json.dumps(spec))
    assert dom2.delta_mask is not None
    assert dom2.delta_mask.sum() == ((alpha.values == 0) & dom.inside_mask).sum()

    ball = domain_from_json('{"kind": "ball", "bbox": [[0,1],[0,1]], "resolution": [21, 21]}')
    assert ball.kind == "ball" and ball.inside_mask.any()

    # a mask field must lie on the spec's grid
    write_field_csv(ScalarField(ball, ball.inside_mask.astype(float)), tmp_path / "m.csv")
    spec = {"kind": "mask", "bbox": [[0, 1], [0, 1]], "resolution": [21, 21],
            "mask": str(tmp_path / "m.csv")}
    assert np.array_equal(domain_from_json(spec).inside_mask, ball.inside_mask)
    for key, value in (("bbox", [[0, 2], [0, 2]]), ("resolution", [5, 5])):
        with pytest.raises(ValueError, match=f"spec key '{key}'"):
            domain_from_json({**spec, key: value})


def test_gradient_central_affine_exact():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 17)
    f = ScalarField.from_function(dom, lambda x, y: 3.0 * x - 2.0 * y)
    g = gradient_central(f)
    assert np.allclose(g.components[0].values, 3.0, atol=1e-12)
    assert np.allclose(g.components[1].values, -2.0, atol=1e-12)
