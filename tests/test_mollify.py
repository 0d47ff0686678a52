import os

import numpy as np
import pytest

from mollikit import _sampling
from mollikit._sampling import SigmaSample, _chunks, variable_step_average
from mollikit.analysis import tf0_closed
from mollikit.eta import EtaProfile, build_whitney_eta, quadratic_eta
from mollikit.grid import Domain, ScalarField, gradient_central
from mollikit.kernels import make_kernel
from mollikit.mollify import (MollifierConfig, composite_profile, modified_config,
                              mollify, mollify_at_points, mollify_composite,
                              mollify_gradient, mollify_with_report,
                              pointwise_gradient_bound_check, psi_field)


@pytest.fixture(scope="module")
def line():
    return Domain.box([(0.0, 1.0)], 513)


@pytest.fixture(scope="module")
def kernel1d():
    return make_kernel("bump", 1, 64)


@pytest.fixture(scope="module")
def quad_cfg(line, kernel1d):
    return MollifierConfig(kernel1d, quadratic_eta(line, 0.1), n=2)


@pytest.fixture(scope="module")
def square_cfg():
    dom = Domain.box([(0.0, 1.0), (0.0, 1.0)], 65)
    return MollifierConfig(make_kernel("bump", 2, 16), quadratic_eta(dom, 0.1), n=2)


# ---------------------------------------------------------------------- #
# exactness


def test_constant_reproduced_exactly(quad_cfg, square_cfg):
    for cfg in (quad_cfg, square_cfg):
        f = ScalarField.constant(cfg.domain, -4.375)
        tf = mollify(f, cfg)
        assert (tf.values == -4.375).all()


def test_affine_reproduced(quad_cfg, square_cfg):
    for cfg in (quad_cfg, square_cfg):
        f = ScalarField.from_function(cfg.domain, lambda *g: sum(g) - 0.25)
        tf = mollify(f, cfg)
        assert np.abs(tf.values - f.values).max() <= 1e-10


def test_linearity(quad_cfg):
    dom = quad_cfg.domain
    rng = np.random.default_rng(2)
    f = ScalarField(dom, rng.standard_normal(dom.shape))
    g = ScalarField(dom, rng.standard_normal(dom.shape))
    combo = ScalarField(dom, 1.7 * f.values - 0.3 * g.values)
    lhs = mollify(combo, quad_cfg).values
    rhs = 1.7 * mollify(f, quad_cfg).values - 0.3 * mollify(g, quad_cfg).values
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_sup_bound_exact(quad_cfg, square_cfg):
    rng = np.random.default_rng(4)
    for cfg in (quad_cfg, square_cfg):
        dom = cfg.domain
        fixtures = [
            ScalarField(dom, rng.standard_normal(dom.shape)),
            ScalarField.from_function(dom, lambda *g: np.sin(np.pi * g[0])),
            ScalarField.constant(dom, 0.7),
        ]
        for f in fixtures:
            tf = mollify(f, cfg)
            assert np.abs(tf.values[dom.inside_mask]).max() \
                <= np.abs(f.values[dom.inside_mask]).max()


def test_positivity(quad_cfg):
    dom = quad_cfg.domain
    rng = np.random.default_rng(5)
    f = ScalarField(dom, rng.uniform(0.0, 3.0, dom.shape))
    assert (mollify(f, quad_cfg).values >= 0.0).all()


def test_identity_where_step_vanishes(line, kernel1d):
    theta = ~line.inside_mask.copy()
    mid = line.shape[0] // 2
    theta[mid] = True
    prof = build_whitney_eta(line, theta, epsilon=0.25)
    cfg = MollifierConfig(kernel1d, prof, n=1)
    rng = np.random.default_rng(6)
    f = ScalarField(line, rng.standard_normal(line.shape))
    tf = mollify(f, cfg)
    assert tf.values[mid] == f.values[mid]
    assert tf.values[0] == f.values[0] and tf.values[-1] == f.values[-1]
    # subgrid-guarded nodes are identity too, and get flagged
    step = cfg.step_inside()
    guarded = (step > 0) & (step < line.h)
    assert guarded.any()
    assert (tf.values[line.inside_mask][guarded] == f.values[line.inside_mask][guarded]).all()


def test_oscillation_bound_exact(quad_cfg):
    dom = quad_cfg.domain
    rng = np.random.default_rng(7)
    f = ScalarField(dom, rng.standard_normal(dom.shape))
    tf = mollify(f, quad_cfg)
    pts = dom.node_coords(dom.inside_mask)
    step = quad_cfg.step_inside()
    f_in = f.values[dom.inside_mask]
    osc = np.zeros(len(pts))
    act = step >= dom.h
    x, s = pts[act], step[act][:, None]
    best = np.zeros(act.sum())
    for k in range(len(quad_cfg.kernel.nodes)):
        vals = f.at(x - s * quad_cfg.kernel.nodes[k])
        np.maximum(best, np.abs(vals - f_in[act]), out=best)
    osc[act] = best
    dev = np.abs(tf.values[dom.inside_mask] - f_in)
    assert (dev <= osc).all()


def test_support_preservation(line, kernel1d):
    w = 0.2
    prof = build_whitney_eta(line, epsilon=0.5)
    cfg = MollifierConfig(kernel1d, prof, n=1)
    sigma = line.sigma().values
    rng = np.random.default_rng(8)
    vals = np.where(sigma < w, 0.0, rng.standard_normal(line.shape))
    tf = mollify(ScalarField(line, vals), cfg)
    step = np.zeros(line.shape)
    step[line.inside_mask] = cfg.step_inside()
    reach = sigma + step * cfg.kernel.support_radius + line.h * np.sqrt(line.dim)
    safe = line.inside_mask & (reach < w)
    assert safe.any()
    assert (tf.values[safe] == 0.0).all()


def test_counterexample_config_allows_boundary_step(line, kernel1d):
    sigma_prof = EtaProfile(line.sigma(), 1.0, "linear", None, ~line.inside_mask)
    with pytest.raises(ValueError, match="step invariant"):
        MollifierConfig(make_kernel("box", 1, 64), sigma_prof)
    cfg = MollifierConfig(make_kernel("box", 1, 64), sigma_prof,
                          allow_boundary_step=True)
    x = line.axis_coords(0)
    ymin = 16 * line.h
    f = ScalarField(line, 1.0 / (np.maximum(x, ymin) * np.log(2 / np.maximum(x, ymin)) ** 2))
    tf = mollify(f, cfg)
    # closed form for the clipped spike:
    # T(x) = (1/2x) [ ymin f0(ymin) + 1/ln(2/2x) - 1/ln(2/ymin) ]
    node = int(np.argmin(np.abs(x - 0.25)))
    clipped = (ymin / (ymin * np.log(2 / ymin) ** 2)
               + 1 / np.log(2 / 0.5) - 1 / np.log(2 / ymin)) / 0.5
    assert tf.values[node] == pytest.approx(clipped, rel=2e-2)
    # and the unclipped operator's closed form dominates it
    assert tf.values[node] < float(tf0_closed(0.25))


def test_report_fields(quad_cfg):
    f = ScalarField.from_function(quad_cfg.domain, lambda x: np.sin(3 * x))
    tf, report = mollify_with_report(f, quad_cfg)
    assert set(report) == {"sup_ratio", "identity_nodes", "flagged_subgrid_nodes",
                           "hull_clamped_nodes", "max_hull_correction", "runtime_ms"}
    assert report["sup_ratio"] <= 1.0
    assert report["flagged_subgrid_nodes"] > 0  # quadratic step dips below h


def test_report_counts_hull_clamps_of_a_constant_field(square_cfg):
    # the kernel weights sum to 1 only up to round-off, so every smoothed
    # node of a constant field needs the clamp back to the constant
    dom = square_cfg.domain
    tf, report = mollify_with_report(ScalarField.constant(dom, 0.7), square_cfg)
    active = int((square_cfg.step_inside() >= dom.h).sum())
    assert (tf.values == 0.7).all()
    assert report["hull_clamped_nodes"] == active > 0
    assert 0.0 < report["max_hull_correction"] < 1e-13
    f = ScalarField.from_function(dom, lambda x, y: np.sin(5 * x) * np.cos(3 * y))
    _, report = mollify_with_report(f, square_cfg)
    assert report["hull_clamped_nodes"] < active


def test_mollify_leaves_the_config_unchanged(quad_cfg):
    before = dict(vars(quad_cfg))
    mollify(ScalarField.constant(quad_cfg.domain, 1.0), quad_cfg)
    assert vars(quad_cfg).keys() == before.keys()
    assert all(vars(quad_cfg)[k] is v for k, v in before.items())


def test_gradient_samples_each_component_once(square_cfg, monkeypatch):
    dom = square_cfg.domain
    sampled = []
    blend = Domain._blend

    def counting(self, stack, base, fracs):
        sampled.append(stack.shape[0] * len(base))  # fields x points
        return blend(self, stack, base, fracs)

    f = ScalarField.from_function(dom, lambda x, y: np.sin(3 * x) * y)
    grad_f = gradient_central(f)
    monkeypatch.setattr(Domain, "_blend", counting)
    mollify_gradient(f, grad_f, square_cfg)
    active = int((square_cfg.step_inside() >= dom.h).sum())
    assert sum(sampled) == dom.dim * len(square_cfg.kernel.nodes) * active


def test_mask_sigma_sweep_queries_the_tree_per_block(monkeypatch):
    # per block one nearest-point query and one counting ball query, per
    # sub-block one listing ball query; never one query per kernel node
    x = np.linspace(-1.0, 1.0, 41)
    gx, gy = np.meshgrid(x, x, indexing="ij")
    dom = Domain.from_mask([(0.0, 1.0), (0.0, 1.0)], gx * gx + gy * gy < 0.8)
    pts = dom.node_coords()
    step = 0.5 * dom.sigma_at(pts)
    kernel = make_kernel("bump", 2, 16)
    calls = {"query": 0, "count": 0, "list": 0, "sub-block": 0}
    tree = dom._boundary_tree()

    class CountingTree:
        data = tree.data

        def query(self, *args, **kwargs):
            calls["query"] += 1
            return tree.query(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls["count" if kwargs.get("return_length") else "list"] += 1
            return tree.query_ball_point(*args, **kwargs)

    block_sampler = _sampling._block_sampler

    def counting_sampler(*args):
        calls["sub-block"] += 1
        return block_sampler(*args)

    monkeypatch.setattr(dom, "_face_tree", CountingTree())
    monkeypatch.setattr(_sampling, "_block_sampler", counting_sampler)
    monkeypatch.setattr(_sampling, "_BLOCK", 256)
    monkeypatch.setattr(_sampling, "_BLOCK_PAIRS", 1000)
    want = variable_step_average(pts, step, kernel, [SigmaSample(dom)], [step], dom.h)
    blocks = -(-int((step >= dom.h).sum()) // 256)
    assert calls["query"] == calls["count"] == blocks < calls["sub-block"] == calls["list"]
    assert calls["list"] < len(kernel.nodes)

    monkeypatch.setattr(_sampling, "_BLOCK_PAIRS", 10**9)  # sub-blocks change no bit
    got = variable_step_average(pts, step, kernel, [SigmaSample(dom)], [step], dom.h)
    assert np.array_equal(got.values, want.values)


def test_thread_count_does_not_change_bits(quad_cfg, monkeypatch):
    monkeypatch.setattr(_sampling, "_BLOCK", 64)  # 511 points: several slices
    rng = np.random.default_rng(9)
    f = ScalarField(quad_cfg.domain, rng.standard_normal(quad_cfg.domain.shape))
    a = mollify(f, quad_cfg, threads=1).values
    b = mollify(f, quad_cfg, threads=4).values
    assert np.array_equal(a, b)


def test_worker_slices_are_whole_sweep_blocks(monkeypatch):
    # only slices are made here; no thread is started
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    block = _sampling._BLOCK
    for m in (1, block, 2 * block - 1):
        assert _chunks(m, 8) == [slice(0, m)]
    for m, threads, count in ((2 * block, 2, 2), (5 * block + 3, 4, 3), (100 * block, 8, 8)):
        slices = _chunks(m, threads)
        assert len(slices) == count
        assert [sl.start for sl in slices] == [0] + [sl.stop for sl in slices[:-1]]
        assert all(sl.start % block == 0 for sl in slices) and slices[-1].stop == m


@pytest.mark.parametrize("threads", [3, 1000, 10**6])
def test_worker_slices_capped_at_usable_cpus(threads):
    # only slices are made here; no thread is started
    slices = _chunks(10**6, threads)
    assert 1 <= len(slices) <= len(os.sched_getaffinity(0))
    covered = np.zeros(10**6, dtype=int)
    for sl in slices:
        covered[sl] += 1
    assert (covered == 1).all()


def test_mollify_at_points_matches_nodes(quad_cfg):
    dom = quad_cfg.domain
    f = ScalarField.from_function(dom, lambda x: np.cos(2 * x))
    tf = mollify(f, quad_cfg)
    pts = dom.node_coords(dom.inside_mask)[::37]
    vals = mollify_at_points(f, quad_cfg, pts)
    assert np.allclose(vals, tf.values[dom.inside_mask][::37], atol=1e-12)


# ---------------------------------------------------------------------- #
# gradient formula


def test_gradient_affine_exact(quad_cfg, square_cfg):
    for cfg in (quad_cfg, square_cfg):
        dom = cfg.domain
        f = ScalarField.from_function(dom, lambda *g: sum((i + 1) * x for i, x in enumerate(g)))
        grads = mollify_gradient(f, gradient_central(f), cfg)
        for axis, comp in enumerate(grads.components):
            assert (comp.values[dom.inside_mask] == float(axis + 1)).all()


def test_gradient_constant_zero(quad_cfg):
    f = ScalarField.constant(quad_cfg.domain, 3.0)
    grads = mollify_gradient(f, gradient_central(f), quad_cfg)
    assert (grads.components[0].values == 0.0).all()


def test_gradient_matches_finite_differences(line, kernel1d):
    cfg = MollifierConfig(kernel1d, quadratic_eta(line, 0.1), n=4)
    f = ScalarField.from_function(line, lambda x: x * x)
    grads = mollify_gradient(f, gradient_central(f), cfg)
    dom = line
    h = dom.h
    interior = dom.inside_mask & (dom.sigma().values > 0.2)
    pts = dom.node_coords(interior)
    delta = h / 4.0
    up = mollify_at_points(lambda p: (p[:, 0] ** 2), cfg, pts + delta)
    dn = mollify_at_points(lambda p: (p[:, 0] ** 2), cfg, pts - delta)
    fd = (up - dn) / (2 * delta)
    got = grads.components[0].values[interior]
    assert np.abs(got - fd).max() <= max(1e-4, 5 * h * h)


def test_gradient_pointwise_bounds(line, kernel1d, square_cfg):
    cfg = MollifierConfig(kernel1d, quadratic_eta(line, 0.1), n=4)
    for field_cfg in ((ScalarField.constant(line, 2.0), cfg),
                      (ScalarField.from_function(line, lambda x: x), cfg)):
        rep = pointwise_gradient_bound_check(*field_cfg)
        assert rep["violations"] == 0
    f2 = ScalarField.from_function(square_cfg.domain,
                                   lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    cfg2 = MollifierConfig(square_cfg.kernel, square_cfg.eta, n=4)
    rep = pointwise_gradient_bound_check(f2, cfg2)
    assert rep["violations"] == 0
    assert rep["max_margin_triangle"] <= 0.0


def test_gradient_requires_standard_variant(line):
    cfg = modified_config(line, 4, quadratic_eta(line, 0.1), order=32)
    f = ScalarField.from_function(line, lambda x: x)
    with pytest.raises(ValueError, match="standard"):
        mollify_gradient(f, gradient_central(f), cfg)


# ---------------------------------------------------------------------- #
# composite family (interior zero set)


@pytest.fixture(scope="module")
def composite_setup():
    dom = Domain.box([(0.0, 1.0)], 1025)
    theta = ~dom.inside_mask.copy()
    mid = dom.shape[0] // 2
    theta[mid] = True
    eta1 = build_whitney_eta(dom, theta, epsilon=0.25)
    eta0 = build_whitney_eta(dom, None, epsilon=0.25)
    kernel = make_kernel("bump", 1, 64)
    return dom, mid, eta1, eta0, kernel


def test_composite_constant(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    f = ScalarField.constant(dom, 1.25)
    for n in (1, 8):
        assert (mollify_composite(f, eta1, eta0, n, kernel).values == 1.25).all()


def test_composite_converges_at_interior_zero(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    f = ScalarField.from_function(dom, lambda x: np.sin(2.1 * x + 0.4))
    fmid = f.values[mid]
    for n in (4, 16, 64):
        tf = mollify_composite(f, eta1, eta0, n, kernel)
        radius = eta0.values[mid] / n
        probe = np.linspace(0.5 - radius, 0.5 + radius, 2001)
        osc = np.abs(np.sin(2.1 * probe + 0.4) - fmid).max()
        assert abs(tf.values[mid] - fmid) <= osc


def test_composite_without_delta_matches_plain(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    f = ScalarField.from_function(dom, lambda x: np.cos(3 * x))
    got = mollify_composite(f, eta0, eta0, 4, kernel)
    manual = mollify(f, MollifierConfig(kernel, composite_profile(eta0, eta0, 4)))
    assert np.array_equal(got.values, manual.values)


def test_composite_off_zero_limit(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    f = ScalarField.from_function(dom, lambda x: np.sin(2.1 * x + 0.4))
    t64 = mollify_composite(f, eta1, eta0, 64, kernel)
    t_eta1 = mollify(f, MollifierConfig(kernel, eta1))
    off = dom.inside_mask.copy()
    off[mid] = False
    assert np.abs(t64.values[off] - t_eta1.values[off]).max() <= 1e-3


def test_psi_vanishes_on_delta_and_for_affine(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    f = ScalarField.from_function(dom, lambda x: 2.0 * x + 1.0)
    psi_n = psi_field(f, eta1, eta0, 16, kernel)
    assert (psi_n.components[0].values == 0.0).all()
    g = ScalarField.from_function(dom, lambda x: np.sin(2.1 * x + 0.4))
    psi_lim = psi_field(g, eta1, eta0, None, kernel)
    assert psi_lim.components[0].values[mid] == 0.0


def test_psi_shell_bound(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    n = 64
    f = ScalarField.from_function(dom, lambda x: np.sin(2.1 * x + 0.4))
    psi_n = psi_field(f, eta1, eta0, n, kernel)
    grad_mag = gradient_central(f).magnitude()
    tn_grad = mollify(grad_mag, MollifierConfig(kernel, composite_profile(eta1, eta0, n)))
    shell = np.zeros(dom.shape, dtype=bool)
    shell[mid - 2: mid + 3] = True
    grad_eta0 = np.abs(np.gradient(eta0.values, dom.h)).max()
    lhs = np.abs(psi_n.components[0].values[shell]).max()
    rhs = grad_eta0 / n * tn_grad.values[dom.inside_mask].max()
    assert lhs <= rhs * (1 + 1e-9)


def test_composite_profile_validation(composite_setup):
    dom, mid, eta1, eta0, kernel = composite_setup
    with pytest.raises(ValueError, match="boundary only"):
        composite_profile(eta0, eta1, 4)  # eta0 slot must vanish only on the boundary


# ---------------------------------------------------------------------- #
# modified variant


def test_modified_config_properties(line):
    quad_prof = quadratic_eta(line, 0.1)
    cfg = modified_config(line, 8, quad_prof, order=48)
    assert cfg.variant == "modified"
    assert cfg.kernel.profile == "plateau" and cfg.kernel.n == 8
    sigma = line.sigma().values[line.inside_mask]
    vals = cfg.eta.values[line.inside_mask]
    assert (vals <= sigma ** 2).all()


def test_modified_tv_close_to_input(line):
    from mollikit.analysis import norm
    quad_prof = quadratic_eta(line, 0.1)
    x = line.axis_coords(0)
    f = ScalarField(line, (x > 0.5).astype(float))
    cfg = modified_config(line, 16, quad_prof, order=48)
    tf = mollify(f, cfg)
    assert abs(norm(tf, "TV") - 1.0) <= 0.1
