"""Node loops written out one per use, the reference for the library's
single sampling sweep.

Each operator here makes its own pass over the kernel nodes, the way the
library did before all of them were folded into ``mollikit._sampling``:
the weighted average with its hull clamp, the mirror-pair z-dot sum (which
samples each gradient component again), the ball max, and the oscillation
loop of the boundary-trace check.  The arithmetic per (point, node) is the
same, so the library must agree with these bit for bit.  ``column_sums``
adds up the weighted average's own weights corner by corner, the reference
for the exact L1 norm; its terms are the library's, summed in another
order, so the two agree to rounding.  Grid fields are
sampled through ``interpolate`` below, the tuple-gather interpolation that
``Domain.interpolate`` replaced with its flat gather; ``flat_blend`` keeps
that flat gather of every cell corner, which the last-axis difference
tables of ``Domain._blend`` replaced in turn.
"""

from itertools import product
from types import SimpleNamespace

import numpy as np

from mollikit.grid import gradient_central


def _hull_loop(x, s, kernel, sample_fn):
    acc = np.zeros(len(x))
    lo = np.full(len(x), np.inf)
    hi = np.full(len(x), -np.inf)
    for k in range(len(kernel.nodes)):
        vals = sample_fn(x - s * kernel.nodes[k])
        acc += kernel.coeffs[k] * vals
        np.minimum(lo, vals, out=lo)
        np.maximum(hi, vals, out=hi)
    return acc, lo, hi


def variable_step_average(points, step, kernel, sample_fn, identity_values, h):
    points = np.atleast_2d(points)
    out = np.array(identity_values, dtype=float, copy=True)
    active = step >= h
    if not active.any():
        return out, active
    acc, lo, hi = _hull_loop(points[active], step[active][:, None], kernel, sample_fn)
    out[active] = np.clip(acc, lo, hi)
    return out, active


def weighted_z_dot(points, step, kernel, grad_sample_fns, h):
    points = np.atleast_2d(points)
    out = np.zeros(len(points))
    active = step >= h
    if not active.any():
        return out
    x = points[active]
    s = step[active][:, None]
    acc = np.zeros(len(x))
    for p in range(kernel.paired_count // 2):
        z = kernel.nodes[2 * p]
        shift = s * z
        diff = np.zeros(len(x))
        for axis, g in enumerate(grad_sample_fns):
            if z[axis] != 0.0:
                diff += z[axis] * (g(x + shift) - g(x - shift))
        acc += kernel.coeffs[2 * p] * diff
    out[active] = acc
    return out


def z_dot_sweep(points, step, kernel, sample_fns, identity_values, h):
    """What ``mollikit._sampling.weighted_z_dot`` returns, from the loops
    above: per field the hull-clamped average, the hull ``lo`` and ``hi``
    and what the clamp added (each field over its own node loop), and the
    z-dot sum of the first N fields (over the mirror-pair loop)."""
    points = np.atleast_2d(points)
    active = step >= h
    x, s = points[active], step[active][:, None]
    rows = []
    for fn, ident in zip(sample_fns, identity_values):
        values = np.array(ident, dtype=float, copy=True)
        lo, hi, clamped = values.copy(), values.copy(), np.zeros(len(values))
        acc, lo[active], hi[active] = _hull_loop(x, s, kernel, fn)
        values[active] = np.clip(acc, lo[active], hi[active])
        clamped[active] = values[active] - acc
        rows.append((values, lo, hi, clamped))
    zdot = weighted_z_dot(points, step, kernel, sample_fns[:points.shape[1]], h)
    return (*(np.array(r) for r in zip(*rows)), zdot)


def variable_step_max(points, step, kernel, sample_fn, identity_values):
    points = np.atleast_2d(points)
    dim = points.shape[1]
    out = np.array(identity_values, dtype=float, copy=True)
    active = step > 0.0
    if not active.any():
        return out
    x = points[active]
    s = step[active][:, None]
    best = out[active]
    for k in range(len(kernel.nodes)):
        np.maximum(best, sample_fn(x - s * kernel.nodes[k]), out=best)
    for axis in range(dim):
        for sign in (-1.0, 1.0):
            shifted = x.copy()
            shifted[:, axis] += sign * s[:, 0]
            np.maximum(best, sample_fn(shifted), out=best)
    out[active] = best
    return out


def interpolate(domain, values, points):
    """Multilinear interpolation gathering the 2^N corners with one tuple
    index per corner and per call."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bad = (points < domain.lo) | (points > domain.hi)
    if bad.any():
        i = int(np.argwhere(bad.any(axis=1))[0][0])
        raise ValueError(f"evaluation outside the closed domain bbox at point {points[i]}")
    idx = []
    frac = []
    for axis in range(domain.dim):
        t = (points[:, axis] - domain.bbox[axis][0]) / domain.spacing[axis]
        i0 = np.clip(np.floor(t).astype(np.int64), 0, domain.shape[axis] - 2)
        idx.append(i0)
        frac.append(t - i0)
    corner_vals = []
    for corner in product((0, 1), repeat=domain.dim):
        sel = tuple(idx[a] + corner[a] for a in range(domain.dim))
        corner_vals.append(values[sel])
    for axis in range(domain.dim - 1, -1, -1):
        t = frac[axis]
        corner_vals = [v0 + t * (v1 - v0)
                       for v0, v1 in zip(corner_vals[0::2], corner_vals[1::2])]
    return corner_vals[0]


def flat_blend(domain, stack, base, fracs):
    """The flat-index blend that the difference tables replaced: the 2^N
    cell corners of each row of ``stack`` gathered at ``base + c`` and
    reduced as ``v0 + t * (v1 - v0)``, last axis first."""
    strides = [int(np.prod(domain.shape[a + 1:])) for a in range(domain.dim)]
    vals = [stack.take(base + int(np.dot(c, strides)), axis=1)
            for c in product((0, 1), repeat=domain.dim)]
    for t in reversed(fracs):
        vals = [v0 + t * (v1 - v0) for v0, v1 in zip(vals[0::2], vals[1::2])]
    return vals[0]


def _sample(f):
    if callable(f):
        return lambda p: np.asarray(f(p), dtype=float)
    return lambda p: interpolate(f.domain, f.values, p)


# ---------------------------------------------------------------------- #
# the operators, each over its own loops


def mollify(f, cfg):
    dom = cfg.domain
    vals, _ = variable_step_average(dom.node_coords(dom.inside_mask), cfg.step_inside(),
                                    cfg.kernel, _sample(f),
                                    f.values[dom.inside_mask], dom.h)
    out = f.values.copy()
    out[dom.inside_mask] = vals
    return out


def mollify_at_points(f, cfg, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sample = _sample(f)
    vals, _ = variable_step_average(points, cfg.step_at(points), cfg.kernel, sample,
                                    sample(points), cfg.domain.h)
    return vals


def _smoothed_inside(fields, cfg):
    dom = cfg.domain
    pts = dom.node_coords(dom.inside_mask)
    return [variable_step_average(pts, cfg.step_inside(), cfg.kernel,
                                  _sample(c),
                                  c.values[dom.inside_mask], dom.h)[0]
            for c in fields]


def mollify_gradient(f, grad_f, cfg):
    dom = cfg.domain
    inside = dom.inside_mask
    samples = [_sample(c) for c in grad_f.components]
    scalar = weighted_z_dot(dom.node_coords(inside), cfg.step_inside(), cfg.kernel,
                            samples, dom.h)
    inv_n = 1.0 / cfg.n if cfg.n is not None else 1.0
    grad_eta = gradient_central(cfg.eta.field)
    out = []
    for axis, (comp, vals) in enumerate(zip(grad_f.components,
                                            _smoothed_inside(grad_f.components, cfg))):
        arr = comp.values.copy()
        arr[inside] = vals
        arr[inside] += inv_n * grad_eta.components[axis].values[inside] * scalar
        out.append(arr)
    return out


def pointwise_gradient_bound_check(f, cfg):
    dom = cfg.domain
    inside = dom.inside_mask
    slack = 1e-8 + 5.0 * dom.h
    grad_f = gradient_central(f)
    grad_tf = mollify_gradient(f, grad_f, cfg)
    t_comp = _smoothed_inside(grad_f.components, cfg)
    t_mag = _smoothed_inside([grad_f.magnitude()], cfg)[0]
    pts = dom.node_coords(inside)
    grad_eta_mag = gradient_central(cfg.eta.field).magnitude().values[inside]
    inv_n = 1.0 / cfg.n if cfg.n is not None else 1.0
    lhs_full = np.sqrt(sum(c[inside] ** 2 for c in grad_tf))
    t_grad_mag = np.sqrt(sum(v ** 2 for v in t_comp))
    margin_full = lhs_full - (t_grad_mag + grad_eta_mag * t_mag) - slack
    diff = np.sqrt(sum((c[inside] - v) ** 2 for c, v in zip(grad_tf, t_comp)))
    margin_comm = diff - (grad_eta_mag * inv_n) * t_mag - slack
    worst_full = int(np.argmax(margin_full))
    worst_comm = int(np.argmax(margin_comm))
    return {
        "slack": slack,
        "violations": int((margin_full > 0).sum() + (margin_comm > 0).sum()),
        "max_margin_triangle": float(margin_full.max()),
        "worst_node_triangle": pts[worst_full].tolist(),
        "max_margin_commutator": float(margin_comm.max()),
        "worst_node_commutator": pts[worst_comm].tolist(),
    }


def trace_check(f, cfg, widths_in_h=(4.0, 8.0, 16.0)):
    dom = cfg.domain
    tf = mollify(f, cfg)
    sigma = dom.sigma().values[dom.inside_mask]
    pts = dom.node_coords(dom.inside_mask)
    step = cfg.step_inside()
    f_in = f.values[dom.inside_mask]
    osc = np.zeros(len(pts))
    active = step >= dom.h
    if active.any():
        idx = np.flatnonzero(active)
        x = pts[idx]
        s = step[idx][:, None]
        best = np.zeros(len(idx))
        for k in range(len(cfg.kernel.nodes)):
            vals = interpolate(dom, f.values, x - s * cfg.kernel.nodes[k])
            np.maximum(best, np.abs(vals - f_in[idx]), out=best)
        osc[idx] = best
    dev = np.abs(tf[dom.inside_mask] - f_in)
    rows = []
    for w in widths_in_h:
        shell = sigma <= w * dom.h
        if not shell.any():
            rows.append({"width_in_h": w, "max_dev": 0.0, "osc_bound": 0.0, "pass": True})
            continue
        max_dev = float(dev[shell].max())
        osc_bound = float(osc[shell].max())
        rows.append({"width_in_h": w, "max_dev": max_dev, "osc_bound": osc_bound,
                     "pass": bool(max_dev <= osc_bound + 1e-12)})
    return {"rows": rows, "violations": sum(not r["pass"] for r in rows)}


def psi_field(f, eta1, eta0, n, kernel):
    dom = eta1.domain
    inside = dom.inside_mask
    grad_f = gradient_central(f)
    samples = [_sample(c) for c in grad_f.components]
    if n is not None:
        step = (eta1.values + eta0.values / n)[inside]
        weights = [g1.values + g0.values / n for g1, g0 in
                   zip(gradient_central(eta1.field).components,
                       gradient_central(eta0.field).components)]
    else:
        step = eta1.values[inside].copy()
        weights = [g.values for g in gradient_central(eta1.field).components]
    scalar = weighted_z_dot(dom.node_coords(inside), step, kernel, samples, dom.h)
    delta = eta1.theta_mask & inside
    out = []
    for axis in range(dom.dim):
        arr = np.zeros(dom.shape)
        arr[inside] = weights[axis][inside] * scalar
        if n is None:
            arr[delta] = 0.0
        out.append(arr)
    return out


def convergence_factor(spec, eta, n, kernel):
    dom = spec.domain
    theta = spec.theta_mask
    pts = dom.node_coords(dom.inside_mask)
    alpha_in = spec.alpha.values[dom.inside_mask]
    step = eta.values[dom.inside_mask] / n
    if spec.mode == "value":  # the ball-max of the smoothed nodes only
        step = np.where(step >= dom.h, step, 0.0)
    best = variable_step_max(pts, step, kernel,
                             lambda p: interpolate(dom, spec.alpha.values, p),
                             alpha_in)
    m = np.ones(dom.shape)
    ratios = np.ones(len(pts))
    free = ~theta[dom.inside_mask]
    ratios[free] = best[free] / alpha_in[free]
    m[dom.inside_mask] = ratios
    m[theta] = 1.0
    return m, float(np.abs(ratios - 1.0).max())


def column_sums(cfg):
    """Per grid node, the column sum of the linear part of ``mollify`` over
    the inside rows, as ``sum_k c_k I_k^T 1`` with ``I_k`` the interpolation
    at ``x - s z_k``: for each kernel node, every smoothed node x (step s >=
    h) adds c_k times the multilinear weight of each cell corner of ``x - s
    z_k``, one corner at a time with ``np.add.at``; every other inside node
    then adds 1 to its own column."""
    dom = cfg.domain
    out = np.zeros(dom.shape)
    step = cfg.step_inside()
    active = step >= dom.h
    x = dom.node_coords()[active]
    s = step[active][:, None]
    for z, c in zip(cfg.kernel.nodes, cfg.kernel.coeffs):
        column = np.zeros(dom.shape)
        y = x - s * z
        idx, frac = [], []
        for axis in range(dom.dim):
            t = (y[:, axis] - dom.bbox[axis][0]) / dom.spacing[axis]
            i0 = np.clip(np.floor(t).astype(np.int64), 0, dom.shape[axis] - 2)
            idx.append(i0)
            frac.append(t - i0)
        for corner in product((0, 1), repeat=dom.dim):
            w = np.full(len(x), c)
            for t, b in zip(frac, corner):
                w = w * (t if b else 1.0 - t)
            np.add.at(column, tuple(i + b for i, b in zip(idx, corner)), w)
        out += column
    nodes = np.argwhere(dom.inside_mask)  # in the order of node_coords
    out[tuple(nodes[~active].T)] += 1.0
    return out.reshape(-1)


def average_entry(points, step, kernel, sample_fns, identity_values, h):
    """Stands in for ``mollikit._sampling.variable_step_average`` with the
    loop above, so that a caller's own arithmetic runs over the reference."""
    rows = [variable_step_average(points, step, kernel, fn, ident, h)[0]
            for fn, ident in zip(sample_fns, identity_values)]
    return SimpleNamespace(values=np.array(rows))
