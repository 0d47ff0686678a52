"""Checks of mollikit outputs against computations made apart from the program.

Nothing here calls into mollikit: grids, kernels, distances and operator
values are rebuilt from their definitions with numpy and scipy.  Every check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.spatial import cKDTree

# Relative tolerances, fixed before any output was looked at: a sum of about
# a thousand interpolated values in double precision is good to ~1e-14.
VALUE_RTOL = 1e-12
GRADIENT_RTOL = 1e-10
AFFINE_ATOL = 1e-10
DISTANCE_ATOL = 1e-12
CHUNK = 32  # check nodes per interpolation batch, to keep the check's memory small


# ---------------------------------------------------------------------- #
# grids, kernels and distances rebuilt from their definitions


def node_axes(bbox, shape) -> list[np.ndarray]:
    return [np.linspace(lo, hi, n) for (lo, hi), n in zip(bbox, shape)]


def node_points(bbox, shape) -> np.ndarray:
    """(prod(shape), N) coordinates of every grid node in row-major order."""
    grids = np.meshgrid(*node_axes(bbox, shape), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def spacing(bbox, shape) -> np.ndarray:
    return np.array([(hi - lo) / (n - 1) for (lo, hi), n in zip(bbox, shape)])


def box_inside(shape) -> np.ndarray:
    inside = np.zeros(shape, dtype=bool)
    inside[tuple(slice(1, -1) for _ in shape)] = True
    return inside


def box_sigma(bbox, shape) -> np.ndarray:
    """Closed-form distance to the boundary of a box (zero on its faces)."""
    grids = np.meshgrid(*node_axes(bbox, shape), indexing="ij")
    out = None
    for g, (lo, hi) in zip(grids, bbox):
        d = np.minimum(g - lo, hi - g)
        out = d if out is None else np.minimum(out, d)
    return out


def bump_coefficients(nodes: np.ndarray, order: int) -> tuple[np.ndarray, float]:
    """Mollification weights m_rho * w * rho(z) of a midpoint-rule bump kernel,
    and m_rho, from the formula rho(z) = exp(-1 / (1 - |z|^2))."""
    dim = nodes.shape[1]
    w = (2.0 / order) ** dim
    r2 = (nodes ** 2).sum(axis=1)
    rho = np.exp(-1.0 / (1.0 - r2))
    m_rho = 1.0 / (w * rho.sum())
    return m_rho * w * rho, m_rho


def bump_lattice(dim: int, order: int) -> np.ndarray:
    """Midpoints of the uniform lattice of spacing 2/order where rho > 0."""
    centers = -1.0 + (np.arange(order) + 0.5) * (2.0 / order)
    grids = np.meshgrid(*([centers] * dim), indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    r2 = (pts ** 2).sum(axis=1)
    with np.errstate(divide="ignore"):
        rho = np.where(r2 < 1.0, np.exp(-1.0 / np.where(r2 < 1.0, 1.0 - r2, 1.0)), 0.0)
    return pts[rho > 0.0]


def face_midpoints(mask: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """Midpoints of the grid edges that join an inside and an outside node."""
    grids = np.meshgrid(*axes, indexing="ij")
    out = []
    for axis in range(mask.ndim):
        lo = [slice(None)] * mask.ndim
        hi = [slice(None)] * mask.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        cross = mask[tuple(lo)] != mask[tuple(hi)]
        pts = np.stack([g[tuple(lo)][cross] for g in grids], axis=-1)
        pts[:, axis] = (grids[axis][tuple(lo)][cross] + grids[axis][tuple(hi)][cross]) / 2.0
        out.append(pts)
    return np.concatenate(out)


def mask_sigma(mask: np.ndarray, bbox) -> np.ndarray:
    """Signed distance to the boundary faces of a mask domain (KD-tree)."""
    axes = node_axes(bbox, mask.shape)
    d, _ = cKDTree(face_midpoints(mask, axes)).query(node_points(bbox, mask.shape))
    d = d.reshape(mask.shape)
    return np.where(mask, d, -d)


def theta_distance(mask: np.ndarray, delta: np.ndarray, bbox) -> np.ndarray:
    """Distance to the boundary faces plus the interior zero-set nodes,
    positive inside and minus the boundary distance outside."""
    sigma = mask_sigma(mask, bbox)
    pts = node_points(bbox, mask.shape)
    d, _ = cKDTree(pts[delta.reshape(-1)]).query(pts)
    return np.where(mask, np.minimum(sigma, d.reshape(mask.shape)), sigma)


def gradient(values: np.ndarray, h: np.ndarray) -> list[np.ndarray]:
    """Central differences, one-sided at the grid edges, one array per axis."""
    return list(np.gradient(values, *h)) if values.ndim > 1 else [np.gradient(values, h[0])]


def max_gradient(values: np.ndarray, inside: np.ndarray, h: np.ndarray) -> float:
    """Largest central-difference gradient magnitude over the inside nodes."""
    return float(np.sqrt(sum(p * p for p in gradient(values, h)))[inside].max())


# ---------------------------------------------------------------------- #
# checks


def _close(name: str, got: np.ndarray, ref: np.ndarray, tol: float) -> list[str]:
    err = float(np.abs(np.asarray(got) - np.asarray(ref)).max())
    return [] if err <= tol else [f"{name}: max deviation {err:.3e} > {tol:.3e}"]


def check_kernel(nodes: np.ndarray, order: int) -> list[str]:
    """The program's kernel nodes are the positive-profile lattice midpoints."""
    ref = bump_lattice(nodes.shape[1], order)
    if len(ref) != len(nodes):
        return [f"kernel has {len(nodes)} nodes, lattice has {len(ref)}"]
    a = nodes[np.lexsort(nodes.T[::-1])]
    b = ref[np.lexsort(ref.T[::-1])]
    return _close("kernel nodes", a, b, 1e-14)


def check_operator(case: dict, f: np.ndarray, tf: np.ndarray,
                   grad_tf: list[np.ndarray], sample: np.ndarray) -> list[str]:
    """Smoothed field and its gradient against a direct quadrature.

    ``case`` holds the grid (bbox, shape), the kernel nodes and order, the
    step profile ``eta`` and family index ``n``.  At the flat node indices
    ``sample`` the operator is recomputed as sum_k c_k f(x - s z_k) with
    linear interpolation from scipy and weights from the bump formula.
    """
    bbox, shape = case["bbox"], case["shape"]
    h = spacing(bbox, shape)
    nodes = case["nodes"]
    coeffs, _ = bump_coefficients(nodes, case["order"])
    inside = box_inside(shape)
    step = np.where(inside, case["eta"] / case["n"], 0.0)
    active = inside & (step >= h.max())
    fails = []

    if not np.array_equal(tf[~inside], f[~inside]):
        fails.append("boundary values changed")
    if not np.array_equal(tf[inside & ~active], f[inside & ~active]):
        fails.append("nodes below the subgrid threshold changed")
    if not np.abs(tf).max() <= np.abs(f).max():
        fails.append(f"sup bound: max|Tf| {np.abs(tf).max()!r} > max|f| {np.abs(f).max()!r}")

    axes = node_axes(bbox, shape)
    grad_f = gradient(f, h)
    grad_eta = gradient(case["eta"], h)
    if not active.reshape(-1)[sample].all():
        return fails + ["sample contains inactive nodes"]
    interp = [RegularGridInterpolator(axes, v, method="linear") for v in [f] + grad_f]
    x_all = node_points(bbox, shape)
    got = [tf.reshape(-1)[sample]] + [g.reshape(-1)[sample] for g in grad_tf]
    ref = [np.empty(len(sample)) for _ in got]
    for lo in range(0, len(sample), CHUNK):
        idx = sample[lo:lo + CHUNK]
        s = step.reshape(-1)[idx]
        pts = (x_all[idx][None, :, :] - s[None, :, None] * nodes[:, None, :]).reshape(-1, len(shape))
        vals = [fn(pts).reshape(len(nodes), len(idx)) for fn in interp]
        sl = slice(lo, lo + len(idx))
        ref[0][sl] = coeffs @ vals[0]
        z_dot = coeffs @ sum(-nodes[:, a][:, None] * v for a, v in enumerate(vals[1:]))
        for a in range(len(shape)):
            ref[1 + a][sl] = coeffs @ vals[1 + a] + grad_eta[a].reshape(-1)[idx] / case["n"] * z_dot

    fails += _close("Tf vs quadrature", got[0], ref[0], VALUE_RTOL * np.abs(f).max())
    gmax = max(float(np.abs(g).max()) for g in grad_f)
    for a in range(len(shape)):
        fails += _close(f"grad Tf axis {a} vs quadrature", got[1 + a], ref[1 + a],
                        GRADIENT_RTOL * gmax)
    if not all(np.array_equal(g[~inside], gf[~inside]) for g, gf in zip(grad_tf, grad_f)):
        fails.append("boundary gradient is not the input gradient")
    return fails


def check_reproduction(c: float, tf_const: np.ndarray, affine: np.ndarray,
                       tf_affine: np.ndarray, slope: np.ndarray,
                       grad_affine: list[np.ndarray]) -> list[str]:
    """Constants bitwise; affine fields and their gradients within 1e-10."""
    fails = []
    if not (tf_const == c).all():
        fails.append(f"constant {c!r} not reproduced bitwise "
                     f"(max dev {np.abs(tf_const - c).max():.3e})")
    fails += _close("affine field", tf_affine, affine, AFFINE_ATOL)
    for a, g in enumerate(grad_affine):
        fails += _close(f"affine gradient axis {a}", g, slope[a], AFFINE_ATOL)
    return fails


def check_step(name: str, eta: np.ndarray, theta: np.ndarray, inside: np.ndarray,
               dist: np.ndarray, lower: np.ndarray | None = None,
               upper: np.ndarray | None = None) -> list[str]:
    """eta = 0 exactly on Theta, 0 < eta < dist(., Theta) off Theta, and
    lower <= eta <= upper at the inside nodes off Theta when given."""
    fails = []
    if (eta[theta] != 0.0).any():
        fails.append(f"{name}: nonzero on Theta at {int((eta[theta] != 0.0).sum())} nodes")
    off = inside & ~theta
    e, d = eta[off], dist[off]
    if not ((e > 0.0) & (e < d)).all():
        fails.append(f"{name}: 0 < eta < dist fails at {int((~((e > 0) & (e < d))).sum())} nodes")
    if lower is not None and (e < lower[off]).any():
        fails.append(f"{name}: below its lower certificate at {int((e < lower[off]).sum())} nodes")
    if upper is not None and (e > upper[off]).any():
        fails.append(f"{name}: above its upper certificate at {int((e > upper[off]).sum())} nodes")
    return fails


def check_distance(name: str, got: np.ndarray, ref: np.ndarray) -> list[str]:
    return _close(name, got, ref, DISTANCE_ATOL)


def quadratic_kappa(epsilon: float) -> float:
    return ((1.0 - epsilon) / (1.0 + epsilon)) ** 2


def norm1_bound(dim: int, order: int, kappa: float) -> float:
    """m_rho (omega_N + omega_N N ln(2/kappa)) for a bump kernel."""
    _, m_rho = bump_coefficients(bump_lattice(dim, order), order)
    omega = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[dim]
    return m_rho * (omega + omega * dim * math.log(2.0 / kappa))


def check_cli(out: dict, case: dict) -> list[str]:
    """One pass of the five subcommands, read back from disk.

    ``out`` holds the exit codes, the parsed JSON reports and the CSV
    arrays; ``case`` the grid, kernel order, epsilon and the CSV inputs.
    """
    fails = [f"{cmd} exited {rc}" for cmd, rc in out["exit"].items() if rc != 0]
    if fails:
        return fails
    bbox, shape = case["bbox"], case["shape"]
    inside = box_inside(shape)
    sigma = box_sigma(bbox, shape)
    kappa = quadratic_kappa(case["epsilon"])

    for cmd in ("study", "feasible"):
        bad = [c["name"] for c in out[cmd]["bound_checks"]
               if not c["lhs"] <= c["rhs"] + c["slack"]]
        if bad:
            fails.append(f"{cmd} bound checks fail: {bad}")
    if out["eta_report"]["violations"]:
        fails.append(f"eta report lists violations {out['eta_report']['violations']}")
    if not out["mollify_report"]["sup_ratio"] <= 1.0:
        fails.append(f"mollify sup ratio {out['mollify_report']['sup_ratio']} > 1")

    fails += check_step("eta --builder quadratic", out["eta"], ~inside, inside, sigma,
                        kappa * sigma ** 2, sigma ** 2)

    bound = norm1_bound(len(shape), case["order"], kappa)
    est = out["norm1"]["estimate"]
    if not est <= 1.1 * bound:
        fails.append(f"norm1 estimate {est} > 1.1 x bound {bound}")
    if not abs(out["norm1"]["bound"] - bound) <= 1e-12 * bound:
        fails.append(f"norm1 reports bound {out['norm1']['bound']}, recomputed {bound}")

    alpha = case["alpha"]
    h = spacing(bbox, shape)
    slack = 1e-8 + 3.0 * h.max() * max_gradient(alpha, inside, h)
    for n, g in out["iterates"].items():
        excess = float((np.abs(g) - alpha)[inside].max())
        if not excess <= slack:
            fails.append(f"feasible iterate n={n} exceeds alpha by {excess} > {slack}")
    if not np.array_equal(out["Tf"][~inside], case["f"][~inside]):
        fails.append("mollify output changed boundary values")
    return fails
