"""Smoothing inside a constraint set with a vanishing bound.

Feasible fields satisfy |f| <= alpha pointwise, where the bound alpha is
allowed to vanish on parts of the closure (an obstacle touching zero).
Smoothing such a field can overshoot the bound, but only by the local
ball-sup ratio of alpha; dividing by one plus its sup-norm excess restores
feasibility exactly, and the factor tends to one.  Iterating over the
family gives smooth feasible approximations converging to f: constraint
sets of this kind contain their smooth members densely.

Run:  python demos/feasible_smoothing.py
"""

import numpy as np

from mollikit import (ConstraintSpec, Domain, ScalarField, build_whitney_eta,
                      calibrated_eta, convergence_factor, density_study,
                      estimate_modulus, feasible_smooth, make_kernel, membership)

dom = Domain.box([(0.0, 1.0)], 513)
x = dom.axis_coords(0)
alpha = ScalarField(dom, np.minimum(x, 1.0 - x))  # vanishes at both endpoints
spec = ConstraintSpec(alpha, "value")
kernel = make_kernel("bump", 1, 64)

# the step profile is calibrated to alpha through its modulus of
# continuity, so the ball-sup ratio of alpha tends to one uniformly
base = build_whitney_eta(dom, spec.theta_mask, 0.25)
eta = calibrated_eta(dom, alpha, estimate_modulus(alpha, base.values.max()), base)

f = ScalarField(dom, 0.9 * alpha.values)
ok, _, margin = membership(f, spec)
print(f"input: f = 0.9 alpha, feasible = {ok} (margin {margin:+.2e})\n")

print("feasible smoothing across the family:")
for n in (1, 4, 16, 64):
    g, info = feasible_smooth(f, spec, eta, kernel, n)
    ok, _, m = membership(g, spec)
    print(f"  n = {n:3d}: scale beta = {info['beta']:.6f},  "
          f"||M_n - 1|| = {info['mn_sup']:.2e},  output margin {m:+.2e}")

print("\nball-sup factor shrinks like 1/n:")
for n in (1, 4, 16, 64):
    _, sup = convergence_factor(spec, eta, n, kernel)
    print(f"  n = {n:3d}: ||M_n - 1||_inf = {sup:.3e}")

print("\ndensity study (Sobolev errors of the feasible iterates):")
rep = density_study(f, spec, eta, kernel, [1, 2, 4, 8, 16], "W1p")
for n, e in zip(rep.n_values, rep.errors["W12"]):
    print(f"  n = {n:2d}: W12 error {e:.4e}")
print(f"  all feasibility and decay checks pass: {rep.passed()}")
