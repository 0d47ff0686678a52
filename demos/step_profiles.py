"""Gallery of certified step profiles.

The operator's behaviour is governed by the step function: how fast it
vanishes at the boundary (and on interior zero sets) decides which norms
the smoothing is bounded in.  Each builder certifies its defining bounds at
every node and raises if a certificate fails, so a constructed profile is a
proof object as much as an array.

Run:  python demos/step_profiles.py
"""

import numpy as np

from mollikit import (Domain, ScalarField, build_whitney_eta, calibrated_eta,
                      quadratic_eta, regularized_distance)

dom = Domain.box([(0.0, 1.0)], 513)
x = dom.axis_coords(0)
sigma = dom.sigma().values

print("step profiles on (0, 1), 513 nodes\n")

# 1. small-slope profile below eps * distance (the all-purpose default)
whit = build_whitney_eta(dom, epsilon=0.25)
print("whitney-style: eta <= 0.25 dist, certified |grad eta| "
      f"<= {whit.grad_bound:.4f}")

# 2. regularized distance: a smooth stand-in for sigma itself
reg = regularized_distance(dom, 0.1)
ratio = reg.values[dom.inside_mask] / sigma[dom.inside_mask]
print(f"regularized distance: eta/sigma in [{ratio.min():.4f}, {ratio.max():.4f}]"
      " (certified within [0.9, 1.1])")

# 3. quadratic decay: the profile that makes the operator L1-bounded
quad = quadratic_eta(dom, 0.1)
print(f"quadratic decay: kappa = {quad.kappa:.6f}, "
      f"kappa sigma^2 <= eta <= sigma^2 at every node")

# 4. calibrated to a vanishing bound via its exact modulus of continuity,
#    under a Whitney base that vanishes on the bound's zero set
alpha = ScalarField(dom, np.minimum(x, 1.0 - x) * (np.abs(x - 0.5) >= 0.125))
cal = calibrated_eta(alpha, epsilon=0.25)
print("calibrated: vanishes on the bound's zero set "
      f"({int((cal.values == 0).sum())} zero nodes), omega(eta) <= alpha everywhere")

print("\nprofile values at a few nodes (x, whitney, regdist, quadratic, calibrated):")
for xi in (0.05, 0.2, 0.45, 0.5):
    i = int(round(xi / dom.h))
    print(f"  x={x[i]:.3f}  {whit.values[i]:.5f}  {reg.values[i]:.5f}"
          f"  {quad.values[i]:.5f}  {cal.values[i]:.5f}")

print("\nevery profile satisfies 0 < eta < dist(., its zero set) off the set,")
print("vanishes exactly on it, and carries a measured gradient bound.")
