"""Total variation under smoothing: plain family versus modified family.

Smoothing a jump keeps its total variation bounded, but the plain family
only promises a bound (weak*-style behaviour).  The modified family swaps
in plateau kernels and index-dependent quadratic steps whose operator norms
tend to one; its smoothed jumps carry total variation converging to the
input's, which is strict convergence.

Run:  python demos/bv_strict_smoothing.py
"""

import numpy as np

from mollikit import (Domain, MollifierConfig, ScalarField, convergence_study,
                      make_kernel, modified_config, mollify, norm, quadratic_eta)

dom = Domain.box([(0.0, 1.0)], 1025)
x = dom.axis_coords(0)
jump = ScalarField(dom, (x > 0.5).astype(float))
kernel = make_kernel("bump", 1, 64)
quad = quadratic_eta(dom, 0.1, kernel)

print(f"input: unit jump at 1/2, TV = {norm(jump, 'TV'):.1f}\n")

print("plain family (bump kernel, quadratic step / n):")
rep = convergence_study(jump, lambda n: MollifierConfig(kernel, quad, n=n),
                        [1, 2, 4, 8, 16], ["L1"], "step", bv_mode="weakstar")
for n, e, tv in zip(rep.n_values, rep.errors["L1"], rep.errors["TV_of_Tf"]):
    print(f"  n = {n:2d}:  L1 error {e:.4e}   TV(T_n f) = {tv:.6f}")
print("  -> L1 error decays while TV stays bounded\n")

print("modified family (plateau kernels, index-n quadratic steps):")
for n in (2, 4, 8, 16):
    cfg = modified_config(n, quad, order=64)
    tv = norm(mollify(jump, cfg), "TV")
    print(f"  n = {n:2d}:  TV(modified T_n f) = {tv:.6f}")
print("  -> TV converges to the input's: strict convergence behaviour")
