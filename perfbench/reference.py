"""Reference figures quoted in README.md, measured once per machine.

    python3 perfbench/reference.py

Times the ROADMAP baselines at their sizes: ``quadratic_eta`` on a 2D box
at 256^2, ``mollify`` at 256^2 (bump order 32, n=2) and at 48^3 in 3D
(bump order 8, n=1), each at threads=1 and threads=2, and prints one JSON
object.  ns/sample is the ``mollify`` wall time over (active nodes x kernel
nodes).  Not part of a benchmark run.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import mollikit  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> int:
    out = {}
    for dim, res, order, n in ((2, 256, 32, 2), (3, 48, 8, 1)):
        tag = f"{dim}d_{res}"
        dom = mollikit.Domain.box([(0.0, 1.0)] * dim, res)
        kernel = mollikit.make_kernel("bump", dim, order)
        eta, dt = timed(lambda: mollikit.quadratic_eta(dom, 0.1, kernel))
        out[f"quadratic_eta_{tag}_s"] = dt
        cfg = mollikit.MollifierConfig(kernel, eta, n=n)
        rng = np.random.default_rng(0)
        f = mollikit.ScalarField(dom, rng.standard_normal(dom.shape))
        samples = int((cfg.step_inside() >= dom.h).sum()) * len(kernel.nodes)
        out[f"samples_{tag}"] = samples
        results = []
        for threads in (1, 2):
            tf, dt = timed(lambda: mollikit.mollify(f, cfg, threads=threads))
            results.append(tf.values)
            out[f"mollify_{tag}_{threads}t_s"] = dt
            out[f"ns_per_sample_{tag}_{threads}t"] = dt * 1e9 / samples
        out[f"bitwise_equal_{tag}"] = bool((results[0] == results[1]).all())
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
