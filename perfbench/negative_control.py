"""Negative control for the benchmark's checks.

Each check is first given real mollikit output on small grids, which it
must accept, and then a copy with one corruption, which it must reject with
the expected message.  Run either way:

    python3 perfbench/negative_control.py
    python3 -m pytest perfbench/negative_control.py
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import mollikit  # noqa: E402
import workloads  # noqa: E402


class SmallBox(workloads.OperatorBox):
    GEOMETRIES = ((1, 257, 16, 1), (2, 41, 8, 1))
    SAMPLE_NODES = 32


class SmallMask(workloads.EtaMask):
    SMALL, LARGE = 41, 61


class SmallCli(workloads.StudiesCli):
    RES = 49
    ORDER = 12


def expect(fails: list[str], what: str) -> None:
    assert any(what in f for f in fails), f"expected a failure about {what!r}, got {fails}"


def test_operator_checks():
    wl = SmallBox()
    wl.setup(7)
    fields = wl.make_input(0)
    out = wl.op(fields)
    assert wl.check(0, fields, out) == []
    assert wl.check_run() == []

    for c, (case, f, (tf, grad)) in enumerate(zip(wl.cases, fields, out)):
        ref = wl.reference_case(case)
        sample = wl.sample_nodes(ref, 0, c)
        inside = checks.box_inside(ref["shape"])
        active = (inside & (ref["eta"] / ref["n"] >= checks.spacing(ref["bbox"], ref["shape"]).max()))

        def run(tf_values=tf.values, grads=grad.arrays()):
            return checks.check_operator(ref, f.values, tf_values, grads, sample)

        node = np.unravel_index(sample[len(sample) // 2], ref["shape"])
        bad = tf.values.copy()
        bad[node] += 1e-6
        expect(run(bad), "Tf vs quadrature")

        bad = tf.values.copy()
        edge = np.unravel_index(np.flatnonzero(~inside.reshape(-1))[0], ref["shape"])
        bad[edge] = np.nextafter(bad[edge], np.inf)
        expect(run(bad), "boundary values changed")

        bad = tf.values.copy()
        bad[np.unravel_index(np.flatnonzero((inside & ~active).reshape(-1))[0], ref["shape"])] += 1e-9
        expect(run(bad), "subgrid threshold")

        bad = tf.values.copy()
        free = np.setdiff1d(np.flatnonzero(active.reshape(-1)), sample)[0]
        bad[np.unravel_index(free, ref["shape"])] = 1.001 * np.abs(f.values).max()
        expect(run(bad), "sup bound")

        grads = [g.copy() for g in grad.arrays()]
        grads[-1][node] += 1e-6
        expect(run(grads=grads), "grad Tf axis")

        eta = ref["eta"].copy()
        sigma = checks.box_sigma(ref["bbox"], ref["shape"])
        kappa = checks.quadratic_kappa(wl.EPSILON)
        eta[node] = 1.0001 * sigma[node] ** 2
        expect(checks.check_step("eta", eta, ~inside, inside, sigma, kappa * sigma ** 2,
                                 sigma ** 2), "above its upper certificate")
        eta[node] = 0.9999 * kappa * sigma[node] ** 2
        expect(checks.check_step("eta", eta, ~inside, inside, sigma, kappa * sigma ** 2,
                                 sigma ** 2), "below its lower certificate")
        eta = ref["eta"].copy()
        eta[edge] = 1e-300
        expect(checks.check_step("eta", eta, ~inside, inside, sigma), "nonzero on Theta")

        nodes = ref["nodes"].copy()
        nodes[3, 0] += 1e-12
        expect(checks.check_kernel(nodes, ref["order"]), "kernel nodes")

        cfg, dom = case["cfg"], case["dom"]
        const = mollikit.mollify(mollikit.ScalarField.constant(dom, 0.3), cfg).values
        slope = np.linspace(0.5, -0.25, dom.dim)
        affine = mollikit.ScalarField.from_function(
            dom, lambda *g: sum(a * x for a, x in zip(slope, g)) + 0.3)
        tf_a = mollikit.mollify(affine, cfg).values
        grad_a = mollikit.mollify_gradient(affine, mollikit.gradient_central(affine), cfg).arrays()
        assert checks.check_reproduction(0.3, const, affine.values, tf_a, slope, grad_a) == []
        bad = const.copy()
        bad[node] = np.nextafter(0.3, 1.0)
        expect(checks.check_reproduction(0.3, bad, affine.values, tf_a, slope, grad_a),
               "not reproduced bitwise")
        bad = tf_a.copy()
        bad[node] += 1e-9
        expect(checks.check_reproduction(0.3, const, affine.values, bad, slope, grad_a),
               "affine field")
        bad = [g.copy() for g in grad_a]
        bad[0][node] += 1e-9
        expect(checks.check_reproduction(0.3, const, affine.values, tf_a, slope, bad),
               "affine gradient")


def test_mask_checks():
    wl = SmallMask()
    wl.setup(3)
    assert wl.check_run() == []
    inp = wl.make_input(0)
    out = wl.op(inp)
    assert wl.check(0, inp, out) == []
    inside, segment, _ = inp["small"]
    inside2, _, arc = inp["large"]
    half_cell = 0.5 / (wl.SMALL - 1)
    mid = tuple(np.argwhere(inside & ~segment)[len(np.argwhere(inside)) // 3])
    edge = tuple(np.argwhere(~inside)[0])
    sigma = checks.mask_sigma(inside, workloads.BOX2)

    def corrupt(key, node, value=None, shift=0.0):
        bad = copy.deepcopy(out)
        bad[key][node] = value if value is not None else bad[key][node] + shift
        return wl.check(0, inp, bad)

    expect(corrupt("sigma", mid, shift=half_cell), "small sigma")
    mid2 = tuple(np.argwhere(inside2 & ~arc)[len(np.argwhere(inside2)) // 2])
    expect(corrupt("sigma2", mid2, shift=0.5 / (wl.LARGE - 1)), "large sigma")
    expect(corrupt("theta2", mid2, shift=0.5 / (wl.LARGE - 1)), "large theta distance")
    expect(corrupt("quad", edge, value=1e-300), "quadratic_eta: nonzero on Theta")
    expect(corrupt("quad", mid, value=0.0), "quadratic_eta: 0 < eta < dist")
    expect(corrupt("quad", mid, value=0.999 * checks.quadratic_kappa(wl.EPSILON)
                   * sigma[mid] ** 2), "quadratic_eta: below")
    expect(corrupt("bv", mid, value=1.0001 * sigma[mid] ** 2), "bv_step_eta: above")
    seg = tuple(np.argwhere(segment)[0])
    expect(corrupt("whitney", seg, value=1e-300), "build_whitney_eta: nonzero on Theta")
    dist = checks.theta_distance(inside, segment, workloads.BOX2)
    expect(corrupt("whitney", mid, value=0.5 * dist[mid]), "build_whitney_eta: above")
    bad = copy.deepcopy(out)
    bad["whitney"] = bad["whitney"] * 1.5
    expect(wl.check(0, inp, bad), "build_whitney_eta: slope")


def test_cli_checks():
    tmp = tempfile.mkdtemp(prefix=".negative_control-", dir=HERE.parent)
    try:
        wl = SmallCli(os.path.join(tmp, "work"))
        wl.setup(5)
        out_dir = wl.make_input(0)
        codes = wl.op(out_dir)
        read = wl.read_outputs(out_dir, codes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert checks.check_cli(read, wl.case) == []

    def corrupt(edit):
        bad = copy.deepcopy(read)
        edit(bad)
        return checks.check_cli(bad, wl.case)

    inside = checks.box_inside(wl.case["shape"])
    edge = tuple(np.argwhere(~inside)[0])
    mid = tuple(np.argwhere(inside)[len(np.argwhere(inside)) // 3])
    expect(corrupt(lambda r: r["exit"].update(feasible=1)), "feasible exited 1")
    expect(corrupt(lambda r: r["study"]["bound_checks"][0].update(lhs=1e9)), "study bound checks")
    expect(corrupt(lambda r: r["feasible"]["bound_checks"][0].update(lhs=1e9)),
           "feasible bound checks")
    expect(corrupt(lambda r: r["eta_report"].update(violations=["x"])), "eta report")
    expect(corrupt(lambda r: r["mollify_report"].update(sup_ratio=1.0 + 1e-12)), "sup ratio")
    expect(corrupt(lambda r: r["norm1"].update(estimate=2.0 * r["norm1"]["bound"])),
           "norm1 estimate")
    expect(corrupt(lambda r: r["norm1"].update(bound=r["norm1"]["bound"] * (1 + 1e-9))),
           "norm1 reports bound")
    alpha = wl.case["alpha"]

    def lift(r):
        r["iterates"][4][mid] = alpha[mid] + 1.0  # far beyond the 3 h Lip(alpha) slack

    expect(corrupt(lift), "feasible iterate n=4")

    def shift_edge(r):
        r["Tf"][edge] = np.nextafter(r["Tf"][edge], np.inf)

    expect(corrupt(shift_edge), "boundary values")

    def eta_edge(r):
        r["eta"][edge] = 1e-300

    expect(corrupt(eta_edge), "nonzero on Theta")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
