"""The three benchmark workloads.

Each workload has the same steps, which ``run.py`` times separately:

* ``setup(seed)``            builds domains, kernels, seeded inputs and fixed
                             step profiles (timed as ``setup_s``);
* ``make_input(i)``          builds the input of operation i (untimed);
* ``op(inp, step)``          one operation through the public mollikit API;
                             ``step(fn, *args)`` calls ``fn`` and times it,
                             so the operation is timed in a few steps;
* ``check(i, inp, out)``     checks the output against independent
                             computations (untimed);
* ``check_run()``            checks run-wide properties once (untimed);
* ``PROBE``, ``SETUP_PROBE``  the parts of the machine-speed probe
                             (``speed.py``) that mirror the work of the
                             operation and of the set-up.

Every operation of a run does the same work, so counters repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil

import numpy as np

import checks
import mollikit
from mollikit import cli

BOX2 = ((0.0, 1.0), (0.0, 1.0))


def call(fn, *args, **kwargs):
    """The untimed ``step`` of an operation."""
    return fn(*args, **kwargs)


class OperatorBox:
    """One box geometry serving many fields: 2D 128^2 and 3D 32^3.

    Box distances are closed-form, so time goes to the sampling loop and
    ``Domain.interpolate``; a mask-distance change should not move it.
    """

    GEOMETRIES = (  # (dim, resolution, kernel order, family index n)
        (2, 128, 32, 2),
        (3, 32, 8, 1),
    )
    EPSILON = 0.1
    SAMPLE_NODES = 256
    PROBE = ("sampling",)
    SETUP_PROBE = ("python", "gather")  # follows the set-up better than "sampling"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cases = []
        for dim, res, order, n in self.GEOMETRIES:
            dom = mollikit.Domain.box([(0.0, 1.0)] * dim, res)
            kernel = mollikit.make_kernel("bump", dim, order)
            eta = mollikit.quadratic_eta(dom, self.EPSILON, kernel)
            cfg = mollikit.MollifierConfig(kernel, eta, n=n)
            self.cases.append({"dom": dom, "cfg": cfg})

    def make_input(self, i: int) -> list:
        fields = []
        for c, case in enumerate(self.cases):
            dom = case["dom"]
            rng = np.random.default_rng([self.seed, i, c])
            freq = rng.uniform(0.5, 2.0, dom.dim)
            phase = rng.uniform(0.0, 2.0 * np.pi, dom.dim)
            grids = dom.node_grids()
            smooth = np.prod([np.sin(np.pi * k * g + p)
                              for k, g, p in zip(freq, grids, phase)], axis=0)
            noise = 0.1 * rng.standard_normal(dom.shape)
            fields.append(mollikit.ScalarField(dom, smooth + noise))
        return fields

    def op(self, fields: list, step=call) -> list:
        out = []
        for case, f in zip(self.cases, fields):
            cfg = case["cfg"]
            tf = step(mollikit.mollify, f, cfg)
            grad = step(lambda: mollikit.mollify_gradient(f, mollikit.gradient_central(f), cfg))
            out.append((tf, grad))
        return out

    def reference_case(self, case) -> dict:
        """What ``checks.check_operator`` needs to know about a geometry."""
        dom, cfg = case["dom"], case["cfg"]
        return {"bbox": dom.bbox, "shape": dom.shape, "nodes": cfg.kernel.nodes,
                "order": cfg.kernel.order, "eta": cfg.eta.values, "n": cfg.n}

    def sample_nodes(self, case: dict, i: int, c: int) -> np.ndarray:
        """Seeded flat indices of active nodes at which the check recomputes Tf."""
        h = checks.spacing(case["bbox"], case["shape"]).max()
        inside = checks.box_inside(case["shape"])
        active = np.flatnonzero((inside & (case["eta"] / case["n"] >= h)).reshape(-1))
        rng = np.random.default_rng([self.seed, i, c, 1])
        return np.sort(rng.choice(active, self.SAMPLE_NODES, replace=False))

    def check(self, i: int, fields: list, out: list) -> list[str]:
        fails = []
        for c, (case, f, (tf, grad)) in enumerate(zip(self.cases, fields, out)):
            ref = self.reference_case(case)
            fails += checks.check_operator(ref, f.values, tf.values, grad.arrays(),
                                           self.sample_nodes(ref, i, c))
        return fails

    def check_run(self) -> list[str]:
        """Kernel lattice, step certificate, constant and affine reproduction."""
        fails = []
        rng = np.random.default_rng([self.seed, 1 << 20])
        for case in self.cases:
            dom, cfg = case["dom"], case["cfg"]
            ref = self.reference_case(case)
            fails += checks.check_kernel(cfg.kernel.nodes, cfg.kernel.order)
            sigma = checks.box_sigma(dom.bbox, dom.shape)
            inside = checks.box_inside(dom.shape)
            fails += checks.check_step(f"{dom.dim}D quadratic eta", ref["eta"], ~inside,
                                       inside, sigma,
                                       checks.quadratic_kappa(self.EPSILON) * sigma ** 2,
                                       sigma ** 2)
            c = float(rng.uniform(-2.0, 2.0))
            tf_c = mollikit.mollify(mollikit.ScalarField.constant(dom, c), cfg)
            slope = rng.uniform(-1.0, 1.0, dom.dim)
            affine = mollikit.ScalarField.from_function(
                dom, lambda *g: sum(a * x for a, x in zip(slope, g)) + c)
            tf_a = mollikit.mollify(affine, cfg)
            grad_a = mollikit.mollify_gradient(affine, mollikit.gradient_central(affine), cfg)
            fails += checks.check_reproduction(c, tf_c.values, affine.values, tf_a.values,
                                               slope, grad_a.arrays())
        return fails

    def repeat_mollify(self, fields: list, out: list, threads: int) -> list[str]:
        """Repeat the operation's 2D ``mollify`` at another thread count; the
        output must be bitwise the same."""
        tf = mollikit.mollify(fields[0], self.cases[0]["cfg"], threads=threads)
        if np.array_equal(tf.values, out[0][0].values):
            return []
        return [f"2D mollify at threads={threads} differs from threads=1"]


class EtaMask:
    """Mask geometries each used once: step builders on a notched disk at
    65^2, then boundary and Theta distances on a notched disk at 193^2.

    No operator call; time goes to the brute-force mask distances.
    """

    SMALL, LARGE = 65, 193
    PROBE = SETUP_PROBE = ("python", "gather")
    EPSILON = 0.1
    BV_N = 2
    WHITNEY_EPSILON = 0.25
    KERNEL_ORDER = 24
    # operation i turns the masks by a multiple of 90 degrees and shifts them
    # by whole cells on the small grid (about the same distance on the large
    # one); the disk keeps 5 cells of margin at 65^2
    SHIFTS = range(-3, 4)

    @staticmethod
    def notched_disk(n: int, turn: int, shift: tuple[int, int]):
        """Disk of radius 0.42 with a slot of half-width 0.06 cut from its
        center to its rim, plus two interior zero sets away from the slot:
        a straight segment and a circular arc; all three masks turned by
        ``turn`` quarter turns and shifted by ``shift`` cells."""
        x = np.linspace(0.0, 1.0, n)
        gx, gy = np.meshgrid(x, x, indexing="ij")
        half = 0.5 / (n - 1)
        inside = (np.hypot(gx - 0.5, gy - 0.5) < 0.42) & ~((np.abs(gy - 0.5) < 0.06) & (gx > 0.5))
        segment = inside & (np.abs(gx - 0.3) < half) & (np.abs(gy - 0.5) < 0.25)
        arc = inside & (np.abs(np.hypot(gx - 0.45, gy - 0.5) - 0.22) < half) & (gx < 0.55)
        masks = [np.roll(np.rot90(m, turn), shift, axis=(0, 1)) for m in (inside, segment, arc)]
        if masks[0][[0, -1]].any() or masks[0][:, [0, -1]].any():
            raise ValueError(f"shift {shift} moves the disk off the {n}^2 grid")
        return masks

    def setup(self, seed: int) -> None:
        """The kernel of the step builders (their default, built once here)."""
        self.seed = seed
        self.kernel = mollikit.make_kernel("bump", 2, self.KERNEL_ORDER)

    def make_input(self, i: int) -> dict:
        """The masks of operation i: a seeded order of the 4 x 7 x 7 turns and
        shifts, so that no two operations of a run share a geometry."""
        k = len(self.SHIFTS)
        configs = 4 * k * k
        c = int(np.random.default_rng([self.seed, 3]).permutation(configs)[i % configs])
        turn, dx, dy = c // (k * k), self.SHIFTS[c // k % k], self.SHIFTS[c % k]
        scale = (self.LARGE - 1) / (self.SMALL - 1)
        return {"small": self.notched_disk(self.SMALL, turn, (dx, dy)),
                "large": self.notched_disk(self.LARGE, turn,
                                           (int(dx * scale), int(dy * scale)))}

    def op(self, inp: dict, step=call) -> dict:
        inside, segment, _ = inp["small"]
        dom = step(mollikit.Domain.from_mask, BOX2, inside)
        quad = step(mollikit.quadratic_eta, dom, self.EPSILON, self.kernel)
        bv = step(mollikit.bv_step_eta, dom, self.BV_N, quad, self.kernel)
        whitney = step(mollikit.build_whitney_eta, dom, ~inside | segment, self.WHITNEY_EPSILON)

        inside2, _, arc = inp["large"]
        dom2 = step(lambda: mollikit.Domain.from_mask(BOX2, inside2).with_delta(arc))
        sigma2 = step(dom2.sigma)
        theta2 = step(mollikit.distance_field, dom2, "theta")
        sigma = step(dom.sigma)
        return {"sigma": sigma.values, "quad": quad.values, "bv": bv.values,
                "whitney": whitney.values, "sigma2": sigma2.values, "theta2": theta2.values}

    def check(self, i: int, inp: dict, out: dict) -> list[str]:
        inside, segment, _ = inp["small"]
        sigma = checks.mask_sigma(inside, BOX2)
        fails = checks.check_distance("small sigma", out["sigma"], sigma)
        outside = ~inside
        s2 = sigma ** 2
        fails += checks.check_step("quadratic_eta", out["quad"], outside, inside,
                                   sigma, checks.quadratic_kappa(self.EPSILON) * s2, s2)
        n = self.BV_N
        fails += checks.check_step("bv_step_eta", out["bv"], outside, inside, sigma,
                                   (sigma * (1.0 - sigma / n)) ** 2, s2)
        theta = outside | segment
        dist = checks.theta_distance(inside, segment, BOX2)
        eps = self.WHITNEY_EPSILON
        fails += checks.check_step("build_whitney_eta", out["whitney"], theta, inside,
                                   dist, upper=eps * dist)
        h = checks.spacing(BOX2, inside.shape)
        slope = checks.max_gradient(out["whitney"], inside, h)
        if not slope <= eps:
            fails.append(f"build_whitney_eta: slope {slope} > eps {eps}")

        inside2, _, arc = inp["large"]
        fails += checks.check_distance("large sigma", out["sigma2"],
                                       checks.mask_sigma(inside2, BOX2))
        fails += checks.check_distance("large theta distance", out["theta2"],
                                       checks.theta_distance(inside2, arc, BOX2))
        return fails

    def check_run(self) -> list[str]:
        return checks.check_kernel(self.kernel.nodes, self.kernel.order)


class StudiesCli:
    """One in-process pass of five ``mollikit`` subcommands on a 96^2 box.

    Every subcommand rebuilds its step profile; time goes to the L1 column
    mass, the feasible ball-max, the step builders and CSV I/O.
    """

    RES = 96
    ORDER = 24
    PROBE = SETUP_PROBE = ("python", "gather")
    EPSILON = 0.1
    N_LIST = (1, 2, 4, 8, 16)

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def setup(self, seed: int) -> None:
        self.seed = seed
        dom = mollikit.Domain.box(BOX2, self.RES)
        gx, gy = dom.node_grids()
        rng = np.random.default_rng([seed, 2])
        kx, ky, phase = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)
        f = np.sin(np.pi * kx * gx + phase) * np.cos(np.pi * ky * gy) \
            + 0.05 * rng.standard_normal(dom.shape)
        # a bound vanishing on the boundary and on the disk |x - c| <= 0.15
        alpha = np.minimum.reduce([gx, 1.0 - gx, gy, 1.0 - gy]) \
            * np.maximum(np.hypot(gx - 0.5, gy - 0.5) - 0.15, 0.0)
        u = np.cos(np.pi * (kx * gx + ky * gy) + phase)
        for name, values in (("f", f), ("alpha", alpha), ("f_feasible", 0.9 * alpha * u)):
            mollikit.write_field_csv(mollikit.ScalarField(dom, values),
                                     os.path.join(self.workdir, f"{name}.csv"))
        self.case = {"bbox": BOX2, "shape": dom.shape, "order": self.ORDER,
                     "epsilon": self.EPSILON, "f": f, "alpha": alpha}

    def make_input(self, i: int) -> str:
        out = os.path.join(self.workdir, f"op{i}")
        os.makedirs(out)
        return out

    def argv(self, out: str) -> dict[str, list[str]]:
        """Arguments of the five subcommands, reading set-up inputs and
        writing into ``out``."""
        inp = self.workdir
        eta = json.dumps({"builder": "quadratic", "epsilon": self.EPSILON})
        common = ["--domain", json.dumps({"kind": "box", "bbox": [list(b) for b in BOX2],
                                          "resolution": [self.RES, self.RES]}),
                  "--kernel", json.dumps({"profile": "bump", "order": self.ORDER}),
                  "--threads", "1", "--no-timestamp"]
        commands = {
            "eta": ["eta", "--builder", "quadratic", "--epsilon", str(self.EPSILON),
                    "--out", f"{out}/eta.csv", "--report", f"{out}/eta.json"],
            "mollify": ["mollify", "--input", f"{inp}/f.csv", "--eta", eta, "--n", "2",
                        "--out", f"{out}/Tf.csv", "--grad", f"{out}/dTf",
                        "--report", f"{out}/mollify.json"],
            "norm1": ["norm1", "--probes", "100", "--eta", eta, "--seed", str(self.seed),
                      "--out", f"{out}/norm1.json"],
            "feasible": ["feasible", "--f", f"{inp}/f_feasible.csv",
                         "--alpha", f"{inp}/alpha.csv", "--mode", "value",
                         "--n", ",".join(map(str, self.N_LIST)), "--out", f"{out}/feasible.json",
                         "--emit-iterates", f"{out}/iterates"],
            "study": ["study", "--fixture", "sin", "--eta", eta, "--out", f"{out}/study.json"],
        }
        return {cmd: args + common for cmd, args in commands.items()}

    def op(self, out: str, step=call) -> dict:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for cmd, args in self.argv(out).items():
                codes[cmd] = step(cli.main, args)
        return codes

    def check(self, i: int, out: str, codes: dict) -> list[str]:
        read = self.read_outputs(out, codes)
        shutil.rmtree(out)
        return checks.check_cli(read, self.case)

    def read_outputs(self, out: str, codes: dict) -> dict:
        """Exit codes, JSON reports and CSV fields of one pass."""
        def field(name):
            return np.loadtxt(os.path.join(out, name), comments="#").reshape(self.case["shape"])

        def report(name):
            with open(os.path.join(out, name)) as fh:
                return json.load(fh)

        read = {"exit": codes}
        if all(rc == 0 for rc in codes.values()):
            read |= {"eta": field("eta.csv"), "eta_report": report("eta.json"),
                     "Tf": field("Tf.csv"), "mollify_report": report("mollify.json"),
                     "norm1": report("norm1.json"), "feasible": report("feasible.json"),
                     "study": report("study.json"),
                     "iterates": {n: field(f"iterates/iterate_n{n}.csv") for n in self.N_LIST}}
        return read

    def check_run(self) -> list[str]:
        return []
