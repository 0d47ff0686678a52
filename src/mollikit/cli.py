"""Batch command-line interface.

One executable, subcommand per operation, JSON/CSV I/O, reproducible seeds.
Exit codes: 0 success, 1 a quantitative invariant failed (a JSON object
naming it is printed), 2 configuration or I/O errors.  With
``--no-timestamp`` reports omit timestamps, runtimes, and the thread count,
so reruns (at any thread count) are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import analysis, feasible
from .eta import (CertificationError, EtaProfile, _max_gradient, build_whitney_eta,
                  calibrated_eta, estimate_modulus, quadratic_eta, regularized_distance)
from .grid import (Domain, ScalarField, _check_keys, _json_spec, _spec_value,
                   domain_from_json, gradient_central, read_field_csv, write_field_csv)
from .kernels import kernel_from_json, make_kernel
from .mollify import (MollifierConfig, modified_config, mollify_gradient,
                      mollify_with_report, pointwise_gradient_bound_check)

DEFAULT_DOMAIN = '{"kind": "box", "bbox": [[0.0, 1.0]], "resolution": [257]}'


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "threads"):
            args.threads = _thread_count(args.threads)
        return args.func(args)
    except (analysis.InvariantViolation, CertificationError) as err:
        print(json.dumps({"failed_invariant": str(err)}, sort_keys=True))
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(json.dumps({"config_error": str(err)}, sort_keys=True), file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mollikit",
                                description="variable-step smoothing toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    # eta and norm1 run on one thread but take --threads, so that one
    # command line serves every subcommand that builds a step profile
    flags = {
        "--domain": dict(default=DEFAULT_DOMAIN, help="domain spec JSON (inline or file path)"),
        "--kernel": dict(default='{"profile": "bump", "order": 64}',
                         help="kernel spec JSON (inline or file path)"),
        "--threads": dict(default="1", help="worker threads, at least 1"),
        "--seed": dict(type=int, default=0),
    }

    def common(sp, *names):
        for name in names:
            sp.add_argument(name, **flags[name])
        sp.add_argument("--no-timestamp", action="store_true",
                        help="deterministic reports (drop timing fields)")

    sp = sub.add_parser("eta", help="build a certified step function")
    common(sp, "--domain", "--kernel", "--threads")
    sp.add_argument("--builder", required=True,
                    choices=["whitney", "regdist", "quadratic", "calibrated"])
    sp.add_argument("--epsilon", type=float, default=0.25)
    sp.add_argument("--alpha", help="bound field CSV (calibrated builder)")
    sp.add_argument("--out", required=True, help="output field CSV")
    sp.add_argument("--report", help="certification report JSON path")
    sp.set_defaults(func=cmd_eta)

    sp = sub.add_parser("mollify", help="apply the smoothing operator")
    common(sp, "--domain", "--kernel", "--threads")
    sp.add_argument("--input", required=True, help="input field CSV")
    sp.add_argument("--eta", required=True, help="step field CSV or builder JSON")
    sp.add_argument("--n", default="none", help="family index or 'none'")
    sp.add_argument("--variant", choices=["standard", "modified"], default="standard")
    sp.add_argument("--out", required=True, help="output field CSV")
    sp.add_argument("--grad", help="optional gradient output CSV prefix")
    sp.add_argument("--report", help="run report JSON path")
    sp.set_defaults(func=cmd_mollify)

    sp = sub.add_parser("study", help="convergence study of the family")
    common(sp, "--domain", "--kernel", "--threads")
    sp.add_argument("--fixture", default="sin",
                    help="sin | step | poly | custom:<csv>")
    sp.add_argument("--eta", default='{"builder": "quadratic", "epsilon": 0.1}')
    sp.add_argument("--n", default="1,2,4,8,16")
    sp.add_argument("--norms", default="L1,L2,W12")
    sp.add_argument("--bv", choices=["strict", "weakstar"])
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_study)

    sp = sub.add_parser("norm1", help="L1 operator-norm estimate vs bound")
    common(sp, "--domain", "--kernel", "--threads", "--seed")
    sp.add_argument("--eta", default='{"builder": "quadratic", "epsilon": 0.1}')
    sp.add_argument("--probes", type=int, default=100)
    sp.add_argument("--n", default="none")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_norm1)

    sp = sub.add_parser("counterexample", help="L1 unboundedness study")
    common(sp)
    sp.add_argument("--resolutions", default="4097")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("feasible", help="feasible smoothing study")
    common(sp, "--domain", "--kernel", "--threads")
    sp.add_argument("--f", required=True, help="feasible input field CSV")
    sp.add_argument("--alpha", required=True, help="bound field CSV")
    sp.add_argument("--mode", choices=["value", "gradient"], default="value")
    sp.add_argument("--scheme", choices=["Lp", "W1p", "gradient"])
    sp.add_argument("--n", default="1,2,4,8,16")
    sp.add_argument("--out", required=True)
    sp.add_argument("--emit-iterates", help="directory for per-n iterate CSVs")
    sp.set_defaults(func=cmd_feasible)

    sp = sub.add_parser("selftest", help="run the built-in invariant suite")
    common(sp, "--threads", "--seed")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_selftest)
    return p


# ---------------------------------------------------------------------- #
# helpers


def _thread_count(token: str) -> int:
    try:
        threads = int(token)
    except ValueError:
        raise ValueError(f"thread count must be an integer, got {token!r}") from None
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads}")
    return threads


def _load_domain(args) -> Domain:
    return domain_from_json(args.domain)


def _load_kernel(args, dim: int):
    return kernel_from_json({"dim": dim, **_json_spec(args.kernel)})


def _parse_n(token: str):
    return None if token in ("none", "None", "") else int(token)


def _parse_n_list(token: str) -> list[int]:
    n_list = [int(t) for t in token.split(",") if t]
    if not n_list or min(n_list) < 1:
        raise ValueError(f"family index n must be a positive integer, got --n {token!r}")
    return n_list


def _eta_from_spec(spec: str, domain: Domain, kernel, alpha=None) -> EtaProfile:
    if not spec.lstrip().startswith("{"):
        f = read_field_csv(spec, domain)
        return EtaProfile(f, _max_gradient(domain, f.values), "calibrated", None,
                          f.values == 0.0)
    cfg = json.loads(spec)
    _check_keys(cfg, ("builder", "epsilon", "bins"))
    builder = cfg.get("builder", "quadratic")
    eps = _spec_value(cfg, "epsilon", float, 0.25)
    if builder == "whitney":
        return build_whitney_eta(domain, None, eps)
    if builder == "regdist":
        return regularized_distance(domain, eps, kernel)
    if builder == "quadratic":
        return quadratic_eta(domain, eps, kernel)
    if builder == "calibrated":
        if alpha is None:
            raise ValueError("calibrated builder needs a bound field")
        theta = (alpha.values == 0.0) | ~domain.inside_mask
        base = build_whitney_eta(domain, theta, min(eps, 0.5))
        modulus = estimate_modulus(alpha, _spec_value(cfg, "bins", int, 32))
        return calibrated_eta(domain, alpha, modulus, base)
    raise ValueError(f"unknown eta builder {builder!r}")


def _dump(report: dict, path, args) -> None:
    if not args.no_timestamp:
        report = dict(report)
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        if hasattr(args, "threads"):
            report["threads"] = args.threads
    text = json.dumps(report, sort_keys=True, indent=1)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------- #
# subcommands


def cmd_eta(args) -> int:
    dom = _load_domain(args)
    kernel = _load_kernel(args, dom.dim)
    alpha = read_field_csv(args.alpha, dom) if args.alpha else None
    prof = _eta_from_spec(json.dumps({"builder": args.builder, "epsilon": args.epsilon}),
                          dom, kernel, alpha)
    write_field_csv(prof.field, args.out)
    report = {
        "builder": args.builder,
        "epsilon": args.epsilon,
        "kappa": prof.kappa,
        "max_slope": prof.grad_bound,
        "violations": [],
    }
    _dump(report, args.report, args)
    return 0


def cmd_mollify(args) -> int:
    dom = _load_domain(args)
    kernel = _load_kernel(args, dom.dim)
    f = read_field_csv(args.input, dom)
    n = _parse_n(args.n)
    if args.variant == "modified":
        if n is None:
            raise ValueError("modified variant needs a finite family index n")
        quad = _eta_from_spec(args.eta, dom, kernel)
        if quad.decay != "quadratic":
            raise ValueError("modified variant needs a quadratic eta spec")
        cfg = modified_config(dom, n, quad, kernel.order)
    else:
        prof = _eta_from_spec(args.eta, dom, kernel)
        cfg = MollifierConfig(kernel, prof, n=n)
    tf, report = mollify_with_report(f, cfg, threads=args.threads)
    write_field_csv(tf, args.out)
    if args.grad:
        grads = mollify_gradient(f, gradient_central(f), cfg, threads=args.threads)
        for axis, comp in enumerate(grads.components):
            write_field_csv(comp, f"{args.grad}.axis{axis}.csv"
                            if dom.dim > 1 else args.grad)
    if args.no_timestamp:
        report.pop("runtime_ms", None)
    _dump(report, args.report, args)
    return 0


_FIXTURES = {
    "sin": lambda *grids: np.sin(np.pi * grids[0]) * (
        np.sin(np.pi * grids[1]) if len(grids) > 1 else 1.0),
    "poly": lambda *grids: sum(g * (1.0 - g) for g in grids),
    "step": lambda *grids: (grids[0] > 0.5).astype(float),
}


def _fixture_field(name: str, dom: Domain) -> ScalarField:
    if name.startswith("custom:"):
        return read_field_csv(name.split(":", 1)[1], dom)
    try:
        fn = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}") from None
    return ScalarField.from_function(dom, fn)


def cmd_study(args) -> int:
    dom = _load_domain(args)
    kernel = _load_kernel(args, dom.dim)
    f = _fixture_field(args.fixture, dom)
    n_list = _parse_n_list(args.n)
    norms = [t.strip() for t in args.norms.split(",") if t.strip()]
    if not norms:
        raise ValueError(f"--norms needs at least one norm token, got {args.norms!r}")
    for t in norms:
        if t not in analysis.NORM_TOKENS:
            raise ValueError(f"unknown norm token {t!r}")
    if args.bv == "strict":
        quad = _eta_from_spec(args.eta, dom, kernel)
        cfg_for_n = lambda n: modified_config(dom, n, quad, kernel.order)
    else:
        prof = _eta_from_spec(args.eta, dom, kernel)
        cfg_for_n = lambda n: MollifierConfig(kernel, prof, n=n)
    report = analysis.convergence_study(f, cfg_for_n, n_list, norms,
                                        fixture=args.fixture, bv_mode=args.bv,
                                        threads=args.threads)
    out = report.to_dict(include_runtime=not args.no_timestamp)
    _dump(out, args.out, args)
    _emit_csv_table(report, args.out)
    return 0 if report.passed() else _fail(report)


def _fail(report) -> int:
    print(json.dumps({"failed_invariant": report.failures()}, sort_keys=True))
    return 1


def _emit_csv_table(report, out_path) -> None:
    if not out_path:
        return
    path = os.path.splitext(out_path)[0] + ".csv"
    cols = sorted(report.errors)
    with open(path, "w") as fh:
        fh.write("n," + ",".join(cols) + "\n")
        for i, n in enumerate(report.n_values):
            fh.write(f"{n}," + ",".join(repr(float(report.errors[c][i])) for c in cols) + "\n")


def cmd_norm1(args) -> int:
    if args.probes < 0:
        raise ValueError(f"--probes must be at least 0, got {args.probes}")
    dom = _load_domain(args)
    kernel = _load_kernel(args, dom.dim)
    prof = _eta_from_spec(args.eta, dom, kernel)
    cfg = MollifierConfig(kernel, prof, n=_parse_n(args.n))
    report = analysis.l1_operator_norm_report(cfg, args.probes, args.seed)
    _dump(report, args.out, args)
    return 0


def cmd_counterexample(args) -> int:
    res = [int(t) for t in args.resolutions.split(",") if t]
    report = analysis.counterexample_run(res)
    _dump(report, args.out, args)
    return 0


def cmd_feasible(args) -> int:
    dom = _load_domain(args)
    kernel = _load_kernel(args, dom.dim)
    alpha = read_field_csv(args.alpha, dom)
    f = read_field_csv(args.f, dom)
    spec = feasible.ConstraintSpec(alpha, args.mode)
    n_list = _parse_n_list(args.n)
    prof = _eta_from_spec('{"builder": "calibrated"}', dom, kernel, alpha)
    scheme = args.scheme or ("gradient" if args.mode == "gradient" else "W1p")
    report = feasible.density_study(f, spec, prof, kernel, n_list, scheme,
                                    threads=args.threads)
    if args.emit_iterates:
        os.makedirs(args.emit_iterates, exist_ok=True)
        for n, g in zip(n_list, report.iterates):
            write_field_csv(g, os.path.join(args.emit_iterates, f"iterate_n{n}.csv"))
    _dump(report.to_dict(include_runtime=not args.no_timestamp), args.out, args)
    return 0 if report.passed() else _fail(report)


# ---------------------------------------------------------------------- #
# selftest


def cmd_selftest(args) -> int:
    checks = analysis.StudyReport("selftest")
    threads = args.threads
    rng = np.random.default_rng(args.seed)

    for dim, res, order in ((1, 257, 32), (2, 33, 12)):
        dom = Domain.box([(0.0, 1.0)] * dim, res)
        kernel = make_kernel("bump", dim, order)
        quad = quadratic_eta(dom, 0.1, kernel)
        cfg = MollifierConfig(kernel, quad, n=2)
        tag = f"{dim}d"

        const = ScalarField.constant(dom, 3.25)
        tf, _ = mollify_with_report(const, cfg, threads=threads)
        checks.add_check(f"{tag} constant reproduction", np.abs(tf.values - 3.25).max(),
                         0.0, 1e-12)

        affine = ScalarField.from_function(dom, lambda *g: sum(g) + 0.5)
        ta, _ = mollify_with_report(affine, cfg, threads=threads)
        checks.add_check(f"{tag} affine reproduction",
                         np.abs(ta.values - affine.values).max(), 0.0, 1e-10)

        noisy = ScalarField(dom, rng.standard_normal(dom.shape))
        tn, rep = mollify_with_report(noisy, cfg, threads=threads)
        checks.add_check(f"{tag} sup bound", rep["sup_ratio"], 1.0)
        wk = analysis.weak_l1_check(noisy, cfg, [10.0 ** e for e in range(-3, 3)],
                                    threads=threads)
        checks.add_check(f"{tag} weak-L1 violations", wk["violations"], 0.0)

    dom = Domain.box([(0.0, 1.0)], 257)
    kernel = make_kernel("bump", 1, 32)
    quad = quadratic_eta(dom, 0.1, kernel)
    sin_f = ScalarField.from_function(dom, lambda x: np.sin(np.pi * x))
    grad_rep = pointwise_gradient_bound_check(
        sin_f, MollifierConfig(kernel, quad, n=4), threads=threads)
    checks.add_check("gradient bounds violations", grad_rep["violations"], 0.0)

    study = analysis.convergence_study(
        sin_f, lambda n: MollifierConfig(kernel, quad, n=n), [1, 2, 4],
        ["L2", "W12"], "sin", threads=threads)
    checks.add_check("convergence monotone", 0.0 if study.passed() else 1.0, 0.0)

    rep = analysis.l1_operator_norm_report(MollifierConfig(kernel, quad, n=1),
                                           probe_count=40, seed=args.seed)
    checks.add_check("operator norm vs bound", rep["estimate"], rep["bound"] * 1.1)
    checks.add_check("constant-step normalization",
                     abs(analysis.constant_step_probe(kernel) - 1.0), 0.0, 1e-12)

    x = dom.axis_coords(0)
    alpha = ScalarField(dom, np.minimum(x, 1.0 - x))
    spec = feasible.ConstraintSpec(alpha, "value")
    base = build_whitney_eta(dom, spec.theta_mask, 0.25)
    cal = calibrated_eta(dom, alpha, estimate_modulus(alpha, 16), base)
    f09 = ScalarField(dom, 0.9 * alpha.values)
    betas = []
    for n in (1, 4, 16):
        _, info = feasible.feasible_smooth(f09, spec, cal, kernel, n, threads=threads)
        betas.append(info["beta"])
        checks.add_check(f"feasible margin n={n}", info["margin"], info["margin_slack"])
    checks.add_check("beta nondecreasing", max(b1 - b2 for b1, b2 in zip(betas, betas[1:])),
                     0.0, 1e-12)

    tail_err = abs(analysis.tf0_quadrature(0.25) - analysis.tf0_closed(0.25))
    checks.add_check("counterexample point value", tail_err, 5e-3 * 1.4427)

    _dump({"checks": checks.bound_checks, "pass": checks.passed(), "seed": args.seed},
          args.out, args)
    return 0 if checks.passed() else _fail(checks)


if __name__ == "__main__":
    sys.exit(main())
