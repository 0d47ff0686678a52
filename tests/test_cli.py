import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from mollikit import _sampling, cli, feasible
from mollikit.grid import Domain, ScalarField, read_field_csv, write_field_csv

DOMAIN_65 = '{"kind": "box", "bbox": [[0.0, 1.0]], "resolution": [65]}'
DOMAIN_257 = '{"kind": "box", "bbox": [[0.0, 1.0]], "resolution": [257]}'


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mollikit.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    dom = Domain.box([(0.0, 1.0)], 257)
    x = dom.axis_coords(0)
    write_field_csv(ScalarField(dom, np.sin(np.pi * x)), path / "f.csv")
    write_field_csv(ScalarField(dom, np.minimum(x, 1 - x)), path / "alpha.csv")
    write_field_csv(ScalarField(dom, 0.9 * np.minimum(x, 1 - x)), path / "f09.csv")
    return path


def test_eta_subcommand(workdir):
    out = workdir / "eta.csv"
    rep = workdir / "eta.json"
    res = run_cli("eta", "--builder", "quadratic", "--epsilon", "0.1",
                  "--domain", DOMAIN_257, "--out", str(out), "--report", str(rep),
                  "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(rep.read_text())
    assert report["builder"] == "quadratic"
    assert report["kappa"] == pytest.approx((0.9 / 1.1) ** 2)
    assert report["violations"] == []
    field = read_field_csv(out)
    assert field.values.max() <= 0.25


def test_eta_on_ball_with_non_dyadic_bbox(tmp_path):
    # the face-centre nodes of this ball round to just inside its sphere;
    # domain and kernel specs are read from files
    domain = tmp_path / "domain.json"
    domain.write_text('{"kind": "ball", "bbox": [[0.1, 0.7], [0.1, 0.7]], '
                      '"resolution": [21, 21]}')
    kernel = tmp_path / "kernel.json"
    kernel.write_text('{"profile": "bump", "order": 16}')
    out = tmp_path / "eta.csv"
    res = run_cli("eta", "--builder", "whitney", "--domain", str(domain),
                  "--kernel", str(kernel), "--out", str(out),
                  "--report", str(tmp_path / "eta.json"), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    assert read_field_csv(out).values.max() > 0.0


def test_mollify_subcommand(workdir):
    out = workdir / "tf.csv"
    rep = workdir / "tf.json"
    res = run_cli("mollify", "--input", str(workdir / "f.csv"),
                  "--eta", '{"builder": "quadratic", "epsilon": 0.1}',
                  "--domain", DOMAIN_257, "--n", "4",
                  "--out", str(out), "--grad", str(workdir / "tf_grad.csv"),
                  "--report", str(rep), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(rep.read_text())
    assert report["sup_ratio"] <= 1.0
    assert "runtime_ms" not in report
    tf = read_field_csv(out)
    assert abs(tf.values).max() <= 1.0
    grad = read_field_csv(workdir / "tf_grad.csv")
    assert abs(grad.values).max() <= np.pi * 1.01


def test_mollify_missing_input_is_config_error(workdir):
    res = run_cli("mollify", "--input", str(workdir / "nope.csv"),
                  "--eta", '{"builder": "quadratic", "epsilon": 0.1}',
                  "--domain", DOMAIN_257, "--n", "2",
                  "--out", str(workdir / "x.csv"))
    assert res.returncode == 2
    assert "config_error" in res.stderr


def test_mollify_boundary_nan_is_config_error(workdir):
    lines = (workdir / "f.csv").read_text().splitlines()
    lines[1] = "nan"  # the node at x = 0, on the boundary
    (workdir / "f_nan.csv").write_text("\n".join(lines) + "\n")
    res = run_cli("mollify", "--input", str(workdir / "f_nan.csv"),
                  "--eta", '{"builder": "quadratic", "epsilon": 0.1}',
                  "--domain", DOMAIN_257, "--n", "2",
                  "--out", str(workdir / "x.csv"))
    assert res.returncode == 2
    assert "non-finite" in json.loads(res.stderr)["config_error"]


def test_mollify_negative_step_is_config_error(tmp_path):
    dom = Domain.box([(0.0, 1.0)], 65)
    x = dom.axis_coords(0)
    eta = 0.5 * np.minimum(x, 1.0 - x) ** 2
    eta[30:35] = -0.01  # five inside nodes
    write_field_csv(ScalarField(dom, eta), tmp_path / "eta.csv")
    write_field_csv(ScalarField(dom, np.sin(np.pi * x)), tmp_path / "f.csv")
    res = run_cli("mollify", "--input", str(tmp_path / "f.csv"),
                  "--eta", str(tmp_path / "eta.csv"), "--domain", DOMAIN_65,
                  "--out", str(tmp_path / "tf.csv"), "--report", str(tmp_path / "tf.json"))
    assert res.returncode == 2, res.stdout + res.stderr
    err = json.loads(res.stderr)["config_error"]
    assert f"at node [{x[30]}]: step -0.01 vs" in err
    assert not (tmp_path / "tf.csv").exists()


def test_study_subcommand(workdir):
    out = workdir / "study.json"
    res = run_cli("study", "--fixture", "sin", "--domain", DOMAIN_257,
                  "--kernel", '{"profile": "bump", "order": 32}',
                  "--n", "1,2,4,8", "--norms", "L1,L2,W12",
                  "--out", str(out), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["n_values"] == [1, 2, 4, 8]
    assert len(report["errors"]["L2"]) == 4
    assert all(c["pass"] for c in report["bound_checks"])
    csv_path = workdir / "study.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + one row per n


def test_study_failure_exits_one(workdir):
    # gradients of a jump do not converge: the W12 decay check must fail
    dom = Domain.box([(0.0, 1.0)], 257)
    x = dom.axis_coords(0)
    write_field_csv(ScalarField(dom, (x > 0.5).astype(float)),
                    workdir / "jump.csv")
    res = run_cli("study", "--fixture", f"custom:{workdir / 'jump.csv'}",
                  "--domain", DOMAIN_257, "--kernel",
                  '{"profile": "bump", "order": 32}',
                  "--n", "1,2,4", "--norms", "W12",
                  "--out", str(workdir / "jump.json"), "--no-timestamp")
    assert res.returncode == 1
    assert "failed_invariant" in res.stdout


def test_norm1_subcommand(workdir):
    out = workdir / "norm1.json"
    res = run_cli("norm1", "--domain", DOMAIN_257,
                  "--kernel", '{"profile": "bump", "order": 32}',
                  "--probes", "40", "--out", str(out), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert report["estimate"] <= report["bound"] * 1.1


def test_counterexample_subcommand(workdir):
    out = workdir / "ce.json"
    res = run_cli("counterexample", "--resolutions", "1025",
                  "--out", str(out), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert 0.8 <= report["slope_vs_model"] <= 1.2
    assert report["slope_vs_loglog"] == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("resolutions, names", [
    ("33,17,3", ["resolution 33", "34"]), ("", ["--resolutions"])], ids=["below-33", "empty"])
def test_counterexample_refuses_uncovered_resolutions(resolutions, names, tmp_path, capsys):
    out = tmp_path / "ce.json"
    assert cli.main(["counterexample", "--resolutions", resolutions, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["config_error"]
    assert all(name in err for name in names), err
    assert not out.exists()


def test_eta_alpha_needs_calibrated_builder(workdir, capsys):
    out = workdir / "eta_alpha.csv"
    assert cli.main(["eta", "--builder", "quadratic", "--alpha", str(workdir / "alpha.csv"),
                     "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)["config_error"]
    assert "--alpha" in err and "calibrated" in err
    assert not out.exists()


def test_whitney_reads_the_domain_delta_set(tmp_path, monkeypatch, capsys):
    # the delta field's zeros, a disk of radius 0.1, join Theta for whitney;
    # the builders that vanish on the boundary only (calibrated: and on the
    # bound's zeros) refuse a non-empty delta set
    monkeypatch.chdir(tmp_path)
    dom = Domain.box([(0.0, 1.0)] * 2, 65)
    grids = dom.node_grids()
    disk = np.hypot(grids[0] - 0.5, grids[1] - 0.5) <= 0.1
    write_field_csv(ScalarField(dom, (~disk).astype(float)), "delta.csv")
    write_field_csv(dom.sigma(), "alpha.csv")
    plain = {"kind": "box", "bbox": [[0.0, 1.0], [0.0, 1.0]], "resolution": [65, 65]}
    spec = json.dumps({**plain, "delta": "delta.csv"})
    kernel = '{"profile": "bump", "order": 12}'
    for domain, out in ((spec, "delta_eta.csv"), (json.dumps(plain), "plain_eta.csv")):
        assert cli.main(["eta", "--builder", "whitney", "--domain", domain,
                         "--kernel", kernel, "--out", out, "--no-timestamp"]) == 0
    capsys.readouterr()
    with_delta = read_field_csv("delta_eta.csv").values
    assert disk.sum() > 1 and (with_delta[disk] == 0.0).all()
    assert not np.array_equal(with_delta, read_field_csv("plain_eta.csv").values)
    for builder, alpha in (("quadratic", []), ("regdist", []),
                           ("calibrated", ["--alpha", "alpha.csv"])):
        assert cli.main(["eta", "--builder", builder, *alpha, "--domain", spec,
                         "--kernel", kernel, "--out", "refused.csv"]) == 2
        assert "'delta'" in json.loads(capsys.readouterr().err)["config_error"]
        assert not (tmp_path / "refused.csv").exists()


def test_feasible_subcommand(workdir):
    out = workdir / "feas.json"
    itdir = workdir / "iterates"
    res = run_cli("feasible", "--f", str(workdir / "f09.csv"),
                  "--alpha", str(workdir / "alpha.csv"),
                  "--mode", "value", "--domain", DOMAIN_257,
                  "--kernel", '{"profile": "bump", "order": 32}',
                  "--n", "1,2,4,8", "--out", str(out),
                  "--emit-iterates", str(itdir), "--no-timestamp")
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert all(c["pass"] for c in report["bound_checks"])
    assert (itdir / "iterate_n8.csv").exists()
    # the smoothed node counts per n are deterministic, so --no-timestamp keeps them
    active = report["extra"]["active_nodes"]
    assert "runtime_s" not in report and len(active) == 4 and active[0] > 0
    assert active == sorted(active, reverse=True)


def _feasible_args(tmp_path, n="1,2,4"):
    dom = Domain.box([(0.0, 1.0)], 65)
    x = dom.axis_coords(0)
    write_field_csv(ScalarField(dom, np.minimum(x, 1 - x)), tmp_path / "alpha.csv")
    write_field_csv(ScalarField(dom, 0.9 * np.minimum(x, 1 - x)), tmp_path / "f.csv")
    return ["feasible", "--f", str(tmp_path / "f.csv"),
            "--alpha", str(tmp_path / "alpha.csv"), "--domain", DOMAIN_65,
            "--kernel", '{"profile": "bump", "order": 16}', "--n", n,
            "--out", str(tmp_path / "feas.json"), "--no-timestamp"]


def test_feasible_iterates_reuse_the_study_factors(tmp_path, monkeypatch):
    calls = []
    smoothed = []
    original = feasible.convergence_factor
    original_mollify = feasible.mollify

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    def counting_mollify(*args, **kwargs):
        smoothed.append(args[1].n)
        return original_mollify(*args, **kwargs)

    monkeypatch.setattr(feasible, "convergence_factor", counting)
    monkeypatch.setattr(feasible, "mollify", counting_mollify)
    argv = _feasible_args(tmp_path) + ["--emit-iterates", str(tmp_path / "it")]
    assert cli.main(argv) == 0
    assert calls == [1, 2, 4]
    assert smoothed == [1, 2, 4]
    assert (tmp_path / "it" / "iterate_n4.csv").exists()


def test_lp_iterates_are_the_study_iterates(tmp_path, monkeypatch):
    reports = []
    original = feasible.density_study

    def keeping(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(feasible, "density_study", keeping)
    argv = _feasible_args(tmp_path, "1,2,4,8") + ["--scheme", "Lp", "--emit-iterates",
                                                  str(tmp_path / "it")]
    assert cli.main(argv) == 0
    dom = Domain.box([(0.0, 1.0)], 65)
    # every node lies within 1/n = 1 of the zero set, so the study smooths
    # an input truncated to zero
    assert not read_field_csv(tmp_path / "it" / "iterate_n1.csv", dom).values.any()
    (report,) = reports
    assert len(report.iterates) == 4
    for n, g in zip(report.n_values, report.iterates):
        emitted = read_field_csv(tmp_path / "it" / f"iterate_n{n}.csv", dom)
        assert emitted.values.tobytes() == g.values.tobytes()


def test_feasible_infeasible_iterate_exits_one(tmp_path, monkeypatch, capsys):
    # the input passes the membership test, the smoothed iterate does not
    def membership(f, spec):
        return True, spec.domain.node_coords()[0], 1.0

    monkeypatch.setattr(feasible, "membership", membership)
    assert cli.main(_feasible_args(tmp_path, "1,2")) == 1
    out = json.loads(capsys.readouterr().out)
    assert "smoothed iterate infeasible" in out["failed_invariant"]


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_bad_thread_count_is_config_error(threads, capsys):
    assert cli.main(["selftest", "--threads", threads]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "thread count" in err["config_error"]


@pytest.mark.parametrize("flag, spec, key", [
    ("--domain", [1, 2], "JSON object"),
    ("--kernel", [1, 2], "JSON object"),
    ("--domain", {"bbox": [0, 1], "resolution": [65]}, "'bbox'"),
    ("--domain", {"bbox": [[0, 1]], "resolution": None}, "'resolution'"),
    ("--domain", {"bbox": [[0, 1]], "resolution": [65], "delta": 5}, "'delta'"),
    ("--domain", {"bbox": [[0, 1]], "resolution": [65], "gamma": "ones.csv"}, "'gamma'"),
    ("--kernel", {"profile": "bump", "order": None}, "'order'"),
    ("--eta", {"builder": "quadratic", "epsilon": None}, "'epsilon'"),
    # the mask field is written on 65 nodes over [0, 1]
    ("--domain", {"kind": "mask", "bbox": [[0, 2]], "resolution": [65], "mask": "ones.csv"},
     "'bbox'"),
    ("--domain", {"kind": "mask", "bbox": [[0, 1]], "resolution": [5], "mask": "ones.csv"},
     "'resolution'"),
    ("--eta", {"builder": "calibrated", "bins": 16}, "'bins'"),
    # counts are whole numbers: no silent truncation, no bool read as 1
    ("--kernel", {"profile": "bump", "order": 16.7}, "'order'"),
    ("--kernel", {"profile": "bump", "order": True}, "'order'"),
    ("--kernel", {"profile": "plateau", "order": 16, "n": 2.5}, "'n'"),
    ("--kernel", {"profile": "bump", "order": 16, "dim": 1.5}, "'dim'"),
    ("--domain", {"bbox": [[0, 1]], "resolution": [65.9]}, "'resolution'"),
    ("--domain", {"bbox": [[0, 1]], "resolution": True}, "'resolution'"),
])
def test_malformed_spec_is_config_error(flag, spec, key, tmp_path, monkeypatch, capsys):
    # a spec key of the wrong type or an unknown key names itself; domain
    # and kernel specs are read from files, which may hold any JSON value
    monkeypatch.chdir(tmp_path)
    write_field_csv(ScalarField.constant(Domain.box([(0.0, 1.0)], 65), 1.0), "ones.csv")
    value = json.dumps(spec)
    if flag != "--eta":
        (tmp_path / "spec.json").write_text(value)
        value = "spec.json"
    argv = ["norm1", "--domain", DOMAIN_65, "--probes", "5", "--out", "n.json", flag, value]
    assert cli.main(argv) == 2
    assert key in json.loads(capsys.readouterr().err)["config_error"]


@pytest.mark.parametrize("sub, n", [("study", ""), ("study", ","), ("feasible", ""),
                                    ("feasible", "0"), ("study", "4"), ("study", "4,4"),
                                    ("feasible", "4,2")])
def test_empty_or_nonpositive_n_list_is_config_error(sub, n, tmp_path, capsys):
    argv = (["study", "--domain", DOMAIN_65, "--n", n, "--out", str(tmp_path / "s.json")]
            if sub == "study" else _feasible_args(tmp_path, n))
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["config_error"]
    assert "family index" in err and "--n" in err


@pytest.mark.parametrize("argv, flag", [
    (["study", "--norms", ""], "--norms"),
    (["study", "--norms", ","], "--norms"),
    (["norm1", "--probes", "-1"], "--probes"),
])
def test_empty_norms_or_negative_probes_is_config_error(argv, flag, tmp_path, capsys):
    argv = argv + ["--domain", DOMAIN_65, "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 2
    assert flag in json.loads(capsys.readouterr().err)["config_error"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("norms", ["TV", "L1,TV"])
def test_study_tv_without_bv_is_config_error(norms, tmp_path, capsys, monkeypatch):
    # TV is no error norm: without --bv the study would check nothing of it
    monkeypatch.setattr(cli.analysis, "convergence_study", None)  # nothing is smoothed
    argv = ["study", "--domain", DOMAIN_65, "--norms", norms, "--n", "1,2",
            "--out", str(tmp_path / "s.json")]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["config_error"]
    assert "--norms TV" in err and "--bv" in err
    assert not (tmp_path / "s.json").exists()


def test_feasible_gradient_mode_lp_scheme_is_config_error(tmp_path, capsys, monkeypatch):
    # the Lp scheme truncates the input, which breaks a gradient bound
    monkeypatch.setattr(cli, "_eta_from_spec", None)  # refused before any step or smoothing
    argv = _feasible_args(tmp_path) + ["--mode", "gradient", "--scheme", "Lp"]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["config_error"]
    assert "'Lp'" in err and "'gradient'" in err
    assert not (tmp_path / "feas.json").exists()


def test_bad_json_is_config_error():
    res = run_cli("study", "--fixture", "sin", "--domain", "{not json",
                  "--out", "/tmp/never.json")
    assert res.returncode == 2


def test_selftest_deterministic_across_threads(tmp_path, monkeypatch):
    # --threads is ignored; blocks of 64 points split the selftest's sweeps
    cut = _sampling._blocks
    block_counts = []

    def counted(m):
        out = cut(m)
        block_counts.append(len(out))
        return out

    monkeypatch.setattr(_sampling, "_blocks", counted)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["selftest", "--threads", "1", "--no-timestamp", "--out", str(a)]) == 0
    assert max(block_counts) == 1
    block_counts.clear()
    monkeypatch.setattr(_sampling, "_BLOCK", 64)
    assert cli.main(["selftest", "--threads", "8", "--no-timestamp", "--out", str(b)]) == 0
    assert max(block_counts) >= 2
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["pass"] and "threads" not in report


def test_timestamped_report_has_no_thread_count(tmp_path):
    out = tmp_path / "report.json"
    cli._dump({"pass": True}, out, argparse.Namespace(no_timestamp=False, threads=8))
    assert sorted(json.loads(out.read_text())) == ["pass", "timestamp"]
