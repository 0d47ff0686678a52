"""One operation of each benchmark workload, checked by the benchmark's own
output checks, so that an output the benchmark would count as incorrect
fails here first.  The operation runs traced, as ``perfbench/run.py --trace
1`` runs it, so that a renamed entry or parameter that the tracer binds
fails here too.  ``perfbench`` is imported as it is, read-only."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def _import(name: str):
    # workloads.py imports its sibling checks.py as a top-level module; no
    # bytecode is written, so the benchmark's tree stays as it is
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode


@pytest.fixture(scope="module")
def workloads():
    return _import("workloads")


@pytest.mark.parametrize("name", ["operator-box", "eta-mask", "studies-cli"])
def test_workload_passes_its_checks(name, workloads, tmp_path):
    make = {"operator-box": workloads.OperatorBox,
            "eta-mask": workloads.EtaMask,
            "studies-cli": lambda: workloads.StudiesCli(str(tmp_path))}[name]
    tracing = _import("tracing")
    wl = make()
    wl.setup(SEED)
    inp = wl.make_input(0)
    with tracing.traced(tracing.Recorder()) as recorder:
        out = wl.op(inp)
    assert wl.check(0, inp, out) == []
    assert wl.check_run() == []
    assert tracing.nesting_errors(recorder.spans) == []
    metrics = tracing.layer_metrics(tracing.summarize(recorder.spans))
    assert metrics["sampling.samples"] > 0
    if hasattr(wl, "repeat_mollify"):
        # the traced run's repeat, which binds mollify(..., threads=2)
        with tracing.traced(tracing.Recorder()):
            assert wl.repeat_mollify(inp, out, threads=2) == []
