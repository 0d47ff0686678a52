"""One operation of each benchmark workload, checked by the benchmark's own
output checks, so that an output the benchmark would count as incorrect
fails here first.  ``perfbench`` is imported as it is, read-only."""

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
    wl = make()
    wl.setup(SEED)
    inp = wl.make_input(0)
    out = wl.op(inp)
    assert wl.check(0, inp, out) == []
    assert wl.check_run() == []
    if hasattr(wl, "repeat_mollify"):
        # the traced run's repeat, which binds mollify(..., threads=2)
        tracing = _import("tracing")
        with tracing.traced(tracing.Recorder()):
            assert wl.repeat_mollify(inp, out, threads=2) == []
