"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload operator-box --seed 1 --seconds 25 --trace 0

The workloads (``operator-box``, ``eta-mask``, ``studies-cli``) are defined
in ``workloads.py``.  With ``--trace 0`` the result holds the end-to-end
metrics setup_s, op_p50_s, ops_per_s and peak_rss_mb, the times scaled
to a fixed machine speed (``speed.py``); with ``--trace 1``
untraced and traced operations alternate, the result holds the per-layer
metrics of ``tracing.py`` plus the tracing overhead, and the spans are
written to ``.perfbench_spans/<workload>-seed<seed>.json``.  mollikit is
imported from the ``src/`` directory next to this one; without it the run
exits 2 and prints no result.  Everything runs in this one process at threads=1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Idle BLAS worker threads (started by the checks' matrix products) would
# compete with the single measured thread; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("operator-box", "eta-mask", "studies-cli")

# Set-up is timed once on the workload and then on spare copies of it,
# spread over the run so that its median is not taken from one moment of a
# shared machine: before the first operation until MIN_SETUP_SECONDS, after
# each operation until SETUP_SHARE of the operation time so far, and after
# the last one until there are MIN_SETUPS.  setup_s is their median.
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 0.5
SETUP_SHARE = 0.2
MAX_SETUPS = 50000

# where a traced run writes its spans when it ends
SPANS_DIR = ".perfbench_spans"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_mollikit() -> None:
    """Import mollikit from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mollikit

    if Path(mollikit.__file__).resolve().parent != src / "mollikit":
        raise ImportError(f"mollikit imported from {mollikit.__file__}, not {src}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupTimer:
    """Times ``setup(seed)`` on fresh workload copies made by ``make``; the
    copies are dropped, so the operations keep the geometry they started with.
    Times are wall seconds; ``clock`` probes the machine between set-ups."""

    def __init__(self, make, seed: int, clock: speed.Clock):
        self.make, self.seed, self.clock, self.times = make, seed, clock, []

    def once(self, wl=None) -> None:
        """Time one set-up of ``wl``, or of a fresh copy that is then dropped."""
        if wl is None:
            wl = self.make()
        self.times.append(self.clock.call(wl.setup, self.seed)[1])

    def until(self, seconds: float, least: int = 0) -> None:
        """At least ``least`` more set-ups, and more until they total ``seconds``."""
        start = len(self.times)
        while len(self.times) - start < least or (sum(self.times) < seconds
                                                  and len(self.times) < MAX_SETUPS):
            self.once()

    def between(self, op_seconds: float) -> None:
        """Catch up to SETUP_SHARE of the operation time so far."""
        self.until(SETUP_SHARE * op_seconds)


def report_failures(fails: list[str], what: str) -> None:
    for msg in fails:
        print(f"{what}: {msg}", file=sys.stderr)


def attempt(wl, i: int, clock: speed.Clock, recorder=None):
    """Operation i: its input (untimed), the operation (its steps timed one
    by one on ``clock``, traced when a recorder is given) and its check
    (untimed).  An operation that raises is counted as failed.  Returns
    (wall seconds, failures, input, output)."""
    inp = wl.make_input(i)
    gc.collect()  # each operation starts with no garbage left by the last
    wall = []

    def step(fn, *args, **kwargs):
        result, dt = clock.call(fn, *args, **kwargs)
        wall.append(dt)
        return result

    with tracing.traced(recorder) if recorder else contextlib.nullcontext():
        try:
            out, fails = wl.op(inp, step), None
        except Exception:  # the run goes on and reports the failure
            out, fails = None, [traceback.format_exc()]
    t0 = time.perf_counter()
    if fails is None:
        fails = wl.check(i, inp, out)
    dt = sum(wall)
    print(f"operation {i}: {dt:.4f} s{' (traced)' if recorder else ''}, "
          f"checked in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    report_failures(fails, f"operation {i}")
    return dt, fails, inp, out


def run_plain(wl, seconds: float, clock: speed.Clock, setups: SetupTimer) -> dict:
    """Operations until ``seconds`` of operation time, set-ups between them."""
    times, failed = [], 0
    while sum(times) < seconds:
        dt, fails, _, _ = attempt(wl, len(times), clock)
        times.append(dt)
        failed += bool(fails)
        setups.between(sum(times))
    setups.until(0.0, MIN_SETUPS - len(setups.times))
    return {"times": times, "failed": failed}


def run_traced(wl, seconds: float, clock: speed.Clock) -> dict:
    """Untraced and traced operations in alternation; per-layer metrics are
    medians over the traced ones."""
    plain, traced, per_op, failed, errors, two_thread, spans = [], [], [], 0, [], [], []
    while sum(plain) + sum(traced) < seconds:
        dt, fails, _, _ = attempt(wl, len(plain) + len(traced), clock)
        plain.append(dt)
        failed += bool(fails)

        rec = tracing.Recorder()
        dt, fails, inp, out = attempt(wl, len(plain) + len(traced), clock, rec)
        traced.append(dt)
        failed += bool(fails)
        if fails:
            continue
        spans.append(rec.spans)
        errors += tracing.nesting_errors(rec.spans)
        per_op.append(tracing.layer_metrics(tracing.summarize(rec.spans)))
        if hasattr(wl, "repeat_mollify"):
            ns, errs = repeat_two_threads(wl, inp, out, rec)
            two_thread.append(ns)
            errors += errs
    if not per_op:
        return {"times": plain + traced, "failed": failed, "metrics": {}, "spans": spans,
                "errors": errors + ["no traced operation succeeded"]}
    metrics, errs = tracing.median_metrics(per_op)
    metrics["sampling.ns_per_sample_2t"] = statistics.median(two_thread) if two_thread else 0.0
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain)) * clock.factor(wl.PROBE)
    return {"times": plain + traced, "failed": failed, "metrics": metrics, "spans": spans,
            "errors": errors + errs}


def write_spans(path: Path, spans: list) -> None:
    """Spans of every traced operation as [name, start, end, parent] lists."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump([[[s.name, s.start, s.end, s.parent] for s in op] for op in spans], fh)


def repeat_two_threads(wl, inp, out, rec) -> tuple[float, list[str]]:
    """Repeat the operation's first ``mollify`` at threads=2: it must give
    the same bits and the same counters as at threads=1.  Returns its ns per
    sample."""
    first = next(i for i, s in enumerate(rec.spans) if s.name == "mollify.mollify")
    rec2 = tracing.Recorder()
    with tracing.traced(rec2):
        errors = wl.repeat_mollify(inp, out, threads=2)
    one, two = tracing.counts(rec.spans, first), tracing.counts(rec2.spans)
    if one != two:
        errors.append(f"counters differ between threads=1 and threads=2: {one} vs {two}")
    return tracing.ns_per_sample(tracing.summarize(rec2.spans)), errors


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_mollikit()
    except ImportError as err:
        print(f"cannot import mollikit from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)
    try:
        # a spare StudiesCli rewrites the same input files with the same bytes
        make = {"operator-box": workloads.OperatorBox,
                "eta-mask": workloads.EtaMask,
                "studies-cli": lambda: workloads.StudiesCli(workdir)}[args.workload]
        wl = make()
        clock = speed.Clock(wl.PROBE + wl.SETUP_PROBE)
        setups = SetupTimer(make, args.seed, clock)
        setups.once(wl)
        setups.until(MIN_SETUP_SECONDS)
        run = (run_traced(wl, args.seconds, clock) if args.trace
               else run_plain(wl, args.seconds, clock, setups))
        rss = peak_rss_mb()
        run_fails = wl.check_run() + run.get("errors", [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(run_fails, "run")

    times = run["times"]
    if args.trace:
        write_spans(ROOT / SPANS_DIR / f"{args.workload}-seed{args.seed}.json", run["spans"])
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in run["metrics"].items()}
    else:
        ks, k = clock.factor(wl.SETUP_PROBE), clock.factor(wl.PROBE)
        for what, wall, parts in (("set-up", setups.times, wl.SETUP_PROBE),
                                  ("operation", times, wl.PROBE)):
            print(f"wall: {what} median {statistics.median(wall):.6g} s; {len(clock.probes)} "
                  f"probes, slowness of {'+'.join(parts)} {clock.slowness(parts):.4f}: "
                  f"times scaled by {clock.factor(parts):.4f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setups.times) * ks, "unit": "s"},
            "op_p50_s": {"value": statistics.median(times) * k, "unit": "s"},
            "ops_per_s": {"value": len(times) / (sum(times) * k), "unit": "ops/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    print(json.dumps({"correct": not run_fails, "attempted": len(times),
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
