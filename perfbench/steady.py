"""Steadiness check: run each workload once per seed and report, for every
end-to-end metric, the median and the interquartile spread as a share of
the median, against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads eta-mask --seeds 1-5
    python3 perfbench/steady.py --trace --seeds 1,2

With ``--trace`` each seed is run traced twice instead, and the deterministic
counters of the two runs must be identical.  Runs are made one at a time;
the raw results are written as JSON lines to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracing  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # the wall times and the machine's speed, as run.py reports them
    result["wall"] = [line for line in proc.stderr.splitlines() if line.startswith("wall:")]
    return result


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", help="append raw results here as JSON lines")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in names:
        results = []
        for seed in seeds:
            for _ in range(2 if args.trace else 1):
                r = run_once(spec, workload, seed, int(args.trace))
                r |= {"workload": workload, "seed": seed}
                results.append(r)
                if args.out:
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps(r) + "\n")
        ok &= all(r["correct"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct {all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        ok &= len(shares) == 1
        if args.trace:
            for a, b in zip(results[0::2], results[1::2]):
                diff = [k for k in tracing.COUNTERS
                        if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
                print(f"  seed {a['seed']}: counters {'identical' if not diff else diff}")
                ok &= not diff
            continue
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, share = spread(values)
            steady = share < m["bound"] / 3
            ok &= steady
            print(f"  {m['name']:12s} median {med:10.5g} {m['unit']:6s} spread {share:6.2%}"
                  f"  bound {m['bound']:.0%}  {'ok' if steady else 'NOT STEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
