"""Steadiness check: runs workloads K times, each with another seed, and
prints every end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --seed0 1 [--workload cli ...]
        [--seconds S] [--save sets.json] [--against earlier.json]

Spread is (q3 - q1) / median over the K values, with the quartiles of
`statistics.quantiles(values, n=4)`.  A metric is "steady" when its spread
is below a third of its bound.  setup_s's spread is shown but not judged;
like every metric it is judged by median drift when --against names the
saved values of an earlier set.  With no --workload, every workload in
BENCHMARK.json is run, so this one command prints every end-to-end metric
of every workload.  Exit code 1 if a run fails or a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save", type=Path, help="write the values to this file")
    ap.add_argument("--against", type=Path,
                    help="values saved by an earlier --save, to compare medians")
    args = ap.parse_args(argv)
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else {}

    values: dict = {}
    ok = True
    for name in names:
        per_metric = values.setdefault(name, {})
        for j in range(args.runs):
            seed = args.seed0 + j
            res = run_once(name, seed, args.seconds)
            ok &= bool(res["correct"]) and res["failed"] == 0
            print(f"{name} seed={seed} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={m['value']:.6g}" for k, m in res["metrics"].items()),
                  flush=True)
            for k, m in res["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
        print(f"\n{name}: {args.runs} runs, seeds {args.seed0}.."
              f"{args.seed0 + args.runs - 1}")
        print(f"  {'metric':14s} {'unit':9s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>8s} {'bound':>6s}  verdict")
        for k, vs in per_metric.items():
            b = bounds[k]
            med, q1, q3, sp = spread(vs)
            if k == "setup_s":
                verdict = "not judged"
            else:
                verdict = ("steady" if sp < b["bound"] / 3 else
                           "within bound" if sp <= b["bound"] else "TOO NOISY")
            drift = ""
            before = earlier.get(name, {}).get(k)
            if before:
                m0 = statistics.median(before)
                worse = (med - m0) / m0 * (1 if b["better"] == "lower" else -1)
                drift = (f"  vs earlier median {m0:.6g}: {worse:+.2%} worse"
                         f" ({'ok' if worse <= b['bound'] else 'OVER BOUND'})")
            print(f"  {k:14s} {b['unit']:9s} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {sp:8.2%} {b['bound']:6.2f}  {verdict}{drift}")
        print(flush=True)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
