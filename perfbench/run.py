"""kappamath benchmark: times one workload end to end, or traces it layer by
layer.

    python3 perfbench/run.py --workload decay_ladder --seed 1 --seconds 20 --trace 0

Workloads: decay_ladder, logistic_ladder, oracle, cli (see README.md).
The program is imported from `src/` next to this directory, never from an
installed copy.  The run is a closed loop with one client.  Every task time
is normalised to a nominal machine speed: between consecutive tasks (and,
for `cli`, inside each child before the import and after `main`) the
reference kernel in refkernel.py is timed, and a task's normalised time is
wall * R_NOM / mean(reference before, reference after).

Standard output ends with one JSON line holding `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The line before it records the seed, value ranges,
sizes, versions, the machine and the raw reference times.  Exit code 2
means the sources are missing or an argument is bad.
"""

from __future__ import annotations

import argparse
import compileall
import cProfile
import dataclasses
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from refkernel import R_NOM_MS, normalised, time_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"  # scratch outputs and span files

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
MIN_TASKS = 100  # so that p90 has at least ten samples above it
TRACE_MIN_TASKS = 20  # per phase of the traced run
WARMUP_TASKS = 3
MAX_REPORTED_FAILURES = 20


@dataclasses.dataclass(frozen=True)
class Context:
    """What a task needs besides its inputs."""

    tmp: Path
    env: dict
    trace: bool = False
    call: Callable = None  # (layer, fn, *args) -> fn(*args), maybe with a span


class SpanRecorder:
    """Records a span around each of the benchmark's calls into a layer:
    (task id, layer, function, start ns, end ns)."""

    def __init__(self) -> None:
        self.task = 0
        self.spans: list[tuple] = []

    def __call__(self, layer: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.task, layer, fn.__name__, start,
                               time.perf_counter_ns()))


@dataclasses.dataclass
class Phase:
    """Samples from one measuring loop."""

    norm_s: list = dataclasses.field(default_factory=list)  # normalised task times
    wall_s: list = dataclasses.field(default_factory=list)  # raw task times
    ref_s: list = dataclasses.field(default_factory=list)  # raw reference times
    attempted: int = 0
    failed: int = 0
    work: defaultdict = dataclasses.field(default_factory=lambda: defaultdict(float))
    worked: int = 0  # tasks whose work was counted
    children: list = dataclasses.field(default_factory=list)  # cli child timings


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONSTARTUP", "KAPPA_OUT_DIR")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure(wl, inputs, ctx: Context, seconds: float, min_tasks: int,
            seed: int, prof: cProfile.Profile | None = None) -> Phase:
    """Run tasks in a closed loop for `seconds` (and at least min_tasks)."""
    ph = Phase()
    ref_prev = None if wl.in_child else time_reference()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_tasks or time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        if isinstance(ctx.call, SpanRecorder):
            ctx.call.task = i
        ph.attempted += 1
        result = None
        try:
            if prof is not None:
                prof.enable()
            t0 = time.perf_counter()
            result = wl.task(inp, ctx)
            wall = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
            err = wl.check(inp, result)
        except Exception as exc:  # a failed task is counted, never fatal
            if prof is not None:
                prof.disable()
            err = f"{type(exc).__name__}: {exc}"
        if wl.in_child:
            if result is not None:
                ph.children.append(dict(result.child, spawn_s=result.spawn_s))
                refs = (result.child["ref_before"], result.child["ref_after"])
                ph.ref_s += refs
                wall = result.task_s
        else:
            refs = (ref_prev, time_reference())
            ph.ref_s.append(refs[1])
            ref_prev = refs[1]
        if result is not None:
            ph.wall_s.append(wall)
            ph.norm_s.append(normalised(wall, *refs))
        if err is None:
            try:
                for key, v in wl.work(inp, result).items():
                    ph.work[key] += v
                ph.worked += 1
            except Exception as exc:
                err = f"counting work: {type(exc).__name__}: {exc}"
        if err is not None:
            ph.failed += 1
            if ph.failed <= MAX_REPORTED_FAILURES:
                print(f"perfbench: FAILED {wl.name} seed={seed} task={i} "
                      f"inputs={inp!r}: {err}", file=sys.stderr)
        i += 1
    return ph


def warm_up(wl, inputs, ctx: Context) -> None:
    """Fill caches and finish lazy set-up before anything is timed."""
    for _ in range(3):
        time_reference()
    for inp in inputs[-WARMUP_TASKS:]:
        try:
            wl.task(inp, ctx)
        except Exception as exc:
            print(f"perfbench: warm-up task raised {exc!r}", file=sys.stderr)


def setup_seconds(name: str, seed: int, env: dict) -> list[float]:
    """Normalised set-up time from SETUP_PROBES fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        p = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append(normalised(p["setup_s"], p["ref_before"], p["ref_after"]))
    return out


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _require_samples(ph: Phase) -> None:
    if len(ph.norm_s) < 2:
        raise SystemExit(f"perfbench: only {len(ph.norm_s)} of {ph.attempted} "
                         "tasks produced a timing; nothing to report")


def _p90(xs: list) -> float:
    return statistics.quantiles(xs, n=10)[8]


def timed_metrics(wl, inputs, ctx: Context, args) -> tuple[dict, Phase]:
    setup = setup_seconds(wl.name, args.seed, ctx.env)
    warm_up(wl, inputs, ctx)
    ph = measure(wl, inputs, ctx, args.seconds, MIN_TASKS, args.seed)
    _require_samples(ph)
    who = resource.RUSAGE_CHILDREN if wl.in_child else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    ok = ph.attempted - ph.failed
    metrics = {
        "task_ms_p50": _m(statistics.median(ph.norm_s) * 1e3, "ms"),
        "task_ms_p90": _m(_p90(ph.norm_s) * 1e3, "ms"),
        "tasks_per_s": _m(ok / sum(ph.norm_s), "1/s"),
        "setup_s": _m(statistics.median(setup), "s"),
        "peak_rss_mb": _m(rss_mb, "MB"),
        "ok_frac": _m(ok / ph.attempted, "fraction"),
    }
    return metrics, ph


def traced_metrics(wl, inputs, ctx: Context, args) -> tuple[dict, Phase]:
    """Half the time untraced, half traced on the same inputs; per-layer
    numbers come from the traced half, raw times from the untraced one."""
    import layers

    warm_up(wl, inputs, ctx)
    plain = measure(wl, inputs, ctx, args.seconds / 2, TRACE_MIN_TASKS, args.seed)
    recorder = SpanRecorder()
    tctx = dataclasses.replace(ctx, trace=True, call=recorder)
    prof = None if wl.in_child else cProfile.Profile()
    traced = measure(wl, inputs, tctx, args.seconds / 2, TRACE_MIN_TASKS,
                     args.seed, prof=prof)
    _require_samples(plain)
    _require_samples(traced)
    if wl.in_child:
        prof_sum = layers.merge(c["layers"] for c in traced.children)
    else:
        prof_sum = layers.summarise(prof, str(SRC / "kappamath"))

    n = traced.attempted
    # Profiled self times are scaled to R_NOM like task times.
    scale = (R_NOM_MS / 1e3) / statistics.median(traced.ref_s)
    self_ms = {k: v * scale * 1e3 / n for k, v in prof_sum["self_s"].items()}
    total_ms = prof_sum["total_s"] * scale * 1e3 / n
    calls = {k: v / n for k, v in prof_sum["calls"].items()}
    count = {k: v / n for k, v in prof_sum["counts"].items()}
    work = {k: v / max(traced.worked, 1) for k, v in traced.work.items()}
    steps = work.get("steps", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_time(layer):
        return {f"{layer}.self_ms": _m(self_ms.get(layer, 0.0), "ms"),
                f"{layer}.self_share": _m(ratio(self_ms.get(layer, 0.0), total_ms),
                                          "fraction")}

    kids = plain.children

    def child_ms(key):
        return [normalised(c[key], c["ref_before"], c["ref_after"]) * 1e3
                for c in kids]

    metrics = {
        **layer_time("core"),
        "core.calls": _m(calls.get("core", 0.0), "count"),
        "core.kappa_exp_calls": _m(count["kappa_exp_calls"], "count"),
        "core.ns_per_call": _m(ratio(self_ms.get("core", 0.0) * 1e6,
                                     calls.get("core", 0.0)), "ns"),
        "core.quad_evals": _m(count["quad_evals"], "count"),
        **layer_time("series"),
        "series.calls": _m(calls.get("series", 0.0), "count"),
        "series.multiply_calls": _m(count["multiply_calls"], "count"),
        **layer_time("ode"),
        "ode.steps": _m(steps, "count"),
        "ode.rhs_evals": _m(count["rhs_evals"], "count"),
        "ode.rhs_per_step": _m(ratio(count["rhs_evals"], steps), "ratio"),
        "ode.us_per_step": _m(ratio(self_ms.get("ode", 0.0) * 1e3, steps), "us"),
        **layer_time("harness"),
        "harness.levels": _m(work.get("levels", 0.0), "count"),
        "harness.hit_floor_frac": _m(ratio(work.get("floor_hits", 0.0),
                                           work.get("ladders", 0.0)), "fraction"),
        "harness.exact_evals": _m(count["exact_evals"], "count"),
        "cli.import_ms": _m(statistics.median(child_ms("import_s")) if kids else 0.0,
                            "ms"),
        "cli.cmd_ms": _m(statistics.fmean(child_ms("cmd_s")) if kids else 0.0, "ms"),
        "cli.spawn_ms": _m(statistics.median(c["spawn_s"] for c in kids) * 1e3
                           if kids else 0.0, "ms"),
        "cli.bytes_written": _m(work.get("bytes_written", 0.0), "B"),
        "bench.ref_ms": _m(statistics.median(plain.ref_s) * 1e3, "ms"),
        "bench.wall_ms_p50": _m(statistics.median(plain.wall_s) * 1e3, "ms"),
        "trace.overhead": _m(statistics.median(traced.norm_s)
                             / statistics.median(plain.norm_s), "ratio"),
    }

    span_file = WORK_DIR / f"trace_{wl.name}_seed{args.seed}.json"
    span_file.write_text(json.dumps({
        "fields": ["task", "layer", "function", "start_ns", "end_ns"],
        "spans": recorder.spans, "profile": prof_sum}))
    merged = Phase(norm_s=plain.norm_s + traced.norm_s,
                   ref_s=plain.ref_s + traced.ref_s,
                   attempted=plain.attempted + traced.attempted,
                   failed=plain.failed + traced.failed)
    return metrics, merged


def _numpy_version() -> str:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "kappamath" / "__init__.py").is_file():
        print(f"perfbench: no kappamath sources in {SRC}", file=sys.stderr)
        return 2
    # Bytecode is compiled once up front, so no timed import compiles.
    compileall.compile_dir(str(SRC / "kappamath"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), maxlevels=0, quiet=1)
    sys.path.insert(0, str(SRC))
    import kappamath
    if Path(kappamath.__file__).resolve().parent != (SRC / "kappamath").resolve():
        print(f"perfbench: kappamath imported from {kappamath.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    ctx = Context(tmp=tmp, env=child_env(), call=workloads.plain_call)
    try:
        if args.trace:
            metrics, ph = traced_metrics(wl, inputs, ctx, args)
        else:
            metrics, ph = timed_metrics(wl, inputs, ctx, args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    refs_ms = [r * 1e3 for r in ph.ref_s]
    deciles = statistics.quantiles(refs_ms, n=10)
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": ph.attempted,
        "failed_frac": ph.failed / ph.attempted,
        "r_nom_ms": R_NOM_MS,
        "ref_ms_raw": {"min": min(refs_ms), "p10": deciles[0],
                       "p50": statistics.median(refs_ms), "p90": deciles[8],
                       "max": max(refs_ms), "runs": len(refs_ms)},
        "ranges": workloads.RANGES, "sizes": workloads.SIZES,
        "python": platform.python_version(), "numpy": _numpy_version(),
        "machine": {"system": platform.system(), "release": platform.release(),
                    "arch": platform.machine(), "cpus": os.cpu_count()},
    }
    for name, m in metrics.items():
        print(f"{name:24s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": ph.failed == 0, "attempted": ph.attempted,
                      "failed": ph.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
