"""Per-layer summary of a cProfile run.

Self time and calls are charged to the kappamath module (layer) that owns
each function.  Time in builtins and in other libraries' code is charged to
the layer that called it, following cProfile's caller -> callee edges up to
the nearest owned caller.  Counts of particular crossings (integrand calls
made by core, `rhs` and `exact` evaluations, series products) come from the
same edges.  The summary is a dict of plain numbers, so summaries from child
interpreters can be sent back as JSON and added up with `merge`.
"""

from __future__ import annotations

import cProfile
from collections import defaultdict
from pathlib import Path

LAYERS = ("core", "series", "ode", "harness", "cli")
BENCH_DIR = str(Path(__file__).resolve().parent)
COUNTS = ("kappa_exp_calls", "quad_evals", "multiply_calls", "rhs_evals",
          "exact_evals")


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)


def summarise(prof: cProfile.Profile, package_dir: str) -> dict:
    """Aggregate prof by layer.  package_dir is the kappamath package
    directory; functions in files there belong to the layer named after the
    file, functions in the benchmark's own files to "bench"."""
    package_dir = str(Path(package_dir).resolve())

    def owner_of(code) -> str | None:
        if isinstance(code, str):  # builtin
            return None
        path = str(Path(code.co_filename).resolve())
        if path.startswith(package_dir):
            return Path(path).stem
        if path.startswith(BENCH_DIR):
            return "bench"
        return None

    entries = prof.getstats()
    owner = {e.code: owner_of(e.code) for e in entries}
    incoming = defaultdict(list)  # callee -> [(caller, self time, calls)]
    for e in entries:
        for sub in e.calls or ():
            incoming[sub.code].append((e.code, sub.inlinetime, sub.callcount))

    # Share of each foreign function's self time owed to each layer, found by
    # iterating over its callers until the shares settle.
    share: dict = {}
    foreign = [e.code for e in entries if owner[e.code] is None]
    for _ in range(8):
        for code in foreign:
            acc = defaultdict(float)
            for caller, t, _n in incoming[code]:
                if owner.get(caller):
                    acc[owner[caller]] += t
                elif caller != code:
                    for layer, s in share.get(caller, {}).items():
                        acc[layer] += t * s
            total = sum(acc.values())
            share[code] = {k: v / total for k, v in acc.items()} if total else {}

    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = dict.fromkeys(COUNTS, 0)
    total_s = 0.0
    for e in entries:
        total_s += e.inlinetime
        layer = owner[e.code]
        if layer:
            self_s[layer] += e.inlinetime
            calls[layer] += e.callcount
            name = _qualname(e.code)
            if layer == "core" and name == "kappa_exp":
                counts["kappa_exp_calls"] += e.callcount
            elif layer == "series" and name == "series_multiply":
                counts["multiply_calls"] += e.callcount
            elif layer == "ode" and name.endswith(".rhs"):
                counts["rhs_evals"] += e.callcount
        else:
            parts = share.get(e.code) or {"bench": 1.0}
            for part, s in parts.items():
                self_s[part] += e.inlinetime * s
        for sub in e.calls or ():
            callee = owner.get(sub.code)
            # Core calling out to another layer is quadrature calling its
            # integrand; harness calling `exact` is an error evaluation.
            if layer == "core" and callee in LAYERS and callee != "core":
                counts["quad_evals"] += sub.callcount
            elif (layer == "harness" and callee == "ode"
                  and _qualname(sub.code).endswith(".exact")):
                counts["exact_evals"] += sub.callcount
    return {"total_s": total_s, "self_s": dict(self_s), "calls": dict(calls),
            "counts": counts}


def merge(summaries) -> dict:
    """Add up summaries, e.g. one per child interpreter."""
    out = {"total_s": 0.0, "self_s": defaultdict(float), "calls": defaultdict(int),
           "counts": dict.fromkeys(COUNTS, 0)}
    for s in summaries:
        out["total_s"] += s["total_s"]
        for key in ("self_s", "calls", "counts"):
            for name, v in s[key].items():
                out[key][name] += v
    return {"total_s": out["total_s"], "self_s": dict(out["self_s"]),
            "calls": dict(out["calls"]), "counts": out["counts"]}
