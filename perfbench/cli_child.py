"""Runs one kappamath CLI command in a fresh interpreter and times it from
the inside: `import kappamath.cli` and `cli.main(argv)`, bracketed by runs
of the reference kernel, so that interpreter start-up is left out and the
machine's speed is measured in the same process.

    python3 perfbench/cli_child.py RESULT_JSON TRACE(0|1) CLI_ARG...

kappamath must be importable (PYTHONPATH).  The timings, and with TRACE=1
a per-layer profile summary, are written to RESULT_JSON.
"""

import json
import sys
import time

from refkernel import time_reference


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    time_reference()  # warm-up run, not used
    ref_before = time_reference()
    prof = None
    if trace:
        import cProfile
        prof = cProfile.Profile()
        prof.enable()
    t0 = time.perf_counter()
    import kappamath.cli
    t1 = time.perf_counter()
    try:
        rc = kappamath.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    sys.stdout.flush()
    t2 = time.perf_counter()
    if prof is not None:
        prof.disable()
    ref_after = time_reference()
    out = {"rc": rc, "import_s": t1 - t0, "cmd_s": t2 - t1,
           "ref_before": ref_before, "ref_after": ref_after}
    if prof is not None:
        from pathlib import Path

        import layers
        out["layers"] = layers.summarise(
            prof, str(Path(kappamath.cli.__file__).parent))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
