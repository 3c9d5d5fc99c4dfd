"""Times the benchmark's set-up in a fresh interpreter: import of kappamath
plus construction of one workload's inputs, bracketed by runs of the
reference kernel.  Prints one JSON line.

    python3 perfbench/setup_probe.py WORKLOAD SEED

kappamath must be importable (PYTHONPATH).
"""

import json
import sys
import time

from refkernel import time_reference


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    time_reference()  # warm-up run, not used
    ref_before = time_reference()
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].make_inputs(seed)
    t1 = time.perf_counter()
    ref_after = time_reference()
    print(json.dumps({"setup_s": t1 - t0, "ref_before": ref_before,
                      "ref_after": ref_after}))


if __name__ == "__main__":
    main()
