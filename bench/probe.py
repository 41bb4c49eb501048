"""Set-up probe, run by run.py in a fresh interpreter:

    python3 bench/probe.py WORKLOAD SEED WORKDIR

imports bidisc_schur, builds the workload's inputs in WORKDIR and prints one
JSON line {"import_s", "inputs_s"} as soon as the inputs are ready.  run.py
times the whole process from its start to that line.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_t0 = time.perf_counter()
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import bidisc_schur  # noqa: E402,F401

_t1 = time.perf_counter()


def main() -> int:
    import importlib
    import json

    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    module = importlib.import_module(workload.replace("-", "_"))
    module.build(seed, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": _t1 - _t0, "inputs_s": t2 - _t1}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
