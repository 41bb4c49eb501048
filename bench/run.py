"""Benchmark command for bidisc_schur.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from src/).
Workloads: inner-certify, toeplitz-series, kernel-cli (see README.md).

Each run is a closed loop: one caller in one process, BLAS on one thread,
sending the next operation only when the previous one has returned.  It
  1. times SETUP_PROBES fresh interpreters that import the package and build
     the workload's inputs (setup_s is their median);
  2. builds the inputs in this process and runs one untimed pass, whose
     outputs feed the self-test of every check;
  3. repeats whole passes until S seconds have passed and at least MIN_OPS
     operations have completed, timing each operation alone and checking
     its output outside the timed region; a reference kernel timed after
     each operation measures the machine's speed, and the timing metrics
     are scaled to a fixed reference speed pass by pass.
The last line of stdout is the JSON result.  With --trace 1 the package's
public functions are wrapped (spans.py) and the per-layer metrics are
printed instead of the end-to-end ones.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("inner-certify", "toeplitz-series", "kernel-cli")
SETUP_PROBES = 3
MIN_OPS = 100            # latency_p90_ms needs ten completed operations beyond it
MIN_PASSES = 3           # ops_per_s takes each operation's median over the passes
PROBE_TIMEOUT = 60
REFERENCE_S = 1.8e-3      # the reference kernel's time at the speed timings are scaled to


class MachineSpeed:
    """A fixed reference kernel, timed after every operation: a Python
    loop, small batched complex solves, building a list of pairs and copying
    4 MB, the kinds of work the workloads do.  The machine's speed drifts by
    tens of percent over seconds to minutes (README.md, Steadiness); the
    kernel's median time in a pass, against REFERENCE_S, measures it, and
    the pass's wall times are scaled by it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._solve = np.linalg.solve
        self._mats = np.eye(8) + 0.1 * (rng.normal(size=(64, 8, 8))
                                        + 1j * rng.normal(size=(64, 8, 8)))
        self._rhs = rng.normal(size=(64, 8, 1)) + 0j
        self._block = np.zeros(2 ** 18, dtype=np.complex128)

    def sample(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(2000):
            total += i * i
        self._solve(self._mats, self._rhs)
        [[float(i), 0.0] for i in range(1500)]
        self._block.copy()
        return time.perf_counter() - t0


def probe_setup(workload: str, seed: int, workdir: str) -> dict:
    """Wall time from a fresh interpreter's start to its inputs being built."""
    os.makedirs(workdir)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "probe.py"), workload,
                             str(seed), workdir], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    out = json.loads(line)
    out["setup_s"] = ready - start
    return out


def run(args, workdir: str) -> dict:
    probes = [probe_setup(args.workload, args.seed, os.path.join(workdir, f"probe{i}"))
              for i in range(SETUP_PROBES)]

    import bidisc_schur  # noqa: F401
    import ops as ops_mod
    module = importlib.import_module(args.workload.replace("-", "_"))
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs)
    ops = module.build(args.seed, inputs)

    # untimed pass: warms caches, records the first outputs, and with
    # tracing on takes the allocation peaks under tracemalloc
    problems, unexpected = [], []
    if tracer:
        tracer.memory = True
    for op in ops:
        try:
            rec = op.record(op.run())
        except Exception as exc:  # an unexpected program error fails the run's checks
            unexpected.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        errors = op.errors(rec)
        if errors and not op.known_fault:
            unexpected.extend(errors)
        else:
            problems.extend(ops_mod.self_test(op, rec))
    if tracer:
        tracer.memory = False
        tracer.reset()

    speed = MachineSpeed()
    times = [[] for _ in ops]        # each operation's wall time, one per pass
    completed = []                   # (pass, wall time) of the operations that completed
    scale = []                       # per pass: REFERENCE_S / median reference time
    attempted = failed = passes = bytes_in = 0
    start = time.perf_counter()
    while True:
        reference = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = attempted
            t0 = time.perf_counter()
            try:
                out = op.run()
                err = None
            except Exception as exc:  # an unexpected program error fails the operation
                out, err = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            reference.append(speed.sample())
            attempted += 1
            times[i].append(dt)
            errors = [err] if err else op.errors(op.record(out))
            if errors:
                failed += 1
                if not op.known_fault:
                    unexpected.extend(errors)
            else:
                completed.append((passes, dt))
            if tracer and hasattr(op, "bytes_in"):
                bytes_in += op.bytes_in()
        scale.append(REFERENCE_S / statistics.median(reference))
        passes += 1
        if time.perf_counter() - start >= args.seconds and len(completed) >= MIN_OPS \
                and passes >= MIN_PASSES:
            break

    for msg in (problems + unexpected)[:20]:
        print(f"check: {msg}", file=sys.stderr)
    result = {"correct": not problems and not unexpected, "attempted": attempted,
              "failed": failed}
    # a pass timed as the sum of each operation's median over the passes,
    # so that a burst of lost machine time in one pass does not count; wall
    # times are scaled to the reference speed pass by pass
    pass_s = sum(statistics.median(t * k for t, k in zip(ts, scale)) for ts in times)
    ops_per_s = len(completed) / passes / pass_s
    raw_ops_per_s = len(completed) / passes / sum(statistics.median(ts) for ts in times)
    busy = sum(map(sum, times))
    print(f"# {args.workload} seed {args.seed}: {passes} passes of {len(ops)} ops, "
          f"{raw_ops_per_s:.4g} ops/s at wall speed, {ops_per_s:.4g} at reference speed "
          f"(median speed {statistics.median(scale):.3f}), {busy:.2f} s busy")

    if not tracer:
        ms = [1000.0 * dt * scale[p] for p, dt in completed]
        result["metrics"] = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        return result

    self_s = tracer.self_times()
    print(f"# traced: spans attribute {sum(self_s.values()) / busy:.1%} of the busy time")
    metrics = {
        "setup.import_s": {"value": statistics.median(p["import_s"] for p in probes), "unit": "s"},
        "setup.inputs_s": {"value": statistics.median(p["inputs_s"] for p in probes), "unit": "s"},
    }
    for name in sorted(self_s):
        metrics[name] = {"value": 1000.0 * self_s[name] / attempted, "unit": "ms"}
    emit_s = self_s["serialize.emit_ms"]
    metrics.update({
        "colligation.transfer_points": {"value": tracer.points / attempted, "unit": "count"},
        "toeplitz.peak_alloc_mb": {"value": tracer.peaks["toeplitz"], "unit": "MB"},
        "serialize.emit_mb_per_s": {"value": tracer.bytes_out / 2 ** 20 / emit_s if emit_s else 0.0,
                                    "unit": "MB/s"},
        "serialize.bytes_in": {"value": bytes_in / attempted, "unit": "count"},
        "serialize.bytes_out": {"value": tracer.bytes_out / attempted, "unit": "count"},
        "serialize.peak_alloc_mb": {"value": tracer.peaks["serialize"], "unit": "MB"},
    })
    result["metrics"] = metrics
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    tracer.write(os.path.join(BENCH, "results", f"trace-{args.workload}-seed{args.seed}.json"))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bidisc_schur", "__init__.py")):
        print(f"error: no bidisc_schur package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    workdir = os.path.join(BENCH, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    with open(os.path.join(BENCH, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
