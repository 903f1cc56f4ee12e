"""peridyn benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run repeats whole rounds of the workload's
operations until ``--seconds`` have passed (at least one round), checks
every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``, the
median round time; ``setup_s``, the median time from a fresh interpreter to
the first operation ready, over several child processes; ``peak_rss_mb``);
with ``--trace 1`` they are the per-layer ones of :mod:`tracing`, medians
over rounds.  Every study runs with one worker thread and one BLAS thread,
and the run is pinned to one CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = BENCH_DIR / "out"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
READY = "ready"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that sets up, reports ready and exits (for setup_s)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import peridyn from this checkout's sources, not from anywhere else,
    single-threaded and pinned to one CPU."""
    if not (SRC / "peridyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no peridyn sources under {SRC}")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    # one CPU for the whole run (set-up probes inherit it): unpinned, rounds
    # in one process varied about twice as much on a shared 2-CPU machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import peridyn

    if Path(peridyn.__file__).resolve().parent != SRC / "peridyn":
        raise SystemExit(f"error: imported peridyn from {peridyn.__file__}")


def measure_setup(args) -> float:
    """Median seconds from spawning a fresh interpreter to its ready line."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != READY or child.returncode != 0:
            raise SystemExit(f"error: set-up probe failed (exit {child.returncode})")
        times.append(ready - start)
    return statistics.median(times)


def run_rounds(operations, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed; per-round records."""
    from workloads import run_operation

    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        outcomes, wall = [], 0.0
        free_dofs = 0
        for name, operation in operations:
            elapsed, outcome = run_operation(operation)
            wall += elapsed
            free_dofs += outcome.free_dofs
            outcomes.append((name, elapsed, outcome))
        layers = tracer.metrics(free_dofs) if tracer is not None else None
        rounds.append({"wall_s": wall, "outcomes": outcomes, "layers": layers})
        if time.perf_counter() - start >= seconds:
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose one of {', '.join(workloads.WORKLOADS)}")
    OUT_ROOT.mkdir(parents=True, exist_ok=True)
    operations = workloads.make_operations(args.workload, args.seed, str(OUT_ROOT))
    if args.probe:
        print(READY, flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            rounds = run_rounds(operations, args.seconds, tracer)
        tracer.write_spans(OUT_ROOT / f"{args.workload}-trace.json")
    else:
        rounds = run_rounds(operations, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    correct = True
    for i, r in enumerate(rounds):
        for name, elapsed, outcome in r["outcomes"]:
            attempted += 1
            failed += outcome.failed
            correct &= outcome.correct
            status = "FAILED" if outcome.failed else ("ok" if outcome.correct else "WRONG")
            print(f"round {i} {name}: {status} {elapsed:.3f} s {outcome.info}")
            for check, ok, detail in outcome.checks:
                if not ok:
                    print(f"  check {check} failed: {detail}")
    wall = [r["wall_s"] for r in rounds]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"wall_s {[round(w, 3) for w in wall]}, trace {args.trace}")

    if args.trace:
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            value = statistics.median(r["layers"][name] for r in rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT_ROOT / f"{args.workload}-result-trace{args.trace}.json", "w") as f:
        json.dump({**result, "seed": args.seed, "rounds_wall_s": wall}, f, indent=1)
        f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
