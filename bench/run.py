"""replay-opt benchmark: one workload, end-to-end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed). ``--trace 0`` measures the end-to-end
metrics: ``env_steps_per_s`` (median over the back-to-back repetitions of
the workload's fixed work, done by one worker process per core),
``setup_s`` (median time for a fresh process to import ``replay_opt``) and
``peak_rss_mb`` (largest worker). ``--trace 1`` runs the work once untraced
and once traced in one process and reports the per-layer metrics.

Every process runs with one BLAS thread. The output lists the host, each
metric by name with its unit, each workload's final return and output digest
(compared with ``reference.json``, for information only), and, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code: 0 when every run was correct, 1 when a correctness
check failed, 2 when the program or the workload could not be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_ROUNDS = 6
WORKER_TIMEOUT_S = 170
SELF_PARALLEL = {"compare-grid"}  # workloads that already keep every core busy
MAX_COPIES = 4  # bounds memory on hosts with many cores
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# prints the system-wide monotonic clock once the package is imported
READY_SCRIPT = "import time, replay_opt, replay_opt.cli; print(time.monotonic(), flush=True)"


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(rounds: int = SETUP_ROUNDS) -> float:
    """Median time from spawning a fresh interpreter to ``replay_opt`` being ready.

    Each round spawns one interpreter per core at once, as the workloads keep
    every core busy. One untimed round first, so byte-code caches written by
    the first import in a fresh checkout are not counted.
    """
    times = []
    for round_ in range(rounds + 1):
        starts, procs = [], []
        try:
            for _ in range(cores()):
                starts.append(time.monotonic())
                procs.append(subprocess.Popen([sys.executable, "-c", READY_SCRIPT], cwd=ROOT,
                                              env=child_env(), stdout=subprocess.PIPE))
            for start, proc in zip(starts, procs):
                try:
                    ready = float(proc.stdout.readline())
                except ValueError:
                    raise RuntimeError("replay_opt failed to import in a fresh process") from None
                if round_:
                    times.append(ready - start)
        finally:
            for proc in procs:
                proc.stdout.close()
                proc.wait(timeout=60)
    return statistics.median(times)


def cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def copies_for(args) -> int:
    """Concurrent copies of the workload: one per core (up to ``MAX_COPIES``).

    On a shared host a lone process runs at a speed that swings with what
    the other hardware threads are doing (back-to-back single runs of one
    config differed by up to 25%); with every core busy, runs started
    together agree within a few percent. ``compare-grid`` already runs one job per core, and the
    traced run compares a traced and an untraced pass in one process.
    """
    if args.trace or args.workload in SELF_PARALLEL:
        return 1
    return min(cores(), MAX_COPIES)


def run_workers(args) -> list[dict]:
    OUT_DIR.mkdir(exist_ok=True)
    outs, procs = [], []
    try:
        for copy in range(copies_for(args)):
            out = OUT_DIR / f"{args.workload}-seed{args.seed}-copy{copy}-trace{args.trace}.json"
            out.unlink(missing_ok=True)
            outs.append(out)
            procs.append(subprocess.Popen(
                [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--copy", str(copy), "--out", str(out)],
                cwd=ROOT, env=child_env(),
            ))
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        codes = [proc.wait(timeout=max(1.0, deadline - time.monotonic())) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes) or not all(out.is_file() for out in outs):
        raise RuntimeError(f"workload processes exited {codes}")
    return [json.loads(out.read_text()) for out in outs]


def count_failed(reps: list[dict]) -> int:
    """Runs that raised, broke an invariant, or wrote other bytes than the first good rep."""
    first = next((r["digest"] for r in reps if not r["problems"]), None)
    failed = 0
    for rep in reps:
        if not rep["problems"] and rep["digest"] != first:
            rep["problems"].append(f"digest {rep['digest'][:12]} differs from {first[:12]}")
        if rep["problems"]:
            failed += min(rep["runs"], len(rep["problems"]))
    return failed


def reference_line(workload: str, seed: int, reps: list[dict]) -> str:
    rep = reps[0]
    line = f"reference {workload} seed={seed}: final_return={rep['final_return']!r} digest={rep['digest']}"
    table = json.loads((BENCH / "reference.json").read_text()).get(workload, {})
    ref = table.get(str(seed))
    if ref is None:
        return f"{line} (no reference for this seed)"
    if ref["digest"] == rep["digest"]:
        return f"{line} (matches reference)"
    return f"{line} (differs from reference {ref['digest']}, final_return={ref['final_return']!r})"


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="replay-opt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its worker processes (see run_workers)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "replay_opt" / "__init__.py").is_file():
        print(f"no replay_opt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = None if args.trace else setup_seconds()
        results = run_workers(args)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    reps = [rep for result in results for rep in result["reps"]]
    failed = count_failed(reps)
    if args.trace:
        metrics = results[0]["per_layer"]  # name -> [value, unit]
    else:
        rates = [r["env_steps"] / r["seconds"] for r in reps if not r["problems"]]
        metrics = {
            "env_steps_per_s": [statistics.median(rates) if rates else 0.0, "steps/s"],
            "setup_s": [setup, "s"],
            "peak_rss_mb": [max(r["peak_rss_mb"] for r in results), "MiB"],
        }
    print("host " + json.dumps(results[0]["host"], sort_keys=True))
    for rep in reps:
        print(f"rep seconds={rep['seconds']:.4f} env_steps={rep['env_steps']} runs={rep['runs']}")
    print(reference_line(args.workload, args.seed, reps))
    problems = [p for rep in reps for p in rep["problems"]]
    for problem in problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["runs"] for r in reps),
        "failed": failed,
        "metrics": {name: {"value": finite(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
