"""The benchmark's workloads and the worker process that runs one of them.

Every workload is a closed batch job: a fixed piece of work (one training
run, or one ``compare`` grid) repeated back to back, each repetition starting
when the previous one ends. The seed is the only input the benchmark varies;
the program receives just the ``RunConfig`` or config file built from it.

Run as a script, this module is a worker process that ``run.py`` spawns::

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 --copy K --out FILE

Untraced, it repeats the work until ``--seconds`` have passed (it starts a
repetition only when the previous ones say it will end in time; the first
always runs). Traced, it does the work once untraced and once under the
tracer. It writes one JSON document to ``--out``; copy ``K`` writes its CSV
outputs to its own directory, so copies can run side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from replay_opt import cli, harness  # noqa: E402

from tracer import Tracer  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
GRID_SAMPLERS = ("uniform", "per_prop", "per_rank", "ero")

# Why each workload exists is recorded in BENCHMARK.json.
RUN_WORKLOADS = {
    "uniform-pendulum": dict(env="pendulum", sampler="uniform", total_timesteps=10_000),
    "per_prop-point_reacher": dict(env="point_reacher", sampler="per_prop", total_timesteps=10_000),
    "ero-pendulum": dict(env="pendulum", sampler="ero", total_timesteps=20_000, lazy_refresh=False),
}
GRID_WORKLOADS = {
    "compare-grid": dict(env="pendulum", samplers=GRID_SAMPLERS, total_timesteps=3000),
}
WORKLOADS = (*RUN_WORKLOADS, *GRID_WORKLOADS)

PER_LAYER = [
    ("nn.forward.calls", "count"),
    ("nn.forward.rows", "count"),
    ("nn.forward.self_s", "s"),
    ("nn.forward_cached.self_s", "s"),
    ("nn.backward.self_s", "s"),
    ("nn.adam_step.calls", "count"),
    ("nn.adam_step.self_s", "s"),
    ("ddpg.act.self_s", "s"),
    ("ddpg.train_step.calls", "count"),
    ("ddpg.train_step.self_s", "s"),
    ("ddpg.critic_update.self_s", "s"),
    ("ddpg.actor_update.self_s", "s"),
    ("ddpg.soft_update.self_s", "s"),
    ("envs.step.calls", "count"),
    ("envs.step.self_s", "s"),
    ("envs.reset.calls", "count"),
    ("replay.store.calls", "count"),
    ("replay.store.self_s", "s"),
    ("replay.sample.self_s", "s"),
    ("replay.gather.self_s", "s"),
    ("replay.update_priorities.calls", "count"),
    ("replay.update_priorities.self_s", "s"),
    ("replay.sumtree_set.calls", "count"),
    ("replay.sumtree_set.self_s", "s"),
    ("replay.sumtree_find.self_s", "s"),
    ("replay.update_td_errors.attempted", "count"),
    ("replay.update_td_errors.stale", "count"),
    ("replay.subset_empty", "count"),
    ("ero.observe_store.calls", "count"),
    ("ero.observe_store.self_s", "s"),
    ("ero.refresh_scores.calls", "count"),
    ("ero.refresh_scores.rows", "count"),
    ("ero.refresh_scores.self_s", "s"),
    ("ero.update_policy.calls", "count"),
    ("ero.update_policy.skipped", "count"),
    ("ero.update_policy.self_s", "s"),
    ("ero.refresh_subset.calls", "count"),
    ("ero.refresh_subset.rows", "count"),
    ("ero.refresh_subset.self_s", "s"),
    ("ero.subset_fraction", "ratio"),
    ("harness.run.self_s", "s"),
    ("harness.run_suite.wall_s", "s"),
    ("harness.run_suite.parallel_efficiency", "ratio"),
    ("harness.write_csv.self_s", "s"),
    ("cli.compare.self_s", "s"),
    ("trace.overhead", "ratio"),
]


def grid_jobs() -> int:
    """One job per core available to this process."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def host_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "grid_jobs": grid_jobs(),
    }


def expected_train_steps(config: harness.RunConfig) -> int:
    """Train steps ``harness.run`` does for a config that cannot stop early."""
    iterations = 0
    step = 0
    while step < config.total_timesteps:
        step = min(step + config.rollout_steps, config.total_timesteps)
        if min(step, config.buffer_capacity) >= config.warmup_transitions:
            iterations += 1
    return iterations * config.train_steps_per_iter


def run_config(workload: str, seed: int) -> harness.RunConfig:
    return harness.RunConfig(seed=seed, **RUN_WORKLOADS[workload])


def sha256_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def check_summary(config: harness.RunConfig, summary: harness.RunSummary) -> list[str]:
    """Reasons a finished run counts as failed (empty when it is fine)."""
    problems = []
    returns = [e.episode_return for e in summary.episodes] + [summary.final_window_mean]
    if not all(math.isfinite(r) for r in returns):
        problems.append("non-finite return")
    if summary.total_steps != config.total_timesteps:
        problems.append(f"total_steps {summary.total_steps} != {config.total_timesteps}")
    if summary.train_steps != expected_train_steps(config):
        problems.append(f"train_steps {summary.train_steps} != {expected_train_steps(config)}")
    return problems


@dataclasses.dataclass
class Rep:
    """One repetition of a workload's fixed work."""

    seconds: float
    env_steps: int
    runs: int
    digest: str = ""
    final_return: float = float("nan")
    problems: list[str] = dataclasses.field(default_factory=list)

    @property
    def steps_per_s(self) -> float:
        return self.env_steps / self.seconds


def run_rep(workload: str, seed: int, out: Path, tracer: Tracer | None = None) -> Rep:
    out.mkdir(parents=True, exist_ok=True)
    if workload in GRID_WORKLOADS:
        return _grid_rep(workload, seed, out, tracer)
    config = run_config(workload, seed)
    try:
        start = time.perf_counter()
        if tracer is None:
            summary = harness.run(config)
        else:
            with tracer:
                summary = harness.run(config)
        seconds = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
        return Rep(seconds=float("nan"), env_steps=0, runs=1, problems=[f"raised {exc!r}"])
    paths = (out / "episodes.csv", out / "trace.csv")
    harness.write_episode_csv(summary.episodes, paths[0])
    harness.write_trace_csv(summary.traces, paths[1])
    return Rep(
        seconds=seconds,
        env_steps=summary.total_steps,
        runs=1,
        digest=sha256_files(paths),
        final_return=summary.final_window_mean,
        problems=check_summary(config, summary),
    )


def _grid_rep(workload: str, seed: int, out: Path, tracer: Tracer | None) -> Rep:
    spec = GRID_WORKLOADS[workload]
    cfg = out / "grid.cfg"
    cfg.write_text(
        f"env = {spec['env']}\n"
        f"samplers = {', '.join(spec['samplers'])}\n"
        f"seeds = {seed}\n"
        f"total_timesteps = {spec['total_timesteps']}\n"
    )
    for old in out.glob("episodes-*.csv"):
        old.unlink()
    argv = ["compare", "--config", str(cfg), "--jobs", str(grid_jobs()), "--out", str(out)]
    runs = len(spec["samplers"])
    if tracer is not None:
        tracer.install()
    # keep the suite's results so every run's step counts can be checked
    suite = harness.run_suite
    results = []

    def keep_results(*args, **kwargs):
        got = suite(*args, **kwargs)
        results.extend(got)
        return got

    harness.run_suite = keep_results
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):  # the summary table
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - a raising grid fails all its runs
        return Rep(seconds=float("nan"), env_steps=0, runs=runs,
                   problems=[f"raised {exc!r}"] * runs)
    finally:
        harness.run_suite = suite
        if tracer is not None:
            tracer.uninstall()
    problems = []
    if code != 0:
        problems.append(f"compare exited {code}")
    finals = []
    for res in results:
        if res.error is not None:
            problems.append(f"{res.config.sampler} raised {res.error!r}")
            continue
        problems += [f"{res.config.sampler}: {p}" for p in check_summary(res.config, res.summary)]
        finals.append(res.summary.final_window_mean)
    if len(results) != runs:
        problems.append(f"{len(results)} of {runs} runs reported")
    return Rep(
        seconds=seconds,
        env_steps=sum(r.summary.total_steps for r in results if r.summary is not None),
        runs=runs,
        digest=sha256_files(sorted(out.glob("episodes-*.csv"))),
        final_return=float(np.mean(finals)) if finals else float("nan"),
        problems=problems,
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(workload: str, seed: int, seconds: float, out: Path) -> list[Rep]:
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, seed, out))
        elapsed = time.perf_counter() - start
        # start another repetition only if it should end within the budget
        if reps[-1].problems or elapsed + elapsed / len(reps) > seconds:
            break
    return reps


def measure_traced(workload: str, seed: int, out: Path) -> tuple[list[Rep], dict]:
    plain = run_rep(workload, seed, out)
    tracer = Tracer()
    traced = run_rep(workload, seed, out, tracer)
    tracer.write_spans(out / "spans.csv")
    if traced.digest != plain.digest:
        traced.problems.append("traced outputs differ from untraced outputs")
    table = tracer.table()
    table["ero.subset_fraction"] = (
        table.get("ero.refresh_subset.selected", 0.0) / table["ero.refresh_subset.rows"]
        if table.get("ero.refresh_subset.rows") else 0.0
    )
    jobs_wall = table.get("harness.run_suite.jobs_x_wall_s", 0.0)
    table["harness.run_suite.parallel_efficiency"] = (
        table.get("harness.run_suite.run_wall_s", 0.0) / jobs_wall if jobs_wall else 0.0
    )
    table["trace.overhead"] = traced.steps_per_s / plain.steps_per_s
    return [plain, traced], {name: [float(table.get(name, 0.0)), unit] for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--copy", type=int, default=0, help="index of this copy among concurrent ones")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = OUT_DIR / f"{args.workload}-seed{args.seed}-copy{args.copy}"
    result = {"host": host_info()}
    if args.trace:
        reps, result["per_layer"] = measure_traced(args.workload, args.seed, out)
    else:
        reps = measure(args.workload, args.seed, args.seconds, out)
        result["peak_rss_mb"] = peak_rss_mb()
    result["reps"] = [dataclasses.asdict(r) for r in reps]
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
