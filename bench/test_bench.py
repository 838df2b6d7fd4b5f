"""Tests of the benchmark itself: the tracer, the workloads and the entry point.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import replay_opt
from replay_opt import RunConfig, cli, ddpg, ero, harness, nn

import workload
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def traced_run(config: RunConfig) -> tuple[Tracer, harness.RunSummary]:
    tracer = Tracer()
    with tracer:
        summary = harness.run(config)
    return tracer, summary


def csv_digest(summary: harness.RunSummary, out: Path) -> str:
    out.mkdir(parents=True, exist_ok=True)
    paths = (out / "episodes.csv", out / "trace.csv")
    harness.write_episode_csv(summary.episodes, paths[0])
    harness.write_trace_csv(summary.traces, paths[1])
    return workload.sha256_files(paths)


def test_wrappers_sit_at_every_lookup_site_and_come_off():
    originals = (nn.adam_step, harness.run, harness.run_suite, nn.Mlp.forward, cli.cmd_compare)
    with Tracer():
        assert ddpg.adam_step is ero.adam_step is nn.adam_step is replay_opt.adam_step
        assert nn.adam_step is not originals[0]
        assert harness.run is replay_opt.run and harness.run is not originals[1]
        assert harness.run_suite is replay_opt.run_suite and harness.run_suite is not originals[2]
        assert nn.Mlp.forward is not originals[3]
        assert cli.cmd_compare is not originals[4]
    assert (nn.adam_step, harness.run, harness.run_suite, nn.Mlp.forward, cli.cmd_compare) == originals
    assert ddpg.adam_step is ero.adam_step is originals[0]


@pytest.mark.parametrize(
    "env,sampler",
    [("pendulum", "uniform"), ("point_reacher", "per_prop"), ("pendulum", "per_rank"), ("pendulum", "ero")],
)
def test_traced_run_writes_the_same_bytes(tmp_path, env, sampler):
    config = dict(env=env, sampler=sampler, total_timesteps=1500, seed=3)
    plain = csv_digest(harness.run(RunConfig(**config)), tmp_path / "plain")
    _, summary = traced_run(RunConfig(**config))
    assert csv_digest(summary, tmp_path / "traced") == plain


def test_child_spans_fit_inside_their_parent():
    tracer, _ = traced_run(RunConfig(sampler="ero", total_timesteps=1500, seed=1))
    spans = {sid: (parent, end - start) for sid, parent, _, start, end, _ in tracer.spans}
    children: dict[int, float] = {}
    for parent, duration in spans.values():
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + duration
    self_s = tracer.self_times()
    assert children, "expected nested spans"
    for sid, (parent, duration) in spans.items():
        assert children.get(sid, 0.0) <= duration
        assert 0.0 <= self_s[sid] <= duration
        if parent is not None:
            assert self_s[sid] <= spans[parent][1]


def test_counts_of_a_default_uniform_run_match_the_formulas():
    tracer, summary = traced_run(RunConfig())
    table = tracer.table()
    assert summary.train_steps == workload.expected_train_steps(RunConfig()) == 4550
    assert table["envs.step.calls"] == 10_000
    assert table["replay.store.calls"] == 10_000
    assert table["ddpg.train_step.calls"] == 4550
    assert table["nn.adam_step.calls"] == 2 * 4550
    assert table["replay.update_td_errors.attempted"] == 4550 * 64
    zero = [k for k in table if k.startswith(("ero.", "replay.sumtree_"))]
    assert all(table[k] == 0 for k in zero)


def test_proportional_per_writes_the_tree_every_train_step():
    config = RunConfig(env="point_reacher", sampler="per_prop", total_timesteps=2000, seed=2)
    tracer, summary = traced_run(config)
    table = tracer.table()
    assert table["ddpg.train_step.calls"] == summary.train_steps > 0
    assert table["replay.sumtree_set.calls"] >= table["ddpg.train_step.calls"]
    assert table["replay.sumtree_find.calls"] == table["ddpg.train_step.calls"]


def test_grid_rep_is_deterministic_and_traced(tmp_path, monkeypatch):
    monkeypatch.setitem(
        workload.GRID_WORKLOADS,
        "compare-grid",
        dict(env="pendulum", samplers=workload.GRID_SAMPLERS, total_timesteps=1200),
    )
    plain = workload.run_rep("compare-grid", 5, tmp_path)
    tracer = Tracer()
    traced = workload.run_rep("compare-grid", 5, tmp_path, tracer)
    assert plain.problems == traced.problems == []
    assert plain.digest == traced.digest
    assert plain.env_steps == traced.env_steps == 4 * 1200
    table = tracer.table()
    assert table["cli.compare.calls"] == 1
    assert table["harness.run.calls"] == 4
    assert table["harness.write_csv.calls"] >= 1
    assert table["harness.run_suite.run_wall_s"] > 0


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workload.PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "env_steps_per_s": "steps/s",
        "setup_s": "s",
        "peak_rss_mb": "MiB",
    }


def test_entry_point_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "uniform-pendulum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
