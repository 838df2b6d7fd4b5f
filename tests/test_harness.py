"""Run-loop accounting, determinism, and metrics round-trip tests."""

from __future__ import annotations

import dataclasses
import gc
import io
import re
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from replay_opt import replay
from replay_opt.errors import ConfigError, DegeneratePriorityError
from replay_opt.harness import (
    SAMPLER_KINDS,
    EpisodeRecord,
    EvalRecord,
    RunConfig,
    SummaryRow,
    TraceRecord,
    Trainer,
    planned_floats,
    planned_train_steps,
    read_csv,
    run,
    run_suite,
    summarize,
    write_episode_csv,
    write_eval_csv,
    write_summary_csv,
    write_trace_csv,
)
from replay_opt.nn import BLOCK, Mlp
from test_acceptance import gate_step


def quick_config(**kwargs) -> RunConfig:
    defaults = dict(
        env="pendulum",
        sampler="uniform",
        total_timesteps=1200,
        seed=0,
        buffer_capacity=4000,
        warmup_transitions=200,
        train_steps_per_iter=10,
        hidden_sizes=(16, 16),
        trace_interval=20,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRun:
    def test_zero_timesteps_empty_run(self):
        summary = run(quick_config(total_timesteps=0))
        assert summary.episodes == []
        assert summary.traces == []
        assert summary.total_steps == 0

    def test_exactly_one_episode_at_200_steps(self):
        summary = run(quick_config(total_timesteps=200, warmup_transitions=1000))
        assert len(summary.episodes) == 1
        rec = summary.episodes[0]
        assert rec.length == 200
        assert rec.global_step == 200
        assert rec.rc_window == rec.episode_return

    def test_step_accounting_is_exact(self):
        summary = run(quick_config(total_timesteps=1150))
        partial = summary.total_steps - sum(r.length for r in summary.episodes)
        assert summary.total_steps == 1150
        assert 0 <= partial < 200

    def test_invalid_configs_rejected_before_work(self):
        with pytest.raises(ConfigError):
            run(quick_config(sampler="priority_queue"))
        with pytest.raises(ConfigError):
            run(quick_config(env="cartpole"))
        with pytest.raises(ConfigError):
            run(quick_config(rollout_steps=0))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"per_epsilon": -1.0}, "per_epsilon must be >= 0"),
            ({"per_alpha": -0.5}, "per_alpha must be >= 0"),
            ({"per_alpha": float("nan")}, "per_alpha must be >= 0"),
            ({"per_beta0": -0.1}, r"per_beta0 must be in \[0, 1\]"),
            ({"per_beta0": 1.5}, r"per_beta0 must be in \[0, 1\]"),
            ({"rank_refresh_interval": 0}, "rank_refresh_interval must be >= 1"),
            ({"per_alpha": float("inf")}, "per_alpha must be >= 0 and finite, got inf"),
            ({"per_epsilon": float("inf")}, "per_epsilon must be >= 0 and finite, got inf"),
        ],
    )
    def test_invalid_per_settings_rejected(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            quick_config(sampler="per_prop", **setting).validate()

    def test_per_setting_bounds_accepted(self):
        quick_config(per_epsilon=0.0, per_alpha=0.0, per_beta0=0.0).validate()
        quick_config(per_beta0=1.0, rank_refresh_interval=1).validate()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"gamma": 5.0}, r"gamma must be in \(0, 1\)"),
            ({"gamma": 1.0}, r"gamma must be in \(0, 1\)"),
            ({"gamma": 0.0}, r"gamma must be in \(0, 1\)"),
            ({"gamma": float("nan")}, r"gamma must be in \(0, 1\)"),
            ({"tau": 0.0}, r"tau must be in \(0, 1\]"),
            ({"tau": -3.0}, r"tau must be in \(0, 1\]"),
            ({"tau": float("nan")}, r"tau must be in \(0, 1\]"),
            ({"actor_lr": float("nan")}, "actor_lr must be finite and > 0"),
            ({"critic_lr": -1.0}, "critic_lr must be finite and > 0"),
            ({"critic_lr": float("inf")}, "critic_lr must be finite and > 0"),
            ({"ero_lr": 0.0}, "ero_lr must be finite and > 0"),
            ({"ou_theta": -0.1}, "ou_theta must be >= 0"),
            ({"ou_sigma": float("nan")}, "ou_sigma must be >= 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"early_stop_threshold": float("nan")}, "early_stop_threshold must be a number, got nan"),
            ({"hidden_sizes": (0,)}, r"hidden_sizes must be integers >= 1, got \(0,\)"),
            ({"hidden_sizes": (16, -3)}, r"hidden_sizes must be integers >= 1, got \(16, -3\)"),
            ({"ou_sigma": float("inf")}, "ou_sigma must be >= 0 and finite, got inf"),
            ({"ou_theta": float("inf")}, "ou_theta must be >= 0 and finite, got inf"),
            ({"early_stop_threshold": float("inf")}, "early_stop_threshold must be finite, got inf"),
            ({"early_stop_threshold": -float("inf")}, "early_stop_threshold must be finite, got -inf"),
            # a library caller's non-integer counts, caught before numpy sees them
            ({"batch_size": 64.5}, "batch_size must be an integer, got 64.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"trace_interval": 2.5}, "trace_interval must be an integer, got 2.5"),
            ({"rollout_steps": True}, "rollout_steps must be an integer, got True"),
            ({"total_timesteps": "100"}, "total_timesteps must be an integer, got '100'"),
            ({"hidden_sizes": (True,)}, r"hidden_sizes must be integers >= 1, got \(True,\)"),
            # and every other field takes its declared type
            ({"tau": True}, "tau must be a number, got True"),
            ({"per_alpha": True}, "per_alpha must be a number, got True"),
            ({"gamma": "0.9"}, "gamma must be a number, got '0.9'"),
            ({"early_stop_threshold": "-100"}, "early_stop_threshold must be a number, got '-100'"),
            ({"config_id": True}, "config_id must be a string, got True"),
            ({"out_dir": 5}, "out_dir must be a string, got 5"),
            ({"hidden_sizes": 64}, "hidden_sizes must be integers >= 1, got 64"),
            # a string the effective config file's ``key = value`` lines cannot carry
            ({"out_dir": "runs#1"}, "out_dir must have no '#', line break, or leading or trailing whitespace, got"),
            ({"config_id": "a\nb"}, "config_id must have no '#', line break, or leading or trailing whitespace"),
            ({"config_id": "a\u2028b"}, "config_id must have no '#', line break, or leading or trailing whitespace"),
            ({"config_id": " x"}, "config_id must have no '#', line break, or leading or trailing whitespace"),
            ({"out_dir": "runs\t"}, "out_dir must have no '#', line break, or leading or trailing whitespace"),
        ],
    )
    def test_invalid_learning_settings_rejected(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            quick_config(sampler="ero", **setting).validate()

    def test_lazy_refresh_is_accepted_only_as_false(self):
        # ``bench/workload.py`` still passes it; it is not a field
        assert RunConfig(lazy_refresh=False) == RunConfig()
        assert "lazy_refresh" not in {f.name for f in dataclasses.fields(RunConfig)}
        with pytest.raises(ConfigError, match="lazy_refresh is gone"):
            RunConfig(lazy_refresh=True)

    def test_learning_setting_bounds_accepted(self):
        quick_config(tau=1.0).validate()
        quick_config(gamma=0.999, actor_lr=1e-12, critic_lr=10.0, ero_lr=1e-6).validate()
        quick_config(hidden_sizes=()).validate()  # nets with no hidden layer
        quick_config(hidden_sizes=(1,)).validate()
        quick_config(seed=np.int64(3), batch_size=np.int32(8)).validate()
        quick_config(tau=1, early_stop_threshold=-100, hidden_sizes=[8, 8]).validate()  # ints are numbers

    # validate only: never run these through run or the CLI, which would allocate them
    @pytest.mark.parametrize("setting", [{"hidden_sizes": (100_000_000,)}, {"batch_size": 100_000_000}])
    def test_configs_larger_than_memory_rejected(self, setting):
        config = RunConfig(**setting)
        assert 8 * planned_floats(config) > 100 * 2**30
        with pytest.raises(ConfigError, match=r"need at least [0-9.]+ GiB, more than the [0-9.]+ GiB of physical"):
            config.validate()

    def test_large_configs_within_memory_accepted(self):
        RunConfig().validate()
        RunConfig(sampler="ero").validate()
        RunConfig(hidden_sizes=(4096, 4096), batch_size=4096).validate()

    def test_planned_floats_by_hand(self):
        # pendulum (3-d obs, 1-d action), one hidden layer of 2, batch 5:
        # actor 3-2-1 has 8 + 3 = 11 params, critic 4-2-1 has 10 + 3 = 13,
        # the ERO score net 3-2-1 has 11
        config = RunConfig(hidden_sizes=(2,), batch_size=5)
        assert planned_floats(config) == 8 * (11 + 13) + 5 * (6 + 7)
        assert planned_floats(dataclasses.replace(config, sampler="ero")) == 257 + 6 * 11
        # rank PER: sorted slots, probabilities and CDF over the largest live size
        rank = dataclasses.replace(config, sampler="per_rank", buffer_capacity=3000, total_timesteps=2000)
        assert planned_floats(rank) == 257 + 3 * 2000

    @pytest.mark.parametrize("alpha, valid", [(0.6, True), (309.0, True), (310.0, False), (330.0, False)])
    def test_rank_alpha_rejected_exactly_where_a_full_buffer_draw_is_degenerate(self, alpha, valid):
        # over 10 ranks the smallest probability is about 10 ** -alpha: at 310 its
        # IS weight at beta = 1 overflows, and at 330 it underflows to 0
        config = RunConfig(sampler="per_rank", per_alpha=alpha, buffer_capacity=10, total_timesteps=10,
                           warmup_transitions=10)
        buf = replay.ReplayBuffer(10, obs_dim=1, action_dim=1)
        for step in range(1, 11):
            buf.store([0.0], [0.0], 0.0, [0.0], False, step)
        sampler = replay.PerRankSampler(buf, np.random.default_rng(0), alpha=alpha, beta0=1.0)
        if valid:
            config.validate()
            assert np.all(np.isfinite(sampler.sample(4).is_weights))
        else:
            with pytest.raises(ConfigError, match=f"per_alpha {alpha} is too large for 10 slots"):
                config.validate()
            with pytest.raises(DegeneratePriorityError):
                sampler.sample(4)

    def test_rank_alpha_checked_at_the_largest_live_size(self):
        # at alpha 100 the smallest probability is about 100 ** -100 = 1e-200 over 100
        # ranks, and 10_000 ** -100 underflows to 0: the check ranks min(capacity, steps)
        # slots, 10_000 for the default 10k-step run into a 100k buffer
        RunConfig(sampler="per_rank").validate()  # the default alpha
        RunConfig(sampler="per_rank", per_alpha=100.0, total_timesteps=100, warmup_transitions=100).validate()
        with pytest.raises(ConfigError, match="per_alpha 100.0 is too large for 10000 slots"):
            RunConfig(sampler="per_rank", per_alpha=100.0).validate()
        RunConfig(sampler="per_prop", per_alpha=100.0).validate()  # proportional PER is not ranked

    def test_warmup_above_capacity_rejected(self):
        # the buffer stops growing at its capacity, so such a run never trains
        with pytest.raises(ConfigError, match=r"warmup_transitions \(501\) must be <= buffer_capacity \(500\)"):
            quick_config(buffer_capacity=500, warmup_transitions=501).validate()

    def test_warmup_equal_to_capacity_trains(self):
        summary = run(quick_config(total_timesteps=400, buffer_capacity=300, warmup_transitions=300))
        assert summary.train_steps > 0

    @pytest.mark.parametrize(
        "settings",
        [
            dict(warmup_transitions=0),
            dict(total_timesteps=400, buffer_capacity=300, warmup_transitions=300),
            dict(total_timesteps=450, rollout_steps=60),  # the last phase is 30 steps
            dict(total_timesteps=150),  # below the warm-up: no training
            dict(total_timesteps=0),
        ],
    )
    def test_planned_train_steps_counts_the_run(self, settings):
        config = quick_config(train_steps_per_iter=3, batch_size=8, **settings)
        assert planned_train_steps(config) == run(config).train_steps

    @pytest.mark.parametrize("sampler", ["per_prop", "per_rank"])
    def test_per_beta_reaches_one_on_the_last_draw(self, monkeypatch, sampler):
        betas = []
        beta_at = replay.beta_at

        def recording_beta_at(beta0, anneal_steps, calls):
            betas.append(beta_at(beta0, anneal_steps, calls))
            return betas[-1]

        monkeypatch.setattr(replay, "beta_at", recording_beta_at)
        config = quick_config(sampler=sampler, total_timesteps=650, train_steps_per_iter=4, batch_size=8)
        summary = run(config)
        assert len(betas) == summary.train_steps == planned_train_steps(config)
        assert betas[0] == config.per_beta0 and betas[-1] == 1.0
        assert betas == sorted(betas) and betas[-2] < 1.0

    @pytest.mark.parametrize("sampler", ["uniform", "per_prop", "per_rank", "ero"])
    def test_each_sampler_runs_and_repeats_identically(self, sampler):
        a = run(quick_config(sampler=sampler))
        b = run(quick_config(sampler=sampler))
        assert a.episodes == b.episodes
        assert a.traces == b.traces

    def test_sampler_isolation_before_first_training_step(self):
        # below the warm-up threshold no training happens, so rollouts agree
        # across sampler kinds step for step
        results = {
            kind: run(quick_config(sampler=kind, total_timesteps=900, warmup_transitions=1000))
            for kind in ("uniform", "per_prop", "per_rank", "ero")
        }
        base = [
            (r.episode, r.global_step, r.episode_return, r.length)
            for r in results["uniform"].episodes
        ]
        for kind in ("per_prop", "per_rank", "ero"):
            got = [
                (r.episode, r.global_step, r.episode_return, r.length)
                for r in results[kind].episodes
            ]
            assert got == base

    def test_ero_columns_populated_only_for_ero(self):
        uni = run(quick_config(total_timesteps=600, warmup_transitions=1000))
        assert all(r.replay_reward is None and r.subset_size is None for r in uni.episodes)
        ero = run(quick_config(sampler="ero", total_timesteps=600, warmup_transitions=1000))
        assert ero.episodes[0].replay_reward is None  # first episode has no estimate yet
        assert ero.episodes[1].replay_reward is not None
        assert all(r.subset_size is not None for r in ero.episodes)

    def test_trace_records_bounded_and_finite(self):
        summary = run(quick_config(sampler="ero", total_timesteps=1000, trace_interval=5))
        assert summary.traces
        for t in summary.traces:
            assert np.isfinite([t.mean_abs_td, t.mean_step_diff, t.mean_reward]).all()
            assert 0.0 <= t.mean_step_diff <= t.global_step

    def test_early_stop(self):
        # every pendulum return beats -1e6, so the run stops after the first
        # window's worth of episodes
        summary = run(
            quick_config(
                total_timesteps=5000,
                early_stop_window=2,
                early_stop_threshold=-1e6,
            )
        )
        assert summary.stopped_early
        assert len(summary.episodes) == 2
        assert summary.total_steps == 400

    def test_eval_episodes_do_not_disturb_training(self):
        base = run(quick_config(total_timesteps=800))
        with_eval = run(quick_config(total_timesteps=800, eval_every=2))
        assert base.episodes == with_eval.episodes
        assert len(with_eval.evals) == len(with_eval.episodes) // 2
        for e in with_eval.evals:
            assert np.isfinite(e.eval_return)


class TestTrainer:
    def test_phases_by_hand_write_what_run_writes(self):
        config = quick_config(sampler="per_prop", total_timesteps=1150, eval_every=2)
        trainer = Trainer(config)
        while trainer.summary.total_steps < config.total_timesteps:
            trainer.rollout_phase()
            trainer.train_phase()
        got, expected = trainer.summary, run(dataclasses.replace(config))
        assert got.train_steps == expected.train_steps > 0
        assert (got.episodes, got.traces, got.evals) == (expected.episodes, expected.traces, expected.evals)

    def test_end_episode_reports_the_early_stop(self):
        trainer = Trainer(quick_config(early_stop_window=2, early_stop_threshold=-1e6))
        trainer.rollout_phase()
        trainer.rollout_phase()  # the first episode ends at step 200
        assert not trainer.summary.stopped_early and len(trainer.summary.episodes) == 1
        trainer.episode_return = -1.0
        assert trainer.end_episode() and trainer.summary.stopped_early
        assert trainer.summary.episodes[-1].episode_return == -1.0

    def test_ero_replay_reward_is_the_step_in_rc_window(self):
        # a real ERO run that trains from its second episode on, with a
        # 3-episode window: the window rolls from the fourth episode
        summary = run(quick_config(sampler="ero", reward_window=3))
        episodes, returns = summary.episodes, [e.episode_return for e in summary.episodes]
        assert len(episodes) == 6 and summary.train_steps > 0
        for i, record in enumerate(episodes):
            assert record.rc_window == np.mean(returns[max(i - 2, 0) : i + 1])
        assert episodes[0].replay_reward is None
        for previous, record in zip(episodes, episodes[1:]):
            assert record.replay_reward == record.rc_window - previous.rc_window

    def test_summary_keeps_no_part_of_the_trainer_alive(self):
        # run_suite keeps every summary, so a reference to the buffer or the
        # nets would keep each earlier run's pages resident
        trainer = Trainer(quick_config(sampler="ero", total_timesteps=400))
        trainer.rollout_phase()
        trainer.train_phase()
        summary = trainer.summary
        parts = [weakref.ref(part) for part in (trainer, trainer.buffer, trainer.sampler, trainer.agent)]
        del trainer
        gc.collect()
        assert [part() for part in parts] == [None] * 4
        assert summary.total_steps == 100

    @pytest.mark.parametrize("sampler", SAMPLER_KINDS)
    def test_td_write_back_lands_on_the_slots_it_drew(self, sampler):
        # the write-back has no eviction check: a 64-slot buffer is overwritten
        # by every 100-store rollout phase, so a store between a draw and its
        # write-back would change the insert step of a drawn slot
        config = quick_config(sampler=sampler, buffer_capacity=64, warmup_transitions=64, total_timesteps=1000)
        trainer = Trainer(config)
        buffer, hooks = trainer.buffer, trainer.sampler
        sample, update_priorities = hooks.sample, hooks.update_priorities
        drawn = []

        def checked_sample(batch_size):
            batch = sample(batch_size)
            drawn.append(buffer.insert_timesteps[batch.indices].copy())
            return batch

        def checked_update(indices, td_errors, step):
            assert len(drawn) == 1
            assert np.array_equal(buffer.insert_timesteps[indices], drawn.pop())
            update_priorities(indices, td_errors, step)

        hooks.sample, hooks.update_priorities = checked_sample, checked_update
        while trainer.summary.total_steps < config.total_timesteps:
            trainer.rollout_phase()
            trainer.train_phase()
        assert trainer.summary.train_steps == 100 and not drawn

    @pytest.mark.parametrize("sampler", SAMPLER_KINDS)
    def test_every_forward_fits_the_workspace(self, monkeypatch, sampler):
        # ``Mlp.forward`` runs any input as one block; a run keeps each call
        # within the workspace's ``BLOCK + 1`` rows (ERO rescores its
        # 1500 rows in ``row_blocks``)
        rows, forward = [], Mlp.forward

        def counted_forward(net, x):
            rows.append(len(x))
            return forward(net, x)

        monkeypatch.setattr(Mlp, "forward", counted_forward)
        run(quick_config(sampler=sampler, total_timesteps=1500))
        assert rows and max(rows) <= BLOCK + 1
        assert (max(rows) >= BLOCK) == (sampler == "ero")


def episodes_csv(summary) -> str:
    out = io.StringIO()
    write_episode_csv(summary.episodes, out)
    return out.getvalue()


@pytest.mark.parametrize("sampler", ["uniform", "ero"])
def test_episode_rows_are_a_prefix_of_a_longer_budget(sampler):
    """A larger ``total_timesteps`` only extends a uniform or ERO run: its
    ``episodes.csv`` starts with the shorter run's bytes, with early stopping
    off and with a threshold that stops the run after training began. c09's
    ``gate_step``, read off the run without early stopping, finds the step at
    which the stopped run ends."""

    def rows(steps, **kwargs):
        return run(RunConfig(sampler=sampler, seed=2, total_timesteps=steps, **kwargs))

    free_long, free_short = rows(2500), rows(1500)
    assert len(free_short.episodes) == 7 and len(free_long.episodes) == 12
    assert episodes_csv(free_long).startswith(episodes_csv(free_short))

    # an 8-episode window first closes at step 1600, after training began at 1000
    threshold = float(np.mean([e.episode_return for e in free_long.episodes[:8]]))
    stop = dict(early_stop_window=8, early_stop_threshold=threshold)
    stop_long, stop_short = rows(3500, **stop), rows(1500, **stop)
    assert stop_long.stopped_early and stop_long.total_steps == 1600 and stop_long.train_steps > 0
    assert not stop_short.stopped_early
    assert episodes_csv(stop_long).startswith(episodes_csv(stop_short))
    assert episodes_csv(free_long).startswith(episodes_csv(stop_long))
    assert gate_step(free_long.episodes, 8, threshold) == stop_long.total_steps
    assert gate_step(stop_long.episodes, 8, threshold) == stop_long.total_steps  # its last episode
    assert gate_step(stop_short.episodes, 8, threshold) is None  # 7 episodes, no full window
    highest = max(e.episode_return for e in free_long.episodes)
    assert gate_step(free_long.episodes, 8, highest + 1.0) is None


class TestSuite:
    def test_singleton_suite_matches_run(self):
        config = quick_config(total_timesteps=400, warmup_transitions=1000)
        results = run_suite([config])
        rows = summarize(results)
        assert len(rows) == 1
        assert rows[0].seed_count == 1
        assert rows[0].final_mean == results[0].summary.final_window_mean

    def test_suite_is_repeatable(self):
        configs = [
            quick_config(total_timesteps=400, warmup_transitions=1000, seed=s) for s in (0, 1)
        ]
        a = summarize(run_suite(configs))
        b = summarize(run_suite([dataclasses.replace(c) for c in configs]))
        assert [(r.config_id, r.final_mean, r.final_std) for r in a] == [
            (r.config_id, r.final_mean, r.final_std) for r in b
        ]

    def test_std_uses_sample_estimator(self):
        configs = [
            quick_config(total_timesteps=400, warmup_transitions=1000, seed=s) for s in (0, 1, 2)
        ]
        results = run_suite(configs)
        rows = summarize(results)
        finals = [r.summary.final_window_mean for r in results]
        assert rows[0].seed_count == 3
        assert rows[0].final_std == pytest.approx(np.std(finals, ddof=1))

    def test_failures_reported_but_suite_continues(self):
        good = quick_config(total_timesteps=200, warmup_transitions=1000)
        bad = quick_config(total_timesteps=200)
        bad.sampler = "bogus"
        results = run_suite([bad, good])
        assert results[0].error is not None
        assert results[1].summary is not None

    def test_runs_in_calling_thread_in_config_order(self, monkeypatch):
        calls = []

        def record(config):
            calls.append((threading.get_ident(), config.seed))
            if config.seed == 1:
                raise ConfigError("seed 1 fails")
            return config.seed

        monkeypatch.setattr("replay_opt.harness.run", record)
        configs = [quick_config(seed=s) for s in (2, 0, 1, 3)]
        results = run_suite(configs)
        assert calls == [(threading.get_ident(), s) for s in (2, 0, 1, 3)]
        assert [r.config for r in results] == configs
        assert [r.summary for r in results] == [2, 0, None, 3]
        assert isinstance(results[2].error, ConfigError)


class TestCsv:
    def test_unwritable_path_raises_config_error_naming_it(self, tmp_path):
        with pytest.raises(ConfigError, match=f"cannot write {tmp_path}: Is a directory"):
            write_trace_csv([], tmp_path)

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "episodes.csv"
        write_episode_csv([], path)
        text = path.read_text()
        assert text == "episode,global_step,return,length,rc_window,replay_reward,subset_size,subset_fallbacks\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "episodes.csv"
        write_episode_csv(
            [EpisodeRecord(0, 200, -1234.5678901234567, 200, -1234.5678901234567)], path
        )
        assert len(path.read_text().splitlines()) == 2

    def test_episode_round_trip(self, tmp_path):
        records = [
            EpisodeRecord(0, 200, -1.2345678901234567, 200, -1.2345678901234567, None, None, None),
            EpisodeRecord(1, 400, -0.1, 200, -0.6672839450617283, 0.5671, 123, 4),
        ]
        path = tmp_path / "episodes.csv"
        write_episode_csv(records, path)
        assert read_csv(EpisodeRecord, path) == records

    def test_trace_round_trip(self, tmp_path):
        records = [TraceRecord(1000, 0.123456789012345678, 17.25, -3.5)]
        path = tmp_path / "trace.csv"
        write_trace_csv(records, path)
        assert read_csv(TraceRecord, path) == records

    def test_newlines_are_unix(self, tmp_path):
        path = tmp_path / "episodes.csv"
        write_episode_csv([EpisodeRecord(0, 1, 0.5, 1, 0.5)], path)
        assert b"\r" not in path.read_bytes()

    def test_summary_and_eval_round_trip(self, tmp_path):
        rows = [SummaryRow("ero-pendulum", "ero", "pendulum", 3, -150.25, 0.1, 12.5)]
        write_summary_csv(rows, tmp_path / "summary.csv")
        assert read_csv(SummaryRow, tmp_path / "summary.csv") == rows
        evals = [EvalRecord(400, -970.8708896669552, 200), EvalRecord(800, -1.0, 57)]
        write_eval_csv(evals, tmp_path / "evals.csv")
        assert read_csv(EvalRecord, tmp_path / "evals.csv") == evals

    def test_bad_cell_names_its_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "global_step,mean_abs_td,mean_step_diff,mean_reward\n"
            "100,1.0,5.0,-2.0\n200,oops,6.0,-2.0\n"
        )
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: ")):
            read_csv(TraceRecord, path)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("short.csv", "global_step,mean_abs_td,mean_step_diff,mean_reward\n100,1.0,5.0\n"),
            ("long.csv", "global_step,mean_abs_td,mean_step_diff,mean_reward\n100,1.0,5.0,-2.0,9\n"),
            ("hdr.csv", "global_step,td,mean_step_diff,mean_reward\n100,1.0,5.0,-2.0\n"),
        ],
        ids=["short.csv", "long.csv", "hdr.csv"],
    )
    def test_wrong_width_or_header_names_its_line(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        line = 1 if name == "hdr.csv" else 2
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: ")):
            read_csv(TraceRecord, path)

    def test_not_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("global_step,mean_abs_td,mean_step_diff,mean_reward\n# caf\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {path}: ")):
            read_csv(TraceRecord, path)

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "none.csv"
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {path}: ") + ".*No such file"):
            read_csv(TraceRecord, path)

    def test_directory_names_the_path(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {tmp_path}: ") + ".*Is a directory"):
            read_csv(TraceRecord, tmp_path)

    def test_readme_schemas_are_the_written_headers(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### CSV schemas", 1)[1].split("```")[1]
        documented = dict(line.split() for line in block.strip().splitlines())
        writers = {
            "episodes.csv": write_episode_csv,
            "trace.csv": write_trace_csv,
            "summary.csv": write_summary_csv,
            "evals.csv": write_eval_csv,
        }
        written = {}
        for name, write in writers.items():
            write([], tmp_path / name)
            written[name] = (tmp_path / name).read_text().rstrip("\n")
        assert documented == written
