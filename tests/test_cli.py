"""CLI contract tests: exit codes, overrides, outputs."""

from __future__ import annotations

import dataclasses
import errno
import mmap

import numpy as np
import pytest

from replay_opt import cli, ddpg, ero, gradchecks
from replay_opt.errors import ConfigError
from replay_opt.harness import EpisodeRecord, EvalRecord, RunConfig, read_csv
from replay_opt.nn import mlp_init


def write_config(tmp_path, name="run.cfg", **kwargs):
    defaults = dict(
        env="pendulum",
        sampler="uniform",
        total_timesteps=600,
        seed=0,
        buffer_capacity=2000,
        warmup_transitions=200,
        train_steps_per_iter=5,
        trace_interval=5,
    )
    defaults.update(kwargs)
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in defaults.items() if v is not None) + "\n")
    return path


def write_grid_config(tmp_path, **kwargs):
    """A ``compare`` config: ``write_config`` without the keys the grid sets per run."""
    return write_config(tmp_path, name="cmp.cfg", sampler=None, seed=None, **kwargs)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "# header\nenv = pendulum\n\nseed = 3  # trailing\n"
        assert cli.parse_config_text(text) == {"env": "pendulum", "seed": "3"}

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line"):
            cli.parse_config_text("just words\n", source="line")

    def test_unknown_key_rejected(self):
        for key in ("velocity", "subset_strict", "subset_refresh_always"):
            with pytest.raises(ConfigError, match="unknown config key"):
                cli.build_run_config({key: "1"}, {})

    def test_dotted_keys_map_to_fields(self):
        config = cli.build_run_config({"per.alpha": "0.7", "ou.theta": "0.2"}, {})
        assert config.per_alpha == 0.7
        assert config.ou_theta == 0.2

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            cli.build_run_config({"total_timesteps": "many"}, {})
        with pytest.raises(ConfigError, match="cannot parse"):
            cli.build_run_config({"lazy_refresh": "maybe"}, {})

    def test_overrides_win_over_file(self):
        config = cli.build_run_config({"seed": "1"}, {"seed": "9"})
        assert config.seed == 9

    def test_tuple_field(self):
        config = cli.build_run_config({"hidden_sizes": "32,16"}, {})
        assert config.hidden_sizes == (32, 16)

    def test_effective_config_reads_back_as_the_config(self, tmp_path):
        changed = RunConfig(
            env="point_reacher", sampler="per_rank", total_timesteps=1234, seed=7, rollout_steps=50,
            train_steps_per_iter=3, batch_size=32, buffer_capacity=500, warmup_transitions=100, gamma=0.95,
            tau=0.1 + 0.2, actor_lr=3e-4, critic_lr=2e-3, hidden_sizes=(32, 16), ou_theta=0.2, ou_sigma=0.3,
            per_alpha=0.7, per_beta0=0.5, per_epsilon=1e-3, rank_refresh_interval=10, ero_lr=1e-3,
            replay_updating_steps=2, ero_batch_size=16, reward_window=10, lazy_refresh=True, trace_interval=100,
            eval_every=5, early_stop_window=20, early_stop_threshold=-150.25, out_dir="runs/a b=c",
            config_id="x = y",
        )
        assert all(getattr(changed, f.name) != f.default for f in dataclasses.fields(RunConfig))
        for config in (RunConfig(), changed):
            config.validate()
            path = tmp_path / "config.txt"
            cli.write_effective_config(config, path)
            assert cli.build_run_config(cli.load_config_file(str(path)), {}) == config

    @pytest.mark.parametrize("second", ["env = point_reacher", "env=pendulum", "per_alpha = 0.5"])
    def test_key_set_twice_rejected_naming_both_lines(self, second):
        first = "per.alpha = 0.7" if second.startswith("per") else "env = pendulum"
        text = f"{first}\nseed = 1\n\n{second}\n"
        key = second.split("=")[0].strip()
        with pytest.raises(ConfigError, match=rf"run.cfg:4: '{key}' is set again \(first on line 1\)"):
            cli.parse_config_text(text, source="run.cfg")


class TestConfigIO:
    """Config files that cannot be read and output directories that cannot
    be made are config errors (exit 2) naming the path, before any step runs."""

    @pytest.fixture(autouse=True)
    def no_steps(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an env was made despite a config error")

        monkeypatch.setattr(cli.harness, "make_env", fail)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_key_set_twice_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)  # env = pendulum is line 1
        with open(cfg, "a") as fh:
            fh.write("env = point_reacher\n")
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:9: 'env' is set again (first on line 1)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "first, second",
        [
            ("env=pendulum", "env=point_reacher"),
            ("env=pendulum", " env = pendulum"),
            ("per.alpha=0.7", "per_alpha=0.5"),
        ],
    )
    def test_set_key_twice_exits_2(self, tmp_path, capsys, command, first, second):
        argv = [command, "--set", first, "--set", "seed=1", "--set", second, "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        key = second.split("=")[0].strip()
        assert f"--set '{key}' is set again (first as '{first}')" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_config_directory_exits_2_saying_not_a_file(self, tmp_path, capsys, command):
        folder = tmp_path / "configs"
        folder.mkdir()
        assert cli.main([command, "--config", str(folder), "--out", str(tmp_path / "o")]) == 2
        assert f"config path is not a file: {folder}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_config_not_utf8_exits_2_naming_path(self, tmp_path, capsys, command):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("env = pendulum  # caf\xe9\n".encode("latin-1"))
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"cannot read config file {cfg}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("below", ["", "out"])
    def test_out_at_or_under_a_regular_file_exits_2_naming_path(self, tmp_path, capsys, command, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / below if below else blocker
        assert cli.main([command, "--set", "total_timesteps=100", "--out", str(out)]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name",
        [
            ("run", "episodes.csv"),
            ("run", "evals.csv"),
            ("compare", "summary.csv"),
            ("compare", "episodes-ero-pendulum-seed0.csv"),
        ],
    )
    def test_output_file_that_is_a_directory_exits_2_before_any_run(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        def no_run(config):
            raise AssertionError("a run started despite an unwritable output path")

        monkeypatch.setattr(cli.harness, "run", no_run)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert cli.main([command, "--set", "total_timesteps=100", "--out", str(out)]) == 2
        assert f"config error: output path {out / name} is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unwritable_output_directory_exits_2_before_any_run(
        self, tmp_path, monkeypatch, capsys, command
    ):
        # root may write anywhere, so the probe's write is made to fail as a read-only directory fails it
        def read_only(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        def no_run(config):
            raise AssertionError("a run started despite an unwritable output directory")

        monkeypatch.setattr(cli.harness, "run", no_run)
        monkeypatch.setattr(cli.Path, "touch", read_only)
        out = tmp_path / "out"
        assert cli.main([command, "--set", "total_timesteps=100", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write in output directory {out}: Permission denied" in err
        assert out.is_dir() and not any(out.iterdir())

    def test_write_probe_leaves_no_file(self, tmp_path):
        out = cli.make_out_dir(tmp_path / "out", ["episodes.csv"])
        assert out.is_dir() and not any(out.iterdir())


class TestRunCommand:
    def test_missing_config_exits_2_naming_path(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "nope.cfg" in capsys.readouterr().err

    def test_zero_steps_header_only_csvs(self, tmp_path):
        cfg = write_config(tmp_path, total_timesteps=0)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--set", "total_timesteps=0", "--out", str(out)]) == 0
        episodes = (out / "episodes.csv").read_text().splitlines()
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(episodes) == 1 and len(trace) == 1

    def test_full_run_produces_three_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sampler="ero")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("episodes.csv", "trace.csv", "summary.csv"):
            assert (out / name).is_file()
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("sampler=ero env=pendulum steps=600 final=")

    def test_set_override_round_trips_into_effective_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--set", "tau=0.5", "--out", str(out)])
        dump = (out / "config.txt").read_text()
        assert "tau = 0.5" in dump

    def test_set_overrides_a_key_of_the_file(self, tmp_path):
        cfg = write_config(tmp_path, total_timesteps=0)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--set", "env=point_reacher", "--out", str(out)]) == 0
        assert "env = point_reacher" in (out / "config.txt").read_text()

    def test_bad_sampler_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, sampler="magic")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_negative_per_epsilon_exits_2_before_training(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sampler="per_prop")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg), "--set", "per_epsilon=-1", "--out", str(out)])
        assert code == 2
        assert "per_epsilon must be >= 0" in capsys.readouterr().err
        assert not (out / "episodes.csv").exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("gamma=5.0", "gamma must be in (0, 1)"),
            ("tau=nan", "tau must be in (0, 1]"),
            ("critic_lr=-1", "critic_lr must be finite and > 0"),
            ("actor_lr=nan", "actor_lr must be finite and > 0"),
            ("ero_lr=0", "ero_lr must be finite and > 0"),
            ("ou_theta=-1", "ou_theta must be >= 0"),
            ("ou_sigma=nan", "ou_sigma must be >= 0"),
            ("seed=-1", "seed must be >= 0"),
            ("early_stop_threshold=nan", "early_stop_threshold must be a number, got nan"),
            ("early_stop_threshold=inf", "early_stop_threshold must be finite, got inf"),
            ("early_stop_threshold=-inf", "early_stop_threshold must be finite, got -inf"),
            ("hidden_sizes=0", "hidden_sizes must be integers >= 1, got (0,)"),
            ("hidden_sizes=64,-3", "hidden_sizes must be integers >= 1, got (64, -3)"),
            ("ou_sigma=inf", "config error: ou_sigma must be >= 0 and finite, got inf"),
            ("per_alpha=inf", "config error: per_alpha must be >= 0 and finite, got inf"),
        ],
    )
    def test_invalid_learning_setting_exits_2_before_training(self, tmp_path, monkeypatch, capsys, setting, message):
        def no_training(*args, **kwargs):
            raise AssertionError("training started despite an invalid config")

        monkeypatch.setattr(cli.harness.DdpgAgent, "train_step", no_training)
        cfg = write_config(tmp_path, sampler="ero")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg), "--set", setting, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "episodes.csv").exists()

    def test_buffer_too_large_to_map_exits_2(self, tmp_path, monkeypatch, capsys):
        real_mmap = mmap.mmap

        def refuse_large(fileno, length, *args, **kwargs):
            # never ask the system for the terabytes: a host that overcommits
            # would grant them lazily
            if length > 1 << 30:
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", refuse_large)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        argv = ["run", "--config", str(cfg), "--set", "buffer_capacity=100000000000",
                "--set", "warmup_transitions=10", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot map 2400000000000 bytes for an array of shape (100000000000, 3)")
        assert not (out / "episodes.csv").exists()

    def test_underflowing_rank_alpha_exits_2_before_any_env_step(self, tmp_path, monkeypatch, capsys):
        def no_env(*args, **kwargs):
            raise AssertionError("an env was made despite an invalid config")

        monkeypatch.setattr(cli.harness, "make_env", no_env)
        out = tmp_path / "o"
        argv = ["run", "--set", "sampler=per_rank", "--set", "per_alpha=400", "--set", "total_timesteps=1500",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: per_alpha 400.0 is too large for 1500 slots")
        assert not (out / "episodes.csv").exists()

    @pytest.mark.parametrize("setting", ["out_dir=runs#1", "config_id=x#y"])
    def test_string_the_effective_config_cannot_carry_exits_2_before_any_env_step(
            self, tmp_path, monkeypatch, capsys, setting):
        def no_env(*args, **kwargs):
            raise AssertionError("an env was made despite an invalid config")

        monkeypatch.setattr(cli.harness, "make_env", no_env)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--set", setting]) == 2
        name = setting.split("=")[0]
        assert f"config error: {name} must have no '#'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no output directory was made

    def test_warmup_above_capacity_exits_2_before_training(self, tmp_path, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("training started despite an invalid config")

        monkeypatch.setattr(cli.harness.DdpgAgent, "train_step", no_training)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg), "--set", "buffer_capacity=150", "--out", str(out)])
        assert code == 2
        assert "warmup_transitions (200) must be <= buffer_capacity (150)" in capsys.readouterr().err
        assert not (out / "episodes.csv").exists()

    def test_numeric_fault_exits_3(self, tmp_path, monkeypatch, capsys):
        from replay_opt.errors import NumericFault

        def explode(config):
            raise NumericFault("critic loss is not finite (env step 42)")

        monkeypatch.setattr(cli.harness, "run", explode)
        cfg = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "numeric fault" in capsys.readouterr().err


class TestCompareCommand:
    def test_singleton_grid(self, tmp_path, capsys):
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform\nseeds = 0\n")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one config row

    def test_grid_counts(self, tmp_path):
        cfg = write_grid_config(tmp_path, total_timesteps=300, warmup_transitions=1000)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, per_prop, per_rank, ero\nseeds = 0, 1, 2\n")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 5  # header + one row per sampler
        per_run = list(out.glob("episodes-*.csv"))
        assert len(per_run) == 12

    def test_partial_failure_exits_1_and_continues(self, tmp_path, capsys):
        cfg = write_grid_config(tmp_path, total_timesteps=300, warmup_transitions=1000)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, bogus\nseeds = 0\n")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAILED bogus-pendulum" in captured.err
        assert "uniform-pendulum" in captured.out  # the good run still summarized

    def test_invalid_shared_setting_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys):
        def no_runs(configs):
            raise AssertionError("run_suite started despite an invalid config")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, per_prop\nseeds = 0, 1\n")
        code = cli.main(["compare", "--config", str(cfg), "--set", "env=bogus", "--out", str(tmp_path / "cmp")])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown env 'bogus'" in err and "FAILED" not in err

    def test_negative_per_epsilon_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys):
        def no_runs(configs):
            raise AssertionError("run_suite started despite an invalid config")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, per_prop\nseeds = 0\n")
        code = cli.main(["compare", "--config", str(cfg), "--set", "per_epsilon=-1", "--out", str(tmp_path / "cmp")])
        assert code == 2
        err = capsys.readouterr().err
        assert "per_epsilon must be >= 0" in err and "FAILED" not in err

    @pytest.mark.parametrize(
        "setting",
        [
            "gamma=5.0",
            "tau=nan",
            "critic_lr=-1",
            "actor_lr=nan",
            "ero_lr=0",
            "ou_theta=-1",
            "ou_sigma=nan",
            "hidden_sizes=0",
            "hidden_sizes=-3",
        ],
    )
    def test_invalid_learning_setting_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys, setting):
        def no_runs(configs):
            raise AssertionError("run_suite started despite an invalid config")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, ero\nseeds = 0\n")
        code = cli.main(["compare", "--config", str(cfg), "--set", setting, "--out", str(tmp_path / "cmp")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{setting.split('=')[0]} must be" in err and "FAILED" not in err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("samplers=,", "samplers is empty"),
            ("seeds=,", "seeds is empty"),
            ("seeds=abc", "cannot parse seeds = 'abc' as int"),
            ("seeds=-1", "seed must be >= 0"),
        ],
    )
    def test_empty_or_unparsable_grid_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys, setting, message):
        def no_runs(configs):
            raise AssertionError("run_suite started despite an invalid grid")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        code = cli.main(["compare", "--set", setting, "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("samplers=uniform,uniform", "samplers lists 'uniform' more than once"),
            ("samplers=uniform, ero ,ero", "samplers lists 'ero' more than once"),
            ("seeds=1,1", "seeds lists 1 more than once"),
            ("seeds=3,2,03", "seeds lists 3 more than once"),
        ],
    )
    def test_repeated_grid_entry_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys, setting, message):
        def no_runs(configs):
            raise AssertionError("run_suite started despite a repeated grid entry")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        code = cli.main(["compare", "--set", setting, "--out", str(tmp_path / "cmp")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_repeated_grid_entry_in_config_file_exits_2(self, tmp_path, monkeypatch, capsys):
        def no_runs(configs):
            raise AssertionError("run_suite started despite a repeated grid entry")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, uniform\nseeds = 3, 3\n")
        assert cli.main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp")]) == 2
        assert "samplers lists 'uniform' more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["seed=7", "sampler=ero", "config_id=x", "config.id=x"])
    @pytest.mark.parametrize("source", ["set", "file"])
    def test_per_run_key_exits_2_pointing_to_the_grid(self, tmp_path, monkeypatch, capsys, setting, source):
        def no_runs(configs):
            raise AssertionError("run_suite started despite a per-run key")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        key = setting.split("=")[0]
        if source == "set":
            argv = ["compare", "--set", "samplers=uniform", "--set", setting]
        else:
            cfg = write_grid_config(tmp_path, samplers="uniform")
            with open(cfg, "a") as fh:
                fh.write(setting.replace("=", " = ") + "\n")
            argv = ["compare", "--config", str(cfg)]
        assert cli.main([*argv, "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert f"compare sets '{key}' per run; list the grid in 'samplers' and 'seeds'" in err
        assert not (tmp_path / "cmp").exists()

    def test_warmup_above_capacity_exits_2_before_any_run(self, tmp_path, monkeypatch, capsys):
        def no_runs(configs):
            raise AssertionError("run_suite started despite an invalid config")

        monkeypatch.setattr(cli.harness, "run_suite", no_runs)
        cfg = write_grid_config(tmp_path)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, per_rank\nseeds = 0\n")
        code = cli.main(["compare", "--config", str(cfg), "--set", "buffer_capacity=150", "--out", str(tmp_path / "cmp")])
        assert code == 2
        err = capsys.readouterr().err
        assert "warmup_transitions (200) must be <= buffer_capacity (150)" in err and "FAILED" not in err

    def test_jobs_is_ignored_episode_bytes_match(self, tmp_path):
        # --jobs still parses; runs execute one at a time whatever its value.
        # summary.csv is not compared: it holds wall seconds.
        cfg = write_grid_config(tmp_path, total_timesteps=400)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform, ero\nseeds = 0, 1\n")
        out_1, out_2 = tmp_path / "jobs1", tmp_path / "jobs2"
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out_1), "--jobs", "1"]) == 0
        assert cli.main(["compare", "--config", str(cfg), "--out", str(out_2), "--jobs", "2"]) == 0
        names = sorted(p.name for p in out_1.glob("episodes-*.csv"))
        assert len(names) == 4
        assert names == sorted(p.name for p in out_2.glob("episodes-*.csv"))
        for name in names:
            assert (out_1 / name).read_bytes() == (out_2 / name).read_bytes()

    def test_repeat_invocation_identical_summary_modulo_walltime(self, tmp_path):
        cfg = write_grid_config(tmp_path, total_timesteps=300, warmup_transitions=1000)
        with open(cfg, "a") as fh:
            fh.write("samplers = uniform\nseeds = 0, 1\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["compare", "--config", str(cfg), "--out", str(out_a)])
        cli.main(["compare", "--config", str(cfg), "--out", str(out_b)])

        def strip_wall(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            return [row[:-1] for row in rows]

        assert strip_wall(out_a / "summary.csv") == strip_wall(out_b / "summary.csv")


class TestEvalOutput:
    def test_eval_every_writes_one_row_per_eval(self, tmp_path):
        cfg = write_config(tmp_path, total_timesteps=1000)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out), "--set", "eval_every=2"]) == 0
        assert (out / "evals.csv").read_text().splitlines()[0] == "global_step,eval_return,length"
        episodes = read_csv(EpisodeRecord, out / "episodes.csv")
        evals = read_csv(EvalRecord, out / "evals.csv")
        assert len(episodes) == 5
        assert [e.global_step for e in evals] == [episodes[1].global_step, episodes[3].global_step]
        assert all(e.length == 200 for e in evals)


class TestGradcheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [name for name, _ in gradchecks.CHECKS]
        assert all(line.endswith("  ok") and "FAIL" not in line for line in lines)

    def test_corrupted_gradient_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.gradchecks, "CHECKS", [("critic-loss", lambda: cli.gradchecks.THRESHOLD)])
        assert cli.main(["gradcheck"]) == 4
        captured = capsys.readouterr()
        assert "critic-loss" in captured.err
        assert "FAIL" in captured.out

    def test_faulty_training_losses_fail_the_checks(self, monkeypatch, capsys):
        td_loss, mask_surrogate = ddpg.td_loss, ero.mask_surrogate

        def td_loss_unweighted_gradient(q, targets, is_weights=None):
            loss, _, td_errors = td_loss(q, targets, is_weights)
            return loss, td_loss(q, targets)[1], td_errors

        def mask_surrogate_flipped_gradient(out, bits, replay_reward):
            loss, dloss_dout = mask_surrogate(out, bits, replay_reward)
            return loss, -dloss_dout

        # where DdpgAgent.critic_update and EroPolicy.update_policy look them up
        monkeypatch.setattr(ddpg, "td_loss", td_loss_unweighted_gradient)
        monkeypatch.setattr(ero, "mask_surrogate", mask_surrogate_flipped_gradient)
        assert gradchecks.check_critic_loss() >= gradchecks.THRESHOLD
        assert gradchecks.check_replay_policy_surrogate() >= gradchecks.THRESHOLD
        assert cli.main(["gradcheck"]) == 4
        err = capsys.readouterr().err
        assert "critic-loss" in err and "ero-surrogate" in err


    def test_kink_guard_redraws_an_input_at_a_relu_kink(self):
        net = mlp_init([1, 1, 1], ["relu", "linear"], seed=0)
        net.weights[0][...] = 1.0
        net.biases[0][...] = 0.0  # the relu's pre-activation is the input itself
        at_kink, away = np.array([[0.0]]), np.array([[0.5]])
        draws = [(at_kink, away), (away, at_kink), (away, away)]
        drawn = iter(draws)
        assert gradchecks._away_from_kinks([net, net], lambda: next(drawn)) is draws[2]
        assert next(drawn, None) is None


class TestEndToEndDeterminism:
    @pytest.mark.parametrize("sampler", ["uniform", "ero"])
    def test_episode_csv_identical_across_invocations(self, tmp_path, sampler):
        cfg = write_config(tmp_path, sampler=sampler)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(cfg), "--out", str(out_a)])
        cli.main(["run", "--config", str(cfg), "--out", str(out_b)])
        assert (out_a / "episodes.csv").read_bytes() == (out_b / "episodes.csv").read_bytes()
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        episodes = [read_csv(EpisodeRecord, out / "episodes.csv") for out in (out_a, out_b)]
        assert episodes[0] == episodes[1]
