"""Experiment orchestration: seeded runs, episode accounting, CSV metrics.

A run interleaves fixed-length rollout phases with fixed-count training
phases until the step budget is spent. Everything is deterministic in
(config, seed): the master seed splits into named substreams (environment,
network init, exploration noise, sampler, replay policy), and metrics are
written with full round-trip float precision.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
import typing
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from .ddpg import DdpgAgent, OuNoise
from .envs import ENV_NAMES, make_env
from .ero import EroPolicy, ReplayRewardTracker
from .errors import ConfigError, NumericFault
from .replay import PerConfig, ReplayBuffer, Transition
from .replay import PerProportionalSampler, PerRankSampler, SubsetSampler, UniformSampler
from .seeding import named_streams


@dataclass
class RunConfig:
    """Every knob of a single training run, all overridable from config files."""

    env: str = "pendulum"
    sampler: str = "uniform"
    total_timesteps: int = 10_000
    seed: int = 0
    rollout_steps: int = 100
    train_steps_per_iter: int = 50
    batch_size: int = 64
    buffer_capacity: int = 100_000
    warmup_transitions: int = 1000
    gamma: float = 0.99
    tau: float = 0.001
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    hidden_sizes: tuple = (64, 64)
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    per_alpha: float = 0.6
    per_beta0: float = 0.4
    per_epsilon: float = 0.01
    rank_refresh_interval: int = 1000
    ero_lr: float = 1e-4
    replay_updating_steps: int = 1
    ero_batch_size: int = 64
    reward_window: int = 100
    lazy_refresh: bool = False
    trace_interval: int = 1000
    eval_every: int = 0
    early_stop_window: int = 0
    early_stop_threshold: float = 0.0
    out_dir: str = "runs"
    config_id: str = ""

    def resolved_id(self) -> str:
        return self.config_id or f"{self.sampler}-{self.env}"

    def validate(self) -> None:
        if self.env not in ENV_NAMES:
            raise ConfigError(f"unknown env {self.env!r}, expected one of {ENV_NAMES}")
        if self.sampler not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler {self.sampler!r}, expected one of {SAMPLER_KINDS}")
        positive = (
            "rollout_steps",
            "batch_size",
            "buffer_capacity",
            "reward_window",
            "trace_interval",
            "ero_batch_size",
            "rank_refresh_interval",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        non_negative = (
            "seed",
            "total_timesteps",
            "train_steps_per_iter",
            "warmup_transitions",
            "replay_updating_steps",
            "eval_every",
            "early_stop_window",
            "per_alpha",
            "per_epsilon",
            "ou_theta",
            "ou_sigma",
        )
        for name in non_negative:
            if not getattr(self, name) >= 0:  # also rejects NaN
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        # an empty tuple is valid: the nets then have no hidden layer
        if any(not isinstance(width, (int, np.integer)) or width < 1 for width in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be integers >= 1, got {self.hidden_sizes}")
        if not 0.0 <= self.per_beta0 <= 1.0:
            raise ConfigError(f"per_beta0 must be in [0, 1], got {self.per_beta0}")
        # every comparison below is False for NaN, so NaN is rejected too
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        for name in ("actor_lr", "critic_lr", "ero_lr"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        # NaN compares False with every mean return, so it would never stop a run
        if math.isnan(self.early_stop_threshold):
            raise ConfigError("early_stop_threshold must be a number, got nan")
        # the buffer never holds more than its capacity, so training would never start
        if self.warmup_transitions > self.buffer_capacity:
            raise ConfigError(
                f"warmup_transitions ({self.warmup_transitions}) must be <= "
                f"buffer_capacity ({self.buffer_capacity})"
            )

    def to_items(self) -> list[tuple[str, str]]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out.append((f.name, str(value)))
        return out


SAMPLER_KINDS = ("uniform", "per_prop", "per_rank", "ero")


def planned_train_steps(config: RunConfig) -> int:
    """Train steps a run of ``config`` makes unless it stops early.

    Each rollout phase ends at the next multiple of ``rollout_steps`` (the
    last at ``total_timesteps``), and ``train_steps_per_iter`` steps follow
    it once the buffer holds ``warmup_transitions``.
    """
    total, rollout = config.total_timesteps, config.rollout_steps
    live = (min(end, total, config.buffer_capacity) for end in range(rollout, total + rollout, rollout))
    return sum(size >= config.warmup_transitions for size in live) * config.train_steps_per_iter


def make_sampler(config: RunConfig, buffer: ReplayBuffer, streams: dict) -> UniformSampler:
    """The sampler ``config.sampler`` names, over ``buffer``; the only code that maps a kind to a class.

    It draws from the ``sampler`` stream. The PER samplers anneal beta over
    the run's planned train steps, so the last planned draw uses beta = 1;
    the learned sampler's policy takes its init and its draws from the
    ``replay_policy_*`` streams.
    """
    kind, rng = config.sampler, streams["sampler"]
    if kind == "uniform":
        return UniformSampler(buffer, rng)
    if kind == "ero":
        policy = EroPolicy(
            hidden_sizes=config.hidden_sizes,
            learning_rate=config.ero_lr,
            update_steps=config.replay_updating_steps,
            update_batch_size=config.ero_batch_size,
            lazy_refresh=config.lazy_refresh,
            init_seed=streams["replay_policy_init"],
            draw_rng=streams["replay_policy_draw"],
        )
        return SubsetSampler(buffer, rng, policy)
    per = PerConfig(
        alpha=config.per_alpha,
        beta0=config.per_beta0,
        beta_anneal_steps=max(planned_train_steps(config) - 1, 0),
        epsilon=config.per_epsilon,
        rank_refresh_interval=config.rank_refresh_interval,
    )
    if kind == "per_prop":
        return PerProportionalSampler(buffer, per, rng)
    if kind == "per_rank":
        return PerRankSampler(buffer, per, rng)
    raise ConfigError(f"unknown sampler {kind!r}, expected one of {SAMPLER_KINDS}")


@dataclass
class EpisodeRecord:
    episode: int
    global_step: int
    episode_return: float
    length: int
    rc_window: float
    replay_reward: float | None = None
    subset_size: int | None = None
    subset_fallbacks: int | None = None


@dataclass
class TraceRecord:
    global_step: int
    mean_abs_td: float
    mean_step_diff: float
    mean_reward: float


@dataclass
class EvalRecord:
    global_step: int
    eval_return: float
    length: int


@dataclass
class RunSummary:
    config: RunConfig
    episodes: list[EpisodeRecord]
    traces: list[TraceRecord]
    evals: list[EvalRecord]
    total_steps: int
    train_steps: int
    wall_seconds: float
    stopped_early: bool = False

    @property
    def final_window_mean(self) -> float:
        if not self.episodes:
            return float("nan")
        return self.episodes[-1].rc_window


def run(config: RunConfig) -> RunSummary:
    """Execute one training run; deterministic in (config, seed)."""
    config.validate()
    start = time.perf_counter()
    streams = named_streams(config.seed)

    env = make_env(config.env)
    spec = env.spec()
    obs = env.reset(seed=streams["env"])

    agent = DdpgAgent(
        obs_dim=spec.obs_dim,
        action_dim=spec.action_dim,
        action_high=spec.action_high,
        hidden_sizes=config.hidden_sizes,
        actor_lr=config.actor_lr,
        critic_lr=config.critic_lr,
        gamma=config.gamma,
        tau=config.tau,
        actor_seed=streams["actor_init"],
        critic_seed=streams["critic_init"],
    )
    noise = OuNoise(spec.action_dim, theta=config.ou_theta, sigma=config.ou_sigma, rng=streams["noise"])

    buffer = ReplayBuffer(config.buffer_capacity, spec.obs_dim, spec.action_dim)
    sampler = make_sampler(config, buffer, streams)
    tracker = ReplayRewardTracker(window=config.reward_window)

    eval_env = make_env(config.env)
    eval_env.reset(seed=streams["eval_env"])
    episodes: list[EpisodeRecord] = []
    traces: list[TraceRecord] = []
    evals: list[EvalRecord] = []
    global_step = 0
    train_count = 0
    episode_return = 0.0
    episode_length = 0
    stopped_early = False

    def run_eval_episode() -> None:
        eval_obs = eval_env.reset()
        total, length = 0.0, 0
        while True:
            res = eval_env.step(agent.act(eval_obs))
            total += res.reward
            length += 1
            eval_obs = res.next_obs
            if res.done or res.truncated:
                break
        evals.append(EvalRecord(global_step, total, length))

    try:
        while global_step < config.total_timesteps and not stopped_early:
            rollout = min(config.rollout_steps, config.total_timesteps - global_step)
            for _ in range(rollout):
                action = agent.act(obs, noise)
                result = env.step(action)
                global_step += 1
                transition = Transition(obs, action, result.reward, result.next_obs, result.done, global_step)
                sampler.on_store(buffer.store(transition), global_step)
                episode_return += result.reward
                episode_length += 1

                if result.done or result.truncated:
                    tracker.record_episode(episode_return)
                    replay_columns = sampler.on_episode_end(tracker, global_step) or ()
                    record = (len(episodes), global_step, episode_return, episode_length, tracker.window_mean)
                    episodes.append(EpisodeRecord(*record, *replay_columns))
                    episode_return = 0.0
                    episode_length = 0
                    obs = env.reset()
                    noise.reset()
                    if config.eval_every > 0 and len(episodes) % config.eval_every == 0:
                        run_eval_episode()
                    window = config.early_stop_window
                    if window > 0 and len(episodes) >= window and (
                        np.mean([r.episode_return for r in episodes[-window:]]) >= config.early_stop_threshold
                    ):
                        stopped_early = True
                        break
                else:
                    obs = result.next_obs

            if stopped_early or len(buffer) < config.warmup_transitions:
                continue
            for _ in range(config.train_steps_per_iter):
                batch = sampler.sample(config.batch_size)
                _, td_errors = agent.train_step(batch)
                train_count += 1
                sampler.update_priorities(batch.indices, td_errors, batch.insert_timesteps, global_step)
                if train_count % config.trace_interval == 0:
                    traces.append(
                        TraceRecord(
                            global_step=global_step,
                            mean_abs_td=float(np.mean(np.abs(td_errors))),
                            mean_step_diff=float(np.mean(global_step - batch.insert_timesteps)),
                            mean_reward=float(np.mean(batch.rewards)),
                        )
                    )
    except NumericFault as fault:
        raise NumericFault(
            f"{fault} (env step {global_step}, training step {train_count})"
        ) from fault

    return RunSummary(
        config=config,
        episodes=episodes,
        traces=traces,
        evals=evals,
        total_steps=global_step,
        train_steps=train_count,
        wall_seconds=time.perf_counter() - start,
        stopped_early=stopped_early,
    )


@dataclass
class SuiteResult:
    config: RunConfig
    summary: RunSummary | None = None
    error: Exception | None = None


def run_suite(configs: list[RunConfig]) -> list[SuiteResult]:
    """Run each config in order, one at a time, in the calling thread.

    A failing run is captured in its SuiteResult and the suite goes on;
    results come back in config order.
    """
    if not configs:
        raise ConfigError("run_suite needs at least one config")
    results = []
    for config in configs:
        try:
            results.append(SuiteResult(config=config, summary=run(config)))
        except Exception as exc:  # noqa: BLE001 - suite keeps going by contract
            results.append(SuiteResult(config=config, error=exc))
    return results


@dataclass
class SummaryRow:
    config_id: str
    sampler: str
    env: str
    seed_count: int
    final_mean: float
    final_std: float
    wall_seconds: float


def summarize(results: list[SuiteResult]) -> list[SummaryRow]:
    """Aggregate suite results per config_id: mean and spread of final returns."""
    groups: dict[str, list[SuiteResult]] = {}
    for res in results:
        if res.summary is not None:
            groups.setdefault(res.config.resolved_id(), []).append(res)
    rows = []
    for config_id, members in groups.items():
        finals = np.array([m.summary.final_window_mean for m in members])
        std = float(np.std(finals, ddof=1)) if len(finals) > 1 else 0.0
        rows.append(
            SummaryRow(
                config_id=config_id,
                sampler=members[0].config.sampler,
                env=members[0].config.env,
                seed_count=len(members),
                final_mean=float(np.mean(finals)),
                final_std=std,
                wall_seconds=float(sum(m.summary.wall_seconds for m in members)),
            )
        )
    return rows


# ----------------------------------------------------------------- CSV layer

# CSV columns are the record's dataclass fields, in order, under these names.
_COLUMN_NAMES = {"episode_return": "return"}


def field_types(record_type) -> dict[str, object]:
    """Declared type of each field of a dataclass, in field order."""
    hints = typing.get_type_hints(record_type)
    return {f.name: hints[f.name] for f in fields(record_type)}


def parse_field(name: str, value: str, typ) -> object:
    """Parse a config value or CSV cell as its field's declared type.

    An empty string in an optional (``X | None``) field reads as None.
    """
    args = typing.get_args(typ)
    if type(None) in args:
        if value == "":
            return None
        (typ,) = [a for a in args if a is not type(None)]
    try:
        if typ is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(value)
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        if typ is tuple:
            return tuple(int(part) for part in value.split(",") if part.strip())
        return value
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name} = {value!r} as {typ.__name__}") from exc


def _header(record_type) -> list[str]:
    return [_COLUMN_NAMES.get(f.name, f.name) for f in fields(record_type)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(record_type, records, out) -> None:
    """Write a header and one row per record; ``out`` is a path or an open text stream."""
    names = [f.name for f in fields(record_type)]
    is_path = isinstance(out, (str, os.PathLike))
    with open(out, "w", newline="") if is_path else nullcontext(out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_header(record_type))
        w.writerows([_fmt(getattr(r, name)) for name in names] for r in records)


def read_csv(record_type, path) -> list:
    """Read a file written by ``write_csv`` back into records; blank lines are skipped.

    Raises ConfigError naming ``path`` when it cannot be read as UTF-8, and
    ``path:line`` when the header is not the record type's, a row has the
    wrong width, or a cell does not parse.
    """
    types = field_types(record_type)
    header = _header(record_type)
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    rows = csv.reader(io.StringIO(text, newline=""))
    got = next(rows, [])
    if got != header:
        raise ConfigError(f"{path}:1: header {','.join(got)!r} is not {','.join(header)!r}")
    for row in filter(None, rows):
        try:
            if len(row) != len(header):
                raise ConfigError(f"expected {len(header)} columns, got {len(row)}")
            records.append(record_type(*map(parse_field, types, row, types.values())))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{rows.line_num}: {exc}") from exc
    return records


def write_episode_csv(records: list[EpisodeRecord], out) -> None:
    write_csv(EpisodeRecord, records, out)


def write_trace_csv(records: list[TraceRecord], out) -> None:
    write_csv(TraceRecord, records, out)


def write_summary_csv(rows: list[SummaryRow], out) -> None:
    write_csv(SummaryRow, rows, out)


def write_eval_csv(records: list[EvalRecord], out) -> None:
    write_csv(EvalRecord, records, out)

