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
from dataclasses import dataclass, field, fields

import numpy as np

from .ddpg import DdpgAgent, OuNoise
from .envs import ENV_NAMES, ENVS, make_env
from .ero import FEATURE_DIM, EroPolicy
from .errors import ConfigError, DegeneratePriorityError, NumericFault
from .nn import count_params
from .replay import ReplayBuffer, importance_weights, rank_probabilities
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
        # a library caller can pass anything: each field takes its declared type,
        # and bool is an int subclass but neither a count nor a number; every
        # int setting is a count with a lower bound
        accepted = {int: ((int, np.integer), "an integer"), bool: (bool, "a bool"), str: (str, "a string"),
                    float: ((int, float, np.integer, np.floating), "a number")}
        positive = {"rollout_steps", "batch_size", "buffer_capacity", "reward_window", "trace_interval",
                    "ero_batch_size", "rank_refresh_interval"}
        for name, typ in field_types(RunConfig).items():
            if typ not in accepted:  # hidden_sizes, checked below
                continue
            (kinds, what), value = accepted[typ], getattr(self, name)
            if (isinstance(value, bool) and typ is not bool) or not isinstance(value, kinds):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
            if typ is int and value < (low := int(name in positive)):
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        for name in ("per_alpha", "per_epsilon", "ou_theta", "ou_sigma"):
            if not 0 <= getattr(self, name) < math.inf:  # also rejects NaN
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        # an empty tuple is valid: the nets then have no hidden layer
        if not isinstance(self.hidden_sizes, (tuple, list)) or any(
                isinstance(width, bool) or not isinstance(width, (int, np.integer)) or width < 1
                for width in self.hidden_sizes):
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
        # inf would never stop a run (early_stop_window = 0 says that), -inf
        # would stop it at the first full window
        if math.isinf(self.early_stop_threshold):
            raise ConfigError(f"early_stop_threshold must be finite, got {self.early_stop_threshold}")
        # the buffer never holds more than its capacity, so training would never start
        if self.warmup_transitions > self.buffer_capacity:
            raise ConfigError(
                f"warmup_transitions ({self.warmup_transitions}) must be <= "
                f"buffer_capacity ({self.buffer_capacity})"
            )
        need, have = 8 * planned_floats(self), os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            raise ConfigError(
                f"hidden_sizes {self.hidden_sizes}, batch_size {self.batch_size} and sampler {self.sampler} "
                f"need at least {need / 2**30:.1f} GiB, more than the {have / 2**30:.1f} GiB of physical memory"
            )
        # the smallest rank probability falls as the buffer fills; beta = 1 gives the largest IS weight
        if self.sampler == "per_rank" and (n := min(self.buffer_capacity, self.total_timesteps)):
            probs = rank_probabilities(n, self.per_alpha)
            try:
                importance_weights(n, probs[-1:], probs[-1], 1.0)
            except DegeneratePriorityError as err:
                raise ConfigError(f"per_alpha {self.per_alpha} is too large for {n} slots: {err}") from None

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


def planned_floats(config: RunConfig) -> int:
    """float64 values a run of ``config`` holds at the least, counted without allocating.

    Eight per agent parameter (the block's online and target rows, Adam's two
    moments and two scratch vectors, a gradient tape, the target blend's
    row), six per ERO score-net parameter, three per slot of a full rank-PER
    buffer (its sorted slots, probabilities and CDF), and one batch's
    activations in every actor and critic layer. The buffer's columns are
    memory maps, resident only as they fill, and are not counted.
    """
    spec, hidden = ENVS[config.env].spec(), list(config.hidden_sizes)
    actor = [spec.obs_dim, *hidden, spec.action_dim]
    critic = [spec.obs_dim + spec.action_dim, *hidden, 1]
    floats = 8 * (count_params(actor) + count_params(critic)) + config.batch_size * (sum(actor) + sum(critic))
    if config.sampler == "ero":
        floats += 6 * count_params([FEATURE_DIM, *hidden, 1])
    if config.sampler == "per_rank":
        floats += 3 * min(config.buffer_capacity, config.total_timesteps)
    return floats


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
    per = dict(alpha=config.per_alpha, beta0=config.per_beta0,
               beta_anneal_steps=max(planned_train_steps(config) - 1, 0))
    if kind == "per_prop":
        return PerProportionalSampler(buffer, rng, epsilon=config.per_epsilon, **per)
    if kind == "per_rank":
        return PerRankSampler(buffer, rng, refresh_interval=config.rank_refresh_interval, **per)
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


def window_mean(episodes: list[EpisodeRecord], window: int) -> float:
    """Mean return of the last ``window`` records (of all, when fewer): ``rc_window`` and the early stop."""
    return float(np.mean([r.episode_return for r in episodes[-window:]]))


def replay_reward(episodes: list[EpisodeRecord]) -> float | None:
    """ERO's r^r = r^c_pi - r^c_pi' (Zha et al., 2019, Alg. 1): the last step in ``rc_window``.

    None at the first episode, which has no earlier estimate.
    """
    if len(episodes) < 2:
        return None
    return episodes[-1].rc_window - episodes[-2].rc_window


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
    """A run's records and counters; ``Trainer`` fills it in place as the run goes."""

    config: RunConfig
    episodes: list[EpisodeRecord] = field(default_factory=list)
    traces: list[TraceRecord] = field(default_factory=list)
    evals: list[EvalRecord] = field(default_factory=list)
    total_steps: int = 0
    train_steps: int = 0
    wall_seconds: float = 0.0
    stopped_early: bool = False

    @property
    def final_window_mean(self) -> float:
        if not self.episodes:
            return float("nan")
        return self.episodes[-1].rc_window


class Trainer:
    """One run's state, advanced by the phases of Algorithm 1 of Zha et al. (2019).

    ``rollout_phase`` interacts and stores, ``end_episode`` closes an episode
    (the sampler's replay-policy update, an eval episode, the early-stop test)
    and ``train_phase`` trains on replayed batches. ``summary`` holds every
    record and counter and refers to no part of the trainer.
    """

    def __init__(self, config: RunConfig):
        config.validate()
        self.config = config
        streams = named_streams(config.seed)

        self.env = make_env(config.env)
        spec = self.env.spec()
        self.obs = self.env.reset(seed=streams["env"])
        self.agent = DdpgAgent(
            spec.obs_dim, spec.action_dim, spec.action_high, config.hidden_sizes,
            actor_lr=config.actor_lr, critic_lr=config.critic_lr, gamma=config.gamma, tau=config.tau,
            actor_seed=streams["actor_init"], critic_seed=streams["critic_init"],
        )
        self.noise = OuNoise(spec.action_dim, config.ou_theta, config.ou_sigma, rng=streams["noise"])
        self.buffer = ReplayBuffer(config.buffer_capacity, spec.obs_dim, spec.action_dim)
        self.sampler = make_sampler(config, self.buffer, streams)
        self.eval_env = make_env(config.env)
        self.eval_env.reset(seed=streams["eval_env"])

        self.episode_return, self.episode_length = 0.0, 0  # of the open episode
        self.summary = RunSummary(config)

    def rollout_phase(self) -> None:
        """Act and store up to ``rollout_steps`` env steps, or until an early stop."""
        config, summary = self.config, self.summary
        act, step_env, noise = self.agent.act, self.env.step, self.noise
        store, on_store = self.buffer.store, self.sampler.on_store
        for _ in range(min(config.rollout_steps, config.total_timesteps - summary.total_steps)):
            obs = self.obs
            action = act(obs, noise)
            result = step_env(action)
            step = summary.total_steps = summary.total_steps + 1
            on_store(store(obs, action, result.reward, result.next_obs, result.done, step), step)
            self.episode_return += result.reward
            self.episode_length += 1
            if result.done or result.truncated:
                if self.end_episode():
                    return
            else:
                self.obs = result.next_obs

    def end_episode(self) -> bool:
        """Record the open episode and start the next; returns True when the run stops early."""
        config, summary = self.config, self.summary
        episodes, step = summary.episodes, summary.total_steps
        record = EpisodeRecord(len(episodes), step, self.episode_return, self.episode_length, rc_window=0.0)
        episodes.append(record)
        record.rc_window = window_mean(episodes, config.reward_window)  # the window holds the record
        replay_columns = self.sampler.on_episode_end(replay_reward(episodes), step)
        if replay_columns is not None:
            record.replay_reward, record.subset_size, record.subset_fallbacks = replay_columns
        self.episode_return, self.episode_length = 0.0, 0
        self.obs = self.env.reset()
        self.noise.reset()
        if config.eval_every > 0 and len(episodes) % config.eval_every == 0:
            self.eval_episode()
        window = config.early_stop_window
        if window > 0 and len(episodes) >= window and (
            window_mean(episodes, window) >= config.early_stop_threshold
        ):
            summary.stopped_early = True
        return summary.stopped_early

    def eval_episode(self) -> None:
        """One episode on the eval env with the noise-free policy."""
        env, act = self.eval_env, self.agent.act
        obs = env.reset()
        total, length = 0.0, 0
        while True:
            result = env.step(act(obs))
            total += result.reward
            length += 1
            if result.done or result.truncated:
                break
            obs = result.next_obs
        self.summary.evals.append(EvalRecord(self.summary.total_steps, total, length))

    def train_phase(self) -> None:
        """``train_steps_per_iter`` steps on replayed batches, once the buffer holds the warm-up."""
        config, summary = self.config, self.summary
        if len(self.buffer) < config.warmup_transitions:
            return
        sample, update_priorities = self.sampler.sample, self.sampler.update_priorities
        train_step, traces, step = self.agent.train_step, summary.traces, summary.total_steps
        for _ in range(config.train_steps_per_iter):
            batch = sample(config.batch_size)
            _, td_errors = train_step(batch)
            summary.train_steps += 1
            update_priorities(batch.indices, td_errors, step)
            if summary.train_steps % config.trace_interval == 0:
                mean_abs_td = float(np.mean(np.abs(td_errors)))
                # a train phase stores nothing, so the drawn slots still hold what was drawn
                mean_step_diff = float(np.mean(step - self.buffer.insert_timesteps[batch.indices]))
                traces.append(TraceRecord(step, mean_abs_td, mean_step_diff, float(np.mean(batch.rewards))))


def run(config: RunConfig) -> RunSummary:
    """Execute one training run; deterministic in (config, seed)."""
    start = time.perf_counter()
    trainer = Trainer(config)
    summary = trainer.summary
    try:
        while summary.total_steps < config.total_timesteps and not summary.stopped_early:
            trainer.rollout_phase()
            if not summary.stopped_early:
                trainer.train_phase()
    except NumericFault as fault:
        raise NumericFault(
            f"{fault} (env step {summary.total_steps}, training step {summary.train_steps})"
        ) from fault
    summary.wall_seconds = time.perf_counter() - start
    return summary


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
    """Write a header and one row per record to ``out``, a path (ConfigError if unwritable) or a stream."""
    names = [f.name for f in fields(record_type)]
    try:
        stream = open(out, "w", newline="") if isinstance(out, (str, os.PathLike)) else nullcontext(out)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror}") from exc
    with stream as fh:
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

