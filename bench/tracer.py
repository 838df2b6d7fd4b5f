"""Call-site tracer for the benchmark's traced runs.

The tracer wraps the public functions of each ``replay_opt`` module from the
outside. A wrapper goes wherever a caller looks the name up: methods on their
class (subclasses reach them through the class), and functions under every
module attribute bound to them, so ``adam_step`` is traced whether
``replay_opt.ddpg`` or ``replay_opt.ero`` calls it, and ``harness.run``
whether ``run_suite`` or ``cli`` calls it.

Each call becomes one span (id, parent id, name, start, end, rows) kept in
memory; parents are tracked per thread, so spans from a thread pool nest
correctly. Spans are aggregated or written out only after the traced run
ends. Wrappers read arguments and results and never write to them, and the
tracer draws no random numbers, so a traced run produces the same outputs as
an untraced one.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

import replay_opt
from replay_opt import cli, ddpg, envs, ero, gradchecks, harness, nn, replay

# every module whose namespace may hold a traced function under some name
_LOOKUP_MODULES = (replay_opt, cli, ddpg, envs, ero, gradchecks, harness, nn, replay)


def _rows_arg(position):
    return lambda args, kwargs: len(args[position])


def _count_td_writes(counts, args, kwargs, result, seconds, before):
    applied = int(result.sum())
    counts["replay.update_td_errors.attempted"] += len(result)
    counts["replay.update_td_errors.stale"] += len(result) - applied


def _count_skipped(counts, args, kwargs, result, seconds, before):
    if result is None:
        counts["ero.update_policy.skipped"] += 1


def _count_selected(counts, args, kwargs, result, seconds, before):
    counts["ero.refresh_subset.selected"] += result


def _fallbacks_before(args, kwargs):
    return args[0].buffer.subset_fallbacks


def _count_fallbacks(counts, args, kwargs, result, seconds, before):
    counts["replay.subset_empty"] += args[0].buffer.subset_fallbacks - before


def _count_suite(counts, args, kwargs, result, seconds, before):
    jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
    counts["harness.run_suite.wall_s"] += seconds
    counts["harness.run_suite.jobs_x_wall_s"] += max(1, jobs) * seconds
    counts["harness.run_suite.run_wall_s"] += sum(
        r.summary.wall_seconds for r in result if r.summary is not None
    )


# (owner, attribute, span name, rows, before, after). A class is patched
# only where it defines the attribute itself; a name the program no longer
# has is skipped, and its metrics read 0.
_SAMPLERS = (
    replay.UniformSampler,
    replay.SubsetSampler,
    replay.PerProportionalSampler,
    replay.PerRankSampler,
)
TARGETS = [
    (nn.Mlp, "forward", "nn.forward", _rows_arg(1), None, None),
    (nn.Mlp, "forward_cached", "nn.forward_cached", _rows_arg(1), None, None),
    (nn.Mlp, "backward", "nn.backward", _rows_arg(2), None, None),
    (nn, "adam_step", "nn.adam_step", None, None, None),
    (envs.Pendulum, "step", "envs.step", None, None, None),
    (envs.Pendulum, "reset", "envs.reset", None, None, None),
    (envs.PointReacher, "step", "envs.step", None, None, None),
    (envs.PointReacher, "reset", "envs.reset", None, None, None),
    (ddpg.DdpgAgent, "act", "ddpg.act", None, None, None),
    (ddpg.DdpgAgent, "train_step", "ddpg.train_step", None, None, None),
    (ddpg.DdpgAgent, "critic_update", "ddpg.critic_update", None, None, None),
    (ddpg.DdpgAgent, "actor_update", "ddpg.actor_update", None, None, None),
    (ddpg.DdpgAgent, "soft_update", "ddpg.soft_update", None, None, None),
    (replay.ReplayBuffer, "store", "replay.store", None, None, None),
    (replay.ReplayBuffer, "gather", "replay.gather", _rows_arg(1), None, None),
    (replay.ReplayBuffer, "update_td_errors", "replay.update_td_errors", _rows_arg(1), None,
     _count_td_writes),
    *[(cls, "sample", "replay.sample", None, None, None) for cls in _SAMPLERS
      if cls is not replay.SubsetSampler],
    (replay.SubsetSampler, "sample", "replay.sample", None, _fallbacks_before, _count_fallbacks),
    *[(cls, "on_store", "replay.on_store", None, None, None) for cls in _SAMPLERS],
    *[(cls, "update_priorities", "replay.update_priorities", _rows_arg(1), None, None)
      for cls in _SAMPLERS],
    (replay.SumTree, "set", "replay.sumtree_set", None, None, None),
    (replay.SumTree, "find", "replay.sumtree_find", _rows_arg(1), None, None),
    (ero.EroPolicy, "observe_store", "ero.observe_store", None, None, None),
    (ero.EroPolicy, "refresh_scores", "ero.refresh_scores", _rows_arg(2), None, None),
    (ero.EroPolicy, "update_policy", "ero.update_policy", None, None, _count_skipped),
    (ero.EroPolicy, "refresh_subset", "ero.refresh_subset", _rows_arg(1), None, _count_selected),
    (harness, "run", "harness.run", None, None, None),
    (harness, "run_suite", "harness.run_suite", None, None, _count_suite),
    (harness, "write_episode_csv", "harness.write_csv", None, None, None),
    (harness, "write_trace_csv", "harness.write_csv", None, None, None),
    (harness, "write_summary_csv", "harness.write_csv", None, None, None),
    (harness, "write_eval_csv", "harness.write_csv", None, None, None),
    (cli, "cmd_compare", "cli.compare", None, None, None),
]


class Tracer:
    """Install wrappers, collect spans and counts, restore the originals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end, rows)
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, rows=None, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            n = rows(args, kwargs) if rows is not None else None
            token = before(args, kwargs) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, n))
            if after is not None:
                with self._lock:
                    after(self.counts, args, kwargs, result, end - start, token)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, rows, before, after in TARGETS:
            if isinstance(owner, type):
                if attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                self._patch(owner, attr, self.wrap(name, original, rows, before, after))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, rows, before, after)
            for module in _LOOKUP_MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------ aggregation

    def self_times(self) -> dict[int, float]:
        """Span id -> span duration minus the durations of its direct children."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return {sid: (end - start) - child[sid] for sid, _, _, start, end, _ in self.spans}

    def table(self) -> dict[str, float]:
        """``<span>.calls``, ``.rows``, ``.self_s`` for every span name, plus counts."""
        out: dict[str, float] = defaultdict(float)
        self_s = self.self_times()
        for sid, _, name, _, _, rows in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s[sid]
            if rows is not None:
                out[f"{name}.rows"] += rows
        out.update(self.counts)
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span_id", "parent_id", "name", "start_s", "end_s", "rows"])
            for sid, parent, name, start, end, rows in self.spans:
                w.writerow([sid, "" if parent is None else parent, name, repr(start), repr(end),
                            "" if rows is None else rows])
