"""Transition storage and the sampling strategies used for agent training.

One fixed-capacity ring buffer backs four interchangeable samplers:

* uniform draws over every live transition,
* proportional prioritization by TD-error magnitude on a sum tree,
* rank-based prioritization with a power law over TD-error ranks,
* uniform draws restricted to the mask-selected subset maintained by the
  learned replay policy.

Storage is struct-of-arrays so batch gathers are single fancy-index reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DegeneratePriorityError,
    EmptyBufferError,
)

MASK_UNDRAWN = -1  # slot has never received a Bernoulli draw


@dataclass
class Transition:
    """One stored experience plus its bookkeeping.

    ``done`` marks a genuine terminal state, never a time-limit truncation.
    ``td_error`` and ``priority_score`` are caches refreshed lazily, only
    when the transition is replayed or rescored.
    """

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool
    insert_timestep: int
    td_error: float = 0.0
    priority_score: float = 0.5
    per_priority: float = 0.0


@dataclass
class Batch:
    """A sampled mini-batch in array form, ready for network updates."""

    indices: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    insert_timesteps: np.ndarray
    is_weights: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class PerConfig:
    """Prioritized-replay knobs shared by the proportional and rank samplers.

    ``beta`` anneals linearly from ``beta0`` to 1 over ``beta_anneal_steps``
    sampling calls (0 keeps it fixed at ``beta0``).
    """

    alpha: float = 0.6
    beta0: float = 0.4
    beta_anneal_steps: int = 0
    epsilon: float = 1e-2
    rank_refresh_interval: int = 1000

    def beta_at(self, calls: int) -> float:
        if self.beta_anneal_steps <= 0:
            return self.beta0
        frac = min(1.0, calls / self.beta_anneal_steps)
        return self.beta0 + (1.0 - self.beta0) * frac


class ReplayBuffer:
    """Fixed-capacity ring store of transitions with per-slot caches.

    Slot ``i`` for ``i < size`` is always live; once full, new stores
    overwrite the oldest slot. Per-slot state beyond the transition itself:
    a cached TD error, a priority score in (0, 1), a raw priority for
    proportional sampling, the subset-membership bit, and the most recently
    drawn mask bit (or ``MASK_UNDRAWN``).
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int, subset_strict: bool = False):
        if capacity < 1:
            raise ContractViolation("capacity must be at least 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.subset_strict = subset_strict

        self.states = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, obs_dim))
        self.dones = np.zeros(capacity, dtype=bool)
        self.insert_timesteps = np.zeros(capacity, dtype=np.int64)
        self.td_errors = np.zeros(capacity)
        self.priority_scores = np.full(capacity, 0.5)
        self.per_priorities = np.zeros(capacity)
        self.in_subset = np.zeros(capacity, dtype=bool)
        self.mask_drawn = np.full(capacity, MASK_UNDRAWN, dtype=np.int8)

        self.size = 0
        self.cursor = 0
        self.store_count = 0
        self.subset_fallbacks = 0
        self.stale_updates = 0
        self._has_refreshed = False
        self._subset_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return self.size

    def store(self, transition: Transition, priority_score: float | None = None) -> int:
        """Insert a transition, evicting the oldest slot when full.

        The TD cache starts at the current maximum live |TD| (1 when empty)
        and the raw priority at the current maximum live priority (1 when
        empty), so fresh transitions are replayed at least as eagerly as any
        existing one. ``priority_score`` comes from one scoring-network pass
        when the learned replay policy is active, else defaults to 0.5.
        """
        state = np.asarray(transition.state, dtype=np.float64).reshape(-1)
        action = np.asarray(transition.action, dtype=np.float64).reshape(-1)
        next_state = np.asarray(transition.next_state, dtype=np.float64).reshape(-1)
        if state.shape != (self.obs_dim,) or next_state.shape != (self.obs_dim,):
            raise ContractViolation(
                f"state width {state.shape} does not match obs_dim {self.obs_dim}"
            )
        if action.shape != (self.action_dim,):
            raise ContractViolation(
                f"action width {action.shape} does not match action_dim {self.action_dim}"
            )

        if self.size > 0:
            td_init = float(np.max(np.abs(self.td_errors[: self.size])))
            per_init = float(np.max(self.per_priorities[: self.size]))
        else:
            td_init, per_init = 1.0, 1.0

        idx = self.cursor
        self.states[idx] = state
        self.actions[idx] = action
        self.rewards[idx] = transition.reward
        self.next_states[idx] = next_state
        self.dones[idx] = transition.done
        self.insert_timesteps[idx] = transition.insert_timestep
        self.td_errors[idx] = td_init
        self.per_priorities[idx] = per_init
        self.priority_scores[idx] = 0.5 if priority_score is None else float(priority_score)
        # new transitions join the active subset immediately unless strict
        # masking is on and a drawn mask already exists
        self.in_subset[idx] = not (self.subset_strict and self._has_refreshed)
        self.mask_drawn[idx] = MASK_UNDRAWN

        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self.store_count += 1
        self._subset_cache = None
        return idx

    def get(self, idx: int) -> Transition:
        if not 0 <= idx < self.size:
            raise ContractViolation(f"slot {idx} is not live (size {self.size})")
        return Transition(
            state=self.states[idx].copy(),
            action=self.actions[idx].copy(),
            reward=float(self.rewards[idx]),
            next_state=self.next_states[idx].copy(),
            done=bool(self.dones[idx]),
            insert_timestep=int(self.insert_timesteps[idx]),
            td_error=float(self.td_errors[idx]),
            priority_score=float(self.priority_scores[idx]),
            per_priority=float(self.per_priorities[idx]),
        )

    def live_order(self) -> np.ndarray:
        """Live slot indices from oldest to newest insertion."""
        if self.size < self.capacity:
            return np.arange(self.size)
        return np.concatenate([np.arange(self.cursor, self.capacity), np.arange(self.cursor)])

    def gather(self, indices: np.ndarray, is_weights: np.ndarray | None = None) -> Batch:
        indices = np.asarray(indices, dtype=np.int64)
        return Batch(
            indices=indices,
            states=self.states[indices],
            actions=self.actions[indices],
            rewards=self.rewards[indices],
            next_states=self.next_states[indices],
            dones=self.dones[indices],
            insert_timesteps=self.insert_timesteps[indices],
            is_weights=is_weights,
        )

    def subset_indices(self) -> np.ndarray:
        """Live slots currently inside the active subset."""
        if self._subset_cache is None:
            self._subset_cache = np.flatnonzero(self.in_subset[: self.size])
        return self._subset_cache

    def set_subset_mask(self, bits: np.ndarray) -> None:
        """Overwrite subset membership for every live slot with drawn bits."""
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != (self.size,):
            raise ContractViolation(f"mask shape {bits.shape} does not match size {self.size}")
        self.in_subset[: self.size] = bits
        self.mask_drawn[: self.size] = bits.astype(np.int8)
        self._has_refreshed = True
        self._subset_cache = None

    def update_td_errors(
        self,
        indices: np.ndarray,
        td_errors: np.ndarray,
        expected_insert_steps: np.ndarray | None = None,
    ) -> np.ndarray:
        """Overwrite TD caches for the given slots; returns the applied mask.

        When ``expected_insert_steps`` is provided, slots whose content
        changed since sampling (ring eviction) are skipped and counted in
        ``stale_updates``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        td_errors = np.asarray(td_errors, dtype=np.float64)
        if len(indices) == 0:
            return np.zeros(0, dtype=bool)
        ok = indices < self.size
        if expected_insert_steps is not None:
            ok &= self.insert_timesteps[indices] == expected_insert_steps
        self.stale_updates += int((~ok).sum())
        self.td_errors[indices[ok]] = td_errors[ok]
        return ok


class SumTree:
    """Complete binary tree over ``capacity`` leaves holding priority masses.

    Internal nodes cache subtree sums so proportional sampling is one
    root-to-leaf descent per draw. Leaf storage is padded to the next power
    of two so every leaf sits at the same depth and the descent order agrees
    with plain leaf-index order (pad leaves hold zero mass forever).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractViolation("capacity must be at least 1")
        self.capacity = capacity
        self._leaves = 1
        while self._leaves < capacity:
            self._leaves *= 2
        self.nodes = np.zeros(2 * self._leaves - 1)
        # right shifts taking a 1-based heap number to each of its ancestors
        self._shifts = np.arange(1, self._leaves.bit_length())[:, None]

    def set(self, idx, mass) -> None:
        """Write leaf mass(es) and propagate the change to every ancestor.

        ``idx`` and ``mass`` are either one leaf index and one mass, or two
        1-D arrays of equal length. An array write gives the same bits in
        ``nodes`` as the same scalar writes made one by one in array order:
        each leaf's delta is taken against the mass the previous write to
        that leaf left, the last write to a leaf wins, and every internal
        node adds its deltas in array order (one ``np.add.at`` over the
        ancestors, level by level, each level in array order). Deltas are
        added rather than parents recomputed from their children, so the
        sums drift exactly as the scalar walk's do.

        An array write validates the whole batch before writing anything: a
        negative, non-finite or out-of-range entry raises and leaves
        ``nodes`` untouched.

        Callers compute leaf masses ``(|td| + eps) ** alpha`` with scalar
        (Python float) ``**``: numpy's vectorized ``**`` may use a different
        pow kernel (e.g. AVX-512) whose results differ from the scalar one
        in the last bit, which would change which leaf a draw lands on.
        """
        # one leaf (a store) walks in Python: cheaper than the array path's fixed cost
        if not np.isscalar(idx):
            self._set_many(idx, mass)
            return
        if mass < 0 or not np.isfinite(mass):
            raise ContractViolation(f"leaf mass must be finite and non-negative, got {mass}")
        if not 0 <= idx < self.capacity:
            raise ContractViolation(f"leaf index {idx} out of range for capacity {self.capacity}")
        node = idx + self._leaves - 1
        delta = mass - self.nodes[node]
        self.nodes[node] = mass
        while node > 0:
            node = (node - 1) // 2
            self.nodes[node] += delta

    def _set_many(self, idx, mass) -> None:
        indices = np.asarray(idx)
        masses = np.asarray(mass, dtype=np.float64)
        if indices.ndim != 1 or masses.shape != indices.shape:
            raise ContractViolation(
                f"leaf indices {indices.shape} and masses {masses.shape} must be equal-length 1-D arrays"
            )
        if len(indices) == 0:
            return
        if indices.dtype.kind not in "iu":
            raise ContractViolation(f"leaf indices must be integers, got dtype {indices.dtype}")
        bad = ~np.isfinite(masses) | (masses < 0)
        if bad.any():
            raise ContractViolation(
                f"leaf mass must be finite and non-negative, got {masses[bad][0]}"
            )
        out = (indices < 0) | (indices >= self.capacity)
        if out.any():
            raise ContractViolation(
                f"leaf index {indices[out][0]} out of range for capacity {self.capacity}"
            )
        nodes = indices.astype(np.int64) + (self._leaves - 1)
        # a repeated leaf's delta starts from the mass its previous write left
        prev = self.nodes[nodes]
        order = np.argsort(indices, kind="stable")
        repeat = nodes[order[1:]] == nodes[order[:-1]]
        prev[order[1:][repeat]] = masses[order[:-1][repeat]]
        deltas = masses - prev
        last = np.ones(len(nodes), dtype=bool)
        last[order[:-1][repeat]] = False
        self.nodes[nodes[last]] = masses[last]
        # ancestors level by level, each level in array order
        ancestors = ((nodes + 1)[None, :] >> self._shifts) - 1
        np.add.at(self.nodes, ancestors.ravel(), np.tile(deltas, len(self._shifts)))

    def get(self, idx: int) -> float:
        return float(self.nodes[idx + self._leaves - 1])

    def total(self) -> float:
        return float(self.nodes[0])

    def leaf_masses(self) -> np.ndarray:
        return self.nodes[self._leaves - 1 : self._leaves - 1 + self.capacity]

    def find(self, values: np.ndarray) -> np.ndarray:
        """Vectorized inverse-CDF descent: leaf index for each mass value.

        Values must lie in [0, total). A leaf is returned with probability
        mass/total; zero-mass leaves are never returned.
        """
        values = np.asarray(values, dtype=np.float64).copy()
        idx = np.zeros(values.shape, dtype=np.int64)
        levels = self._leaves.bit_length() - 1
        for _ in range(levels):
            left = 2 * idx + 1
            left_sum = self.nodes[left]
            go_right = values >= left_sum
            idx = np.where(go_right, left + 1, left)
            values = np.where(go_right, values - left_sum, values)
        return idx - (self._leaves - 1)


def _stratified_values(batch_size: int, total: float, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw inside each of ``batch_size`` equal-mass strata."""
    return (np.arange(batch_size) + rng.random(batch_size)) / batch_size * total


class UniformSampler:
    """I.i.d. uniform draws with replacement over every live slot."""

    kind = "uniform"

    def __init__(self, buffer: ReplayBuffer, rng: np.random.Generator):
        self.buffer = buffer
        self.rng = rng

    def sample(self, batch_size: int) -> Batch:
        if len(self.buffer) == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        indices = self.rng.integers(0, len(self.buffer), size=batch_size)
        return self.buffer.gather(indices)

    def on_store(self, idx: int) -> None:
        pass

    def update_priorities(self, indices, td_errors, expected_insert_steps=None) -> None:
        self.buffer.update_td_errors(indices, td_errors, expected_insert_steps)


class SubsetSampler(UniformSampler):
    """Uniform draws restricted to the mask-selected subset.

    An empty subset falls back to the whole buffer so training never stalls;
    each fallback increments ``buffer.subset_fallbacks``.
    """

    kind = "ero"

    def sample(self, batch_size: int) -> Batch:
        if len(self.buffer) == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        subset = self.buffer.subset_indices()
        if len(subset) == 0:
            self.buffer.subset_fallbacks += 1
            indices = self.rng.integers(0, len(self.buffer), size=batch_size)
        else:
            indices = subset[self.rng.integers(0, len(subset), size=batch_size)]
        return self.buffer.gather(indices)


class PerProportionalSampler:
    """Stratified proportional sampling on (|TD| + eps)^alpha leaf masses."""

    kind = "per_prop"

    def __init__(self, buffer: ReplayBuffer, config: PerConfig, rng: np.random.Generator):
        self.buffer = buffer
        self.config = config
        self.rng = rng
        self.tree = SumTree(buffer.capacity)
        self.sample_calls = 0

    def on_store(self, idx: int) -> None:
        self.tree.set(idx, self.buffer.per_priorities[idx] ** self.config.alpha)

    def sample(self, batch_size: int) -> Batch:
        n = len(self.buffer)
        if n == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        total = self.tree.total()
        if total <= 0.0:
            raise DegeneratePriorityError("total priority mass is zero")
        beta = self.config.beta_at(self.sample_calls)
        self.sample_calls += 1

        values = _stratified_values(batch_size, total, self.rng)
        indices = self.tree.find(values)
        live = self.tree.leaf_masses()[:n]
        probs = live[indices] / total
        weights = (n * probs) ** -beta
        # normalize by the largest weight any sampleable slot could get
        min_prob = live[live > 0].min() / total
        max_weight = (n * min_prob) ** -beta
        return self.buffer.gather(indices, is_weights=weights / max_weight)

    def update_priorities(self, indices, td_errors, expected_insert_steps=None) -> None:
        ok = self.buffer.update_td_errors(indices, td_errors, expected_insert_steps)
        indices = np.asarray(indices, dtype=np.int64)[ok]
        raw = np.abs(np.asarray(td_errors, dtype=np.float64)[ok]) + self.config.epsilon
        # scalar pow per element: see SumTree.set
        alpha = self.config.alpha
        self.tree.set(indices, np.array([r**alpha for r in raw.tolist()]))
        self.buffer.per_priorities[indices] = raw


class PerRankSampler:
    """Power-law sampling over TD-error ranks, re-sorted periodically.

    Ranks come from sorting live slots by |TD| descending, ties broken by
    older insertion first. The sort refreshes every
    ``rank_refresh_interval`` stores (and on first use); transitions stored
    since the last sort are unreachable until the next one, which is the
    usual cost of amortizing the sort.
    """

    kind = "per_rank"

    def __init__(self, buffer: ReplayBuffer, config: PerConfig, rng: np.random.Generator):
        self.buffer = buffer
        self.config = config
        self.rng = rng
        self.sample_calls = 0
        self._sorted_slots = np.zeros(0, dtype=np.int64)
        self._probs = np.zeros(0)
        self._cdf = np.zeros(0)
        self._stores_since_sort = 0
        self._dirty = True

    def on_store(self, idx: int) -> None:
        self._stores_since_sort += 1
        if self._stores_since_sort >= self.config.rank_refresh_interval:
            self._dirty = True

    def _refresh_ranks(self) -> None:
        n = len(self.buffer)
        abs_td = np.abs(self.buffer.td_errors[:n])
        # lexsort: primary key last; descending |TD|, then older first
        self._sorted_slots = np.lexsort((self.buffer.insert_timesteps[:n], -abs_td))
        ranks = np.arange(1, n + 1, dtype=np.float64)
        masses = ranks ** -self.config.alpha
        self._probs = masses / masses.sum()
        self._cdf = np.cumsum(self._probs)
        self._cdf[-1] = 1.0
        self._stores_since_sort = 0
        self._dirty = False

    def sample(self, batch_size: int) -> Batch:
        if len(self.buffer) == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        if self._dirty or len(self._sorted_slots) == 0:
            self._refresh_ranks()
        beta = self.config.beta_at(self.sample_calls)
        self.sample_calls += 1

        n = len(self._sorted_slots)
        values = _stratified_values(batch_size, 1.0, self.rng)
        ranks = np.searchsorted(self._cdf, values, side="right")
        ranks = np.minimum(ranks, n - 1)
        indices = self._sorted_slots[ranks]
        probs = self._probs[ranks]
        weights = (n * probs) ** -beta
        max_weight = (n * self._probs[-1]) ** -beta
        return self.buffer.gather(indices, is_weights=weights / max_weight)

    def update_priorities(self, indices, td_errors, expected_insert_steps=None) -> None:
        self.buffer.update_td_errors(indices, td_errors, expected_insert_steps)


SAMPLER_KINDS = ("uniform", "per_prop", "per_rank", "ero")


def make_sampler(kind: str, buffer: ReplayBuffer, rng: np.random.Generator, config: PerConfig | None = None):
    if kind == "uniform":
        return UniformSampler(buffer, rng)
    if kind == "ero":
        return SubsetSampler(buffer, rng)
    if kind == "per_prop":
        return PerProportionalSampler(buffer, config or PerConfig(), rng)
    if kind == "per_rank":
        return PerRankSampler(buffer, config or PerConfig(), rng)
    raise ContractViolation(f"unknown sampler kind {kind!r}, expected one of {SAMPLER_KINDS}")


# Snapshot layout, little-endian throughout:
#   header: magic "ERPB", version u32, capacity u64, size u64,
#           obs_dim u32, act_dim u32
#   then one fixed-width record per live slot, oldest insertion first:
#           state f64*obs, action f64*act, reward f64, next_state f64*obs,
#           done u8, in_subset u8, mask_drawn i8, insert_timestep u64,
#           td_error f64, priority_score f64, per_priority f64
_SNAPSHOT_MAGIC = b"ERPB"
_SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQQII")


def _record_struct(obs_dim: int, act_dim: int) -> struct.Struct:
    return struct.Struct(f"<{obs_dim}d{act_dim}dd{obs_dim}dBBbQddd")


def save_snapshot(buffer: ReplayBuffer, path) -> None:
    """Dump the live buffer contents to a flat binary file."""
    rec = _record_struct(buffer.obs_dim, buffer.action_dim)
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _SNAPSHOT_MAGIC,
                _SNAPSHOT_VERSION,
                buffer.capacity,
                buffer.size,
                buffer.obs_dim,
                buffer.action_dim,
            )
        )
        for idx in buffer.live_order():
            fh.write(
                rec.pack(
                    *buffer.states[idx],
                    *buffer.actions[idx],
                    buffer.rewards[idx],
                    *buffer.next_states[idx],
                    int(buffer.dones[idx]),
                    int(buffer.in_subset[idx]),
                    int(buffer.mask_drawn[idx]),
                    int(buffer.insert_timesteps[idx]),
                    buffer.td_errors[idx],
                    buffer.priority_scores[idx],
                    buffer.per_priorities[idx],
                )
            )


def load_snapshot(path) -> tuple[dict, list[Transition]]:
    """Read a snapshot back as (header metadata, transitions oldest-first)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ContractViolation(
                f"snapshot {path} is truncated: header needs {_HEADER.size} bytes, got {len(raw)}"
            )
        magic, version, capacity, size, obs_dim, act_dim = _HEADER.unpack(raw)
        if magic != _SNAPSHOT_MAGIC:
            raise ContractViolation(f"bad snapshot magic {magic!r}")
        if version != _SNAPSHOT_VERSION:
            raise ContractViolation(f"unsupported snapshot version {version}")
        meta = {
            "version": version,
            "capacity": capacity,
            "size": size,
            "obs_dim": obs_dim,
            "act_dim": act_dim,
        }
        rec = _record_struct(obs_dim, act_dim)
        transitions = []
        for i in range(size):
            chunk = fh.read(rec.size)
            if len(chunk) != rec.size:
                raise ContractViolation(
                    f"snapshot {path} is truncated: record {i} of {size} needs "
                    f"{rec.size} bytes, got {len(chunk)}"
                )
            fields = rec.unpack(chunk)
            state = np.array(fields[:obs_dim])
            action = np.array(fields[obs_dim : obs_dim + act_dim])
            pos = obs_dim + act_dim
            reward = fields[pos]
            next_state = np.array(fields[pos + 1 : pos + 1 + obs_dim])
            pos = pos + 1 + obs_dim
            done, in_subset, mask_drawn, insert_ts, td, score, per_prio = fields[pos : pos + 7]
            transitions.append(
                Transition(
                    state=state,
                    action=action,
                    reward=reward,
                    next_state=next_state,
                    done=bool(done),
                    insert_timestep=int(insert_ts),
                    td_error=td,
                    priority_score=score,
                    per_priority=per_prio,
                )
            )
    return meta, transitions
