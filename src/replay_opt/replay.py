"""Transition storage and the sampling strategies used for agent training.

One fixed-capacity ring buffer backs four interchangeable samplers:

* uniform draws over every live transition,
* proportional prioritization by TD-error magnitude on a sum tree,
* rank-based prioritization with a power law over TD-error ranks,
* uniform draws restricted to the subset selected by the mask that the
  learned replay policy draws (the sampler owns the mask bits).

Storage is struct-of-arrays so a batch gather is one indexed read per column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation,
    DegeneratePriorityError,
    EmptyBufferError,
)
from .memory import mapped_zeros

MASK_UNDRAWN = -1  # slot has never received a Bernoulli draw


@dataclass
class Transition:
    """One stored experience plus its bookkeeping.

    ``done`` marks a genuine terminal state, never a time-limit truncation.
    """

    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: bool
    insert_timestep: int


@dataclass
class Batch:
    """A sampled mini-batch in array form, ready for network updates.

    ``indices`` names the slots drawn; the run loop writes the batch's TD
    errors back to them before the next store, so each still holds the
    transition it held at the draw.
    """

    indices: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    is_weights: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.indices)


class ReplayBuffer:
    """Fixed-capacity ring store of transitions with per-slot caches.

    Slot ``i`` for ``i < size`` is always live; once full, new stores
    overwrite the oldest slot. Per-slot state beyond the transition itself
    is only what more than one component reads: a cached TD error. State
    that one sampler reads belongs to that sampler (``SubsetSampler`` only
    counts its fallbacks in ``subset_fallbacks`` here).

    The buffer caches the maximum live |TD| that ``store`` seeds new slots
    with. ``update_td_errors`` drops the cache, and the next ``store``
    rescans the column, so the cache is a function of the column. Write
    ``td_errors`` only through ``update_td_errors``, or the cache goes stale.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ContractViolation("capacity must be at least 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.action_dim = action_dim

        self.states = mapped_zeros((capacity, obs_dim))
        self.actions = mapped_zeros((capacity, action_dim))
        self.rewards = mapped_zeros(capacity)
        self.next_states = mapped_zeros((capacity, obs_dim))
        self.dones = mapped_zeros(capacity, dtype=bool)
        self.insert_timesteps = mapped_zeros(capacity, dtype=np.int64)
        self.td_errors = mapped_zeros(capacity)

        self.size = 0
        self.cursor = 0
        self.subset_fallbacks = 0
        self._td_max = None  # max |TD| over live slots; None until (re)scanned

    def __len__(self) -> int:
        return self.size

    def store(self, transition: Transition) -> int:
        """Insert a transition, evicting the oldest slot when full.

        The TD cache starts at the current maximum live |TD| (1 when empty),
        so fresh transitions are replayed at least as eagerly as any
        existing one. That maximum is cached, not rescanned: a store never
        changes it, because the new slot takes it and an evicted slot held
        at most it.
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

        if self.size == 0:
            td_init = 1.0
        else:
            if self._td_max is None:
                self._td_max = float(np.max(np.abs(self.td_errors[: self.size])))
            td_init = self._td_max

        idx = self.cursor
        self.states[idx] = state
        self.actions[idx] = action
        self.rewards[idx] = transition.reward
        self.next_states[idx] = next_state
        self.dones[idx] = transition.done
        self.insert_timesteps[idx] = transition.insert_timestep
        self.td_errors[idx] = td_init
        self._td_max = td_init

        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        return idx

    def gather(self, indices: np.ndarray, is_weights: np.ndarray | None = None) -> Batch:
        indices = np.asarray(indices, dtype=np.int64)
        # ``take`` copies the same rows as fancy indexing, at a fraction of its cost on 2-D columns
        return Batch(
            indices=indices,
            states=self.states.take(indices, axis=0),
            actions=self.actions.take(indices, axis=0),
            rewards=self.rewards[indices],
            next_states=self.next_states.take(indices, axis=0),
            dones=self.dones[indices],
            is_weights=is_weights,
        )

    def update_td_errors(self, indices: np.ndarray, td_errors: np.ndarray) -> np.ndarray:
        """Overwrite the TD caches of the live slots among ``indices``; returns that live mask.

        Where a slot repeats, its last write lands. The cached maximum |TD|
        is dropped; the next ``store`` rescans the column.
        """
        indices = np.asarray(indices, dtype=np.int64)
        ok = indices < self.size
        self.td_errors[indices[ok]] = np.asarray(td_errors, dtype=np.float64)[ok]
        self._td_max = None
        return ok


class SumTree:
    """Complete binary tree over ``capacity`` leaves holding priority masses.

    Internal nodes cache subtree sums so proportional sampling is one
    root-to-leaf descent per draw. Leaf storage is padded to the next power
    of two so every leaf sits at the same depth and the descent order agrees
    with plain leaf-index order (pad leaves hold zero mass forever).
    ``nodes`` is the tree in heap order, root first; it is a view into a
    1-based heap (``_heap[k]`` is ``nodes[k - 1]``, so node ``k``'s children
    are ``2k`` and ``2k + 1``).

    The tree also tracks one past the highest leaf ever written (``find``
    starts below the nodes that cover only unwritten leaves) and the
    smallest positive leaf mass, which it rescans only after a write that
    may have removed it. Write leaves only through ``set``: a direct write
    to ``nodes`` leaves both stale.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ContractViolation("capacity must be at least 1")
        self.capacity = capacity
        self._leaves = 1
        while self._leaves < capacity:
            self._leaves *= 2
        # on its own memory map: nodes above unwritten leaves cost no resident memory
        self._heap = mapped_zeros(2 * self._leaves)
        self.nodes = self._heap[1:]
        # right shifts taking a leaf's heap number to itself and each ancestor
        self._shifts = np.arange(self._leaves.bit_length())[:, None]
        self._written = 0  # one past the highest leaf ever written
        self._min_mass = math.inf  # smallest positive leaf mass (inf: none); None until rescanned

    def set(self, idx: np.ndarray, mass: np.ndarray) -> None:
        """Write leaf masses and recompute every ancestor from its children.

        ``idx`` and ``mass`` are 1-D arrays of equal length; a leaf may
        repeat, and then its last write lands. The leaves land first; then,
        level by level towards the root, each touched node is set to the sum
        of its two children. So every internal node is the exact sum of its
        children after each write, whatever the order of the writes before
        it: a sibling is read only after the level below it is written, and
        ``a + b == b + a``, so two paths that meet write the same value.

        The whole batch is validated before anything is written: a negative,
        non-finite or out-of-range entry raises and leaves ``nodes``
        untouched.

        Callers compute leaf masses ``(|td| + eps) ** alpha`` with
        ``math.pow``, one Python float at a time: numpy's vectorized ``**``
        may use a different pow kernel (e.g. AVX-512) whose results differ
        from the C library's in the last bit, which would change which leaf
        a draw lands on.
        """
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
        if not (np.minimum.reduce(masses) >= 0 and math.isfinite(np.maximum.reduce(masses))):
            bad = ~np.isfinite(masses) | (masses < 0)
            raise ContractViolation(
                f"leaf mass must be finite and non-negative, got {masses[bad][0]}"
            )
        highest = np.maximum.reduce(indices)
        if np.minimum.reduce(indices) < 0 or highest >= self.capacity:
            out = (indices < 0) | (indices >= self.capacity)
            raise ContractViolation(
                f"leaf index {indices[out][0]} out of range for capacity {self.capacity}"
            )
        heap = self._heap
        path_nodes = np.add(indices, self._leaves, dtype=np.int64) >> self._shifts
        nodes = path_nodes[0]
        prev = heap.take(nodes)  # every touched leaf's mass before the batch
        heap[nodes] = masses
        path = heap.take(nodes)  # the masses that landed
        self._written = max(self._written, int(highest) + 1)
        low = self._min_mass
        if low is not None:
            lightest = np.minimum.reduce(path)
            if lightest == 0.0:
                lightest = np.minimum.reduce(path, where=path > 0, initial=math.inf)
            if lightest <= low:
                self._min_mass = lightest
            elif np.minimum.reduce(prev) <= low and low in prev:
                self._min_mass = None
        siblings = path_nodes ^ 1
        for level in range(1, len(path_nodes)):
            path += heap.take(siblings[level - 1])
            heap[path_nodes[level]] = path

    def total(self) -> float:
        return float(self._heap[1])

    def min_mass(self) -> float:
        """Smallest positive leaf mass; ``inf`` when no leaf has mass."""
        if self._min_mass is None:
            written = self._heap[self._leaves : self._leaves + self._written]
            self._min_mass = np.minimum.reduce(written, where=written > 0, initial=math.inf)
        return self._min_mass

    def leaf_masses(self) -> np.ndarray:
        return self._heap[self._leaves : self._leaves + self.capacity]

    def find(self, values: np.ndarray) -> np.ndarray:
        """Vectorized inverse-CDF descent: leaf index for each mass value.

        Values must lie in [0, total). A leaf is returned with probability
        mass/total; zero-mass leaves are never returned.

        The descent starts at the deepest internal node on the tree's left
        edge whose subtree holds every leaf ever written. Every node above
        it has its left child on that edge and a right child that covers
        only unwritten leaves and so holds 0.0; since ``x + 0.0 == x``, the
        left sum equals ``total`` bit for bit and a value below the total
        never goes right there: starting lower returns the same leaves as a
        descent from the root. Each level works in place: the same
        comparisons and subtractions, without temporaries.
        """
        values = np.array(values, dtype=np.float64)
        # leaves under the start node: a power of two >= 2 covering the written ones
        span = min(self._leaves, 1 << max(self._written - 1, 1).bit_length())
        node = np.full(values.shape, self._leaves // span, dtype=np.int64)
        left_sum = np.empty_like(values)
        go_right = np.empty(values.shape, dtype=bool)
        for _ in range(span.bit_length() - 1):
            np.add(node, node, out=node)  # the left child; cheaper than ``node <<= 1``
            self._heap.take(node, out=left_sum)
            np.greater_equal(values, left_sum, out=go_right)
            np.subtract(values, left_sum, out=values, where=go_right)
            node |= go_right
        node -= self._leaves
        return node


def _stratified_values(batch_size: int, total: float, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw inside each of ``batch_size`` equal-mass strata."""
    return (np.arange(batch_size) + rng.random(batch_size)) / batch_size * total


def _leaf_masses(priorities: np.ndarray, alpha: float) -> np.ndarray:
    """``priorities ** alpha`` by ``math.pow``, one element at a time (see ``SumTree.set``)."""
    powers = map(math.pow, priorities.tolist(), itertools.repeat(alpha))
    return np.fromiter(powers, np.float64, len(priorities))


def beta_at(beta0: float, anneal_steps: int, calls: int) -> float:
    """PER's IS exponent after ``calls`` draws: from ``beta0`` to 1 over ``anneal_steps`` (0: fixed)."""
    if anneal_steps <= 0:
        return beta0
    return beta0 + (1.0 - beta0) * min(1.0, calls / anneal_steps)


def _is_weights(n: int, probs: np.ndarray, min_prob, beta: float) -> np.ndarray:
    """IS weights ``(n * probs) ** -beta``, divided by the largest a slot can get (at ``min_prob``)."""
    return (n * probs) ** -beta / (n * min_prob) ** -beta


class UniformSampler:
    """I.i.d. uniform draws with replacement over every live slot.

    The base of the other samplers, which replace the hooks they need.
    ``harness.run`` calls the four hooks on every sampler, in this order:

    * ``on_store(idx, step)`` after each store, at env step ``step``;
    * ``sample(n)`` for each train step's batch;
    * ``update_priorities(indices, td_errors, step)`` with the batch's TD
      errors, right after the train step on it, with no store in between;
    * ``on_episode_end(replay_reward, step)`` once the episode's record is
      written, with ``harness.replay_reward`` of the records (None at the
      first episode); returns the episode's replay columns
      ``(replay_reward, subset_size, subset_fallbacks)``, or None.
    """

    def __init__(self, buffer: ReplayBuffer, rng: np.random.Generator):
        self.buffer = buffer
        self.rng = rng

    def on_store(self, idx: int, step: int) -> None:
        pass

    def sample(self, batch_size: int) -> Batch:
        if len(self.buffer) == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        indices = self.rng.integers(0, len(self.buffer), size=batch_size)
        return self.buffer.gather(indices)

    def update_priorities(self, indices, td_errors, step: int) -> None:
        self.buffer.update_td_errors(indices, td_errors)

    def on_episode_end(self, replay_reward: float | None, step: int):
        return None


class SubsetSampler(UniformSampler):
    """The learned replay policy's sampler (ERO): uniform draws over the subset its mask selects.

    ``policy`` (an ``ero.EroPolicy``) scores the slots and draws the mask,
    and the hooks drive it as Algorithm 1 of Zha et al. (2019) does:
    ``on_store`` shows it each stored slot, ``update_priorities`` each
    replayed batch, and ``on_episode_end`` turns the replay reward into a
    policy update and a fresh mask. The sampler owns the mask bits, one per
    slot: the bit the last mask drew, or ``MASK_UNDRAWN`` for a slot stored
    since, which is in the subset until the next draw.

    An empty subset falls back to the whole buffer so training never stalls;
    each fallback increments ``buffer.subset_fallbacks``.
    """

    def __init__(self, buffer: ReplayBuffer, rng: np.random.Generator, policy):
        super().__init__(buffer, rng)
        self.policy = policy
        # a slot at or above ``buffer.size`` is never read, and ``on_store``
        # marks each slot it fills, so only the live slots need marking here
        self.mask_drawn = mapped_zeros(buffer.capacity, dtype=np.int8)
        self.mask_drawn[: buffer.size] = MASK_UNDRAWN
        self._subset: np.ndarray | None = None  # subset_indices(); None until recomputed

    def on_store(self, idx: int, step: int) -> None:
        self.mask_drawn[idx] = MASK_UNDRAWN
        self._subset = None
        self.policy.observe_store(self.buffer, idx, step)

    def subset_indices(self) -> np.ndarray:
        """Live slots inside the active subset: drawn bit 1, or no bit yet."""
        if self._subset is None:
            self._subset = np.flatnonzero(self.mask_drawn[: self.buffer.size] != 0)
        return self._subset

    def drawn_slots(self) -> np.ndarray:
        """Live slots that carry a drawn bit (not stored since the last draw)."""
        return np.flatnonzero(self.mask_drawn[: self.buffer.size] != MASK_UNDRAWN)

    def set_subset_mask(self, bits: np.ndarray, start: int = 0) -> None:
        """Overwrite the subset membership of live slots ``start, start + 1, ...`` with drawn bits.

        A mask drawn block by block is written one block at a time.
        """
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1 or not 0 <= start <= start + len(bits) <= self.buffer.size:
            raise ContractViolation(
                f"mask shape {bits.shape} at slot {start} does not match size {self.buffer.size}"
            )
        self.mask_drawn[start : start + len(bits)] = bits
        self._subset = None

    def sample(self, batch_size: int) -> Batch:
        subset = self.subset_indices()
        if len(subset) == 0:
            self.buffer.subset_fallbacks += 1
            return super().sample(batch_size)
        return self.buffer.gather(subset[self.rng.integers(0, len(subset), size=batch_size)])

    def update_priorities(self, indices, td_errors, step: int) -> None:
        self.buffer.update_td_errors(indices, td_errors)
        self.policy.refresh_scores(self.buffer, indices, step)

    def on_episode_end(self, replay_reward: float | None, step: int):
        """From the second episode end on (a replay reward exists), a policy update and a fresh mask."""
        if replay_reward is not None:
            self.policy.update_policy(self.buffer, replay_reward, step, self)
            self.policy.refresh_subset(self.buffer, step, self)
        return replay_reward, len(self.subset_indices()), self.buffer.subset_fallbacks


class PerProportionalSampler(UniformSampler):
    """Stratified proportional sampling on (|TD| + eps)^alpha leaf masses.

    The priorities are the buffer's TD column: a live slot's leaf holds
    ``(|td_errors[slot]| + eps) ** alpha``. A new slot starts at the largest
    live priority, because ``store`` seeds its TD with the largest live |TD|
    and ``max|td| + eps == max(|td| + eps)`` in floating point. The sampler
    owns only the sum tree, whose smallest positive mass normalizes the IS
    weights, the slots stored since its last read, and ``sample_calls``. The
    tree stays in step with the column only if every TD write after a store
    goes through ``update_priorities``.

    ``on_store`` only queues the slot. Reading ``tree`` first writes the
    queued slots' masses in one ``SumTree.set``. The tree's internal nodes
    are exact sums of their children whatever the order of the writes, so
    every reader sees the tree a fresh ``SumTree`` filled from the column
    would hold.
    """

    def __init__(self, buffer: ReplayBuffer, rng: np.random.Generator, *, alpha: float = 0.6,
                 epsilon: float = 1e-2, beta0: float = 0.4, beta_anneal_steps: int = 0):
        super().__init__(buffer, rng)
        self.alpha, self.epsilon = alpha, epsilon
        self.beta0, self.beta_anneal_steps = beta0, beta_anneal_steps
        self._tree = SumTree(buffer.capacity)
        self.sample_calls = 0
        self._stored: list[int] = []  # slots stored since the tree was last read

    def _masses(self, slots: np.ndarray) -> np.ndarray:
        return _leaf_masses(np.abs(self.buffer.td_errors[slots]) + self.epsilon, self.alpha)

    @property
    def tree(self) -> SumTree:
        """The sum tree, after writing the masses of the slots stored since the last read."""
        if self._stored:
            slots, self._stored = np.array(self._stored), []
            self._tree.set(slots, self._masses(slots))
        return self._tree

    def on_store(self, idx: int, step: int) -> None:
        self._stored.append(idx)

    def sample(self, batch_size: int) -> Batch:
        n = len(self.buffer)
        if n == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        tree = self.tree
        total = tree.total()
        if total <= 0.0:
            raise DegeneratePriorityError("total priority mass is zero")
        beta = beta_at(self.beta0, self.beta_anneal_steps, self.sample_calls)
        self.sample_calls += 1

        values = _stratified_values(batch_size, total, self.rng)
        indices = tree.find(values)
        # safety checks: a draw must land on a live slot with mass
        if np.maximum.reduce(indices, initial=0) >= n:
            raise DegeneratePriorityError(f"a draw landed past the {n} live slots")
        masses = tree.leaf_masses()[indices]
        if not np.minimum.reduce(masses, initial=math.inf) > 0.0:
            raise DegeneratePriorityError("a draw landed on a slot without priority mass")
        weights = _is_weights(n, masses / total, tree.min_mass() / total, beta)
        return self.buffer.gather(indices, is_weights=weights)

    def update_priorities(self, indices, td_errors, step: int) -> None:
        """Write the batch's TD errors, then the leaves of the slots written, from the column.

        A slot that repeats gets its last write, the value the column holds.
        """
        ok = self.buffer.update_td_errors(indices, td_errors)
        written = np.asarray(indices, dtype=np.int64)[ok]
        self.tree.set(written, self._masses(written))


class PerRankSampler(UniformSampler):
    """Power-law sampling over TD-error ranks, re-sorted periodically.

    Ranks come from sorting live slots by |TD| descending, ties broken by
    older insertion first. The sort refreshes every
    ``refresh_interval`` stores (and on first use); transitions stored
    since the last sort are unreachable until the next one, which is the
    usual cost of amortizing the sort.
    """

    def __init__(self, buffer: ReplayBuffer, rng: np.random.Generator, *, alpha: float = 0.6,
                 beta0: float = 0.4, beta_anneal_steps: int = 0, refresh_interval: int = 1000):
        super().__init__(buffer, rng)
        self.alpha, self.beta0, self.beta_anneal_steps = alpha, beta0, beta_anneal_steps
        self.refresh_interval = refresh_interval
        self.sample_calls = 0
        self._sorted_slots = np.zeros(0, dtype=np.int64)
        self._probs = np.zeros(0)
        self._cdf = np.zeros(0)
        self._stores_since_sort = 0

    def on_store(self, idx: int, step: int) -> None:
        self._stores_since_sort += 1

    def _refresh_ranks(self) -> None:
        n = len(self.buffer)
        abs_td = np.abs(self.buffer.td_errors[:n])
        # lexsort: primary key last; descending |TD|, then older first
        self._sorted_slots = np.lexsort((self.buffer.insert_timesteps[:n], -abs_td))
        ranks = np.arange(1, n + 1, dtype=np.float64)
        masses = ranks ** -self.alpha
        self._probs = masses / masses.sum()
        self._cdf = np.cumsum(self._probs)
        self._cdf[-1] = 1.0
        self._stores_since_sort = 0

    def sample(self, batch_size: int) -> Batch:
        if len(self.buffer) == 0:
            raise EmptyBufferError("cannot sample from an empty buffer")
        if len(self._sorted_slots) == 0 or self._stores_since_sort >= self.refresh_interval:
            self._refresh_ranks()
        beta = beta_at(self.beta0, self.beta_anneal_steps, self.sample_calls)
        self.sample_calls += 1

        n = len(self._sorted_slots)
        values = _stratified_values(batch_size, 1.0, self.rng)
        ranks = np.searchsorted(self._cdf, values, side="right")
        ranks = np.minimum(ranks, n - 1)
        indices = self._sorted_slots[ranks]
        weights = _is_weights(n, self._probs[ranks], self._probs[-1], beta)
        return self.buffer.gather(indices, is_weights=weights)
