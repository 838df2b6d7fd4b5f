"""Buffer, sum tree, and sampler tests, including the brute-force oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import replay_opt
from replay_opt.ero import EroPolicy
from replay_opt.errors import (
    ConfigError,
    ContractViolation,
    DegeneratePriorityError,
    EmptyBufferError,
)
from replay_opt.harness import SAMPLER_KINDS, RunConfig, make_sampler
from replay_opt.nn import BLOCK
from replay_opt.replay import (
    MASK_UNDRAWN,
    Batch,
    PerProportionalSampler,
    PerRankSampler,
    ReplayBuffer,
    SubsetSampler,
    SumTree,
    Transition,
    UniformSampler,
    beta_at,
)
from replay_opt.seeding import named_streams


def make_transition(i: int, obs_dim: int = 2, action_dim: int = 1, reward: float | None = None) -> Transition:
    return Transition(
        state=np.full(obs_dim, float(i)),
        action=np.full(action_dim, 0.1 * i),
        reward=float(i) if reward is None else reward,
        next_state=np.full(obs_dim, float(i) + 0.5),
        done=(i % 7 == 0),
        insert_timestep=i + 1,
    )


def reference_update_priorities(sampler, indices, td_errors) -> None:
    """The per-leaf loop that the batched priority write replaced: one-leaf
    writes in array order, through the sampler."""
    ok = sampler.buffer.update_td_errors(indices, td_errors)
    indices = np.asarray(indices, dtype=np.int64)[ok]
    td_errors = np.asarray(td_errors, dtype=np.float64)[ok]
    for idx, td in zip(indices, td_errors):
        sampler.update_priorities(np.array([idx]), np.array([td]), 0)


def reference_find(tree: SumTree, values) -> np.ndarray:
    """The root-to-leaf descent that ``SumTree.find`` replaced: every level
    from the root, three temporaries per level."""
    leaves = (len(tree.nodes) + 1) // 2
    values = np.asarray(values, dtype=np.float64).copy()
    idx = np.zeros(values.shape, dtype=np.int64)
    for _ in range(leaves.bit_length() - 1):
        left = 2 * idx + 1
        left_sum = tree.nodes[left]
        go_right = values >= left_sum
        idx = np.where(go_right, left + 1, left)
        values = np.where(go_right, values - left_sum, values)
    return idx - (leaves - 1)


def rebuilt_nodes(tree: SumTree) -> np.ndarray:
    """``tree.nodes`` rebuilt bottom-up from its leaf masses: each level
    holds the pairwise sums of the level below, in heap order, root first."""
    level = np.zeros((len(tree.nodes) + 1) // 2)
    level[: tree.capacity] = tree.leaf_masses()
    levels = [level]
    while len(level) > 1:
        level = level[0::2] + level[1::2]
        levels.append(level)
    return np.concatenate(levels[::-1])


class WalkTree:
    """One-leaf writes, kept as the oracle for ``SumTree.set``: the leaf
    takes its mass and each ancestor, root-ward, is recomputed as the sum
    of its two children. ``nodes`` has ``SumTree.nodes``' heap layout."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.leaves = 1
        while self.leaves < capacity:
            self.leaves *= 2
        self.heap = np.zeros(2 * self.leaves)
        self.nodes = self.heap[1:]

    def set(self, idx: int, mass: float) -> None:
        node = idx + self.leaves
        self.heap[node] = mass
        while node > 1:
            node >>= 1
            self.heap[node] = self.heap[2 * node] + self.heap[2 * node + 1]

    def leaf_masses(self) -> np.ndarray:
        return self.heap[self.leaves : self.leaves + self.capacity]

    def min_mass(self) -> float:
        masses = self.leaf_masses()
        return float(masses[masses > 0].min()) if (masses > 0).any() else math.inf


class WalkSampler:
    """Proportional PER with every store walking its leaf into the tree at
    once (with numpy's scalar ``**`` on the TD the buffer seeded), on a
    buffer of its own: the oracle for the sampler's queued store writes."""

    def __init__(self, capacity: int, alpha: float, epsilon: float, seed: int):
        self.buffer = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        self.alpha, self.epsilon = alpha, epsilon
        self.tree = WalkTree(capacity)
        self.rng = np.random.default_rng(seed)

    def store(self, transition: Transition) -> None:
        idx = self.buffer.store(transition)
        self.tree.set(idx, (abs(self.buffer.td_errors[idx]) + self.epsilon) ** self.alpha)

    def update_priorities(self, indices, td_errors) -> None:
        ok = self.buffer.update_td_errors(indices, td_errors)
        for idx, td in zip(indices[ok], td_errors[ok]):
            self.tree.set(idx, math.pow(abs(td) + self.epsilon, self.alpha))

    def sample(self, batch_size: int) -> np.ndarray | None:
        """The indices a draw returns, or None where it must raise ``DegeneratePriorityError``."""
        total = self.tree.heap[1]
        if total <= 0.0:
            return None
        values = (np.arange(batch_size) + self.rng.random(batch_size)) / batch_size * total
        indices = reference_find(self.tree, values)
        if indices.max() >= len(self.buffer) or not (self.tree.leaf_masses()[indices] > 0).all():
            return None
        return indices


def filled_buffer(n: int, capacity: int = 64, **kwargs) -> ReplayBuffer:
    buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1, **kwargs)
    for i in range(n):
        buf.store(make_transition(i))
    return buf


class TestRingStorage:
    def test_first_store_lands_at_zero(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        assert buf.store(make_transition(0)) == 0
        assert len(buf) == 1

    def test_fifth_store_overwrites_oldest(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        for i in range(5):
            idx = buf.store(make_transition(i))
        assert idx == 0
        assert len(buf) == 4
        # slot 0 now holds transition 4
        assert buf.rewards[0] == 4.0

    def test_live_transitions_are_exactly_the_last_capacity_in_order(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        for i in range(21):
            buf.store(make_transition(i))
        # transition i sits in slot i % capacity
        rewards = [float(buf.rewards[i % 8]) for i in range(13, 21)]
        assert rewards == [float(i) for i in range(13, 21)]

    def test_fresh_columns_are_zeroed_writable_and_separate(self):
        buf = ReplayBuffer(3000, obs_dim=2, action_dim=1)
        names = ("states", "actions", "rewards", "next_states", "dones", "insert_timesteps",
                 "td_errors")
        columns = [getattr(buf, name) for name in names]
        for col in columns:
            assert len(col) == 3000 and col.flags.writeable and not col.any()
        for i, a in enumerate(columns):
            assert not any(np.shares_memory(a, b) for b in columns[i + 1 :])
        buf.store(make_transition(5))
        assert buf.rewards[0] == 5.0 and not buf.rewards[1:].any()

    def test_dim_mismatch_rejected(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        bad = make_transition(0, obs_dim=3)
        with pytest.raises(ContractViolation):
            buf.store(bad)

    def test_td_and_priority_init_track_live_maximum(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        sampler = PerProportionalSampler(buf, np.random.default_rng(0), alpha=0.6)
        sampler.on_store(buf.store(make_transition(0)), 0)
        assert buf.td_errors[0] == 1.0
        assert sampler.tree.leaf_masses()[0] == math.pow(1.0 + 0.01, 0.6)
        sampler.update_priorities(np.array([0]), np.array([-3.0]), 0)
        idx = buf.store(make_transition(1))
        sampler.on_store(idx, 0)
        assert buf.td_errors[idx] == 3.0
        masses = sampler.tree.leaf_masses()
        assert masses[idx] == masses[0] == math.pow(3.0 + 0.01, 0.6)


class TestRingEviction:
    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 6), data=st.data())
    def test_live_slots_match_a_deque_model(self, capacity, data):
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        model: deque[Transition] = deque(maxlen=capacity)
        value = st.floats(-1e6, 1e6, allow_nan=False)
        for count in range(1, data.draw(st.integers(0, 3 * capacity + 2)) + 1):
            transition = Transition(
                state=np.array(data.draw(st.lists(value, min_size=2, max_size=2))),
                action=np.array([data.draw(value)]),
                reward=data.draw(value),
                next_state=np.array(data.draw(st.lists(value, min_size=2, max_size=2))),
                done=data.draw(st.booleans()),
                insert_timestep=data.draw(st.integers(0, 10**9)),
            )
            assert buf.store(transition) == (count - 1) % capacity
            model.append(transition)
            # the k-th oldest live transition sits in slot (stores - live + k) mod capacity
            slots = [(count - len(model) + k) % capacity for k in range(len(model))]
            assert len(buf) == len(model)
            assert buf.states[slots].tolist() == [t.state.tolist() for t in model]
            assert buf.actions[slots].tolist() == [t.action.tolist() for t in model]
            assert buf.rewards[slots].tolist() == [t.reward for t in model]
            assert buf.next_states[slots].tolist() == [t.next_state.tolist() for t in model]
            assert buf.dones[slots].tolist() == [t.done for t in model]
            assert buf.insert_timesteps[slots].tolist() == [t.insert_timestep for t in model]


class TestUniformSampler:
    def test_single_slot_buffer(self):
        buf = filled_buffer(1)
        sampler = UniformSampler(buf, np.random.default_rng(0))
        batch = sampler.sample(64)
        assert np.all(batch.indices == 0)
        assert len(batch) == 64

    def test_empty_buffer_raises(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        with pytest.raises(EmptyBufferError):
            UniformSampler(buf, np.random.default_rng(0)).sample(4)

    def test_frequencies_within_binomial_bound(self):
        buf = filled_buffer(1000, capacity=1000)
        sampler = UniformSampler(buf, np.random.default_rng(123))
        draws = 1_000_000
        counts = np.bincount(sampler.sample(draws).indices, minlength=1000)
        expected = draws / 1000
        sigma = np.sqrt(draws * (1 / 1000) * (1 - 1 / 1000))
        assert np.all(np.abs(counts - expected) <= 5 * sigma)

    def test_fixed_seed_reproducible(self):
        buf = filled_buffer(50)
        a = UniformSampler(buf, np.random.default_rng(7)).sample(32).indices
        b = UniformSampler(buf, np.random.default_rng(7)).sample(32).indices
        assert np.array_equal(a, b)


class TestSumTree:
    def test_fresh_heap_is_zeroed_writable_and_separate(self):
        trees = [SumTree(100_000), SumTree(100_000)]
        for tree in trees:
            assert len(tree.nodes) == 2 * 131072 - 1 and tree.nodes.flags.writeable
            assert not tree.nodes.any() and tree.total() == 0.0
        assert not np.shares_memory(trees[0].nodes, trees[1].nodes)
        trees[0].set(np.array([5]), np.array([2.0]))
        assert trees[0].total() == 2.0 and trees[1].total() == 0.0 and not trees[1].nodes.any()

    def test_point_mass(self):
        tree = SumTree(4)
        tree.set(np.array([0]), np.array([1.0]))
        idx = tree.find(np.random.default_rng(0).random(1000))
        assert np.all(idx == 0)

    def test_internal_consistency_after_random_updates(self):
        rng = np.random.default_rng(42)
        tree = SumTree(37)  # deliberately not a power of two
        ref = np.zeros(37)
        for _ in range(100):
            indices = rng.integers(0, 37, size=100)
            masses = rng.random(100) * 10
            tree.set(indices, masses)
            for i, v in zip(indices, masses):
                ref[i] = v
        assert np.array_equal(tree.leaf_masses(), ref)
        # brute-force subtree sums
        nodes = tree.nodes
        for node in range(len(nodes) - 1, 0, -1):
            parent = (node - 1) // 2
            left, right = 2 * parent + 1, 2 * parent + 2
            expected = nodes[left] + (nodes[right] if right < len(nodes) else 0.0)
            assert abs(nodes[parent] - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_descent_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(3)
        masses = rng.random(100)
        masses[rng.choice(100, size=20, replace=False)] = 0.0
        tree = SumTree(100)
        tree.set(np.arange(100), masses)
        values = rng.random(50_000) * tree.total()
        via_tree = tree.find(values)
        via_prefix = np.searchsorted(np.cumsum(masses), values, side="right")
        assert np.array_equal(via_tree, via_prefix)
        assert np.all(masses[via_tree] > 0)

    def test_negative_mass_rejected(self):
        tree = SumTree(4)
        with pytest.raises(ContractViolation):
            tree.set(np.array([0]), np.array([-1.0]))

    @pytest.mark.parametrize(
        "indices, masses",
        [
            ([0, 1, 2], [1.0, -1.0, 2.0]),
            ([0, 1, 2], [1.0, np.nan, 2.0]),
            ([0, 1, 2], [1.0, np.inf, 2.0]),
            ([0, 5, 2], [1.0, 1.0, 2.0]),
            ([0, -1, 2], [1.0, 1.0, 2.0]),
            ([0, 1], [1.0, 1.0, 2.0]),
            (0, 1.0),  # one leaf is a length-1 array, not a scalar
        ],
    )
    def test_bad_array_write_rejected_before_writing(self, indices, masses):
        tree = SumTree(5)
        tree.set(np.arange(5), np.arange(1.0, 6.0))
        before = tree.nodes.copy()
        with pytest.raises(ContractViolation):
            tree.set(np.array(indices), np.array(masses))
        assert np.array_equal(tree.nodes, before)

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 40),
        batches=st.lists(
            st.lists(
                # 40 indices folded onto at most 40 leaves: repeats are common
                st.tuples(st.integers(0, 39), st.one_of(st.just(0.0), st.floats(1e-300, 1e6))),
                max_size=16,
            ),
            max_size=12,
        ),
    )
    def test_every_node_is_the_exact_sum_of_its_children(self, capacity, batches):
        tree = SumTree(capacity)
        for batch in batches:
            indices = np.array([idx % capacity for idx, _ in batch], dtype=np.int64)
            tree.set(indices, np.array([mass for _, mass in batch], dtype=np.float64))
            assert tree.nodes.tobytes() == rebuilt_nodes(tree).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 40),
        writes=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 39), st.integers(0, 12)),
                st.lists(st.tuples(st.integers(0, 39), st.integers(0, 12)), max_size=12),
            ),
            max_size=25,
        ),
    )
    def test_interleaved_scalar_and_array_writes(self, capacity, writes):
        # quarter-integer masses keep every sum exact, so the descent must
        # agree with the prefix-sum oracle at every value, boundaries included
        tree, reference = SumTree(capacity), WalkTree(capacity)
        for write in writes:
            if isinstance(write, tuple):
                idx, mass = write[0] % capacity, write[1] / 4
                tree.set(np.array([idx]), np.array([mass]))
                reference.set(idx, mass)
            else:
                indices = np.array([i % capacity for i, _ in write], dtype=np.int64)
                masses = np.array([m / 4 for _, m in write])
                tree.set(indices, masses)
                for idx, mass in zip(indices, masses):
                    reference.set(int(idx), float(mass))
            assert tree.nodes.tobytes() == reference.nodes.tobytes()
        leaves = tree.leaf_masses()
        if tree.total() > 0:
            values = np.concatenate([np.arange(4 * int(tree.total())) / 4, [tree.total() / 3]])
            via_prefix = np.searchsorted(np.cumsum(leaves), values, side="right")
            assert np.array_equal(tree.find(values), via_prefix)


class TestPerProportional:
    def sampler_with_priorities(self, priorities, alpha=1.0, beta0=1.0, seed=0):
        buf = filled_buffer(len(priorities), capacity=len(priorities))
        s = PerProportionalSampler(buf, np.random.default_rng(seed), alpha=alpha, beta0=beta0, epsilon=0.0)
        # epsilon is 0, so each priority is its TD magnitude
        s.update_priorities(np.arange(len(priorities)), np.array(priorities, dtype=np.float64), 0)
        return s

    def test_store_starts_at_max_live_priority_evicted_slot_included(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=0.6, epsilon=0.0)
        for i in range(4):
            s.on_store(buf.store(make_transition(i)), 0)
        s.update_priorities(np.arange(4), np.array([5.0, 1.0, 2.0, 3.0]), 0)
        idx = buf.store(make_transition(4))  # evicts slot 0, the largest priority
        s.on_store(idx, 0)
        assert idx == 0 and buf.td_errors[0] == 5.0
        assert s.tree.leaf_masses()[0] == 5.0**0.6

    def test_point_mass_always_sampled(self):
        s = self.sampler_with_priorities([1.0, 0.0, 0.0, 0.0])
        batch = s.sample(256)
        assert np.all(batch.indices == 0)

    def test_two_to_one_frequencies(self):
        s = self.sampler_with_priorities([1.0, 3.0], seed=11)
        counts = np.zeros(2)
        draws = 100_000
        for _ in range(draws // 100):
            batch = s.sample(100)
            counts += np.bincount(batch.indices, minlength=2)
        freqs = counts / draws
        assert abs(freqs[0] - 0.25) / 0.25 < 0.02
        assert abs(freqs[1] - 0.75) / 0.75 < 0.02

    def test_symmetric_weights_are_one(self):
        s = self.sampler_with_priorities([2.0, 2.0], beta0=1.0)
        batch = s.sample(16)
        assert np.allclose(batch.is_weights, 1.0)

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(5)
        s = self.sampler_with_priorities(list(rng.random(64) + 0.01), alpha=0.6, beta0=0.4)
        for _ in range(20):
            w = s.sample(64).is_weights
            assert np.all(w > 0) and np.all(w <= 1.0 + 1e-12)

    @pytest.mark.parametrize("tds", [[0.1, 0.2], [0.1, 0.2, 0.3]])
    def test_masses_written_back_to_zero_are_degenerate(self, tds):
        # at epsilon 0 every leaf can return to zero mass, and the root with it
        n = len(tds)
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), epsilon=0.0, alpha=1.0)
        for i in range(n):
            s.on_store(buf.store(make_transition(i)), 0)
        s.update_priorities(np.arange(n), np.array(tds), 0)
        s.update_priorities(np.arange(n), np.zeros(n), 0)
        assert s.tree.total() == 0.0 and not s.tree.leaf_masses().any()
        with pytest.raises(DegeneratePriorityError, match="total priority mass is zero"):
            s.sample(4)

    @pytest.mark.parametrize("first", [[0.2, 0.9, 0.4], [0.3, 0.7, 0.9]])
    def test_tiny_mass_left_after_heavier_writes_is_drawn(self, first):
        # slot 0 keeps 1e-180 of mass and the others none; the root holds
        # exactly that, with no residue of the heavier first writes
        buf = ReplayBuffer(3, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=0.6, epsilon=0.0)
        for i in range(3):
            s.on_store(buf.store(make_transition(i)), 0)
        s.update_priorities([0, 1, 2], first, 0)
        s.update_priorities([0, 1, 2], [1e-300, 0.0, 0.0], 0)
        assert s.tree.total() == s.tree.leaf_masses()[0] > 0.0
        batch = s.sample(4)
        assert np.array_equal(batch.indices, [0, 0, 0, 0])
        assert np.all(np.isfinite(batch.is_weights))

    def test_zero_mass_degenerate(self):
        buf = filled_buffer(3)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=1.0)
        # leaves never set: tree total is zero
        with pytest.raises(DegeneratePriorityError):
            s.sample(4)

    def test_update_priorities_exact_leaf_and_root_delta(self):
        s = self.sampler_with_priorities([1.0, 1.0, 1.0, 1.0])
        s.epsilon = 0.01
        root_before = s.tree.total()
        s.update_priorities(np.array([3]), np.array([0.0]), 0)
        assert s.tree.leaf_masses()[3] == pytest.approx(0.01)
        assert s.tree.total() == pytest.approx(root_before - 1.0 + 0.01)

    def test_empty_update_is_noop(self):
        s = self.sampler_with_priorities([1.0, 2.0])
        before = s.tree.leaf_masses().copy()
        s.update_priorities(np.array([], dtype=np.int64), np.array([]), 0)
        assert np.array_equal(s.tree.leaf_masses(), before)

    def test_beta_annealing_reaches_one(self):
        assert beta_at(0.4, 100, 0) == 0.4
        assert beta_at(0.4, 100, 50) == pytest.approx(0.7)
        assert beta_at(0.4, 100, 100) == 1.0
        assert beta_at(0.4, 100, 1000) == 1.0
        assert beta_at(0.4, 0, 1000) == 0.4  # no annealing

    def test_new_transition_gets_max_priority_leaf(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=1.0, epsilon=0.0)
        s.on_store(buf.store(make_transition(0)), 0)
        s.update_priorities(np.array([0]), np.array([2.5]), 0)
        idx = buf.store(make_transition(1))
        s.on_store(idx, 0)
        assert s.tree.leaf_masses()[idx] == pytest.approx(2.5)


class TestBatchedPriorityWrite:
    """``update_priorities`` against the per-leaf loop, bit for bit."""

    def twin_samplers(self, capacity=256, stores=300):
        twins = []
        for _ in range(2):
            buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
            s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=0.6, epsilon=0.01)
            for i in range(stores):
                s.on_store(buf.store(make_transition(i)), 0)
            twins.append(s)
        return twins

    def assert_same_state(self, a, b):
        assert np.array_equal(a.tree.nodes, b.tree.nodes)
        assert np.array_equal(a.buffer.td_errors, b.buffer.td_errors)

    def test_random_batches_with_repeats_and_stale_slots(self):
        batched, reference = self.twin_samplers()
        rng = np.random.default_rng(13)
        step = 300
        for round_ in range(150):
            size = 0 if round_ % 25 == 0 else 64
            high = 16 if round_ % 3 == 0 else batched.buffer.size
            indices = rng.integers(0, high, size=size)
            td = rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)
            # stores between drawing the slots and writing them back evict some
            # of them; the write lands on their new occupants
            for _ in range(int(rng.integers(0, 20))):
                for s in (batched, reference):
                    s.on_store(s.buffer.store(make_transition(step)), step)
                step += 1
            batched.update_priorities(indices, td, 0)
            reference_update_priorities(reference, indices, td)
            self.assert_same_state(batched, reference)

    def test_repeated_leaf_last_write_wins(self):
        batched, reference = self.twin_samplers(capacity=8, stores=8)
        indices = np.array([3, 5, 3, 3, 5])
        td = np.array([1.0, -2.0, 0.5, 4.0, 0.0])
        batched.update_priorities(indices, td, 0)
        reference_update_priorities(reference, indices, td)
        self.assert_same_state(batched, reference)
        assert batched.tree.leaf_masses()[3] == math.pow(4.0 + 0.01, 0.6)

    def test_non_finite_td_leaves_tree_untouched(self):
        s, _ = self.twin_samplers(capacity=8, stores=8)
        before = s.tree.nodes.copy()
        with pytest.raises(ContractViolation):
            s.update_priorities(np.array([1, 2]), np.array([1.0, np.nan]), 0)
        assert np.array_equal(s.tree.nodes, before)


def scanned_extrema(sampler: PerProportionalSampler) -> tuple[float, float]:
    """Max |TD| and min positive mass over the live slots, by full scans."""
    n = len(sampler.buffer)
    masses = sampler.tree.leaf_masses()[:n]
    positive = masses[masses > 0]
    return (
        float(np.max(np.abs(sampler.buffer.td_errors[:n]))),
        float(positive.min()) if len(positive) else np.inf,
    )


class TestCachedExtrema:
    """The cached max |TD| and min mass equal full scans after every operation."""

    def assert_caches_exact(self, sampler):
        td_max, min_mass = scanned_extrema(sampler)
        # a cache may be unset (rescanned on next use); a set one is exact
        for cached, scanned in (
            (sampler.buffer._td_max, td_max),
            (sampler.tree._min_mass, min_mass),
        ):
            assert cached is None or cached == scanned
        assert sampler.tree.min_mass() == min_mass

    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(1, 16),
        epsilon=st.sampled_from([0.0, 0.01]),
        alpha=st.sampled_from([1.0, 0.6]),
        data=st.data(),
    )
    def test_caches_match_full_scans(self, capacity, epsilon, alpha, data):
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=alpha, epsilon=epsilon)
        td = st.one_of(st.just(0.0), st.sampled_from([0.5, -2.0]), st.floats(-1e3, 1e3, allow_nan=False))
        step = 0
        for _ in range(data.draw(st.integers(1, 40))):
            if len(buf) == 0 or data.draw(st.booleans()):
                for _ in range(data.draw(st.integers(1, capacity + 1))):
                    step += 1
                    s.on_store(buf.store(make_transition(step)), step)
                    self.assert_caches_exact(s)
                continue
            # repeated slots, and slots evicted since earlier writes
            slots = np.array(data.draw(st.lists(st.integers(0, len(buf) - 1), min_size=0, max_size=8)),
                             dtype=np.int64)
            tds = np.array([data.draw(td) for _ in slots], dtype=np.float64)
            s.update_priorities(slots, tds, 0)
            self.assert_caches_exact(s)
            # the next store seeds the slot with the scanned maximum, so its
            # leaf gets the largest live mass
            td_max, _ = scanned_extrema(s)
            step += 1
            idx = buf.store(make_transition(step))
            s.on_store(idx, 0)
            masses = s.tree.leaf_masses()
            assert buf.td_errors[idx] == td_max
            assert masses[idx] == masses[: len(buf)].max() == math.pow(td_max + epsilon, alpha)
            self.assert_caches_exact(s)


class TestTdMaxCache:
    """The buffer's cached max |TD| on its own: None or the scanned maximum after every operation."""

    @staticmethod
    def scanned_td_max(buf: ReplayBuffer) -> float:
        return float(np.max(np.abs(buf.td_errors[: buf.size])))

    def assert_cache_exact(self, buf: ReplayBuffer) -> None:
        cached = buf._td_max
        if buf.size and cached is not None:
            scanned = self.scanned_td_max(buf)
            assert cached == scanned or (math.isnan(cached) and math.isnan(scanned))

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8), data=st.data())
    def test_cache_matches_full_scan_with_nan_inf_and_stale_writes(self, capacity, data):
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        special = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0])
        td = st.one_of(special, st.floats(-1e3, 1e3, allow_nan=False))
        step = 0
        for _ in range(data.draw(st.integers(1, 30))):
            if data.draw(st.booleans()):
                for _ in range(data.draw(st.integers(1, capacity + 1))):
                    # the store seeds its slot with the scanned maximum (1 when empty)
                    seed = self.scanned_td_max(buf) if buf.size else 1.0
                    step += 1
                    idx = buf.store(make_transition(step))
                    assert buf.td_errors[idx] == seed or (math.isnan(seed) and math.isnan(buf.td_errors[idx]))
                    self.assert_cache_exact(buf)
                continue
            # empty batches, repeated slots, slots past the live ones, and
            # slots evicted since earlier writes; only the live ones are written
            slots = np.array(data.draw(st.lists(st.integers(0, capacity - 1), max_size=6)), dtype=np.int64)
            tds = np.array([data.draw(td) for _ in slots], dtype=np.float64)
            ok = buf.update_td_errors(slots, tds)
            assert np.array_equal(ok, slots < buf.size)
            self.assert_cache_exact(buf)


class TestQueuedStores:
    """Stores queue their slots and a tree read writes them: the same tree as
    writing each store at once, after every operation."""

    def assert_same_state(self, sampler, oracle, read_tree=True):
        """The TD column and, when ``read_tree``, the tree (reading it writes
        the queued stores)."""
        assert sampler.buffer.td_errors.tobytes() == oracle.buffer.td_errors.tobytes()
        if read_tree:
            tree = sampler.tree
            assert not sampler._stored
            assert tree.nodes.tobytes() == oracle.tree.nodes.tobytes()
            assert tree.min_mass() == oracle.tree.min_mass()

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        epsilon=st.sampled_from([0.0, 0.01]),
        alpha=st.sampled_from([1.0, 0.6]),
        data=st.data(),
    )
    def test_matches_the_walk_oracle(self, capacity, epsilon, alpha, data):
        # no warmup: draws and priority writes may follow the first store, and
        # a run of up to 2 * capacity + 1 stores queues a slot more than once.
        # A store run may stay queued, so that a later update or draw, perhaps
        # after more store runs, is the read that writes it.
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=alpha, epsilon=epsilon)
        oracle = WalkSampler(capacity, alpha, epsilon, seed=0)
        td = st.one_of(st.just(0.0), st.sampled_from([0.5, -2.0]), st.floats(-1e3, 1e3, allow_nan=False))
        step = 0
        for _ in range(data.draw(st.integers(1, 30))):
            op = data.draw(st.sampled_from(["store", "update", "sample"]))
            read_tree = True
            if op == "store" or len(buf) == 0:
                read_tree = data.draw(st.booleans())
                for _ in range(data.draw(st.integers(1, 2 * capacity + 1))):
                    step += 1
                    s.on_store(buf.store(make_transition(step)), step)
                    oracle.store(make_transition(step))
            elif op == "update":
                slots = data.draw(st.lists(st.integers(0, len(buf) - 1), max_size=8))
                slots = np.array(slots, dtype=np.int64)
                tds = np.array([data.draw(td) for _ in slots], dtype=np.float64)
                s.update_priorities(slots, tds, 0)
                oracle.update_priorities(slots, tds)
            elif op == "sample":
                expected = oracle.sample(4)
                if expected is None:
                    with pytest.raises(DegeneratePriorityError):
                        s.sample(4)
                else:
                    assert np.array_equal(s.sample(4).indices, expected)
            self.assert_same_state(s, oracle, read_tree)
        self.assert_same_state(s, oracle)


class TestTreeFromTdColumn:
    """The proportional sampler's tree is a function of the buffer's TD column."""

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        epsilon=st.sampled_from([0.0, 0.01]),
        alpha=st.sampled_from([1.0, 0.6]),
        data=st.data(),
    )
    def test_tree_equals_a_fresh_tree_of_the_column(self, capacity, epsilon, alpha, data):
        # a store run of up to 2 * capacity + 1 evicts and queues a slot more
        # than once before the check reads the tree; an update may name the
        # same slot twice
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, np.random.default_rng(0), alpha=alpha, epsilon=epsilon)
        td = st.one_of(st.just(0.0), st.sampled_from([0.5, -2.0]), st.floats(-1e3, 1e3, allow_nan=False))
        step = 0
        for _ in range(data.draw(st.integers(1, 30))):
            op = data.draw(st.sampled_from(["store", "update", "sample"]))
            if op == "store" or len(buf) == 0:
                for _ in range(data.draw(st.integers(1, 2 * capacity + 1))):
                    step += 1
                    s.on_store(buf.store(make_transition(step)), step)
            elif op == "update":
                slots = np.array(data.draw(st.lists(st.integers(0, len(buf) - 1), max_size=8)), dtype=np.int64)
                tds = np.array([data.draw(td) for _ in slots], dtype=np.float64)
                s.update_priorities(slots, tds, step)
            elif op == "sample":
                try:
                    s.sample(4)
                except DegeneratePriorityError:
                    assert s.tree.total() == 0.0
            fresh = SumTree(capacity)
            priorities = np.abs(buf.td_errors[: len(buf)]) + epsilon
            fresh.set(np.arange(len(buf)), np.array([math.pow(p, alpha) for p in priorities.tolist()]))
            assert s.tree.nodes.tobytes() == fresh.nodes.tobytes()
            assert s.tree.min_mass() == fresh.min_mass()


class TestSumTreeFind:
    """``find`` against the full descent from the root, bit for bit."""

    @pytest.mark.parametrize("fill", [1, 2, 1023, 1024, 1025, 3000])
    def test_matches_the_full_descent_at_each_fill(self, fill):
        tree = SumTree(3000)
        rng = np.random.default_rng(fill)
        # three passes of batched writes, so leaves are rewritten
        for _ in range(3):
            for start in range(0, fill, 64):
                idx = rng.integers(start, min(start + 64, fill), size=64)
                tree.set(idx, rng.random(64) * 10.0 ** rng.uniform(-3, 3))
        total = tree.total()
        values = np.concatenate([
            rng.random(3000) * total,
            [0.0, np.nextafter(total, 0.0)],
            np.cumsum(tree.leaf_masses()[:fill])[:-1],  # leaf boundaries
        ])
        values = values[values < total]
        assert np.array_equal(tree.find(values), reference_find(tree, values))

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(1, 40),
        writes=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 8)), min_size=1, max_size=60),
        fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
    )
    def test_matches_the_full_descent_after_any_writes(self, capacity, writes, fractions):
        tree = SumTree(capacity)
        tree.set(np.array([idx % capacity for idx, _ in writes]), np.array([mass / 8 for _, mass in writes]))
        total = tree.total()
        if total <= 0.0:
            return
        values = np.array([f * total for f in fractions] + [np.nextafter(total, 0.0)])
        assert np.array_equal(tree.find(values), reference_find(tree, values))


class TestPerRank:
    def test_two_transition_probabilities(self):
        buf = filled_buffer(2)
        buf.update_td_errors(np.arange(2), np.array([5.0, 1.0]))
        s = PerRankSampler(buf, np.random.default_rng(0), alpha=1.0)
        s._refresh_ranks()
        assert np.array_equal(s._sorted_slots, [0, 1])
        assert np.allclose(s._probs, [2 / 3, 1 / 3])

    def test_ties_broken_by_older_insertion(self):
        buf = filled_buffer(4)
        buf.update_td_errors(np.arange(4), np.ones(4))
        s = PerRankSampler(buf, np.random.default_rng(0), alpha=0.7)
        s._refresh_ranks()
        assert np.array_equal(s._sorted_slots, [0, 1, 2, 3])

    def test_top_rank_frequency_matches_analytic_power_law(self):
        n, alpha = 2000, 0.7
        buf = filled_buffer(n, capacity=n)
        rng = np.random.default_rng(10)
        buf.update_td_errors(np.arange(n), rng.random(n))
        s = PerRankSampler(buf, np.random.default_rng(20), alpha=alpha)
        draws = 100_000
        counts = np.zeros(n)
        for _ in range(draws // 100):
            counts += np.bincount(s.sample(100).indices, minlength=n)
        # independent normalization of the power law
        z = np.sum(np.arange(1, n + 1, dtype=float) ** -alpha)
        p1 = 1.0 / z
        top_slot = s._sorted_slots[0]
        assert abs(counts[top_slot] / draws - p1) / p1 < 0.05

    def test_rank_refresh_interval_respected(self):
        buf = filled_buffer(10)
        s = PerRankSampler(buf, np.random.default_rng(0), alpha=0.7, refresh_interval=5)
        s.sample(4)
        n_before = len(s._sorted_slots)
        for i in range(3):
            s.on_store(buf.store(make_transition(100 + i)), 0)
        s.sample(4)
        assert len(s._sorted_slots) == n_before  # not yet refreshed
        for i in range(2):
            s.on_store(buf.store(make_transition(200 + i)), 0)
        s.sample(4)
        assert len(s._sorted_slots) == 15

    def test_weights_in_unit_interval(self):
        buf = filled_buffer(100, capacity=128)
        buf.update_td_errors(np.arange(100), np.random.default_rng(1).random(100))
        s = PerRankSampler(buf, np.random.default_rng(2), alpha=0.7, beta0=0.4)
        w = s.sample(64).is_weights
        assert np.all(w > 0) and np.all(w <= 1.0 + 1e-12)


def subset_sampler(buf: ReplayBuffer, seed: int = 0) -> SubsetSampler:
    """The learned sampler over ``buf``, with an eager policy of its own."""
    policy = EroPolicy(init_seed=seed, draw_rng=np.random.default_rng(seed + 1))
    return SubsetSampler(buf, np.random.default_rng(seed), policy)


class TestSubsetSampler:
    def test_full_subset_behaves_uniformly(self):
        buf = filled_buffer(100, capacity=128)
        s = subset_sampler(buf)
        assert len(s.subset_indices()) == 100
        batch = s.sample(1000)
        assert batch.indices.min() >= 0 and batch.indices.max() < 100
        assert len(np.unique(batch.indices)) > 50

    def test_singleton_subset(self):
        buf = filled_buffer(20)
        mask = np.zeros(20, dtype=bool)
        mask[7] = True
        s = subset_sampler(buf)
        s.set_subset_mask(mask)
        assert np.all(s.sample(64).indices == 7)

    def test_empty_subset_falls_back_to_whole_buffer(self):
        buf = filled_buffer(20)
        s = subset_sampler(buf)
        s.set_subset_mask(np.zeros(20, dtype=bool))
        batch = s.sample(64)
        assert len(batch) == 64
        assert buf.subset_fallbacks == 1

    def test_mask_hygiene_after_eviction(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        s = subset_sampler(buf)
        for i in range(4):
            s.on_store(buf.store(make_transition(i)), i + 1)
        s.set_subset_mask(np.array([False, True, False, False]))
        s.on_store(buf.store(make_transition(10)), 11)  # evicts slot 0, whose drawn bit was 0
        assert s.mask_drawn[0] == MASK_UNDRAWN
        assert np.array_equal(s.subset_indices(), [0, 1])
        assert np.array_equal(s.drawn_slots(), [1, 2, 3])

    def test_immediate_join_by_default(self):
        buf = filled_buffer(4)
        s = subset_sampler(buf)
        s.set_subset_mask(np.zeros(4, dtype=bool))
        idx = buf.store(make_transition(9))
        s.on_store(idx, 10)
        assert idx in s.subset_indices()

    def test_mask_written_block_by_block(self):
        s = subset_sampler(filled_buffer(6))
        s.set_subset_mask(np.array([True, False, True, False]))
        assert np.array_equal(s.subset_indices(), [0, 2, 4, 5])  # slots 4 and 5 have no bit yet
        s.set_subset_mask(np.array([False, True]), start=4)
        assert s.mask_drawn[:6].tolist() == [1, 0, 1, 0, 0, 1]
        assert np.array_equal(s.subset_indices(), [0, 2, 5])
        with pytest.raises(ContractViolation, match="at slot 5 does not match size 6"):
            s.set_subset_mask(np.array([True, True]), start=5)
        with pytest.raises(ContractViolation):
            s.set_subset_mask(np.array([True]), start=-1)

    def test_mask_of_the_wrong_length_is_rejected(self):
        s = subset_sampler(filled_buffer(4))
        with pytest.raises(ContractViolation, match="does not match size 4"):
            s.set_subset_mask(np.ones(5, dtype=bool))

    def test_buffer_holds_no_mask_state(self):
        buf = filled_buffer(4)
        for name in ("mask_drawn", "subset_indices", "set_subset_mask", "_subset_cache"):
            assert not hasattr(buf, name)


class OldMembership:
    """The two per-slot columns that once held subset membership, in plain Python.

    ``in_subset`` was set to 1 at store time and overwritten by every mask;
    ``mask`` is the drawn bit or ``MASK_UNDRAWN``.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.in_subset = [False] * capacity
        self.mask = [MASK_UNDRAWN] * capacity
        self.cursor = self.size = 0

    def store(self) -> None:
        self.in_subset[self.cursor] = True
        self.mask[self.cursor] = MASK_UNDRAWN
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def set_mask(self, bits: list[bool]) -> None:
        for i, bit in enumerate(bits):
            self.in_subset[i], self.mask[i] = bit, int(bit)

    def subset(self) -> list[int]:
        return [i for i in range(self.size) if self.in_subset[i]]


class TestMembershipFromMaskBits:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_two_column_model(self, capacity, seed, data):
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
        sampler = subset_sampler(buf, seed)
        model_rng = np.random.default_rng(seed)
        model = OldMembership(capacity)
        fallbacks = 0
        ops = data.draw(st.lists(st.sampled_from(["store", "mask", "sample"]), max_size=40))
        for step, op in enumerate(ops):
            if op == "store":
                sampler.on_store(buf.store(make_transition(step)), step + 1)
                model.store()
            elif op == "mask":
                bits = data.draw(st.lists(st.booleans(), min_size=model.size, max_size=model.size))
                sampler.set_subset_mask(np.array(bits, dtype=bool))
                model.set_mask(bits)
            elif model.size > 0:
                batch = sampler.sample(8)
                subset = model.subset()
                if subset:
                    expected = np.array(subset)[model_rng.integers(0, len(subset), size=8)]
                else:
                    fallbacks += 1
                    expected = model_rng.integers(0, model.size, size=8)
                assert np.array_equal(batch.indices, expected)
            assert sampler.subset_indices().tolist() == model.subset()
            assert sampler.mask_drawn[: buf.size].tolist() == model.mask[: model.size]
            assert buf.subset_fallbacks == fallbacks


class TestMakeSampler:
    def test_all_kinds_constructible(self):
        buf = filled_buffer(4)
        kinds = {
            "uniform": UniformSampler,
            "per_prop": PerProportionalSampler,
            "per_rank": PerRankSampler,
            "ero": SubsetSampler,
        }
        assert tuple(kinds) == SAMPLER_KINDS
        for kind, cls in kinds.items():
            sampler = make_sampler(RunConfig(sampler=kind), buf, named_streams(0))
            assert type(sampler) is cls and sampler.buffer is buf
        with pytest.raises(ConfigError, match="unknown sampler 'heap'"):
            make_sampler(RunConfig(sampler="heap"), buf, named_streams(0))

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_every_kind_runs_the_four_hooks(self, kind):
        buf = ReplayBuffer(16, obs_dim=2, action_dim=1)
        sampler = make_sampler(RunConfig(sampler=kind), buf, named_streams(0))
        columns = []
        for step in range(1, 41):  # 40 stores into 16 slots, so slots are evicted
            sampler.on_store(buf.store(make_transition(step)), step)
            batch = sampler.sample(8)
            assert len(batch) == 8 and batch.indices.max() < len(buf)
            sampler.update_priorities(batch.indices, np.full(8, 0.25 * step), step)
            assert np.all(buf.td_errors[batch.indices] == 0.25 * step)
            if step % 10 == 0:  # an episode end; the replay reward exists from the second on
                columns.append(sampler.on_episode_end(None if step == 10 else 5.0, step))
        if kind != "ero":
            assert columns == [None] * 4
            return
        assert sampler.policy.normalizer.count == 40  # on_store showed the policy every slot
        assert columns[0] == (None, 10, 0)  # no replay reward yet: no draw, all 10 slots in the subset
        for reward, size, fallbacks in columns[1:]:
            assert reward == 5.0  # handed back as the record's column
            assert 0 <= size <= 16 and fallbacks == buf.subset_fallbacks
        assert size == len(sampler.subset_indices()) and len(sampler.drawn_slots()) == 16


# Five cycles of: build a score-net-shaped Mlp and run 3000 rows through it
# (its workspace grows to 512 rows), build a 100k-leaf SumTree and write
# 1,429 leaves, drop both. Prints the process's peak RSS (KiB) after each
# cycle. It reads VmHWM, the peak of this process's own memory: ru_maxrss
# carries the peak of the process that started it across exec, so a child
# of the test runner would report the runner's larger peak throughout.
_RSS_CYCLES = textwrap.dedent(
    """
    import numpy as np
    from replay_opt.nn import mlp_init
    from replay_opt.replay import SumTree

    def peak_kib():
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

    peaks = []
    for cycle in range(5):
        net = mlp_init([3, 64, 64, 1], ["relu", "relu", "sigmoid"], seed=cycle)
        net.forward(np.random.default_rng(cycle).standard_normal((3000, 3)))
        tree = SumTree(100_000)
        tree.set(np.arange(1429), np.ones(1429))
        del net, tree
        peaks.append(peak_kib())
    print(*peaks)
    """
)


def _fresh_interpreter(*args: str) -> str:
    """Stdout of ``python *args`` in a fresh single-BLAS-thread interpreter that imports this tree."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(replay_opt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_dropped_trees_and_workspaces_do_not_ratchet_peak_rss():
    """Later runs in one process reuse memory: the tree and the workspaces
    are mapped, so dropping them returns their pages, and the next ones
    touch only the pages they write."""
    peaks = [int(kib) for kib in _fresh_interpreter("-c", _RSS_CYCLES).split()]
    growth_kib = max(peaks) - peaks[0]
    assert growth_kib < 1024, f"peak RSS grew {growth_kib} KiB after the first cycle: {peaks}"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_eager_rescore_of_a_full_buffer_barely_raises_peak_rss():
    """ERO's rescore runs block by block, so drawing a mask over 100k live
    rows holds no per-row array; what it adds to the peak is the score
    net's block workspace. ``scripts/per_step_cost.py --rescore-peak``
    fills the buffer in place and reads VmHWM around one rescore. At
    ``20 * BLOCK + 1`` rows the last block has ``BLOCK + 1`` rows (a one-row
    tail is folded), and it runs in the workspace too: it adds no more than
    a page or so to what ``20 * BLOCK`` rows add."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "per_step_cost.py"
    growth_kib = {}
    for fill in (100_000, 20 * BLOCK, 20 * BLOCK + 1):
        growth_kib[fill] = int(_fresh_interpreter(str(script), "--rescore-peak", str(fill)))
        assert growth_kib[fill] < 1024, f"one rescore at {fill} rows raised the peak RSS by {growth_kib[fill]} KiB"
    assert growth_kib[20 * BLOCK + 1] <= growth_kib[20 * BLOCK] + 64, growth_kib


# One lazy-ERO store into a 2-slot buffer (it runs the store's code once),
# then one into a 100k-slot buffer; prints the KiB by which the second
# raised the peak RSS (VmHWM, as above).
_LAZY_STORE = textwrap.dedent(
    """
    import numpy as np
    from replay_opt.ero import EroPolicy
    from replay_opt.replay import ReplayBuffer, SubsetSampler, Transition

    def peak_kib():
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

    def lazy_store(capacity):
        buf = ReplayBuffer(capacity, obs_dim=3, action_dim=1)
        policy = EroPolicy(lazy_refresh=True, init_seed=0, draw_rng=1)
        sampler = SubsetSampler(buf, np.random.default_rng(0), policy)
        sampler.on_store(buf.store(Transition(np.zeros(3), np.zeros(1), 0.0, np.zeros(3), False, 1)), 1)
        return buf, sampler

    kept = lazy_store(2)
    before = peak_kib()
    kept = lazy_store(100_000)
    print(peak_kib() - before)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_first_lazy_store_touches_only_the_live_scores():
    """Lazy ERO's score cache is mapped and only its live slots are set at
    first use, so a store into a large, nearly empty buffer does not make
    the whole cache resident."""
    growth_kib = int(_fresh_interpreter("-c", _LAZY_STORE))
    assert growth_kib < 256, f"one lazy store into a 100k-slot buffer raised the peak RSS by {growth_kib} KiB"
