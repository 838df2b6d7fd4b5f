"""Buffer, sum tree, and sampler tests, including the brute-force oracles."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replay_opt.errors import (
    ContractViolation,
    DegeneratePriorityError,
    EmptyBufferError,
)
from replay_opt.replay import (
    MASK_UNDRAWN,
    Batch,
    PerConfig,
    PerProportionalSampler,
    PerRankSampler,
    ReplayBuffer,
    SubsetSampler,
    SumTree,
    Transition,
    UniformSampler,
    load_snapshot,
    make_sampler,
    save_snapshot,
)


def make_transition(i: int, obs_dim: int = 2, action_dim: int = 1, reward: float | None = None) -> Transition:
    return Transition(
        state=np.full(obs_dim, float(i)),
        action=np.full(action_dim, 0.1 * i),
        reward=float(i) if reward is None else reward,
        next_state=np.full(obs_dim, float(i) + 0.5),
        done=(i % 7 == 0),
        insert_timestep=i + 1,
    )


def reference_update_priorities(sampler, indices, td_errors, expected_insert_steps=None) -> None:
    """The per-leaf loop that the batched priority write replaced."""
    ok = sampler.buffer.update_td_errors(indices, td_errors, expected_insert_steps)
    indices = np.asarray(indices, dtype=np.int64)[ok]
    td_errors = np.asarray(td_errors, dtype=np.float64)[ok]
    for idx, td in zip(indices, td_errors):
        raw = abs(float(td)) + sampler.config.epsilon
        sampler.priorities[idx] = raw
        sampler.tree.set(int(idx), raw ** sampler.config.alpha)


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
        rewards = [float(buf.rewards[i]) for i in buf.live_order()]
        assert rewards == [float(i) for i in range(13, 21)]

    def test_fresh_columns_are_zeroed_writable_and_separate(self):
        buf = ReplayBuffer(3000, obs_dim=2, action_dim=1)
        names = ("states", "actions", "rewards", "next_states", "dones", "insert_timesteps",
                 "td_errors")
        sampler = PerProportionalSampler(buf, PerConfig(), np.random.default_rng(0))
        columns = [getattr(buf, name) for name in names] + [sampler.priorities]
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
        sampler = PerProportionalSampler(buf, PerConfig(), np.random.default_rng(0))
        sampler.on_store(buf.store(make_transition(0)))
        assert buf.td_errors[0] == 1.0
        assert sampler.priorities[0] == 1.0
        buf.update_td_errors(np.array([0]), np.array([-3.0]))
        sampler.priorities[0] = 2.5
        idx = buf.store(make_transition(1))
        sampler.on_store(idx)
        assert buf.td_errors[idx] == 3.0
        assert sampler.priorities[idx] == 2.5


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
            assert buf.live_order().tolist() == slots
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
    def test_point_mass(self):
        tree = SumTree(4)
        tree.set(0, 1.0)
        idx = tree.find(np.random.default_rng(0).random(1000))
        assert np.all(idx == 0)

    def test_internal_consistency_after_random_updates(self):
        rng = np.random.default_rng(42)
        tree = SumTree(37)  # deliberately not a power of two
        ref = np.zeros(37)
        for _ in range(10_000):
            i = int(rng.integers(0, 37))
            v = float(rng.random() * 10)
            tree.set(i, v)
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
        for i, m in enumerate(masses):
            tree.set(i, m)
        values = rng.random(50_000) * tree.total()
        via_tree = tree.find(values)
        via_prefix = np.searchsorted(np.cumsum(masses), values, side="right")
        assert np.array_equal(via_tree, via_prefix)
        assert np.all(masses[via_tree] > 0)

    def test_negative_mass_rejected(self):
        tree = SumTree(4)
        with pytest.raises(ContractViolation):
            tree.set(0, -1.0)

    @pytest.mark.parametrize(
        "indices, masses",
        [
            ([0, 1, 2], [1.0, -1.0, 2.0]),
            ([0, 1, 2], [1.0, np.nan, 2.0]),
            ([0, 1, 2], [1.0, np.inf, 2.0]),
            ([0, 5, 2], [1.0, 1.0, 2.0]),
            ([0, -1, 2], [1.0, 1.0, 2.0]),
            ([0, 1], [1.0, 1.0, 2.0]),
        ],
    )
    def test_bad_array_write_rejected_before_writing(self, indices, masses):
        tree = SumTree(5)
        tree.set(np.arange(5), np.arange(1.0, 6.0))
        before = tree.nodes.copy()
        with pytest.raises(ContractViolation):
            tree.set(np.array(indices), np.array(masses))
        assert np.array_equal(tree.nodes, before)

    def test_array_write_equals_scalar_writes_in_order(self):
        rng = np.random.default_rng(8)
        batched, scalar = SumTree(1000), SumTree(1000)
        for _ in range(200):
            # a narrow index range makes repeated leaves common
            high = 40 if rng.random() < 0.5 else 1000
            indices = rng.integers(0, high, size=int(rng.integers(0, 80)))
            masses = rng.random(len(indices)) * 10.0 ** rng.uniform(-6, 6)
            batched.set(indices, masses)
            for idx, mass in zip(indices, masses):
                scalar.set(int(idx), float(mass))
            assert np.array_equal(batched.nodes, scalar.nodes)

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
        tree, reference = SumTree(capacity), SumTree(capacity)
        for write in writes:
            if isinstance(write, tuple):
                idx, mass = write[0] % capacity, write[1] / 4
                tree.set(idx, mass)
                reference.set(idx, mass)
            else:
                indices = np.array([i % capacity for i, _ in write], dtype=np.int64)
                masses = np.array([m / 4 for _, m in write])
                tree.set(indices, masses)
                for idx, mass in zip(indices, masses):
                    reference.set(int(idx), float(mass))
            assert np.array_equal(tree.nodes, reference.nodes)
        leaves = tree.leaf_masses()
        if tree.total() > 0:
            values = np.concatenate([np.arange(4 * int(tree.total())) / 4, [tree.total() / 3]])
            via_prefix = np.searchsorted(np.cumsum(leaves), values, side="right")
            assert np.array_equal(tree.find(values), via_prefix)


class TestPerProportional:
    def sampler_with_priorities(self, priorities, alpha=1.0, beta0=1.0, seed=0):
        buf = filled_buffer(len(priorities), capacity=len(priorities))
        cfg = PerConfig(alpha=alpha, beta0=beta0, epsilon=0.0)
        s = PerProportionalSampler(buf, cfg, np.random.default_rng(seed))
        for i, p in enumerate(priorities):
            s.priorities[i] = p
            s.tree.set(i, p**alpha)
        return s

    def test_store_starts_at_max_live_priority_evicted_slot_included(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1)
        s = PerProportionalSampler(buf, PerConfig(alpha=0.6, epsilon=0.0), np.random.default_rng(0))
        for i in range(4):
            s.on_store(buf.store(make_transition(i)))
        s.update_priorities(np.arange(4), np.array([5.0, 1.0, 2.0, 3.0]))
        idx = buf.store(make_transition(4))  # evicts slot 0, the largest priority
        s.on_store(idx)
        assert idx == 0 and s.priorities[0] == 5.0
        assert s.tree.get(0) == 5.0**0.6

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

    def test_zero_mass_degenerate(self):
        buf = filled_buffer(3)
        cfg = PerConfig(alpha=1.0)
        s = PerProportionalSampler(buf, cfg, np.random.default_rng(0))
        # leaves never set: tree total is zero
        with pytest.raises(DegeneratePriorityError):
            s.sample(4)

    def test_update_priorities_exact_leaf_and_root_delta(self):
        s = self.sampler_with_priorities([1.0, 1.0, 1.0, 1.0])
        s.config = PerConfig(alpha=1.0, epsilon=0.01)
        root_before = s.tree.total()
        s.update_priorities(np.array([3]), np.array([0.0]))
        assert s.tree.get(3) == pytest.approx(0.01)
        assert s.tree.total() == pytest.approx(root_before - 1.0 + 0.01)

    def test_empty_update_is_noop(self):
        s = self.sampler_with_priorities([1.0, 2.0])
        before = s.tree.leaf_masses().copy()
        s.update_priorities(np.array([], dtype=np.int64), np.array([]))
        assert np.array_equal(s.tree.leaf_masses(), before)

    def test_stale_updates_skipped(self):
        buf = ReplayBuffer(2, obs_dim=2, action_dim=1)
        cfg = PerConfig(alpha=1.0)
        s = PerProportionalSampler(buf, cfg, np.random.default_rng(0))
        s.on_store(buf.store(make_transition(0)))
        s.on_store(buf.store(make_transition(1)))
        expected = buf.insert_timesteps[[0]].copy()
        s.on_store(buf.store(make_transition(2)))  # evicts slot 0
        before = buf.td_errors[0]
        s.update_priorities(np.array([0]), np.array([9.0]), expected)
        assert buf.td_errors[0] == before
        assert buf.stale_updates == 1

    def test_beta_annealing_reaches_one(self):
        cfg = PerConfig(beta0=0.4, beta_anneal_steps=100)
        assert cfg.beta_at(0) == 0.4
        assert cfg.beta_at(50) == pytest.approx(0.7)
        assert cfg.beta_at(100) == 1.0
        assert cfg.beta_at(1000) == 1.0

    def test_new_transition_gets_max_priority_leaf(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1)
        cfg = PerConfig(alpha=1.0, epsilon=0.0)
        s = PerProportionalSampler(buf, cfg, np.random.default_rng(0))
        s.on_store(buf.store(make_transition(0)))
        s.update_priorities(np.array([0]), np.array([2.5]))
        idx = buf.store(make_transition(1))
        s.on_store(idx)
        assert s.tree.get(idx) == pytest.approx(2.5)


class TestBatchedPriorityWrite:
    """``update_priorities`` against the per-leaf loop, bit for bit."""

    def twin_samplers(self, capacity=256, stores=300):
        twins = []
        for _ in range(2):
            buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1)
            s = PerProportionalSampler(buf, PerConfig(alpha=0.6, epsilon=0.01), np.random.default_rng(0))
            for i in range(stores):
                s.on_store(buf.store(make_transition(i)))
            twins.append(s)
        return twins

    def assert_same_state(self, a, b):
        assert np.array_equal(a.tree.nodes, b.tree.nodes)
        assert np.array_equal(a.priorities, b.priorities)
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
            expected = batched.buffer.insert_timesteps[indices].copy()
            # stores between sampling and write-back evict some sampled slots
            for _ in range(int(rng.integers(0, 20))):
                for s in (batched, reference):
                    s.on_store(s.buffer.store(make_transition(step)))
                step += 1
            batched.update_priorities(indices, td, expected)
            reference_update_priorities(reference, indices, td, expected)
            self.assert_same_state(batched, reference)
        assert batched.buffer.stale_updates == reference.buffer.stale_updates > 0

    def test_repeated_leaf_last_write_wins(self):
        batched, reference = self.twin_samplers(capacity=8, stores=8)
        indices = np.array([3, 5, 3, 3, 5])
        td = np.array([1.0, -2.0, 0.5, 4.0, 0.0])
        batched.update_priorities(indices, td)
        reference_update_priorities(reference, indices, td)
        self.assert_same_state(batched, reference)
        assert batched.priorities[3] == 4.0 + 0.01

    def test_non_finite_td_leaves_tree_untouched(self):
        s, _ = self.twin_samplers(capacity=8, stores=8)
        before = s.tree.nodes.copy()
        with pytest.raises(ContractViolation):
            s.update_priorities(np.array([1, 2]), np.array([1.0, np.nan]))
        assert np.array_equal(s.tree.nodes, before)


class TestPerRank:
    def test_two_transition_probabilities(self):
        buf = filled_buffer(2)
        buf.td_errors[:2] = [5.0, 1.0]
        cfg = PerConfig(alpha=1.0)
        s = PerRankSampler(buf, cfg, np.random.default_rng(0))
        s._refresh_ranks()
        assert np.array_equal(s._sorted_slots, [0, 1])
        assert np.allclose(s._probs, [2 / 3, 1 / 3])

    def test_ties_broken_by_older_insertion(self):
        buf = filled_buffer(4)
        buf.td_errors[:4] = 1.0
        s = PerRankSampler(buf, PerConfig(alpha=0.7), np.random.default_rng(0))
        s._refresh_ranks()
        assert np.array_equal(s._sorted_slots, [0, 1, 2, 3])

    def test_top_rank_frequency_matches_analytic_power_law(self):
        n, alpha = 2000, 0.7
        buf = filled_buffer(n, capacity=n)
        rng = np.random.default_rng(10)
        buf.td_errors[:n] = rng.random(n)
        s = PerRankSampler(buf, PerConfig(alpha=alpha), np.random.default_rng(20))
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
        cfg = PerConfig(alpha=0.7, rank_refresh_interval=5)
        s = PerRankSampler(buf, cfg, np.random.default_rng(0))
        s.sample(4)
        n_before = len(s._sorted_slots)
        for i in range(3):
            s.on_store(buf.store(make_transition(100 + i)))
        s.sample(4)
        assert len(s._sorted_slots) == n_before  # not yet refreshed
        for i in range(2):
            s.on_store(buf.store(make_transition(200 + i)))
        s.sample(4)
        assert len(s._sorted_slots) == 15

    def test_weights_in_unit_interval(self):
        buf = filled_buffer(100, capacity=128)
        buf.td_errors[:100] = np.random.default_rng(1).random(100)
        s = PerRankSampler(buf, PerConfig(alpha=0.7, beta0=0.4), np.random.default_rng(2))
        w = s.sample(64).is_weights
        assert np.all(w > 0) and np.all(w <= 1.0 + 1e-12)


class TestSubsetSampler:
    def test_full_subset_behaves_uniformly(self):
        buf = filled_buffer(100, capacity=128)
        assert len(buf.subset_indices()) == 100
        s = SubsetSampler(buf, np.random.default_rng(0))
        batch = s.sample(1000)
        assert batch.indices.min() >= 0 and batch.indices.max() < 100
        assert len(np.unique(batch.indices)) > 50

    def test_singleton_subset(self):
        buf = filled_buffer(20)
        mask = np.zeros(20, dtype=bool)
        mask[7] = True
        buf.set_subset_mask(mask)
        s = SubsetSampler(buf, np.random.default_rng(0))
        assert np.all(s.sample(64).indices == 7)

    def test_empty_subset_falls_back_to_whole_buffer(self):
        buf = filled_buffer(20)
        buf.set_subset_mask(np.zeros(20, dtype=bool))
        s = SubsetSampler(buf, np.random.default_rng(0))
        batch = s.sample(64)
        assert len(batch) == 64
        assert buf.subset_fallbacks == 1

    def test_mask_hygiene_after_eviction(self):
        buf = ReplayBuffer(4, obs_dim=2, action_dim=1, subset_strict=True)
        for i in range(4):
            buf.store(make_transition(i))
        buf.set_subset_mask(np.array([True, True, False, False]))
        buf.store(make_transition(10))  # evicts slot 0
        assert 0 not in buf.subset_indices()
        assert buf.mask_drawn[0] == MASK_UNDRAWN
        assert np.array_equal(buf.subset_indices(), [1])

    def test_immediate_join_by_default(self):
        buf = filled_buffer(4)
        buf.set_subset_mask(np.zeros(4, dtype=bool))
        idx = buf.store(make_transition(9))
        assert idx in buf.subset_indices()

    def test_strict_mode_defers_membership_until_refresh(self):
        buf = ReplayBuffer(8, obs_dim=2, action_dim=1, subset_strict=True)
        idx = buf.store(make_transition(0))
        assert idx in buf.subset_indices()  # no draw yet, default mask is all ones
        buf.set_subset_mask(np.array([True]))
        idx2 = buf.store(make_transition(1))
        assert idx2 not in buf.subset_indices()


class OldMembership:
    """The two per-slot columns that once held subset membership, in plain Python.

    ``in_subset`` was written at store time (1 unless strict masking is on
    and a mask was drawn) and overwritten by every mask; ``mask`` is the
    drawn bit or ``MASK_UNDRAWN``.
    """

    def __init__(self, capacity: int, strict: bool):
        self.capacity, self.strict = capacity, strict
        self.in_subset = [False] * capacity
        self.mask = [MASK_UNDRAWN] * capacity
        self.refreshed = False
        self.cursor = self.size = 0

    def store(self) -> None:
        self.in_subset[self.cursor] = not (self.strict and self.refreshed)
        self.mask[self.cursor] = MASK_UNDRAWN
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def set_mask(self, bits: list[bool]) -> None:
        for i, bit in enumerate(bits):
            self.in_subset[i], self.mask[i] = bit, int(bit)
        self.refreshed = True

    def subset(self) -> list[int]:
        return [i for i in range(self.size) if self.in_subset[i]]


class TestMembershipFromMaskBits:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 8),
        strict=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_the_two_column_model(self, capacity, strict, seed, data):
        buf = ReplayBuffer(capacity, obs_dim=2, action_dim=1, subset_strict=strict)
        sampler = SubsetSampler(buf, np.random.default_rng(seed))
        model_rng = np.random.default_rng(seed)
        model = OldMembership(capacity, strict)
        fallbacks = 0
        ops = data.draw(st.lists(st.sampled_from(["store", "mask", "sample"]), max_size=40))
        for step, op in enumerate(ops):
            if op == "store":
                buf.store(make_transition(step))
                model.store()
            elif op == "mask":
                bits = data.draw(st.lists(st.booleans(), min_size=model.size, max_size=model.size))
                buf.set_subset_mask(np.array(bits, dtype=bool))
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
            assert buf.subset_indices().tolist() == model.subset()
            assert buf.mask_drawn[: buf.size].tolist() == model.mask[: model.size]
            assert buf.subset_fallbacks == fallbacks


class TestMakeSampler:
    def test_all_kinds_constructible(self):
        buf = filled_buffer(4)
        rng = np.random.default_rng(0)
        for kind in ("uniform", "per_prop", "per_rank", "ero"):
            assert make_sampler(kind, buf, rng).kind == kind
        with pytest.raises(ContractViolation):
            make_sampler("heap", buf, rng)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        buf = filled_buffer(11, capacity=8)  # wrapped ring
        buf.update_td_errors(np.arange(8), np.linspace(-1, 1, 8))
        path = tmp_path / "buffer.erpb"
        save_snapshot(buf, path)
        meta, transitions = load_snapshot(path)
        assert meta["version"] == 2
        assert meta["capacity"] == 8 and meta["size"] == 8
        assert meta["obs_dim"] == 2 and meta["act_dim"] == 1
        assert len(transitions) == 8
        expected_order = buf.live_order()
        for t, idx in zip(transitions, expected_order):
            assert np.array_equal(t.state, buf.states[idx])
            assert np.array_equal(t.action, buf.actions[idx])
            assert np.array_equal(t.next_state, buf.next_states[idx])
            assert t.reward == buf.rewards[idx]
            assert t.done == buf.dones[idx]
            assert t.insert_timestep == buf.insert_timesteps[idx]
            assert t.td_error == buf.td_errors[idx]
        # oldest first
        steps = [t.insert_timestep for t in transitions]
        assert steps == sorted(steps)

    @pytest.mark.parametrize("cut, record", [(None, 0), (5, 7)])
    def test_truncated_file_names_the_record(self, tmp_path, cut, record):
        path = tmp_path / "buffer.erpb"
        save_snapshot(filled_buffer(8, capacity=8), path)
        data = path.read_bytes()
        header_size = 4 + 4 + 8 + 8 + 4 + 4
        path.write_bytes(data[:header_size] if cut is None else data[:-cut])
        with pytest.raises(ContractViolation, match=f"record {record} of 8"):
            load_snapshot(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "buffer.erpb"
        path.write_bytes(b"ERPB\1\0")
        with pytest.raises(ContractViolation, match="header"):
            load_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ContractViolation):
            load_snapshot(path)
