"""Learned replay policy tests: features, mask draws, replay reward, updates."""

from __future__ import annotations

import numpy as np
import pytest

from replay_opt.errors import ContractViolation
from replay_opt.ero import (
    FEATURE_DIM,
    MASK_UNDRAWN,
    EroPolicy,
    RunningNorm,
    draw_mask,
    mask_surrogate,
)
from replay_opt.harness import EpisodeRecord, RunConfig, replay_reward, run, window_mean
from replay_opt.nn import BLOCK, grad_check, mlp_init
from replay_opt.replay import ReplayBuffer, SubsetSampler


def make_buffer(n: int, capacity: int = 256, seed: int = 0) -> ReplayBuffer:
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity, obs_dim=3, action_dim=1)
    for i in range(n):
        buf.store(
            state=rng.normal(size=3),
            action=rng.normal(size=1),
            reward=float(rng.normal()),
            next_state=rng.normal(size=3),
            done=False,
            insert_timestep=i + 1,
        )
    return buf


def fresh_policy(**kwargs) -> EroPolicy:
    kwargs.setdefault("init_seed", 0)
    kwargs.setdefault("draw_rng", np.random.default_rng(1))
    return EroPolicy(**kwargs)


def subset_of(policy: EroPolicy, buf: ReplayBuffer) -> SubsetSampler:
    """The learned sampler over ``buf`` that drives ``policy``."""
    return SubsetSampler(buf, np.random.default_rng(2), policy)


def drawn_slots(policy: EroPolicy, buf: ReplayBuffer) -> np.ndarray:
    """Live slots that carry a drawn bit (not stored since the last draw)."""
    return np.flatnonzero(policy.mask(buf)[: len(buf)] != MASK_UNDRAWN)


def force_constant_score(policy: EroPolicy, value_preactivation: float = 0.0) -> None:
    policy.score_net.weights[-1][:] = 0.0
    policy.score_net.biases[-1][:] = value_preactivation


class TestRunningNorm:
    def test_identity_before_any_update(self):
        norm = RunningNorm(2)
        rows = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(norm.normalize(rows), rows)

    def test_constant_stream_centers_to_zero(self):
        norm = RunningNorm(1)
        for _ in range(50):
            norm.update(np.array([4.2]))
        assert np.allclose(norm.normalize(np.array([[4.2]])), 0.0)

    def test_matches_batch_statistics(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(500, 3)) * [1.0, 10.0, 0.1] + [5.0, -3.0, 0.0]
        norm = RunningNorm(3)
        for row in data:
            norm.update(row)
        assert np.allclose(norm.mean, data.mean(axis=0))
        assert np.allclose(norm.variance, data.var(axis=0))
        assert np.all(norm.variance >= 0)


class TestFeatures:
    def test_age_ratio_definition(self):
        buf = make_buffer(1)
        buf.insert_timesteps[0] = 500
        policy = fresh_policy()
        raw = policy.raw_features(buf, np.array([0]), current_step=1000)
        assert raw[0, 2] == 0.5

    def test_feature_vector_contents(self):
        buf = make_buffer(3)
        buf.rewards[1] = -7.0
        buf.update_td_errors(np.array([1]), np.array([2.5]))
        policy = fresh_policy()
        raw = policy.raw_features(buf, np.array([1]), current_step=4)
        assert raw.shape == (1, FEATURE_DIM)
        assert raw[0, 0] == -7.0
        assert raw[0, 1] == 2.5
        assert raw[0, 2] == buf.insert_timesteps[1] / 4

    def test_normalizer_identity_passes_raw_through(self):
        buf = make_buffer(4)
        policy = fresh_policy()
        raw = policy.raw_features(buf, np.arange(4), current_step=10)
        feats = policy.features(buf, np.arange(4), current_step=10)
        assert np.array_equal(feats, raw)

    def test_constant_rewards_normalize_to_zero(self):
        buf = ReplayBuffer(16, obs_dim=3, action_dim=1)
        policy = fresh_policy()
        for i in range(10):
            idx = buf.store(
                state=np.zeros(3),
                action=np.zeros(1),
                reward=3.0,
                next_state=np.zeros(3),
                done=False,
                insert_timestep=i + 1,
            )
            policy.observe_store(buf, idx, i + 1)
        feats = policy.features(buf, np.arange(10), current_step=10)
        assert np.allclose(feats[:, 0], 0.0)


class TestScore:
    def test_zero_output_layer_scores_half(self):
        policy = fresh_policy()
        force_constant_score(policy)
        feats = np.random.default_rng(0).normal(size=(20, FEATURE_DIM))
        assert np.allclose(policy.score(feats), 0.5, atol=0, rtol=0)

    def test_identical_features_identical_scores(self):
        policy = fresh_policy()
        feats = np.tile(np.array([[0.3, -1.0, 0.5]]), (2, 1))
        s = policy.score(feats)
        assert s[0] == s[1]

    def test_scores_strictly_inside_unit_interval(self):
        policy = fresh_policy()
        feats = np.array([[1e6, 1e6, 1.0], [-1e6, -1e6, 0.0]])
        s = policy.score(feats)
        assert np.all(s > 0) and np.all(s < 1)

    def test_sigmoid_monotone_in_preactivation(self):
        policy = fresh_policy()
        force_constant_score(policy)
        net = policy.score_net
        # route a single positive weight from feature 0 to the head
        for w in net.weights[:-1]:
            w[:] = 0.0
        for b in net.biases[:-1]:
            b[:] = 0.0
        net.weights[0][0, 0] = 1.0
        net.weights[1][0, 0] = 1.0
        net.weights[2][0, 0] = 1.0
        lo = policy.score(np.array([[0.1, 0.0, 0.0]]))[0]
        hi = policy.score(np.array([[2.0, 0.0, 0.0]]))[0]
        assert hi > lo


class TestStoreScoring:
    """Cached scores are kept only in lazy mode, the only mode that reads them."""

    @staticmethod
    def no_scoring(monkeypatch, policy):
        def fail(features):
            raise AssertionError("score net called")

        monkeypatch.setattr(policy, "score", fail)

    def test_eager_store_updates_norm_without_scoring(self, monkeypatch):
        buf = make_buffer(12)
        policy = fresh_policy()
        self.no_scoring(monkeypatch, policy)
        expected = RunningNorm(2)
        for i in range(12):
            expected.update(np.array([buf.rewards[i], buf.td_errors[i]]))
            policy.observe_store(buf, i, i + 1)
        assert policy.normalizer.count == expected.count == 12
        assert np.array_equal(policy.normalizer.mean, expected.mean)
        assert np.array_equal(policy.normalizer.variance, expected.variance)
        assert policy.priority_scores is None

    def test_eager_refresh_scores_and_subset_leave_cache(self, monkeypatch):
        buf = make_buffer(20)
        policy = fresh_policy()
        policy.refresh_subset(buf, 20)
        self.no_scoring(monkeypatch, policy)
        policy.refresh_scores(buf, np.arange(20), current_step=20)
        assert policy.priority_scores is None

    def test_lazy_store_scores_the_new_slot(self):
        buf = make_buffer(5)
        policy = fresh_policy(lazy_refresh=True)
        policy.observe_store(buf, 4, current_step=5)
        expected = policy.score(policy.features(buf, np.array([4]), current_step=5))[0]
        assert policy.priority_scores[4] == expected
        assert np.all(policy.priority_scores[:4] == 0.5)

    def test_lazy_refresh_scores_writes_exactly_the_live_replayed_slots(self):
        buf = make_buffer(20)
        policy = fresh_policy(lazy_refresh=True)
        for i in range(20):
            policy.observe_store(buf, i, i + 1)
        policy.priority_scores[:] = -1.0
        policy.refresh_scores(buf, np.array([7, 3, 7, 25]), current_step=20)  # 25 is not live
        replayed = np.array([3, 7])
        fresh = policy.score(policy.features(buf, replayed, current_step=20))
        assert np.array_equal(policy.priority_scores[replayed], fresh)
        others = np.setdiff1d(np.arange(buf.capacity), replayed)
        assert np.all(policy.priority_scores[others] == -1.0)

    def test_lazy_harness_run_is_deterministic(self):
        def once():
            return run(RunConfig(sampler="ero", lazy_refresh=True, total_timesteps=1500))

        a, b = once(), once()
        assert a.total_steps == 1500 and a.train_steps > 0
        assert a.episodes and all(e.subset_size is not None for e in a.episodes)
        assert a.episodes == b.episodes
        assert a.traces == b.traces


class TestPerSlotArrays:
    """The mask and lazy mode's scores are mapped for one buffer capacity."""

    @pytest.mark.parametrize("capacity", [128, 512])
    def test_a_buffer_of_another_capacity_is_rejected(self, capacity):
        buf = make_buffer(20)  # 256 slots
        policy = fresh_policy(lazy_refresh=True)
        policy.observe_store(buf, 19, 20)
        assert len(policy.mask_drawn) == len(policy.priority_scores) == 256
        other = make_buffer(20, capacity=capacity)
        match = f"policy mapped for 256 slots, buffer has {capacity}"
        for call in (
            lambda: policy.observe_store(other, 19, 20),
            lambda: policy.refresh_subset(other, 20),
            lambda: policy.update_policy(other, 1.0, 20),
            lambda: policy.refresh_scores(other, np.arange(4), 20),
            lambda: policy.cached_scores(other),
        ):
            with pytest.raises(ContractViolation, match=match):
                call()
        assert policy.normalizer.count == 1 and policy.skipped_no_candidates == 0

    def test_mask_is_mapped_with_the_live_slots_undrawn(self):
        buf = make_buffer(5, capacity=8)
        policy = fresh_policy()
        assert policy.mask_drawn is None
        assert policy.subset_indices(buf).tolist() == [0, 1, 2, 3, 4]
        assert policy.mask_drawn.tolist() == [MASK_UNDRAWN] * 5 + [0] * 3


class TestMaskDraws:
    def test_saturated_scores_select_everything(self):
        buf = make_buffer(50)
        policy = fresh_policy(lazy_refresh=True)
        policy.cached_scores(buf)[:50] = 1.0 - 1e-15
        size = policy.refresh_subset(buf, 50)
        assert size == 50
        assert len(policy.subset_indices(buf)) == 50

    def test_half_scores_concentrate_binomially(self):
        rng = np.random.default_rng(3)
        n = 10_000
        lam = np.full(n, 0.5)
        sizes = [int(draw_mask(lam, rng).sum()) for _ in range(50)]
        sigma = np.sqrt(n * 0.25)
        assert abs(np.mean(sizes) - 5000) <= 3 * sigma / np.sqrt(50)

    def test_fixed_rng_identical_mask(self):
        buf = make_buffer(100)
        sizes, masks = [], []
        for _ in range(2):
            policy = fresh_policy(draw_rng=np.random.default_rng(5))
            sizes.append(policy.refresh_subset(buf, 100))
            masks.append(policy.subset_indices(buf).copy())
        assert sizes[0] == sizes[1]
        assert np.array_equal(masks[0], masks[1])

    @pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7, 20_000])
    def test_streamed_mask_equals_one_draw_over_the_whole_buffer(self, n):
        rng = np.random.default_rng(n)
        buf = ReplayBuffer(20_000, obs_dim=3, action_dim=1)
        buf.rewards[:n] = rng.normal(size=n)
        buf.td_errors[:n] = rng.normal(size=n)
        buf.insert_timesteps[:n] = rng.permutation(n) + 1
        buf.size = n
        policy = fresh_policy(draw_rng=np.random.default_rng(9))
        for i in range(min(n, 50)):
            policy.normalizer.update((buf.rewards[i], buf.td_errors[i]))
        whole_rng = np.random.default_rng(9)
        expected = draw_mask(policy.score(policy.features(buf, slice(0, n), n)), whole_rng)
        assert policy.refresh_subset(buf, n) == expected.sum()
        assert np.array_equal(policy.mask_drawn[:n], expected)
        assert policy._rng.bit_generator.state == whole_rng.bit_generator.state

    def test_empty_buffer_noop(self):
        buf = ReplayBuffer(8, obs_dim=3, action_dim=1)
        policy = fresh_policy()
        assert policy.refresh_subset(buf, 0) == 0

    def test_mask_bits_independent_across_slots(self):
        # covariance of pairs of bits under a fixed score vector is zero
        # within 3 sigma of the empirical estimator
        rng = np.random.default_rng(11)
        n_slots, n_draws = 20, 10_000
        lam = np.full(n_slots, 0.5)
        draws = np.stack([draw_mask(lam, rng) for _ in range(n_draws)]).astype(float)
        centered = draws - draws.mean(axis=0)
        cov = centered.T @ centered / n_draws
        sigma = 0.25 / np.sqrt(n_draws)
        off_diag = cov[~np.eye(n_slots, dtype=bool)]
        assert np.all(np.abs(off_diag) <= 3 * sigma)

    def test_subset_size_mean_matches_score_sum(self):
        rng = np.random.default_rng(13)
        lam = rng.random(2000)
        sizes = [int(draw_mask(lam, rng).sum()) for _ in range(400)]
        expected = lam.sum()
        sigma = np.sqrt(np.sum(lam * (1 - lam)))
        assert abs(np.mean(sizes) - expected) <= 3 * sigma / np.sqrt(400)


def replay_reward_stream(returns, window: int = 100) -> tuple[list, list]:
    """Episode records of ``returns``, built as a run builds them, and the replay reward after each.

    Each record's ``rc_window`` is ``harness.window_mean`` over the records so
    far, and the replay reward is ``harness.replay_reward`` of those records.
    """
    episodes, rewards = [], []
    for ret in returns:
        episodes.append(EpisodeRecord(len(episodes), len(episodes) + 1, float(ret), 1, rc_window=0.0))
        episodes[-1].rc_window = window_mean(episodes, window)
        rewards.append(replay_reward(episodes))
    return episodes, rewards


class TestReplayReward:
    def test_first_episode_absent(self):
        assert replay_reward_stream([1.0])[1] == [None]
        assert replay_reward([]) is None

    def test_scripted_sequence(self):
        _, rewards = replay_reward_stream([1.0, 2.0, 3.0])
        assert rewards[0] is None
        assert rewards[1] == pytest.approx(0.5)  # mean(1,2) - mean(1)
        assert rewards[2] == pytest.approx(0.5)  # mean(1,2,3) - mean(1,2)

    def test_window_means(self):
        episodes, rewards = replay_reward_stream([100.0, 120.0, 150.0], window=2)
        assert [e.rc_window for e in episodes] == [100.0, 110.0, 135.0]  # the 100 rolls off
        assert rewards[0] is None
        assert rewards[1:] == [pytest.approx(10.0), pytest.approx(25.0)]

    def test_identical_means_give_zero(self):
        assert replay_reward_stream([5.0, 5.0], window=1)[1] == [None, 0.0]


class TestUpdatePolicy:
    def prepared(self, n=8, seed=0):
        buf = make_buffer(n, seed=seed)
        policy = fresh_policy(draw_rng=np.random.default_rng(seed + 100))
        policy.refresh_subset(buf, n)
        return buf, policy

    def test_zero_reward_first_step_leaves_params_unchanged(self):
        buf, policy = self.prepared()
        before = [w.copy() for w in policy.score_net.weights]
        policy.update_policy(buf, 0.0, 8)
        assert all(np.array_equal(a, b) for a, b in zip(before, policy.score_net.weights))

    def test_positive_reward_raises_score_of_selected_slot(self):
        buf = make_buffer(1)
        policy = fresh_policy()
        policy.mask(buf)[0] = 1  # slot 0 was drawn into the subset
        before = float(policy.score(policy.features(buf, np.array([0]), 1))[0])
        policy.update_policy(buf, 1.0, 1)
        after = float(policy.score(policy.features(buf, np.array([0]), 1))[0])
        assert after > before

    def test_negative_reward_lowers_score_of_selected_slot(self):
        buf = make_buffer(1)
        policy = fresh_policy()
        policy.mask(buf)[0] = 1  # slot 0 was drawn into the subset
        before = float(policy.score(policy.features(buf, np.array([0]), 1))[0])
        policy.update_policy(buf, -1.0, 1)
        after = float(policy.score(policy.features(buf, np.array([0]), 1))[0])
        assert after < before

    def test_nonfinite_reward_skipped_with_counter(self):
        buf, policy = self.prepared()
        before = [w.copy() for w in policy.score_net.weights]
        assert policy.update_policy(buf, float("nan"), 8) is None
        assert policy.skipped_nonfinite == 1
        assert all(np.array_equal(a, b) for a, b in zip(before, policy.score_net.weights))

    def test_no_drawn_bits_skipped_with_counter(self):
        buf = make_buffer(4)
        policy = fresh_policy()
        assert policy.update_policy(buf, 1.0, 4) is None
        assert policy.skipped_no_candidates == 1

    def test_surrogate_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        net = mlp_init([FEATURE_DIM, 6, 1], ["relu", "sigmoid"], seed=22)
        feats = rng.normal(size=(5, FEATURE_DIM))
        bits = rng.integers(0, 2, size=5).astype(float)
        rr = 1.7
        assert grad_check(net, lambda y: mask_surrogate(y, bits, rr), feats) < 1e-4

    def test_update_restricted_to_drawn_slots(self, monkeypatch):
        buf = make_buffer(6)
        policy = fresh_policy()
        policy.refresh_subset(buf, 6)
        idx = buf.store(
            state=np.zeros(3),
            action=np.zeros(1),
            reward=0.0,
            next_state=np.zeros(3),
            done=False,
            insert_timestep=7,
        )
        policy.observe_store(buf, idx, 7)
        featured = []  # the slots each update step reads features for
        features = policy.features

        def recording_features(buffer, indices, current_step):
            featured.append(indices)
            return features(buffer, indices, current_step)

        monkeypatch.setattr(policy, "features", recording_features)
        policy.update_policy(buf, 1.0, 7)
        assert len(featured) == policy.update_steps
        assert idx not in featured[0]


class TestOnEpisodeEnd:
    """The learned sampler's episode end: replay reward, policy update, fresh mask."""

    def test_first_episode_draws_no_mask(self):
        buf = make_buffer(10)
        subset = subset_of(fresh_policy(), buf)
        reward, size, fallbacks = subset.on_episode_end(None, 10)
        assert reward is None
        # no draw without a replay reward: every slot is still in the subset
        assert (size, fallbacks) == (10, 0)
        assert len(drawn_slots(subset.policy, buf)) == 0

    def test_second_episode_updates_then_refreshes(self):
        buf = make_buffer(10)
        policy = fresh_policy()
        subset = subset_of(policy, buf)
        subset.on_episode_end(None, 10)
        reward, size, _ = subset.on_episode_end(25.0, 20)
        assert reward == 25.0  # the column the record gets
        assert len(drawn_slots(policy, buf)) == 10 and size == len(policy.subset_indices(buf))
        # first update had no drawn bits yet; refresh happened anyway
        assert policy.skipped_no_candidates == 1
        subset.on_episode_end(10.0, 30)
        assert policy.skipped_no_candidates == 1  # bits exist now

    def test_end_to_end_determinism_over_episodes(self):
        def run():
            buf = make_buffer(40, seed=7)
            subset = subset_of(fresh_policy(init_seed=3, draw_rng=np.random.default_rng(9)), buf)
            _, rewards = replay_reward_stream(np.random.default_rng(17).normal(size=50))
            return [subset.on_episode_end(reward, 40 + ep) for ep, reward in enumerate(rewards)]

        assert run() == run()
