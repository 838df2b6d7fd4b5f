"""Learned replay prioritization.

A small scoring network maps per-transition features to an inclusion
probability in (0, 1). At each episode end a Bernoulli mask is drawn from
those scores to select the active training subset, and the network itself is
trained by a score-function (REINFORCE) gradient: the realized mask bits act
as labels in a cross-entropy term scaled by the change in the recent-return
average, so masks that preceded an improvement are reinforced and masks that
preceded a regression are suppressed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .nn import AdamState, adam_step, mlp_init
from .replay import ReplayBuffer
from .seeding import as_generator

FEATURE_DIM = 3          # transition reward, cached TD error, age ratio
SCORE_EPS = 1e-8         # log arguments clamped to [SCORE_EPS, 1 - SCORE_EPS]
STD_FLOOR = 1e-6


class RunningNorm:
    """Streaming mean/variance (Welford) for feature standardization."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    @property
    def variance(self) -> np.ndarray:
        if self.count == 0:
            return np.ones(self.dim)
        return np.maximum(self._m2 / self.count, 0.0)

    def update(self, row: np.ndarray) -> None:
        row = np.asarray(row, dtype=np.float64)
        self.count += 1
        delta = row - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (row - self.mean)

    def normalize(self, rows: np.ndarray) -> np.ndarray:
        """Standardize each column of the float64 (n, dim) array ``rows`` in place; returns ``rows``.

        Column by column, as numpy runs an (n, dim) broadcast as n loops of
        ``dim`` elements; the bits are those of ``(rows - mean) / max(std, STD_FLOOR)``.
        """
        if self.count == 0:
            return rows
        denom = np.maximum(np.sqrt(self.variance), STD_FLOOR)
        for j in range(self.dim):
            column = rows[:, j]
            column -= self.mean[j]
            column /= denom[j]
        return rows


class ReplayRewardTracker:
    """Windowed return bookkeeping that produces the replay reward.

    The replay reward is the difference between the current windowed mean of
    episode returns and the windowed mean captured at the previous episode
    end; it is absent until two estimates exist.
    """

    def __init__(self, window: int = 100):
        self.returns = deque(maxlen=window)
        self.previous_mean: float | None = None

    def record_episode(self, episode_return: float) -> None:
        self.returns.append(float(episode_return))

    @property
    def window_mean(self) -> float | None:
        if not self.returns:
            return None
        return float(np.mean(self.returns))

    def replay_reward(self) -> float | None:
        current = self.window_mean
        if current is None:
            return None
        reward = None if self.previous_mean is None else current - self.previous_mean
        self.previous_mean = current
        return reward


def draw_mask(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Bernoulli draw per slot: bit i is 1 with probability scores[i]."""
    return rng.random(len(scores)) < scores


def mask_surrogate(out: np.ndarray, bits: np.ndarray, replay_reward: float):
    """``(loss, dloss_dout)`` of ``-replay_reward * sum(bits log(phi) + (1 - bits) log(1 - phi))``.

    ``phi`` is the scoring net's output ``out`` clamped to [SCORE_EPS, 1 - SCORE_EPS].
    """
    phi = np.clip(out[:, 0], SCORE_EPS, 1.0 - SCORE_EPS)
    log_lik = float(np.sum(bits * np.log(phi) + (1.0 - bits) * np.log(1.0 - phi)))
    loss = -replay_reward * log_lik
    dloss_dout = (-replay_reward * (bits / phi - (1.0 - bits) / (1.0 - phi)))[:, None]
    return loss, dloss_dout


class EroPolicy:
    """Scoring network, feature pipeline, mask draws, and the network's optimizer.

    Features are (reward, cached TD error, insert_step / current_step). The
    first two are standardized by running statistics accumulated at store
    time; the age ratio is already bounded in (0, 1] and passes through
    unchanged (its store-time value is identically 1, so running statistics
    over it would be degenerate).
    """

    def __init__(
        self,
        hidden_sizes=(64, 64),
        learning_rate: float = 1e-4,
        update_steps: int = 1,
        update_batch_size: int = 64,
        lazy_refresh: bool = False,
        init_seed=None,
        draw_rng=None,
    ):
        sizes = [FEATURE_DIM, *hidden_sizes, 1]
        acts = ["relu"] * len(hidden_sizes) + ["sigmoid"]
        self.score_net = mlp_init(sizes, acts, seed=init_seed, output_scale=3e-3)
        self.adam = AdamState.for_net(self.score_net, learning_rate=learning_rate)
        self.normalizer = RunningNorm(2)
        self.update_steps = update_steps
        self.update_batch_size = update_batch_size
        self.lazy_refresh = lazy_refresh
        self._rng = as_generator(draw_rng)
        self.priority_scores: np.ndarray | None = None  # lazy mode only, see cached_scores
        self.last_update_indices: np.ndarray | None = None
        self.skipped_nonfinite = 0
        self.skipped_no_candidates = 0

    def raw_features(self, buffer: ReplayBuffer, indices, current_step: int) -> np.ndarray:
        """One (reward, TD error, age ratio) row per slot; ``indices`` is an index array or a slice."""
        age_ratio = buffer.insert_timesteps[indices] / max(current_step, 1)
        return np.column_stack(
            [buffer.rewards[indices], buffer.td_errors[indices], age_ratio]
        )

    def features(self, buffer: ReplayBuffer, indices, current_step: int) -> np.ndarray:
        feats = self.raw_features(buffer, indices, current_step)
        self.normalizer.normalize(feats[:, :2])
        return feats

    def score(self, features: np.ndarray) -> np.ndarray:
        """Inclusion probabilities in (0, 1), one per feature row."""
        return self.score_net.forward(features)[:, 0]

    def cached_scores(self, buffer: ReplayBuffer) -> np.ndarray:
        """Lazy mode's per-slot scores (0.5 until scored), allocated at ``buffer``'s capacity on first use."""
        if self.priority_scores is None:
            self.priority_scores = np.full(buffer.capacity, 0.5)
        return self.priority_scores

    def observe_store(self, buffer: ReplayBuffer, idx: int, current_step: int) -> None:
        """Update feature statistics; in lazy mode also score the freshly stored slot."""
        self.normalizer.update((buffer.rewards[idx], buffer.td_errors[idx]))
        if self.lazy_refresh:
            feats = self.features(buffer, np.array([idx]), current_step)
            self.cached_scores(buffer)[idx] = self.score(feats)[0]

    def refresh_scores(self, buffer: ReplayBuffer, indices: np.ndarray, current_step: int) -> None:
        """In lazy mode, rescore only the replayed slots; otherwise nothing reads the cache."""
        indices = np.asarray(indices, dtype=np.int64)
        if not self.lazy_refresh or len(indices) == 0:
            return
        indices = np.unique(indices[indices < buffer.size])
        self.cached_scores(buffer)[indices] = self.score(self.features(buffer, indices, current_step))

    def refresh_subset(self, buffer: ReplayBuffer, current_step: int, subset, rng=None) -> int:
        """Draw a fresh Bernoulli mask over every live slot into ``subset``; returns subset size.

        ``subset`` is the ``replay.SubsetSampler`` that owns the mask bits.

        Scores are recomputed for the whole buffer unless ``lazy_refresh`` is
        set, in which case the cached (lazily updated) scores are used as-is.
        The rescore reads the features from slices of the buffer's columns
        and the scoring net runs them in row blocks, so what it allocates per
        row is a few float64 values (features, scores, the mask draw), not
        the scoring net's 64-wide hidden layers.
        """
        n = len(buffer)
        if n == 0:
            return 0
        rng = self._rng if rng is None else rng
        if self.lazy_refresh:
            scores = self.cached_scores(buffer)[:n]
        else:
            scores = self.score(self.features(buffer, slice(0, n), current_step))
        bits = draw_mask(scores, rng)
        subset.set_subset_mask(bits)
        return int(bits.sum())

    def update_policy(
        self, buffer: ReplayBuffer, replay_reward: float, current_step: int, subset, rng=None
    ) -> float | None:
        """One REINFORCE update of the scoring network.

        Samples a uniform mini-batch over the slots that carry a bit of
        ``subset``'s mask (slots stored after the last draw have no realized
        action and are excluded) and descends ``mask_surrogate`` over the
        batch. Returns the minimized surrogate value, or None when the update
        was skipped.
        """
        if replay_reward is None or not np.isfinite(replay_reward):
            self.skipped_nonfinite += 1
            return None
        rng = self._rng if rng is None else rng
        candidates = subset.drawn_slots()
        if len(candidates) == 0:
            self.skipped_no_candidates += 1
            return None

        loss = None
        for _ in range(self.update_steps):
            indices = candidates[rng.integers(0, len(candidates), size=self.update_batch_size)]
            bits = subset.mask_drawn[indices].astype(np.float64)
            feats = self.features(buffer, indices, current_step)
            out, cache = self.score_net.forward_cached(feats)
            loss, dloss_dout = mask_surrogate(out, bits, replay_reward)
            tape = self.score_net.backward(cache, dloss_dout)
            adam_step(self.score_net, tape, self.adam)
            self.last_update_indices = indices
        return loss
