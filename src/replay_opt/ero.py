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

import numpy as np

from .errors import ContractViolation
from .memory import mapped_zeros
from .nn import AdamState, adam_step, mlp_init, row_blocks
from .replay import ReplayBuffer
from .seeding import as_generator

FEATURE_DIM = 3          # transition reward, cached TD error, age ratio
SCORE_EPS = 1e-8         # log arguments clamped to [SCORE_EPS, 1 - SCORE_EPS]
STD_FLOOR = 1e-6
MASK_UNDRAWN = -1        # mask value of a slot stored since the last draw


class RunningNorm:
    """Streaming mean/variance (Welford) for feature standardization."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)
        self._denom: np.ndarray | None = None  # normalize's divisors; None until read after an update

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
        self._denom = None

    def normalize(self, rows: np.ndarray) -> np.ndarray:
        """Standardize each column of the float64 (n, dim) array ``rows`` in place; returns ``rows``.

        Column by column, as numpy runs an (n, dim) broadcast as n loops of
        ``dim`` elements; the bits are those of ``(rows - mean) / max(std, STD_FLOOR)``.
        The divisors are kept until the next ``update``, so a rescore that
        normalizes the buffer block by block computes them once.
        """
        if self.count == 0:
            return rows
        if self._denom is None:
            self._denom = np.maximum(np.sqrt(self.variance), STD_FLOOR)
        for j in range(self.dim):
            column = rows[:, j]
            column -= self.mean[j]
            column /= self._denom[j]
        return rows


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
    """Scoring network, feature pipeline, the mask it draws, and the network's optimizer.

    Features are (reward, cached TD error, insert_step / current_step). The
    first two are standardized by running statistics accumulated at store
    time; the age ratio is already bounded in (0, 1] and passes through
    unchanged (its store-time value is identically 1, so running statistics
    over it would be degenerate).

    The mask holds each slot's last drawn bit, or ``MASK_UNDRAWN`` for a slot stored since
    (in the subset until the next draw). It is mapped for one buffer capacity.
    """

    def __init__(
        self,
        hidden_sizes=(64, 64),
        learning_rate: float = 1e-4,
        update_steps: int = 1,
        update_batch_size: int = 64,
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
        self._rng = as_generator(draw_rng)
        self.mask_drawn: np.ndarray | None = None  # see mask
        self._subset: np.ndarray | None = None  # subset_indices(); None until recomputed
        self.skipped_nonfinite = 0
        self.skipped_no_candidates = 0

    def raw_features(self, buffer: ReplayBuffer, indices, current_step: int) -> np.ndarray:
        """One (reward, TD error, age ratio) row per slot; ``indices`` is an index array or a slice."""
        insert_steps = buffer.insert_timesteps[indices]
        rows = np.empty((len(insert_steps), FEATURE_DIM))
        rows[:, 0] = buffer.rewards[indices]
        rows[:, 1] = buffer.td_errors[indices]
        np.divide(insert_steps, max(current_step, 1), out=rows[:, 2])
        return rows

    def features(self, buffer: ReplayBuffer, indices, current_step: int) -> np.ndarray:
        feats = self.raw_features(buffer, indices, current_step)
        self.normalizer.normalize(feats[:, :2])
        return feats

    def score(self, features: np.ndarray) -> np.ndarray:
        """Inclusion probabilities in (0, 1), one per feature row."""
        return self.score_net.forward(features)[:, 0]

    def mask(self, buffer: ReplayBuffer) -> np.ndarray:
        """The int8 mask over ``buffer``'s slots, mapped at first use with the live slots undrawn.

        Each later slot is set as it is stored, so pages a run never reaches stay untouched.
        """
        if self.mask_drawn is None:
            self.mask_drawn = mapped_zeros(buffer.capacity, dtype=np.int8)
            self.mask_drawn[: buffer.size] = MASK_UNDRAWN
        elif len(self.mask_drawn) != buffer.capacity:
            raise ContractViolation(f"policy mapped for {len(self.mask_drawn)} slots, buffer has {buffer.capacity}")
        return self.mask_drawn

    def subset_indices(self, buffer: ReplayBuffer) -> np.ndarray:
        """Live slots inside the active subset: drawn bit 1, or no bit yet."""
        if self._subset is None:
            self._subset = np.flatnonzero(self.mask(buffer)[: buffer.size] != 0)
        return self._subset

    def observe_store(self, buffer: ReplayBuffer, idx: int) -> None:
        """Mark the freshly stored slot undrawn and update feature statistics."""
        self.mask(buffer)[idx] = MASK_UNDRAWN
        self._subset = None
        self.normalizer.update((buffer.rewards[idx], buffer.td_errors[idx]))

    def refresh_subset(self, buffer: ReplayBuffer, current_step: int) -> int:
        """Score every live slot and draw a fresh Bernoulli mask over them; returns subset size.

        The slots are drawn in ``nn.row_blocks``, ``nn.BLOCK`` (512) rows at
        a time: each block's features are read from slices of the buffer's
        columns, scored in one forward pass, drawn and written into the mask
        before the next block is read, so nothing here grows with the
        buffer. The bits are those of one draw over all rows, as the
        generator's stream does not depend on how its draws are split and
        the blocks meet the BLAS kernels as one product over all rows does.
        """
        mask = self.mask(buffer)
        self._subset = None
        selected = 0
        for start, stop in row_blocks(len(buffer)):
            scores = self.score(self.features(buffer, slice(start, stop), current_step))
            bits = draw_mask(scores, self._rng)
            mask[start:stop] = bits
            selected += int(np.count_nonzero(bits))
        return selected

    def update_policy(self, buffer: ReplayBuffer, replay_reward: float, current_step: int) -> float | None:
        """One REINFORCE update of the scoring network.

        Samples a uniform mini-batch over the slots that carry a drawn bit
        (slots stored after the last draw have no realized action and are
        excluded) and descends ``mask_surrogate`` over the batch, with those
        bits as labels. Returns the minimized surrogate value, or None when
        the update was skipped.
        """
        if replay_reward is None or not np.isfinite(replay_reward):
            self.skipped_nonfinite += 1
            return None
        mask = self.mask(buffer)
        candidates = np.flatnonzero(mask[: buffer.size] != MASK_UNDRAWN)
        if len(candidates) == 0:
            self.skipped_no_candidates += 1
            return None

        loss = None
        for _ in range(self.update_steps):
            indices = candidates[self._rng.integers(0, len(candidates), size=self.update_batch_size)]
            bits = mask[indices].astype(np.float64)
            feats = self.features(buffer, indices, current_step)
            out, cache = self.score_net.forward_cached(feats)
            loss, dloss_dout = mask_surrogate(out, bits, replay_reward)
            self.score_net.backward(cache, dloss_dout)
            adam_step(self.score_net, self.adam)
        return loss
