"""Deterministic-policy actor-critic agent with target networks and OU noise.

The actor maps observations through a tanh head scaled to the action bound;
the critic consumes observation and action concatenated at the first layer.
Targets are slow convex blends of the online networks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, NumericFault
from .nn import AdamState, GradTape, Mlp, adam_step, mlp_init
from .seeding import as_generator


class OuNoise:
    """Mean-reverting exploration noise, one state per action dimension.

    Each sample advances ``x <- x + theta * (0 - x) + sigma * N(0, 1)`` and
    returns the new state. Reset to zero at every episode start.
    """

    def __init__(self, dim: int, theta: float = 0.15, sigma: float = 0.2, rng=None):
        self.dim = dim
        self.theta = theta
        self.sigma = sigma
        self.rng = as_generator(rng)
        self.state = np.zeros(dim)

    def reset(self) -> None:
        self.state = np.zeros(self.dim)

    def sample(self) -> np.ndarray:
        self.state = (
            self.state
            + self.theta * (0.0 - self.state)
            + self.sigma * self.rng.standard_normal(self.dim)
        )
        return self.state.copy()


def td_loss(q, targets, is_weights=None):
    """Mean IS-weighted squared TD error of critic outputs ``q``: ``(loss, dloss_dq, td_errors)``.

    ``td_errors`` is ``targets - q[:, 0]``. Without ``is_weights`` every
    sample weighs 1.0, which changes no bit: ``1.0 * x == x``.
    """
    n = len(q)
    td_errors = targets - q[:, 0]
    weights = 1.0 if is_weights is None else np.asarray(is_weights, dtype=np.float64)
    loss = float(np.add.reduce(weights * td_errors**2) / n)  # np.mean's bits, without its wrapper
    dloss_dq = -2.0 * weights * td_errors
    dloss_dq /= n
    return loss, dloss_dq[:, None], td_errors


class DdpgAgent:
    """Actor, critic, their targets, and the optimizer plumbing.

    All four networks' parameters live in one float64 block ``params`` of
    shape (2, actor params + critic params): row 0 holds the online actor
    and then the online critic, row 1 their targets. The four nets are
    ``Mlp`` views of those rows, so ``params`` and the two ``AdamState``s
    are the agent's whole learned state.

    The learning methods work in arrays the agent owns and reuses from call
    to call: the critic's concatenated (state, action) input, the actor's
    and the critic's forward caches, one gradient tape per online net, the
    actor objective's constant output gradient, and the target blend's
    scratch row. Each update backpropagates into its net's tape, so a tape
    holds only the last update's gradients: the next update overwrites it.
    """

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        action_high: np.ndarray,
        hidden_sizes=(64, 64),
        actor_lr: float = 1e-4,
        critic_lr: float = 1e-3,
        gamma: float = 0.99,
        tau: float = 0.001,
        actor_seed=None,
        critic_seed=None,
    ):
        if not 0.0 < gamma < 1.0:
            raise ContractViolation(f"gamma must lie in (0, 1), got {gamma}")
        if not 0.0 < tau <= 1.0:
            raise ContractViolation(f"tau must lie in (0, 1], got {tau}")
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self.action_low = -self.action_high
        self.gamma = gamma
        self.tau = tau

        hidden = list(hidden_sizes)
        acts = ["relu"] * len(hidden)
        actor = mlp_init(
            [obs_dim, *hidden, action_dim], acts + ["tanh"], seed=actor_seed, output_scale=3e-3
        )
        critic = mlp_init([obs_dim + action_dim, *hidden, 1], acts + ["linear"], seed=critic_seed)
        online = np.concatenate([actor.params, critic.params])
        self.params = np.stack([online, online])  # the targets start as copies
        split = actor.param_count
        self.actor, self.target_actor = (
            Mlp(actor.layer_sizes, actor.activations, row[:split]) for row in self.params
        )
        self.critic, self.target_critic = (
            Mlp(critic.layer_sizes, critic.activations, row[split:]) for row in self.params
        )
        self.actor_adam = AdamState.for_net(self.actor, learning_rate=actor_lr)
        self.critic_adam = AdamState.for_net(self.critic, learning_rate=critic_lr)
        self._actor_tape = GradTape.zeros_like(self.actor)
        self._critic_tape = GradTape.zeros_like(self.critic)
        self._actor_cache: list | None = None
        self._critic_cache: list | None = None
        self._critic_in: np.ndarray | None = None
        self._mean_q_grad: np.ndarray | None = None  # d(-mean q)/dq, (n, 1) filled with -1/n
        self._blend = np.empty_like(self.params[0])

    # ----------------------------------------------------------------- acting

    def act(self, obs: np.ndarray, noise: OuNoise | None = None) -> np.ndarray:
        action = self.action_high * self.actor.forward(np.asarray(obs, dtype=np.float64)[None, :])[0]
        if noise is not None:
            action = action + noise.sample()
        return np.clip(action, self.action_low, self.action_high)

    # --------------------------------------------------------------- learning

    def _critic_input(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """``np.hstack([states, actions])``, written into the agent's reused input buffer."""
        x = self._critic_in
        if x is None or len(x) != len(states):
            x = self._critic_in = np.empty((len(states), self.obs_dim + self.action_dim))
        x[:, : self.obs_dim] = states
        x[:, self.obs_dim :] = actions
        return x

    def critic_targets(self, rewards, next_states, dones) -> np.ndarray:
        """Bootstrap targets from the target networks, masked at terminals.

        Time-limit truncations are stored as non-terminal, so they bootstrap
        like any other step.
        """
        next_actions = self.action_high * self.target_actor.forward(next_states)
        next_q = self.target_critic.forward(self._critic_input(next_states, next_actions))[:, 0]
        # rewards + gamma * (1 - dones) * next_q, in place; each product and sum
        # has the same operands as in that expression, so the same bits
        targets = np.subtract(1.0, dones, dtype=np.float64)
        targets *= self.gamma
        targets *= next_q
        targets += rewards
        return targets

    def critic_update(self, states, actions, rewards, next_states, dones, is_weights=None):
        """One Adam step on the critic; returns (loss, per-sample TD errors)."""
        targets = self.critic_targets(rewards, next_states, dones)
        q, self._critic_cache = self.critic.forward_cached(
            self._critic_input(states, actions), self._critic_cache
        )
        loss, dloss_dq, td_errors = td_loss(q, targets, is_weights)
        if not math.isfinite(loss):
            raise NumericFault(
                f"critic loss is not finite (loss={loss}, "
                f"max|target|={np.max(np.abs(targets))})"
            )
        tape = self.critic.backward(self._critic_cache, dloss_dq, self._critic_tape)
        adam_step(self.critic, tape, self.critic_adam)
        return loss, td_errors

    def actor_loss(self, states, head):
        """``(-mean Q(s, a), d/d head)`` for the actor's unscaled outputs ``head`` on ``states``.

        The critic is frozen here, so only its input gradient is taken.
        """
        n = len(states)
        actions = self.action_high * head
        q, self._critic_cache = self.critic.forward_cached(
            self._critic_input(states, actions), self._critic_cache
        )
        loss = -float(np.add.reduce(q[:, 0]) / n)
        if self._mean_q_grad is None or len(self._mean_q_grad) != n:
            self._mean_q_grad = np.full((n, 1), -1.0 / n)
        dloss_dinput = self.critic.input_gradient(self._critic_cache, self._mean_q_grad)
        return loss, dloss_dinput[:, self.obs_dim :] * self.action_high

    def actor_update(self, states) -> float:
        """One Adam step on the actor, ascending mean Q(s, actor(s)); returns that mean."""
        head, self._actor_cache = self.actor.forward_cached(states, self._actor_cache)
        loss, dloss_dhead = self.actor_loss(states, head)
        if not math.isfinite(loss):
            raise NumericFault(f"actor objective is not finite ({-loss})")
        tape = self.actor.backward(self._actor_cache, dloss_dhead, self._actor_tape)
        adam_step(self.actor, tape, self.actor_adam)
        return -loss

    def soft_update(self) -> None:
        """Blend targets toward online nets: target <- tau*online + (1-tau)*target."""
        online, target = self.params
        # (1 - tau) * target + tau * online, the same bits in either order of the sum
        blend = np.multiply(self.tau, online, out=self._blend)
        target *= 1.0 - self.tau
        target += blend

    def train_step(self, batch):
        """Update critic and actor on a ``replay.Batch``, then blend targets.

        Returns (critic loss, per-sample TD errors) so the caller can push
        the fresh TD errors back into the replay structures.
        """
        loss, td_errors = self.critic_update(
            batch.states, batch.actions, batch.rewards, batch.next_states, batch.dones, batch.is_weights
        )
        self.actor_update(batch.states)
        self.soft_update()
        return loss, td_errors
