"""Deterministic-policy actor-critic agent with target networks and OU noise.

The actor maps observations through a tanh head scaled to the action bound;
the critic consumes observation and action concatenated at the first layer.
Targets are slow convex blends of the online networks. Any sampler from the
replay module can feed ``train_step``.
"""

from __future__ import annotations

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


class DdpgAgent:
    """Actor, critic, their targets, and the optimizer plumbing.

    The learning methods work in arrays the agent owns and reuses from call
    to call: the critic's concatenated (state, action) input, the actor's
    and the critic's forward caches, one gradient tape per online net, and
    the target blend's scratch vector. A tape that ``critic_gradients`` or
    ``actor_gradients`` returns is therefore overwritten by the next call.
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
        self.actor = mlp_init(
            [obs_dim, *hidden, action_dim], acts + ["tanh"], seed=actor_seed, output_scale=3e-3
        )
        self.critic = mlp_init(
            [obs_dim + action_dim, *hidden, 1], acts + ["linear"], seed=critic_seed
        )
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_adam = AdamState.for_net(self.actor, learning_rate=actor_lr)
        self.critic_adam = AdamState.for_net(self.critic, learning_rate=critic_lr)
        self._actor_tape = GradTape.zeros_like(self.actor)
        self._critic_tape = GradTape.zeros_like(self.critic)
        self._actor_cache: list | None = None
        self._critic_cache: list | None = None
        self._critic_in: np.ndarray | None = None
        self._blend = np.empty(max(self.actor.param_count, self.critic.param_count))

    # ----------------------------------------------------------------- acting

    def actions_for(self, obs_batch: np.ndarray, net: Mlp | None = None) -> np.ndarray:
        net = self.actor if net is None else net
        return self.action_high * net.forward(obs_batch)

    def act(self, obs: np.ndarray, noise: OuNoise | None = None) -> np.ndarray:
        action = self.actions_for(np.asarray(obs, dtype=np.float64)[None, :])[0]
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
        next_actions = self.actions_for(next_states, net=self.target_actor)
        next_q = self.target_critic.forward(self._critic_input(next_states, next_actions))[:, 0]
        return rewards + self.gamma * (1.0 - dones.astype(np.float64)) * next_q

    def critic_gradients(self, states, actions, rewards, next_states, dones, is_weights=None):
        """Loss, parameter tape, and per-sample TD errors without updating."""
        n = len(states)
        targets = self.critic_targets(rewards, next_states, dones)
        q, self._critic_cache = self.critic.forward_cached(
            self._critic_input(states, actions), self._critic_cache
        )
        td_errors = targets - q[:, 0]
        weights = np.ones(n) if is_weights is None else np.asarray(is_weights, dtype=np.float64)
        loss = float(np.mean(weights * td_errors**2))
        if not np.isfinite(loss):
            raise NumericFault(
                f"critic loss is not finite (loss={loss}, "
                f"max|target|={np.max(np.abs(targets))})"
            )
        dloss_dq = (-2.0 * weights * td_errors / n)[:, None]
        tape = self.critic.backward(self._critic_cache, dloss_dq, self._critic_tape)
        return loss, tape, td_errors

    def critic_update(self, states, actions, rewards, next_states, dones, is_weights=None):
        """One Adam step on the critic; returns (loss, per-sample TD errors)."""
        loss, tape, td_errors = self.critic_gradients(
            states, actions, rewards, next_states, dones, is_weights
        )
        adam_step(self.critic, tape, self.critic_adam)
        return loss, td_errors

    def actor_gradients(self, states):
        """Objective and actor tape for ascending mean Q(s, actor(s)).

        Backpropagates through the frozen critic into its action input, then
        through the action scaling into the actor.
        """
        n = len(states)
        head, self._actor_cache = self.actor.forward_cached(states, self._actor_cache)
        actions = self.action_high * head
        q, self._critic_cache = self.critic.forward_cached(
            self._critic_input(states, actions), self._critic_cache
        )
        objective = float(np.mean(q[:, 0]))
        # minimize -mean(q); the critic is frozen here, so only its input gradient is needed
        dloss_dinput = self.critic.input_gradient(self._critic_cache, np.full((n, 1), -1.0 / n))
        dloss_dhead = dloss_dinput[:, self.obs_dim :] * self.action_high
        tape = self.actor.backward(self._actor_cache, dloss_dhead, self._actor_tape)
        return objective, tape

    def actor_update(self, states) -> float:
        objective, tape = self.actor_gradients(states)
        if not np.isfinite(objective):
            raise NumericFault(f"actor objective is not finite ({objective})")
        adam_step(self.actor, tape, self.actor_adam)
        return objective

    def soft_update(self) -> None:
        """Blend targets toward online nets: target <- tau*online + (1-tau)*target."""
        tau = self.tau
        for target, online in ((self.target_actor, self.actor), (self.target_critic, self.critic)):
            # (1 - tau) * target + tau * online, the same bits in either order of the sum
            blend = np.multiply(tau, online.params, out=self._blend[: online.param_count])
            target.params *= 1.0 - tau
            target.params += blend

    def train_step(self, sampler, batch_size: int):
        """Sample, update critic and actor, blend targets.

        Returns (critic loss, per-sample TD errors, the sampled batch) so the
        caller can push the fresh TD errors back into the replay structures.
        """
        batch = sampler.sample(batch_size)
        loss, td_errors = self.critic_update(
            batch.states, batch.actions, batch.rewards, batch.next_states, batch.dones, batch.is_weights
        )
        self.actor_update(batch.states)
        self.soft_update()
        return loss, td_errors, batch
