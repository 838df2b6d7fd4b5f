"""Named verification checks behind the ``gradcheck`` CLI command.

Each check returns a max relative error; the shared pass threshold is 1e-4.
The loss checks call the loss functions training calls, looked up where
training looks them up.
"""

from __future__ import annotations

import numpy as np

from . import ddpg, ero
from .ddpg import DdpgAgent, OuNoise
from .nn import AdamState, adam_step, grad_check, mlp_init

THRESHOLD = 1e-4


def check_mlp() -> float:
    rng = np.random.default_rng(100)
    worst = 0.0
    hidden_acts = ("tanh", "relu", "sigmoid")
    for trial in range(6):
        net = mlp_init([3, 8, 2], [hidden_acts[trial % 3], "linear"], seed=trial)
        x = rng.normal(size=(4, 3))
        coeff = rng.normal(size=(4, 2))

        def loss_fn(y, coeff=coeff):
            return float((coeff * y).sum()), coeff.copy()

        worst = max(worst, grad_check(net, loss_fn, x))
    return worst


def _small_agent(seed: int = 0) -> DdpgAgent:
    return DdpgAgent(
        obs_dim=3,
        action_dim=1,
        action_high=np.array([2.0]),
        hidden_sizes=(8, 8),
        actor_seed=seed,
        critic_seed=seed + 1,
    )


def check_critic_loss() -> float:
    """``ddpg.td_loss`` through the critic, with IS weights that are not all 1."""
    rng = np.random.default_rng(200)
    worst = 0.0
    for trial in range(5):
        agent = _small_agent(trial)
        states = rng.normal(size=(5, 3))
        actions = rng.uniform(-2, 2, size=(5, 1))
        rewards = rng.normal(size=5)
        next_states = rng.normal(size=(5, 3))
        dones = rng.random(5) < 0.4
        weights = rng.uniform(0.1, 1.0, size=5)  # PER's normalized IS weights lie in (0, 1]
        targets = agent.critic_targets(rewards, next_states, dones)
        x = np.hstack([states, actions])
        worst = max(worst, grad_check(agent.critic, lambda q: ddpg.td_loss(q, targets, weights), x))
    return worst


def _states_away_from_kinks(agent: DdpgAgent, rng, n: int = 4, gap: float = 1e-3) -> np.ndarray:
    """Draw states keeping every relu pre-activation along the actor-critic
    chain at least ``gap`` from zero, so finite differences stay one-sided."""
    states = rng.normal(size=(n, agent.obs_dim))
    for _ in range(200):
        head, actor_cache = agent.actor.forward_cached(states)
        stacked = np.hstack([states, agent.action_high * head])
        _, critic_cache = agent.critic.forward_cached(stacked)
        # a cache keeps no pre-activations; ``h @ W + b`` has the forward pass's bits
        closest = min(
            float(np.min(np.abs(h_in @ w + b)))
            for net, cache in ((agent.actor, actor_cache), (agent.critic, critic_cache))
            for (h_in, _), w, b in zip(cache, net.weights, net.biases)
        )
        if closest >= gap:
            break
        states = rng.normal(size=(n, agent.obs_dim))
    return states


def check_actor_chain() -> float:
    """``DdpgAgent.actor_loss`` through the actor and the frozen critic."""
    rng = np.random.default_rng(300)
    worst = 0.0
    for trial in range(5):
        agent = _small_agent(trial + 10)
        # the near-zero head init would push chain gradients under the
        # finite-difference noise floor; give the check net a full-scale head
        agent.actor.weights[-1][...] = rng.uniform(-0.5, 0.5, agent.actor.weights[-1].shape)
        agent.actor.biases[-1][...] = rng.uniform(-0.5, 0.5, agent.actor.biases[-1].shape)
        states = _states_away_from_kinks(agent, rng)
        worst = max(worst, grad_check(agent.actor, lambda head: agent.actor_loss(states, head), states))
    return worst


def check_replay_policy_surrogate() -> float:
    """``ero.mask_surrogate`` through a small scoring net."""
    rng = np.random.default_rng(400)
    worst = 0.0
    for trial in range(5):
        net = mlp_init([3, 6, 1], ["relu", "sigmoid"], seed=trial + 20)
        feats = rng.normal(size=(6, 3))
        bits = rng.integers(0, 2, size=6).astype(float)
        reward = float(rng.normal())
        worst = max(worst, grad_check(net, lambda y: ero.mask_surrogate(y, bits, reward), feats))
    return worst


def check_adam_step() -> float:
    """Relative error of one Adam step against an independent recompute."""
    rng = np.random.default_rng(500)
    net = mlp_init([2, 4, 1], ["tanh", "linear"], seed=30)
    state = AdamState.for_net(net, learning_rate=1e-3)
    for g in net.weight_grads + net.bias_grads:
        g[:] = rng.normal(size=g.shape)
    expected = []
    for p, g in zip(net.weights + net.biases, net.weight_grads + net.bias_grads):
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected.append(p - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8))
    adam_step(net, state)
    worst = 0.0
    for p, e in zip(net.weights + net.biases, expected):
        worst = max(worst, float(np.max(np.abs(p - e) / np.maximum(np.abs(e), 1e-8))))
    return worst


def check_ou_noise_determinism() -> float:
    a = OuNoise(2, rng=np.random.default_rng(60))
    b = OuNoise(2, rng=np.random.default_rng(60))
    sa = np.array([a.sample() for _ in range(200)])
    sb = np.array([b.sample() for _ in range(200)])
    return float(np.max(np.abs(sa - sb)))


CHECKS = [
    ("mlp", check_mlp),
    ("critic-loss", check_critic_loss),
    ("actor-chain", check_actor_chain),
    ("ero-surrogate", check_replay_policy_surrogate),
    ("adam-step", check_adam_step),
    ("ou-noise", check_ou_noise_determinism),
]


def run_all() -> list[tuple[str, float]]:
    return [(name, fn()) for name, fn in CHECKS]
