"""Agent tests: acting, noise, both update rules, target blending."""

from __future__ import annotations

import numpy as np
import pytest

from replay_opt.ddpg import DdpgAgent, OuNoise, td_loss
from replay_opt.errors import NumericFault
from replay_opt.nn import Mlp, _KERNELS, grad_check, mlp_init
from replay_opt.replay import PerProportionalSampler, ReplayBuffer, UniformSampler


def make_agent(**kwargs) -> DdpgAgent:
    kwargs.setdefault("obs_dim", 3)
    kwargs.setdefault("action_dim", 1)
    kwargs.setdefault("action_high", np.array([2.0]))
    kwargs.setdefault("hidden_sizes", (8, 8))
    kwargs.setdefault("actor_seed", 0)
    kwargs.setdefault("critic_seed", 1)
    return DdpgAgent(**kwargs)


def zero_net(net):
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0


def reference_soft_update(targets, onlines, tau):
    """Per-layer target blend kept as the reference for the flat blend.

    ``targets`` and ``onlines`` are matching lists of per-layer arrays; each
    target array is updated in place.
    """
    for t, o in zip(targets, onlines):
        t[:] = tau * o + (1.0 - tau) * t


class ReferenceTrainer:
    """The train step as it was before the agent reused its arrays: every
    intermediate, tape and Adam temporary is a fresh array. It updates the
    nets of ``agent`` and keeps its own Adam moments, so it can run
    alongside another agent's ``train_step`` as a bit-for-bit reference.
    """

    def __init__(self, agent, b1=0.9, b2=0.999, eps=1e-8):
        self.agent = agent
        self.b1, self.b2, self.eps = b1, b2, eps
        self.moments = {
            id(net): (np.zeros_like(net.params), np.zeros_like(net.params), adam.learning_rate)
            for net, adam in ((agent.actor, agent.actor_adam), (agent.critic, agent.critic_adam))
        }
        self.t = 0

    @staticmethod
    def forward_cached(net, x):
        h, cache = x, []
        for w, b, act in zip(net.weights, net.biases, net.activations):
            out = _KERNELS[act][0](h @ w + b)
            cache.append((h, out))
            h = out
        return h, cache

    @staticmethod
    def backward(net, cache, output_grad):
        weight_grads, bias_grads = [None] * len(cache), [None] * len(cache)
        dh = output_grad
        for layer in range(len(cache) - 1, -1, -1):
            h_in, out = cache[layer]
            dz = _KERNELS[net.activations[layer]][1](dh, out)
            weight_grads[layer] = h_in.T @ dz
            bias_grads[layer] = dz.sum(axis=0)
            dh = dz @ net.weights[layer].T
        grads = np.concatenate([a.ravel() for pair in zip(weight_grads, bias_grads) for a in pair])
        return grads, dh

    def adam(self, net, g, t):
        m, v, lr = self.moments[id(net)]
        bc1, bc2 = 1.0 - self.b1**t, 1.0 - self.b2**t
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        net.params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def step(self, batch):
        agent, n = self.agent, len(batch.states)
        self.t += 1
        next_head, _ = self.forward_cached(agent.target_actor, batch.next_states)
        next_x = np.hstack([batch.next_states, agent.action_high * next_head])
        next_q = self.forward_cached(agent.target_critic, next_x)[0][:, 0]
        targets = batch.rewards + agent.gamma * (1.0 - batch.dones.astype(np.float64)) * next_q
        q, cache = self.forward_cached(agent.critic, np.hstack([batch.states, batch.actions]))
        td_errors = targets - q[:, 0]
        weights = np.ones(n) if batch.is_weights is None else batch.is_weights
        grads, _ = self.backward(agent.critic, cache, (-2.0 * weights * td_errors / n)[:, None])
        self.adam(agent.critic, grads, self.t)

        head, actor_cache = self.forward_cached(agent.actor, batch.states)
        x = np.hstack([batch.states, agent.action_high * head])
        _, critic_cache = self.forward_cached(agent.critic, x)
        _, dinput = self.backward(agent.critic, critic_cache, np.full((n, 1), -1.0 / n))
        grads, _ = self.backward(agent.actor, actor_cache, dinput[:, agent.obs_dim :] * agent.action_high)
        self.adam(agent.actor, grads, self.t)

        tau = agent.tau
        for target, online in ((agent.target_actor, agent.actor), (agent.target_critic, agent.critic)):
            target.params[:] = tau * online.params + (1.0 - tau) * target.params
        return td_errors


def random_batch(n, obs_dim=3, action_dim=1, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n, obs_dim)),
        rng.uniform(-2, 2, size=(n, action_dim)),
        rng.normal(size=n),
        rng.normal(size=(n, obs_dim)),
        rng.random(n) < 0.3,
    )


class TestOuNoise:
    def test_hand_computed_first_step(self):
        class Forced:
            def standard_normal(self, dim):
                return np.ones(dim)

        noise = OuNoise(1, theta=0.15, sigma=0.2)
        noise.rng = Forced()
        assert noise.sample()[0] == pytest.approx(0.2)
        # second step: x + 0.15*(0 - x) + 0.2 = 0.2*0.85 + 0.2
        assert noise.sample()[0] == pytest.approx(0.2 * 0.85 + 0.2)

    def test_reset_zeroes_state(self):
        noise = OuNoise(2, rng=np.random.default_rng(0))
        for _ in range(10):
            noise.sample()
        noise.reset()
        assert np.array_equal(noise.state, np.zeros(2))

    def test_same_seed_same_stream(self):
        a = OuNoise(1, rng=np.random.default_rng(4))
        b = OuNoise(1, rng=np.random.default_rng(4))
        sa = [a.sample()[0] for _ in range(100)]
        sb = [b.sample()[0] for _ in range(100)]
        assert sa == sb

    def test_mean_reversion(self):
        noise = OuNoise(1, rng=np.random.default_rng(8))
        samples = np.array([noise.sample()[0] for _ in range(20_000)])
        assert abs(samples.mean()) < 0.05
        assert np.all(np.isfinite(samples))


class TestConstruction:
    def test_target_shapes_match_online(self):
        agent = make_agent()
        assert agent.target_actor.param_count == agent.actor.param_count
        assert agent.target_critic.param_count == agent.critic.param_count

    def test_discount_and_blend_rates_validated(self):
        from replay_opt.errors import ContractViolation

        with pytest.raises(ContractViolation):
            make_agent(gamma=1.0)
        with pytest.raises(ContractViolation):
            make_agent(tau=0.0)
        make_agent(tau=1.0)  # inclusive upper bound


class TestAct:
    def test_zero_head_gives_zero_action(self):
        agent = make_agent()
        zero_net(agent.actor)
        action = agent.act(np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(action, np.zeros(1))

    def test_noise_free_acting_is_deterministic(self):
        agent = make_agent()
        obs = np.array([0.3, 0.1, -0.2])
        assert np.array_equal(agent.act(obs), agent.act(obs))

    def test_action_bound_respected(self):
        agent = make_agent()
        noise = OuNoise(1, sigma=5.0, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for _ in range(200):
            action = agent.act(rng.normal(size=3), noise)
            assert np.all(np.abs(action) <= 2.0)


class TestCriticUpdate:
    def test_zero_networks_terminal_batch(self):
        agent = make_agent()
        zero_net(agent.critic)
        zero_net(agent.target_critic)
        zero_net(agent.target_actor)
        states, actions, _, next_states, _ = random_batch(4)
        rewards = np.ones(4)
        dones = np.ones(4, dtype=bool)
        loss, td = agent.critic_update(states, actions, rewards, next_states, dones)
        assert loss == pytest.approx(1.0)
        assert np.allclose(td, 1.0)

    def test_zero_bootstrap_when_not_done(self):
        agent = make_agent(gamma=0.99)
        zero_net(agent.critic)
        zero_net(agent.target_critic)
        zero_net(agent.target_actor)
        states, actions, _, next_states, _ = random_batch(3)
        targets = agent.critic_targets(np.ones(3), next_states, np.zeros(3, dtype=bool))
        assert np.allclose(targets, 1.0)  # 1 + 0.99 * 0

    def test_terminal_masking_blocks_bootstrap(self):
        agent = make_agent(gamma=0.99)
        # make the target critic output a nonzero constant
        zero_net(agent.target_critic)
        agent.target_critic.biases[-1][0] = 5.0
        states, actions, _, next_states, _ = random_batch(2)
        t_done = agent.critic_targets(np.zeros(2), next_states, np.ones(2, dtype=bool))
        t_live = agent.critic_targets(np.zeros(2), next_states, np.zeros(2, dtype=bool))
        assert np.allclose(t_done, 0.0)
        assert np.allclose(t_live, 0.99 * 5.0)

    def test_td_errors_match_posthoc_recompute(self):
        agent = make_agent()
        states, actions, rewards, next_states, dones = random_batch(6)
        targets = agent.critic_targets(rewards, next_states, dones)
        q_before = agent.critic.forward(np.hstack([states, actions]))[:, 0]
        _, td = agent.critic_update(states, actions, rewards, next_states, dones)
        assert np.all(np.abs(td - (targets - q_before)) < 1e-12)

    def test_loss_gradient_matches_finite_differences(self):
        agent = make_agent()
        states, actions, rewards, next_states, dones = random_batch(5)
        targets = agent.critic_targets(rewards, next_states, dones)
        x = np.hstack([states, actions])
        for is_weights in (None, np.array([0.2, 1.0, 0.5, 0.9, 0.35])):
            err = grad_check(agent.critic, lambda q: td_loss(q, targets, is_weights), x)
            assert err < 1e-4

    def test_is_weights_scale_loss(self):
        # two agents from the same seeds: each loss is taken before its agent's first step
        weighted, unweighted = make_agent(), make_agent()
        states, actions, rewards, next_states, dones = random_batch(4)
        loss_w, _ = weighted.critic_update(
            states, actions, rewards, next_states, dones, is_weights=np.full(4, 0.5)
        )
        loss_u, _ = unweighted.critic_update(states, actions, rewards, next_states, dones)
        assert loss_w == pytest.approx(0.5 * loss_u)

    def test_nonfinite_loss_raises_numeric_fault(self):
        agent = make_agent()
        states, actions, rewards, next_states, dones = random_batch(3)
        rewards = rewards.copy()
        rewards[0] = np.inf
        with pytest.raises(NumericFault):
            agent.critic_update(states, actions, rewards, next_states, dones)


class TestActorUpdate:
    def test_constant_critic_gives_zero_gradient(self):
        agent = make_agent()
        zero_net(agent.critic)
        agent.critic.biases[-1][0] = 3.0  # Q == 3 everywhere
        before = [w.copy() for w in agent.actor.weights]
        agent.actor_update(np.random.default_rng(0).normal(size=(4, 3)))
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.weights))

    def test_one_dimensional_chain_rule_by_hand(self):
        # critic Q(s, a) = a, linear actor head a = w * s, batch s = [1]:
        # the objective gradient wrt w is exactly 1
        agent = DdpgAgent(
            obs_dim=1,
            action_dim=1,
            action_high=np.array([1.0]),
            hidden_sizes=(),
            actor_seed=0,
            critic_seed=0,
        )
        # a net binds its activations when built: rebuild the actor on the same parameters
        agent.actor = Mlp(agent.actor.layer_sizes, ["linear"], agent.actor.params)
        zero_net(agent.actor)
        agent.actor.weights[0][0, 0] = 0.5
        zero_net(agent.critic)
        agent.critic.weights[0][1, 0] = 1.0  # Q = action input
        states = np.array([[1.0]])
        head, cache = agent.actor.forward_cached(states)
        tape = agent.actor.backward(cache, agent.actor_loss(states, head)[1])
        # ascending mean Q means the stored (descent) gradient is -1
        assert tape.weight_grads[0][0, 0] == pytest.approx(-1.0)

    def test_chain_gradient_matches_finite_differences(self):
        agent = make_agent()
        states = np.random.default_rng(3).normal(size=(4, 3))
        err = grad_check(agent.actor, lambda head: agent.actor_loss(states, head), states)
        assert err < 1e-4

    def test_critic_parameters_frozen_during_actor_step(self):
        agent = make_agent()
        before = [w.copy() for w in agent.critic.weights]
        agent.actor_update(np.random.default_rng(0).normal(size=(4, 3)))
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.critic.weights))


class TestSoftUpdate:
    def test_tau_one_copies_exactly(self):
        agent = make_agent(tau=1.0)
        agent.actor.weights[0] += 0.123
        agent.critic.weights[0] -= 0.456
        agent.soft_update()
        for t, o in zip(agent.target_actor.weights, agent.actor.weights):
            assert np.array_equal(t, o)
        for t, o in zip(agent.target_critic.weights, agent.critic.weights):
            assert np.array_equal(t, o)

    def test_scalar_blend_arithmetic(self):
        agent = make_agent(tau=0.001)
        agent.critic.weights[0][0, 0] = 1.0
        agent.target_critic.weights[0][0, 0] = 0.0
        agent.soft_update()
        assert agent.target_critic.weights[0][0, 0] == pytest.approx(0.001)

    def test_blend_is_exact_elementwise_expression(self):
        agent = make_agent(tau=0.37)
        expected = [
            0.37 * o + (1 - 0.37) * t
            for o, t in zip(agent.actor.weights, agent.target_actor.weights)
        ]
        agent.soft_update()
        for e, t in zip(expected, agent.target_actor.weights):
            assert np.array_equal(e, t)

    def test_geometric_convergence_with_frozen_online_nets(self):
        agent = make_agent(tau=0.1)
        agent.actor.weights[0] += 1.0
        err0 = np.abs(agent.actor.weights[0] - agent.target_actor.weights[0]).max()
        errors = []
        for _ in range(5):
            agent.soft_update()
            errors.append(np.abs(agent.actor.weights[0] - agent.target_actor.weights[0]).max())
        for k, e in enumerate(errors, start=1):
            assert e == pytest.approx(err0 * 0.9**k, rel=1e-9)

    def test_flat_blend_bit_equal_to_per_layer_loop(self):
        agent = make_agent(tau=0.005, hidden_sizes=(64, 64))
        rng = np.random.default_rng(91)
        pairs = [(agent.target_actor, agent.actor), (agent.target_critic, agent.critic)]
        refs = [[a.copy() for a in target.weights + target.biases] for target, _ in pairs]
        for step in range(200):
            agent.tau = 1.0 if step == 150 else 0.005
            for _, online in pairs:
                online.params += rng.normal(scale=1e-2, size=online.params.size)
            agent.soft_update()
            for ref, (target, online) in zip(refs, pairs):
                reference_soft_update(ref, online.weights + online.biases, agent.tau)
                layers = target.weights + target.biases
                assert all(np.array_equal(r, t) for r, t in zip(ref, layers))
            if step == 150:
                for target, online in pairs:
                    assert np.array_equal(target.params, online.params)

    def test_targets_share_no_memory_with_online_nets(self):
        agent = make_agent()
        pairs = ((agent.target_actor, agent.actor), (agent.target_critic, agent.critic))
        for target, online in pairs:
            assert not np.shares_memory(target.params, online.params)
            agent.soft_update()
            assert all(np.shares_memory(w, target.params) for w in target.weights + target.biases)


def fill_buffer(n=80):
    rng = np.random.default_rng(0)
    buf = ReplayBuffer(128, obs_dim=3, action_dim=1)
    for i in range(n):
        buf.store(
            state=rng.normal(size=3),
            action=rng.uniform(-2, 2, size=1),
            reward=float(rng.normal()),
            next_state=rng.normal(size=3),
            done=bool(rng.random() < 0.1),
            insert_timestep=i + 1,
        )
    return buf


class TestParameterBlock:
    def test_nets_are_views_of_the_block_rows(self):
        agent = make_agent()
        split = agent.actor.param_count
        assert agent.params.shape == (2, split + agent.critic.param_count)
        rows = ((agent.actor, agent.critic), (agent.target_actor, agent.target_critic))
        for actor, critic in rows:
            assert actor.params.base is agent.params and critic.params.base is agent.params
        agent.params[...] = np.arange(agent.params.size).reshape(agent.params.shape)
        for row, (actor, critic) in zip(agent.params, rows):
            assert np.array_equal(actor.params, row[:split])
            assert np.array_equal(critic.params, row[split:])

    def test_init_draws_unchanged_and_targets_start_equal(self):
        agent = make_agent()
        actor = mlp_init([3, 8, 8, 1], ["relu", "relu", "tanh"], seed=0, output_scale=3e-3)
        critic = mlp_init([4, 8, 8, 1], ["relu", "relu", "linear"], seed=1)
        assert np.array_equal(agent.params[0], np.concatenate([actor.params, critic.params]))
        assert np.array_equal(agent.params[1], agent.params[0])

    def test_block_round_trip_continues_bit_for_bit(self):
        buf = fill_buffer()
        kwargs = dict(hidden_sizes=(64, 64), tau=0.01)
        source = make_agent(**kwargs)
        warmup = UniformSampler(buf, np.random.default_rng(3))
        for _ in range(30):
            source.train_step(warmup.sample(64))
        restored = make_agent(actor_seed=7, critic_seed=8, **kwargs)
        restored.params[...] = source.params
        adams = ((restored.actor_adam, source.actor_adam), (restored.critic_adam, source.critic_adam))
        for mine, theirs in adams:
            mine.m[...], mine.v[...], mine.step_count = theirs.m, theirs.v, theirs.step_count
        samplers = [UniformSampler(buf, np.random.default_rng(4)) for _ in range(2)]
        for _ in range(50):  # Adam's step 64 flushes subnormal moments in both
            loss, td_errors = source.train_step(samplers[0].sample(64))
            twin_loss, twin_td_errors = restored.train_step(samplers[1].sample(64))
            assert loss == twin_loss and td_errors.tobytes() == twin_td_errors.tobytes()
        assert restored.params.tobytes() == source.params.tobytes()
        for mine, theirs in adams:
            assert mine.m.tobytes() == theirs.m.tobytes() and mine.v.tobytes() == theirs.v.tobytes()
            assert mine.step_count == theirs.step_count == 80


class TestTrainStep:
    def test_degenerate_single_transition_buffer(self):
        buf = fill_buffer(1)
        agent = make_agent()
        sampler = UniformSampler(buf, np.random.default_rng(0))
        batch = sampler.sample(64)
        loss, td = agent.train_step(batch)
        assert len(batch.indices) == 64
        assert np.all(batch.indices == 0)
        assert np.isfinite(loss)

    def test_identical_seeds_identical_losses(self):
        def run():
            buf = fill_buffer()
            agent = make_agent()
            sampler = UniformSampler(buf, np.random.default_rng(5))
            return [agent.train_step(sampler.sample(64))[0] for _ in range(10)]

        assert run() == run()

    @pytest.mark.parametrize(
        "obs_dim, action_high, sampler_kind",
        [(3, [2.0], "uniform"), (4, [1.0, 1.0], "per_prop")],
    )
    def test_reused_arrays_bit_equal_to_allocating_reference(self, obs_dim, action_high, sampler_kind):
        rng = np.random.default_rng(17)
        buf = ReplayBuffer(512, obs_dim=obs_dim, action_dim=len(action_high))
        if sampler_kind == "uniform":
            sampler = UniformSampler(buf, np.random.default_rng(3))
        else:
            sampler = PerProportionalSampler(buf, np.random.default_rng(3))
        for i in range(300):
            idx = buf.store(
                state=rng.normal(size=obs_dim),
                action=rng.uniform(-1, 1, size=len(action_high)),
                reward=float(rng.normal()),
                next_state=rng.normal(size=obs_dim),
                done=bool(rng.random() < 0.1),
                insert_timestep=i + 1,
            )
            sampler.on_store(idx, 0)
        kwargs = dict(obs_dim=obs_dim, action_dim=len(action_high), action_high=np.array(action_high),
                      hidden_sizes=(64, 64), tau=0.01)
        agent, twin = make_agent(**kwargs), make_agent(**kwargs)
        reference = ReferenceTrainer(twin)
        for step in range(200):
            batch_size = 17 if step % 50 == 49 else 64  # the reused arrays change size
            batch = sampler.sample(batch_size)
            _, td_errors = agent.train_step(batch)
            assert np.array_equal(td_errors, reference.step(batch))
            sampler.update_priorities(batch.indices, td_errors, 0)
        for net, adam, ref_net in (
            (agent.actor, agent.actor_adam, twin.actor),
            (agent.critic, agent.critic_adam, twin.critic),
        ):
            m, v, _ = reference.moments[id(ref_net)]
            assert np.array_equal(net.params, ref_net.params)
            assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
            assert adam.step_count == 200
        assert np.array_equal(agent.target_actor.params, twin.target_actor.params)
        assert np.array_equal(agent.target_critic.params, twin.target_critic.params)

    def test_batch_contract(self):
        buf = fill_buffer()
        agent = make_agent()
        sampler = UniformSampler(buf, np.random.default_rng(2))
        for _ in range(5):
            batch = sampler.sample(64)
            _, td = agent.train_step(batch)
            assert len(batch.indices) == 64
            assert td.shape == (64,)
