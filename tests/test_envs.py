"""Environment dynamics, determinism, and boundedness tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from replay_opt.envs import Pendulum, PointReacher, make_env
from replay_opt.errors import ConfigError, ContractViolation


class TestSpecs:
    def test_pendulum_spec(self):
        assert Pendulum.OBS_DIM == 3
        assert Pendulum.ACTION_DIM == 1
        assert Pendulum.ACTION_HIGH == 2.0 and type(Pendulum.ACTION_HIGH) is float
        assert Pendulum.MAX_EPISODE_STEPS == 200

    def test_point_reacher_spec(self):
        assert PointReacher.OBS_DIM == 2
        assert PointReacher.ACTION_DIM == 1
        assert PointReacher.ACTION_HIGH == 1.0 and type(PointReacher.ACTION_HIGH) is float
        assert PointReacher.MAX_EPISODE_STEPS == 200

    @pytest.mark.parametrize("name", ["pendulum", "point_reacher"])
    def test_step_returns_four_plain_values(self, name):
        env = make_env(name)
        env.reset(seed=0)
        next_obs, reward, done, truncated = env.step(0.0)
        assert next_obs.shape == (env.OBS_DIM,) and next_obs.dtype == np.float64
        assert type(reward) is float
        assert done is False and truncated is False

    def test_make_env(self):
        assert isinstance(make_env("pendulum"), Pendulum)
        assert isinstance(make_env("point_reacher"), PointReacher)
        with pytest.raises(ConfigError):
            make_env("mujoco_halfcheetah")


class TestReset:
    def test_pendulum_trig_identity(self):
        env = Pendulum()
        obs = env.reset(seed=42)
        assert abs(obs[0] ** 2 + obs[1] ** 2 - 1.0) < 1e-12

    def test_same_seed_same_initial_obs(self):
        a = Pendulum().reset(seed=5)
        b = Pendulum().reset(seed=5)
        assert np.array_equal(a, b)

    def test_reacher_starts_at_rest_left_of_center(self):
        for seed in range(10):
            obs = PointReacher().reset(seed=seed)
            assert -1.0 <= obs[0] <= -0.5
            assert obs[1] == 0.0

    def test_consecutive_resets_continue_the_stream(self):
        env = Pendulum()
        first = env.reset(seed=3)
        second = env.reset()
        assert not np.array_equal(first, second)


class TestPendulumStep:
    def test_upright_fixed_point(self):
        env = Pendulum()
        env.reset(seed=0)
        env.theta = 0.0
        env.theta_dot = 0.0
        _, reward, done, truncated = env.step(0.0)
        assert env.theta == 0.0 and env.theta_dot == 0.0
        assert reward == 0.0
        assert not done and not truncated

    def test_hanging_down_reward(self):
        # at theta=pi with no velocity and no torque, sin(pi) vanishes so the
        # state stays put and the cost is the squared wrapped angle, pi^2
        env = Pendulum()
        env.reset(seed=0)
        env.theta = math.pi
        env.theta_dot = 0.0
        _, reward, _, _ = env.step(0.0)
        assert reward == pytest.approx(-math.pi**2, abs=1e-9)

    def test_action_clamped_before_use(self):
        env_a, env_b = Pendulum(), Pendulum()
        env_a.reset(seed=1)
        env_b.reset(seed=1)
        obs_a, reward_a, _, _ = env_a.step(100.0)
        obs_b, reward_b, _, _ = env_b.step(2.0)
        assert np.array_equal(obs_a, obs_b)
        assert reward_a == reward_b

    def test_truncates_at_200_and_refuses_further_steps(self):
        env = Pendulum()
        env.reset(seed=0)
        for i in range(200):
            _, _, done, truncated = env.step(0.0)
            assert done is False
            assert truncated == (i == 199)
        with pytest.raises(ContractViolation):
            env.step(0.0)

    def test_reward_bounds(self):
        env = Pendulum()
        env.reset(seed=7)
        lo = -(math.pi**2 + 0.1 * 64.0 + 0.001 * 4.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            _, reward, _, _ = env.step(rng.uniform(-2, 2))
            assert lo <= reward <= 0.0

    def test_non_finite_action_rejected(self):
        env = Pendulum()
        env.reset(seed=0)
        with pytest.raises(ContractViolation):
            env.step(float("nan"))


class TestPointReacherStep:
    def test_done_when_within_goal_radius(self):
        env = PointReacher()
        env.reset(seed=0)
        env.position = 0.795
        env.velocity = 0.0
        _, _, done, _ = env.step(0.01)
        assert abs(env.position - 0.8) < 0.02
        assert done is True
        with pytest.raises(ContractViolation):
            env.step(0.0)

    def test_velocity_and_position_clamped(self):
        env = PointReacher()
        env.reset(seed=0)
        env.position = -1.0
        env.velocity = -2.0
        next_obs, _, _, _ = env.step(-1.0)
        assert env.velocity >= -2.0
        assert env.position >= -1.0
        assert np.all(np.isfinite(next_obs))

    def test_reward_is_negative_distance(self):
        env = PointReacher()
        env.reset(seed=3)
        _, reward, _, _ = env.step(0.5)
        assert reward == -abs(env.position - 0.8)

    def test_truncation_at_200(self):
        env = PointReacher()
        env.reset(seed=0)
        env.position = -1.0
        truncated = None
        for _ in range(200):
            _, _, _, truncated = env.step(-1.0)  # push away from the goal, never terminal
        assert truncated is True


class TestTrajectoryDeterminism:
    @pytest.mark.parametrize("name", ["pendulum", "point_reacher"])
    def test_identical_seed_and_actions_identical_trajectory(self, name):
        def rollout():
            env = make_env(name)
            obs = [env.reset(seed=123)]
            rewards = []
            act_rng = np.random.default_rng(9)
            for _ in range(150):
                next_obs, reward, done, truncated = env.step(act_rng.uniform(-1, 1))
                obs.append(next_obs)
                rewards.append(reward)
                if done or truncated:
                    obs.append(env.reset())
            return np.concatenate(obs), np.array(rewards)

        o1, r1 = rollout()
        o2, r2 = rollout()
        assert np.array_equal(o1, o2)
        assert np.array_equal(r1, r2)


def test_pendulum_no_nan_over_a_million_random_steps():
    env = Pendulum()
    env.reset(seed=0)
    steps = 0
    episode = 0
    while steps < 1_000_000:
        _, reward, _, truncated = env.step(0.0)
        steps += 1
        assert math.isfinite(reward)
        if truncated:
            episode += 1
            env.reset()
    assert episode == 5000
