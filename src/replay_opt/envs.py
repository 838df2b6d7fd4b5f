"""Desk-scale continuous-control tasks with a gym-style episodic interface.

Both environments are deterministic given the reset seed, keep all state in
plain floats, and distinguish time-limit truncation from genuine terminal
states so the critic can bootstrap correctly through truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation
from .seeding import as_generator

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EnvSpec:
    obs_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    max_episode_steps: int


@dataclass
class StepResult:
    next_obs: np.ndarray
    reward: float
    done: bool        # genuine terminal state
    truncated: bool   # time-limit cut, bootstrap through it


def _wrap_angle(theta: float) -> float:
    """Map an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % TWO_PI


def _scalar_action(action, bound: float) -> float:
    u = float(np.asarray(action, dtype=np.float64).reshape(-1)[0])
    if not math.isfinite(u):
        raise ContractViolation(f"action must be finite, got {u}")
    return min(max(u, -bound), bound)


class Pendulum:
    """Torque-limited swing-up: keep the pole upright, penalize angle,
    speed, and effort. Never terminates, only truncates at 200 steps.

    State is (angle theta, angular velocity theta_dot) with theta = 0
    upright; the observation is [cos(theta), sin(theta), theta_dot].
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0
    MAX_EPISODE_STEPS = 200

    def __init__(self):
        self._rng = np.random.default_rng()
        self.theta = 0.0
        self.theta_dot = 0.0
        self._steps = 0
        self._live = False

    @classmethod
    def spec(cls) -> EnvSpec:
        return EnvSpec(
            obs_dim=3,
            action_dim=1,
            action_low=np.array([-cls.MAX_TORQUE]),
            action_high=np.array([cls.MAX_TORQUE]),
            max_episode_steps=cls.MAX_EPISODE_STEPS,
        )

    def _obs(self) -> np.ndarray:
        return np.array([math.cos(self.theta), math.sin(self.theta), self.theta_dot])

    def reset(self, seed=None) -> np.ndarray:
        if seed is not None:
            self._rng = as_generator(seed)
        self.theta = self._rng.uniform(-math.pi, math.pi)
        self.theta_dot = self._rng.uniform(-1.0, 1.0)
        self._steps = 0
        self._live = True
        return self._obs()

    def step(self, action) -> StepResult:
        if not self._live:
            raise ContractViolation("step() after episode end; call reset() first")
        u = _scalar_action(action, self.MAX_TORQUE)
        g, m, l, dt = self.GRAVITY, self.MASS, self.LENGTH, self.DT
        accel = 3.0 * g / (2.0 * l) * math.sin(self.theta) + 3.0 / (m * l * l) * u
        self.theta_dot = min(max(self.theta_dot + accel * dt, -self.MAX_SPEED), self.MAX_SPEED)
        self.theta = self.theta + self.theta_dot * dt
        reward = -(
            _wrap_angle(self.theta) ** 2
            + 0.1 * self.theta_dot**2
            + 0.001 * u**2
        )
        self._steps += 1
        truncated = self._steps >= self.MAX_EPISODE_STEPS
        if truncated:
            self._live = False
        return StepResult(next_obs=self._obs(), reward=reward, done=False, truncated=truncated)


class PointReacher:
    """Damped point mass on a line pushing toward a fixed goal at 0.8.

    Reward is the negative distance to the goal; the episode ends early once
    the mass is within 0.02 of the goal, otherwise truncates at 200 steps.
    """

    GOAL = 0.8
    DT = 0.05
    DAMPING = 0.05
    MAX_FORCE = 1.0
    MAX_SPEED = 2.0
    GOAL_RADIUS = 0.02
    MAX_EPISODE_STEPS = 200

    def __init__(self):
        self._rng = np.random.default_rng()
        self.position = 0.0
        self.velocity = 0.0
        self._steps = 0
        self._live = False

    @classmethod
    def spec(cls) -> EnvSpec:
        return EnvSpec(
            obs_dim=2,
            action_dim=1,
            action_low=np.array([-cls.MAX_FORCE]),
            action_high=np.array([cls.MAX_FORCE]),
            max_episode_steps=cls.MAX_EPISODE_STEPS,
        )

    def _obs(self) -> np.ndarray:
        return np.array([self.position, self.velocity])

    def reset(self, seed=None) -> np.ndarray:
        if seed is not None:
            self._rng = as_generator(seed)
        self.position = self._rng.uniform(-1.0, -0.5)
        self.velocity = 0.0
        self._steps = 0
        self._live = True
        return self._obs()

    def step(self, action) -> StepResult:
        if not self._live:
            raise ContractViolation("step() after episode end; call reset() first")
        u = _scalar_action(action, self.MAX_FORCE)
        self.velocity = min(
            max(self.velocity * (1.0 - self.DAMPING) + u * self.DT, -self.MAX_SPEED),
            self.MAX_SPEED,
        )
        self.position = min(max(self.position + self.velocity * self.DT, -1.0), 1.0)
        reward = -abs(self.position - self.GOAL)
        self._steps += 1
        done = abs(self.position - self.GOAL) < self.GOAL_RADIUS
        truncated = self._steps >= self.MAX_EPISODE_STEPS
        if done or truncated:
            self._live = False
        return StepResult(next_obs=self._obs(), reward=reward, done=done, truncated=truncated)


ENVS = {"pendulum": Pendulum, "point_reacher": PointReacher}  # each class's ``spec`` needs no instance
ENV_NAMES = tuple(ENVS)


def make_env(name: str):
    if name not in ENVS:
        raise ConfigError(f"unknown environment {name!r}, expected one of {ENV_NAMES}")
    return ENVS[name]()
