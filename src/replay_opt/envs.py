"""Desk-scale continuous-control tasks with a gym-style episodic interface.

Each task class declares its sizes as class attributes (``OBS_DIM``,
``ACTION_DIM``, ``ACTION_HIGH``, ``MAX_EPISODE_STEPS``). ``reset`` returns the
first observation and ``step`` returns ``(next_obs, reward, done, truncated)``,
as Gymnasium's ``step`` does without its ``info``. Both environments are
deterministic given the reset seed, keep all state in plain floats, and
distinguish time-limit truncation (``truncated``) from genuine terminal states
(``done``) so the critic can bootstrap correctly through truncations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ContractViolation
from .seeding import as_generator

TWO_PI = 2.0 * math.pi


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
    OBS_DIM = 3
    ACTION_DIM = 1
    ACTION_HIGH = MAX_TORQUE

    def __init__(self):
        self._rng = np.random.default_rng()
        self.theta = 0.0
        self.theta_dot = 0.0
        self._steps = 0
        self._live = False

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

    def step(self, action) -> tuple[np.ndarray, float, bool, bool]:
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
        return self._obs(), reward, False, truncated


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
    OBS_DIM = 2
    ACTION_DIM = 1
    ACTION_HIGH = MAX_FORCE

    def __init__(self):
        self._rng = np.random.default_rng()
        self.position = 0.0
        self.velocity = 0.0
        self._steps = 0
        self._live = False

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

    def step(self, action) -> tuple[np.ndarray, float, bool, bool]:
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
        return self._obs(), reward, done, truncated


ENVS = {"pendulum": Pendulum, "point_reacher": PointReacher}  # each class's sizes need no instance
ENV_NAMES = tuple(ENVS)


def make_env(name: str):
    if name not in ENVS:
        raise ConfigError(f"unknown environment {name!r}, expected one of {ENV_NAMES}")
    return ENVS[name]()
