"""Roll out both built-in tasks and print their episodic interface in action.

Run: python3 demos/environments.py
"""

import numpy as np

from replay_opt import make_env

print("== Pendulum: swing-up with random torques ==")
env = make_env("pendulum")
print(f"obs_dim={env.OBS_DIM} action_dim={env.ACTION_DIM} "
      f"bounds=[{-env.ACTION_HIGH}, {env.ACTION_HIGH}] "
      f"max_steps={env.MAX_EPISODE_STEPS}")

obs = env.reset(seed=7)
rng = np.random.default_rng(7)
total = 0.0
for step in range(200):
    obs, reward, done, truncated = env.step(rng.uniform(-2, 2))
    total += reward
    if step % 50 == 0:
        cos_t, sin_t, vel = obs
        print(f"  step {step:3d}: cos={cos_t:+.2f} sin={sin_t:+.2f} vel={vel:+.2f} r={reward:+.2f}")
print(f"random-policy episode return: {total:.1f} (truncated={truncated})")

print("\n== PointReacher: push a damped mass to the goal at 0.8 ==")
env = make_env("point_reacher")
obs = env.reset(seed=3)
print(f"start position {obs[0]:+.3f}, velocity {obs[1]:+.3f}")
steps = 0
while True:
    obs, reward, done, truncated = env.step(1.0)  # full force toward the goal
    steps += 1
    if done or truncated:
        break
print(f"constant full force reaches the goal in {steps} steps "
      f"(done={done}, final reward {reward:+.4f})")

print("\nDeterminism: same seed, same trajectory")
a = make_env("pendulum")
b = make_env("pendulum")
obs_a, obs_b = a.reset(seed=42), b.reset(seed=42)
same = all(
    np.array_equal(a.step(0.5)[0], b.step(0.5)[0]) for _ in range(100)
)
print(f"100 identical steps -> identical observations: {same}")
