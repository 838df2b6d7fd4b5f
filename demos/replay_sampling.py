"""Compare the buffer's sampling strategies against their analytic targets:
uniform draws, proportional prioritization on the sum tree, and the
rank-based power law.

Run: python3 demos/replay_sampling.py
"""

import numpy as np

from replay_opt import PerProportionalSampler, PerRankSampler, ReplayBuffer, UniformSampler

rng = np.random.default_rng(0)
N = 1000
buf = ReplayBuffer(N, obs_dim=2, action_dim=1)
for i in range(N):
    buf.store(
        state=rng.normal(size=2),
        action=rng.normal(size=1),
        reward=float(rng.normal()),
        next_state=rng.normal(size=2),
        done=False,
        insert_timestep=i + 1,
    )
tds = rng.exponential(size=N)  # spread of TD magnitudes, written by the proportional sampler

print(f"buffer: {len(buf)} transitions, capacity {buf.capacity}\n")

print("== Uniform: every slot equally likely ==")
uni = UniformSampler(buf, np.random.default_rng(1))
counts = np.bincount(uni.sample(100_000).indices, minlength=N)
print(f"expected 100 draws per slot; observed min={counts.min()} max={counts.max()}")

print("\n== Proportional: mass (|td| + eps)^alpha on the sum tree ==")
prop = PerProportionalSampler(buf, np.random.default_rng(2), alpha=0.6, beta0=0.4, epsilon=0.01)
prop.update_priorities(np.arange(N), tds, 0)
batch = prop.sample(64)
order = np.argsort(-buf.td_errors[:N])
hot, cold = order[0], order[-1]
masses = prop.tree.leaf_masses()[:N]
print(f"highest |td| slot mass {masses[hot]:.3f}, lowest {masses[cold]:.3f}")
print(f"importance weights in ({batch.is_weights.min():.3f}, {batch.is_weights.max():.3f}]")

counts = np.bincount(prop.sample(100_000).indices, minlength=N)
print(f"hot slot drawn {counts[hot]} times, cold slot {counts[cold]} times")

print("\n== Rank-based: p(rank) ~ rank^-alpha ==")
rank = PerRankSampler(buf, np.random.default_rng(3), alpha=0.7)
counts = np.bincount(rank.sample(100_000).indices, minlength=N)
z = np.sum(np.arange(1, N + 1, dtype=float) ** -0.7)
for r in (1, 2, 10, 100):
    slot = rank._sorted_slots[r - 1]
    analytic = (r**-0.7) / z
    print(f"rank {r:3d}: empirical {counts[slot] / 100_000:.5f}  analytic {analytic:.5f}")
