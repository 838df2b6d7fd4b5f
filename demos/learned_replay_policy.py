"""The learned replay policy in isolation: score transitions, draw a mask,
compute the replay reward from the episode records' return window, and watch one policy-gradient
step push scores in the reward's direction. The policy owns the mask it draws;
the learned sampler (``SubsetSampler``) drives it through the sampler hooks and
draws the agent's batches from the subset the mask selects.

Run: python3 demos/learned_replay_policy.py
"""

import numpy as np

from replay_opt import EpisodeRecord, EroPolicy, ReplayBuffer, SubsetSampler
from replay_opt.ero import mask_surrogate
from replay_opt.harness import replay_reward, window_mean

rng = np.random.default_rng(0)
buf = ReplayBuffer(64, obs_dim=2, action_dim=1)
# lazy_refresh keeps per-slot scores in policy.priority_scores (scored at store
# time, rescored when replayed), which is what this demo prints
policy = EroPolicy(lazy_refresh=True, init_seed=0, draw_rng=np.random.default_rng(1))
sampler = SubsetSampler(buf, np.random.default_rng(2), policy)

print("== Store transitions; each gets scored as it arrives ==")
for i in range(32):
    idx = buf.store(
        state=rng.normal(size=2),
        action=rng.normal(size=1),
        reward=float(rng.normal()),
        next_state=rng.normal(size=2),
        done=False,
        insert_timestep=i + 1,
    )
    sampler.on_store(idx, i + 1)  # the sampler shows the policy each stored slot
scores = policy.priority_scores[:32]
print(f"initial scores hover near 0.5: min={scores.min():.3f} max={scores.max():.3f}")

print("\n== Draw a Bernoulli mask over the whole buffer ==")
size = policy.refresh_subset(buf, 32)
print(f"subset holds {size} of {len(buf)} transitions")
print(f"mask bits for the first 16 slots: {policy.mask_drawn[:16].tolist()}")
batch = sampler.sample(8)
print(f"a batch of 8 comes from the subset only: {set(batch.indices) <= set(policy.subset_indices(buf))}")

print("\n== Replay reward from the episode records ==")
# as a run does: each record's rc_window is the mean return of the last 100
# records, and the replay reward is the change in rc_window
episodes = []
for ret in (-1500.0, -1400.0, -1300.0):
    record = EpisodeRecord(len(episodes), 200 * (len(episodes) + 1), ret, 200, rc_window=0.0)
    episodes.append(record)
    record.rc_window = window_mean(episodes, 100)
    reward = replay_reward(episodes)
    shown = "absent" if reward is None else f"{reward:+.1f}"
    print(f"episode return {ret:+.0f} -> window mean {record.rc_window:+.1f}, replay reward {shown}")

print("\n== Policy-gradient steps with a positive replay reward ==")
selected = policy.mask_drawn[:32] == 1
before = policy.priority_scores[:32].copy()


def mask_log_likelihood() -> float:
    # the surrogate the update descends is -replay_reward * log-likelihood
    return -mask_surrogate(policy.priority_scores[:32, None], policy.mask_drawn[:32], 1.0)[0]


log_lik_before = mask_log_likelihood()
for _ in range(200):
    policy.update_policy(buf, 25.0, 32)
policy.refresh_scores(buf, np.arange(32), current_step=32)
after = policy.priority_scores[:32]

print(f"log-likelihood of the drawn mask: {log_lik_before:.3f} -> {mask_log_likelihood():.3f}")
print(f"mean score of selected slots:   {before[selected].mean():.4f} -> {after[selected].mean():.4f}")
print(f"mean score of unselected slots: {before[~selected].mean():.4f} -> {after[~selected].mean():.4f}")
print("a positive reward makes the next mask look like the one that preceded the improvement;")
print("a negative reward pushes the other way")
