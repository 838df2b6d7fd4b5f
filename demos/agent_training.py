"""A short end-to-end training run on the pendulum, then the same comparison
the `replay-opt compare` command automates.

Run: python3 demos/agent_training.py   (about a minute of compute)
"""

from replay_opt import RunConfig, run, run_suite, summarize

print("== Single run: learned replay policy on the pendulum ==")
config = RunConfig(
    env="pendulum",
    sampler="ero",
    total_timesteps=12_000,
    seed=0,
    buffer_capacity=20_000,
    trace_interval=200,
)
summary = run(config)
print(f"episodes: {len(summary.episodes)}, wall: {summary.wall_seconds:.1f}s")
for rec in summary.episodes[:: max(1, len(summary.episodes) // 6)]:
    rr = "  --  " if rec.replay_reward is None else f"{rec.replay_reward:+6.1f}"
    print(
        f"  ep {rec.episode:3d} @ step {rec.global_step:5d}: return {rec.episode_return:8.1f} "
        f"window {rec.rc_window:8.1f} replay_reward {rr} subset {rec.subset_size}"
    )

print("\ntrace of what the agent trained on (every 200 training steps):")
for t in summary.traces[:5]:
    print(
        f"  step {t.global_step:5d}: mean|td|={t.mean_abs_td:6.2f} "
        f"age={t.mean_step_diff:7.1f} reward={t.mean_reward:7.2f}"
    )

print("\n== Two-seed uniform vs learned replay comparison ==")
configs = [
    RunConfig(env="pendulum", sampler=sampler, total_timesteps=8_000, seed=seed,
              buffer_capacity=20_000, config_id=sampler)
    for sampler in ("uniform", "ero")
    for seed in (0, 1)
]
rows = summarize(run_suite(configs))
for row in sorted(rows, key=lambda r: -r.final_mean):
    print(f"  {row.config_id:8s} seeds={row.seed_count} final={row.final_mean:8.1f} +- {row.final_std:.1f}")
print("(short runs; see configs/compare_all.cfg for a fuller comparison)")
