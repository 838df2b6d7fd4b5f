"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s``. The two learning-curve
criteria carry the ``expensive`` marker (minutes of compute) and share one set
of pendulum runs; everything else finishes in seconds.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from replay_opt import harness
from replay_opt.ddpg import DdpgAgent, td_loss
from replay_opt.ero import EroPolicy, mask_surrogate
from replay_opt.harness import EpisodeRecord, RunConfig, TraceRecord, read_csv, run
from replay_opt.nn import Mlp, grad_check, mlp_init
from replay_opt.replay import (
    PerProportionalSampler,
    PerRankSampler,
    ReplayBuffer,
    SubsetSampler,
    Transition,
)


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {name}: PASS")


def small_agent(seed: int) -> DdpgAgent:
    return DdpgAgent(
        obs_dim=3,
        action_dim=1,
        action_high=np.array([2.0]),
        hidden_sizes=(8, 8),
        actor_seed=seed,
        critic_seed=seed + 1000,
    )


def random_buffer(n: int, capacity: int | None = None, seed: int = 0, obs_dim: int = 3) -> ReplayBuffer:
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity or n, obs_dim=obs_dim, action_dim=1)
    for i in range(n):
        buf.store(
            Transition(
                state=rng.normal(size=obs_dim),
                action=rng.uniform(-1, 1, size=1),
                reward=float(rng.normal()),
                next_state=rng.normal(size=obs_dim),
                done=bool(rng.random() < 0.1),
                insert_timestep=i + 1,
            )
        )
    return buf


def test_c01_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    trials = 20

    # dense nets over every activation used in the repo
    acts = ("tanh", "relu", "sigmoid", "linear")
    for trial in range(trials):
        sizes = [3, int(rng.integers(4, 9)), 2]
        hidden = acts[trial % 3]
        net = mlp_init(sizes, [hidden, acts[trial % 4]], seed=trial)
        x = rng.normal(size=(4, 3))
        coeff = rng.normal(size=(4, 2))

        def loss_fn(y, coeff=coeff):
            return float((coeff * y).sum()), coeff.copy()

        assert grad_check(net, loss_fn, x) < 1e-4, f"mlp trial {trial}"

    # critic TD loss with IS weights, through the function the agent trains with
    for trial in range(trials):
        agent = small_agent(trial)
        states = rng.normal(size=(5, 3))
        actions = rng.uniform(-2, 2, size=(5, 1))
        targets = agent.critic_targets(
            rng.normal(size=5), rng.normal(size=(5, 3)), rng.random(5) < 0.4
        )
        weights = rng.uniform(0.1, 1.0, size=5)
        x = np.hstack([states, actions])
        err = grad_check(agent.critic, lambda q: td_loss(q, targets, weights), x)
        assert err < 1e-4, f"critic trial {trial}: {err}"

    # actor objective through the frozen critic
    from replay_opt.gradchecks import _states_away_from_kinks

    for trial in range(trials):
        agent = small_agent(trial + 500)
        agent.actor.weights[-1][...] = rng.uniform(-0.5, 0.5, agent.actor.weights[-1].shape)
        agent.actor.biases[-1][...] = rng.uniform(-0.5, 0.5, agent.actor.biases[-1].shape)
        states = _states_away_from_kinks(agent, rng)
        err = grad_check(agent.actor, lambda head: agent.actor_loss(states, head), states)
        assert err < 1e-4, f"actor trial {trial}: {err}"

    # mask-likelihood surrogate for the replay policy
    for trial in range(trials):
        net = mlp_init([3, 6, 1], ["relu", "sigmoid"], seed=trial + 900)
        feats = rng.normal(size=(6, 3))
        bits = rng.integers(0, 2, size=6).astype(float)
        reward = float(rng.normal())
        err = grad_check(net, lambda y: mask_surrogate(y, bits, reward), feats)
        assert err < 1e-4, f"surrogate trial {trial}: {err}"

    assert time.perf_counter() - start < 30.0
    report(1, "gradient suite (mlp, critic, actor chain, replay surrogate)")


def test_c02_soft_update_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for tau in (1.0, 0.5, 0.001):
        agent = small_agent(7)
        agent.tau = tau
        for net in (agent.actor, agent.critic, agent.target_actor, agent.target_critic):
            for w in net.weights:
                w[:] = rng.normal(size=w.shape)
            for b in net.biases:
                b[:] = rng.normal(size=b.shape)
        expected = {
            id(t): [tau * o + (1 - tau) * tp for o, tp in zip(online.weights, t.weights)]
            for t, online in (
                (agent.target_actor, agent.actor),
                (agent.target_critic, agent.critic),
            )
        }
        agent.soft_update()
        for target, online in ((agent.target_actor, agent.actor), (agent.target_critic, agent.critic)):
            for got, want in zip(target.weights, expected[id(target)]):
                assert np.max(np.abs(got - want)) <= 1e-15
            if tau == 1.0:
                for got, onl in zip(target.weights, online.weights):
                    assert np.array_equal(got, onl)
    assert time.perf_counter() - start < 1.0
    report(2, "soft-update convex blend exact, tau=1 copies")


def test_c03_bernoulli_mask_statistics():
    start = time.perf_counter()
    n = 10_000
    buf = random_buffer(n, seed=3)
    policy = EroPolicy(lazy_refresh=True, init_seed=3, draw_rng=np.random.default_rng(33))
    policy.cached_scores(buf)[:n] = 0.5  # lambda fixed at one half
    subset = SubsetSampler(buf, np.random.default_rng(3), policy)

    refreshes = 200
    sizes = np.zeros(refreshes)
    inclusion = np.zeros(n)
    for k in range(refreshes):
        sizes[k] = policy.refresh_subset(buf, n, subset)
        inclusion += subset.mask_drawn[:n]

    mean_bound = 3 * (50 / np.sqrt(refreshes))
    assert abs(sizes.mean() - 5000) <= mean_bound, f"mean {sizes.mean()} outside {mean_bound}"

    freq = inclusion / refreshes
    sigma = 0.5 / np.sqrt(refreshes)
    assert np.max(np.abs(freq - 0.5)) < 5 * sigma
    assert time.perf_counter() - start < 10.0
    report(3, "Bernoulli mask size and per-slot inclusion statistics")


def test_c04_reinforce_sign_property(monkeypatch):
    start = time.perf_counter()
    for trial in range(50):
        def fresh(buf_seed):
            buf = random_buffer(10, seed=buf_seed)
            policy = EroPolicy(
                hidden_sizes=(8, 8),
                init_seed=buf_seed,
                draw_rng=np.random.default_rng(buf_seed + 1),
            )
            subset = SubsetSampler(buf, np.random.default_rng(buf_seed), policy)
            policy.refresh_subset(buf, 10, subset)
            return buf, policy, subset

        def mask_log_likelihood(policy, buf, subset, indices):
            feats = policy.features(buf, indices, current_step=10)
            phi = np.clip(policy.score(feats), 1e-8, 1 - 1e-8)
            bits = subset.mask_drawn[indices].astype(float)
            return float(np.sum(bits * np.log(phi) + (1 - bits) * np.log(1 - phi)))

        for reward, expect in ((1.0, "up"), (-1.0, "down"), (0.0, "same")):
            buf, policy, subset = fresh(trial)
            net = policy.score_net
            before_net = Mlp(net.layer_sizes, net.activations, net.params.copy())
            featured = []  # the slots the update step reads features for
            features = policy.features

            def recording_features(buffer, indices, current_step):
                featured.append(indices)
                return features(buffer, indices, current_step)

            with monkeypatch.context() as patch:
                patch.setattr(policy, "features", recording_features)
                policy.update_policy(buf, reward, 10, subset)
            (idx,) = featured
            after = mask_log_likelihood(policy, buf, subset, idx)
            saved = policy.score_net
            policy.score_net = before_net
            before = mask_log_likelihood(policy, buf, subset, idx)
            policy.score_net = saved
            if expect == "up":
                assert after > before, f"trial {trial}: {after} <= {before}"
            elif expect == "down":
                assert after < before, f"trial {trial}: {after} >= {before}"
            else:
                for a, b in zip(policy.score_net.weights, before_net.weights):
                    assert np.array_equal(a, b)
    assert time.perf_counter() - start < 5.0
    report(4, "mask-likelihood moves with the replay reward's sign")


def test_c05_sum_tree_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    capacity = 512
    buf = ReplayBuffer(capacity, obs_dim=3, action_dim=1)
    alpha, epsilon = 0.6, 0.01
    sampler = PerProportionalSampler(buf, np.random.default_rng(55), alpha=alpha, epsilon=epsilon)
    brute = np.zeros(capacity)

    step = 0
    for op in range(10_000):
        if buf.size == 0 or rng.random() < 0.3:
            step += 1
            idx = buf.store(
                Transition(
                    state=rng.normal(size=3),
                    action=rng.normal(size=1),
                    reward=float(rng.normal()),
                    next_state=rng.normal(size=3),
                    done=False,
                    insert_timestep=step,
                )
            )
            sampler.on_store(idx, step)
            brute[idx] = (abs(buf.td_errors[idx]) + epsilon) ** alpha
        else:
            idx = int(rng.integers(0, buf.size))
            td = float(rng.normal() * 3)
            sampler.update_priorities(np.array([idx]), np.array([td]), 0)
            brute[idx] = (abs(td) + epsilon) ** alpha

    # leaf masses agree exactly with the brute-force array
    assert np.array_equal(sampler.tree.leaf_masses(), brute)

    # internal-node audit against recomputed subtree sums
    nodes = sampler.tree.nodes
    for node in range(len(nodes) - 2, -1, -1):
        left, right = 2 * node + 1, 2 * node + 2
        if left >= len(nodes):
            continue
        want = nodes[left] + nodes[right]
        assert abs(nodes[node] - want) <= 1e-9 * max(1.0, abs(want))

    # a million stratified draws: the tree descent and the brute-force
    # prefix-sum inversion pick identical leaves, and frequencies match the
    # analytic distribution
    draws = 1_000_000
    u = np.random.default_rng(555).random(draws)
    values = (np.arange(draws) + u) / draws * sampler.tree.total()
    via_tree = sampler.tree.find(values)
    via_prefix = np.searchsorted(np.cumsum(brute), values, side="right")
    assert np.array_equal(via_tree, via_prefix)
    counts = np.bincount(via_tree, minlength=capacity)
    probs = brute / brute.sum()
    for i in np.flatnonzero(probs >= 0.001):
        assert abs(counts[i] / draws - probs[i]) / probs[i] < 0.02, f"leaf {i}"
    assert time.perf_counter() - start < 60.0
    report(5, "sum tree equals prefix-sum oracle, draw frequencies analytic")


def test_c06_rank_distribution():
    start = time.perf_counter()
    n, alpha = 10_000, 0.7
    buf = random_buffer(n, seed=6)
    buf.update_td_errors(np.arange(n), np.random.default_rng(66).random(n))
    sampler = PerRankSampler(buf, np.random.default_rng(666), alpha=alpha)

    # one stratified call covering all draws keeps every top rank's count
    # within a couple of strata of its expectation
    draws = 100_000
    counts = np.bincount(sampler.sample(draws).indices, minlength=n)

    ranks = np.arange(1, n + 1, dtype=float)
    probs = ranks**-alpha
    probs /= probs.sum()
    for rank in range(10):
        slot = sampler._sorted_slots[rank]
        assert abs(counts[slot] / draws - probs[rank]) / probs[rank] < 0.05, f"rank {rank + 1}"
    assert time.perf_counter() - start < 30.0
    report(6, "rank power-law frequencies match analytic probabilities")


def test_c07_replay_reward_bookkeeping():
    start = time.perf_counter()
    # three records built as Trainer.end_episode builds them
    episodes, stream = [], []
    for ret in (1.0, 2.0, 3.0):
        episodes.append(EpisodeRecord(len(episodes), len(episodes) + 1, ret, 1, rc_window=0.0))
        episodes[-1].rc_window = harness.window_mean(episodes, 100)
        stream.append(harness.replay_reward(episodes))
    assert [e.rc_window for e in episodes] == [1.0, 1.5, 2.0]
    assert stream[0] is None
    assert stream[1] == 0.5
    assert stream[2] == 0.5
    assert time.perf_counter() - start < 1.0
    report(7, "windowed replay-reward stream matches hand computation")


def test_c08_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    for sampler in ("uniform", "per_prop", "per_rank", "ero"):
        cfg = tmp_path / f"{sampler}.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "env = pendulum",
                    f"sampler = {sampler}",
                    "total_timesteps = 5000",
                    "seed = 11",
                    "trace_interval = 200",
                ]
            )
            + "\n"
        )
        # the two invocations run at the same time, as two separate processes
        outputs = [tmp_path / f"{sampler}-{invocation}" for invocation in ("a", "b")]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "replay_opt.cli", "run", "--config", str(cfg), "--out", str(out)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for out in outputs
        ]
        try:
            for proc in procs:
                _, stderr = proc.communicate(timeout=300)
                assert proc.returncode == 0, stderr
        finally:
            for proc in procs:
                proc.kill()  # a no-op once the process has exited
        a, b = outputs
        assert (a / "episodes.csv").read_bytes() == (b / "episodes.csv").read_bytes(), sampler
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes(), sampler
    assert time.perf_counter() - start < 120.0
    report(8, "byte-identical CSVs across process invocations, all samplers")


SAMPLERS, SEEDS = ("uniform", "ero"), (0, 1, 2)
PAIRS = [(sampler, seed) for seed in SEEDS for sampler in SAMPLERS]


def gate_config(sampler: str, seed: int, env: str = "pendulum", steps: int = 150_000) -> RunConfig:
    return RunConfig(
        env=env,
        sampler=sampler,
        total_timesteps=steps,
        seed=seed,
        buffer_capacity=100_000,
        early_stop_window=20,
        early_stop_threshold=-300.0,
    )


def trend_config(sampler: str, seed: int, env: str) -> RunConfig:
    config = gate_config(sampler, seed, env=env, steps=30_000)
    config.early_stop_window = 0
    return config


def gate_step(episodes, window: int, threshold: float) -> int | None:
    """``global_step`` of the episode at which ``run`` would stop early, or None.

    The harness's rule: at an episode end with at least ``window`` episodes,
    the mean return of the last ``window`` (``harness.window_mean``, the
    formula ``Trainer`` stops by) reaches ``threshold``.
    """
    for end in range(window, len(episodes) + 1):
        if harness.window_mean(episodes[:end], window) >= threshold:
            return episodes[end - 1].global_step
    return None


def run_in_workers(configs: list[RunConfig]) -> list:
    """``run`` each config in a spawned worker, at most one per core; the summaries in order.

    Each run is independent and deterministic in its config, so the workers
    change only the wall time. They inherit ``OPENBLAS_NUM_THREADS=1``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OPENBLAS_NUM_THREADS", "1")
        workers = max(1, min(os.cpu_count() or 1, len(configs)))  # an empty list starts no worker
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(run, configs))


@pytest.fixture(scope="module")
def pendulum_runs() -> dict:
    """c10's six pendulum runs, keyed by (sampler, seed); c09 reads them too.

    A longer budget or an early stop only extends or cuts a uniform or ERO
    run's episodes (``test_episode_rows_are_a_prefix_of_a_longer_budget``),
    so these rows are the first 30k steps of c09's runs as well.
    """
    return dict(zip(PAIRS, run_in_workers([trend_config(s, seed, "pendulum") for s, seed in PAIRS])))


@pytest.mark.expensive
def test_c09_desk_scale_learning(pendulum_runs):
    # (reached, steps) per pair: read off the shared run when it reaches the
    # gate, else from c09's own run, which stops early exactly at the gate
    verdicts = {}
    for pair, summary in pendulum_runs.items():
        config = gate_config(*pair)
        step = gate_step(summary.episodes, config.early_stop_window, config.early_stop_threshold)
        if step is not None:
            verdicts[pair] = (True, step)
    rest = [pair for pair in pendulum_runs if pair not in verdicts]
    for pair, summary in zip(rest, run_in_workers([gate_config(*pair) for pair in rest])):
        verdicts[pair] = (summary.stopped_early, summary.total_steps)

    results = {}
    for sampler in SAMPLERS:
        hits = 0
        for seed in SEEDS:
            reached, steps = verdicts[sampler, seed]
            hits += int(reached)
            print(f"  {sampler} seed={seed}: reached={reached} steps={steps}")
        results[sampler] = hits
        assert hits >= 2, f"{sampler} reached the -300 gate on only {hits}/3 seeds"
    report(9, f"learning gate (uniform {results['uniform']}/3, ero {results['ero']}/3 seeds)")


@pytest.mark.expensive
@pytest.mark.xfail(reason="expected trend, not hard-gated", strict=False)
def test_c10_comparative_trend(pendulum_runs):
    def auc(summary) -> float:
        total, prev_step = 0.0, 0
        for rec in summary.episodes:
            total += rec.episode_return * (rec.global_step - prev_step)
            prev_step = rec.global_step
        return total

    reacher = run_in_workers([trend_config(s, seed, "point_reacher") for s, seed in PAIRS])
    runs = {"pendulum": pendulum_runs, "point_reacher": dict(zip(PAIRS, reacher))}
    wins = 0
    for env, summaries in runs.items():
        for seed in SEEDS:
            u, e = (auc(summaries[sampler, seed]) for sampler in SAMPLERS)
            won = e >= u
            wins += int(won)
            print(f"  {env} seed={seed}: uniform={u:.3g} ero={e:.3g} ero_wins={won}")
    assert wins >= 4, f"learned replay won only {wins}/6 (task, seed) pairs"
    report(10, f"learned replay AUC at least uniform's in {wins}/6 pairs")


def test_c11_trace_emission(tmp_path):
    config = RunConfig(
        sampler="ero",
        total_timesteps=3000,
        seed=0,
        buffer_capacity=10_000,
        trace_interval=50,
        out_dir=str(tmp_path),
    )
    summary = run(config)
    from replay_opt.harness import write_trace_csv

    path = tmp_path / "trace.csv"
    write_trace_csv(summary.traces, path)
    records = read_csv(TraceRecord, path)
    assert records, "trace CSV is empty"
    for rec in records:
        assert np.isfinite([rec.mean_abs_td, rec.mean_step_diff, rec.mean_reward]).all()
        assert 0.0 <= rec.mean_step_diff <= rec.global_step
    report(11, "trace CSV finite, step differences bounded by the global step")
