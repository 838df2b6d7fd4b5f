"""Per-call cost of the replay and agent operations a train step is made of.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/per_step_cost.py [--calls N] [--rounds R]
    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/per_step_cost.py --rescore-peak FILL

Prints one JSON document with the median microseconds per call of
``ReplayBuffer.store``, ``PerProportionalSampler.on_store``, ``sample(64)``
and ``update_priorities`` (64 slots) at 1.3k, 10k and 100k live rows in a
100k-slot buffer with the sampler's default settings, and of ``DdpgAgent.act`` at
batch 1 and of one train step at batch 64: a uniform ``sample(64)`` and
``DdpgAgent.train_step`` on its batch (pendulum shapes), and of ERO's
eager ``EroPolicy.refresh_subset`` at 20k and 100k live rows (in ms), with
the growth of the peak RSS (``VmHWM``, KiB) that one such rescore causes in
a fresh process (``--rescore-peak FILL`` prints only that growth, at FILL
rows), and of lazy ERO's two per-call costs at the same fills: one
``store`` with the learned sampler's ``on_store`` (which scores the new
slot; the median of ``--calls`` pairs, each timed alone) and
``EroPolicy.refresh_scores`` on 64 replayed slots. Both ERO
setups' buffer columns are filled directly, not stored transition by
transition. ``store`` and
``on_store`` are timed call by call over ``--calls`` store/on_store pairs
(the median call). ``on_store`` only queues its slot, and the next read of
the sum tree writes the queued slots, so ``store_phase_100`` times a run's
whole store phase: 100 store/on_store pairs, then one ``sample(64)``. Every other figure is the
median over ``--rounds`` rounds of the mean per call, over ``--calls``
calls per round (``--calls`` / 10 phases for ``store_phase_100`` and
rescores for ``refresh_subset_ms``). The
store phases run last, and their stores raise the fill of the two smaller
buffers by 10 x ``--calls`` x ``--rounds`` rows.
Point ``PYTHONPATH`` at another tree's ``src`` to measure that tree with
the same script (one whose ``train_step`` takes a ``Batch``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from replay_opt.ddpg import DdpgAgent, OuNoise
from replay_opt.ero import EroPolicy
from replay_opt.replay import (
    PerProportionalSampler,
    ReplayBuffer,
    SubsetSampler,
    Transition,
    UniformSampler,
)

CAPACITY = 100_000
FILLS = (1_300, 10_000, 100_000)
RESCORE_FILLS = (20_000, 100_000)
OBS_DIM, ACTION_DIM, BATCH = 3, 1, 64
STORE_PHASE = 100  # stores per rollout phase of a run (``RunConfig.rollout_steps``)


def transition(rng: np.random.Generator, step: int) -> Transition:
    return Transition(
        state=rng.normal(size=OBS_DIM),
        action=rng.normal(size=ACTION_DIM),
        reward=float(rng.normal()),
        next_state=rng.normal(size=OBS_DIM),
        done=False,
        insert_timestep=step,
    )


def per_call_us(fn, calls: int, rounds: int) -> float:
    """Median over rounds of the mean microseconds per call."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls * 1e6)
    return round(statistics.median(times), 2)


def replay_costs(fill: int, calls: int, rounds: int) -> dict[str, float]:
    rng = np.random.default_rng(fill)
    buf = ReplayBuffer(CAPACITY, OBS_DIM, ACTION_DIM)
    sampler = PerProportionalSampler(buf, np.random.default_rng(1))
    for step in range(1, fill + 1):
        sampler.on_store(buf.store(transition(rng, step)), step)
    # spread the priorities the way training does: every slot written once
    for start in range(0, fill, BATCH):
        idx = np.arange(start, min(start + BATCH, fill))
        sampler.update_priorities(idx, rng.normal(size=len(idx)), 0)

    # store and on_store in pairs, as a run makes them, each call timed alone
    store_us, on_store_us = [], []
    for step in range(fill + 1, fill + 1 + calls):
        t = transition(rng, step)
        start = time.perf_counter()
        idx = buf.store(t)
        middle = time.perf_counter()
        sampler.on_store(idx, step)
        store_us.append((middle - start) * 1e6)
        on_store_us.append((time.perf_counter() - middle) * 1e6)
    costs = {
        "store": round(statistics.median(store_us), 2),
        "on_store": round(statistics.median(on_store_us), 2),
        "sample_64": per_call_us(lambda: sampler.sample(BATCH), calls, rounds),
    }
    batches = [sampler.sample(BATCH) for _ in range(calls * rounds)]
    tds = iter(rng.normal(size=(calls * rounds, BATCH)))
    drawn = iter(batches)

    def update():
        batch = next(drawn)
        sampler.update_priorities(batch.indices, next(tds), 0)

    costs["update_priorities_64"] = per_call_us(update, calls, rounds)

    stored = itertools.cycle([transition(rng, step) for step in range(1, STORE_PHASE + 1)])

    def store_phase():
        for _ in range(STORE_PHASE):
            sampler.on_store(buf.store(next(stored)), 0)
        sampler.sample(BATCH)

    costs["store_phase_100"] = per_call_us(store_phase, max(calls // 10, 1), rounds)
    return costs


def agent_costs(calls: int, rounds: int) -> dict[str, float]:
    rng = np.random.default_rng(0)
    agent = DdpgAgent(OBS_DIM, ACTION_DIM, np.array([2.0]), actor_seed=0, critic_seed=1)
    buf = ReplayBuffer(10_000, OBS_DIM, ACTION_DIM)
    for step in range(1, 5_001):
        buf.store(transition(rng, step))
    sampler = UniformSampler(buf, np.random.default_rng(2))
    noise = OuNoise(ACTION_DIM, rng=3)
    obs = rng.normal(size=OBS_DIM)
    for _ in range(20):  # warm the agent's reused arrays
        agent.train_step(sampler.sample(BATCH))
    return {
        "act_batch1": per_call_us(lambda: agent.act(obs, noise), calls, rounds),
        "train_step_batch64": per_call_us(lambda: agent.train_step(sampler.sample(BATCH)), calls, rounds),
    }


def peak_kib() -> int:
    """This process's peak resident set (``VmHWM``) in KiB."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


def rescore_setup(fill: int, lazy: bool = False):
    """A policy, a ``fill``-row buffer of ``CAPACITY`` slots and its learned sampler.

    The columns the rescore reads are written in place, in blocks, so that
    no temporary of ``fill`` rows raises the peak before the rescore runs.
    The policy has drawn one mask over a two-row buffer, so its code is
    loaded and its score net's workspace mapped; with ``lazy`` it switches
    to lazy mode after that draw, so its score cache is mapped for this
    buffer.
    """
    rng = np.random.default_rng(fill)
    policy = EroPolicy(init_seed=0, draw_rng=1)
    small = ReplayBuffer(2, OBS_DIM, ACTION_DIM)
    small.size = 2
    policy.refresh_subset(small, 2, SubsetSampler(small, rng, policy))
    buf = ReplayBuffer(CAPACITY, OBS_DIM, ACTION_DIM)
    rng.standard_normal(out=buf.rewards[:fill])
    rng.standard_normal(out=buf.td_errors[:fill])
    for start in range(0, fill, 4096):
        stop = min(start + 4096, fill)
        buf.insert_timesteps[start:stop] = np.arange(start + 1, stop + 1)
    buf.size, buf.cursor = fill, fill % CAPACITY
    for idx in range(1000):
        policy.normalizer.update((buf.rewards[idx], buf.td_errors[idx]))
    policy.lazy_refresh = lazy
    return policy, buf, SubsetSampler(buf, rng, policy)


def rescore_peak_growth_kib(fill: int) -> int:
    """KiB by which one eager rescore at ``fill`` live rows raises this process's peak."""
    policy, buf, sampler = rescore_setup(fill)
    before = peak_kib()
    policy.refresh_subset(buf, fill, sampler)
    return peak_kib() - before


def rescore_costs(fill: int, calls: int, rounds: int) -> dict[str, float]:
    policy, buf, sampler = rescore_setup(fill)
    us = per_call_us(lambda: policy.refresh_subset(buf, fill, sampler), max(calls // 10, 1), rounds)
    # a fresh process, whose peak no earlier figure has raised
    child = subprocess.run([sys.executable, __file__, "--rescore-peak", str(fill)],
                           capture_output=True, text=True, check=True)
    return {"refresh_subset_ms": round(us / 1000, 3), "peak_growth_kib": int(child.stdout)}


def lazy_costs(fill: int, calls: int, rounds: int) -> dict[str, float]:
    policy, buf, sampler = rescore_setup(fill, lazy=True)
    rng = np.random.default_rng(fill + 1)
    # a store and its on_store, timed together call by call, as in a run's rollout
    on_store_us = []
    for step in range(fill + 1, fill + 1 + calls):
        t = transition(rng, step)
        start = time.perf_counter()
        sampler.on_store(buf.store(t), step)
        on_store_us.append((time.perf_counter() - start) * 1e6)
    replayed = iter(rng.integers(0, len(buf), size=(calls * rounds, BATCH)))
    step = fill + calls
    return {
        "store_on_store": round(statistics.median(on_store_us), 2),
        "refresh_scores_64": per_call_us(lambda: policy.refresh_scores(buf, next(replayed), step), calls, rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300, help="calls per round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds per figure")
    parser.add_argument("--rescore-peak", type=int, metavar="FILL",
                        help="print only the peak growth (KiB) of one rescore at FILL live rows")
    args = parser.parse_args(argv)
    if args.rescore_peak is not None:
        if not 0 < args.rescore_peak <= CAPACITY:
            parser.error(f"--rescore-peak must be in 1..{CAPACITY}, got {args.rescore_peak}")
        print(rescore_peak_growth_kib(args.rescore_peak))
        return 0
    report = {
        "host": {"python": platform.python_version(), "numpy": np.__version__},
        "unit": "us per call",
        "replay": {str(fill): replay_costs(fill, args.calls, args.rounds) for fill in FILLS},
        "agent": agent_costs(args.calls, args.rounds),
        "ero_rescore": {str(fill): rescore_costs(fill, args.calls, args.rounds) for fill in RESCORE_FILLS},
        "ero_lazy": {str(fill): lazy_costs(fill, args.calls, args.rounds) for fill in RESCORE_FILLS},
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
