"""Compare the tracer's per-layer shares with a cProfile of the same run.

    python3 bench/crosscheck.py [--workload per_prop-point_reacher] [--seed 1]

Runs the workload's training run twice: once under cProfile, once under the
tracer. For the layers whose public functions never call one another
(``replay``, ``nn``, ``envs``), the cProfile share is the cumulative time of
those functions over the cumulative time of ``harness.run``; the traced share
is the layer's summed span self time over the ``harness.run`` span. The two
should roughly agree; cProfile charges every Python call, so it inflates
layers made of many small calls.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workload  # noqa: E402  (puts src/ on the path)
from replay_opt import envs, harness, nn, replay  # noqa: E402
from tracer import Tracer  # noqa: E402

# layer -> (module file, entry-point function names); none calls another
LAYERS = {
    "replay": (replay.__file__, {"store", "sample", "update_priorities", "on_store"}),
    "nn": (nn.__file__, {"forward", "forward_cached", "backward", "adam_step"}),
    "envs": (envs.__file__, {"step", "reset"}),
}


def profiled_shares(config) -> dict[str, float]:
    profile = cProfile.Profile()
    profile.runcall(harness.run, config)
    stats = pstats.Stats(profile).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    total = sum(v[3] for (f, _, name), v in stats.items()
                if f == harness.__file__ and name == "run")
    return {
        layer: sum(v[3] for (f, _, name), v in stats.items() if f == path and name in names) / total
        for layer, (path, names) in LAYERS.items()
    }


def traced_shares(config) -> dict[str, float]:
    tracer = Tracer()
    with tracer:
        harness.run(config)
    total = sum(end - start for _, _, name, start, end, _ in tracer.spans if name == "harness.run")
    table = tracer.table()
    return {
        layer: sum(v for k, v in table.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
        / total
        for layer in LAYERS
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="per_prop-point_reacher", choices=workload.RUN_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    profiled = profiled_shares(workload.run_config(args.workload, args.seed))
    traced = traced_shares(workload.run_config(args.workload, args.seed))
    print(f"{args.workload} seed={args.seed}: share of harness.run")
    print(f"{'layer':<8}{'cProfile':>10}{'traced':>10}")
    for layer in LAYERS:
        print(f"{layer:<8}{profiled[layer]:>10.3f}{traced[layer]:>10.3f}")


if __name__ == "__main__":
    main()
