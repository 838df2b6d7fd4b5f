"""Regenerate ``reference.json``: each workload's output digest and final return.

    python3 bench/make_reference.py --seeds 0-10

Runs every workload once per seed, untraced, and records the digest of its
CSV outputs and its final return. ``run.py`` compares against these for
information only: a change that is allowed to alter outputs must say so, and
regenerate the entries it changed.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workload  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range, as FIRST-LAST")
    parser.add_argument("--workload", action="append", choices=workload.WORKLOADS)
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in args.workload or workload.WORKLOADS:
        for seed in range(first, last + 1):
            rep = workload.run_rep(name, seed, workload.OUT_DIR / f"{name}-seed{seed}")
            if rep.problems:
                raise SystemExit(f"{name} seed={seed} failed: {rep.problems}")
            table.setdefault(name, {})[str(seed)] = {
                "digest": rep.digest,
                "final_return": rep.final_return,
            }
            print(name, seed, rep.digest[:12], rep.final_return, flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
