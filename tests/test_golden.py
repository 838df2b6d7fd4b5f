"""Golden-output gate: fixed-seed runs must keep writing the same bytes.

Each case is a 3k-step run (seed 0, ``trace_interval=50``, every other
setting at its ``RunConfig`` default) of each sampler on each env, and of
ERO with ``lazy_refresh``, plus a proportional-PER and an ERO case with a
1500-slot buffer, so that half of their stores evict, and a uniform case
that runs an eval episode every second episode and stops early after
training has begun. The gate compares the sha256 of a case's
``episodes.csv``, ``trace.csv`` and, when the run wrote evals,
``evals.csv`` with the digests in ``golden_digests.json``.

The last bits of a run depend on the host: numpy picks SIMD math kernels at
run time (AVX512F among them) and OpenBLAS's ``DYNAMIC_ARCH`` build picks
matmul kernels per CPU. Digests are therefore keyed by a host tag (machine,
numpy version, BLAS version, AVX512F flag), and a host without an entry
skips the gate. ``python tests/test_golden.py`` prints this host's tag and
digests as one JSON entry for that file.
"""

from __future__ import annotations

import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from replay_opt.harness import RunConfig, run, write_episode_csv, write_eval_csv, write_trace_csv

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

CASES = {
    **{
        f"{sampler}-{env}": dict(sampler=sampler, env=env)
        for sampler in ("uniform", "per_prop", "per_rank", "ero")
        for env in ("pendulum", "point_reacher")
    },
    **{
        f"ero_lazy-{env}": dict(sampler="ero", env=env, lazy_refresh=True)
        for env in ("pendulum", "point_reacher")
    },
    # a 1500-slot buffer: the second half of each run overwrites the oldest slots
    "per_prop_evict-point_reacher": dict(sampler="per_prop", env="point_reacher", buffer_capacity=1500),
    "ero_evict-pendulum": dict(sampler="ero", env="pendulum", buffer_capacity=1500),
    # the last two returns first reach -120 at env step 1889, inside a rollout phase
    "uniform_eval_stop-point_reacher": dict(
        sampler="uniform",
        env="point_reacher",
        eval_every=2,
        early_stop_window=2,
        early_stop_threshold=-120.0,
    ),
}


def host_tag() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')}-{blas.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy has no dict form
        blas_version = "blas-unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    avx512f = int(bool(__cpu_features__.get("AVX512F")))
    return f"{platform.machine()}/numpy-{np.__version__}/{blas_version}/avx512f-{avx512f}"


def digests(case: str) -> dict[str, str]:
    summary = run(RunConfig(total_timesteps=3000, trace_interval=50, seed=0, **CASES[case]))
    files = [
        ("episodes.csv", write_episode_csv, summary.episodes),
        ("trace.csv", write_trace_csv, summary.traces),
    ]
    if summary.evals:
        files.append(("evals.csv", write_eval_csv, summary.evals))
    out = {}
    for name, write, records in files:
        text = io.StringIO()
        write(records, text)
        out[name] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(case):
    tag = host_tag()
    golden = json.loads(GOLDEN_PATH.read_text()).get(tag)
    if golden is None:
        pytest.skip(f"no golden digests for host {tag!r}")
    assert digests(case) == golden[case]


if __name__ == "__main__":
    entry = {case: digests(case) for case in sorted(CASES)}
    print(json.dumps({host_tag(): entry}, indent=2, sort_keys=True))
