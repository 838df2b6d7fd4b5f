"""Off-policy reinforcement learning with a learned replay policy.

The package bundles, in plain numpy:

* a dense-network substrate with hand-written backprop and Adam (``nn``),
* two desk-scale continuous-control tasks (``envs``),
* a ring replay buffer with uniform, proportional, rank-based, and
  mask-subset samplers that share four hooks (``replay``),
* the learned replay policy that scores transitions, draws Bernoulli
  masks, and trains itself on the change in recent returns (``ero``),
* a DDPG-style actor-critic agent (``ddpg``),
* a deterministic experiment harness with CSV metrics (``harness``) and the
  ``replay-opt`` CLI (``cli``).
"""

from .ddpg import DdpgAgent, OuNoise
from .envs import Pendulum, PointReacher, make_env
from .ero import EroPolicy, RunningNorm, draw_mask
from .errors import (
    ConfigError,
    ContractViolation,
    DegeneratePriorityError,
    EmptyBufferError,
    NumericFault,
    ReplayOptError,
)
from .harness import (
    EpisodeRecord,
    RunConfig,
    RunSummary,
    TraceRecord,
    make_sampler,
    run,
    run_suite,
    summarize,
)
from .nn import AdamState, Mlp, adam_step, grad_check, mlp_init
from .replay import (
    Batch,
    PerProportionalSampler,
    PerRankSampler,
    ReplayBuffer,
    SubsetSampler,
    SumTree,
    UniformSampler,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Batch",
    "ConfigError",
    "ContractViolation",
    "DdpgAgent",
    "DegeneratePriorityError",
    "EmptyBufferError",
    "EpisodeRecord",
    "EroPolicy",
    "Mlp",
    "NumericFault",
    "OuNoise",
    "Pendulum",
    "PerProportionalSampler",
    "PerRankSampler",
    "PointReacher",
    "ReplayBuffer",
    "ReplayOptError",
    "RunConfig",
    "RunSummary",
    "RunningNorm",
    "SubsetSampler",
    "SumTree",
    "TraceRecord",
    "UniformSampler",
    "adam_step",
    "draw_mask",
    "grad_check",
    "make_env",
    "make_sampler",
    "mlp_init",
    "run",
    "run_suite",
    "summarize",
]
