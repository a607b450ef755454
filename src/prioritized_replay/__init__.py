"""Prioritized experience replay: sum-tree and rank-based samplers with
importance-sampling correction, plus a cliff-walk benchmark harness."""

from .agent import (
    REPRESENTATIONS,
    STRATEGIES,
    RunConfig,
    RunResult,
    run_training,
)
from .cliffwalk import (
    Cliffwalk,
    fill_memory,
    ground_truth_q,
    memory_size,
)
from .core import (
    PrioritizedMemory,
    SampledBatch,
    SamplerConfig,
    Transition,
    sampling_probabilities,
    td_magnitude,
)
from .rank import RankSampler, RankStore, build_partition
from .sumtree import ProportionalSampler, SumTree
from .weighting import AnnealSchedule, is_weights

__version__ = "0.1.0"

__all__ = [
    "AnnealSchedule",
    "Cliffwalk",
    "PrioritizedMemory",
    "ProportionalSampler",
    "RankSampler",
    "RankStore",
    "REPRESENTATIONS",
    "RunConfig",
    "RunResult",
    "SampledBatch",
    "SamplerConfig",
    "STRATEGIES",
    "SumTree",
    "Transition",
    "build_partition",
    "fill_memory",
    "ground_truth_q",
    "is_weights",
    "memory_size",
    "run_training",
    "sampling_probabilities",
    "td_magnitude",
]
