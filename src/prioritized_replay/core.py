"""Shared replay types, the sampler contract, and the sampling-probability math."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "DEFAULT_EPSILON",
    "INITIAL_PRIORITY",
    "Transition",
    "SamplerConfig",
    "SampledBatch",
    "sampling_probabilities",
    "td_magnitude",
    "PrioritizedMemory",
]

DEFAULT_EPSILON = 1e-6

# Priority given to the very first entry of an empty memory; every later
# insertion uses the running maximum of all priorities assigned so far.
INITIAL_PRIORITY = 1.0

# Values per chunk of a bulk draw (find_many, RankSampler.sample_many): a chunk's buffers,
# 128 KiB each, stay in L2. On a 2-vCPU AVX-512 x86 host, 10^6-value draws ran
# fastest at 2^14 to 2^16, about 1.5x slower unchunked and 2x slower at 2^10.
_BULK_CHUNK = 1 << 14


@dataclass(frozen=True)
class Transition:
    """Atomic unit of experience: (previous state, action, reward, discount, next state).

    ``discount`` is the per-step discount attached to the bootstrap term, so it
    must be exactly zero on terminal transitions.
    """

    prev_state: int
    action: int
    reward: float
    discount: float
    next_state: int
    is_terminal: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward!r}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must lie in [0, 1], got {self.discount!r}")
        if self.is_terminal and self.discount != 0.0:
            raise ValueError("terminal transitions must carry a zero discount")


@dataclass(frozen=True)
class SamplerConfig:
    """Settings shared by both prioritized samplers.

    ``epsilon``, the floor the proportional variant adds to |td| so that
    zero-error transitions stay samplable, is a constant, not a setting.
    """

    capacity: int
    alpha: float = 0.6
    minibatch: int = 16
    clip_td: bool = False
    seed: int = 0
    epsilon: ClassVar[float] = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        _check_count("capacity", self.capacity)
        _check_nonnegative("alpha", self.alpha)
        _check_count("minibatch", self.minibatch)


@dataclass
class SampledBatch:
    """One stratified minibatch: slot ids, their sampling probabilities, and payloads."""

    indices: list[int]
    probabilities: np.ndarray
    transitions: list[Transition]

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        if not (len(self.indices) == self.probabilities.size == len(self.transitions)):
            raise ValueError("indices, probabilities, and transitions must have equal length")
        _check_probabilities("sampling probabilities", self.probabilities)

    def __len__(self) -> int:
        return len(self.indices)


def sampling_probabilities(priorities, alpha: float) -> np.ndarray:
    """Normalized sampling distribution p_i**alpha / sum_k p_k**alpha.

    ``alpha`` controls the strength of prioritization: 0 gives the uniform
    distribution regardless of the priorities, 1 samples proportionally.
    """
    p = np.asarray(priorities, dtype=np.float64)
    if p.size == 0:
        raise ValueError("priorities must be non-empty")
    if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
        raise ValueError("priorities must be positive and finite")
    _check_nonnegative("alpha", alpha)
    # the powers can overflow to inf, or all underflow to 0, for extreme alpha
    with np.errstate(over="ignore"):
        scaled = p**alpha
        total = scaled.sum()
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"priorities**alpha must sum to a finite positive value, got {total!r}")
    probs = scaled / total
    # second normalization pass absorbs the rounding of the first
    return probs / probs.sum()


def _check_nonnegative(name: str, value: float) -> None:
    """Reject a value that is negative, NaN or infinite."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    """Reject a value that is zero, negative, NaN or infinite."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_probabilities(name: str, p: np.ndarray) -> None:
    """Reject an array holding any value outside (0, 1]."""
    # NaN fails every comparison, so this one test rejects it too
    if not ((p > 0.0) & (p <= 1.0)).all():
        raise ValueError(f"{name} must lie in (0, 1]")


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Reject a bool, a non-integer or an integer below ``minimum``; numpy
    integers pass."""
    try:
        valid = not isinstance(value, bool) and operator.index(value) >= minimum
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def td_magnitude(td_error: float, clip: bool = False) -> float:
    """|td_error|, clipping the signed error to [-1, 1] first when requested."""
    if clip:
        td_error = -1.0 if td_error < -1.0 else (1.0 if td_error > 1.0 else td_error)
    return abs(td_error)


class PrioritizedMemory:
    """Sliding-window transition store with max-priority insertion.

    New transitions receive the running maximum of every priority assigned so
    far (bootstrapped to 1 for an empty memory), which guarantees they are at
    least as likely to be replayed as any current occupant. Once full, each
    store overwrites the oldest slot, replacing its entry in the sampler's
    index structure in the same call.

    Subclasses provide the index structure and the priority map. All methods
    assume a single writer: callers serialize store/update_priority/sample.
    """

    def __init__(self, config: SamplerConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._transitions: list[Transition | None] = [None] * config.capacity
        self._cursor = 0
        self._size = 0
        self._max_priority = INITIAL_PRIORITY
        # added to |td| to give a priority; a subclass may raise it
        self._epsilon = 0.0

    def __len__(self) -> int:
        return self._size

    @property
    def max_priority(self) -> float:
        """Running maximum priority; what the next stored transition receives."""
        return self._max_priority

    def store(self, transition: Transition) -> int:
        """Insert ``transition`` at the next window slot and return its slot id."""
        slot = self._cursor
        transitions = self._transitions
        # an eviction replaces the slot's entry; a first store adds one
        self._assign_priority(slot, self._max_priority, transitions[slot] is not None)
        transitions[slot] = transition
        self._cursor = (slot + 1) % self.config.capacity
        if self._size < self.config.capacity:
            self._size += 1
        return slot

    def update_priority(self, slot: int, td_error: float) -> None:
        """Refresh ``slot``'s priority from a freshly computed TD error.

        A NaN or infinite ``td_error`` raises ValueError and changes nothing.
        """
        # _check_occupied's test, inline: this runs once per replayed transition
        if not (0 <= slot < self.config.capacity and self._transitions[slot] is not None):
            raise KeyError(f"slot {slot} is not occupied")
        if not math.isfinite(td_error):
            raise ValueError(f"td_error must be finite, got {td_error!r}")
        priority = td_magnitude(td_error, self.config.clip_td) + self._epsilon
        self._assign_priority(slot, priority, True)
        if priority > self._max_priority:
            self._max_priority = priority

    def _rng_for(self, k: int, batches: int, rng: np.random.Generator | None) -> np.random.Generator:
        """``rng``, or the memory's own, for ``batches`` minibatches of ``k``:
        the one check of both counts and of an empty memory, before any draw."""
        _check_count("minibatch size", k)
        _check_count("batch count", batches)
        if self._size == 0:
            raise ValueError("cannot sample from an empty memory")
        return self._rng if rng is None else rng

    def _check_occupied(self, slot: int) -> None:
        if not (0 <= slot < self.config.capacity and self._transitions[slot] is not None):
            raise KeyError(f"slot {slot} is not occupied")

    # -- subclass surface ---------------------------------------------------

    def _assign_priority(self, slot: int, priority: float, occupied: bool) -> None:
        """Write a validated priority; ``occupied`` says whether the slot held one."""
        raise NotImplementedError

    def priority(self, slot: int) -> float:
        raise NotImplementedError

    def sample(self, k: int | None = None, rng: np.random.Generator | None = None) -> SampledBatch:
        raise NotImplementedError
