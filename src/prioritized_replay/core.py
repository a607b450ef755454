"""Shared replay types, the sampler contract, and the sampling-probability math."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "INITIAL_PRIORITY",
    "Transition",
    "SamplerConfig",
    "SampledBatch",
    "sampling_probabilities",
    "td_magnitude",
    "PrioritizedMemory",
]

# Priority given to the very first entry of an empty memory; every later
# insertion uses the running maximum of all priorities assigned so far.
INITIAL_PRIORITY = 1.0

# Values per chunk of a bulk draw (both sample_many, by _stratum_chunks): a
# chunk's buffers, 128 KiB each, stay in L2. On a 2-vCPU AVX-512 x86 host, 10^6-value
# draws ran fastest at 2^14 to 2^16, about 1.5x slower unchunked and 2x slower at 2^10.
_BULK_CHUNK = 1 << 14


def _stratum_chunks(k: int, slots: np.ndarray, rng: np.random.Generator, tables=(), scratch=()):
    """Per chunk of whole minibatches (about ``_BULK_CHUNK`` values) of ``slots``,
    a (batches, k) array: the strata ``u = (j + r) / k``, drawn in place so the
    chunks' draws concatenate to one call's, the chunk of ``slots``, and
    ``tables`` (one value a stratum) tiled over its rows, then one buffer per
    dtype of ``scratch``. Buffers and tiles are made once per call."""
    step = max(_BULK_CHUNK // k, 1) * k
    size = min(slots.size, step)
    # per-stratum values tiled over a chunk's rows: contiguous operands
    # run about three times faster than ones broadcast along each row
    offsets, *tiled = (np.tile(table, size // k) for table in (np.arange(k, dtype=np.float64), *tables))
    u_buf = np.empty(size)
    buffers = [*tiled, *(np.empty(size, dtype=dtype) for dtype in scratch)]
    flat = slots.reshape(-1)
    for start in range(0, flat.size, step):
        out = flat[start : start + step]
        u = u_buf[: out.size]
        rng.random(out=u)
        u += offsets[: u.size]
        u /= k
        yield u, out, [buffer[: u.size] for buffer in buffers]


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
    epsilon: ClassVar[float] = 1e-6

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
    far (1 for an empty memory), so they are at least as likely to be replayed
    as any occupant. Slots fill in order and are never freed, so a slot is
    occupied once stored, and its payload is never inspected. Once full, each
    store overwrites the oldest slot and replaces its entry in the index.

    :meth:`update_priority` makes every check once and hands the priority to
    the sampler's one write hook, ``_assign_priority``, which :meth:`store`
    uses too. Subclasses provide it, the index structure and the draw. All
    methods assume a single writer: callers serialize store/update_priority/sample.
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
        # before the count grows: an eviction replaces an entry, a first store adds one
        self._assign_priority(slot, self._max_priority)
        self._transitions[slot] = transition
        self._cursor = (slot + 1) % self.config.capacity
        if self._size < self.config.capacity:
            self._size += 1
        return slot

    def store_many(self, transitions) -> None:
        """Fill an empty memory with ``transitions`` at slots 0, 1, ...: the
        state that one :meth:`store` per transition leaves, in one call.

        The one check of a bulk fill: a non-empty memory, or no transitions
        or more than the capacity, raises ValueError and changes nothing.
        """
        transitions = list(transitions)
        count = len(transitions)
        if self._size:
            raise ValueError("store_many fills an empty memory only")
        if not 0 < count <= self.config.capacity:
            raise ValueError(f"store_many takes 1 to {self.config.capacity} transitions, got {count}")
        # an empty memory's running max is every stored transition's priority
        self._fill(count, self._max_priority)
        self._transitions[:count] = transitions
        self._cursor = count % self.config.capacity
        self._size = count

    def update_priority(self, slot: int, td_error: float) -> None:
        """Refresh ``slot``'s priority from a freshly computed TD error.

        A NaN or infinite ``td_error`` raises ValueError and changes nothing.
        """
        # _check_occupied's test, inline: this runs once per replayed transition
        if not 0 <= slot < self._size:
            raise KeyError(f"slot {slot} is not occupied")
        if not math.isfinite(td_error):
            raise ValueError(f"td_error must be finite, got {td_error!r}")
        priority = td_magnitude(td_error, self.config.clip_td) + self._epsilon
        self._assign_priority(slot, priority)
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

    def sample(self, k: int | None = None, rng: np.random.Generator | None = None) -> SampledBatch:
        """One stratified minibatch of ``k`` (the config's minibatch by default),
        drawn with ``rng`` or the memory's own generator."""
        k = self.config.minibatch if k is None else k
        slots, probs = self._draw(k, self._rng_for(k, 1, rng))
        return SampledBatch(
            indices=slots, probabilities=probs, transitions=[self._transitions[s] for s in slots]
        )

    def _check_occupied(self, slot: int) -> None:
        if not 0 <= slot < self._size:
            raise KeyError(f"slot {slot} is not occupied")

    # -- subclass surface ---------------------------------------------------

    def _assign_priority(self, slot: int, priority: float) -> None:
        """Write a validated priority; the slot held one iff it is below the live count."""
        raise NotImplementedError

    def _fill(self, count: int, priority: float) -> None:
        """Give slots 0 to ``count`` - 1 of an empty index structure ``priority``,
        as ``count`` first stores would; unchecked, after :meth:`store_many`'s checks."""
        raise NotImplementedError

    def priority(self, slot: int) -> float:
        raise NotImplementedError

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        """Slots and probabilities of one stratified minibatch of ``k`` from a
        non-empty memory, unchecked: what :meth:`sample` wraps."""
        raise NotImplementedError
