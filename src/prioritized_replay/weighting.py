"""Importance-sampling weights, exponent annealing, and optional priority transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_EPSILON

__all__ = [
    "AnnealSchedule",
    "anneal",
    "is_weights",
    "TransformOptions",
    "TransformContext",
    "TransformedPriority",
    "apply_priority_transforms",
]


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear interpolation of an exponent from ``start`` to ``end`` over ``budget`` steps.

    The value is clamped at ``end`` past the budget, so a schedule ending at 1
    reaches exactly 1.0 at the final step.
    """

    start: float
    end: float
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")

    def value(self, step: int) -> float:
        if step <= 0:
            return self.start
        if step >= self.budget:
            return self.end
        return self.start + (self.end - self.start) * (step / self.budget)


def anneal(schedule: AnnealSchedule, step: int) -> float:
    """Exponent value at ``step`` under ``schedule``."""
    return schedule.value(step)


def is_weights(probabilities, memory_size: int, beta: float) -> np.ndarray:
    """Importance-sampling weights (memory_size * P)**-beta, scaled so the batch max is 1.

    ``probabilities`` are the sampling probabilities of one drawn batch (they
    need not sum to 1). Normalizing by the batch maximum means the weights
    only ever scale an update downwards.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        raise ValueError("probabilities must be non-empty")
    # NaN fails every comparison, so this one test rejects it too
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise ValueError("probabilities must lie in (0, 1]")
    if memory_size < 1:
        raise ValueError("memory_size must be a positive integer")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    w = (memory_size * p) ** -beta
    return w / w.max()


@dataclass(frozen=True)
class TransformOptions:
    """Optional adjustments applied when a replayed transition's priority is refreshed.

    Both default to off: ``staleness_coeff`` 0 disables the age discount and
    ``predecessor_boost`` False leaves the preceding transition untouched.
    """

    predecessor_boost: bool = False
    staleness_coeff: float = 0.0
    floor: float = DEFAULT_EPSILON


@dataclass(frozen=True)
class TransformContext:
    """Bookkeeping the transforms consult: step count and the predecessor's state."""

    global_step: int = 0
    abs_td: float = 0.0
    predecessor_priority: float | None = None
    predecessor_is_terminal: bool = False


@dataclass(frozen=True)
class TransformedPriority:
    """Transform output: the refreshed priority, plus the predecessor's new priority
    when the boost applies (``None`` means leave the predecessor unchanged)."""

    priority: float
    predecessor_priority: float | None = None


def apply_priority_transforms(
    base: float, options: TransformOptions, context: TransformContext
) -> TransformedPriority:
    """Apply the configured transforms to a freshly computed priority.

    The staleness discount subtracts ``staleness_coeff * global_step`` from the
    new priority (floored at ``options.floor``) so long-unvisited transitions
    are not permanently buried. The predecessor boost adds the current |td| to
    the historic predecessor's priority, skipped when that predecessor is
    terminal.
    """
    if base < 0:
        raise ValueError("base priority must be nonnegative")
    priority = base
    if options.staleness_coeff:
        priority = max(priority - options.staleness_coeff * context.global_step, options.floor)
    predecessor = None
    if (
        options.predecessor_boost
        and context.predecessor_priority is not None
        and not context.predecessor_is_terminal
    ):
        predecessor = context.predecessor_priority + context.abs_td
    return TransformedPriority(priority=priority, predecessor_priority=predecessor)
