"""Importance-sampling weights and exponent annealing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_count, _check_probabilities

__all__ = ["AnnealSchedule", "is_weights"]


def _check_exponent(name: str, value: float) -> None:
    """Reject an IS exponent outside [0, 1]; NaN fails the comparison too."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class AnnealSchedule:
    """Linear interpolation of an exponent from ``start`` to ``end`` over ``budget`` steps.

    The value is clamped at ``end`` past the budget, so a schedule ending at 1
    reaches exactly 1.0 at the final step. ``start`` and ``end`` lie in
    [0, 1], as an IS exponent must, so every value does too.
    """

    start: float
    end: float
    budget: int

    def __post_init__(self) -> None:
        for name in ("start", "end"):
            _check_exponent(name, getattr(self, name))
        _check_count("budget", self.budget)

    def value(self, step: int) -> float:
        if step <= 0:
            return self.start
        if step >= self.budget:
            return self.end
        return self.start + (self.end - self.start) * (step / self.budget)


def is_weights(probabilities, memory_size: int, beta: float) -> np.ndarray:
    """Importance-sampling weights (memory_size * P)**-beta, scaled so the batch max is 1.

    ``probabilities`` are the sampling probabilities of one drawn batch (they
    need not sum to 1). Normalizing by the batch maximum means the weights
    only ever scale an update downwards.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        raise ValueError("probabilities must be non-empty")
    _check_probabilities("probabilities", p)
    _check_count("memory_size", memory_size)
    _check_exponent("beta", beta)
    w = (memory_size * p) ** -beta
    # a tiny probability's weight can overflow to inf
    largest = w.max()
    if not (math.isfinite(largest) and largest > 0.0):
        raise ValueError(f"the largest IS weight must be finite and positive, got {largest!r}")
    return w / largest
