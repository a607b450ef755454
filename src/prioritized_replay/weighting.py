"""Importance-sampling weights and exponent annealing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_count, _check_probabilities

__all__ = ["AnnealSchedule", "is_weights"]


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
    if memory_size < 1:
        raise ValueError("memory_size must be a positive integer")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    w = (memory_size * p) ** -beta
    return w / w.max()
