"""The blind cliff-walk chain: environment, exhaustive memory fill, and ground truth.

An n-state chain with one 'right' and one 'wrong' action per state. The wrong
action ends the episode with zero reward; the right action advances one state,
and completing the chain pays the single reward of 1. Which action id is
'right' alternates with state parity, so nothing can be generalized across
states: every state-action value has to be learned from its own transitions.
A uniformly random policy finds the reward with probability 2**-n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import Transition

__all__ = [
    "MAX_STATES",
    "Cliffwalk",
    "fill_memory",
    "memory_size",
    "value_iteration_q",
    "ground_truth_q",
]

# Exhaustive fills enumerate 2**n action sequences; 16 states tops out at
# 131070 stored transitions, which is the largest size the benchmark uses.
MAX_STATES = 16


@dataclass(frozen=True)
class Cliffwalk:
    """Chain of ``n_states`` states with discount 1 - 1/n."""

    n_states: int

    def __post_init__(self) -> None:
        if self.n_states < 2:
            raise ValueError("the chain needs at least 2 states")

    @property
    def gamma(self) -> float:
        """Discount 1 - 1/n, keeping values on the same scale for every n."""
        return 1.0 - 1.0 / self.n_states

    def right_action(self, state: int) -> int:
        """The advancing action for ``state``; alternates with state parity."""
        return state % 2

    def step(self, state: int, action: int) -> Transition:
        """Take ``action`` in ``state`` and return the resulting transition."""
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} out of range [0, {self.n_states})")
        if action not in (0, 1):
            raise ValueError(f"action must be 0 or 1, got {action}")
        if action != self.right_action(state):
            # falling off: episode over, nothing earned
            return Transition(state, action, 0.0, 0.0, 0, is_terminal=True)
        if state == self.n_states - 1:
            return Transition(state, action, 1.0, 0.0, 0, is_terminal=True)
        return Transition(state, action, 0.0, self.gamma, state + 1, is_terminal=False)

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The chain's 2n distinct transitions, indexed by cell 2 * state + action."""
        return tuple(self.step(s, a) for s in range(self.n_states) for a in (0, 1))


def memory_size(n_states: int) -> int:
    """Number of transitions an exhaustive fill produces: 2**(n+1) - 2."""
    return 2 ** (n_states + 1) - 2


def fill_memory(spec: Cliffwalk, rng: np.random.Generator | None = None) -> list[int]:
    """Execute all 2**n action sequences (in shuffled order) and return the
    cell (2 * state + action) of every transition, one per memory slot.

    Every transition of a cell is the same, ``spec.transitions[cell]``. Exactly
    one sequence survives to the final reward; the rest terminate early with
    zero reward. The result reflects the transition frequencies a random
    behavior policy would produce.
    """
    n = spec.n_states
    if n > MAX_STATES:
        raise ValueError(f"exhaustive fill supports at most {MAX_STATES} states, got {n}")
    rng = rng if rng is not None else np.random.default_rng(0)
    cells: list[int] = []
    for sequence in rng.permutation(1 << n).tolist():
        # step s takes action bit s; the episode ends at the first wrong action
        for state in range(n):
            action = (sequence >> state) & 1
            cells.append(2 * state + action)
            if action != state % 2:
                break
    return cells


def value_iteration_q(spec: Cliffwalk, tol: float = 1e-12) -> np.ndarray:
    """Independent fixed-point solve of the optimal action values, shape (n, 2)."""
    n = spec.n_states
    table = spec.transitions
    rewards = np.array([t.reward for t in table]).reshape(n, 2)
    discounts = np.array([t.discount for t in table]).reshape(n, 2)
    next_states = np.array([t.next_state for t in table]).reshape(n, 2)
    q = np.zeros((n, 2))
    while True:
        backup = rewards + discounts * q[next_states].max(axis=2)
        if np.abs(backup - q).max() < tol:
            return backup
        q = backup


@lru_cache(maxsize=32)
def ground_truth_q(spec: Cliffwalk) -> np.ndarray:
    """Optimal action values, shape (n, 2): gamma**(n-1-s) for the right action, 0 otherwise.

    The closed form is checked against :func:`value_iteration_q` before use
    (once per chain size) so a bad formula can never leak into a benchmark.
    The result is cached and read-only.
    """
    n_states = spec.n_states
    closed = np.zeros((n_states, 2))
    states = np.arange(n_states)
    closed[states, states % 2] = spec.gamma ** (n_states - 1 - states)
    solved = value_iteration_q(spec)
    if np.abs(closed - solved).max() > 1e-9:
        raise AssertionError("closed-form action values disagree with value iteration")
    closed.setflags(write=False)
    return closed
