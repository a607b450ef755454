"""Reference models used only by the tests.

The library's replay loops keep the values as 2n cell values plus a shared
bias scalar and update them inline. This object model computes the same
values one transition at a time from a parameter vector, so a run's recorded
updates can be replayed through it and compared, and the hindsight oracle's
pick can be found by brute force. ``leaves`` reads a sum tree's leaves from
its public array.
"""

import numpy as np


class LinearQ:
    """Action values Q(s, a) = theta[2s + a], plus the shared bias weight
    theta[-1] when ``bias`` is set; without it this is a lookup table."""

    def __init__(self, theta, bias: bool = False, step_size: float = 0.25):
        self.theta = np.array(theta, dtype=np.float64)
        self.bias = bias
        self.step_size = step_size

    def value(self, state: int, action: int) -> float:
        v = self.theta[2 * state + action]
        if self.bias:
            v += self.theta[-1]
        return float(v)

    def td_error(self, transition) -> float:
        """r + discount * max_a Q(s', a) - Q(s, a); terminal transitions carry
        discount 0, so no bootstrap term survives."""
        if transition.discount == 0.0:
            boot = 0.0
        else:
            ns = transition.next_state
            boot = max(self.value(ns, 0), self.value(ns, 1))
        return transition.reward + transition.discount * boot - self.value(
            transition.prev_state, transition.action
        )

    def apply(self, transition, weight: float = 1.0, td_error: float | None = None) -> float:
        """One gradient step theta += step_size * weight * td * phi; returns the td used."""
        if td_error is None:
            td_error = self.td_error(transition)
        step = self.step_size * weight * td_error
        self.theta[2 * transition.prev_state + transition.action] += step
        if self.bias:
            self.theta[-1] += step
        return td_error


def oracle_select(transitions, q: LinearQ, truth: np.ndarray) -> int:
    """Hindsight pick: tentatively apply every stored transition's update and
    return the slot whose updated parameters leave the smallest MSE against
    ``truth``, an (n, 2) table. Parameters are restored between candidates;
    ties resolve to the lowest slot id."""
    if not transitions:
        raise ValueError("cannot select from an empty memory")
    snapshot = q.theta.copy()
    best_slot = 0
    best_mse = np.inf
    for slot, transition in enumerate(transitions):
        q.apply(transition, 1.0)
        table = q.theta[: truth.size].reshape(-1, 2).copy()
        if q.bias:
            table += q.theta[-1]
        mse = float(np.mean((table - truth) ** 2))
        q.theta[:] = snapshot
        if mse < best_mse:
            best_mse = mse
            best_slot = slot
    return best_slot


def leaves(tree) -> np.ndarray:
    """A sum tree's leaf values: the last ``capacity`` entries of its settled array."""
    return tree.nodes[tree.capacity - 1 :]


def piece_probabilities(partition, ranks) -> np.ndarray:
    """The probability of drawing each 0-based rank in ``ranks`` from a rank
    ``partition``: the mass of the piece j that holds it spread evenly over
    the piece's ranks, ``segment_masses()[j] / np.diff(boundaries)[j]``."""
    boundaries = np.asarray(partition.boundaries)
    pieces = np.searchsorted(boundaries, ranks, side="right") - 1
    return (partition.segment_masses() / np.diff(boundaries))[pieces]
