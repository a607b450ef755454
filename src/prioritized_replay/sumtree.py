"""Proportional prioritization backed by a sum tree.

The tree is a complete binary tree stored in one flat array: leaves hold
priorities, every internal node holds the sum of its two children, and the
root therefore holds the total mass. Updating a leaf or locating the leaf
that owns a given point of cumulative mass both touch one root-to-leaf path,
so they cost O(log capacity).
"""

from __future__ import annotations

import math

import numpy as np

from .core import PrioritizedMemory, SampledBatch, SamplerConfig

__all__ = ["SumTree", "ProportionalSampler"]


class SumTree:
    """Array-backed sum tree over ``capacity`` leaves (rounded up to a power of two).

    The backing array holds 2*capacity - 1 nodes with the root at index 0 and
    the leaves in the final ``capacity`` positions. Unused leaves hold exactly
    0 and their cumulative-mass interval is empty, so lookups never land on
    them. ``node_touches`` counts node visits for complexity assertions.
    """

    __slots__ = ("capacity", "levels", "nodes", "node_touches")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be a positive integer")
        cap = 1 << (capacity - 1).bit_length() if capacity > 1 else 1
        self.capacity = cap
        self.levels = cap.bit_length() - 1
        self.nodes = np.zeros(2 * cap - 1, dtype=np.float64)
        self.node_touches = 0

    @property
    def total(self) -> float:
        """Sum of all leaf values (the root node)."""
        return float(self.nodes[0])

    def leaf(self, index: int) -> float:
        if not 0 <= index < self.capacity:
            raise IndexError(f"leaf index {index} out of range for capacity {self.capacity}")
        return float(self.nodes[self.capacity - 1 + index])

    def leaves(self) -> np.ndarray:
        return self.nodes[self.capacity - 1 :].copy()

    def set_leaf(self, index: int, value: float) -> None:
        """Write ``value`` at a leaf and refresh the sums on its root path."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"leaf index {index} out of range for capacity {self.capacity}")
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError("leaf values must be nonnegative and finite")
        # Python floats over the array's own buffer: numpy scalar indexing
        # costs several times the arithmetic on this per-call path
        nodes = self.nodes.data
        node = self.capacity - 1 + index
        nodes[node] = value
        while node:
            node = (node - 1) >> 1
            left = 2 * node + 1
            # recompute from both children rather than propagating a delta so
            # internal sums cannot drift over long runs
            nodes[node] = nodes[left] + nodes[left + 1]
        self.node_touches += self.levels + 1

    def find_by_value(self, value: float) -> int:
        """Leaf whose half-open cumulative interval [prefix, prefix + p) contains ``value``.

        Descends left when ``value`` falls below the left child's sum and
        otherwise subtracts that sum and descends right, so a value exactly on
        a boundary belongs to the right neighbor.
        """
        nodes = self.nodes.data
        total = nodes[0]
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
        if not 0.0 <= value < total:
            raise ValueError(f"value {value!r} outside [0, {total!r})")
        node = 0
        for _ in range(self.levels):
            left = 2 * node + 1
            left_sum = nodes[left]
            if value < left_sum:
                node = left
            else:
                value -= left_sum
                node = left + 1
        self.node_touches += 2 * self.levels
        return node - (self.capacity - 1)

    def find_many(self, values) -> np.ndarray:
        """Vectorized :meth:`find_by_value` for an array of query values."""
        v = np.asarray(values, dtype=np.float64).copy()
        total = self.nodes[0]
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
        if v.size and (v.min() < 0.0 or v.max() >= total):
            raise ValueError("query values must lie in [0, total)")
        pos = np.zeros(v.shape, dtype=np.int64)
        for _ in range(self.levels):
            left = 2 * pos + 1
            left_sum = self.nodes[left]
            go_left = v < left_sum
            v = np.where(go_left, v, v - left_sum)
            pos = np.where(go_left, left, left + 1)
        self.node_touches += 2 * self.levels * v.size
        return pos - (self.capacity - 1)

    def rebuild(self) -> None:
        """Recompute every internal node from the leaves, clearing any drift."""
        size = self.capacity
        offset = self.capacity - 1
        while size > 1:
            parent_offset = (offset - 1) >> 1
            level = self.nodes[offset : offset + size]
            self.nodes[parent_offset:offset] = level.reshape(-1, 2).sum(axis=1)
            size >>= 1
            offset = parent_offset


class ProportionalSampler(PrioritizedMemory):
    """Replay memory sampling slot i with probability (|td_i| + eps)**alpha / total.

    The exponent is folded in at write time: leaves store priority**alpha, so
    the tree root is directly the normalizer. Changing alpha therefore
    requires :meth:`rebuild`, which recomputes every leaf from the raw
    priorities.

    Minibatches are stratified: total mass splits into k equal ranges and one
    value is drawn uniformly from each, which reproduces the target
    distribution exactly in aggregate while spreading draws across priority
    magnitudes. If fewer than k slots are occupied the batch simply contains
    duplicates.
    """

    def __init__(self, config: SamplerConfig, rng: np.random.Generator | None = None):
        super().__init__(config, rng)
        self.tree = SumTree(config.capacity)
        self._alpha = config.alpha
        self._raw = np.zeros(self.tree.capacity, dtype=np.float64)

    @property
    def alpha(self) -> float:
        return self._alpha

    def _priority_from_magnitude(self, magnitude: float) -> float:
        return magnitude + self.config.epsilon

    def _assign_priority(self, slot: int, priority: float) -> None:
        # the tree validates the leaf, so write it first: a rejected write
        # leaves the raw priority untouched too
        self.tree.set_leaf(slot, priority**self._alpha)
        self._raw[slot] = priority

    def priority(self, slot: int) -> float:
        self._check_occupied(slot)
        return float(self._raw[slot])

    def rebuild(self, alpha: float | None = None) -> None:
        """Rewrite every leaf as priority**alpha and rebuild the internal sums."""
        if alpha is not None:
            if alpha < 0:
                raise ValueError("alpha must be nonnegative")
            self._alpha = alpha
        # the scalar power, as every per-call write uses: numpy's vectorized
        # power can differ from it in the last bit
        alpha = self._alpha
        leaves = [raw**alpha if raw > 0.0 else 0.0 for raw in self._raw.tolist()]
        self.tree.nodes[self.tree.capacity - 1 :] = leaves
        self.tree.rebuild()

    def sample(self, k: int | None = None, rng: np.random.Generator | None = None) -> SampledBatch:
        k = self.config.minibatch if k is None else k
        if k < 1:
            raise ValueError("minibatch size must be positive")
        if self._size == 0:
            raise ValueError("cannot sample from an empty memory")
        rng = self._rng if rng is None else rng
        tree = self.tree
        total = tree.total
        top = math.nextafter(total, 0.0)
        # one draw per stratum, with sample_many's arithmetic in the same order,
        # so both paths pick the same slots from the same generator state
        leaves = [
            tree.find_by_value(min((j + u) / k * total, top))
            for j, u in enumerate(rng.random(k).tolist())
        ]
        nodes = tree.nodes.data
        offset = tree.capacity - 1
        return SampledBatch(
            indices=leaves,
            probabilities=[nodes[offset + leaf] / total for leaf in leaves],
            transitions=[self._transitions[i] for i in leaves],
        )

    def sample_many(
        self, k: int, batches: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``batches`` stratified minibatches at once; returns a (batches, k) slot array.

        Bulk variant used by distribution validators; the memory must not
        change between batches for the result to be a faithful sample of the
        current distribution.
        """
        if self._size == 0:
            raise ValueError("cannot sample from an empty memory")
        rng = self._rng if rng is None else rng
        total = self.tree.total
        offsets = np.tile(np.arange(k, dtype=np.float64), batches)
        values = (offsets + rng.random(batches * k)) / k * total
        # guard against the stratum endpoint rounding up onto the total
        np.minimum(values, np.nextafter(total, 0.0), out=values)
        return self.tree.find_many(values).reshape(batches, k)
