"""Proportional prioritization backed by a sum tree.

The tree is a complete binary tree stored in one flat array: leaves hold
priorities, every internal node holds the sum of its two children, and the
root therefore holds the total mass. A leaf write is O(1): it writes the leaf
and records it as stale. The next read of internal sums settles every stale
leaf at once, so a minibatch of writes shares the refresh of their common
ancestors. Locating the leaf that owns a given point of cumulative mass walks
one root-to-leaf path, so it costs O(log capacity).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import _BULK_CHUNK, PrioritizedMemory, SampledBatch, SamplerConfig, _check_count

__all__ = ["SumTree", "ProportionalSampler"]


class SumTree:
    """Array-backed sum tree over ``capacity`` leaves (rounded up to a power of two).

    The backing array holds 2*capacity - 1 nodes with the root at index 0 and
    the leaves in the final ``capacity`` positions. Unused leaves hold exactly
    0 and their cumulative-mass interval is empty, so lookups never land on
    them. ``node_touches`` counts node visits for complexity assertions; a
    write is charged its whole root path, as if refreshed at once.

    ``set_leaf`` writes only the leaf. ``total``, ``nodes``, ``find_by_value``
    and ``find_many`` first settle the pending writes, recomputing each
    parent as the sum of its two final children, so what they read is bit for
    bit the array a refresh on every write would hold. Reading them may
    therefore write to the array: they fall under the single-writer rule.
    """

    __slots__ = ("capacity", "levels", "node_touches", "_nodes", "_stale", "_crossover", "_max_leaf")

    def __init__(self, capacity: int):
        _check_count("capacity", capacity)
        cap = 1 << (int(capacity) - 1).bit_length() if capacity > 1 else 1
        self.capacity = cap
        self.levels = cap.bit_length() - 1
        self._nodes = np.zeros(2 * cap - 1, dtype=np.float64)
        self.node_touches = 0
        # node ids of the leaves written since the last settle
        self._stale: list[int] = []
        # Settling this many stale leaves by walking their ancestors costs
        # about as much as one rebuild: a walk refreshes up to `levels` nodes
        # per stale leaf, while a rebuild costs about 5 node refreshes per
        # level in numpy call overhead plus 1/200 of one per leaf (measured
        # on a 2-vCPU x86 host over capacities 2^9 to 2^18 and batches of 16
        # to 36 leaves)
        self._crossover = 5 + cap // (200 * max(self.levels, 1))
        # the largest leaf value: a power-of-two share of the float maximum,
        # so every node stays at or below its subtree's share, rounding
        # included, and no sum overflows to inf
        self._max_leaf = sys.float_info.max / cap

    @property
    def nodes(self) -> np.ndarray:
        """The backing array, with every pending write settled."""
        if self._stale:
            self._settle()
        return self._nodes

    @property
    def total(self) -> float:
        """Sum of all leaf values (the root node)."""
        if self._stale:
            self._settle()
        return float(self._nodes[0])

    def _mass(self) -> float:
        """:attr:`total`, refused unless positive and finite; a finite root keeps every sum finite."""
        total = self.total
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
        if total == math.inf:
            raise ValueError("tree total overflows to inf")
        return total

    def set_leaf(self, index: int, value: float) -> None:
        """Write ``value`` at a leaf; its ancestors refresh at the next read."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"leaf index {index} out of range for capacity {self.capacity}")
        value = float(value)
        # NaN and inf fail the comparison too
        if not 0.0 <= value <= self._max_leaf:
            raise ValueError(f"leaf values must lie in [0, {self._max_leaf!r}], got {value!r}")
        node = self.capacity - 1 + index
        self._nodes[node] = value
        stale = self._stale
        stale.append(node)
        self.node_touches += self.levels + 1
        # a rebuild costs well under one node refresh per leaf, so once as
        # many writes as leaves are pending it beats any walk over them
        if len(stale) >= self.capacity:
            self.rebuild()

    def _settle(self) -> None:
        """Recompute the ancestors of every stale leaf, children before parents."""
        stale = self._stale
        if len(stale) >= self._crossover:
            self.rebuild()
            return
        # Python floats over the array's own buffer: numpy's per-call
        # overhead costs several times the arithmetic of one node
        nodes = self._nodes.data
        level = stale
        for _ in range(self.levels):
            level = {(node - 1) >> 1 for node in level}
            for node in level:
                left = 2 * node + 1
                # recompute from both children rather than propagating a delta
                # so internal sums cannot drift over long runs
                nodes[node] = nodes[left] + nodes[left + 1]
        stale.clear()

    def find_by_value(self, value: float) -> int:
        """Leaf whose half-open cumulative interval [prefix, prefix + p) contains ``value``.

        Descends left when ``value`` falls below the left child's sum and
        otherwise subtracts that sum and descends right, so a value exactly on
        a boundary belongs to the right neighbor.
        """
        total = self._mass()
        if not 0.0 <= value < total:
            raise ValueError(f"value {value!r} outside [0, {total!r})")
        return self._descend([value])[0]

    def _descend(self, values: list[float]) -> list[int]:
        """:meth:`find_by_value` for each of ``values``, which the caller has
        checked against a settled tree's total."""
        # Python floats over the array's own buffer, as in _settle
        nodes = self._nodes.data
        levels = self.levels
        offset = self.capacity - 1
        leaves = []
        for value in values:
            node = 0
            for _ in range(levels):
                left = 2 * node + 1
                left_sum = nodes[left]
                if value < left_sum:
                    node = left
                else:
                    value -= left_sum
                    node = left + 1
            leaves.append(node - offset)
        self.node_touches += 2 * levels * len(values)
        return leaves

    def find_many(self, values) -> np.ndarray:
        """Vectorized :meth:`find_by_value` over an array of queries, in its shape.

        Chunks of ``_BULK_CHUNK`` queries descend in place in buffers made once per
        call. A level steps right on ``r = value >= left_sum`` and subtracts
        ``left_sum * r``: bit for bit the scalar walk, as every sum is finite."""
        v = np.asarray(values, dtype=np.float64)
        total = self._mass()
        # NaN fails both comparisons, so a NaN query is rejected too
        if v.size and not (v.min() >= 0.0 and v.max() < total):
            raise ValueError("query values must lie in [0, total)")
        queries, found = v.reshape(-1), np.empty(v.size, dtype=np.int64)
        value_buf, sum_buf = np.empty((2, min(v.size, _BULK_CHUNK)))
        right_buf = np.empty(sum_buf.size, dtype=bool)
        for start in range(0, v.size, _BULK_CHUNK):
            node = found[start : start + _BULK_CHUNK]
            value, left_sum, right = value_buf[: node.size], sum_buf[: node.size], right_buf[: node.size]
            value[:] = queries[start : start + node.size]
            node.fill(0)
            for _ in range(self.levels):
                node *= 2
                node += 1
                # every node is in range; "clip" only skips the checked copy
                np.take(self._nodes, node, out=left_sum, mode="clip")
                np.greater_equal(value, left_sum, out=right)
                left_sum *= right
                value -= left_sum
                node += right
            node -= self.capacity - 1
        self.node_touches += 2 * self.levels * v.size
        return found.reshape(v.shape)

    def rebuild(self) -> None:
        """Recompute every internal node from the leaves: clears any drift and settles every pending write."""
        nodes = self._nodes
        size = self.capacity
        offset = self.capacity - 1
        while size > 1:
            parent_offset = (offset - 1) >> 1
            # each parent is the plain sum of its two children, as in a walk
            np.add(
                nodes[offset : offset + size : 2],
                nodes[offset + 1 : offset + size : 2],
                out=nodes[parent_offset:offset],
            )
            size >>= 1
            offset = parent_offset
        self._stale.clear()


class ProportionalSampler(PrioritizedMemory):
    """Replay memory sampling slot i with probability (|td_i| + eps)**alpha / total.

    The exponent is folded in at write time: leaves store priority**alpha, so
    the tree root is directly the normalizer. Alpha is fixed by the config.

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
        self._epsilon = config.epsilon
        self._raw = np.zeros(self.tree.capacity, dtype=np.float64)

    def _assign_priority(self, slot: int, priority: float, occupied: bool) -> None:
        try:
            leaf = priority**self._alpha
        except OverflowError:
            raise ValueError(f"priority {priority!r} ** alpha overflows") from None
        # the tree validates the leaf, so write it first: a rejected write
        # leaves the raw priority untouched too
        self.tree.set_leaf(slot, leaf)
        self._raw[slot] = priority

    def priority(self, slot: int) -> float:
        self._check_occupied(slot)
        return float(self._raw[slot])

    def sample(self, k: int | None = None, rng: np.random.Generator | None = None) -> SampledBatch:
        k = self.config.minibatch if k is None else k
        slots, probs = self._draw(k, self._rng_for(k, 1, rng))
        return SampledBatch(
            indices=slots, probabilities=probs, transitions=[self._transitions[i] for i in slots]
        )

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        """Slots and probabilities of one stratified minibatch of ``k`` from a
        non-empty memory, unchecked: what :meth:`sample` wraps."""
        tree = self.tree
        total = tree._mass()
        top = math.nextafter(total, 0.0)
        # one draw per stratum, with sample_many's arithmetic in the same order,
        # so both paths pick the same slots from the same generator state (a
        # conditional clamps for a fraction of the cost of min())
        strata = enumerate(rng.random(k).tolist())
        leaves = tree._descend([v if (v := (j + u) / k * total) < top else top for j, u in strata])
        nodes = tree._nodes.data
        offset = tree.capacity - 1
        return leaves, [nodes[offset + leaf] / total for leaf in leaves]

    def sample_many(
        self, k: int, batches: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``batches`` stratified minibatches at once; returns a (batches, k) slot array.

        Bulk variant used by distribution validators; the memory must not
        change between batches for the result to be a faithful sample of the
        current distribution. It draws what ``batches`` :meth:`sample` calls on ``rng`` draw.
        """
        rng = self._rng_for(k, batches, rng)
        total = self.tree._mass()
        values = rng.random((batches, k))
        values += np.arange(k, dtype=np.float64)
        values /= k
        values *= total
        # guard against the stratum endpoint rounding up onto the total
        np.minimum(values, np.nextafter(total, 0.0), out=values)
        return self.tree.find_many(values)
