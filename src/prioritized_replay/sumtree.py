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

import numpy as np

from .core import PrioritizedMemory, SampledBatch, SamplerConfig, _check_count, _check_nonnegative

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

    __slots__ = ("capacity", "levels", "node_touches", "_nodes", "_stale", "_crossover")

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

    @property
    def nodes(self) -> np.ndarray:
        """The backing array, with every pending write settled."""
        if self._stale:
            self._settle()
        return self._nodes

    @nodes.setter
    def nodes(self, array: np.ndarray) -> None:
        # the old array gets its pending sums first, as if each write had
        # refreshed it at once; the new one is taken as it is
        if self._stale:
            self._settle()
        self._nodes = array

    @property
    def total(self) -> float:
        """Sum of all leaf values (the root node)."""
        if self._stale:
            self._settle()
        return float(self._nodes[0])

    def leaf(self, index: int) -> float:
        if not 0 <= index < self.capacity:
            raise IndexError(f"leaf index {index} out of range for capacity {self.capacity}")
        return float(self._nodes[self.capacity - 1 + index])

    def leaves(self) -> np.ndarray:
        return self._nodes[self.capacity - 1 :].copy()

    def set_leaf(self, index: int, value: float) -> None:
        """Write ``value`` at a leaf; its ancestors refresh at the next read."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"leaf index {index} out of range for capacity {self.capacity}")
        value = float(value)
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError("leaf values must be nonnegative and finite")
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
        total = self.total
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
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
        """Vectorized :meth:`find_by_value` for an array of query values."""
        v = np.asarray(values, dtype=np.float64).copy()
        nodes = self.nodes
        total = nodes[0]
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
        if v.size and (v.min() < 0.0 or v.max() >= total):
            raise ValueError("query values must lie in [0, total)")
        pos = np.zeros(v.shape, dtype=np.int64)
        for _ in range(self.levels):
            left = 2 * pos + 1
            left_sum = nodes[left]
            go_left = v < left_sum
            v = np.where(go_left, v, v - left_sum)
            pos = np.where(go_left, left, left + 1)
        self.node_touches += 2 * self.levels * v.size
        return pos - (self.capacity - 1)

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
        self._epsilon = config.epsilon
        self._raw = np.zeros(self.tree.capacity, dtype=np.float64)

    @property
    def alpha(self) -> float:
        return self._alpha

    def _assign_priority(self, slot: int, priority: float, occupied: bool) -> None:
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
            _check_nonnegative("alpha", alpha)
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
        slots, probs = self._draw(k, self._rng if rng is None else rng)
        return SampledBatch(
            indices=slots, probabilities=probs, transitions=[self._transitions[i] for i in slots]
        )

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        """Slots and probabilities of one stratified minibatch of ``k`` from a
        non-empty memory, unchecked: what :meth:`sample` wraps."""
        tree = self.tree
        total = tree.total
        if total <= 0.0:
            raise ValueError("tree holds no positive mass")
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
