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

from .core import PrioritizedMemory, SamplerConfig, _check_count, _stratum_chunks

__all__ = ["SumTree", "ProportionalSampler"]


class SumTree:
    """Array-backed sum tree over ``capacity`` leaves (rounded up to a power of two).

    The backing array holds 2*capacity - 1 nodes with the root at index 0 and
    the leaves in the final ``capacity`` positions. Unused leaves hold exactly
    0 and their cumulative-mass interval is empty, so lookups never land on
    them. ``node_touches`` counts node visits for complexity assertions; a
    write is charged its whole root path, as if refreshed at once.

    ``set_leaf`` writes only the leaf. ``total``, ``nodes`` and ``find_many``
    first settle the pending writes, walking their ancestors on the widest
    levels and adding the others whole (:meth:`_settle`). Each parent is the
    sum of its two final children, so what they read is bit for bit the array
    a refresh on every write would hold. Reading them may therefore write to
    the array: they fall under the single-writer rule.
    """

    __slots__ = ("capacity", "levels", "node_touches", "_nodes", "_data", "_views", "_stale", "_max_leaf")

    def __init__(self, capacity: int):
        _check_count("capacity", capacity)
        cap = 1 << (int(capacity) - 1).bit_length() if capacity > 1 else 1
        self.capacity = cap
        self.levels = cap.bit_length() - 1
        self._nodes = nodes = np.zeros(2 * cap - 1, dtype=np.float64)
        # set_leaf's store and _descend's reads: Python floats over the
        # array's own buffer, cheaper than a numpy scalar access
        self._data = nodes.data
        # the whole-level adds' operands, sliced once: each level's (left
        # children, right children, parents) views of the array, leaves first
        self._views = []
        first = cap - 1  # a level of m nodes starts at node m - 1
        while first > 0:
            parents = (first - 1) >> 1
            end = 2 * first + 1
            self._views.append((nodes[first:end:2], nodes[first + 1 : end : 2], nodes[parents:first]))
            first = parents
        self.node_touches = 0
        # node ids of the leaves written since the last settle
        self._stale: list[int] = []
        # the largest leaf value: a power-of-two share of the float maximum,
        # so every node stays at or below its subtree's share, rounding
        # included, and no sum overflows to inf
        self._max_leaf = sys.float_info.max / cap

    def __reduce__(self):
        # a clone's bound views would be copies, not views of its own array
        raise TypeError(f"{type(self).__name__} cannot be pickled or copied")

    @property
    def nodes(self) -> np.ndarray:
        """The backing array, with every pending write settled."""
        self._settle()
        return self._nodes

    @property
    def total(self) -> float:
        """Sum of all leaf values (the root node)."""
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
        self._data[node] = value
        stale = self._stale
        stale.append(node)
        self.node_touches += self.levels + 1
        # a rebuild costs well under one node refresh per leaf, so once as
        # many writes as leaves are pending it beats any walk over them
        if len(stale) >= self.capacity:
            self.rebuild()

    def _fill(self, count: int, value: float) -> None:
        """Write ``value`` at leaves 0 to ``count`` - 1 and settle them: the
        tree, and the touches charged, that ``count`` :meth:`set_leaf` calls
        and a read leave. Unchecked: ``PrioritizedMemory.store_many`` checks."""
        first = self.capacity - 1
        self._nodes[first : first + count] = value
        self.node_touches += count * (self.levels + 1)
        self.rebuild()

    def _settle(self) -> None:
        """Recompute the ancestors of every stale leaf, children before parents:
        walked on the levels of over 1024 + 8 * len(stale) parents, added whole
        on the narrower ones above; by :meth:`rebuild` unless four levels walk."""
        stale = self._stale
        if not stale:
            return
        # parent counts halve level by level, so the lowest ``walked`` levels
        # pass the limit; the walk's set-up costs what three of them save
        walked = self.levels - (1024 + 8 * len(stale)).bit_length()
        if walked < 4:
            self.rebuild()
            return
        # row d holds every stale leaf's ancestor d + 1 levels up; all leaves
        # sit at one depth, so a row's children are final before it is
        # written, and a leaf written twice writes the same sums twice
        parents = ((np.array(stale) + 1) >> np.arange(1, walked + 1)[:, None]) - 1
        left = 2 * parents + 1
        nodes = self._nodes
        for parent, left_child, right_child in zip(parents, left, left + 1):
            # recompute from both children rather than propagating a delta
            # so internal sums cannot drift over long runs
            nodes[parent] = nodes[left_child] + nodes[right_child]
        for left_child, right_child, parent in self._views[walked:]:
            np.add(left_child, right_child, out=parent)
        stale.clear()

    def _descend(self, values: list[float]) -> list[int]:
        """The leaf whose half-open cumulative interval [prefix, prefix + p)
        holds each of ``values``, checked by the caller against a settled
        tree's total; a value on a boundary belongs to the right neighbor."""
        nodes = self._data
        offset = self.capacity - 1
        count = len(values)
        # two walks in lockstep, so each level's two loads overlap rather than
        # each waiting on the one before; an odd count pads with its last value
        pairs = iter([*values, values[-1]] if count & 1 else values)
        leaves = []
        append = leaves.append
        for va, vb in zip(pairs, pairs):
            na = nb = 0
            # to the left child, or past its mass on to its right sibling;
            # every leaf sits at one depth, so both walks end together
            while na < offset:
                na += na + 1
                nb += nb + 1
                la, lb = nodes[na], nodes[nb]
                if va >= la:
                    va -= la
                    na += 1
                if vb >= lb:
                    vb -= lb
                    nb += 1
            append(na - offset)
            append(nb - offset)
        del leaves[count:]
        self.node_touches += 2 * self.levels * count
        return leaves

    def find_many(self, values) -> np.ndarray:
        """Vectorized :meth:`_descend` over an array of checked queries, in its
        shape: one copy of them, walked in place by :meth:`_descend_chunk`."""
        v = np.asarray(values, dtype=np.float64)
        total = self._mass()
        # NaN fails both comparisons, so a NaN query is rejected too
        if v.size and not (v.min() >= 0.0 and v.max() < total):
            raise ValueError("query values must lie in [0, total)")
        value, found = v.flatten(), np.empty(v.size, dtype=np.int64)
        self._descend_chunk(value, found, np.empty_like(value), np.empty(v.size, dtype=bool))
        return found.reshape(v.shape)

    def _descend_chunk(self, value: np.ndarray, leaf: np.ndarray, left_sum: np.ndarray, right: np.ndarray) -> None:
        """The bulk descent of find_many and sample_many: writes into ``leaf`` the
        leaf of each of ``value`` (checked queries of a settled tree, walked in
        place), with ``left_sum`` and ``right`` as scratch. A level steps right on
        ``right = value >= left_sum`` and subtracts ``left_sum * right``: bit for
        bit the scalar walk, as every sum is finite."""
        self.node_touches += 2 * self.levels * value.size
        if not self.levels:
            leaf.fill(0)
            return
        # every walk starts at the root, so the first level compares with one
        # scalar: no index arithmetic and no gather
        root_left = self._data[1]
        np.greater_equal(value, root_left, out=right)
        np.multiply(right, root_left, out=left_sum)
        value -= left_sum
        np.add(right, 1, out=leaf)
        for _ in range(self.levels - 1):
            leaf *= 2
            leaf += 1
            # every node is in range; "clip" only skips the checked copy
            np.take(self._nodes, leaf, out=left_sum, mode="clip")
            np.greater_equal(value, left_sum, out=right)
            left_sum *= right
            value -= left_sum
            leaf += right
        leaf -= self.capacity - 1

    def rebuild(self) -> None:
        """Recompute every internal node from the leaves: clears any drift and settles every pending write."""
        add = np.add
        # each parent is the plain sum of its two children, as in a walk
        for left, right, parents in self._views:
            add(left, right, out=parents)
        self._stale.clear()


class ProportionalSampler(PrioritizedMemory):
    """Replay memory sampling slot i with probability (|td_i| + eps)**alpha / total.

    The exponent is folded in at write time: leaves store priority**alpha, so
    the tree root is directly the normalizer. Alpha is fixed by the config.
    A write refuses a power that overflows, then hands the leaf to
    :meth:`SumTree.set_leaf`, which refuses one above the tree's bound, before
    it stores the raw priority.

    Minibatches are stratified: total mass splits into k equal ranges and one
    value is drawn uniformly from each, which reproduces the target
    distribution exactly in aggregate while spreading draws across priority
    magnitudes. If fewer than k slots are occupied the batch simply contains
    duplicates.
    """

    def __init__(self, config: SamplerConfig):
        super().__init__(config)
        self.tree = SumTree(config.capacity)
        self._alpha = config.alpha
        self._epsilon = config.epsilon
        self._raw = np.zeros(self.tree.capacity, dtype=np.float64)
        # _assign_priority's store: through a memoryview, cheaper than a numpy scalar store
        self._raw_view = self._raw.data

    # a shallow copy would share the tree rather than reach its refusal
    __reduce__ = SumTree.__reduce__

    def _assign_priority(self, slot: int, priority: float) -> None:
        try:
            leaf = priority**self._alpha
        except OverflowError:
            raise ValueError(f"priority {priority!r} ** alpha overflows") from None
        # the tree validates the leaf, so write it first: a rejected write
        # leaves the raw priority untouched too
        self.tree.set_leaf(slot, leaf)
        self._raw_view[slot] = priority

    def _fill(self, count: int, priority: float) -> None:
        # the scalar power that store() computes
        self.tree._fill(count, priority**self._alpha)
        self._raw[:count] = priority

    def priority(self, slot: int) -> float:
        self._check_occupied(slot)
        return float(self._raw[slot])

    # an alias, so perfbench's tracer finds ``sample`` in this class's own __dict__
    sample = PrioritizedMemory.sample

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        tree = self.tree
        total = tree._mass()
        top = math.nextafter(total, 0.0)
        # one draw per stratum, with sample_many's arithmetic in the same order,
        # so both paths pick the same slots from the same generator state (a
        # conditional clamps for a fraction of the cost of min())
        strata = enumerate(rng.random(k).tolist())
        leaves = tree._descend([v if (v := (j + u) / k * total) < top else top for j, u in strata])
        nodes = tree._data
        offset = tree.capacity - 1
        return leaves, [nodes[offset + leaf] / total for leaf in leaves]

    def sample_many(
        self, k: int, batches: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``batches`` stratified minibatches at once; returns a (batches, k) slot array.

        Bulk variant used by distribution validators; the memory must not
        change between batches for the result to be a faithful sample of the
        current distribution. It draws what ``batches`` :meth:`sample` calls on ``rng`` draw,
        by :meth:`_draw`'s arithmetic in its order, a chunk of whole minibatches
        (a :func:`_stratum_chunks` chunk) at a time: each chunk's strata are scaled
        and clamped in place and descend straight into the returned array.
        """
        rng = self._rng_for(k, batches, rng)
        tree = self.tree
        total = tree._mass()
        top = math.nextafter(total, 0.0)
        slots = np.empty((batches, k), dtype=np.int64)
        for value, leaf, scratch in _stratum_chunks(k, slots, rng, scratch=(np.float64, bool)):
            value *= total
            # guard against the stratum endpoint rounding up onto the total
            np.minimum(value, top, out=value)
            tree._descend_chunk(value, leaf, *scratch)
        return slots
