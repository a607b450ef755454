"""Rank-based prioritization: a binary max-heap on |td| plus precomputed rank partitions.

Sampling follows the power law P(rank) proportional to rank**-alpha. The heap
array is used directly as an approximately sorted array (position = rank),
with an occasional full sort to keep the approximation tight. Rank draws come
from a piecewise-linear inverse of the power law's cumulative mass whose knots
sit at precomputed partition boundaries; when every segment is a single rank
the inversion is exact, and coarser partitions flatten the distribution inside
each segment while keeping segment masses equal up to discreteness.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PrioritizedMemory, SamplerConfig, _stratum_chunks
from .core import _check_count, _check_nonnegative

__all__ = ["RankStore", "Partition", "build_partition", "RankSampler"]

# Heap updates between two full sorts of the heap array.
RESORT_INTERVAL = 1_000_000


class RankStore:
    """Array-backed binary max-heap of (|td| key, slot id) pairs.

    Heap positions double as approximate ranks: position 0 is rank 1. Every
    key update sifts the entry and bumps ``steps_since_sort``; once that
    counter reaches ``RESORT_INTERVAL`` the array is fully sorted (which also
    restores exact ranks) and the counter resets. Keys and slots are Python
    lists; the inverse index ``slot -> position`` is an int64 ``array`` (8 B a
    slot; -1 for an absent slot), maintained through every move.
    """

    def __init__(self, capacity: int):
        _check_count("capacity", capacity)
        self._keys: list[float] = []
        self._slots: list[int] = []
        self._pos = array("q", [-1]) * capacity
        self.steps_since_sort = 0

    def __len__(self) -> int:
        return len(self._keys)

    def key_of(self, slot: int) -> float:
        if not 0 <= slot < len(self._pos):
            raise IndexError(f"slot {slot} out of range for capacity {len(self._pos)}")
        i = self._pos[slot]
        if i < 0:
            raise KeyError(f"slot {slot} not present")
        return self._keys[i]

    def insert(self, slot: int, key: float) -> None:
        if not 0 <= slot < len(self._pos):
            raise IndexError(f"slot {slot} out of range for capacity {len(self._pos)}")
        if self._pos[slot] >= 0:
            raise ValueError(f"slot {slot} already present")
        self._pos[slot] = end = len(self._keys)
        self._keys.append(key)
        self._slots.append(slot)
        self._sift(end, slot, key)

    def _fill(self, count: int, key: float) -> None:
        """Insert slots 0 to ``count`` - 1 of an empty heap, all at ``key``.
        Unchecked: ``PrioritizedMemory.store_many`` checks."""
        # equal keys appended in slot order already form a heap under the
        # strict >, so no insert would move an entry: slot s sits at position s
        self._keys = [key] * count
        self._slots = list(range(count))
        np.frombuffer(self._pos, dtype=np.int64)[:count] = np.arange(count)

    def update(self, slot: int, key: float) -> None:
        # a negative slot would index _pos from its end; one past its end
        # fails the lookup below, before anything changes
        if slot < 0:
            raise IndexError(f"slot {slot} out of range for capacity {len(self._pos)}")
        i = self._pos[slot]
        if i < 0:
            raise KeyError(f"slot {slot} not present")
        self._sift(i, slot, key)
        self.steps_since_sort += 1
        if self.steps_since_sort >= RESORT_INTERVAL:
            self.sort()

    def sort(self) -> None:
        """Fully sort by key descending (ties: older slot first); resets the counter."""
        # slots are unique, so (key descending, slot ascending) is a total
        # order and the permutation is the one a tuple-key sort gives. The
        # lists are permuted as object arrays, so every entry keeps its own
        # Python object and no int is boxed per entry
        slots = np.array(self._slots, dtype=np.int64)
        order = np.lexsort((slots, -np.array(self._keys, dtype=np.float64)))
        self._keys = np.array(self._keys, dtype=object)[order].tolist()
        self._slots = np.array(self._slots, dtype=object)[order].tolist()
        np.frombuffer(self._pos, dtype=np.int64)[slots[order]] = np.arange(order.size)
        self.steps_since_sort = 0

    def heap_ordered(self) -> bool:
        keys = self._keys
        return all(keys[(i - 1) >> 1] >= keys[i] for i in range(1, len(keys)))

    def _sift(self, i: int, slot: int, key: float) -> None:
        """Give the entry at position ``i`` (slot ``slot``, its position already
        indexed) the key ``key`` and restore the heap order.

        The entry moves up while its key is strictly above its parent's, and
        only if it did not move up, down while a child's key is strictly above
        its own (the left child wins a tie between children). Every displaced
        entry shifts one level into the hole and the moving entry is written
        once, at its final position: the layout a sift by pairwise swaps gives.
        Its slot and position are written only if it moved.
        """
        keys, slots, pos = self._keys, self._slots, self._pos
        start = i
        while i > 0:
            parent = (i - 1) >> 1
            above = keys[parent]
            if not key > above:
                break
            keys[i] = above
            slots[i] = moved = slots[parent]
            pos[moved] = i
            i = parent
        if i == start:
            n = len(keys)
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                below = keys[child]
                if child + 1 < n:
                    right = keys[child + 1]
                    if right > below:
                        child += 1
                        below = right
                if not below > key:
                    break
                keys[i] = below
                slots[i] = moved = slots[child]
                pos[moved] = i
                i = child
        keys[i] = key
        if i != start:
            slots[i] = slot
            pos[slot] = i


@dataclass(frozen=True)
class Partition:
    """Rank segments of (approximately) equal mass under P(rank) ~ rank**-alpha.

    ``boundaries`` holds k+1 ascending rank offsets with boundaries[0] == 0 and
    boundaries[-1] == n; segment j covers ranks boundaries[j]+1 ..
    boundaries[j+1]. ``cumulative`` holds the exact cumulative mass at each
    boundary, which is what sampling inverts. ``pieces`` holds each segment's
    (first rank, rank count, knot, mass) for the draws, except a tail whose mass
    rounds away: masses shrink with rank, so that tail's knots are exactly 1.0.
    """

    boundaries: tuple[int, ...]
    cumulative: tuple[float, ...]
    pieces: tuple[tuple[int, int, float, float], ...]


# typed: True must not hit the entry of an equal 1
@lru_cache(maxsize=256, typed=True)
def build_partition(n: int, alpha: float, k: int) -> Partition:
    """Split ranks 1..n into k segments of near-equal mass under rank**-alpha.

    Boundary j sits at the smallest rank whose cumulative mass reaches j/k,
    nudged forward where necessary so every segment keeps at least one rank
    (so k == n forces singleton segments). The deviation of a segment's mass
    from 1/k is bounded by the mass of a single boundary rank.
    """
    _check_count("segment count", k)
    _check_count("rank count", n)
    if n < k:
        raise ValueError(f"cannot split {n} ranks into {k} segments")
    _check_nonnegative("alpha", alpha)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    mass = ranks**-alpha
    cum = np.cumsum(mass)
    cum /= cum[-1]
    cum[-1] = 1.0
    boundaries = [0]
    for j in range(1, k):
        r = int(np.searchsorted(cum, j / k, side="left")) + 1
        r = max(r, boundaries[-1] + 1)
        r = min(r, n - (k - j))
        boundaries.append(r)
    boundaries.append(n)
    b = tuple(boundaries)
    c = (0.0, *(float(cum[r - 1]) for r in b[1:]))
    pieces = tuple((b[j], b[j + 1] - b[j], c[j], c[j + 1] - c[j]) for j in range(k) if c[j] < 1.0)
    return Partition(boundaries=b, cumulative=c, pieces=pieces)


class RankSampler(PrioritizedMemory):
    """Replay memory sampling by |td| rank: P(rank) ~ rank**-alpha.

    The key is |td| with no floor, since rank, not |td|, sets the probability;
    a tail of ranks whose mass rounds to 0 (high alpha) is never drawn. Draws
    are stratified: [0, 1) splits into k equal ranges, one uniform value is
    taken from each and mapped to a rank through the piecewise-linear
    cumulative mass of the live count's partition (build_partition's cache).
    A draw's reported probability is its segment's exact mass spread evenly
    over the segment's ranks: exactly the distribution it was drawn from.
    """

    def __init__(self, config: SamplerConfig):
        super().__init__(config)
        self.heap = RankStore(config.capacity)
        self._alpha = config.alpha

    def _assign_priority(self, slot: int, priority: float) -> None:
        if slot < self._size:
            self.heap.update(slot, priority)
        else:
            self.heap.insert(slot, priority)

    def _fill(self, count: int, priority: float) -> None:
        self.heap._fill(count, priority)

    def priority(self, slot: int) -> float:
        self._check_occupied(slot)
        return self.heap.key_of(slot)

    def partition_for(self, k: int) -> Partition:
        """The partition of the live count into ``min(k, count)`` segments,
        from :func:`build_partition`'s cache."""
        n = self._size
        if n == 0:
            raise ValueError("cannot partition an empty memory")
        return build_partition(n, self._alpha, min(k, n))

    # an alias, so perfbench's tracer finds ``sample`` in this class's own __dict__
    sample = PrioritizedMemory.sample

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        p = self.partition_for(k)
        knots, pieces = p.cumulative, p.pieces
        last_piece = len(pieces) - 1
        heap_slots = self.heap._slots
        # sample_many's arithmetic in the same order, on Python scalars (numpy's
        # per-call overhead on k-element arrays, and min()'s, cost more than
        # the arithmetic). u >= knots[0] = 0 keeps piece and rank nonnegative; u can round
        # to 1.0, past the last piece with mass. The partition spans the live count, so no rank clamp
        slots, probs = [], []
        for j, r in enumerate(rng.random(k).tolist()):
            u = (j + r) / k
            piece = bisect_right(knots, u) - 1
            lo, count, knot, span = pieces[piece if piece < last_piece else last_piece]
            offset = int((u - knot) / span * count)
            rank = lo + (offset if offset < count else count - 1)
            slots.append(heap_slots[rank])
            probs.append(span / count)
        return slots, probs

    def sample_many(
        self, k: int, batches: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``batches`` stratified minibatches at once; returns a (batches, k) slot array.

        It draws what ``batches`` :meth:`sample` calls on ``rng`` draw, by
        :meth:`_draw`'s arithmetic in its order, in place, a chunk of whole
        minibatches (by :func:`_stratum_chunks`) at a time."""
        rng = self._rng_for(k, batches, rng)
        p = self.partition_for(k)
        knots = np.asarray(p.cumulative)
        lo, counts, knot, span = (np.array(column) for column in zip(*p.pieces))
        top, counts = lo + counts - 1, counts.astype(np.float64)
        heap_slots = np.asarray(self.heap._slots, dtype=np.int64)
        # stratum j's values u = (j + r) / k lie in [fl(j/k), fl((j+1)/k)], so
        # u's piece is the stratum's first piece plus the number of knots
        # inside the stratum (above fl(j/k), up to fl((j+1)/k)) that u reaches
        below = np.searchsorted(knots, np.arange(k + 1) / k, side="right")
        first, inner = below[:-1] - 1, np.diff(below)
        inside = np.full((k, inner.max()), np.inf)  # row j: stratum j's knots, then inf
        for j in range(k):
            inside[j, : inner[j]] = knots[first[j] + 1 : first[j] + 1 + inner[j]]
        # knot m of every stratum is compared full width for m < full, and a
        # stratum holding more searches its own column for the rest. A column
        # search costs about one full-width pass at k = 16 (less at larger k),
        # so full minimizes passes + column searches
        full = min(range(inner.max() + 1), key=lambda m: m + int((inner > m).sum()))
        crowded = [(j, inside[j, full : inner[j]]) for j in np.flatnonzero(inner > full)]
        slots = np.empty((batches, k), dtype=np.int64)
        tables = (first, *inside[:, :full].T)
        chunks = _stratum_chunks(k, slots, rng, tables, scratch=(np.float64, np.int64, np.int64, bool))
        for u, slot, (first_piece, *passes, f, piece, i, hit) in chunks:
            piece[:] = first_piece
            for knot_m in passes:
                piece += np.greater_equal(u, knot_m, out=hit)
            for j, rest in crowded:
                piece[j::k] += np.searchsorted(rest, u[j::k], side="right")
            # u can round to 1.0, past the last piece with mass, which mode="clip" reads as that piece
            u -= np.take(knot, piece, out=f, mode="clip")
            u /= np.take(span, piece, out=f, mode="clip")
            u *= np.take(counts, piece, out=f, mode="clip")
            i[:] = u  # truncates, as astype(int64) does
            # slot holds gathered ranks until the last gather writes the slots
            i += np.take(lo, piece, out=slot, mode="clip")
            np.minimum(i, np.take(top, piece, out=slot, mode="clip"), out=i)
            # ranks lie in [0, size - 1]; "clip" only skips the buffered bounds check
            np.take(heap_slots, i, out=slot, mode="clip")
        return slots
