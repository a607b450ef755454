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

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import _BULK_CHUNK, PrioritizedMemory, SampledBatch, SamplerConfig
from .core import _check_count, _check_nonnegative

__all__ = ["RankStore", "Partition", "build_partition", "RankSampler"]

# A cached partition is reused while the live count stays within this
# fraction of the count it was built for.
PARTITION_REUSE_TOLERANCE = 0.10

# Heap updates between two full sorts of the heap array.
RESORT_INTERVAL = 1_000_000


class RankStore:
    """Array-backed binary max-heap of (|td| key, slot id) pairs.

    Heap positions double as approximate ranks: position 0 is rank 1. Every
    key update sifts the entry and bumps ``steps_since_sort``; once that
    counter reaches ``RESORT_INTERVAL`` the array is fully sorted (which also
    restores exact ranks) and the counter resets. The inverse index
    ``slot -> position`` is maintained through every move.
    """

    def __init__(self, capacity: int):
        _check_count("capacity", capacity)
        self._keys: list[float] = []
        self._slots: list[int] = []
        self._pos: list[int] = [-1] * capacity
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
        self._keys.append(key)
        self._slots.append(slot)
        self._sift(len(self._keys) - 1, slot, key)

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
        # order and the permutation is the one a tuple-key sort gives
        order = np.lexsort((np.asarray(self._slots), -np.asarray(self._keys))).tolist()
        keys, slots = self._keys, self._slots
        self._keys = [keys[i] for i in order]
        self._slots = [slots[i] for i in order]
        for position, slot in enumerate(self._slots):
            self._pos[slot] = position
        self.steps_since_sort = 0

    def heap_ordered(self) -> bool:
        keys = self._keys
        return all(keys[(i - 1) >> 1] >= keys[i] for i in range(1, len(keys)))

    def _sift(self, i: int, slot: int, key: float) -> None:
        """Place ``(key, slot)`` at position ``i`` and restore the heap order.

        The entry moves up while its key is strictly above its parent's, and
        only if it did not move up, down while a child's key is strictly above
        its own (the left child wins a tie between children). Every displaced
        entry shifts one level into the hole and the moving entry is written
        once, at its final position: the layout a sift by pairwise swaps gives.
        """
        keys, slots, pos = self._keys, self._slots, self._pos
        start = i
        while i > 0:
            parent = (i - 1) >> 1
            if not key > keys[parent]:
                break
            keys[i] = keys[parent]
            slots[i] = moved = slots[parent]
            pos[moved] = i
            i = parent
        if i == start:
            n = len(keys)
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                if child + 1 < n and keys[child + 1] > keys[child]:
                    child += 1
                if not keys[child] > key:
                    break
                keys[i] = keys[child]
                slots[i] = moved = slots[child]
                pos[moved] = i
                i = child
        keys[i] = key
        slots[i] = slot
        pos[slot] = i


@dataclass(frozen=True)
class Partition:
    """Rank segments of (approximately) equal mass under P(rank) ~ rank**-alpha.

    ``boundaries`` holds k+1 ascending rank offsets with boundaries[0] == 0 and
    boundaries[-1] == size; segment j covers ranks boundaries[j]+1 ..
    boundaries[j+1]. ``cumulative`` holds the exact cumulative mass at each
    boundary, which is what sampling inverts.
    """

    boundaries: tuple[int, ...]
    cumulative: tuple[float, ...]
    size: int
    segments: int

    def segment_masses(self) -> np.ndarray:
        return np.diff(np.asarray(self.cumulative, dtype=np.float64))


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
    cumulative = (0.0, *(float(cum[b - 1]) for b in boundaries[1:]))
    return Partition(
        boundaries=tuple(boundaries),
        cumulative=cumulative,
        size=n,
        segments=k,
    )


class RankSampler(PrioritizedMemory):
    """Replay memory sampling by |td| rank: P(rank) ~ rank**-alpha.

    The priority key is |td| itself (no floor needed: even the worst rank has
    positive mass). Draws are stratified: [0, 1) splits into k equal
    probability ranges, one uniform value is taken from each, and each value
    maps to a rank through the partition's piecewise-linear cumulative mass.
    The reported probability of a draw is its segment's exact mass spread
    uniformly over the segment's ranks, i.e. precisely the distribution the
    draw was taken from.

    The partition is cached and reused while the live count stays within 10%
    of the count it was built for; ranks beyond the partition's size are not
    reachable until it is rebuilt, mirroring the cheap-reuse tradeoff this
    sampler is designed around.
    """

    def __init__(self, config: SamplerConfig):
        super().__init__(config)
        self.heap = RankStore(config.capacity)
        self._alpha = config.alpha
        self._partition: Partition | None = None
        # (first rank, rank count, cumulative mass at start, mass) per segment
        self._pieces: list[tuple[int, int, float, float]] = []

    def _assign_priority(self, slot: int, priority: float, occupied: bool) -> None:
        if occupied:
            self.heap.update(slot, priority)
        else:
            self.heap.insert(slot, priority)

    def priority(self, slot: int) -> float:
        self._check_occupied(slot)
        return self.heap.key_of(slot)

    def partition_for(self, k: int) -> Partition:
        """Current partition, rebuilt only when (size, segments) drifts."""
        n = self._size
        if n == 0:
            raise ValueError("cannot partition an empty memory")
        segments = min(k, n)
        p = self._partition
        if (
            p is None
            or p.segments != segments
            or abs(n - p.size) > PARTITION_REUSE_TOLERANCE * p.size
        ):
            p = build_partition(n, self._alpha, segments)
            self._partition = p
            b, c = p.boundaries, p.cumulative
            self._pieces = [(b[j], b[j + 1] - b[j], c[j], c[j + 1] - c[j]) for j in range(segments)]
        return p

    def sample(self, k: int | None = None, rng: np.random.Generator | None = None) -> SampledBatch:
        k = self.config.minibatch if k is None else k
        slots, probs = self._draw(k, self._rng_for(k, 1, rng))
        return SampledBatch(
            indices=slots, probabilities=probs, transitions=[self._transitions[s] for s in slots]
        )

    def _draw(self, k: int, rng: np.random.Generator) -> tuple[list[int], list[float]]:
        """Slots and probabilities of one stratified minibatch of ``k`` from a
        non-empty memory, unchecked: what :meth:`sample` wraps."""
        knots = self.partition_for(k).cumulative
        pieces = self._pieces
        last_piece = len(pieces) - 1
        heap_slots = self.heap._slots
        # sample_many's arithmetic in the same order, on Python scalars (numpy's
        # per-call overhead on k-element arrays, and min()'s, cost more than
        # the arithmetic). u >= knots[0] = 0 keeps piece and rank nonnegative; u can
        # round to 1.0 (piece `segments`). No partition outgrows the memory, so no rank clamp
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
        :meth:`_draw`'s arithmetic in its order, in chunks of whole
        minibatches (about ``_BULK_CHUNK`` draws) in place."""
        rng = self._rng_for(k, batches, rng)
        knots = np.asarray(self.partition_for(k).cumulative)
        lo, counts, knot, span = (np.array(column) for column in zip(*self._pieces))
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
        step = max(_BULK_CHUNK // k, 1) * k
        # per-stratum values tiled over a chunk's rows: contiguous operands
        # run about three times faster than ones broadcast along each row
        rows = min(batches, step // k)
        offsets = np.tile(np.arange(k, dtype=np.float64), rows)
        first_piece = np.tile(first, rows)
        passes = [np.tile(inside[:, m], rows) for m in range(full)]
        u_buf, f_buf = np.empty((2, rows * k))
        piece_buf, i_buf = np.empty((2, rows * k), dtype=np.int64)
        hit_buf = np.empty(rows * k, dtype=bool)
        flat = slots.reshape(-1)
        for start in range(0, flat.size, step):
            slot = flat[start : start + step]
            n = slot.size
            u, f, piece, i, hit = u_buf[:n], f_buf[:n], piece_buf[:n], i_buf[:n], hit_buf[:n]
            rng.random(out=u)
            u += offsets[:n]
            u /= k
            piece[:] = first_piece[:n]
            for knot_m in passes:
                piece += np.greater_equal(u, knot_m[:n], out=hit)
            for j, rest in crowded:
                piece[j::k] += np.searchsorted(rest, u[j::k], side="right")
            # u can round to 1.0 (piece `segments`), which mode="clip" reads as the last piece
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
