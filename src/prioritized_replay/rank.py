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


class RankStore:
    """Array-backed binary max-heap of (|td| key, slot id) pairs.

    Heap positions double as approximate ranks: position 0 is rank 1. Every
    key update sifts the entry and bumps ``steps_since_sort``; once that
    counter reaches ``resort_interval`` the array is fully sorted (which also
    restores exact ranks) and the counter resets. The inverse index
    ``slot -> position`` is maintained through every move.
    """

    def __init__(self, capacity: int, resort_interval: int = 1_000_000):
        _check_count("capacity", capacity)
        _check_count("resort_interval", resort_interval)
        self._keys: list[float] = []
        self._slots: list[int] = []
        self._pos: list[int] = [-1] * capacity
        self.resort_interval = resort_interval
        self.steps_since_sort = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, slot: int) -> bool:
        return 0 <= slot < len(self._pos) and self._pos[slot] >= 0

    def key_of(self, slot: int) -> float:
        return self._keys[self._pos[slot]]

    def keys(self) -> list[float]:
        return list(self._keys)

    def slots(self) -> list[int]:
        return list(self._slots)

    def slots_array(self) -> np.ndarray:
        return np.asarray(self._slots, dtype=np.int64)

    def insert(self, slot: int, key: float) -> None:
        if slot in self:
            raise ValueError(f"slot {slot} already present")
        self._keys.append(key)
        self._slots.append(slot)
        self._sift(len(self._keys) - 1, slot, key)

    def update(self, slot: int, key: float) -> None:
        i = self._pos[slot]
        if i < 0:
            raise KeyError(f"slot {slot} not present")
        self._sift(i, slot, key)
        self.steps_since_sort += 1
        if self.steps_since_sort >= self.resort_interval:
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


@lru_cache(maxsize=256)
def build_partition(n: int, alpha: float, k: int) -> Partition:
    """Split ranks 1..n into k segments of near-equal mass under rank**-alpha.

    Boundary j sits at the smallest rank whose cumulative mass reaches j/k,
    nudged forward where necessary so every segment keeps at least one rank
    (so k == n forces singleton segments). The deviation of a segment's mass
    from 1/k is bounded by the mass of a single boundary rank.
    """
    if k < 1:
        raise ValueError("segment count must be positive")
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

    def __init__(self, config: SamplerConfig, rng: np.random.Generator | None = None):
        super().__init__(config, rng)
        self.heap = RankStore(config.capacity, config.resort_interval)
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

    def partition_for(self, k: int | None = None) -> Partition:
        """Current partition, rebuilt only when (size, segments) drifts."""
        n = self._size
        if n == 0:
            raise ValueError("cannot partition an empty memory")
        k = self.config.minibatch if k is None else k
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
        # _draw_ranks' arithmetic in the same order, on Python scalars (numpy's
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

        It draws what ``batches`` :meth:`sample` calls on ``rng`` draw."""
        rng = self._rng_for(k, batches, rng)
        ranks = self._draw_ranks(batches * k, rng, strata=k)
        return self.heap.slots_array()[ranks].reshape(batches, k)

    def _draw_ranks(self, count: int, rng: np.random.Generator, strata: int) -> np.ndarray:
        """0-based rank positions for ``count`` draws in minibatches of
        ``strata``, by :meth:`_draw`'s arithmetic in its order, in chunks of
        whole minibatches (about ``_BULK_CHUNK`` draws) in place."""
        knots = np.asarray(self.partition_for(strata).cumulative)
        lo, counts, knot, span = (np.array(column) for column in zip(*self._pieces))
        top, counts = lo + counts - 1, counts.astype(np.float64)
        ranks = np.empty(count, dtype=np.int64)
        step = max(_BULK_CHUNK // strata, 1) * strata
        u_buf, f_buf = np.empty((2, min(count, step)))
        i_buf = np.empty(u_buf.size, dtype=np.int64)
        for start in range(0, count, step):
            rank = ranks[start : start + step]
            u, f, i = u_buf[: rank.size], f_buf[: rank.size], i_buf[: rank.size]
            rng.random(out=u)
            np.add(u.reshape(-1, strata), np.arange(strata, dtype=np.float64), out=u.reshape(-1, strata))
            u /= strata
            # u >= knots[0] = 0 keeps the piece nonnegative; u can round to
            # 1.0 (piece `segments`), which mode="clip" reads as the last piece
            piece = np.searchsorted(knots, u, side="right")
            piece -= 1
            u -= np.take(knot, piece, out=f, mode="clip")
            u /= np.take(span, piece, out=f, mode="clip")
            u *= np.take(counts, piece, out=f, mode="clip")
            rank[:] = u  # truncates, as astype(int64) does
            rank += np.take(lo, piece, out=i, mode="clip")
            np.minimum(rank, np.take(top, piece, out=i, mode="clip"), out=rank)
        return ranks
