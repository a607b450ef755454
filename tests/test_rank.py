import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioritized_replay import (
    RankSampler,
    RankStore,
    SamplerConfig,
    Transition,
    build_partition,
    sampling_probabilities,
)
from prioritized_replay import rank
from prioritized_replay.core import _BULK_CHUNK
from reference import piece_probabilities

TERMINAL = Transition(0, 0, 0.0, 0.0, 0, is_terminal=True)


def prepared_sampler(magnitudes, alpha=0.7, minibatch=None, seed=0):
    k = minibatch if minibatch is not None else len(magnitudes)
    config = SamplerConfig(capacity=len(magnitudes), alpha=alpha, minibatch=k, seed=seed)
    sampler = RankSampler(config)
    for _ in magnitudes:
        sampler.store(TERMINAL)
    for i, m in enumerate(magnitudes):
        sampler.update_priority(i, m)
    sampler.heap.sort()
    return sampler


def exact_ranks(magnitudes):
    """1-based ranks under descending |td| with older-slot tie-break."""
    order = sorted(range(len(magnitudes)), key=lambda i: (-magnitudes[i], i))
    ranks = [0] * len(magnitudes)
    for position, slot in enumerate(order):
        ranks[slot] = position + 1
    return np.array(ranks)


def rank_of(store, slot):
    """1-based rank approximated by the slot's current heap position."""
    return list(store._slots).index(slot) + 1


def assert_position_index(store):
    """The inverse index gives each entry's heap position and -1 for every absent slot."""
    slots = list(store._slots)
    assert [store._pos[slot] for slot in slots] == list(range(len(slots)))
    absent = set(range(len(store._pos))) - set(slots)
    assert all(store._pos[slot] == -1 for slot in absent)


# -- heap ---------------------------------------------------------------------


def test_raising_a_key_above_the_root_moves_it_to_rank_one():
    store = RankStore(capacity=8)
    for slot, key in enumerate([5.0, 3.0, 4.0, 1.0]):
        store.insert(slot, key)
    store.update(3, 9.0)
    assert rank_of(store, 3) == 1
    assert store.heap_ordered()


def test_updating_with_an_equal_key_keeps_the_position():
    store = RankStore(capacity=8)
    for slot, key in enumerate([5.0, 3.0, 4.0, 1.0]):
        store.insert(slot, key)
    position = rank_of(store, 1)
    store.update(1, 3.0)
    assert rank_of(store, 1) == position


def test_a_slot_out_of_range_is_refused_before_anything_changes():
    """A negative slot would index the inverse index from its end, and one
    past the capacity would be appended before failing: every call refuses
    both first, and a slot in range that is absent is a KeyError for key_of."""
    store = RankStore(capacity=4)
    for slot, key in enumerate([5.0, 3.0, 4.0, 1.0]):
        store.insert(slot, key)
    before = (list(store._keys), list(store._slots), list(store._pos), store.steps_since_sort)
    for call in (
        lambda: store.update(-1, 10.0),
        lambda: store.update(4, 10.0),
        lambda: store.insert(7, 2.0),
        lambda: store.insert(-1, 2.0),
        lambda: store.key_of(-1),
        lambda: store.key_of(4),
    ):
        with pytest.raises(IndexError, match="out of range"):
            call()
        assert (list(store._keys), list(store._slots), list(store._pos), store.steps_since_sort) == before
    sparse = RankStore(capacity=4)
    sparse.insert(0, 1.0)
    with pytest.raises(KeyError):
        sparse.key_of(3)
    assert store.key_of(3) == 1.0


def test_resort_interval_triggers_a_full_sort(monkeypatch):
    store = RankStore(capacity=16)
    rng = np.random.default_rng(2)
    for slot in range(10):
        store.insert(slot, float(rng.uniform(0, 1)))
    # the store reads the interval at each update, so a change reaches a built store
    monkeypatch.setattr(rank, "RESORT_INTERVAL", 3)
    store.update(0, 0.31)
    store.update(5, 0.72)
    assert store.steps_since_sort == 2
    store.update(7, 0.11)  # third update hits the interval
    assert store.steps_since_sort == 0
    assert list(store._keys) == sorted(list(store._keys), reverse=True)


def test_full_sort_orders_keys_non_increasing():
    rng = np.random.default_rng(9)
    store = RankStore(capacity=1000)
    keys = rng.uniform(0, 10, 1000)
    for slot, key in enumerate(keys):
        store.insert(slot, float(key))
    store.sort()
    assert list(store._keys) == sorted(keys.tolist(), reverse=True)
    # inverse index intact
    sorted_keys = list(store._keys)
    for position, slot in enumerate(list(store._slots)):
        assert store.key_of(slot) == sorted_keys[position]


def test_full_sort_on_sorted_and_reversed_inputs():
    store = RankStore(capacity=8)
    for slot, key in enumerate([4.0, 3.0, 2.0, 1.0]):
        store.insert(slot, key)
    store.sort()
    assert list(store._keys) == [4.0, 3.0, 2.0, 1.0]
    reverse = RankStore(capacity=8)
    for slot, key in enumerate([1.0, 2.0, 3.0, 4.0]):
        reverse.insert(slot, key)
    reverse.sort()
    assert list(reverse._keys) == [4.0, 3.0, 2.0, 1.0]
    assert list(reverse._slots) == [3, 2, 1, 0]


def test_equal_keys_sort_older_slot_first():
    store = RankStore(capacity=8)
    for slot, key in enumerate([2.0, 5.0, 2.0, 5.0]):
        store.insert(slot, key)
    store.sort()
    assert list(store._slots) == [1, 3, 0, 2]


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.tuples(st.integers(0, 15), st.floats(0.0, 10.0)), min_size=1, max_size=60)
)
def test_heap_property_holds_after_every_operation(ops):
    store = RankStore(capacity=16)
    present = set()
    for slot, key in ops:
        if slot in present:
            store.update(slot, key)
        else:
            store.insert(slot, key)
            present.add(slot)
        assert store.heap_ordered()
        assert sorted(list(store._slots)) == sorted(present)
        keys, slots = list(store._keys), list(store._slots)
        for s in present:
            assert store.key_of(s) == keys[slots.index(s)]


@pytest.mark.parametrize(
    "entries",
    [[], [(3, 2.5)], [(5, 1.0), (2, 1.0), (7, 1.0), (0, 1.0)]],
    ids=["empty", "one", "tied"],
)
def test_sort_keeps_the_position_index(entries):
    """numpy reads an empty list as a float array, which cannot index the
    positions: the sort must scatter from an int64 array even then."""
    store = RankStore(capacity=8)
    for slot, key in entries:
        store.insert(slot, key)
    store.sort()
    ordered = sorted(entries, key=lambda entry: (-entry[1], entry[0]))
    assert list(store._slots) == [slot for slot, _ in ordered]
    assert list(store._keys) == [key for _, key in ordered]
    assert_position_index(store)


def test_a_sort_boxes_no_int_per_entry():
    """sort() permutes the lists' own objects and scatters the positions with
    numpy: on 2^16 distinct keys its traced peak is 48 B an entry. The bound
    adds 8 B of margin; keeping the order as a list of boxed ints (as
    ``order.tolist()`` did, 85 B an entry) adds at least 36 B."""
    n = 1 << 16
    store = RankStore(capacity=n)
    keys = np.random.default_rng(0).permutation(n).astype(np.float64).tolist()
    for slot, key in enumerate(keys):
        store.insert(slot, key)
    tracemalloc.start()
    try:
        store.sort()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * n
    assert list(store._keys) == sorted(keys, reverse=True)
    assert_position_index(store)


def test_sort_orders_tied_and_zero_keys_by_slot():
    store = RankStore(capacity=8)
    for slot, key in [(5, 0.0), (2, 3.0), (7, 1.5), (0, 0.0), (6, 3.0), (1, 1.5), (4, 0.0), (3, 3.0)]:
        store.insert(slot, key)
    store.sort()
    assert list(store._slots) == [2, 3, 6, 1, 7, 0, 4, 5]
    assert list(store._keys) == [3.0, 3.0, 3.0, 1.5, 1.5, 0.0, 0.0, 0.0]
    assert [rank_of(store, s) for s in range(8)] == [6, 4, 1, 2, 7, 8, 3, 5]


class SwapHeap:
    """Reference heap: the same rules as RankStore, sifting by pairwise swaps."""

    def __init__(self, capacity, resort_interval):
        self.keys, self.slots, self.pos = [], [], [-1] * capacity
        self.resort_interval = resort_interval
        self.steps_since_sort = 0

    def insert(self, slot, key):
        self.keys.append(key)
        self.slots.append(slot)
        self.pos[slot] = len(self.keys) - 1
        self._sift_up(len(self.keys) - 1)

    def update(self, slot, key):
        i = self.pos[slot]
        self.keys[i] = key
        self._sift_down(self._sift_up(i))
        self.steps_since_sort += 1
        if self.steps_since_sort >= self.resort_interval:
            self.sort()

    def sort(self):
        order = sorted(range(len(self.keys)), key=lambda i: (-self.keys[i], self.slots[i]))
        self.keys = [self.keys[i] for i in order]
        self.slots = [self.slots[i] for i in order]
        for position, slot in enumerate(self.slots):
            self.pos[slot] = position
        self.steps_since_sort = 0

    def _sift_up(self, i):
        while i > 0 and self.keys[i] > self.keys[(i - 1) >> 1]:
            self._swap(i, (i - 1) >> 1)
            i = (i - 1) >> 1
        return i

    def _sift_down(self, i):
        n = len(self.keys)
        while True:
            left = 2 * i + 1
            if left >= n:
                return
            largest = left if self.keys[left] > self.keys[i] else i
            if left + 1 < n and self.keys[left + 1] > self.keys[largest]:
                largest = left + 1
            if largest == i:
                return
            self._swap(i, largest)
            i = largest

    def _swap(self, i, j):
        self.keys[i], self.keys[j] = self.keys[j], self.keys[i]
        self.slots[i], self.slots[j] = self.slots[j], self.slots[i]
        self.pos[self.slots[i]] = i
        self.pos[self.slots[j]] = j


@settings(max_examples=100, deadline=None)
@given(
    resort_interval=st.sampled_from([1, 3, 10**9]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["store", "store", "sort"]),
            st.integers(0, 23),
            # few distinct keys, so ties (and ties at 0.0) are common
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0)),
        ),
        min_size=1,
        max_size=80,
    ),
)
def test_heap_layout_matches_a_swap_based_heap(resort_interval, ops):
    store = RankStore(capacity=24)
    reference = SwapHeap(capacity=24, resort_interval=resort_interval)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rank, "RESORT_INTERVAL", resort_interval)
        for op, slot, key in ops:
            if op == "sort":
                store.sort()
                reference.sort()
            elif slot in list(store._slots):
                store.update(slot, key)
                reference.update(slot, key)
            else:
                store.insert(slot, key)
                reference.insert(slot, key)
            assert list(store._keys) == reference.keys
            assert list(store._slots) == reference.slots
            assert store.steps_since_sort == reference.steps_since_sort
            assert all(store.key_of(s) == reference.keys[reference.pos[s]] for s in reference.slots)
            assert store.heap_ordered()
            assert_position_index(store)


# -- partitions -----------------------------------------------------------------


def test_partition_example_four_ranks_two_segments():
    partition = build_partition(4, 1.0, 2)
    assert partition.boundaries == (0, 2, 4)
    assert np.allclose(np.diff(partition.cumulative), [0.72, 0.28])
    harmonic = 1 + 1 / 2 + 1 / 3 + 1 / 4
    assert partition.cumulative[1] == pytest.approx((1 + 0.5) / harmonic)


def test_partition_alpha_zero_gives_equal_counts():
    partition = build_partition(12, 0.0, 4)
    assert partition.boundaries == (0, 3, 6, 9, 12)
    assert np.allclose(np.diff(partition.cumulative), 0.25)


def test_partition_single_segment_and_singletons():
    assert build_partition(7, 0.9, 1).boundaries == (0, 7)
    assert build_partition(5, 1.0, 5).boundaries == (0, 1, 2, 3, 4, 5)


def test_partition_rejects_more_segments_than_ranks():
    with pytest.raises(ValueError):
        build_partition(3, 0.5, 4)


def test_partition_rejects_a_count_that_is_not_an_integer():
    # an equal int's cached entry must not answer for True or 2.0
    build_partition(8, 0.7, 1)
    build_partition(8, 0.7, 2)
    for n, k in ((8, True), (8, 2.0), (8, 1.5), (8, 0), (True, 1), (8.0, 2)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_partition(n, 0.7, k)
    assert build_partition(8, 0.7, np.int64(2)).boundaries == build_partition(8, 0.7, 2).boundaries


@pytest.mark.parametrize(
    "n,alpha,k",
    [(4096, 0.7, 16), (1000, 0.0, 10), (64, 1.0, 2), (1024, 0.5, 8), (512, 0.6, 4)],
)
def test_partition_masses_balance_within_discreteness(n, alpha, k):
    partition = build_partition(n, alpha, k)
    masses = np.diff(partition.cumulative)
    assert np.abs(masses - 1.0 / k).max() <= 1.0 / (2 * k)
    assert masses.sum() == pytest.approx(1.0)
    counts = np.diff(partition.boundaries)
    assert counts.min() >= 1 and counts.sum() == n


def test_a_grown_memory_gets_a_partition_of_its_own_size():
    """Every draw on a growing memory uses a partition of the live count, so
    the live ranks' probabilities sum to 1 and the newest rank is reachable."""
    sampler = RankSampler(SamplerConfig(capacity=200, alpha=0.7, minibatch=16))
    for _ in range(100):
        sampler.store(TERMINAL)
    for _ in range(23):  # grow to 123, drawing after each store
        sampler.store(TERMINAL)
        sampler.sample(16, rng=np.random.default_rng(0))
        partition = sampler.partition_for(16)
        assert partition is build_partition(len(sampler), 0.7, 16)
        assert partition.boundaries[-1] == len(sampler)
        assert piece_probabilities(partition, range(len(sampler))).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 16])
@pytest.mark.parametrize("alpha", [0.0, 0.7, 3.0])
@pytest.mark.parametrize("n", [1, 5, 16, 4096])
def test_pieces_come_from_the_boundaries_and_partition_for_is_the_cached_build(n, alpha, k):
    """Each piece is its segment's (first rank, rank count, knot, mass); at
    these alphas every segment has mass. A sampler asks the partition cache
    for its live count and keeps no partition of its own."""
    sampler = RankSampler(SamplerConfig(capacity=n, alpha=alpha, minibatch=k))
    for _ in range(n):
        sampler.store(TERMINAL)
    partition = sampler.partition_for(k)
    b, c = partition.boundaries, partition.cumulative
    assert partition.pieces == tuple((b[j], b[j + 1] - b[j], c[j], c[j + 1] - c[j]) for j in range(len(b) - 1))
    assert partition is build_partition(len(sampler), alpha, min(k, len(sampler)))


# -- sampling -----------------------------------------------------------------


def test_exact_rank_sampling_matches_the_power_law():
    rng = np.random.default_rng(4)
    magnitudes = rng.uniform(0.05, 3.0, 16).tolist()
    sampler = prepared_sampler(magnitudes, alpha=0.7)
    target = sampling_probabilities(1.0 / exact_ranks(magnitudes), 0.7)
    slots = sampler.sample_many(16, 20_000, rng=np.random.default_rng(5)).ravel()
    freq = np.bincount(slots, minlength=16) / slots.size
    assert 0.5 * np.abs(freq - target).sum() < 0.02


def test_rank_approximation_quality_on_a_larger_fixture():
    """With a full re-sort every step, a million draws track the exact power law."""
    rng = np.random.default_rng(21)
    magnitudes = rng.uniform(0.01, 5.0, 32).tolist()
    for alpha in (0.5, 1.0):
        sampler = prepared_sampler(magnitudes, alpha=alpha)
        target = sampling_probabilities(1.0 / exact_ranks(magnitudes), alpha)
        slots = sampler.sample_many(32, 31_250, rng=np.random.default_rng(22)).ravel()
        freq = np.bincount(slots, minlength=32) / slots.size
        assert 0.5 * np.abs(freq - target).sum() < 0.01


def test_reported_probabilities_are_exact_with_singleton_segments():
    magnitudes = [0.9, 0.1, 0.5, 0.3]
    sampler = prepared_sampler(magnitudes, alpha=1.0)
    target = sampling_probabilities(1.0 / exact_ranks(magnitudes), 1.0)
    batch = sampler.sample(4)
    for slot, prob in zip(batch.indices, batch.probabilities):
        assert prob == pytest.approx(target[slot], rel=1e-12)


def test_two_segment_probabilities_flatten_within_segments():
    # ranks {1,2} share mass 0.72, ranks {3,4} share 0.28
    magnitudes = [0.9, 0.1, 0.5, 0.3]
    sampler = prepared_sampler(magnitudes, alpha=1.0, minibatch=2)
    batch = sampler.sample(2)
    for slot, prob in zip(batch.indices, batch.probabilities):
        rank = exact_ranks(magnitudes)[slot]
        expected = 0.36 if rank <= 2 else 0.14
        assert prob == pytest.approx(expected, rel=1e-12)


def test_alpha_zero_with_k_equal_occupancy_returns_each_slot_once():
    magnitudes = list(np.linspace(1.0, 0.2, 8))
    sampler = prepared_sampler(magnitudes, alpha=0.0)
    batch = sampler.sample(8)
    assert sorted(batch.indices) == list(range(8))
    assert np.allclose(batch.probabilities, 1 / 8)


def test_every_batch_draws_from_the_top_segment():
    rng = np.random.default_rng(8)
    magnitudes = rng.uniform(0.01, 1.0, 200).tolist()
    sampler = prepared_sampler(magnitudes, alpha=0.7, minibatch=16)
    partition = sampler.partition_for(16)
    ranks = exact_ranks(magnitudes)
    top = {i for i in range(200) if ranks[i] <= partition.boundaries[1]}
    for _ in range(100):
        batch = sampler.sample()
        assert top.intersection(batch.indices)


def test_power_law_slope_matches_alpha():
    magnitudes = list(np.linspace(5.0, 0.1, 32))
    for alpha in (0.5, 0.7, 1.0):
        sampler = prepared_sampler(magnitudes, alpha=alpha)
        batch = sampler.sample(32)
        ranks = np.array([exact_ranks(magnitudes)[s] for s in batch.indices], dtype=float)
        probs = np.asarray(batch.probabilities)
        slope = np.polyfit(np.log(ranks), np.log(probs), 1)[0]
        assert slope == pytest.approx(-alpha, abs=0.02)


def test_new_transition_enters_the_top_segment():
    magnitudes = [0.8, 0.6, 0.4, 0.2, 0.05]
    sampler = prepared_sampler(magnitudes, minibatch=5)
    slot = sampler.store(TERMINAL)
    assert sampler.priority(slot) == pytest.approx(1.0)  # running max from the bootstrap
    sampler.heap.sort()
    assert rank_of(sampler.heap, slot) == 1


def test_heap_order_approximates_ranks_without_resort():
    rng = np.random.default_rng(12)
    sampler = prepared_sampler(rng.uniform(0, 1, 64).tolist())
    # after a full sort every element's heap position equals its exact rank
    sampler.heap.sort()
    ranks = exact_ranks([sampler.priority(i) for i in range(64)])
    for slot in range(64):
        assert rank_of(sampler.heap, slot) == ranks[slot]


def stored_sampler(size, capacity=None, alpha=0.7, minibatch=16, seed=0):
    """Sampler holding ``size`` transitions under Student-t TD errors, never re-sorted."""
    config = SamplerConfig(capacity=capacity or size, alpha=alpha, minibatch=minibatch, seed=seed)
    sampler = RankSampler(config)
    for _ in range(size):
        sampler.store(TERMINAL)
    for slot, td in enumerate(np.random.default_rng(size).standard_t(2, size=size)):
        sampler.update_priority(slot, float(td))
    return sampler


def assert_probabilities_match_the_partition(sampler, k, slots, probabilities):
    """Each drawn slot's probability is its rank's under the cached partition."""
    position = {slot: rank for rank, slot in enumerate(sampler.heap._slots)}
    ranks = [position[slot] for slot in slots]
    assert np.array_equal(probabilities, piece_probabilities(sampler.partition_for(k), ranks))


def assert_sample_matches_the_bulk_path(sampler, k):
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        bulk = sampler.sample_many(k, 1, rng=np.random.default_rng(seed))[0]
        assert batch.indices == bulk.tolist()
        assert_probabilities_match_the_partition(sampler, k, batch.indices, batch.probabilities)


@pytest.mark.parametrize("size, k", [(100, 1), (100, 16), (300, 32), (5, 16), (1, 4)])
def test_sample_draws_what_sample_many_draws(size, k):
    """The per-call and the bulk path give the same slots, and the per-call
    path the partition's probabilities."""
    assert_sample_matches_the_bulk_path(stored_sampler(size, minibatch=k), k)


def grown_sampler(size, grown, **kwargs):
    """``stored_sampler(size)`` with its partition built, then grown to ``grown``
    transitions: the draws must use a partition rebuilt at the new count, in
    which the newest rank is reachable."""
    sampler = stored_sampler(size, **kwargs)
    first = sampler.partition_for(16)
    for _ in range(grown - size):
        sampler.store(TERMINAL)
    slots, _ = sampler._draw(16, LastStratumTop())
    partition = sampler.partition_for(16)
    assert partition is not first and partition.boundaries[-1] == grown
    assert rank_of(sampler.heap, slots[-1]) == grown
    return sampler


def test_sample_draws_what_sample_many_draws_on_a_grown_memory():
    assert_sample_matches_the_bulk_path(grown_sampler(100, 109, capacity=200), 16)


# b minibatches of k whose b * k draws end just below, at and just past one
# bulk chunk, and, for a k that does not divide the chunk, span several
CHUNK_CASES = [(k, _BULK_CHUNK // k + d) for k in (1, 7, 16, 32) for d in (-1, 0, 1)] + [(7, 3 * _BULK_CHUNK // 7 + 5)]


@pytest.mark.parametrize("k, batches", CHUNK_CASES)
def test_sample_many_draws_what_successive_samples_draw(k, batches):
    sampler = stored_sampler(300, minibatch=k)
    rng = np.random.default_rng(4)
    samples = [sampler.sample(k, rng=rng) for _ in range(batches)]
    bulk_rng = np.random.default_rng(4)
    assert sampler.sample_many(k, batches, rng=bulk_rng).tolist() == [batch.indices for batch in samples]
    assert bulk_rng.bit_generator.state == rng.bit_generator.state
    assert_probabilities_match_the_partition(
        sampler, k,
        [slot for batch in samples for slot in batch.indices],
        np.concatenate([batch.probabilities for batch in samples]),
    )


def assert_draw_is_what_sample_wraps(sampler, k):
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        slots, probs = sampler._draw(k, np.random.default_rng(seed))
        assert (slots, probs) == (batch.indices, batch.probabilities.tolist())


@pytest.mark.parametrize("size, capacity, k", [(100, 100, 16), (300, 300, 32), (100, 200, 16), (5, 8, 16), (1, 4, 4)])
def test_draw_is_what_sample_wraps(size, capacity, k):
    assert_draw_is_what_sample_wraps(stored_sampler(size, capacity=capacity, minibatch=k), k)


class LastStratumTop:
    """Generator stub whose last stratum draws the largest double below 1."""

    def random(self, k):
        return np.array([0.5] * (k - 1) + [1.0 - 2.0**-53])


@pytest.mark.parametrize("size, capacity", [(100, 100), (109, 200)])
def test_a_stratum_end_rounding_to_one_draws_from_the_last_piece(size, capacity):
    sampler = stored_sampler(100, capacity=capacity)
    for _ in range(size - 100):
        sampler.store(TERMINAL)
    part = sampler.partition_for(16)
    assert (15 + (1.0 - 2.0**-53)) / 16 == 1.0  # past the last knot's bisect
    slots, probs = sampler._draw(16, LastStratumTop())
    assert part.boundaries[-2] < rank_of(sampler.heap, slots[-1]) <= min(part.boundaries[-1], size)
    assert probs[-1] == np.diff(part.cumulative)[-1] / np.diff(part.boundaries)[-1]
    assert sampler.sample(16, rng=LastStratumTop()).indices == slots


class EveryStratumTop:
    """Generator stub drawing the largest double below 1 for every stratum,
    one minibatch (``random(k)``) or a bulk buffer (``random(out=...)``) at a time."""

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out.fill(1.0 - 2.0**-53)
        return out


@pytest.mark.parametrize("size, capacity", [(100, 100), (109, 200)])
def test_the_bulk_path_draws_stratum_ends_as_the_draw_does(size, capacity):
    """Each stratum's end lies on or just below the next stratum's start, and
    the last one rounds to 1.0, past the last knot."""
    sampler = stored_sampler(100, capacity=capacity)
    for _ in range(size - 100):
        sampler.store(TERMINAL)
    slots, probs = sampler._draw(16, EveryStratumTop())
    assert sampler.sample_many(16, 3, rng=EveryStratumTop()).tolist() == [slots] * 3
    assert_probabilities_match_the_partition(sampler, 16, slots, probs)


def most_knots_in_a_stratum(partition, k):
    """The largest number of knots above j/k and up to (j+1)/k, over strata j."""
    knots = np.asarray(partition.cumulative)
    return max(int(((knots > j / k) & (knots <= (j + 1) / k)).sum()) for j in range(k))


def assert_sample_many_draws_what_successive_samples_draw(sampler, k, batches):
    rng = np.random.default_rng(4)
    samples = [sampler.sample(k, rng=rng).indices for _ in range(batches)]
    bulk_rng = np.random.default_rng(4)
    assert sampler.sample_many(k, batches, rng=bulk_rng).tolist() == samples
    assert bulk_rng.bit_generator.state == rng.bit_generator.state


# at n = k = 16 a higher alpha crowds more knots into the last strata
@pytest.mark.parametrize("alpha, most", [(0.0, 1), (0.7, 3), (1.0, 4), (2.0, 11), (3.0, 14)])
def test_sample_many_finds_each_piece_however_many_knots_a_stratum_holds(alpha, most):
    sampler = stored_sampler(16, alpha=alpha)
    assert most_knots_in_a_stratum(sampler.partition_for(16), 16) == most
    assert_sample_many_draws_what_successive_samples_draw(sampler, 16, _BULK_CHUNK // 16 + 3)


@pytest.mark.parametrize("alpha", [0.7, 3.0])
def test_sample_many_finds_each_piece_on_a_grown_memory(alpha):
    sampler = grown_sampler(16, 17, capacity=32, alpha=alpha)
    assert_sample_many_draws_what_successive_samples_draw(sampler, 16, 200)


class EveryStratumBottom:
    """Generator stub drawing 0.0 for every stratum, so each value is j/k."""

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out.fill(0.0)
        return out


# 0-based ranks per stratum: j / 16 starts piece j; (j + 1) / 16 starts piece
# j + 1, except that stratum 0's end stays below 1/16 and 1.0 is in the last piece
@pytest.mark.parametrize("stub, ranks", [(EveryStratumBottom, list(range(16))), (EveryStratumTop, [0, *range(2, 16), 15])])
def test_values_on_a_knot_draw_from_the_piece_it_starts(stub, ranks):
    """At alpha 0 with n = k = 16 knot j is j/16 exactly, so a stratum's
    start (and, rounded, its end) lies on a knot: the piece is the one
    starting there."""
    sampler = stored_sampler(16, alpha=0.0)
    assert sampler.partition_for(16).cumulative == tuple(j / 16 for j in range(17))
    slots, _ = sampler._draw(16, stub())
    assert [rank_of(sampler.heap, slot) - 1 for slot in slots] == ranks
    assert sampler.sample_many(16, 3, rng=stub()).tolist() == [slots] * 3


class RepeatedMinibatch:
    """Generator stub drawing the same k values for every minibatch."""

    def __init__(self, values):
        self.values = values

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        out.reshape(-1, len(self.values))[:] = self.values
        return out


def test_values_on_the_knots_of_a_crowded_stratum_draw_from_the_piece_they_start():
    """At alpha 3 with n = k = 16 the last stratum holds 14 knots; a value on
    each knot below 1.0 draws the piece (here one rank) starting there."""
    sampler = stored_sampler(16, alpha=3.0)
    knots = sampler.partition_for(16).cumulative
    crowded = [piece for piece in range(16) if knots[piece] > 15 / 16]
    assert len(crowded) == 13
    for piece in crowded:
        stub = RepeatedMinibatch([0.5] * 15 + [knots[piece] * 16 - 15])  # exact: (15 + r) / 16 is the knot
        slots, _ = sampler._draw(16, stub)
        assert rank_of(sampler.heap, slots[-1]) - 1 == piece
        assert sampler.sample_many(16, 2, rng=stub).tolist() == [slots] * 2


@pytest.mark.parametrize("alpha", [20.0, 40.0, 100.0])
def test_a_stratum_end_rounding_to_one_skips_a_zero_mass_tail(alpha):
    """At a high alpha the tail's mass rounds away and its knots are exactly
    1.0. A last-stratum value that rounds to 1.0 draws the top rank of the
    last piece with mass, at a positive probability, on every path."""
    sampler = stored_sampler(16, alpha=alpha)
    part = sampler.partition_for(16)
    with_mass = len(part.pieces)
    assert with_mass < 16 and part.cumulative[with_mass] == 1.0
    lo, count, _, mass = part.pieces[-1]
    stub = RepeatedMinibatch([0.5] * 15 + [1.0 - 2.0**-53])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slots, probs = sampler._draw(16, stub)
        batch = sampler.sample(16, rng=stub)
        bulk = sampler.sample_many(16, 3, rng=stub)
    assert rank_of(sampler.heap, slots[-1]) == lo + count
    assert probs[-1] == mass / count > 0
    assert (batch.indices, batch.probabilities.tolist()) == (slots, probs)
    assert bulk.tolist() == [slots] * 3
