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

TERMINAL = Transition(0, 0, 0.0, 0.0, 0, is_terminal=True)


def prepared_sampler(magnitudes, alpha=0.7, minibatch=None, resort_interval=1, seed=0):
    k = minibatch if minibatch is not None else len(magnitudes)
    config = SamplerConfig(
        capacity=len(magnitudes), alpha=alpha, minibatch=k, resort_interval=resort_interval, seed=seed
    )
    sampler = RankSampler(config)
    for _ in magnitudes:
        sampler.store(TERMINAL)
    for i, m in enumerate(magnitudes):
        sampler.update_priority(i, m)
    sampler.full_sort()
    return sampler


def exact_ranks(magnitudes):
    """1-based ranks under descending |td| with older-slot tie-break."""
    order = sorted(range(len(magnitudes)), key=lambda i: (-magnitudes[i], i))
    ranks = [0] * len(magnitudes)
    for position, slot in enumerate(order):
        ranks[slot] = position + 1
    return np.array(ranks)


# -- heap ---------------------------------------------------------------------


def test_raising_a_key_above_the_root_moves_it_to_rank_one():
    store = RankStore(capacity=8)
    for slot, key in enumerate([5.0, 3.0, 4.0, 1.0]):
        store.insert(slot, key)
    store.update(3, 9.0)
    assert store.rank_of(3) == 1
    assert store.heap_ordered()


def test_updating_with_an_equal_key_keeps_the_position():
    store = RankStore(capacity=8)
    for slot, key in enumerate([5.0, 3.0, 4.0, 1.0]):
        store.insert(slot, key)
    position = store.rank_of(1)
    store.update(1, 3.0)
    assert store.rank_of(1) == position


def test_resort_interval_triggers_a_full_sort():
    store = RankStore(capacity=16, resort_interval=3)
    rng = np.random.default_rng(2)
    for slot in range(10):
        store.insert(slot, float(rng.uniform(0, 1)))
    store.update(0, 0.31)
    store.update(5, 0.72)
    assert store.steps_since_sort == 2
    store.update(7, 0.11)  # third update hits the interval
    assert store.steps_since_sort == 0
    assert store.keys() == sorted(store.keys(), reverse=True)


def test_full_sort_orders_keys_non_increasing():
    rng = np.random.default_rng(9)
    store = RankStore(capacity=1000)
    keys = rng.uniform(0, 10, 1000)
    for slot, key in enumerate(keys):
        store.insert(slot, float(key))
    store.sort()
    assert store.keys() == sorted(keys.tolist(), reverse=True)
    # inverse index intact
    for position, slot in enumerate(store.slots()):
        assert store.rank_of(slot) == position + 1


def test_full_sort_on_sorted_and_reversed_inputs():
    store = RankStore(capacity=8)
    for slot, key in enumerate([4.0, 3.0, 2.0, 1.0]):
        store.insert(slot, key)
    store.sort()
    assert store.keys() == [4.0, 3.0, 2.0, 1.0]
    reverse = RankStore(capacity=8)
    for slot, key in enumerate([1.0, 2.0, 3.0, 4.0]):
        reverse.insert(slot, key)
    reverse.sort()
    assert reverse.keys() == [4.0, 3.0, 2.0, 1.0]
    assert reverse.slots() == [3, 2, 1, 0]


def test_equal_keys_sort_older_slot_first():
    store = RankStore(capacity=8)
    for slot, key in enumerate([2.0, 5.0, 2.0, 5.0]):
        store.insert(slot, key)
    store.sort()
    assert store.slots() == [1, 3, 0, 2]


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(st.tuples(st.integers(0, 15), st.floats(0.0, 10.0)), min_size=1, max_size=60)
)
def test_heap_property_holds_after_every_operation(ops):
    store = RankStore(capacity=16, resort_interval=10**9)
    present = set()
    for slot, key in ops:
        if slot in present:
            store.update(slot, key)
        else:
            store.insert(slot, key)
            present.add(slot)
        assert store.heap_ordered()
        assert sorted(store.slots()) == sorted(present)
        for s in present:
            assert store.slot_at(store.rank_of(s) - 1) == s


def test_sort_orders_tied_and_zero_keys_by_slot():
    store = RankStore(capacity=8)
    for slot, key in [(5, 0.0), (2, 3.0), (7, 1.5), (0, 0.0), (6, 3.0), (1, 1.5), (4, 0.0), (3, 3.0)]:
        store.insert(slot, key)
    store.sort()
    assert store.slots() == [2, 3, 6, 1, 7, 0, 4, 5]
    assert store.keys() == [3.0, 3.0, 3.0, 1.5, 1.5, 0.0, 0.0, 0.0]
    assert [store.rank_of(s) for s in range(8)] == [6, 4, 1, 2, 7, 8, 3, 5]


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
    store = RankStore(capacity=24, resort_interval=resort_interval)
    reference = SwapHeap(capacity=24, resort_interval=resort_interval)
    for op, slot, key in ops:
        if op == "sort":
            store.sort()
            reference.sort()
        elif slot in store:
            store.update(slot, key)
            reference.update(slot, key)
        else:
            store.insert(slot, key)
            reference.insert(slot, key)
        assert store.keys() == reference.keys
        assert store.slots() == reference.slots
        assert store.steps_since_sort == reference.steps_since_sort
        assert all(store.rank_of(s) == reference.pos[s] + 1 for s in reference.slots)
        assert store.heap_ordered()


# -- partitions -----------------------------------------------------------------


def test_partition_example_four_ranks_two_segments():
    partition = build_partition(4, 1.0, 2)
    assert partition.boundaries == (0, 2, 4)
    assert np.allclose(partition.segment_masses(), [0.72, 0.28])
    harmonic = 1 + 1 / 2 + 1 / 3 + 1 / 4
    assert partition.cumulative[1] == pytest.approx((1 + 0.5) / harmonic)


def test_partition_alpha_zero_gives_equal_counts():
    partition = build_partition(12, 0.0, 4)
    assert partition.boundaries == (0, 3, 6, 9, 12)
    assert np.allclose(partition.segment_masses(), 0.25)


def test_partition_single_segment_and_singletons():
    assert build_partition(7, 0.9, 1).boundaries == (0, 7)
    assert build_partition(5, 1.0, 5).boundaries == (0, 1, 2, 3, 4, 5)


def test_partition_rejects_more_segments_than_ranks():
    with pytest.raises(ValueError):
        build_partition(3, 0.5, 4)


@pytest.mark.parametrize(
    "n,alpha,k",
    [(4096, 0.7, 16), (1000, 0.0, 10), (64, 1.0, 2), (1024, 0.5, 8), (512, 0.6, 4)],
)
def test_partition_masses_balance_within_discreteness(n, alpha, k):
    partition = build_partition(n, alpha, k)
    masses = partition.segment_masses()
    assert np.abs(masses - 1.0 / k).max() <= 1.0 / (2 * k)
    assert masses.sum() == pytest.approx(1.0)
    counts = partition.segment_counts()
    assert counts.min() >= 1 and counts.sum() == n


def test_partition_cache_reuse_within_ten_percent():
    sampler = RankSampler(SamplerConfig(capacity=200, alpha=0.7, minibatch=16, resort_interval=1))
    for _ in range(100):
        sampler.store(TERMINAL)
    first = sampler.partition_for()
    assert first.size == 100
    for _ in range(8):  # occupancy 108, within 10% of 100
        sampler.store(TERMINAL)
    assert sampler.partition_for() is first
    for _ in range(15):  # occupancy 123, past the reuse band
        sampler.store(TERMINAL)
    rebuilt = sampler.partition_for()
    assert rebuilt is not first
    assert rebuilt.size == 123


def test_partition_rebuilds_when_alpha_changes():
    sampler = RankSampler(SamplerConfig(capacity=32, alpha=0.7, minibatch=8, resort_interval=1))
    for _ in range(32):
        sampler.store(TERMINAL)
    first = sampler.partition_for()
    sampler.set_alpha(0.5)
    rebuilt = sampler.partition_for()
    assert rebuilt is not first
    assert rebuilt.alpha == 0.5


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
    partition = sampler.partition_for()
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
    sampler = prepared_sampler(magnitudes, minibatch=5, resort_interval=1)
    slot = sampler.store(TERMINAL)
    assert sampler.priority(slot) == pytest.approx(1.0)  # running max from the bootstrap
    sampler.full_sort()
    assert sampler.heap.rank_of(slot) == 1


def test_heap_order_approximates_ranks_without_resort():
    rng = np.random.default_rng(12)
    sampler = prepared_sampler(rng.uniform(0, 1, 64).tolist(), resort_interval=10**9)
    # after a full sort every element's heap position equals its exact rank
    sampler.full_sort()
    ranks = exact_ranks([sampler.priority(i) for i in range(64)])
    for slot in range(64):
        assert sampler.heap.rank_of(slot) == ranks[slot]


def stored_sampler(size, capacity=None, alpha=0.7, minibatch=16, seed=0):
    """Sampler holding ``size`` transitions under Student-t TD errors, never re-sorted."""
    config = SamplerConfig(capacity=capacity or size, alpha=alpha, minibatch=minibatch, seed=seed)
    sampler = RankSampler(config)
    for _ in range(size):
        sampler.store(TERMINAL)
    for slot, td in enumerate(np.random.default_rng(size).standard_t(2, size=size)):
        sampler.update_priority(slot, float(td))
    return sampler


def assert_sample_matches_the_bulk_path(sampler, k):
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        bulk = sampler.sample_many(k, 1, rng=np.random.default_rng(seed))[0]
        _, probs = sampler._draw_ranks(k, np.random.default_rng(seed), strata=k)
        assert batch.indices == bulk.tolist()
        assert np.array_equal(batch.probabilities, probs)


@pytest.mark.parametrize("size, k", [(100, 1), (100, 16), (300, 32), (5, 16), (1, 4)])
def test_sample_draws_what_sample_many_draws(size, k):
    """The per-call and the bulk path give the same slots and probabilities."""
    assert_sample_matches_the_bulk_path(stored_sampler(size, minibatch=k), k)


def test_sample_draws_what_sample_many_draws_on_a_reused_partition():
    sampler = stored_sampler(100, capacity=200)
    first = sampler.partition_for(16)
    for _ in range(9):  # occupancy 109, within 10% of 100: ranks past 100 unreachable
        sampler.store(TERMINAL)
    assert sampler.partition_for(16) is first
    assert_sample_matches_the_bulk_path(sampler, 16)


def test_sample_draws_what_sample_many_draws_after_set_alpha():
    sampler = stored_sampler(100)
    first = sampler.partition_for(16)
    sampler.set_alpha(0.3)
    assert sampler.partition_for(16) is not first
    assert_sample_matches_the_bulk_path(sampler, 16)


def assert_draw_is_what_sample_wraps(sampler, k):
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        slots, probs = sampler._draw(k, np.random.default_rng(seed))
        assert (slots, probs) == (batch.indices, batch.probabilities.tolist())


@pytest.mark.parametrize("size, capacity, k", [(100, 100, 16), (300, 300, 32), (100, 200, 16), (5, 8, 16), (1, 4, 4)])
def test_draw_is_what_sample_wraps(size, capacity, k):
    assert_draw_is_what_sample_wraps(stored_sampler(size, capacity=capacity, minibatch=k), k)


def test_draw_is_what_sample_wraps_on_a_reused_partition_across_set_alpha():
    sampler = stored_sampler(100, capacity=200)
    first = sampler.partition_for(16)
    for _ in range(9):  # occupancy 109, within 10% of 100: ranks past 100 unreachable
        sampler.store(TERMINAL)
    assert sampler.partition_for(16) is first
    assert_draw_is_what_sample_wraps(sampler, 16)
    sampler.set_alpha(0.3)
    assert_draw_is_what_sample_wraps(sampler, 16)
    assert sampler.partition_for(16) is not first


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
    assert part.boundaries[-2] < sampler.heap.rank_of(slots[-1]) <= min(part.size, size)
    assert probs[-1] == part.segment_masses()[-1] / part.segment_counts()[-1]
    assert sampler.sample(16, rng=LastStratumTop()).indices == slots
