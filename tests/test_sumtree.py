import copy
import pickle
import sys
from functools import partial

import numpy as np
import pytest
from reference import leaves, write_state
from scipy import stats

from prioritized_replay import ProportionalSampler, SamplerConfig, SumTree, Transition, sampling_probabilities
from prioritized_replay.core import _BULK_CHUNK

TERMINAL = Transition(0, 0, 0.0, 0.0, 0, is_terminal=True)


def linear_scan(leaves, value):
    """Independent prefix-sum lookup: first leaf whose cumulative sum exceeds value."""
    return int(np.searchsorted(np.cumsum(leaves), value, side="right"))


def filled_tree(values):
    tree = SumTree(len(values))
    for i, v in enumerate(values):
        tree.set_leaf(i, v)
    return tree


def eager_write(nodes, index, value):
    """Reference write on a list of nodes: refresh the whole root path at once."""
    node = (len(nodes) - 1) // 2 + index
    nodes[node] = float(value)
    while node:
        node = (node - 1) >> 1
        nodes[node] = nodes[2 * node + 1] + nodes[2 * node + 2]


def eager_nodes(capacity, writes):
    """The array a tree refreshing every ancestor on each write holds."""
    nodes = [0.0] * (2 * SumTree(capacity).capacity - 1)
    for index, value in writes:
        eager_write(nodes, index, value)
    return np.array(nodes)


def rebuilt(leaf_values):
    """The nodes over ``leaf_values``, each parent the sum of its two children, level by level."""
    levels = [np.array(leaf_values, dtype=np.float64)]
    while levels[-1].size > 1:
        levels.append(levels[-1][0::2] + levels[-1][1::2])
    return np.concatenate(levels[::-1])


def same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- structure ----------------------------------------------------------------


def test_root_is_sum_of_leaves():
    tree = filled_tree([1, 2, 0, 4])
    tree.set_leaf(2, 3)
    assert tree.total == pytest.approx(10.0)


def test_setting_leaf_to_zero_removes_its_mass():
    tree = filled_tree([1, 2, 3, 4])
    tree.set_leaf(3, 0)
    assert tree.total == pytest.approx(6.0)


def test_overwrite_keeps_only_final_value():
    tree = filled_tree([1, 2, 3, 4])
    tree.set_leaf(1, 9)
    tree.set_leaf(1, 2)
    assert tree.total == pytest.approx(10.0)


def test_capacity_rounds_up_to_power_of_two():
    tree = SumTree(5)
    assert tree.capacity == 8
    assert tree.nodes.size == 15
    assert SumTree(1).capacity == 1
    assert SumTree(8).capacity == 8


def test_internal_nodes_equal_child_sums_after_random_updates():
    """Whichever read settles them, pending writes leave the array a refresh
    on every write gives, bit for bit. Below 2^15 leaves every batch settles
    by rebuild(); at 2^16 every batch but capacity + 3 is walked, including
    36 writes to 3 leaves, which must repeat leaves; capacity + 3 also makes
    set_leaf rebuild on its own."""
    rng = np.random.default_rng(0)
    reads = (
        lambda tree: tree.total,
        lambda tree: tree.nodes,
        lambda tree: tree.find_many([0.0]),
    )
    assert SumTree(1 << 16)._crossover > 36
    for capacity in (1, 2, 5, 32, 512, 4096, 1 << 16):
        for read in reads:
            tree = SumTree(capacity)
            reference = [0.0] * (2 * tree.capacity - 1)
            cap = tree.capacity
            # (writes, the leaves they are drawn from)
            batches = [(b, cap) for b in (1, 2, 3, 4, 16, 36)] + [(36, 3), (cap + 3, cap), (1, cap), (16, cap)]
            for batch, spread in batches:
                for _ in range(batch):
                    index, value = int(rng.integers(min(spread, cap))), float(rng.uniform(0, 5))
                    tree.set_leaf(index, value)
                    eager_write(reference, index, value)
                read(tree)
                # the read itself settled the array
                assert same_bits(tree._nodes, np.array(reference)), (capacity, batch, spread)
            nodes = tree.nodes
            for node in range(tree.capacity - 1):
                assert nodes[node] == nodes[2 * node + 1] + nodes[2 * node + 2]


def test_a_stream_sized_window_settles_by_the_walk(monkeypatch):
    """36 stale leaves over 2^18 (perfbench stream's writes between two draws)
    settle by the walk, never by rebuild(), to the array a rebuild gives."""
    rng = np.random.default_rng(5)
    tree = SumTree(1 << 18)
    tree._nodes[tree.capacity - 1 :] = rng.uniform(0, 5, tree.capacity)
    tree.rebuild()
    writes = [(int(i), float(v)) for i, v in zip(rng.integers(tree.capacity, size=30), rng.uniform(0, 5, 30))]
    writes += [(index, value + 1.0) for index, value in writes[:6]]  # six leaves written twice
    for index, value in writes:
        tree.set_leaf(index, value)
    expected = rebuilt(tree._nodes[tree.capacity - 1 :])

    def refused():
        raise AssertionError("settled by rebuild()")

    monkeypatch.setattr(SumTree, "rebuild", refused)
    assert len(tree._stale) == 36
    tree.total
    assert tree._stale == [] and same_bits(tree._nodes, expected)


@pytest.mark.parametrize("capacity", [1, 5, 1 << 16])
def test_a_settle_with_nothing_stale_changes_nothing(capacity):
    """``_settle()`` on a fresh tree, and again right after a read, leaves the
    array and the touch count as they were; the walk's crossover is at least
    one, so an empty stale list would otherwise reach the walk."""
    tree = SumTree(capacity)
    for _ in range(2):
        before = (tree.nodes.tobytes(), tree.node_touches)
        tree._settle()
        assert (tree.nodes.tobytes(), tree.node_touches) == before
        tree.set_leaf(capacity - 1, 2.5)
        tree.total


def test_set_leaf_rejects_bad_input():
    tree = SumTree(4)
    with pytest.raises(ValueError):
        tree.set_leaf(0, -1.0)
    with pytest.raises(IndexError):
        tree.set_leaf(4, 1.0)
    tree.set_leaf(1, 2.0)
    before = tree.nodes.copy()
    tree.set_leaf(3, 1.5)  # pending: the rejected writes below must not settle or add to it
    pending = list(tree._stale)
    for bad in (float("nan"), float("inf"), np.float64("-inf"), -1.0):
        with pytest.raises(ValueError):
            tree.set_leaf(1, bad)
    with pytest.raises(IndexError):
        tree.set_leaf(-1, 1.0)
    assert tree._stale == pending
    assert np.array_equal(leaves(tree), [0.0, 2.0, 0.0, 1.5])
    assert same_bits(tree.nodes, eager_nodes(4, [(1, 2.0), (3, 1.5)]))
    assert tree.nodes[1] == before[1]


def test_writes_reach_the_bound_views():
    tree = filled_tree([1, 2, 3, 4])
    tree.set_leaf(0, 5.0)
    assert tree.total == 14.0
    assert tree.find_many([9.9]).tolist() == [2]


@pytest.mark.parametrize("clone", [pickle.dumps, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("owner", ["tree", "sampler"])
def test_a_tree_refuses_pickling_and_copying(owner, clone):
    """A clone's bound views would be copies apart from its array, so its
    writes would never reach the sums it reads; a sampler's shallow copy
    would share the tree instead."""
    target = filled_tree([1, 2, 3, 4]) if owner == "tree" else ProportionalSampler(SamplerConfig(capacity=4))
    with pytest.raises(TypeError, match="cannot be pickled or copied"):
        clone(target)


# -- value lookup ---------------------------------------------------------------


def test_find_many_examples():
    tree = filled_tree([1, 2, 3, 4])
    assert tree.find_many([0.5, 6.5]).tolist() == [0, 3]
    # boundary values belong to the right neighbor (half-open intervals)
    assert tree.find_many([3.0, 0.0, 1.0]).tolist() == [2, 0, 1]


def test_find_skips_zero_leaves():
    tree = filled_tree([0, 1, 0, 2])
    assert tree.find_many([0.9, 1.0]).tolist() == [1, 3]


def test_find_rejects_out_of_range_and_empty():
    tree = filled_tree([1, 2, 3, 4])
    with pytest.raises(ValueError, match="no positive mass"):
        SumTree(4).find_many([0.0])
    for bad in ([-0.1], [10.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="query values"):
            tree.find_many(bad)


def test_find_many_matches_scalar_find():
    rng = np.random.default_rng(1)
    tree = filled_tree(rng.uniform(0, 3, 16))
    queries = rng.uniform(0, tree.total * (1 - 1e-12), 200)
    assert tree.find_many(queries).tolist() == tree._descend(queries.tolist())


def boundary_trees(capacity):
    """Leaves for the boundary checks: small integers, so every prefix sum is
    exact, with zero-mass leaves at both ends and inside where there is room,
    then the same pattern of zeros around non-integer masses."""
    if capacity == 1:
        return [[3.0], [0.7]]
    if capacity == 2:
        return [[0.0, 3.0], [3.0, 0.0], [1.0, 2.0], [0.0, 0.7], [0.3, 0.7]]
    rng = np.random.default_rng(capacity)
    whole = rng.integers(0, 4, capacity).astype(np.float64)
    whole[[0, -1]] = 0.0
    return [whole.tolist(), np.where(whole > 0, rng.uniform(0.1, 3.0, capacity), 0.0).tolist()]


@pytest.mark.parametrize("capacity", [1, 2, 1 << 13])
def test_descend_and_find_many_agree_on_boundaries(capacity):
    """On a value exactly on a cumulative boundary, on nextafter(total, 0) and
    around zero-mass leaves, the scalar and the bulk descent pick the same
    leaf, never a zero-mass one; with exact prefix sums it is the leaf a
    linear scan picks, a boundary going to the right neighbor."""
    for values in boundary_trees(capacity):
        tree = filled_tree(values)
        total = tree.total
        boundaries = [c for c in np.cumsum(values).tolist() if c < total]
        queries = [0.0, *boundaries, *(np.nextafter(c, 0.0) for c in boundaries if c > 0), np.nextafter(total, 0.0)]
        found = tree._descend(queries)
        assert found == tree.find_many(queries).tolist()
        assert all(values[leaf] > 0.0 for leaf in found)
        if all(v == int(v) for v in values):
            assert found == np.searchsorted(np.cumsum(values), queries, side="right").tolist()


def test_find_agrees_with_linear_scan_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(20):
        values = rng.uniform(0, 10, 64)
        values[rng.random(64) < 0.25] = 0.0  # zero leaves must be unreachable
        if values.sum() == 0:
            continue
        tree = filled_tree(values)
        queries = rng.uniform(0, tree.total, 1000)
        queries = np.minimum(queries, np.nextafter(tree.total, 0))
        found = tree.find_many(queries)
        expected = np.array([linear_scan(values, q) for q in queries])
        assert np.array_equal(found, expected)


def test_operation_touch_counts_are_logarithmic():
    tree = SumTree(64)
    bound = 2 * (tree.levels + 1)
    before = tree.node_touches
    tree.set_leaf(17, 1.0)
    assert tree.node_touches - before == tree.levels + 1  # the root path, exactly
    tree.total  # settles the write, as a draw does before its walk
    before = tree.node_touches
    tree._descend([0.5])
    assert tree.node_touches - before <= bound
    before = tree.node_touches
    tree.find_many(np.full(5, 0.25))
    assert tree.node_touches - before <= 5 * bound


@pytest.mark.parametrize("shape", [(0,), (3, 0), (6, 5), (2, _BULK_CHUNK + 3)])
def test_find_many_keeps_the_query_shape_and_charges_two_nodes_per_level(shape):
    rng = np.random.default_rng(2)
    tree = filled_tree(rng.uniform(0, 3, 37))
    queries = np.minimum(rng.uniform(0, tree.total, shape), np.nextafter(tree.total, 0))
    before = tree.node_touches
    found = tree.find_many(queries)
    assert (found.shape, found.dtype) == (shape, np.int64)
    assert tree.node_touches - before == 2 * tree.levels * queries.size
    assert found.ravel().tolist() == tree._descend(queries.ravel().tolist())


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_an_overflowed_total_is_rejected():
    """Two leaves of 1e308, written into the array in place past set_leaf's
    bound, sum to inf at the root: every descent refuses the tree rather than
    drawing from it."""
    sampler = prepared_sampler([1.0, 1.0], alpha=1.0)
    tree = sampler.tree
    tree.nodes[tree.capacity - 1 :] = 1e308
    tree.rebuild()
    assert tree.total == np.inf
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for descend in (
        lambda: tree.find_many([1.0]),
        lambda: sampler._draw(4, rng),
        lambda: sampler.sample(4, rng=rng),
        lambda: sampler.sample_many(4, 3, rng=rng),
    ):
        with pytest.raises(ValueError, match="overflows"):
            descend()
    assert rng.bit_generator.state == before


def test_set_leaf_refuses_a_value_past_its_share_of_the_float_maximum():
    """A leaf holds at most float max / capacity: a full tree at the bound
    sums to the float maximum exactly, and one ulp more is refused."""
    tree = SumTree(4)
    bound = sys.float_info.max / 4
    for index in range(4):
        tree.set_leaf(index, bound)
    assert tree.total == sys.float_info.max
    before = tree.nodes.tobytes()
    for bad in (np.nextafter(bound, np.inf), 1e308, np.inf):
        with pytest.raises(ValueError):
            tree.set_leaf(2, bad)
    assert tree.nodes.tobytes() == before


def test_a_write_that_would_overflow_the_tree_is_refused():
    """8e307 + 1e308 overflows to inf: the second write is refused, and the
    tree, the slot's priority and the running maximum stay as they were."""
    sampler = prepared_sampler([1.0, 1.0], alpha=1.0)
    sampler.update_priority(0, 8e307)
    before = write_state(sampler)
    with pytest.raises(ValueError):
        sampler.update_priority(1, 1e308)
    assert write_state(sampler) == before
    assert 0.0 < sampler.tree.total < np.inf
    assert len(sampler.sample(2)) == 2


def test_a_priority_whose_power_overflows_is_refused_as_a_bad_value():
    """At alpha = 2, 1e200 ** 2 overflows Python's float power: the write
    raises ValueError, like any other bad priority, and changes nothing."""
    sampler = prepared_sampler([1.0, 1.0], alpha=2.0)
    before = write_state(sampler)
    with pytest.raises(ValueError):
        sampler.update_priority(1, 1e200)
    assert write_state(sampler) == before


def test_rebuild_repairs_corruption():
    tree = filled_tree([1, 2, 3, 4])
    tree.nodes[1] = 99.0  # corrupt an internal node
    assert tree.total != pytest.approx(10.0) or tree.nodes[1] == 99.0
    tree.rebuild()
    assert tree.total == pytest.approx(10.0)
    assert tree.nodes[1] == pytest.approx(3.0)
    tree.set_leaf(0, 2.0)
    tree.rebuild()  # settles the pending write too, so no read walks it again
    assert tree._stale == [] and tree.total == 11.0


def test_conservation_over_many_random_updates():
    rng = np.random.default_rng(3)
    tree = SumTree(256)
    for _ in range(20_000):
        tree.set_leaf(int(rng.integers(256)), float(rng.uniform(0, 10)))
    reference = tree.nodes[tree.capacity - 1 :].sum()
    assert tree.total == pytest.approx(reference, rel=1e-9)


# -- the proportional sampler ---------------------------------------------------


def prepared_sampler(priorities, alpha=0.7, minibatch=4, seed=0):
    config = SamplerConfig(capacity=len(priorities), alpha=alpha, minibatch=minibatch, seed=seed)
    sampler = ProportionalSampler(config)
    for _ in priorities:
        sampler.store(TERMINAL)
    for i, p in enumerate(priorities):
        sampler.update_priority(i, p - config.epsilon)  # priority becomes |td| + eps = p
    return sampler


def test_batch_probabilities_match_the_closed_form():
    priorities = [0.3, 1.2, 0.7, 2.0, 0.05, 0.9, 1.5, 0.4]
    sampler = prepared_sampler(priorities, alpha=0.6)
    expected = sampling_probabilities(priorities, 0.6)
    batch = sampler.sample(8)
    for slot, prob in zip(batch.indices, batch.probabilities):
        assert prob == pytest.approx(expected[slot], rel=1e-9)


def test_equal_priorities_with_k_equal_occupancy_covers_every_slot():
    sampler = prepared_sampler([1.0] * 8)
    batch = sampler.sample(8)
    assert sorted(batch.indices) == list(range(8))


def test_all_mass_on_one_leaf_dominates_the_batch():
    sampler = prepared_sampler([1e-6, 1e-6, 5.0, 1e-6], alpha=1.0)
    batch = sampler.sample(4)
    assert batch.indices.count(2) >= 3  # tiny epsilon floors keep other slots barely reachable


def test_single_range_draws_follow_the_priorities():
    priorities = [0.2, 0.4, 0.8, 1.6, 0.1, 1.0, 2.5, 0.3]
    sampler = prepared_sampler(priorities, alpha=1.0)
    rng = np.random.default_rng(11)
    slots = sampler.sample_many(1, 1_000_000, rng=rng).ravel()
    counts = np.bincount(slots, minlength=8)
    expected = sampling_probabilities(priorities, 1.0) * slots.size
    result = stats.chisquare(counts, expected)
    assert result.pvalue > 0.01


def test_underfull_memory_samples_with_replacement():
    sampler = ProportionalSampler(SamplerConfig(capacity=16, minibatch=8))
    sampler.store(TERMINAL)
    sampler.store(TERMINAL)
    batch = sampler.sample(8)
    assert len(batch) == 8
    assert set(batch.indices) <= {0, 1}


def test_eviction_removes_old_mass_in_the_same_call():
    sampler = prepared_sampler([1.0, 1.0], alpha=1.0)
    sampler.update_priority(0, 10.0)
    total_before = sampler.tree.total
    sampler.store(TERMINAL)  # overwrites slot 0, re-entering at the running max
    assert sampler.tree.total == pytest.approx(total_before)
    assert sampler.priority(0) == pytest.approx(sampler.max_priority)


def stored_sampler(capacity, occupied, k):
    """Sampler holding ``occupied`` transitions under Student-t TD errors."""
    sampler = ProportionalSampler(SamplerConfig(capacity=capacity, alpha=0.6, minibatch=k))
    td_rng = np.random.default_rng(capacity)
    for _ in range(occupied):
        sampler.store(TERMINAL)
    for slot, td in enumerate(td_rng.standard_t(2, size=occupied)):
        sampler.update_priority(slot, float(td))
    return sampler


DRAW_CASES = [(8, 8, 4), (37, 37, 16), (37, 5, 16), (1000, 700, 32)]


@pytest.mark.parametrize("capacity, occupied, k", DRAW_CASES)
def test_sample_draws_what_sample_many_draws(capacity, occupied, k):
    """The per-call and the bulk path give the same slots and probabilities."""
    sampler = stored_sampler(capacity, occupied, k)
    offset = sampler.tree.capacity - 1
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        bulk = sampler.sample_many(k, 1, rng=np.random.default_rng(seed))[0]
        assert batch.indices == bulk.tolist()
        assert np.array_equal(batch.probabilities, sampler.tree.nodes[offset + bulk] / sampler.tree.total)


# b minibatches of k whose b * k values end just below, at and just past one
# bulk chunk, and, for a k that does not divide the chunk, span several
CHUNK_CASES = [(k, _BULK_CHUNK // k + d) for k in (1, 7, 16, 32) for d in (-1, 0, 1)] + [(7, 3 * _BULK_CHUNK // 7 + 5)]


@pytest.mark.parametrize("k, batches", CHUNK_CASES)
def test_sample_many_draws_what_successive_samples_draw(k, batches):
    sampler = stored_sampler(1000, 700, k)
    rng, bulk_rng = np.random.default_rng(4), np.random.default_rng(4)
    bulk = sampler.sample_many(k, batches, rng=bulk_rng)
    assert bulk.tolist() == [sampler.sample(k, rng=rng).indices for _ in range(batches)]
    assert bulk_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("capacity, occupied, k", DRAW_CASES)
def test_draw_is_what_sample_wraps(capacity, occupied, k):
    sampler = stored_sampler(capacity, occupied, k)
    for seed in range(5):
        batch = sampler.sample(k, rng=np.random.default_rng(seed))
        slots, probs = sampler._draw(k, np.random.default_rng(seed))
        assert (slots, probs) == (batch.indices, batch.probabilities.tolist())


# one leaf and two: a tree of no level, and one of the bulk descent's peeled first level alone
SMALL_TREE_CASES = [(1, 1, 4), (2, 1, 3), (2, 2, 5)]


@pytest.mark.parametrize("capacity, occupied, k", SMALL_TREE_CASES)
def test_a_tree_of_one_or_two_leaves_draws_in_bulk_what_successive_samples_draw(capacity, occupied, k):
    sampler = stored_sampler(capacity, occupied, k)
    rng, bulk_rng = np.random.default_rng(4), np.random.default_rng(4)
    bulk = sampler.sample_many(k, 9, rng=bulk_rng)
    assert bulk.tolist() == [sampler.sample(k, rng=rng).indices for _ in range(9)]
    assert bulk_rng.bit_generator.state == rng.bit_generator.state
    assert set(bulk.ravel().tolist()) == set(range(occupied))


@pytest.mark.parametrize("capacity, occupied, k", DRAW_CASES)
def test_a_draw_touches_two_nodes_per_level_per_stratum(capacity, occupied, k):
    sampler = stored_sampler(capacity, occupied, k)
    tree = sampler.tree
    for draw, batches in ((sampler._draw, 1), (sampler.sample, 1), (partial(sampler.sample_many, batches=3), 3)):
        sampler.update_priority(0, 0.5)  # a pending write, settled inside the draw
        before = tree.node_touches
        draw(k, rng=np.random.default_rng(0))
        assert tree.node_touches - before == 2 * tree.levels * k * batches


class LastStratumTop:
    """Generator stub for minibatches of 16 whose last stratum draws the largest
    double below 1, one minibatch (``random(16)``) or a bulk buffer of whole
    minibatches (``random(out=...)``) at a time."""

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(size)
        rows = out.reshape(-1, 16)
        rows[:, :-1] = 0.5
        rows[:, -1] = 1.0 - 2.0**-53
        return out


def test_a_stratum_end_rounding_onto_the_total_lands_on_the_last_leaf_with_mass():
    sampler = stored_sampler(37, 5, 16)
    assert (15 + (1.0 - 2.0**-53)) / 16 == 1.0  # the value rounds onto the total
    slots, probs = sampler._draw(16, LastStratumTop())
    assert slots[-1] == 4 and probs[-1] > 0.0
    assert sampler.sample(16, rng=LastStratumTop()).indices == slots
    # the bulk draw clamps inside a chunk as the scalar draw does
    assert sampler.sample_many(16, 3, rng=LastStratumTop()).tolist() == [slots] * 3
