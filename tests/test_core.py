import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import leaves, write_state

from prioritized_replay import (
    AnnealSchedule,
    ProportionalSampler,
    RankSampler,
    RankStore,
    SampledBatch,
    SamplerConfig,
    SumTree,
    Transition,
    build_partition,
    sampling_probabilities,
    td_magnitude,
)
from prioritized_replay import rank

TERMINAL = Transition(0, 0, 0.0, 0.0, 0, is_terminal=True)


def make_sampler(cls, capacity=8, **kwargs):
    kwargs.setdefault("alpha", 0.7)
    kwargs.setdefault("minibatch", 4)
    return cls(SamplerConfig(capacity=capacity, **kwargs))


# -- sampling probabilities ---------------------------------------------------


def test_equal_priorities_give_uniform_probabilities():
    assert np.allclose(sampling_probabilities([5, 5, 5, 5], 0.7), [0.25] * 4)


def test_alpha_zero_is_uniform_regardless_of_priorities():
    assert np.allclose(sampling_probabilities([1, 7, 3], 0.0), [1 / 3] * 3)


def test_alpha_one_is_proportional():
    assert np.allclose(sampling_probabilities([1, 2], 1.0), [1 / 3, 2 / 3])


def test_probability_errors():
    with pytest.raises(ValueError):
        sampling_probabilities([], 0.5)
    with pytest.raises(ValueError):
        sampling_probabilities([1.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        sampling_probabilities([1.0, -2.0], 0.5)
    for bad_alpha in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sampling_probabilities([1.0], bad_alpha)
    # the powers overflow to inf, or their sum does, or all underflow to 0;
    # each is refused without a RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for priorities, alpha in (([10.0, 20.0], 400.0), ([1e308, 1e308], 1.0), ([1e-300, 1e-300], 2.0)):
            with pytest.raises(ValueError, match="finite positive"):
                sampling_probabilities(priorities, alpha)


@settings(max_examples=80, deadline=None)
@given(
    priorities=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=50),
    alpha=st.floats(0.0, 2.0),
)
def test_probability_invariants(priorities, alpha):
    probs = sampling_probabilities(priorities, alpha)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert probs.min() > 0.0
    order = np.argsort(priorities)
    sorted_probs = probs[order]
    assert np.all(np.diff(sorted_probs) >= -1e-15)
    if alpha == 0.0:
        assert np.allclose(probs, 1.0 / len(priorities))


@settings(max_examples=40, deadline=None)
@given(
    priorities=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=30),
    alpha=st.floats(0.05, 2.0),
)
def test_strictly_larger_priority_gets_strictly_larger_probability(priorities, alpha):
    probs = sampling_probabilities(priorities, alpha)
    for i in range(len(priorities)):
        for j in range(len(priorities)):
            if priorities[i] > priorities[j] * (1 + 1e-9):
                assert probs[i] > probs[j]


# -- transition validation ----------------------------------------------------


def test_transition_accepts_valid_fields():
    t = Transition(1, 0, 0.5, 0.9, 2)
    assert t.reward == 0.5 and not t.is_terminal


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(reward=math.inf),
        dict(reward=math.nan),
        dict(discount=1.5),
        dict(discount=-0.1),
        dict(discount=0.5, is_terminal=True),
    ],
)
def test_transition_rejects_bad_fields(kwargs):
    base = dict(prev_state=0, action=0, reward=0.0, discount=0.0, next_state=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        Transition(**base)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(capacity=0)
    # the floor and the re-sort interval are constants, not settings
    for setting in ("epsilon", "resort_interval"):
        with pytest.raises(TypeError):
            SamplerConfig(capacity=4, **{setting: 1})
    assert SamplerConfig(capacity=4).epsilon == 1e-6
    with pytest.raises(ValueError):
        SamplerConfig(capacity=4, alpha=-1.0)
    for bad_alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            SamplerConfig(capacity=4, alpha=bad_alpha)
    with pytest.raises(ValueError):
        SamplerConfig(capacity=4, minibatch=0)


@pytest.mark.parametrize("bad", [0, -1, 2.5, True, "4", None])
def test_every_count_must_be_a_positive_whole_number(bad):
    for make in (
        lambda v: SamplerConfig(capacity=v),
        lambda v: SamplerConfig(capacity=4, minibatch=v),
        lambda v: AnnealSchedule(0.5, 1.0, v),
        lambda v: RankStore(capacity=v),
        lambda v: SumTree(v),
    ):
        with pytest.raises(ValueError):
            make(bad)


def test_numpy_integer_counts_are_accepted():
    for cls in (ProportionalSampler, RankSampler):
        sampler = cls(SamplerConfig(capacity=np.int64(5), minibatch=np.int32(2)))
        sampler.store(TERMINAL)
        assert len(sampler.sample()) == 2
    assert SumTree(np.int64(5)).capacity == 8
    store = RankStore(capacity=np.int64(5))
    store.insert(4, 1.0)
    assert store.key_of(4) == 1.0
    assert AnnealSchedule(0.5, 1.0, np.int64(4)).value(2) == 0.75


def test_sampled_batch_validation():
    with pytest.raises(ValueError):
        SampledBatch(indices=[0], probabilities=np.array([0.5, 0.5]), transitions=[TERMINAL])
    with pytest.raises(ValueError):
        SampledBatch(indices=[0], probabilities=np.array([0.0]), transitions=[TERMINAL])
    with pytest.raises(ValueError):
        SampledBatch(indices=[0], probabilities=np.array([1.5]), transitions=[TERMINAL])


def test_td_magnitude_clipping():
    assert td_magnitude(-0.5) == 0.5
    assert td_magnitude(-3.2, clip=True) == 1.0
    assert td_magnitude(2.7, clip=True) == 1.0
    assert td_magnitude(-3.2, clip=False) == 3.2


# -- the store/update contract both samplers satisfy ---------------------------


@pytest.fixture(params=[ProportionalSampler, RankSampler], ids=["proportional", "rank"])
def sampler_cls(request):
    return request.param


def test_store_into_empty_memory_gets_priority_one(sampler_cls):
    sampler = make_sampler(sampler_cls)
    slot = sampler.store(TERMINAL)
    assert sampler.priority(slot) == pytest.approx(1.0)


def test_store_priority_dominates_every_occupant(sampler_cls):
    sampler = make_sampler(sampler_cls)
    for _ in range(3):
        sampler.store(TERMINAL)
    sampler.update_priority(0, 0.2)
    sampler.update_priority(1, 0.9)
    slot = sampler.store(TERMINAL)
    new_priority = sampler.priority(slot)
    assert all(new_priority >= sampler.priority(i) for i in range(len(sampler)))
    assert new_priority >= 0.9


def test_store_tracks_running_max_from_updates(sampler_cls):
    sampler = make_sampler(sampler_cls)
    sampler.store(TERMINAL)
    sampler.update_priority(0, 7.5)
    slot = sampler.store(TERMINAL)
    assert sampler.priority(slot) >= sampler.priority(0)


def test_sliding_window_reuses_oldest_slot(sampler_cls):
    sampler = make_sampler(sampler_cls, capacity=4)
    marked = Transition(1, 1, 0.25, 0.5, 2)
    for _ in range(4):
        sampler.store(TERMINAL)
    slot = sampler.store(marked)
    assert slot == 0
    assert len(sampler) == 4
    batch = sampler.sample(4)
    assert 0 in batch.indices
    assert all((transition is marked) == (slot == 0) for slot, transition in zip(batch.indices, batch.transitions))


def test_update_priority_examples(sampler_cls):
    sampler = make_sampler(sampler_cls)
    sampler.store(TERMINAL)
    sampler.update_priority(0, -0.5)
    if sampler_cls is ProportionalSampler:
        assert sampler.priority(0) == pytest.approx(0.500001, abs=1e-12)
    else:
        assert sampler.priority(0) == pytest.approx(0.5)


def test_zero_td_error_keeps_positive_priority(sampler_cls):
    sampler = make_sampler(sampler_cls)
    sampler.store(TERMINAL)
    sampler.update_priority(0, 0.0)
    if sampler_cls is ProportionalSampler:
        assert sampler.priority(0) == pytest.approx(1e-6)
        assert sampler.priority(0) > 0
    else:
        assert sampler.priority(0) == 0.0  # rank keys may be zero; rank mass stays positive
        batch = sampler.sample(2)
        assert np.all(batch.probabilities > 0)


def test_clipped_update(sampler_cls):
    sampler = make_sampler(sampler_cls, clip_td=True)
    sampler.store(TERMINAL)
    sampler.update_priority(0, -3.2)
    expected = 1.0 + (1e-6 if sampler_cls is ProportionalSampler else 0.0)
    assert sampler.priority(0) == pytest.approx(expected)


def test_update_unoccupied_slot_raises(sampler_cls):
    """A refused update leaves the counters, the settled tree, the priorities
    and the running maximum as they were."""
    sampler = make_sampler(sampler_cls)
    sampler.store(TERMINAL)
    sampler.update_priority(0, -2.5)
    before = write_state(sampler)
    for slot in (3, -1):
        with pytest.raises(KeyError):
            sampler.update_priority(slot, 0.5)
        with pytest.raises(KeyError):
            sampler.priority(slot)
    assert write_state(sampler) == before


@pytest.mark.parametrize("fill", ["store", "store_many"])
def test_a_none_payload_occupies_its_slot_like_any_other(sampler_cls, fill):
    """A slot is occupied once stored, whatever its payload: with a None at
    slot 1, put in by either fill and again by each of two wraps of the
    window, every slot takes an update and reads back its priority, and a
    draw returns the stored payloads."""
    payloads = [TERMINAL, None, TERMINAL, TERMINAL]
    sampler = make_sampler(sampler_cls, capacity=4)
    if fill == "store_many":
        sampler.store_many(payloads)
    else:
        for payload in payloads:
            sampler.store(payload)
    for payload in payloads * 2:
        sampler.store(payload)
    epsilon = SamplerConfig.epsilon if sampler_cls is ProportionalSampler else 0.0
    for slot in range(4):
        sampler.update_priority(slot, 0.25 * (slot + 1))
        assert sampler.priority(slot) == 0.25 * (slot + 1) + epsilon
    assert (len(sampler), sampler.max_priority) == (4, 1.0 + epsilon)
    batch = sampler.sample(4)
    assert batch.transitions == [payloads[slot] for slot in batch.indices]
    if sampler_cls is RankSampler:
        assert sampler.heap.heap_ordered() and len(sampler.heap) == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_non_finite_priority_is_rejected_without_changing_state(sampler_cls, bad):
    sampler = make_sampler(sampler_cls)
    for _ in range(3):
        sampler.store(TERMINAL)
    sampler.update_priority(1, 0.4)
    before = write_state(sampler)
    with pytest.raises(ValueError):
        sampler.update_priority(1, bad)
    assert write_state(sampler) == before
    slot = sampler.store(TERMINAL)
    assert sampler.priority(slot) == sampler.max_priority
    if sampler_cls is ProportionalSampler:
        assert sampler.tree.total == pytest.approx(leaves(sampler.tree).sum())
    else:
        assert sampler.heap.heap_ordered()


def test_sample_empty_memory_raises(sampler_cls):
    sampler = make_sampler(sampler_cls)
    with pytest.raises(ValueError):
        sampler.sample(2)


@pytest.mark.parametrize(
    "k, batches, message",
    [
        (0, 5, "minibatch size"),
        (-1, 3, "minibatch size"),
        (True, 3, "minibatch size"),
        (2.5, 3, "minibatch size"),
        (np.float64(2.0), 3, "minibatch size"),
        (4, 0, "batch count"),
        (4, -2, "batch count"),
        (4, True, "batch count"),
        (4, 2.5, "batch count"),
        (4, np.float64(2.0), "batch count"),
    ],
)
def test_sample_many_rejects_a_bad_count_before_drawing(sampler_cls, k, batches, message):
    sampler = make_sampler(sampler_cls)
    for _ in range(8):
        sampler.store(TERMINAL)
    sampler.sample(4, np.random.default_rng(1))
    cache = build_partition.cache_info()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{message} must be an integer of at least 1"):
        sampler.sample_many(k, batches, rng=rng)
    if message == "minibatch size":
        # sample() meets the same check before the rank sampler's partition_for
        with pytest.raises(ValueError, match=f"{message} must be an integer of at least 1"):
            sampler.sample(k, rng)
    assert rng.bit_generator.state == before
    assert build_partition.cache_info() == cache


def test_a_bulk_draw_holds_little_beyond_its_result(sampler_cls):
    """A 10^6-draw sample_many on a 16-slot sampler, the validators' shape,
    peaks under tracemalloc at no more than 1.25 times its 7.6 MB result: it
    draws its strata a chunk at a time, never as one array of the result's size."""
    sampler = make_sampler(sampler_cls, capacity=16, minibatch=16)
    sampler.store_many([TERMINAL] * 16)
    for slot in range(16):
        sampler.update_priority(slot, 0.1 * (slot + 1))
    tracemalloc.start()
    try:
        slots = sampler.sample_many(16, 62_500, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slots.nbytes == 8_000_000 and peak <= 1.25 * slots.nbytes


def test_underfull_memory_samples_with_replacement(sampler_cls):
    sampler = make_sampler(sampler_cls, capacity=16, minibatch=8)
    sampler.store(TERMINAL)
    sampler.store(TERMINAL)
    batch = sampler.sample(8)
    assert len(batch) == 8
    assert set(batch.indices) <= {0, 1}


def test_probabilities_in_unit_interval_and_transitions_match(sampler_cls):
    sampler = make_sampler(sampler_cls, capacity=16, minibatch=8)
    rng = np.random.default_rng(5)
    for state in range(16):
        sampler.store(Transition(state, 0, 0.0, 0.0, 0, is_terminal=True))
    for i in range(16):
        sampler.update_priority(i, rng.uniform(0.01, 2.0))
    batch = sampler.sample()
    assert len(batch) == 8
    assert np.all(batch.probabilities > 0) and np.all(batch.probabilities <= 1)
    for slot, transition in zip(batch.indices, batch.transitions):
        assert transition.prev_state == slot


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.floats(0.0, 5.0)),
        min_size=1,
        max_size=40,
    )
)
def test_most_recently_stored_holds_the_memory_maximum(ops):
    for cls in (ProportionalSampler, RankSampler):
        sampler = make_sampler(cls, capacity=16)
        sampler.store(TERMINAL)
        for is_store, value in ops:
            if is_store:
                sampler.store(TERMINAL)
            else:
                sampler.update_priority(int(value * 7) % len(sampler), value)
        final_slot = sampler.store(TERMINAL)
        priorities = [sampler.priority(i) for i in range(len(sampler))]
        assert sampler.priority(final_slot) == max(priorities)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_bad_alpha_is_rejected_without_changing_state(sampler_cls, bad):
    sampler = make_sampler(sampler_cls, capacity=8)
    for _ in range(6):
        sampler.store(TERMINAL)
    for slot in range(6):
        sampler.update_priority(slot, 0.3 * slot)
    partition = build_partition(8, 0.7, 2)
    with pytest.raises(ValueError):
        build_partition(8, bad, 2)
    assert build_partition(8, 0.7, 2) is partition
    assert len(sampler.sample(4)) == 4


def pairwise_tree(leaves):
    """A sum tree's array built from its leaves: each parent the sum of its two children."""
    nodes = [0.0] * (len(leaves) - 1) + [float(v) for v in leaves]
    for node in range(len(leaves) - 2, -1, -1):
        nodes[node] = nodes[2 * node + 1] + nodes[2 * node + 2]
    return np.array(nodes)


# a write's slot is drawn mod (live count + 2), minus 1: mostly occupied slots,
# with -1 and the first slot past the live ones to be refused
PICKS = st.integers(0, 99)
OPERATIONS = st.one_of(
    st.tuples(st.just("store"), st.sampled_from([TERMINAL, None])),
    st.tuples(st.just("update"), PICKS, st.floats(-5.0, 5.0)),
    st.tuples(st.just("sample"), st.integers(1, 16)),
    st.tuples(st.just("read")),
)


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 12), clip=st.booleans(), ops=st.lists(OPERATIONS, min_size=1, max_size=60))
# most generated sequences make fewer than 7 heap updates; this one makes 8,
# with draws after the re-sort
@example(capacity=3, clip=False, ops=[("store", TERMINAL)] * 3 + [("update", 1, -2.0), ("store", None), ("sample", 2)] * 4)
# a draw at 10 transitions, then one at 11: within 10% of 10, where an
# approximate partition cache would reuse the old partition
@example(capacity=11, clip=False, ops=[("store", TERMINAL)] * 10 + [("sample", 4), ("store", None), ("sample", 4)])
# a None payload is an entry like any other: its slot takes an update, and the
# window wraps over it
@example(capacity=2, clip=False, ops=[("store", None), ("update", 1, 0.5), ("store", TERMINAL), ("store", None)])
def test_samplers_match_a_naive_model(capacity, clip, ops):
    """Random store/update/sample sequences, storing a transition or None,
    against a list of priorities: every priority and the running maximum match
    after each step, a draw returns each slot's payload, and the proportional
    sampler's tree equals one built from its leaves."""
    config = SamplerConfig(capacity=capacity, alpha=0.6, minibatch=4, clip_td=clip)
    samplers = (ProportionalSampler(config), RankSampler(config))
    # a re-sort every 7 heap updates, so sorts fall inside the sequences; set
    # after the heap exists, since it reads the interval at each update
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rank, "RESORT_INTERVAL", 7)
        for sampler in samplers:
            cls = type(sampler)
            epsilon = config.epsilon if cls is ProportionalSampler else 0.0
            model: list[float | None] = [None] * capacity
            payloads = [None] * capacity
            top, cursor, alpha = 1.0, 0, config.alpha
            for op, *args in ops:
                if op == "store":
                    assert sampler.store(args[0]) == cursor
                    model[cursor], payloads[cursor] = top, args[0]
                    cursor = (cursor + 1) % capacity
                elif op == "update":
                    pick, value = args
                    slot = pick % (len(sampler) + 2) - 1
                    priority = (min(abs(value), 1.0) if clip else abs(value)) + epsilon
                    if not (0 <= slot < capacity and model[slot] is not None):
                        with pytest.raises(KeyError):
                            sampler.update_priority(slot, value)
                        continue
                    sampler.update_priority(slot, value)
                    model[slot] = priority
                    top = max(top, priority)
                elif op == "sample":
                    if model[0] is None:
                        with pytest.raises(ValueError):
                            sampler.sample(args[0])
                        continue
                    batch = sampler.sample(args[0])
                    assert all(model[slot] is not None for slot in batch.indices)
                    assert batch.transitions == [payloads[slot] for slot in batch.indices]
                    if cls is RankSampler:
                        # the draws index ranks without clamping them, and every live rank is reachable
                        assert sampler.partition_for(args[0]).boundaries[-1] == len(sampler)
                    if cls is ProportionalSampler:
                        tree = sampler.tree
                        assert batch.probabilities.tolist() == [leaves(tree)[s] / tree.total for s in batch.indices]
                assert len(sampler) == sum(p is not None for p in model)
                if cls is RankSampler:
                    assert sampler.heap.steps_since_sort < 7
                    if len(sampler):
                        assert sampler.partition_for(config.minibatch).boundaries[-1] == len(sampler)
                assert sampler.max_priority == top
                for slot, priority in enumerate(model):
                    if priority is not None:
                        assert sampler.priority(slot) == priority
                if cls is ProportionalSampler:
                    tree = sampler.tree
                    expected = [0.0] * tree.capacity
                    for slot, priority in enumerate(model):
                        if priority is not None:
                            expected[slot] = priority**alpha
                    # the raw array's leaves, read without settling, so writes stay pending until a read
                    assert tree._nodes[tree.capacity - 1 :].tolist() == expected
                    if op in ("sample", "read"):
                        assert tree.nodes.tobytes() == pairwise_tree(expected).tobytes()
            if cls is ProportionalSampler:
                assert sampler.tree.nodes.tobytes() == pairwise_tree(leaves(sampler.tree)).tobytes()
            else:
                assert sampler.heap.heap_ordered()


def sampler_state(sampler):
    """Everything a fill writes, bit for bit; a proportional tree is read settled."""
    state = {
        "transitions": list(sampler._transitions),
        "max_priority": sampler.max_priority.hex(),
        "cursor": sampler._cursor,
        "size": len(sampler),
    }
    if isinstance(sampler, ProportionalSampler):
        tree = sampler.tree
        state.update(nodes=tree.nodes.tobytes(), raw=sampler._raw.tobytes(), touches=tree.node_touches)
    else:
        heap = sampler.heap
        state.update(
            keys=[float(key).hex() for key in heap._keys],
            slots=list(heap._slots),
            pos=heap._pos.tobytes(),
            steps_since_sort=heap.steps_since_sort,
        )
    return state


@pytest.mark.parametrize(
    "capacity, count", [(1, 1), (5, 5), (5, 3), (512, 512), (512, 37), (8190, 8190), (8190, 4097)]
)
def test_store_many_leaves_the_state_of_a_store_per_transition(sampler_cls, capacity, count):
    transitions = [Transition(i, i % 2, 0.0, 0.5, i + 1) for i in range(count)]
    one_by_one, at_once = make_sampler(sampler_cls, capacity), make_sampler(sampler_cls, capacity)
    for t in transitions:
        one_by_one.store(t)
    at_once.store_many(iter(transitions))
    assert sampler_state(at_once) == sampler_state(one_by_one)
    if sampler_cls is ProportionalSampler:
        tree = at_once.tree
        # the scalar power that a store's write computes
        assert tree._nodes[tree.capacity - 1 :].tolist() == [1.0**0.7] * count + [0.0] * (tree.capacity - count)
    else:
        assert at_once.heap.heap_ordered()
    # and the two go on alike: an eviction, or a store into the next free slot, then an update
    for sampler in (one_by_one, at_once):
        sampler.update_priority(sampler.store(TERMINAL), -2.5)
    assert sampler_state(at_once) == sampler_state(one_by_one)


@pytest.mark.parametrize(
    "capacity, stored, count",
    [(8, 1, 1), (8, 2, 3), (8, 0, 0), (8, 0, 9), (5, 0, 6)],
    ids=["into-one", "into-two", "none", "over-capacity", "over-a-non-power-of-two-capacity"],
)
def test_store_many_refuses_a_non_empty_memory_or_a_bad_count_and_changes_nothing(
    sampler_cls, capacity, stored, count
):
    """``store_many`` is the only check of a bulk fill: at capacity 5 the sum
    tree has 8 leaves and would take 6, so only the memory's bound refuses them."""
    sampler = make_sampler(sampler_cls, capacity)
    for _ in range(stored):
        sampler.store(TERMINAL)
    before = sampler_state(sampler)
    with pytest.raises(ValueError, match="store_many"):
        sampler.store_many([TERMINAL] * count)
    assert sampler_state(sampler) == before
