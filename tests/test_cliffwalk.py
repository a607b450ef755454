import numpy as np
import pytest

from prioritized_replay import (
    Cliffwalk,
    fill_memory,
    ground_truth_q,
    memory_size,
)
from prioritized_replay.cliffwalk import MAX_STATES
from reference import value_iteration_q


# -- dynamics -------------------------------------------------------------------


def test_right_action_alternates_with_state_parity():
    spec = Cliffwalk(5)
    assert [spec.right_action(s) for s in range(5)] == [0, 1, 0, 1, 0]


def test_discount_is_one_minus_one_over_n():
    assert Cliffwalk(4).gamma == 0.75
    assert Cliffwalk(16).gamma == 1 - 1 / 16


def test_completing_the_chain_pays_the_only_reward():
    spec = Cliffwalk(2)
    t = spec.step(1, spec.right_action(1))
    assert t.reward == 1.0 and t.is_terminal and t.discount == 0.0


def test_wrong_action_terminates_with_zero_reward():
    spec = Cliffwalk(6)
    for state in range(6):
        t = spec.step(state, 1 - spec.right_action(state))
        assert t.is_terminal and t.reward == 0.0 and t.discount == 0.0


def test_right_action_advances_one_state():
    spec = Cliffwalk(3)
    t = spec.step(0, spec.right_action(0))
    assert (t.next_state, t.reward, t.is_terminal) == (1, 0.0, False)
    assert t.discount == 1 - 1 / 3
    assert t.discount == pytest.approx(2 / 3)


def test_step_validates_inputs():
    spec = Cliffwalk(3)
    with pytest.raises(ValueError):
        spec.step(3, 0)
    with pytest.raises(ValueError):
        spec.step(-1, 0)
    with pytest.raises(ValueError):
        spec.step(0, 2)


@pytest.mark.parametrize("bad", [2.5, 4.0, "4", True, 1])
def test_chain_needs_a_whole_number_of_at_least_two_states(bad):
    """Refused at construction, before gamma or the transition table is read."""
    with pytest.raises(ValueError, match="n_states"):
        Cliffwalk(bad)


def test_transition_table_holds_one_step_per_cell():
    for n in (2, 5, 16):
        spec = Cliffwalk(n)
        assert len(spec.transitions) == 2 * n
        for s in range(n):
            for a in (0, 1):
                assert spec.transitions[2 * s + a] == spec.step(s, a)


# -- exhaustive fill --------------------------------------------------------------


def reference_fill(spec, rng):
    """The fill as one ``step`` per slot: every shuffled action sequence,
    walked until its first terminal transition."""
    memory = []
    for sequence in rng.permutation(1 << spec.n_states):
        state = 0
        for step_index in range(spec.n_states):
            transition = spec.step(state, (int(sequence) >> step_index) & 1)
            memory.append(transition)
            if transition.is_terminal:
                break
            state = transition.next_state
    return memory


def filled(spec, rng):
    return [spec.transitions[c] for c in fill_memory(spec, rng)]


@pytest.mark.parametrize("n", range(2, 15))
def test_fill_matches_the_per_slot_reference(n):
    spec = Cliffwalk(n)
    for seed in (0, 1, 7):
        reference = reference_fill(spec, np.random.default_rng(seed))
        assert filled(spec, np.random.default_rng(seed)) == reference


@pytest.mark.parametrize("n", range(2, 11))
def test_fill_size_matches_the_closed_form(n):
    assert len(fill_memory(Cliffwalk(n), np.random.default_rng(0))) == memory_size(n) == 2 ** (n + 1) - 2


def test_fill_contains_exactly_one_rewarded_transition():
    for n in (2, 5, 9):
        memory = filled(Cliffwalk(n), np.random.default_rng(0))
        assert sum(t.reward for t in memory) == 1.0


def test_largest_supported_fill():
    memory = filled(Cliffwalk(16), np.random.default_rng(0))
    assert len(memory) == 131070
    assert sum(t.reward for t in memory) == 1.0


def test_fill_rejects_oversized_chains():
    with pytest.raises(ValueError):
        fill_memory(Cliffwalk(17), np.random.default_rng(0))


def test_fill_order_is_seeded():
    spec = Cliffwalk(5)
    a = filled(spec, np.random.default_rng(3))
    b = filled(spec, np.random.default_rng(3))
    c = filled(spec, np.random.default_rng(4))
    assert a == b
    assert a != c
    assert sorted(map(repr, a)) == sorted(map(repr, c))  # same multiset of transitions


def test_random_policy_reaches_the_reward_with_probability_two_to_minus_n():
    for n in (4, 8):
        spec = Cliffwalk(n)
        rng = np.random.default_rng(100 + n)
        episodes = 300_000
        successes = 0
        for _ in range(episodes):
            state = 0
            while True:
                t = spec.step(state, int(rng.integers(2)))
                if t.is_terminal:
                    successes += t.reward > 0
                    break
                state = t.next_state
        p = 2.0**-n
        sigma = np.sqrt(p * (1 - p) / episodes)
        assert abs(successes / episodes - p) < 3 * sigma


# -- ground truth ------------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, MAX_STATES + 1))
def test_closed_form_matches_value_iteration(n):
    spec = Cliffwalk(n)
    assert np.abs(ground_truth_q(spec) - value_iteration_q(spec)).max() < 1e-11


def test_ground_truth_for_two_states():
    q = ground_truth_q(Cliffwalk(2))
    assert q[0, 0] == pytest.approx(0.5)  # right action at state 0
    assert q[1, 1] == pytest.approx(1.0)
    assert q[0, 1] == 0.0 and q[1, 0] == 0.0


def test_last_state_right_action_is_exactly_one():
    for n in (2, 6, 13):
        spec = Cliffwalk(n)
        q = ground_truth_q(spec)
        assert q[n - 1, spec.right_action(n - 1)] == 1.0


def test_wrong_actions_are_worth_zero():
    spec = Cliffwalk(9)
    q = ground_truth_q(spec)
    for s in range(9):
        assert q[s, 1 - spec.right_action(s)] == 0.0

