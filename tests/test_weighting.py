import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioritized_replay import AnnealSchedule, is_weights


# -- importance weights ---------------------------------------------------------


def test_beta_zero_gives_unit_weights():
    assert np.allclose(is_weights([0.1, 0.5, 0.9], 10, 0.0), 1.0)


def test_uniform_probabilities_fully_compensated():
    assert np.allclose(is_weights([0.25] * 4, 4, 1.0), 1.0)


def test_hand_evaluated_two_point_batch():
    weights = is_weights([1 / 3, 2 / 3], 2, 1.0)
    assert weights == pytest.approx([1.0, 0.5])


def test_weight_errors():
    with pytest.raises(ValueError):
        is_weights([], 4, 0.5)
    with pytest.raises(ValueError):
        is_weights([0.0, 0.5], 4, 0.5)
    with pytest.raises(ValueError):
        is_weights([-0.1, 0.5], 4, 0.5)
    for bad in (np.nan, np.inf, -np.inf, 1.0 + 1e-12):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            is_weights([0.5, bad], 4, 0.5)
    with pytest.raises(ValueError):
        is_weights([0.5], 0, 0.5)
    with pytest.raises(ValueError):
        is_weights([0.5], 4, 1.5)
    # the subnormal probability's weight overflows to inf, refused without a
    # RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite and positive"):
            is_weights([5e-324, 0.5], 2, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    probs=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=32),
    n=st.integers(1, 10**6),
    beta=st.floats(0.0, 1.0),
)
def test_max_weight_is_exactly_one_and_all_in_unit_interval(probs, n, beta):
    weights = is_weights(probs, n, beta)
    assert weights.max() == 1.0
    assert np.all(weights > 0.0) and np.all(weights <= 1.0)


def test_unbiasedness_identity_before_normalization():
    rng = np.random.default_rng(0)
    priorities = rng.uniform(0.1, 3.0, 8)
    probs = priorities / priorities.sum()
    gradients = rng.normal(0, 1, 8)
    # expectation under the sampling distribution of g_i / (n P(i)) is the plain mean
    weighted = (probs * gradients / (8 * probs)).sum()
    assert weighted == pytest.approx(gradients.mean(), rel=1e-12)


def test_normalization_is_a_single_positive_rescaling():
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.01, 0.9, 16)
    raw = (100 * probs) ** -0.8
    normalized = is_weights(probs, 100, 0.8)
    ratios = raw / normalized
    assert np.all(ratios > 0)
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_a_subnormal_probability_is_weighted_by_the_same_formula():
    """A batch holding a subnormal probability takes is_weights' guarded path;
    its weights equal the plain formula's bit for bit, with no warning."""
    for probs in ([5e-324, 0.5], [1e-310, 2.2250738585072014e-308, 1.0]):
        p = np.array(probs)
        raw = (3 * p) ** -0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(is_weights(probs, 3, 0.5), raw / raw.max())


def test_raising_beta_shrinks_non_max_weight_ratios():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    previous = None
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        weights = is_weights(probs, 4, beta)
        ratios = weights / weights.max()
        if previous is not None:
            mask = probs > probs.min()  # the max-weight item is the least likely one
            assert np.all(ratios[mask] <= previous[mask] + 1e-12)
        previous = ratios


# -- annealing ------------------------------------------------------------------


def test_schedule_starts_at_the_initial_value():
    assert AnnealSchedule(0.5, 1.0, 100).value(0) == 0.5


def test_schedule_reaches_the_end_exactly_at_the_budget():
    schedule = AnnealSchedule(0.4, 1.0, 123_457)
    assert schedule.value(123_457) == 1.0
    assert schedule.value(10**9) == 1.0


def test_schedule_midpoint_is_affine():
    assert AnnealSchedule(0.4, 1.0, 100).value(50) == pytest.approx(0.7)


def test_schedule_is_monotone_when_annealing_up():
    schedule = AnnealSchedule(0.5, 1.0, 1000)
    values = [schedule.value(t) for t in range(0, 1100, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_alpha_can_anneal_down_to_zero():
    schedule = AnnealSchedule(0.5, 0.0, 10)
    assert schedule.value(0) == 0.5
    assert schedule.value(10) == 0.0
    assert schedule.value(5) == pytest.approx(0.25)


def test_schedule_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        AnnealSchedule(0.5, 1.0, 0)


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "4", None])
def test_memory_size_must_be_a_positive_whole_number(bad):
    with pytest.raises(ValueError, match="memory_size must be an integer"):
        is_weights([0.5], bad, 0.5)


def test_numpy_integer_memory_size_is_accepted():
    assert is_weights([0.5, 0.25], np.int64(4), 1.0).tolist() == [0.5, 1.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.0 + 1e-12])
def test_schedule_rejects_a_start_or_end_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match=r"start must lie in \[0, 1\]"):
        AnnealSchedule(bad, 1.0, 10)
    with pytest.raises(ValueError, match=r"end must lie in \[0, 1\]"):
        AnnealSchedule(0.5, bad, 10)


def test_schedule_accepts_the_unit_interval_ends():
    assert AnnealSchedule(0.0, 1.0, 10).value(5) == 0.5
    assert AnnealSchedule(1.0, 0.0, 10).value(10) == 0.0
