import itertools
from dataclasses import replace

import numpy as np
import pytest

from prioritized_replay import Cliffwalk, RunConfig, fill_memory, ground_truth_q, run_training
from prioritized_replay.agent import INIT_SCALE, REPRESENTATIONS, STRATEGIES, _GreedySelector
from reference import LinearQ, oracle_select


def dimension(n, bias=False):
    """One weight per cell, plus the shared bias weight."""
    return 2 * n + (1 if bias else 0)


def zero_q(n, bias=False):
    return LinearQ(np.zeros(dimension(n, bias)), bias=bias)


def truth_theta(n, bias=False):
    """Parameters that represent the optimal values exactly (bias weight 0)."""
    theta = np.zeros(dimension(n, bias))
    theta[: 2 * n] = ground_truth_q(Cliffwalk(n)).reshape(-1)
    return theta


# -- td errors ----------------------------------------------------------------


def test_rewarded_terminal_transition_has_td_error_one_at_zero_q():
    spec = Cliffwalk(2)
    q = zero_q(2)
    t = spec.step(1, spec.right_action(1))
    assert q.td_error(t) == 1.0


def test_unrewarded_transitions_have_zero_td_error_at_zero_q():
    spec = Cliffwalk(3)
    q = zero_q(3)
    for s in range(3):
        t = spec.step(s, 1 - spec.right_action(s))
        assert q.td_error(t) == 0.0
    assert q.td_error(spec.step(0, spec.right_action(0))) == 0.0


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("bias", [False, True])
def test_td_error_vanishes_at_the_fixed_point(n, bias):
    spec = Cliffwalk(n)
    q = LinearQ(truth_theta(n, bias), bias=bias)
    for s in range(n):
        for a in (0, 1):
            assert q.td_error(spec.step(s, a)) == pytest.approx(0.0, abs=1e-12)


# -- updates ------------------------------------------------------------------


def test_full_weight_update_moves_the_cell_by_eta_delta():
    spec = Cliffwalk(2)
    q = zero_q(2)
    t = spec.step(1, spec.right_action(1))
    q.apply(t, 1.0)
    assert q.value(1, 1) == pytest.approx(0.25)


def test_half_weight_halves_the_step():
    spec = Cliffwalk(2)
    t = spec.step(1, spec.right_action(1))
    full, half = zero_q(2), zero_q(2)
    full.apply(t, 1.0)
    half.apply(t, 0.5)
    assert half.value(1, 1) == pytest.approx(full.value(1, 1) / 2)


def test_zero_td_error_leaves_parameters_unchanged():
    spec = Cliffwalk(3)
    q = zero_q(3)
    before = q.theta.copy()
    q.apply(spec.step(0, 1 - spec.right_action(0)), 1.0)
    assert np.array_equal(q.theta, before)


def test_tabular_update_reverts_bitwise():
    spec = Cliffwalk(2)
    q = zero_q(2)
    t = spec.step(1, spec.right_action(1))
    before = q.theta.copy()
    delta = q.apply(t, 1.0)
    q.theta[2 * 1 + 1] -= q.step_size * delta
    assert np.array_equal(q.theta, before)


def test_linear_update_reverts_within_tolerance():
    rng = np.random.default_rng(3)
    spec = Cliffwalk(4)
    q = LinearQ(rng.normal(0, 0.3, dimension(4, bias=True)), bias=True)
    t = spec.step(1, spec.right_action(1))
    before = q.theta.copy()
    delta = q.apply(t, 0.7)
    step = q.step_size * 0.7 * delta
    q.theta[2 * 1 + 1] -= step
    q.theta[-1] -= step
    assert np.allclose(q.theta, before, atol=1e-12)


# -- selectors ------------------------------------------------------------------


def greedy_pick(magnitudes):
    selector = _GreedySelector(len(magnitudes), clip=False)
    selector.magnitudes[:] = magnitudes
    slots, weights = selector.next(0)
    assert weights is None
    return slots[0]


def test_greedy_select_takes_the_argmax_with_lowest_slot_ties():
    assert greedy_pick([0.1, 0.9, 0.3]) == 1
    assert greedy_pick([0.5, 0.5, 0.5]) == 0
    assert greedy_pick([0.2, 0.7, 0.7]) == 1


def test_greedy_choice_is_scale_invariant():
    rng = np.random.default_rng(0)
    magnitudes = rng.uniform(0, 1, 50)
    assert greedy_pick(magnitudes) == greedy_pick(magnitudes * 37.5)


def test_oracle_on_a_single_transition_memory():
    spec = Cliffwalk(2)
    t = spec.step(0, 0)
    assert oracle_select([t], zero_q(2), ground_truth_q(spec)) == 0


def test_oracle_picks_the_rewarded_transition_first_at_zero_q():
    spec = Cliffwalk(2)
    memory = [spec.transitions[c] for c in fill_memory(spec, np.random.default_rng(1))]
    rewarded = next(i for i, t in enumerate(memory) if t.reward > 0)
    choice = oracle_select(memory, zero_q(2), ground_truth_q(spec))
    assert choice == rewarded


def test_oracle_ties_break_to_slot_zero_at_the_fixed_point():
    spec = Cliffwalk(2)
    memory = [spec.transitions[c] for c in fill_memory(spec, np.random.default_rng(1))]
    q = LinearQ(truth_theta(2))
    assert oracle_select(memory, q, ground_truth_q(spec)) == 0


def test_fast_oracle_loop_matches_the_reference_selector():
    """The vectorized in-loop oracle must reproduce snapshot/restore semantics."""
    # (n, representation, seed, budget, whether the test passes an initial theta)
    cases = [(n, r, 5, 120, True) for n, r in itertools.product(range(3, 7), REPRESENTATIONS)]
    # the seed-2 n = 5 linear run from its own initial theta stops moving at
    # update 191, so the picks are also checked across the skipped repeats
    cases.append((5, "linear", 2, 400, False))
    for n, representation, seed, budget, given_theta in cases:
        config = RunConfig(
            n_states=n, strategy="oracle", representation=representation, seed=seed,
            budget=budget, mse_threshold=0.0,
        )
        root = np.random.SeedSequence(
            [seed, n, STRATEGIES.index("oracle"), REPRESENTATIONS.index(representation)]
        )
        fill_seed, init_seed, _ = root.spawn(3)
        spec = Cliffwalk(n)
        memory = [spec.transitions[c] for c in fill_memory(spec, np.random.default_rng(fill_seed))]
        bias = representation == "linear"
        if given_theta:
            theta = np.random.default_rng(7).normal(0, 0.2, dimension(n, bias))
        else:
            theta = np.random.default_rng(init_seed).normal(0.0, INIT_SCALE, dimension(n, bias))

        picks = []
        run_training(
            config,
            instrument=lambda ev, **d: picks.append(d["slot"]) if ev == "replay" else None,
            initial_theta=theta if given_theta else None,
        )
        assert len(picks) == budget
        q = LinearQ(theta, bias=bias)
        truth = ground_truth_q(spec)
        for step, fast_pick in enumerate(picks):
            reference = oracle_select(memory, q, truth)
            assert fast_pick == reference, f"{representation} n={n} diverged at step {step}"
            q.apply(memory[reference], 1.0)


def test_oracle_loop_ties_break_to_slot_zero_at_the_fixed_point():
    """At the ground truth every candidate leaves the same error, so the loop
    must pick slot 0 as the reference selector does, even when slot 0 does not
    hold cell 0 (an argmin in cell order would pick cell 0's first slot)."""
    n = 2
    for seed, bias, representation in ((2, False, "tabular"), (3, True, "linear")):
        root = np.random.SeedSequence(
            [seed, n, STRATEGIES.index("oracle"), REPRESENTATIONS.index(representation)]
        )
        fill_seed, _, _ = root.spawn(3)
        spec = Cliffwalk(n)
        memory = [spec.transitions[c] for c in fill_memory(spec, np.random.default_rng(fill_seed))]
        assert (memory[0].prev_state, memory[0].action) != (0, 0)
        theta = truth_theta(n, bias=bias)
        assert oracle_select(memory, LinearQ(theta, bias=bias), ground_truth_q(spec)) == 0

        picks = []
        config = RunConfig(
            n_states=n, strategy="oracle", representation=representation, seed=seed,
            budget=3, mse_threshold=0.0,
        )
        run_training(
            config,
            instrument=lambda ev, **d: picks.append(d["slot"]) if ev == "replay" else None,
            initial_theta=theta,
        )
        assert picks == [0, 0, 0], representation


# -- training runs ------------------------------------------------------------


def test_oracle_regression_at_two_states():
    result = run_training(RunConfig(n_states=2, strategy="oracle", seed=1, budget=10_000))
    assert result.converged
    assert result.updates == 33  # frozen after the first verified run
    assert result.updates <= 50


def test_oracle_regression_at_eight_states():
    # the seed-1 n = 8 rows of a default sweep's runs.csv; the linear count
    # moves if the loop's sums add their terms in another order
    tabular = run_training(RunConfig(n_states=8, strategy="oracle", seed=1))
    assert tabular.updates == 305
    linear = run_training(RunConfig(n_states=8, strategy="oracle", representation="linear", seed=1))
    assert linear.updates == 3055


def test_stochastic_regression_at_eight_states():
    # the seed-1 n = 8 rows of a default sweep's runs.csv; they move if the
    # samplers' draw arithmetic or its order changes
    expected = {
        ("rank_stochastic", "tabular"): 4163,
        ("rank_stochastic", "linear"): 2676,
        ("proportional_stochastic", "tabular"): 2680,
        ("proportional_stochastic", "linear"): 2532,
    }
    for (strategy, representation), updates in expected.items():
        result = run_training(
            RunConfig(n_states=8, strategy=strategy, representation=representation, seed=1)
        )
        assert (result.updates, result.converged) == (updates, True), (strategy, representation)


def test_stalled_oracle_run_ends_at_its_fixed_point_as_the_window_would():
    """The seed-1 n = 8 linear run stops moving at update 1,017 and its stall
    window closes at 3,055; the skipped updates still count and still emit
    their replay events, and the budget still caps the run."""
    config = RunConfig(n_states=8, strategy="oracle", representation="linear", seed=1)
    for budget, updates in ((config.budget, 3055), (2000, 2000)):
        events = []
        result = run_training(
            replace(config, budget=budget),
            instrument=lambda ev, **d: events.append(d) if ev == "replay" else None,
        )
        assert (result.updates, result.converged) == (updates, False)
        assert [e["step"] for e in events] == list(range(1, updates + 1))
        repeats = {(e["slot"], e["td_error"], e["weight"]) for e in events[1016:]}
        assert len(repeats) == 1, budget
        slot, td_error, weight = repeats.pop()
        assert weight == 1.0
        assert (events[1015]["slot"], events[1015]["td_error"]) != (slot, td_error)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_steps_each_cell_once(strategy, monkeypatch):
    """The memory holds cell ids over the chain's 2n-row transition table, so
    a run builds that table once and no transition per slot."""
    calls = []
    step = Cliffwalk.step

    def counted_step(self, state, action):
        calls.append((state, action))
        return step(self, state, action)

    monkeypatch.setattr(Cliffwalk, "step", counted_step)
    n = 6
    run_training(RunConfig(n_states=n, strategy=strategy, seed=1, budget=500))
    assert sorted(calls) == [(s, a) for s in range(n) for a in (0, 1)]


def test_uniform_converges_at_two_states():
    result = run_training(RunConfig(n_states=2, strategy="uniform", seed=1, budget=200_000))
    assert result.converged
    assert result.final_mse < 1e-3


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_fixed_point_is_absorbing(strategy, representation):
    """From the ground truth every td error is zero, so nothing moves."""
    n = 4
    config = RunConfig(
        n_states=n, strategy=strategy, representation=representation, seed=2,
        budget=10_000, mse_threshold=0.0,
    )
    result = run_training(config, initial_theta=truth_theta(n, bias=representation == "linear"))
    assert result.final_mse < 1e-9


def test_runs_are_deterministic_given_the_config():
    config = RunConfig(n_states=4, strategy="rank_stochastic", representation="linear", seed=9)
    a = run_training(config)
    b = run_training(config)
    assert (a.updates, a.converged, a.final_mse) == (b.updates, b.converged, b.final_mse)


def test_censoring_reports_budget_exhaustion():
    config = RunConfig(n_states=6, strategy="uniform", seed=3, budget=500)
    result = run_training(config)
    assert not result.converged
    assert result.updates == 500


def test_greedy_refreshes_the_stored_magnitude_after_replay():
    events = []
    config = RunConfig(n_states=2, strategy="greedy_td", seed=1, budget=30)
    run_training(config, instrument=lambda ev, **d: events.append(d) if ev == "replay" else None)
    slots = [e["slot"] for e in events[:6]]
    # every stored transition enters at the same max magnitude, so the first
    # sweep visits slots in id order before chasing real errors
    assert slots == [0, 1, 2, 3, 4, 5]


def test_fast_loops_match_linear_q_replays():
    """Replaying the instrument trace through the reference LinearQ
    reproduces the fast loop's TD errors."""
    stochastic_keys = {"beta", "probability", "priority"}
    for strategy in ("uniform", "greedy_td", "rank_stochastic", "proportional_stochastic"):
        keys = {"slot", "td_error", "weight", "step"}
        if strategy in ("rank_stochastic", "proportional_stochastic"):
            keys |= stochastic_keys
        for representation in REPRESENTATIONS:
            n = 3
            bias = representation == "linear"
            config = RunConfig(
                n_states=n, strategy=strategy, representation=representation, seed=4,
                budget=200, mse_threshold=0.0,
            )
            theta0 = np.random.default_rng(11).normal(0, 0.2, dimension(n, bias))
            trace = []
            run_training(
                config,
                instrument=lambda ev, **d: trace.append(d) if ev == "replay" else None,
                initial_theta=theta0,
            )
            root = np.random.SeedSequence(
                [4, n, STRATEGIES.index(strategy), REPRESENTATIONS.index(representation)]
            )
            fill_seed, _, _ = root.spawn(3)
            spec = Cliffwalk(n)
            cells = fill_memory(spec, np.random.default_rng(fill_seed))
            memory = [spec.transitions[c] for c in cells]
            q = LinearQ(theta0, bias=bias)
            assert [event["step"] for event in trace] == list(range(1, 201))
            for event in trace:
                assert set(event) == keys, strategy
                td = q.apply(memory[event["slot"]], event["weight"])
                assert td == pytest.approx(event["td_error"], abs=1e-12)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_states=4, strategy="nonsense")
    with pytest.raises(ValueError):
        RunConfig(n_states=4, strategy="uniform", representation="deep")
    with pytest.raises(ValueError):
        RunConfig(n_states=4, strategy="uniform", budget=0)
    # chain sizes outside [2, MAX_STATES] fail here, not inside run_training
    for n_states in (0, 1, 17):
        with pytest.raises(ValueError):
            RunConfig(n_states=n_states, strategy="uniform")
    # rejected at construction rather than inside the sampler or is_weights
    for bad in (
        dict(alpha=-0.5),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(beta0=-0.1),
        dict(beta0=1.5),
        dict(beta0=float("nan")),
        dict(step_size=float("nan")),
        dict(step_size=float("inf")),
        dict(step_size=0.0),
        dict(step_size=-0.25),
        dict(mse_threshold=float("nan")),
        dict(mse_threshold=-1e-3),
        # a fractional budget used to run 3 updates and report a censored run
        dict(budget=2.5),
        dict(budget=True),
        # these used to fail with a TypeError inside run_training
        dict(n_states=4.0),
        # a negative seed used to fail inside SeedSequence, in a sweep inside a worker
        dict(seed=-1),
    ):
        for strategy in ("uniform", "rank_stochastic"):
            with pytest.raises(ValueError):
                RunConfig(**{"n_states": 4, "strategy": strategy, **bad})
    RunConfig(n_states=4, strategy="rank_stochastic", alpha=0.0, beta0=0.0)
    # a zero threshold forces a run to its budget
    RunConfig(n_states=4, strategy="uniform", mse_threshold=0.0)
    RunConfig(n_states=4, strategy="rank_stochastic", beta0=1.0)
    # counts may be numpy integers, and a seed may be 0
    RunConfig(n_states=np.int64(4), strategy="uniform", seed=np.int64(0), budget=np.int32(10))


def test_done_reports_beta_only_for_annealed_strategies():
    for strategy in STRATEGIES:
        done = []
        config = RunConfig(n_states=3, strategy=strategy, seed=1, budget=100, beta0=0.3)
        run_training(config, instrument=lambda ev, **d: done.append(d) if ev == "done" else None)
        if strategy in ("rank_stochastic", "proportional_stochastic"):
            assert done[0]["beta"] == pytest.approx(0.3 + 0.7 * done[0]["updates"] / 100)
        else:
            assert done[0]["beta"] is None, strategy
