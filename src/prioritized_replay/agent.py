"""Q-learning on the cliff walk with five replay-selection strategies.

A run pre-fills the replay memory exhaustively, then repeatedly selects a
stored transition (per strategy), computes its TD error, refreshes its
priority where applicable, and takes one gradient step, checking the MSE
against the ground-truth values after every update. The loop is generic over
the value representation (tabular or linear with a shared bias feature).
All five strategies share one replay loop and differ only in their selector:
which slots it picks, how it weights them (stochastic strategies draw
stratified minibatches and fold in importance-sampling weights, the others
update with weight 1) and how a replay refreshes a priority. A selector ends a
run, censored, by returning an empty batch; the hindsight oracle does so when
a stall window passes without a new best error. A run whose TD error turns
non-finite or whose sampler refuses a draw or write is censored at its budget.

The loop alone owns the values: 2n cell values (cell 2 * state + action)
plus, for the linear representation, one shared bias added to every cell.
Selectors read them and never change them. The loop runs on plain Python
floats with incrementally maintained squared error, so convergence can be
checked after every update without a sweep; the arithmetic is cross-checked
against the object model in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from heapq import heapreplace

import numpy as np

from .cliffwalk import MAX_STATES, Cliffwalk, fill_memory, ground_truth_q, memory_size
from .core import INITIAL_PRIORITY, SamplerConfig, _check_count, _check_nonnegative, _check_positive, td_magnitude
from .rank import RankSampler
from .sumtree import ProportionalSampler
from .weighting import AnnealSchedule, _check_exponent, is_weights

__all__ = [
    "STRATEGIES",
    "REPRESENTATIONS",
    "RunConfig",
    "RunResult",
    "run_training",
]

STRATEGIES = ("uniform", "oracle", "greedy_td", "rank_stochastic", "proportional_stochastic")
REPRESENTATIONS = ("tabular", "linear")

DEFAULT_ALPHA = {"rank_stochastic": 0.7, "proportional_stochastic": 0.6}
DEFAULT_BETA0 = {"rank_stochastic": 0.5, "proportional_stochastic": 0.4}

# Standard deviation of the normal draw of the initial parameters.
INIT_SCALE = 0.1

# Incremental squared-error tracking is resynced from scratch this often.
_RESYNC_MASK = (1 << 20) - 1

# Uniform replay draws its slots this many at a time.
_UNIFORM_CHUNK = 8192


@dataclass(frozen=True)
class RunConfig:
    """One benchmark trial: chain size, strategy, representation, seed, and knobs.
    A stochastic strategy's sampler keeps ``SamplerConfig``'s other defaults."""

    n_states: int
    strategy: str
    representation: str = "tabular"
    seed: int = 1
    budget: int = 10_000_000
    mse_threshold: float = 1e-3
    step_size: float = 0.25
    alpha: float | None = None
    beta0: float | None = None
    clip_td: bool = False
    use_is_weights: bool = True

    def __post_init__(self) -> None:
        _check_count("n_states", self.n_states, 2)
        if self.n_states > MAX_STATES:
            raise ValueError(f"n_states must lie in [2, {MAX_STATES}], got {self.n_states}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(
                f"unknown representation {self.representation!r}; expected one of {REPRESENTATIONS}"
            )
        _check_count("seed", self.seed, 0)
        _check_count("budget", self.budget)
        _check_positive("step_size", self.step_size)
        _check_nonnegative("mse_threshold", self.mse_threshold)
        if self.alpha is not None:
            _check_nonnegative("alpha", self.alpha)
        if self.beta0 is not None:
            _check_exponent("beta0", self.beta0)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one trial. ``converged`` False marks a censored run: its
    ``updates`` is the budget, except for a stalled oracle run, which reports
    where its stall window ended (at most the budget). A run ends censored at
    its budget once a TD error turns non-finite or its sampler refuses a draw
    or a priority write. Each of a stochastic minibatch's 16 slots takes its
    step before the next slot's TD error is computed; the paper's Algorithm 1
    (section 3.4) instead accumulates a minibatch's weighted steps at fixed
    parameters and applies their sum once."""

    n_states: int
    transitions: int
    strategy: str
    representation: str
    seed: int
    updates: int
    converged: bool
    final_mse: float
    wall_ms: float


def run_training(config: RunConfig, instrument=None, initial_theta=None) -> RunResult:
    """Execute one trial and return its outcome.

    ``instrument`` is an optional callable ``(event, **data)`` receiving
    ``store`` events while the sampler fills, one ``replay`` event per applied
    update, and a final ``done`` event; it exists for tests and diagnostics.
    ``initial_theta``, finite and only read, overrides the random initialization.
    """
    start = time.perf_counter()
    spec = Cliffwalk(config.n_states)
    strategy_id = STRATEGIES.index(config.strategy)
    repr_id = REPRESENTATIONS.index(config.representation)
    root = np.random.SeedSequence([config.seed, config.n_states, strategy_id, repr_id])
    fill_seed, init_seed, loop_seed = root.spawn(3)

    # one weight per cell, plus the shared bias weight in the linear case
    has_bias = config.representation == "linear"
    dimension = 2 * config.n_states + (1 if has_bias else 0)
    if initial_theta is not None:
        theta = np.asarray(initial_theta, dtype=np.float64)
        if theta.shape != (dimension,) or not np.isfinite(theta).all():
            raise ValueError(f"initial_theta must hold {dimension} finite values")
    else:
        theta = np.random.default_rng(init_seed).normal(0.0, INIT_SCALE, dimension)

    cells = fill_memory(spec, np.random.default_rng(fill_seed))
    truth = ground_truth_q(spec)

    loop_rng = np.random.default_rng(loop_seed)
    if config.strategy == "uniform":
        selector = _UniformSelector(len(cells), loop_rng)
    elif config.strategy == "greedy_td":
        selector = _GreedySelector(len(cells), config.clip_td)
    elif config.strategy == "oracle":
        selector = _OracleSelector(config, spec, cells, has_bias, truth)
    else:
        selector = _PrioritizedSelector(config, spec, cells, loop_rng, instrument)
    updates, converged, final_mse = _loop(
        config, spec, cells, has_bias, truth, theta, selector, instrument
    )

    wall_ms = (time.perf_counter() - start) * 1e3
    if instrument is not None:
        final_beta = selector.schedule.value(updates) if selector.schedule is not None else None
        instrument("done", updates=updates, converged=converged, beta=final_beta)
    return RunResult(
        n_states=config.n_states,
        transitions=memory_size(config.n_states),
        strategy=config.strategy,
        representation=config.representation,
        seed=config.seed,
        updates=updates,
        converged=converged,
        final_mse=final_mse,
        wall_ms=wall_ms,
    )


def _exact_sums(cq, bq, truth_flat):
    """Squared error and plain error sum of the cell values against the truth."""
    sse = 0.0
    s1 = 0.0
    for i in range(len(truth_flat)):
        e = cq[i] + bq - truth_flat[i]
        sse += e * e
        s1 += e
    return sse, s1


class _Selector:
    """What the replay loop replays. ``next(updates, cq, bq)`` reads the loop's
    cell values and bias and returns the next slots and their IS weights
    (``None`` means weight 1), or no slots to end the run. ``refresh(slot,
    td)`` takes each replayed slot's fresh TD error and ``schedule`` anneals
    beta, when set; ``describe(j, slot)`` adds to the batch's j-th ``replay`` event."""

    refresh = None
    schedule = None

    def describe(self, j: int, slot: int) -> dict:
        return {}


class _UniformSelector(_Selector):
    """Chunks of uniformly drawn slots, each replayed at weight 1."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng

    def next(self, updates: int, cq, bq):
        return self.rng.integers(0, self.size, size=_UNIFORM_CHUNK).tolist(), None


class _GreedySelector(_Selector):
    """The slot with the largest stored |td|, replayed at weight 1; replaying
    it overwrites the stored magnitude with the fresh |td|.

    The magnitudes live in a heap of (-|td|, slot) entries, one a slot, so
    its top is the largest magnitude, ties to the lowest slot, as argmax
    picks. The loop refreshes only the slot it was just given, the top, so a
    refresh replaces the top entry.
    """

    def __init__(self, size: int, clip: bool):
        # every transition enters at the running max "priority"; sorted, so a heap
        self.heap = [(-INITIAL_PRIORITY, slot) for slot in range(size)]
        self.clip = clip

    def next(self, updates: int, cq, bq):
        return [self.heap[0][1]], None

    def refresh(self, slot: int, td_error: float) -> None:
        assert slot == self.heap[0][1], "greedy refreshes only the slot it picked"
        heapreplace(self.heap, (-td_magnitude(td_error, self.clip), slot))


class _OracleSelector(_Selector):
    """Hindsight selection: the slot whose replay leaves the least squared
    error, replayed at weight 1. Every stored copy of a cell is identical, so
    the post-update error of each of the 2n cells follows in closed form from
    the rank-one step, and the first minimum over the cells, in order of their
    lowest slot, is the lowest slot that reaches it: the pick of the reference
    selector in ``tests/reference.py``, which tries every stored transition.
    It scores the loop's own values, so the loop alone applies the steps.

    A deterministic run that stops improving can never converge: once a stall
    window of updates passes without a new best error, an empty batch ends it.
    A pick that moves no value would repeat until the window or the budget ran
    out, so it is returned once as all of those repeats.
    """

    def __init__(self, config: RunConfig, spec: Cliffwalk, cells, has_bias, truth):
        first_slot = {}
        for slot, c in enumerate(cells):
            first_slot.setdefault(c, slot)
        self.first_slot = first_slot
        self.cells_by_first_slot = np.array(list(first_slot))  # dicts keep insertion order
        self.reward = np.array([t.reward for t in spec.transitions])
        self.discount = np.array([t.discount for t in spec.transitions])
        self.next_state = np.array([t.next_state for t in spec.transitions])
        self.n_cells = 2 * config.n_states
        self.has_bias = has_bias
        self.truth = truth.reshape(-1)
        self.eta = config.step_size
        self.budget = config.budget
        self.stall_window = max(2000, 4 * len(cells))
        self.best_sse = np.inf
        self.last_improvement = 0

    def next(self, updates: int, cq, bq):
        # overflowing values score as inf or nan, without a warning; the
        # loop's non-finite stop then censors the run at its budget
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.array(cq) + bq
            errors = q - self.truth
            sse = float(errors @ errors)
            if sse < self.best_sse:
                self.best_sse = sse
                self.last_improvement = updates
            elif updates - self.last_improvement >= self.stall_window:
                return [], None
            boot = np.maximum(q[0::2], q[1::2])[self.next_state]
            d = self.eta * (self.reward + self.discount * boot - q)
            if self.has_bias:
                s1 = float(errors.sum())
                sse_after = sse + 2.0 * d * s1 + self.n_cells * d * d + (2.0 * errors + 3.0 * d) * d
            else:
                sse_after = sse + d * (2.0 * errors + d)
        c = int(self.cells_by_first_slot[sse_after[self.cells_by_first_slot].argmin()])
        step = float(d[c])
        slot = self.first_slot[c]
        if cq[c] + step == cq[c] and (not self.has_bias or bq + step == bq):
            return [slot] * (min(self.budget, self.last_improvement + self.stall_window) - updates), None
        return [slot], None


class _PrioritizedSelector(_Selector):
    """Stratified minibatches from a rank or proportional sampler, with IS
    weights under the annealed exponent; replaying refreshes the priority."""

    def __init__(self, config: RunConfig, spec: Cliffwalk, cells, rng, instrument):
        strategy = config.strategy
        alpha = config.alpha if config.alpha is not None else DEFAULT_ALPHA[strategy]
        beta0 = config.beta0 if config.beta0 is not None else DEFAULT_BETA0[strategy]
        sampler_config = SamplerConfig(capacity=len(cells), alpha=alpha, clip_td=config.clip_td)
        sampler_cls = RankSampler if strategy == "rank_stochastic" else ProportionalSampler
        self.sampler = sampler = sampler_cls(sampler_config)
        sampler.store_many(map(spec.transitions.__getitem__, cells))
        if instrument is not None:
            for slot in range(len(cells)):
                instrument("store", slot=slot, priority=sampler.priority(slot))
        self.refresh = sampler.update_priority
        self.schedule = AnnealSchedule(beta0, 1.0, config.budget)
        self.use_is_weights = config.use_is_weights
        self.minibatch = sampler_config.minibatch
        self.rng = rng

    def next(self, updates: int, cq, bq):
        self.beta = self.schedule.value(updates)
        # the sampler's draw without sample()'s SampledBatch: is_weights checks
        # the probabilities once per minibatch
        slots, self.probabilities = self.sampler._draw(self.minibatch, self.rng)
        if not self.use_is_weights:
            return slots, None
        return slots, is_weights(self.probabilities, len(self.sampler), self.beta).tolist()

    def describe(self, j: int, slot: int) -> dict:
        return {
            "beta": self.beta,
            "probability": self.probabilities[j],
            "priority": self.sampler.priority(slot),
        }


def _loop(config, spec, cells, has_bias, truth, theta, selector, instrument):
    """Replay what ``selector`` picks, one weighted update per slot, until the
    values converge, the budget runs out, the selector returns an empty batch,
    or a TD error turns non-finite or the sampler refuses a draw or a priority
    write with ValueError; those last two censor the run at its budget. Each
    update is followed by a convergence test on the incremental squared error,
    confirmed by an exact left-to-right sum. Each of a stochastic minibatch's
    16 slots takes its step before the next slot's TD error is computed; the
    paper's Algorithm 1 (section 3.4) instead accumulates a minibatch's
    weighted steps at fixed parameters and applies their sum once."""
    rewards = [t.reward for t in spec.transitions]
    discounts = [t.discount for t in spec.transitions]
    next2 = [2 * t.next_state for t in spec.transitions]
    n_cells = 2 * config.n_states
    n_cells_f = float(n_cells)
    cq = [float(v) for v in theta[:n_cells]]
    bq = float(theta[-1]) if has_bias else 0.0
    truth_flat = [float(v) for v in truth.reshape(-1)]
    sse, s1 = _exact_sums(cq, bq, truth_flat)
    eta = config.step_size
    budget = config.budget
    sse_threshold = config.mse_threshold * n_cells
    refresh = selector.refresh
    isfinite = math.isfinite

    updates = 0
    converged = False
    while updates < budget and not converged:
        try:
            slots, weights = selector.next(updates, cq, bq)
        except ValueError:
            # the sampler refused to draw, as from a tree with no mass: censored
            updates = budget
            break
        if not slots:
            break
        for j, slot in enumerate(slots):
            c = cells[slot]
            g = discounts[c]
            q_sa = cq[c] + bq
            if g != 0.0:
                ns2 = next2[c]
                boot = cq[ns2] + bq if cq[ns2] >= cq[ns2 + 1] else cq[ns2 + 1] + bq
                delta = rewards[c] + g * boot - q_sa
            else:
                delta = rewards[c] - q_sa
            if not isfinite(delta):
                # every later update adds to a non-finite value, so the run
                # could never converge: it is censored at its budget now
                updates = budget
                break

            if refresh is not None:
                try:
                    refresh(slot, delta)
                except ValueError:
                    # the sampler refused the priority, as past its tree's bound
                    updates = budget
                    break

            w = 1.0 if weights is None else weights[j]
            d = eta * w * delta
            if has_bias:
                sse += 2.0 * d * s1 + n_cells_f * d * d
                s1 += n_cells_f * d
                bq += d
            e_c = cq[c] + bq - truth_flat[c]
            sse += d * (2.0 * e_c + d)
            s1 += d
            cq[c] += d
            updates += 1

            if instrument is not None:
                instrument(
                    "replay", slot=slot, td_error=delta, weight=w,
                    **selector.describe(j, slot), step=updates,
                )
            if sse < sse_threshold or (updates & _RESYNC_MASK) == 0:
                sse, s1 = _exact_sums(cq, bq, truth_flat)
                if sse < sse_threshold:
                    converged = True
                    break
            if updates >= budget:
                break

    sse, _ = _exact_sums(cq, bq, truth_flat)
    return updates, converged, sse / n_cells
