"""The benchmark workloads.

Each workload is closed-loop with a single caller: it makes one call into the
library, waits for it to return and only then makes the next. Its inputs come
from the benchmark seed alone. A workload is driven in four steps:

* ``setup()`` generates the inputs (and, for ``stream``, prefills the window);
* ``prepare()`` builds the inputs of one unit of fixed work, untimed;
* ``run(inputs)`` is the timed unit;
* ``check(output)`` compares the unit's outputs with the recorded reference,
  untimed, and counts attempted and failed operations;

and ``finish()`` runs the checks that need the whole run.

A deliberate change to results (for example a fix of the stalled oracle runs)
changes the recorded reference; that change must re-record
``reference.json`` with ``record_reference.py`` in its own benchmark change.
"""

from __future__ import annotations

import csv
import functools
import gc
import hashlib
import json
import os
import statistics
import time
import traceback
from array import array
from pathlib import Path

import numpy as np

from prioritized_replay import agent, bench, core, rank, sumtree, weighting

import calibrate

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DETERMINISTIC_COLUMNS = ("n", "transitions", "strategy", "representation", "seed", "updates", "censored")


def load_reference(workload: str, seed: int):
    if not REFERENCE_PATH.is_file():
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload, {}).get(str(seed))


class CpuTimer:
    """Records the CPU time of every call to the callables it patches.

    A call made in a forked pool worker is recorded too: each call writes one
    line, ``label count cpu_ns kernel_ns calibration_ns``, to a pipe that the
    workers inherit, and :meth:`collect` reads the lines back after the work.
    ``describe(args, result)`` gives a call's label and how many operations it
    did. With ``calibrated`` the calibration kernel is timed after each call,
    in the process that made it, ``kernel_ns`` is the mean of that time and
    the one taken after the process's previous call (if any), and
    ``calibration_ns`` is the CPU time the kernel cost; otherwise both are 0.
    """

    def __init__(self) -> None:
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owners, attr: str, describe, calibrated: bool = False) -> None:
        """Replace ``attr`` on every owner with one timing wrapper of the first owner's callable."""
        original = getattr(owners[0], attr)
        write_fd, clock = self.write_fd, time.process_time_ns
        after_last_call: dict[int, float] = {}  # process id -> kernel time after its last call

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            spent = clock() - start
            label, count = describe(args, result)
            kernel_ns = calibration_ns = 0
            if calibrated:
                after = calibrate.kernel_seconds()
                before = after_last_call.get(os.getpid(), after)
                after_last_call[os.getpid()] = after
                kernel_ns = int(5e8 * (before + after))
                calibration_ns = clock() - start - spent
            os.write(write_fd, f"{label} {count} {spent} {kernel_ns} {calibration_ns}\n".encode())
            return result

        for owner in owners:
            self._patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, timed)

    def collect(self) -> list[tuple]:
        """(label, count, cpu_ns, kernel_ns, calibration_ns) of every call recorded since the last collect."""
        chunks = []
        while True:
            try:
                chunk = os.read(self.read_fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        return [
            (label, *map(int, numbers))
            for label, *numbers in (line.split() for line in b"".join(chunks).decode().splitlines())
        ]

    def close(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        os.close(self.read_fd)
        os.close(self.write_fd)


class RunTimes:
    """Wall time of every repetition of each training run, keyed by (strategy, run)."""

    def __init__(self) -> None:
        self.walls: dict[tuple, list[float]] = {}
        self.updates: dict[tuple, int] = {}

    def add(self, strategy: str, run: tuple, wall_ms: float, updates: int) -> None:
        self.walls.setdefault((strategy, run), []).append(wall_ms)
        self.updates[(strategy, run)] = updates

    def us_per_update(self, strategy: str) -> float:
        """Summed run wall time over summed updates, over every repetition."""
        keys = [key for key in self.walls if key[0] == strategy]
        wall = sum(sum(self.walls[key]) for key in keys)
        updates = sum(self.updates[key] * len(self.walls[key]) for key in keys)
        return 1e3 * wall / updates if updates else float("nan")

    def printed_metrics(self, strategies, note: str = "") -> list:
        return [
            (f"us_per_update.{s}", self.us_per_update(s), "us",
             f"{sum(n for k, n in self.updates.items() if k[0] == s)} updates a unit{note}")
            for s in strategies
        ]


def time_training_runs() -> CpuTimer:
    """Time every ``run_training`` call, in this process or in a forked pool worker.

    ``agent.run_training`` is patched as well as the name ``bench`` imported,
    so that the pool pickles the wrapper by reference.
    """
    timer = CpuTimer()
    timer.patch((agent, bench), "run_training", lambda args, result: (result.strategy, result.updates),
                calibrated=True)
    return timer


def us_per_op(calls, label: str) -> tuple[float, float]:
    """CPU microseconds per operation of the calls labelled ``label``, the
    geometric mean over the calls: as measured, and with each call scaled to
    the reference speed by the kernel timed around it.

    A geometric mean weighs every call alike, so a seed that lengthens one
    training run does not shift the mean towards that run's cost per update.
    """
    calls = [call for call in calls if call[0] == label]
    measured = [1e-3 * call[2] / call[1] for call in calls]
    scale = [calibrate.REFERENCE_KERNEL_S / (1e-9 * call[3]) for call in calls]
    return (statistics.geometric_mean(measured),
            statistics.geometric_mean(m * f for m, f in zip(measured, scale)))


class Workload:
    name = ""
    # set-ups in an untraced run; setup_s is their median
    setup_reps = 9
    # units of fixed work in the traced run, and again untraced for its overhead
    trace_units = 1

    def __init__(self, seed: int, out_dir: Path, traced: bool = False):
        self.seed = seed
        self.out_dir = out_dir
        self.traced = traced
        self.reference = load_reference(self.name, seed)
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.timer: CpuTimer | None = None
        # calibration kernel times (s) measured inside the last unit, and the CPU time they cost
        self.unit_kernels: list[float] = []
        self.unit_calibration_s = 0.0
        # CPU microseconds per operation, one value per timed unit, as measured; and,
        # where the workload times the calls itself, at the reference speed
        self.op_us: dict[str, list[float]] = {"us_per_op.proportional": [], "us_per_op.rank": []}
        self.op_ref: dict[str, list[float]] = {name: [] for name in self.op_us}

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def expect(self, observed, what: str) -> None:
        """Compare the deterministic output of a unit with the reference.

        Without a recorded reference for this seed the first unit becomes the
        reference, so later units still have to repeat it exactly.
        """
        if self.first is None:
            self.first = observed
        expected = self.reference if self.reference is not None else self.first
        if isinstance(observed, list):
            if len(observed) != len(expected):
                self.fail(f"{what}: {len(observed)} rows, expected {len(expected)}", len(expected))
                return
            for got, want in zip(observed, expected):
                if got != want:
                    self.fail(f"{what}: row {got!r} differs from reference {want!r}")
        elif observed != expected:
            self.fail(f"{what}: {observed!r} differs from reference {expected!r}")

    def setup(self) -> None:
        pass

    def prepare(self):
        return None

    def begin_units(self) -> None:
        """Called before the first timed unit of an untraced run."""

    def end_units(self) -> None:
        """Called after the last timed unit of an untraced run."""
        if self.timer is not None:
            self.timer.close()
            self.timer = None

    def finish(self) -> None:
        pass

    def record_calls(self, labels: dict[str, str], scale_each_call: bool) -> None:
        """Add the CPU cost per operation of the unit's timed calls to ``op_us``
        and, with ``scale_each_call``, to ``op_ref``; ``labels`` maps each
        metric to its calls' label. Without ``scale_each_call`` the unit's
        value is scaled by the unit's speed, like its CPU time."""
        if self.timer is None:
            return
        calls = self.timer.collect()
        self.unit_kernels = [1e-9 * call[3] for call in calls]
        self.unit_calibration_s = 1e-9 * sum(call[4] for call in calls)
        for name, label in labels.items():
            measured, at_reference = us_per_op(calls, label)
            self.op_us[name].append(measured)
            if scale_each_call:
                self.op_ref[name].append(at_reference)

    def record_training_runs(self) -> None:
        # a run lasts up to a second and the two pool workers may run at
        # different speeds, so each run is scaled by the kernel timed around it
        self.record_calls({"us_per_op.proportional": "proportional_stochastic", "us_per_op.rank": "rank_stochastic"},
                          scale_each_call=True)


class Chain14(Workload):
    """agent.run_training at n = 14 for the four scalable strategies, both representations.

    Runnable with ``--workload chain14`` but not listed in BENCHMARK.json: a
    unit is eight runs of 0.5-2 s each, so a run of the benchmark's length holds
    only one or two units, and the work of a unit changes with the seed (the
    uniform runs take 580k-930k updates).
    """

    name = "chain14"
    n_states = 14
    strategies = ("uniform", "greedy_td", "rank_stochastic", "proportional_stochastic")

    def setup(self) -> None:
        self.configs = [
            agent.RunConfig(n_states=self.n_states, strategy=s, representation=r, seed=self.seed)
            for s in self.strategies
            for r in agent.REPRESENTATIONS
        ]
        self.times = RunTimes()

    def run(self, _):
        results = []
        for config in self.configs:
            try:
                results.append(agent.run_training(config))
            except Exception:
                results.append(traceback.format_exc())
        return results

    def check(self, results) -> None:
        rows = []
        for config, result in zip(self.configs, results):
            self.attempted += 1
            if isinstance(result, str):
                self.fail(f"run_training({config}) raised:\n{result}")
                rows.append(None)
                continue
            if result.converged and not result.final_mse < config.mse_threshold:
                self.fail(f"{config.strategy}/{config.representation}: converged at mse {result.final_mse}")
            rows.append(",".join(str(v) for v in (
                result.n_states, result.transitions, result.strategy, result.representation,
                result.seed, result.updates, "false" if result.converged else "true",
            )))
            self.times.add(result.strategy, (result.representation,), result.wall_ms, result.updates)
        self.expect(rows, "chain14 runs")
        self.record_training_runs()

    def begin_units(self) -> None:
        self.timer = time_training_runs()

    def printed_metrics(self) -> list:
        return self.times.printed_metrics(self.strategies)


class ChainSweep(Workload):
    """The acceptance-sweep shape at n = 8, 10, 12: run_sweep on a 2-worker pool, then write_results."""

    name = "chain-sweep"
    sizes = (8, 10, 12)
    jobs = 2

    def setup(self) -> None:
        # the traced run keeps every cell in this process so its spans are recorded
        self.jobs = 1 if self.traced else ChainSweep.jobs
        self.config = bench.SweepConfig(sizes=self.sizes, seeds=(self.seed,), jobs=self.jobs)
        self.cells = len(bench.expand_runs(self.config))
        self.sweep_dir = self.out_dir / "chain-sweep"
        self.times = RunTimes()

    def run(self, _):
        try:
            raw, summary = bench.run_sweep(self.config)
            bench.write_results(raw, summary, self.sweep_dir)
            return raw
        except Exception:
            return traceback.format_exc()

    def check(self, raw) -> None:
        self.attempted += self.cells
        if isinstance(raw, str):
            self.fail(f"run_sweep or write_results raised:\n{raw}", self.cells)
            return
        self.record_training_runs()
        with (self.sweep_dir / bench.RAW_FILENAME).open(newline="") as handle:
            written = [",".join(row[c] for c in DETERMINISTIC_COLUMNS) for row in csv.DictReader(handle)]
        self.expect(written, "chain-sweep runs.csv")
        for row in raw:
            if row["censored"] != "skipped":
                self.times.add(row["strategy"], (row["n"], row["representation"]), row["wall_ms"], int(row["updates"]))

    def begin_units(self) -> None:
        self.timer = time_training_runs()

    def printed_metrics(self) -> list:
        return self.times.printed_metrics(agent.STRATEGIES, ", wall_ms rounded per run")


class Stream(Workload):
    """Library use as in the paper's Atari setup, bypassing agent and cliffwalk.

    A full sliding window of 2**18 transitions per sampler; each step stores
    one transition (evicting the oldest), and every 4 steps one replay cycle
    samples k = 32, computes IS weights with annealed beta and writes back 32
    priorities from a heavy-tailed (Student-t, 2 degrees of freedom) TD-error
    stream. A unit is 128 cycles on each sampler in turn, so a run holds a
    hundred or more units.
    """

    name = "stream"
    capacity = 1 << 18
    k = 32
    replay_period = 4
    unit_cycles = 128
    pool_size = 4096
    anneal_cycles = 1 << 16
    samplers = ("proportional", "rank")
    alpha = {"proportional": 0.6, "rank": 0.7}
    beta0 = {"proportional": 0.4, "rank": 0.5}
    setup_reps = 3  # each prefills two windows of 2**18
    trace_units = 16

    def setup(self) -> None:
        # free the previous set-up's window before building the next, so the peak RSS is one window's
        self.state = None
        gc.collect()
        root = np.random.SeedSequence([self.seed, 2018])
        pool_seq, *seqs = root.spawn(1 + 2 * len(self.samplers))
        rng = np.random.default_rng(pool_seq)
        terminal = rng.random(self.pool_size) < 0.05
        states = rng.integers(0, 1 << 16, size=(self.pool_size, 2))
        actions = rng.integers(0, 2, size=self.pool_size)
        rewards = rng.normal(0.0, 1.0, size=self.pool_size)
        pool = [
            core.Transition(
                int(states[i, 0]), int(actions[i]), float(rewards[i]),
                0.0 if terminal[i] else 0.99, 0 if terminal[i] else int(states[i, 1]), bool(terminal[i]),
            )
            for i in range(self.pool_size)
        ]
        classes = {"proportional": sumtree.ProportionalSampler, "rank": rank.RankSampler}
        state = {"pool": pool, "samplers": {}, "td_rng": {}, "schedule": {}, "steps": {}, "cycles": {}}
        for i, name in enumerate(self.samplers):
            sampler_seq, td_seq = seqs[2 * i], seqs[2 * i + 1]
            config = core.SamplerConfig(
                capacity=self.capacity, alpha=self.alpha[name], minibatch=self.k,
                seed=int(sampler_seq.generate_state(1)[0]),
            )
            sampler = classes[name](config)
            store = sampler.store
            for step in range(self.capacity):
                store(pool[step % self.pool_size])
            state["samplers"][name] = sampler
            state["td_rng"][name] = np.random.default_rng(td_seq)
            state["schedule"][name] = weighting.AnnealSchedule(self.beta0[name], 1.0, self.anneal_cycles)
            state["steps"][name] = self.capacity
            state["cycles"][name] = 0
        self.state = state
        self.store_ns = {name: array("q") for name in self.samplers}
        self.batch_ns = {name: array("q") for name in self.samplers}
        # the naive model: the last priority written to each slot, and the running maximum
        self.model = {name: np.full(self.capacity, core.INITIAL_PRIORITY) for name in self.samplers}
        self.model_top = dict.fromkeys(self.samplers, core.INITIAL_PRIORITY)
        self.model_step = dict.fromkeys(self.samplers, self.capacity)
        self.broken: set[str] = set()
        # re-sort the rank heap once, last, so that the peak RSS of every run
        # includes a sort's transient memory whether or not the run reaches the
        # next sort (resort_interval heap updates on, about 220 units)
        state["samplers"]["rank"].heap.sort()

    def prepare(self):
        return {
            name: self.state["td_rng"][name].standard_t(2, size=(self.unit_cycles, self.k))
            for name in self.samplers
        }

    def run(self, tds):
        out = {}
        for name in self.samplers:
            if name in self.broken:
                continue
            try:
                out[name] = self._drive(name, tds[name].tolist())
            except Exception:
                out[name] = traceback.format_exc()
        return out, tds

    def _drive(self, name: str, td_rows: list):
        state = self.state
        sampler = state["samplers"][name]
        store, sample, update = sampler.store, sampler.sample, sampler.update_priority
        is_weights = weighting.is_weights
        beta_at = state["schedule"][name].value
        pool, pool_size = state["pool"], self.pool_size
        step, cycle = state["steps"][name], state["cycles"][name]
        store_ns, batch_ns = self.store_ns[name], self.batch_ns[name]
        clock = time.perf_counter_ns
        period, k = self.replay_period, self.k
        sampled = []
        weights = None
        began = time.process_time_ns()
        for td_row in td_rows:
            for _ in range(period):
                t0 = clock()
                store(pool[step % pool_size])
                store_ns.append(clock() - t0)
                step += 1
            t0 = clock()
            batch = sample(k)
            weights = is_weights(batch.probabilities, len(sampler), beta_at(cycle))
            for slot, td in zip(batch.indices, td_row):
                update(slot, td)
            batch_ns.append(clock() - t0)
            sampled.append(batch.indices)
            cycle += 1
        spent = time.process_time_ns() - began
        state["steps"][name], state["cycles"][name] = step, cycle
        return sampled, weights, spent

    def check(self, output) -> None:
        out, tds = output
        digests = {}
        for name in self.samplers:
            if name in self.broken:
                continue
            self.attempted += self.unit_cycles * (1 + self.replay_period)
            result = out[name]
            if isinstance(result, str):
                self.fail(f"{name} stream raised:\n{result}")
                self.broken.add(name)
                continue
            sampled, weights, spent = result
            slots = np.asarray(sampled, dtype=np.int64)
            self.update_model(name, slots, tds[name])
            self.op_us[f"us_per_op.{name}"].append(1e-3 * spent / self.unit_cycles)
            digests[name] = hashlib.sha256(slots.tobytes()).hexdigest()[:16]
            self.attempted += 1
            if not (np.all(np.isfinite(weights)) and np.all(weights > 0) and weights.max() == 1.0):
                self.fail(f"{name}: IS weights of the last batch are not max-normalized: {weights}")
        if self.first is None:
            self.attempted += len(self.samplers)
            self.expect(digests, "stream sampled-slot digest of the first unit")

    def update_model(self, name: str, slots: np.ndarray, tds: np.ndarray) -> None:
        """Apply one unit's writes to the naive model in the order the loop made them.

        Each cycle stores ``replay_period`` transitions at the running maximum
        priority, then writes |td| (+epsilon for proportional) to each sampled
        slot; the last write to a slot wins.
        """
        epsilon = self.state["samplers"][name].config.epsilon if name == "proportional" else 0.0
        written = np.abs(tds) + epsilon
        top_after = np.maximum.accumulate(np.concatenate(([self.model_top[name]], written.max(axis=1))))
        cycles = slots.shape[0]
        step = self.model_step[name]
        stored = ((step + np.arange(cycles * self.replay_period)) % self.capacity).reshape(cycles, -1)
        order_slots = np.hstack((stored, slots)).ravel()
        order_values = np.hstack((np.repeat(top_after[:-1, None], self.replay_period, axis=1), written)).ravel()
        last, index = np.unique(order_slots[::-1], return_index=True)
        self.model[name][last] = order_values[::-1][index]
        self.model_top[name] = float(top_after[-1])
        self.model_step[name] = step + cycles * self.replay_period

    def finish(self) -> None:
        """Check the samplers against the naive model after the whole run."""
        for name in self.samplers:
            if name in self.broken:
                continue
            sampler = self.state["samplers"][name]
            model, top = self.model[name], self.model_top[name]
            got = np.array([sampler.priority(slot) for slot in range(self.capacity)])
            self.attempted += 3
            wrong = int(np.sum(got != model))
            if wrong:
                self.fail(f"{name}: {wrong} slots hold a priority other than the last one written")
            if sampler.max_priority != top:
                self.fail(f"{name}: max_priority {sampler.max_priority} != model {top}")
            if name == "proportional":
                result = bench.check_tree_conservation(tree=sampler.tree)
                if not result.passed:
                    self.fail(f"proportional: {result.line()}")
            elif not sampler.heap.heap_ordered():
                self.fail("rank: RankStore.heap_ordered() is false")

    def printed_metrics(self) -> list:
        rows = []
        for name in self.samplers:
            batch_us = np.frombuffer(self.batch_ns[name], dtype=np.int64) * 1e-3
            store_us = np.frombuffer(self.store_ns[name], dtype=np.int64) * 1e-3
            rows.append((f"batch_us.p50.{name}", float(np.median(batch_us)), "us", f"n={batch_us.size}"))
            p99 = float(np.percentile(batch_us, 99)) if batch_us.size >= 1000 else float("nan")
            rows.append((f"batch_us.p99.{name}", p99, "us", f"n={batch_us.size}"))
            rows.append((f"store_us.p50.{name}", float(np.median(store_us)), "us", f"n={store_us.size}"))
        return rows


class Validate(Workload):
    """bench.validate_samplers() at its defaults: the bulk sample_many / find_many path."""

    name = "validate"
    trace_units = 2

    def run(self, _):
        try:
            return bench.validate_samplers()
        except Exception:
            return traceback.format_exc()

    def check(self, results) -> None:
        if isinstance(results, str):
            self.attempted += 1
            self.fail(f"validate_samplers raised:\n{results}")
            return
        self.attempted += len(results)
        for result in results:
            if not result.passed:
                self.fail(result.line())
        # the calls are short, so one kernel timing after each is noisier than the unit's mean
        self.record_calls({"us_per_op.proportional": "proportional", "us_per_op.rank": "rank"}, scale_each_call=False)

    def begin_units(self) -> None:
        """Time each sample_many call; a unit's value is the mean of its calls on each sampler."""
        self.timer = CpuTimer()
        self.timer.patch((sumtree.ProportionalSampler,), "sample_many", lambda args, result: ("proportional", 1),
                         calibrated=True)
        self.timer.patch((rank.RankSampler,), "sample_many", lambda args, result: ("rank", 1), calibrated=True)

    def printed_metrics(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Chain14, ChainSweep, Stream, Validate)}
