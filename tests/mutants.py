"""Mutation checks: small faults planted in a copy of ``src/`` that named tests must catch.

Each mutant names a file under ``src/prioritized_replay/``, one exact text
edit (``old`` becomes ``new``; ``old`` occurs exactly once in the file) and
the test node ids that must fail once the edit is applied. A mutant is killed
when every one of its tests fails; one that any of them passes survives, and
that is a gap in the tests to fill, not a mutant to drop.

Run ``python tests/mutants.py`` (or ``python tests/mutants.py NAME ...`` for
some of them). It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, so the pytest configuration's ``pythonpath = ["src"]``
names the copy, and runs the tests there with ``PYTHONPATH`` on the copy too:
first every named test on the clean copy, which must pass, then each mutant's
tests with its edit applied, one mutant at a time. It exits non-zero if a
test fails on the clean copy or a mutant survives or times out (a pytest run
past ``TIMEOUT_S``, counted as a survivor). Hypothesis runs with a
fixed seed. ``tests/test_mutants.py`` keeps every ``old`` text unique in its
file, so a refactor that moves the code must carry the mutant along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prioritized_replay"

# Seconds one pytest run may take. A mutant whose run takes longer is named
# TIMED OUT and counted as not killed: it needs a faster killer.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # under src/prioritized_replay/
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "rank partition reused across a size change",
        "rank.py",
        "return build_partition(n, self._alpha, min(k, n))",
        "return build_partition(self.config.capacity, self._alpha, min(k, n))",
        (
            "tests/test_rank.py::test_a_grown_memory_gets_a_partition_of_its_own_size",
            "tests/test_rank.py::test_sample_draws_what_sample_many_draws_on_a_grown_memory",
            "tests/test_rank.py::test_sample_many_finds_each_piece_on_a_grown_memory[0.7]",
            "tests/test_rank.py::test_sample_many_finds_each_piece_on_a_grown_memory[3.0]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "rank pieces keep a zero-mass tail",
        "rank.py",
        "for j in range(k) if c[j] < 1.0)",
        "for j in range(k))",
        (
            "tests/test_rank.py::test_a_stratum_end_rounding_to_one_skips_a_zero_mass_tail[20.0]",
            "tests/test_rank.py::test_a_stratum_end_rounding_to_one_skips_a_zero_mass_tail[40.0]",
            "tests/test_rank.py::test_a_stratum_end_rounding_to_one_skips_a_zero_mass_tail[100.0]",
        ),
    ),
    Mutant(
        "rank piece mass not differenced",
        "rank.py",
        "c[j + 1] - c[j]) for j",
        "c[j + 1]) for j",
        (
            "tests/test_rank.py::test_pieces_come_from_the_boundaries_and_partition_for_is_the_cached_build[16-0.7-16]",
            "tests/test_rank.py::test_pieces_come_from_the_boundaries_and_partition_for_is_the_cached_build[4096-3.0-16]",
            "tests/test_rank.py::test_reported_probabilities_are_exact_with_singleton_segments",
            "tests/test_rank.py::test_power_law_slope_matches_alpha",
            "tests/test_rank.py::test_sample_draws_what_sample_many_draws[100-16]",
        ),
    ),
    Mutant(
        "sample() ignores its rng",
        "core.py",
        "slots, probs = self._draw(k, self._rng_for(k, 1, rng))",
        "slots, probs = self._draw(k, self._rng_for(k, 1, None))",
        (
            "tests/test_rank.py::test_draw_is_what_sample_wraps[100-100-16]",
            "tests/test_sumtree.py::test_draw_is_what_sample_wraps[37-37-16]",
            "tests/test_golden.py::test_output_matches_the_golden_digests[draws]",
        ),
    ),
    Mutant(
        "total skips the settle",
        "sumtree.py",
        '"""Sum of all leaf values (the root node)."""\n        self._settle()\n',
        '"""Sum of all leaf values (the root node)."""\n',
        (
            "tests/test_sumtree.py::test_a_stream_sized_window_settles_by_the_walk",
            "tests/test_sumtree.py::test_eviction_removes_old_mass_in_the_same_call",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "scalar descent one level short",
        "sumtree.py",
        "            while node < offset:",
        "            while node < offset >> 1:",
        (
            "tests/test_sumtree.py::test_find_many_matches_scalar_find",
            "tests/test_sumtree.py::test_sample_draws_what_sample_many_draws[37-37-16]",
            "tests/test_sumtree.py::test_descend_and_find_many_agree_on_boundaries[2]",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "bulk descent one level short",
        "sumtree.py",
        "        for _ in range(self.levels - 1):",
        "        for _ in range(self.levels - 2):",
        (
            "tests/test_sumtree.py::test_find_many_examples",
            "tests/test_sumtree.py::test_find_agrees_with_linear_scan_on_random_trees",
            "tests/test_bench.py::test_quick_validation_suite_passes",
        ),
    ),
    Mutant(
        "bulk descent's first level reads node 2",
        "sumtree.py",
        "root_left = self._data[1]",
        "root_left = self._data[2]",
        (
            "tests/test_sumtree.py::test_find_many_examples",
            "tests/test_sumtree.py::test_descend_and_find_many_agree_on_boundaries[2]",
            "tests/test_sumtree.py::test_a_tree_of_one_or_two_leaves_draws_in_bulk_what_successive_samples_draw[2-2-5]",
        ),
    ),
    Mutant(
        "bulk descent's first level skips its subtraction",
        "sumtree.py",
        "        value -= left_sum\n        np.add(right, 1, out=leaf)",
        "        np.add(right, 1, out=leaf)",
        (
            "tests/test_sumtree.py::test_find_many_examples",
            "tests/test_sumtree.py::test_find_agrees_with_linear_scan_on_random_trees",
            "tests/test_sumtree.py::test_sample_draws_what_sample_many_draws[37-37-16]",
        ),
    ),
    Mutant(
        "bulk strata not clamped below the total",
        "sumtree.py",
        "            np.minimum(value, top, out=value)\n",
        "",
        ("tests/test_sumtree.py::test_a_stratum_end_rounding_onto_the_total_lands_on_the_last_leaf_with_mass",),
    ),
    Mutant(
        "a later bulk chunk starts mid-minibatch",
        "core.py",
        "    for start in range(0, flat.size, step):",
        "    for start in range(0, flat.size, step - 1):",
        (
            "tests/test_sumtree.py::test_sample_many_draws_what_successive_samples_draw[7-2341]",
            "tests/test_sumtree.py::test_sample_many_draws_what_successive_samples_draw[16-1025]",
            "tests/test_rank.py::test_sample_many_draws_what_successive_samples_draw[7-2341]",
            "tests/test_rank.py::test_sample_many_draws_what_successive_samples_draw[16-1025]",
        ),
    ),
    Mutant(
        "rebuild keeps the stale list",
        "sumtree.py",
        "            add(left, right, out=parents)\n        self._stale.clear()",
        "            add(left, right, out=parents)",
        (
            "tests/test_sumtree.py::test_rebuild_repairs_corruption",
            "tests/test_bench.py::test_corrupted_tree_fails_conservation",
        ),
    ),
    Mutant(
        "rebuild skips the root's level",
        "sumtree.py",
        "        while first > 0:",
        "        while first > 1:",
        (
            "tests/test_sumtree.py::test_rebuild_repairs_corruption",
            "tests/test_sumtree.py::test_writes_reach_the_bound_views",
            "tests/test_core.py::test_samplers_match_a_naive_model",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "store_many skips the rebuild",
        "sumtree.py",
        "        self.node_touches += count * (self.levels + 1)\n        self.rebuild()\n",
        "        self.node_touches += count * (self.levels + 1)\n",
        (
            "tests/test_core.py::test_store_many_leaves_the_state_of_a_store_per_transition[proportional-5-3]",
            "tests/test_core.py::test_store_many_leaves_the_state_of_a_store_per_transition[proportional-8190-8190]",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "rank insert appends before its checks",
        "rank.py",
        (
            "        if not 0 <= slot < len(self._pos):\n"
            '            raise IndexError(f"slot {slot} out of range for capacity {len(self._pos)}")\n'
            "        if self._pos[slot] >= 0:\n"
            '            raise ValueError(f"slot {slot} already present")\n'
            "        self._pos[slot] = end = len(self._keys)\n"
            "        self._keys.append(key)\n"
            "        self._slots.append(slot)\n"
        ),
        (
            "        end = len(self._keys)\n"
            "        self._keys.append(key)\n"
            "        self._slots.append(slot)\n"
            "        if not 0 <= slot < len(self._pos):\n"
            '            raise IndexError(f"slot {slot} out of range for capacity {len(self._pos)}")\n'
            "        if self._pos[slot] >= 0:\n"
            '            raise ValueError(f"slot {slot} already present")\n'
            "        self._pos[slot] = end\n"
        ),
        (
            "tests/test_rank.py::test_a_slot_out_of_range_is_refused_before_anything_changes",
        ),
    ),
    Mutant(
        "rank insert leaves the new slot's position unset",
        "rank.py",
        "        self._pos[slot] = end = len(self._keys)\n",
        "        end = len(self._keys)\n",
        (
            "tests/test_rank.py::test_heap_layout_matches_a_swap_based_heap",
            "tests/test_rank.py::test_heap_property_holds_after_every_operation",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "rank sift leaves a moved entry's position stale",
        "rank.py",
        "            slots[i] = slot\n            pos[slot] = i\n",
        "            slots[i] = slot\n",
        (
            "tests/test_rank.py::test_heap_layout_matches_a_swap_based_heap",
            "tests/test_rank.py::test_heap_property_holds_after_every_operation",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "the rank store_many leaves the position index unset",
        "rank.py",
        "        np.frombuffer(self._pos, dtype=np.int64)[:count] = np.arange(count)\n",
        "",
        (
            "tests/test_core.py::test_store_many_leaves_the_state_of_a_store_per_transition[rank-5-3]",
            "tests/test_core.py::test_store_many_leaves_the_state_of_a_store_per_transition[rank-8190-8190]",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "rank sort scatters positions from the unsorted slots",
        "rank.py",
        "np.frombuffer(self._pos, dtype=np.int64)[slots[order]]",
        "np.frombuffer(self._pos, dtype=np.int64)[slots]",
        (
            "tests/test_rank.py::test_heap_layout_matches_a_swap_based_heap",
            "tests/test_rank.py::test_sort_keeps_the_position_index[tied]",
            "tests/test_rank.py::test_full_sort_orders_keys_non_increasing",
            "tests/test_rank.py::test_a_sort_boxes_no_int_per_entry",
        ),
    ),
    Mutant(
        "bulk rank draw skips a crowded stratum's last knot",
        "rank.py",
        "for j in np.flatnonzero(inner > full)]",
        "for j in np.flatnonzero(inner > full + 1)]",
        (
            "tests/test_rank.py::test_sample_many_finds_each_piece_however_many_knots_a_stratum_holds[2.0-11]",
        ),
    ),
    Mutant(
        "proportional priorities lose their epsilon",
        "sumtree.py",
        "self._epsilon = config.epsilon",
        "self._epsilon = 0.0",
        (
            "tests/test_core.py::test_zero_td_error_keeps_positive_priority[proportional]",
            "tests/test_sumtree.py::test_batch_probabilities_match_the_closed_form",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "a leaf write skips its stale entry",
        "sumtree.py",
        "        stale.append(node)\n",
        "",
        (
            "tests/test_sumtree.py::test_batch_probabilities_match_the_closed_form",
            "tests/test_core.py::test_samplers_match_a_naive_model",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "the proportional write skips the raw priority",
        "sumtree.py",
        "        self._raw_view[slot] = priority\n",
        "",
        (
            "tests/test_core.py::test_update_priority_examples[proportional]",
            "tests/test_core.py::test_clipped_update[proportional]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "a leaf write drops the leaf bound",
        "sumtree.py",
        "        if not 0.0 <= value <= self._max_leaf:\n            raise ValueError(f\"leaf values must lie in [0, {self._max_leaf!r}], got {value!r}\")\n        node =",
        "        if not 0.0 <= value:\n            raise ValueError(f\"leaf values must lie in [0, {self._max_leaf!r}], got {value!r}\")\n        node =",
        (
            "tests/test_sumtree.py::test_set_leaf_refuses_a_value_past_its_share_of_the_float_maximum",
            "tests/test_sumtree.py::test_a_write_that_would_overflow_the_tree_is_refused",
        ),
    ),
    Mutant(
        "no running-max update",
        "core.py",
        "            self._max_priority = priority",
        "            pass",
        (
            "tests/test_core.py::test_store_tracks_running_max_from_updates[proportional]",
            "tests/test_core.py::test_store_tracks_running_max_from_updates[rank]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "rank stores always insert",
        "rank.py",
        "        if slot < self._size:\n            self.heap.update(slot, priority)",
        "        if False:\n            self.heap.update(slot, priority)",
        (
            "tests/test_core.py::test_clipped_update[rank]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "updates accepted up to the capacity, not the live count",
        "core.py",
        "inline: this runs once per replayed transition\n        if not 0 <= slot < self._size:",
        "inline: this runs once per replayed transition\n        if not 0 <= slot < self.config.capacity:",
        (
            "tests/test_core.py::test_update_unoccupied_slot_raises[proportional]",
            "tests/test_core.py::test_update_unoccupied_slot_raises[rank]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "priority reads accepted up to the capacity, not the live count",
        "core.py",
        "    def _check_occupied(self, slot: int) -> None:\n        if not 0 <= slot < self._size:",
        "    def _check_occupied(self, slot: int) -> None:\n        if not 0 <= slot < self.config.capacity:",
        # a rank read of an absent slot raises KeyError in the heap as well
        ("tests/test_core.py::test_update_unoccupied_slot_raises[proportional]",),
    ),
    Mutant(
        "updates refused on a None payload",
        "core.py",
        "        if not 0 <= slot < self._size:\n            raise KeyError(f\"slot {slot} is not occupied\")\n        if not math",
        "        if not (0 <= slot < self._size and self._transitions[slot] is not None):\n"
        "            raise KeyError(f\"slot {slot} is not occupied\")\n        if not math",
        (
            "tests/test_core.py::test_a_none_payload_occupies_its_slot_like_any_other[proportional-store]",
            "tests/test_core.py::test_a_none_payload_occupies_its_slot_like_any_other[proportional-store_many]",
            "tests/test_core.py::test_a_none_payload_occupies_its_slot_like_any_other[rank-store]",
            "tests/test_core.py::test_a_none_payload_occupies_its_slot_like_any_other[rank-store_many]",
            "tests/test_core.py::test_samplers_match_a_naive_model",
        ),
    ),
    Mutant(
        "oracle argmin in cell-index order",
        "agent.py",
        "c = int(self.cells_by_first_slot[sse_after[self.cells_by_first_slot].argmin()])",
        "c = int(sse_after.argmin())",
        (
            "tests/test_agent.py::test_fast_oracle_loop_matches_the_reference_selector",
            "tests/test_agent.py::test_oracle_regression_at_eight_states",
        ),
    ),
    Mutant(
        "oracle error summed over the reversed array",
        "agent.py",
        "sse = float(errors @ errors)",
        "sse = float(errors[::-1] @ errors[::-1])",
        (
            "tests/test_agent.py::test_oracle_regression_at_eight_states",
            "tests/test_golden.py::test_output_matches_the_golden_digests[events]",
        ),
    ),
    Mutant(
        "jobs=2 results paired in reverse",
        "bench.py",
        "results = pool.map(run_training, configs)",
        "results = pool.map(run_training, configs)[::-1]",
        (
            "tests/test_bench.py::test_parallel_execution_matches_serial",
            "tests/test_bench.py::test_raw_rows_cover_the_grid",
        ),
    ),
    Mutant(
        "greedy ties go to the highest slot",
        "agent.py",
        "        return [self.heap[0][1]], None",
        "        return [max(s for v, s in self.heap if v == self.heap[0][0])], None",
        (
            "tests/test_agent.py::test_greedy_select_takes_the_argmax_with_lowest_slot_ties",
            "tests/test_agent.py::test_greedy_picks_what_argmax_picks_over_a_list_of_magnitudes",
            "tests/test_golden.py::test_output_matches_the_golden_digests[runs]",
        ),
    ),
    Mutant(
        "beta is not annealed",
        "agent.py",
        "self.beta = self.schedule.value(updates)",
        "self.beta = self.schedule.value(0)",
        (
            "tests/test_agent.py::test_stochastic_regression_at_eight_states",
            "tests/test_golden.py::test_output_matches_the_golden_digests[events]",
        ),
    ),
    Mutant(
        "oracle scores overflowing values with numpy's warnings on",
        "agent.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        "with np.errstate():",
        (
            "tests/test_agent.py::test_an_overflowing_run_is_censored_at_its_budget[tabular-oracle]",
            "tests/test_agent.py::test_an_overflowing_run_is_censored_at_its_budget[linear-oracle]",
            "tests/test_bench.py::test_a_divergent_sweep_runs_through_the_cli[1e200]",
        ),
    ),
    Mutant(
        "squared error resynced after every update below 2^20",
        "agent.py",
        "_RESYNC_MASK = (1 << 20) - 1",
        "_RESYNC_MASK = 1 << 20",
        ("tests/test_agent.py::test_the_squared_error_resyncs_every_2_to_the_20_updates",),
    ),
    Mutant(
        "squared error resynced one update late",
        "agent.py",
        "(updates & _RESYNC_MASK) == 0",
        "(updates & _RESYNC_MASK) == 1",
        ("tests/test_agent.py::test_the_squared_error_resyncs_every_2_to_the_20_updates",),
    ),
    Mutant(
        "a non-finite initial_theta is let through",
        "agent.py",
        "if theta.shape != (dimension,) or not np.isfinite(theta).all():",
        "if theta.shape != (dimension,):",
        (
            "tests/test_agent.py::test_an_initial_theta_that_is_not_finite_or_of_the_wrong_shape_is_refused[nan]",
            "tests/test_agent.py::test_an_initial_theta_that_is_not_finite_or_of_the_wrong_shape_is_refused[inf]",
        ),
    ),
    Mutant(
        "the loop writes its values back into the caller's theta",
        "agent.py",
        "    sse, _ = _exact_sums(cq, bq, truth_flat)\n    return",
        "    sse, _ = _exact_sums(cq, bq, truth_flat)\n    theta[:n_cells] = cq\n    return",
        (
            "tests/test_agent.py::test_a_run_only_reads_the_callers_initial_theta[tabular]",
            "tests/test_agent.py::test_a_run_only_reads_the_callers_initial_theta[linear]",
        ),
    ),
    Mutant(
        "the sum tree pickles and copies by default",
        "sumtree.py",
        "    def __reduce__(self):",
        "    def _reduce(self):",
        tuple(
            f"tests/test_sumtree.py::test_a_tree_refuses_pickling_and_copying[{owner}-{clone}]"
            for owner in ("tree", "sampler")
            for clone in ("pickle", "copy", "deepcopy")
        ),
    ),
    Mutant(
        "main returns argparse's raw exit code",
        "cli.py",
        "        return 0 if exc.code == 0 else USAGE_ERROR",
        "        return exc.code",
        ("tests/test_bench.py::test_cli_usage_errors_exit_one",),
    ),
    Mutant(
        "a config file that is not UTF-8 escapes as UnicodeDecodeError",
        "bench.py",
        "    except UnicodeDecodeError as exc:",
        "    except () as exc:",
        ("tests/test_bench.py::test_a_config_file_that_is_not_utf8_is_a_configuration_error",),
    ),
    Mutant(
        "ground truth one discount short",
        "cliffwalk.py",
        "spec.gamma ** (n_states - 1 - states)",
        "spec.gamma ** (n_states - states)",
        (
            "tests/test_cliffwalk.py::test_closed_form_matches_value_iteration[2]",
            "tests/test_cliffwalk.py::test_closed_form_matches_value_iteration[9]",
            "tests/test_cliffwalk.py::test_closed_form_matches_value_iteration[16]",
            "tests/test_cliffwalk.py::test_last_state_right_action_is_exactly_one",
            "tests/test_golden.py::test_output_matches_the_golden_digests[events]",
        ),
    ),
    Mutant(
        "a minibatch's TD errors read the values at the start of the batch",
        "agent.py",
        (
            "        for j, slot in enumerate(slots):\n"
            "            c = cells[slot]\n"
            "            g = discounts[c]\n"
            "            q_sa = cq[c] + bq\n"
            "            if g != 0.0:\n"
            "                ns2 = next2[c]\n"
            "                boot = cq[ns2] + bq if cq[ns2] >= cq[ns2 + 1] else cq[ns2 + 1] + bq\n"
        ),
        (
            "        cq0, bq0 = list(cq), bq\n"
            "        for j, slot in enumerate(slots):\n"
            "            c = cells[slot]\n"
            "            g = discounts[c]\n"
            "            q_sa = cq0[c] + bq0\n"
            "            if g != 0.0:\n"
            "                ns2 = next2[c]\n"
            "                boot = cq0[ns2] + bq0 if cq0[ns2] >= cq0[ns2 + 1] else cq0[ns2 + 1] + bq0\n"
        ),
        (
            "tests/test_agent.py::test_fast_loops_match_linear_q_replays",
            "tests/test_golden.py::test_output_matches_the_golden_digests[events]",
        ),
    ),
    Mutant(
        "a settle with nothing stale reaches the walk",
        "sumtree.py",
        "        if not stale:\n            return\n",
        "",
        (
            "tests/test_sumtree.py::test_a_settle_with_nothing_stale_changes_nothing[1]",
            "tests/test_sumtree.py::test_a_settle_with_nothing_stale_changes_nothing[65536]",
        ),
    ),
    Mutant(
        "a sweep starts a worker per job beyond the CPU count",
        "bench.py",
        "jobs = min(config.jobs or cpus, cpus, len(configs) or 1)",
        "jobs = min(config.jobs or cpus, len(configs) or 1)",
        (
            "tests/test_bench.py::test_a_sweep_starts_no_more_workers_than_cpus[2-2]",
            "tests/test_bench.py::test_a_sweep_starts_no_more_workers_than_cpus[4-4]",
        ),
    ),
    Mutant(
        "a bare seed count one above the maximum is let through",
        "bench.py",
        "if count > MAX_SEED_COUNT:",
        "if count > MAX_SEED_COUNT + 1:",
        ("tests/test_bench.py::test_a_bare_seed_count_above_the_maximum_is_refused",),
    ),
    Mutant(
        "the out dir is made only after the sweep",
        "cli.py",
        "        Path(config.out_dir).mkdir(parents=True, exist_ok=True)\n",
        "",
        ("tests/test_bench.py::test_an_out_dir_that_cannot_be_made_fails_before_any_cell_runs",),
    ),
    Mutant(
        "store_many takes one transition past the capacity",
        "core.py",
        "if not 0 < count <= self.config.capacity:",
        "if not 0 < count <= self.config.capacity + 1:",
        tuple(
            f"tests/test_core.py::test_store_many_refuses_a_non_empty_memory_or_a_bad_count_and_changes_nothing[{kind}-{case}]"
            for kind in ("proportional", "rank")
            for case in ("over-capacity", "over-a-non-power-of-two-capacity")
        ),
    ),
    Mutant(
        "store_many fills a non-empty memory",
        "core.py",
        '        if self._size:\n            raise ValueError("store_many fills an empty memory only")',
        '        if False:\n            raise ValueError("store_many fills an empty memory only")',
        tuple(
            f"tests/test_core.py::test_store_many_refuses_a_non_empty_memory_or_a_bad_count_and_changes_nothing[{kind}-{case}]"
            for kind in ("proportional", "rank")
            for case in ("into-one", "into-two")
        ),
    ),
    Mutant(
        "a refused draw escapes the replay loop",
        "agent.py",
        "            slots, weights = selector.next(updates, cq, bq)\n        except ValueError:",
        "            slots, weights = selector.next(updates, cq, bq)\n        except KeyError:",
        (
            "tests/test_agent.py::test_an_accepted_config_runs_to_a_result",
            "tests/test_bench.py::test_a_run_its_sampler_refuses_is_censored_through_the_cli[zero-mass-draw]",
        ),
    ),
    Mutant(
        "a refused priority write escapes the replay loop",
        "agent.py",
        "                    refresh(slot, delta)\n                except ValueError:",
        "                    refresh(slot, delta)\n                except KeyError:",
        (
            "tests/test_agent.py::test_an_accepted_config_runs_to_a_result",
            "tests/test_bench.py::test_a_run_its_sampler_refuses_is_censored_through_the_cli[leaf-past-the-bound]",
        ),
    ),
)


def run_tests(copy: Path, tests) -> tuple[set[str], subprocess.CompletedProcess | None]:
    """Run ``tests`` in ``copy``; the node ids that failed or errored, and the
    finished pytest, or None for one that ran past ``TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
            "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(args, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return set(), None
    failed = {
        line.split()[1]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return failed, done


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant names: {sorted(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_test = sorted({test for m in chosen for test in m.tests})
        failed, done = run_tests(copy, every_test)
        if done is None:
            print(f"TIMED OUT  the clean copy: {every_test}")
            return 1
        if done.returncode != 0:
            print(done.stdout + done.stderr)
            print(f"the clean copy fails {sorted(failed)}")
            return 1
        survivors = []
        for mutant in chosen:
            path = copy / "src" / "prioritized_replay" / mutant.file
            original = path.read_text()
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: the old text occurs {original.count(mutant.old)} times in {mutant.file}")
                return 1
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                failed, done = run_tests(copy, mutant.tests)
            finally:
                path.write_text(original)
            if done is None:
                print(f"TIMED OUT  {mutant.name}: {list(mutant.tests)}")
                survivors.append(mutant.name)
                continue
            passed = [test for test in mutant.tests if test not in failed]
            print(f"{'SURVIVED' if passed else 'killed':8}  {mutant.name}" + (f": {passed} pass" if passed else ""))
            if passed:
                survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
