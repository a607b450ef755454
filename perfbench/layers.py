"""Which public callables of ``prioritized_replay`` the traced run wraps, and
the per-layer metrics derived from the recorded spans.

Layers are the package's modules. ``cli`` only parses flags and is covered
through ``bench``. Every metric is reported on every workload; a layer a
workload never calls reports 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from prioritized_replay import agent, bench, cliffwalk, core, rank, sumtree, weighting

from spans import Tracer, span_table

LAYERS = ("cliffwalk", "core", "sumtree", "rank", "weighting", "agent", "bench", "perfbench")

CHECKS = ("sumtree_distribution", "rank_distribution", "tree_conservation", "partition_masses", "is_unbiasedness")

# (metric prefix, unit of its time, owner, attribute); the prefix is also the span name
TARGETS = (
    ("cliffwalk.fill_memory", "ms", agent, "fill_memory"),
    ("cliffwalk.fill_memory", "ms", cliffwalk, "fill_memory"),
    ("cliffwalk.ground_truth_q", "ms", agent, "ground_truth_q"),
    ("cliffwalk.ground_truth_q", "ms", cliffwalk, "ground_truth_q"),
    ("core.store", "us", core.PrioritizedMemory, "store"),
    ("core.update_priority", "us", core.PrioritizedMemory, "update_priority"),
    ("sumtree.set_leaf", "us", sumtree.SumTree, "set_leaf"),
    ("sumtree.find_many", "us", sumtree.SumTree, "find_many"),
    ("sumtree.rebuild", "us", sumtree.SumTree, "rebuild"),
    ("sumtree.sample", "us", sumtree.ProportionalSampler, "sample"),
    ("sumtree.sample_many", "us", sumtree.ProportionalSampler, "sample_many"),
    ("rank.heap_update", "us", rank.RankStore, "update"),
    ("rank.heap_insert", "us", rank.RankStore, "insert"),
    ("rank.sort", "ms", rank.RankStore, "sort"),
    ("rank.sample", "us", rank.RankSampler, "sample"),
    ("rank.sample_many", "us", rank.RankSampler, "sample_many"),
    ("rank.partition_for", "us", rank.RankSampler, "partition_for"),
    ("rank.build_partition", "us", rank, "build_partition"),
    ("weighting.is_weights", "us", weighting, "is_weights"),
    ("weighting.is_weights", "us", agent, "is_weights"),
    ("weighting.anneal", "us", weighting.AnnealSchedule, "value"),
    ("agent.run_training", "ms", agent, "run_training"),
    ("agent.run_training", "ms", bench, "run_training"),
    ("bench.run_sweep", "ms", bench, "run_sweep"),
    ("bench.write_results", "ms", bench, "write_results"),
    ("bench.validate_samplers", "ms", bench, "validate_samplers"),
    *((f"bench.check.{c}", "ms", bench, f"check_{c}") for c in CHECKS),
)

SCALE = {"us": 1e-3, "ms": 1e-6}


@dataclass
class Instrumented:
    """What the counters read off public state need: the sum trees and rank
    heaps created while the layers were wrapped, and the partition-cache
    misses before."""

    trees: list = field(default_factory=list)
    heaps: list = field(default_factory=list)
    partition_misses: int = 0


def _registering(init, made: list):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    return __init__


def instrument(tracer: Tracer) -> Instrumented:
    """Wrap every target until ``tracer.restore()``."""
    made = Instrumented()
    tracer.replace(sumtree.SumTree, "__init__", _registering(sumtree.SumTree.__init__, made.trees))
    tracer.replace(rank.RankStore, "__init__", _registering(rank.RankStore.__init__, made.heaps))
    hooks = {
        "sumtree.find_many": dict(before=lambda args: tracer.add("sumtree.find_many.queries", np.size(args[1]))),
        "agent.run_training": dict(after=lambda result: (
            tracer.add("agent.updates", result.updates),
            tracer.add("agent.run_training.wall_ms", result.wall_ms),
        )),
    }
    for name, _, owner, attr in TARGETS:
        tracer.patch(owner, attr, name, **hooks.get(name, {}))
    made.partition_misses = _partition_misses(tracer)
    return made


def _partition_misses(tracer: Tracer) -> int:
    cache = tracer.originals.get("rank.build_partition")
    return cache.cache_info().misses if hasattr(cache, "cache_info") else 0


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name, unit, _, _ in TARGETS:
        if name.startswith("bench.check."):
            units["bench.check.ms." + name.rsplit(".", 1)[1]] = "ms"
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.{unit}"] = unit
    units.update({
        "sumtree.find_many.queries": "count",
        "sumtree.node_touches": "count",
        "rank.steps_since_sort": "count",
        "rank.partition_builds": "count",
        "rank.partition_reuse_ratio": "fraction",
        "agent.loop_self_ms": "ms",
        "agent.updates": "count",
        "bench.run_sweep.overhead_ms": "ms",
    })
    units.update({f"self_ms.{layer}": "ms" for layer in LAYERS})
    units.update({
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def layer_metrics(tracer: Tracer, made: Instrumented, spans: dict, sweep_jobs: int) -> dict[str, float]:
    """Per-layer values from the spans and the counters read off public state."""
    table = span_table(spans, len(tracer.names))
    by_name = {n: i for i, n in enumerate(tracer.names)}

    def col(key, name):
        i = by_name.get(name)
        return float(table[key][i]) if i is not None else 0.0

    values: dict[str, float] = {}
    for name, unit, _, _ in TARGETS:
        inclusive = col("inclusive_ns", name) * SCALE[unit]
        if name.startswith("bench.check."):
            values["bench.check.ms." + name.rsplit(".", 1)[1]] = inclusive
            continue
        values[f"{name}.calls"] = col("calls", name)
        values[f"{name}.{unit}"] = inclusive
    values["sumtree.find_many.queries"] = tracer.counts.get("sumtree.find_many.queries", 0)
    values["sumtree.node_touches"] = float(sum(t.node_touches for t in made.trees))
    values["rank.steps_since_sort"] = float(sum(h.steps_since_sort for h in made.heaps))
    values["rank.partition_builds"] = float(_partition_misses(tracer) - made.partition_misses)
    asked = values["rank.partition_for.calls"]
    built = values["rank.build_partition.calls"]
    values["rank.partition_reuse_ratio"] = (asked - built) / asked if asked else 0.0
    values["agent.loop_self_ms"] = col("self_ns", "agent.run_training") * 1e-6
    values["agent.updates"] = tracer.counts.get("agent.updates", 0)
    values["bench.run_sweep.overhead_ms"] = (
        values["bench.run_sweep.ms"] - tracer.counts.get("agent.run_training.wall_ms", 0) / sweep_jobs
        if values["bench.run_sweep.calls"] else 0.0
    )
    for layer in LAYERS:
        values[f"self_ms.{layer}"] = sum(
            float(table["self_ns"][i]) for n, i in by_name.items() if n.split(".", 1)[0] == layer
        ) * 1e-6
    values["trace.spans"] = float(spans["start"].size)
    return values
