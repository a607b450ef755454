"""In-memory span recorder for the traced benchmark run.

A span is one call into a wrapped callable: its name, start and end
(``perf_counter_ns``) and the index of the span that was open when it began
(-1 for a root). Spans are kept in flat typed arrays, so a run that records
millions of them stays a few tens of MB, and are analysed or written out only
after the timed work ends.

Wrapping happens from the benchmark's own files: :meth:`Tracer.patch`
replaces a module or class attribute with a recording wrapper and
:meth:`Tracer.restore` puts every original back. A name that a module
imported into its own namespace has to be patched there too, because the
module looks it up in its own globals.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

__all__ = ["Tracer", "span_table", "nesting_errors"]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """Recording wrapper around ``fn``.

        ``before(args)`` and ``after(result)`` are optional hooks that add to
        :attr:`counts`; they run inside the span, so their cost is charged to
        the tracing overhead rather than hidden.
        """
        nid = self._id(name)
        names, starts, ends, parents, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> bool:
        """Replace ``owner.attr`` with a traced wrapper; False if it does not exist."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return False
        self.originals.setdefault(name, original)
        self.replace(owner, attr, self.wrap(original, name, before, after))
        return True

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def root(self, name: str):
        """Context manager recording a span opened by the benchmark itself."""
        return _Root(self, self._id(name))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }


class _Root:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.index = len(t.start)
        t.name_id.append(self.nid)
        t.parent.append(t._stack[-1])
        t.end.append(0)
        t._stack.append(self.index)
        t.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.index] = time.perf_counter_ns()
        t._stack.pop()
        return False


def span_table(spans: dict[str, np.ndarray], n_names: int) -> dict[str, np.ndarray]:
    """Per-name call count, inclusive ns and self ns (duration minus children)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros(dur.size, dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    ids = spans["name_id"]
    return {
        "calls": np.bincount(ids, minlength=n_names),
        "inclusive_ns": np.bincount(ids, weights=dur, minlength=n_names),
        "self_ns": np.bincount(ids, weights=self_ns, minlength=n_names),
    }


def nesting_errors(spans: dict[str, np.ndarray]) -> list[str]:
    """Every way the spans fail to form properly nested, ordered intervals."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    errors = []
    if np.any(end < start):
        errors.append(f"{int(np.sum(end < start))} spans end before they start")
    if np.any(parent >= np.arange(parent.size)):
        errors.append("a span names a parent recorded after it")
    inner = parent >= 0
    p = parent[inner]
    outside = (start[inner] < start[p]) | (end[inner] > end[p])
    if np.any(outside):
        errors.append(f"{int(outside.sum())} spans lie outside their parent")
    order = np.lexsort((start, parent))
    same_parent = parent[order][1:] == parent[order][:-1]
    overlap = same_parent & (start[order][1:] < end[order][:-1])
    if np.any(overlap):
        errors.append(f"{int(overlap.sum())} sibling spans overlap")
    return errors
