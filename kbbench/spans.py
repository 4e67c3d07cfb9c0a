"""Span recorder for the traced benchmark run.

A span is one call into a wrapped function: its name, start, end and parent
span.  Spans are held in flat arrays while the run lasts and written out when
it ends.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested on one thread, so the children
never overlap and their durations add.

Wrapping is done from outside the program: `Patches` rebinds names in module
and class namespaces and puts the originals back on `undo`.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict


class Recorder:
    """Spans, counters and distinct-input sets for one traced run.

    Wrappers record only while `active` is true, so the benchmark can call the
    same functions outside its timed regions without tracing them.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()  # times are kept relative to it, to keep their rounding small
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock() - self.origin)
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock() - self.origin
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def distinct(self, name: str, key) -> None:
        """Count one call under `name` and remember its input key."""
        self.counts[name] += 1
        self.seen[name].add(key)

    def distinct_ratio(self, name: str) -> float:
        calls = self.counts[name]
        return len(self.seen[name]) / calls if calls else 0.0

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path: str) -> None:
        """Tab-separated: a `#name` line per span name, giving name ids in
        order, then one line per span: name id, start and end in seconds since
        the recorder was made, and the index of the parent span or -1."""
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(f"#name\t{name}\n" for name in self.names)
            out.writelines(f"{k}\t{s:.9f}\t{e:.9f}\t{p}\n" for k, s, e, p in
                           zip(self.span_name, self.start, self.end, self.parent))


def spanned(rec: Recorder, name: str, fn, after=None):
    """`fn` wrapped in a span named `name`; `after(args, kwargs, result)` runs
    once the span has closed, for counters that look at inputs or results."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def counted(rec: Recorder, fn, before):
    """`fn` with `before(args, kwargs)` run first on every active call; no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.active:
            before(args, kwargs)
        return fn(*args, **kwargs)

    return wrapper


class Patches:
    """Rebound names, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, modules, original, replacement) -> int:
        """Point every module-level name bound to `original` at `replacement`;
        returns how many names were rebound."""
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)
                    hits += 1
        return hits

    def set_attr(self, owner, attr: str, replacement) -> None:
        """Replace an attribute defined directly on a class."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
