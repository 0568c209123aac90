"""Span recorder for the traced benchmark run.

The package imports its helpers with ``from .x import y``, so a function is
looked up through the namespace of every module that imported it, not only
the module that defines it.  :func:`install` therefore replaces the object in
every ``fairalloc.*`` module namespace (and on its class, for methods) where
it is bound, and :func:`uninstall` puts every original back.

A span is one wrapped call: its name, start, end and the span that was open
when it began.  Spans stay in memory until the run ends.  Counters record how
often a cheap helper is called, without a span.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass
class Tracer:
    """Spans and counters of the calls made while ``enabled`` is set."""

    enabled: bool = False
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=lambda: [-1])

    def reset(self) -> None:
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = Counter()
        self._stack = [-1]

    def span(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call records a span and counts one call of
        ``name``; ``size(args, result)`` is added to the counter ``name.size``."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.starts.append(_clock())
            self.ends.append(math.nan)
            self._stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = _clock()
                self._stack.pop()
            self.counts[name] += 1
            if size is not None:
                self.counts[name + ".size"] += size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable, size: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call adds one to the counter ``name``, and
        ``size(args)`` to ``name.size``, without recording a span."""

        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
                if size is not None:
                    self.counts[name + ".size"] += size(args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


# ---------------------------------------------------------------------------
# installing wrappers at every binding


def install(targets: list[tuple[object, str, Callable]]) -> list[tuple[object, str, object]]:
    """Replace each ``(owner, attr)`` original everywhere it is bound.

    ``owner`` is the defining module or class and ``make(original)`` builds
    the wrapper.  Module-level names are replaced in every loaded
    ``fairalloc.*`` submodule that holds the same object; class attributes
    are replaced on the class.  Returns the undo list for :func:`uninstall`.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("fairalloc.") and m is not None]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__[attr]
            wrapper = make(original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            bound = [m for m in modules if m.__dict__.get(attr) is original]
            if owner not in bound:
                raise RuntimeError(f"{owner.__name__}.{attr} is not bound in its own module")
            for module in bound:
                undo.append((module, attr, original))
                setattr(module, attr, wrapper)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Spans:
    """Queries over one operation's spans ``(name, start, end, parent)``."""

    def __init__(self, spans: list[tuple[str, float, float, int]]):
        self.spans = spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, (name, _, _, parent) in enumerate(spans):
            self.by_name[name].append(i)
            self.children[parent].append(i)

    def __len__(self) -> int:
        return len(self.spans)

    def _named(self, names: set[str]) -> list[int]:
        return [i for name in names for i in self.by_name.get(name, ())]

    def _inside(self, i: int, names: set[str]) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, names: set[str], subtract: set[str] | None = None) -> float:
        """Summed duration of the spans named in ``names``, each minus the
        part of its interval that its direct children cover.

        With ``subtract`` given, only children with those names are removed.
        """
        total = 0.0
        for i in self._named(names):
            _, start, end, _ = self.spans[i]
            inner = [
                (self.spans[c][1], self.spans[c][2])
                for c in self.children.get(i, ())
                if subtract is None or self.spans[c][0] in subtract
            ]
            total += (end - start) - _covered(inner, start, end)
        return total

    def total_time(self, names: set[str]) -> float:
        """Summed duration of the outermost spans named in ``names``."""
        return sum(
            self.spans[i][2] - self.spans[i][1] for i in self._named(names) if not self._inside(i, names)
        )

    def count_under(self, names: set[str], ancestors: set[str]) -> int:
        """Number of spans named in ``names`` that run inside a span named in ``ancestors``."""
        return sum(1 for i in self._named(names) if self._inside(i, ancestors))
