"""Outside-in span tracing for the per-layer run.

The tracer never edits the program: it replaces public methods on the
objects (or classes, or modules) the benchmark built with wrappers that
record one span per call — ``(name, start_ns, end_ns, parent)`` — in a
list kept in memory.  :meth:`Tracer.restore` undoes every replacement;
:func:`write_spans` writes the list out when the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of a well-nested span tree add up exactly to
the duration of its roots.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span: (name, start ns, end ns, parent index or -1).
Span = Tuple[str, int, int, int]

_MISSING = object()


class Tracer:
    """Records nested spans and named counters."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []

    def traced(self, fn: Callable, name: str,
               count: Optional[Callable[[Counter, tuple, Any], None]] = None) -> Callable:
        """``fn`` wrapped to record a ``name`` span per call.

        ``count(counts, args, result)`` runs after the call, outside the
        span, to update the tracer's counters.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             count: Optional[Callable[[Counter, tuple, Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` may be an instance (the bound method is wrapped and
        stored on the instance), a class (the function is wrapped, so the
        wrapper receives ``self``) or a module (a module function).
        """
        self.replace(owner, attr, self.traced(getattr(owner, attr), name, count))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def take(self) -> List[Span]:
        """The spans recorded so far; the tracer starts a fresh list.

        Only call between root spans (nothing open)."""
        taken = list(self.spans)
        del self.spans[:]
        return taken

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of self time per span name (duration minus children)."""
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Dict[str, float] = {}
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start - children[index]) / 1e9
    return totals


def span_counts(spans: Sequence[Span]) -> Counter:
    """Number of spans per name."""
    return Counter(name for name, _, _, _ in spans)


def write_spans(path, spans: Sequence[Span], meta: Dict[str, Any]) -> None:
    """Write the spans as gzipped JSON: a name table plus
    ``[name index, start ns, end ns, parent]`` rows."""
    names: Dict[str, int] = {}
    rows = []
    for name, start, end, parent in spans:
        rows.append([names.setdefault(name, len(names)), start, end, parent])
    with gzip.open(path, "wt", encoding="utf-8") as out:
        json.dump({"meta": meta, "names": list(names), "spans": rows}, out)
