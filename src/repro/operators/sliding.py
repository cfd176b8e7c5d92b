"""The specialized sliding-window aggregation template.

The paper's conclusion proposes extending the Table 1 template set with
a dedicated sliding-window template so programmers stop re-implementing
efficient window algorithms.  :class:`OpSlidingWindow` is that template:

- the programmer supplies the same commutative monoid pieces as
  ``OpKeyedUnordered`` (``inject`` / ``identity`` / ``combine``) plus a
  window length in marker periods and a ``finish`` hook;
- the runtime folds each between-marker block into a sub-aggregate
  (Table 3 style, so between-marker disorder cannot matter) and
  maintains the window of sub-aggregates with an amortized-O(1)
  two-stacks aggregator (:mod:`repro.operators.window_algorithms`)
  instead of refolding the window at every marker.

Consistency (Theorem 4.2 extended): within a block the monoid's
commutativity+associativity make the sub-aggregate order-independent;
across blocks the two-stacks structure is a deterministic function of
the sub-aggregate sequence, which is determined by the trace.  The type
is ``U(K, V) -> U(K, W)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.operators.base import KV, Event, Marker, Operator
from repro.operators.window_algorithms import make_aggregator


class _KeyWindow:
    """Per-key runtime record: current block aggregate + window."""

    __slots__ = ("block_agg", "window")

    def __init__(self, identity: Any, combine, algorithm: str):
        self.block_agg = identity
        self.window = make_aggregator(identity, combine, algorithm)


class _SlidingState:
    __slots__ = ("per_key", "blocks_seen")

    def __init__(self):
        self.per_key: Dict[Any, _KeyWindow] = {}
        self.blocks_seen = 0


class OpSlidingWindow(Operator):
    """Per-key sliding aggregation over the last ``window`` blocks.

    Subclasses override the monoid pieces and ``finish``; or use
    :func:`sliding_window` for the common function-style construction.
    """

    input_kind = "U"
    output_kind = "U"

    #: window length in marker periods (blocks); subclasses set this.
    window: int = 1
    #: "two-stacks" (default) or "recompute" (the ablation baseline).
    algorithm: str = "two-stacks"
    #: emit even when the window aggregate equals the identity.
    emit_empty: bool = False

    def fold_in(self, key: Any, value: Any) -> Any:
        """``in(key, value) -> A``."""
        raise NotImplementedError

    def identity(self) -> Any:
        """The monoid identity."""
        raise NotImplementedError

    def combine(self, x: Any, y: Any) -> Any:
        """Associative and commutative."""
        raise NotImplementedError

    def finish(self, key: Any, agg: Any, timestamp: Any) -> Optional[Any]:
        """Map the window aggregate to the emitted value (None = skip)."""
        return agg

    # ------------------------------------------------------------------

    def initial_state(self) -> _SlidingState:
        if self.window < 1:
            raise ValueError("window must be at least one block")
        return _SlidingState()

    def handle(self, state: _SlidingState, event: Event) -> List[Event]:
        if isinstance(event, Marker):
            out: List[Event] = []
            state.blocks_seen += 1
            for key, record in state.per_key.items():
                record.window.insert(record.block_agg)
                record.block_agg = self.identity()
                if len(record.window) > self.window:
                    record.window.evict()
                agg = record.window.query()
                if agg == self.identity() and not self.emit_empty:
                    continue
                result = self.finish(key, agg, event.timestamp)
                if result is not None:
                    out.append(KV(key, result))
            out.append(event)
            return out
        key = event.key
        record = state.per_key.get(key)
        if record is None:
            record = _KeyWindow(self.identity(), self.combine, self.algorithm)
            # A key first seen after k markers has an all-identity window;
            # identity sub-aggregates need no backfill.
            state.per_key[key] = record
        record.block_agg = self.combine(
            record.block_agg, self.fold_in(key, event.value)
        )
        return []


class SlidingWindowFn(OpSlidingWindow):
    """Function-style construction of :class:`OpSlidingWindow`."""

    def __init__(
        self,
        window: int,
        inject: Callable[[Any, Any], Any],
        identity_elem: Any,
        combine_fn: Callable[[Any, Any], Any],
        finish: Optional[Callable[[Any, Any, Any], Any]] = None,
        algorithm: str = "two-stacks",
        emit_empty: bool = False,
        name: str = "slidingWindow",
    ):
        self.window = window
        self._inject = inject
        self._identity = identity_elem
        self._combine = combine_fn
        self._finish = finish
        self.algorithm = algorithm
        self.emit_empty = emit_empty
        self.name = name

    def fold_in(self, key, value):
        return self._inject(key, value)

    def identity(self):
        return self._identity

    def combine(self, x, y):
        return self._combine(x, y)

    def finish(self, key, agg, timestamp):
        if self._finish is None:
            return agg
        return self._finish(key, agg, timestamp)


def sliding_window(
    window: int,
    inject: Callable[[Any, Any], Any],
    identity_elem: Any,
    combine_fn: Callable[[Any, Any], Any],
    finish: Optional[Callable[[Any, Any, Any], Any]] = None,
    algorithm: str = "two-stacks",
    name: str = "slidingWindow",
) -> SlidingWindowFn:
    """Construct the specialized sliding-window template (see module doc)."""
    return SlidingWindowFn(
        window, inject, identity_elem, combine_fn, finish,
        algorithm=algorithm, name=name,
    )


def sliding_max(window: int, name: str = "slidingMax") -> SlidingWindowFn:
    """Per-key max over the last ``window`` blocks — the showcase for the
    two-stacks algorithm (max has no inverse, yet stays O(1))."""
    return SlidingWindowFn(
        window,
        inject=lambda k, v: v,
        identity_elem=None,
        combine_fn=lambda x, y: y if x is None else (x if y is None else max(x, y)),
        name=name,
    )
