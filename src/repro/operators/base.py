"""Runtime event and operator plumbing shared by all templates.

Runtime streams carry two kinds of *events*:

- :class:`KV` — a key-value pair;
- :class:`Marker` — a synchronization marker with its timestamp.

An :class:`Operator` is a *factory of stateful instances*: the object
itself holds only configuration (so one operator can be instantiated many
times for data parallelism); all mutable state lives in the value returned
by :meth:`Operator.initial_state` and is threaded through
:meth:`Operator.handle`.  ``handle`` returns the list of output events for
one input event, forwarding markers automatically — in the paper's
templates the programmer never emits markers; the runtime propagates them
(Table 3's ``emit(m)``).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, NamedTuple, Sequence, Union


class KV(NamedTuple):
    """A key-value event.

    A ``NamedTuple`` rather than a (frozen) dataclass: events are
    created once per emission in every stage of every engine, and tuple
    construction is several times cheaper than a frozen dataclass's
    ``object.__setattr__`` init — measurably so on the batched hot
    paths.  Still immutable and hashable, same field names."""

    key: Any
    value: Any

    def __repr__(self):
        return f"KV({self.key!r}, {self.value!r})"


class Marker(NamedTuple):
    """A synchronization-marker event with its timestamp."""

    timestamp: Any

    def __repr__(self):
        return f"Marker({self.timestamp!r})"


Event = Union[KV, Marker]


def is_marker_event(event: Event) -> bool:
    """Whether a runtime event is a synchronization marker."""
    return isinstance(event, Marker)


def appender(out: List[Event]) -> Callable[[Any, Any], None]:
    """An ``emit(key, value)`` that appends a ``KV`` straight to ``out``.

    The one output path of the templates: both the per-event reference
    ``handle`` and the batch kernel hand user hooks an ``emit`` built
    here (or its key-guarded variant) over their own output list."""

    def emit(key, value, _append=out.append, _new=tuple.__new__):
        _append(_new(KV, (key, value)))

    return emit


class Operator:
    """Base class for single-input single-output operators.

    Subclasses (the Table 1 templates) implement :meth:`initial_state`
    and :meth:`handle`.  ``handle`` must be a pure function of
    ``(configuration, state, event)`` up to mutation of ``state`` — no
    hidden instance-level mutable state — so that parallel instances are
    independent.
    """

    #: Optional data-trace types for DAG type checking.
    input_type = None
    output_type = None

    #: Stream kinds for the DAG type checker: "U" (unordered between
    #: markers), "O" (per-key ordered between markers), or ``None`` for
    #: kind-polymorphic operators (identity).
    input_kind = None
    output_kind = None

    #: Human-readable name used in topologies and renderings.
    name: str = ""

    def initial_state(self) -> Any:
        """Create the state for a fresh operator instance."""
        return None

    def handle(self, state: Any, event: Event) -> List[Event]:
        """Consume one event; return output events (markers included)."""
        raise NotImplementedError

    def handle_batch(self, state: Any, events: Sequence[Event]) -> List[Event]:
        """Consume a block of events at once; return all output events.

        The batched entry point of the epoch-batched engine.  The default
        is the serial loop, so every operator supports batching; the
        template subclasses override it with kernels that amortize
        per-event dispatch over whole epochs.  Any override must denote
        the same trace transduction as the per-event path: for a ``U``
        input the batch may be folded in any order (the type says
        between-marker items are independent), for an ``O`` input per-key
        order must be preserved — so canonical output traces are always
        equal to the serial path's, which is what licenses the engine to
        pick either.
        """
        handle = self.handle
        out: List[Event] = []
        for event in events:
            out.extend(handle(state, event))
        return out

    def snapshot_state(self, state: Any) -> Any:
        """Capture ``state`` for an epoch-aligned checkpoint.

        The snapshot must be *independent* of the live state: mutating
        either afterwards must not affect the other.  The default deep
        copy is always correct; the template subclasses override it with
        cheaper structure-aware copies.
        """
        return copy.deepcopy(state)

    def restore_state(self, snapshot: Any) -> Any:
        """Rebuild a live state from a :meth:`snapshot_state` result.

        The snapshot itself must survive intact (it may be restored
        again after a second failure), so the default deep-copies on the
        way out too.
        """
        return copy.deepcopy(snapshot)

    def run(self, events) -> List[Event]:
        """Evaluate sequentially over an event iterable (testing aid)."""
        state = self.initial_state()
        out: List[Event] = []
        for event in events:
            out.extend(self.handle(state, event))
        return out

    def label(self) -> str:
        return self.name or type(self).__name__

    def __repr__(self):
        return f"<{self.label()}>"
