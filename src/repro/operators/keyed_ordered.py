"""The ``OpKeyedOrdered`` template (Table 1): ``O(K, V) -> O(K, W)``.

A stateful computation per key, order-dependent within each key.  The
programmer overrides:

- :meth:`OpKeyedOrdered.init` — the initial per-key state;
- :meth:`OpKeyedOrdered.on_item` — consume one value for a key, emit
  output pairs, and return the new state;
- :meth:`OpKeyedOrdered.on_marker` — per-key marker handling, returning
  the new state.

**Restriction (enforced):** every emission must preserve the input key;
otherwise the output could not be viewed as per-key ordered (the paper's
explicit restriction in Table 1).  Violations raise
:class:`~repro.errors.TraceTypeError`.

Consistency: same-key items are processed in arrival order (which the
``O`` input type fixes), different keys touch disjoint state and emit
under different (independent) output tags, so equivalent inputs give
equivalent outputs.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List

from repro.errors import TraceTypeError
from repro.operators.base import KV, Event, Marker, Operator


class OpKeyedOrdered(Operator):
    """Per-key ordered stateful transduction ``O(K, V) -> O(K, W)``."""

    input_kind = "O"
    output_kind = "O"

    def init(self) -> Any:
        """The state a key starts with when first seen."""
        raise NotImplementedError

    def on_item(
        self, state: Any, key: Any, value: Any, emit: Callable[[Any, Any], None]
    ) -> Any:
        """Consume one value for ``key``; return the key's new state."""
        raise NotImplementedError

    def on_marker(
        self, state: Any, key: Any, m: Marker, emit: Callable[[Any, Any], None]
    ) -> Any:
        """Per-key marker handling; return the key's new state.

        Default: state unchanged, no output (the common case, e.g.
        ``linearInterpolation`` in Table 2).
        """
        return state

    # ------------------------------------------------------------------

    def initial_state(self) -> Dict[Any, Any]:
        # The per-key user states, keyed by input key.
        return {}

    def copy_state(self, state: Any) -> Any:
        """Independent copy of one key's user state, for checkpointing.

        User states may be arbitrary, so the default deep-copies.
        Subclasses whose state is a known shallow structure (a list of
        scalars, a deque of immutable tuples) should override this with
        the cheap structural copy — it runs once per key per epoch
        snapshot, which makes it the checkpointing hot path.
        """
        return copy.deepcopy(state)

    def snapshot_state(self, state: Dict[Any, Any]) -> Any:
        cp = self.copy_state
        return {key: cp(v) for key, v in state.items()}

    def restore_state(self, snapshot: Any) -> Dict[Any, Any]:
        cp = self.copy_state
        return {key: cp(v) for key, v in snapshot.items()}

    def handle(self, state: Dict[Any, Any], event: Event) -> List[Event]:
        out: List[Event] = []
        if isinstance(event, Marker):
            self._step_marker(state, event, out.append)
            out.append(event)
            return out
        key = event.key
        if key not in state:
            state[key] = self.init()
        state[key] = self.on_item(
            state[key], key, event.value, _guarded_append(out.append, key)
        )
        return out

    def handle_batch(self, state: Dict[Any, Any], events) -> List[Event]:
        """Epoch kernel: group each between-marker run by key once.

        Per-key arrival order is preserved (the ``O`` type's only
        obligation); grouping reorders items *across* keys, which the
        per-key-ordered output type declares invisible.  Each key then
        pays one state probe and one guarded emit per block instead of
        one per item, and :meth:`on_item` folds its run in order — the
        same calls, in the same per-key order, as the per-event path
        makes.
        """
        out: List[Event] = []
        append = out.append
        on_item = self.on_item
        i, n = 0, len(events)
        while i < n:
            event = events[i]
            if type(event) is Marker:
                self._step_marker(state, event, append)
                append(event)
                i += 1
                continue
            j = i
            while j < n and type(events[j]) is not Marker:
                j += 1
            groups: Dict[Any, List[Any]] = {}
            setdefault = groups.setdefault
            for key, value in events[i:j]:
                setdefault(key, []).append(value)
            i = j
            for key, values in groups.items():
                key_state = state[key] if key in state else self.init()
                emit = _guarded_append(append, key)
                for value in values:
                    key_state = on_item(key_state, key, value, emit)
                state[key] = key_state
        return out

    def _step_marker(self, state: Dict[Any, Any], m: Marker, append) -> None:
        """Run :meth:`on_marker` for every seen key, emitting via ``append``.

        The default ``on_marker`` keeps the state and emits nothing, so
        the loop is skipped outright for operators that do not override
        it."""
        if type(self).on_marker is OpKeyedOrdered.on_marker:
            return
        on_marker = self.on_marker
        for key in list(state):
            state[key] = on_marker(state[key], key, m, _guarded_append(append, key))


def _guarded_append(append, key):
    """Key-guarded emit writing straight into an output list: the
    template's key-preservation restriction, enforced on every emission
    of both the per-event and the batch path."""

    def emit(k, v, _key=key, _append=append, _new=tuple.__new__):
        if k is not _key and k != _key:
            raise TraceTypeError(
                "OpKeyedOrdered must preserve the input key: "
                f"got emit({k!r}, ...) while processing key {_key!r}"
            )
        _append(_new(KV, (k, v)))

    return emit
