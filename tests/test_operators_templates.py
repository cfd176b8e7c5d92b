"""The Table 1 operator templates: behaviour and the Theorem 4.2
consistency guarantee (checked empirically over random shuffles)."""

import random

import pytest
from hypothesis import given, settings

from repro.errors import TraceTypeError
from repro.operators.base import KV, Marker
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import CommutativeMonoid, OpKeyedUnordered
from repro.operators.stateless import OpStateless, StatelessFn
from repro.traces.blocks import BlockTrace

from conftest import event_streams, shuffle_within_blocks


def run_to_trace(operator, events, ordered=False):
    return BlockTrace.from_events(ordered, operator.run(events))


# ----------------------------------------------------------------------
# OpStateless.
# ----------------------------------------------------------------------


class Project(OpStateless):
    def on_item(self, key, value, emit):
        if value % 2 == 0:
            emit(key, value * 10)


class TestOpStateless:
    def test_per_item_output(self):
        out = Project().run([KV("a", 2), KV("a", 3), Marker(1)])
        assert out == [KV("a", 20), Marker(1)]

    def test_markers_forwarded_exactly_once(self):
        out = Project().run([Marker(1), Marker(2)])
        assert out == [Marker(1), Marker(2)]

    def test_on_marker_may_emit(self):
        class Heartbeat(OpStateless):
            def on_item(self, key, value, emit):
                pass

            def on_marker(self, m, emit):
                emit("hb", m.timestamp)

        out = Heartbeat().run([KV("a", 1), Marker(5)])
        assert out == [KV("hb", 5), Marker(5)]

    def test_stateless_fn_adapter(self):
        double = StatelessFn(lambda k, v: [(k, 2 * v)], name="double")
        assert double.run([KV("x", 3)]) == [KV("x", 6)]
        assert double.name == "double"

    def test_stateless_fn_none_means_drop(self):
        drop = StatelessFn(lambda k, v: None)
        assert drop.run([KV("x", 3)]) == []

    @given(event_streams())
    @settings(max_examples=40)
    def test_consistency_under_block_shuffles(self, events):
        rng = random.Random(13)
        base = run_to_trace(Project(), events)
        for _ in range(5):
            shuffled = shuffle_within_blocks(events, rng)
            assert run_to_trace(Project(), shuffled) == base


# ----------------------------------------------------------------------
# OpKeyedOrdered.
# ----------------------------------------------------------------------


class Delta(OpKeyedOrdered):
    """Emit the difference between consecutive per-key values."""

    def init(self):
        return None

    def on_item(self, state, key, value, emit):
        if state is not None:
            emit(key, value - state)
        return value


class TestOpKeyedOrdered:
    def test_per_key_state_isolation(self):
        out = Delta().run([KV("a", 1), KV("b", 10), KV("a", 4), KV("b", 11)])
        assert out == [KV("a", 3), KV("b", 1)]

    def test_order_sensitivity(self):
        a = Delta().run([KV("a", 1), KV("a", 4)])
        b = Delta().run([KV("a", 4), KV("a", 1)])
        assert a != b  # ordered semantics: input order matters per key

    @pytest.mark.parametrize("site", ["on_item", "on_marker"])
    @pytest.mark.parametrize("entry", ["handle", "handle_batch"])
    def test_key_preservation_enforced(self, entry, site):
        """A re-keying emit raises on the per-event path and in the batch
        kernel, from the item hook and from the marker step alike."""

        class BadRekey(OpKeyedOrdered):
            def init(self):
                return None

            def on_item(self, state, key, value, emit):
                emit("other" if site == "on_item" else key, value)
                return state

            def on_marker(self, state, key, m, emit):
                emit("other", m.timestamp)
                return state

        op = BadRekey()
        events = [KV("a", 1), Marker(1)]
        with pytest.raises(TraceTypeError, match="preserve the input key"):
            if entry == "handle":
                op.run(events)
            else:
                op.handle_batch(op.initial_state(), events)

    def test_on_marker_updates_state(self):
        class ResetAtMarker(OpKeyedOrdered):
            def init(self):
                return 0

            def on_item(self, state, key, value, emit):
                emit(key, state + value)
                return state + value

            def on_marker(self, state, key, m, emit):
                return 0

        out = ResetAtMarker().run([KV("a", 1), KV("a", 2), Marker(1), KV("a", 5)])
        assert out == [KV("a", 1), KV("a", 3), Marker(1), KV("a", 5)]

    def test_cross_key_interleaving_irrelevant(self):
        """Equivalent O inputs (same per-key order) give equivalent outputs."""
        a = [KV("a", 1), KV("b", 5), KV("a", 2), KV("b", 6), Marker(1)]
        b = [KV("b", 5), KV("b", 6), KV("a", 1), KV("a", 2), Marker(1)]
        ta = BlockTrace.from_events(True, Delta().run(a))
        tb = BlockTrace.from_events(True, Delta().run(b))
        assert ta == tb


# ----------------------------------------------------------------------
# OpKeyedUnordered (the Table 3 algorithm).
# ----------------------------------------------------------------------


class BlockSum(OpKeyedUnordered):
    """Running per-key sum over whole history, emitted at each marker."""

    def fold_in(self, key, value):
        return value

    def identity(self):
        return 0

    def combine(self, x, y):
        return x + y

    def init(self):
        return 0

    def update_state(self, old_state, agg):
        return old_state + agg

    def on_marker(self, new_state, key, m, emit):
        emit(key, new_state)


class TestOpKeyedUnordered:
    def test_basic_aggregation(self):
        out = BlockSum().run(
            [KV("a", 1), KV("a", 2), KV("b", 5), Marker(1), KV("a", 4), Marker(2)]
        )
        trace = BlockTrace.from_events(False, out)
        expected = BlockTrace.from_events(
            False, [("a", 3), ("b", 5), ("#", 1), ("a", 7), ("b", 5), ("#", 2)]
        )
        assert trace == expected

    def test_item_processing_does_not_update_state(self):
        """on_item must see only the last marker snapshot (Table 1)."""
        snapshots = []

        class Spy(BlockSum):
            def on_item(self, last_state, key, value, emit):
                snapshots.append(last_state)

        Spy().run([KV("a", 1), KV("a", 2), Marker(1), KV("a", 9)])
        assert snapshots == [0, 0, 3]

    def test_start_state_advances_for_late_keys(self):
        """Table 3's startS: a key first seen after k markers starts from
        initialState advanced by k empty aggregates."""

        class CountBlocks(OpKeyedUnordered):
            def fold_in(self, key, value):
                return 0

            def identity(self):
                return 0

            def combine(self, x, y):
                return x + y

            def init(self):
                return 0

            def update_state(self, old_state, agg):
                return old_state + 1  # counts markers survived

            def on_marker(self, new_state, key, m, emit):
                emit(key, new_state)

        out = CountBlocks().run(
            [KV("a", 1), Marker(1), Marker(2), KV("b", 1), Marker(3)]
        )
        # At marker 3, key "a" has survived 3 markers; key "b" was first
        # seen after 2 markers and must also report 3 (startS advanced).
        last_block = [e for e in out if isinstance(e, KV) and e.key == "b"]
        assert last_block == [KV("b", 3)]
        a_values = [e.value for e in out if isinstance(e, KV) and e.key == "a"]
        assert a_values == [1, 2, 3]

    @given(event_streams())
    @settings(max_examples=40)
    def test_consistency_under_block_shuffles(self, events):
        rng = random.Random(29)
        base = run_to_trace(BlockSum(), events)
        for _ in range(5):
            shuffled = shuffle_within_blocks(events, rng)
            assert run_to_trace(BlockSum(), shuffled) == base

    def test_monoid_spot_check(self):
        monoid = BlockSum().monoid()
        assert monoid.spot_check([0, 1, 5, -3])
        bad = CommutativeMonoid(0, lambda x, y: x - y)
        assert not bad.spot_check([1, 2])

    def test_monoid_fold(self):
        assert BlockSum().monoid().fold([1, 2, 3]) == 6
