"""Batch/serial parity: the epoch kernels and the batched engines must
denote exactly the serial semantics.

The batch kernels (``Operator.handle_batch``) and the batched backends
built on them (``compile_inprocess(batched=True)``, ``Simulator`` with
:class:`~repro.storm.batching.BatchingOptions`) are only allowed to
reorder what the data-trace types declare invisible — so on every
workload their *canonical* output traces must coincide with the serial
paths'.  Three layers are checked here:

- **kernels** — random streams through each Table 1 template, fed
  per-event vs. in randomly chunked batches;
- **combiners** — a pre-folded :class:`CombinedAgg` per key per block
  must be indistinguishable from the raw items, and
  :func:`plan_combiners` must license exactly the edges where that is
  provable;
- **engines** — the Section 2 motivation pipeline compiled and run on
  the simulated cluster, serial vs. micro-batched + combined, across
  seeds: every run must reproduce the sequential denotation
  (seed-sweep invariance of the batched engine); and serial execution
  must be exactly the batched engine with batches of one.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.iot.pipeline import iot_typed_dag
from repro.apps.iot.sensors import SensorWorkload
from repro.compiler import compile_dag
from repro.compiler.compile import CompilerOptions, source_from_events
from repro.dag import TransductionDAG, evaluate_dag
from repro.operators.base import KV, Marker
from repro.operators.keyed_ordered import OpKeyedOrdered
from repro.operators.keyed_unordered import CombinedAgg, OpKeyedUnordered
from repro.operators.library import (
    MaxOfAvgPerKey,
    TumblingAggregate,
    filter_items,
    map_values,
    rekey,
    sliding_count,
    tumbling_count,
)
from repro.operators.merge import Merge
from repro.operators.sort import SortOp
from repro.storm.batching import BatchingOptions, plan_combiners
from repro.storm.cluster import Cluster
from repro.storm.local import events_to_trace
from repro.storm.simulator import Simulator
from repro.traces.trace_type import unordered_type

U = unordered_type()


def random_stream(seed: int, n_blocks: int = 4, block_size: int = 12):
    rng = random.Random(seed)
    stream = []
    for block in range(1, n_blocks + 1):
        for _ in range(rng.randrange(block_size + 1)):
            stream.append(KV(rng.choice("abcd"), rng.randrange(10)))
        stream.append(Marker(block))
    return stream


def random_chunks(stream, seed: int):
    """Split a stream at random points (batch boundaries need not align
    with markers — the kernels must cope with partial blocks)."""
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(len(stream) + 1), min(4, len(stream))))
    chunks, prev = [], 0
    for cut in cuts + [len(stream)]:
        if cut > prev:
            chunks.append(stream[prev:cut])
            prev = cut
    return chunks


def run_serial(op, stream):
    state = op.initial_state()
    out = []
    for event in stream:
        out.extend(op.handle(state, event))
    return out


def run_batched(op, stream, chunk_seed: int):
    state = op.initial_state()
    out = []
    for chunk in random_chunks(stream, chunk_seed):
        out.extend(op.handle_batch(state, chunk))
    return out


class CumulativeSum(OpKeyedOrdered):
    def init(self):
        return 0

    def on_item(self, state, key, value, emit):
        total = state + value
        emit(key, total)
        return total


class CountWithEcho(TumblingAggregate):
    """A keyed-unordered op with an *active* ``on_item`` hook, to cover
    the kernel's per-item path (default-hook ops skip it)."""

    def on_item(self, last_state, key, value, emit):
        emit(key, ("echo", value))


def count_with_echo():
    return CountWithEcho(
        inject=lambda k, v: 1,
        identity_elem=0,
        combine_fn=lambda x, y: x + y,
        finish=lambda key, total, ts: total,
        name="echo-count",
    )


KERNEL_CASES = [
    ("map", lambda: map_values(lambda v: v + 1, name="inc"), False),
    ("filter", lambda: filter_items(lambda k, v: v % 3 != 0, name="f3"), False),
    ("rekey", lambda: rekey(lambda k, v: v % 2, name="rk"), False),
    ("tumbling-count", tumbling_count, False),
    ("sliding-count", lambda: sliding_count(2), False),
    ("max-of-avg", MaxOfAvgPerKey, False),
    ("count-with-echo", count_with_echo, False),
    ("sort", lambda: SortOp(sort_key=lambda v: v, name="srt"), True),
    ("cumsum", CumulativeSum, True),
]


class TestKernelParity:
    @pytest.mark.parametrize(
        "name, factory, ordered", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES]
    )
    def test_handle_batch_matches_handle(self, name, factory, ordered):
        for seed in range(6):
            stream = random_stream(seed)
            serial = run_serial(factory(), stream)
            batched = run_batched(factory(), stream, chunk_seed=seed * 31 + 7)
            assert events_to_trace(batched, ordered) == events_to_trace(
                serial, ordered
            ), f"{name}: batch kernel diverged on seed {seed}"

    def test_stateless_batch_is_bit_identical(self):
        # Stateless kernels do not even reorder: same event list.
        stream = random_stream(3)
        op = map_values(lambda v: v * 2, name="dbl")
        assert run_batched(op, stream, 5) == run_serial(op, stream)

    def test_whole_stream_single_batch(self):
        for _, factory, ordered in KERNEL_CASES:
            stream = random_stream(11)
            serial = run_serial(factory(), stream)
            op = factory()
            state = op.initial_state()
            whole = op.handle_batch(state, stream)
            assert events_to_trace(whole, ordered) == events_to_trace(
                serial, ordered
            )


class TestMergeKernelParity:
    def test_chunked_channels_match_per_event(self):
        for seed in range(5):
            rng = random.Random(seed)
            n_channels = rng.choice([2, 3])
            # One interleaved delivery schedule of (channel, event).
            deliveries = []
            for channel in range(n_channels):
                stream = random_stream(seed * 10 + channel, n_blocks=3)
                deliveries.append([(channel, e) for e in stream])
            schedule = []
            while any(deliveries):
                channel = rng.choice(
                    [c for c in range(n_channels) if deliveries[c]]
                )
                take = rng.randrange(1, 4)
                schedule.extend(deliveries[channel][:take])
                del deliveries[channel][:take]

            serial_merge = Merge(n_channels)
            state = serial_merge.initial_state()
            serial = []
            for channel, event in schedule:
                serial.extend(serial_merge.handle(state, channel, event))

            batched_merge = Merge(n_channels)
            state = batched_merge.initial_state()
            batched = []
            i = 0
            while i < len(schedule):
                channel = schedule[i][0]
                j = i
                while j < len(schedule) and schedule[j][0] == channel:
                    j += 1
                batched.extend(
                    batched_merge.handle_batch(
                        state, channel, [e for _, e in schedule[i:j]]
                    )
                )
                i = j
            # Marker alignment is deterministic, so the merged streams
            # are identical event-for-event, not just canonically.
            assert batched == serial


class TestCombinedAgg:
    def test_prefolded_block_equals_raw_items(self):
        for seed in range(5):
            stream = random_stream(seed)
            op = tumbling_count()
            serial = run_serial(op, stream)

            combined_op = tumbling_count()
            state = combined_op.initial_state()
            combined = []
            pending = {}
            for event in stream:
                if isinstance(event, Marker):
                    for key, agg in pending.items():
                        combined.extend(
                            combined_op.handle(state, KV(key, CombinedAgg(agg)))
                        )
                    pending.clear()
                    combined.extend(combined_op.handle(state, event))
                else:
                    folded = combined_op.fold_in(event.key, event.value)
                    if event.key in pending:
                        pending[event.key] = combined_op.combine(
                            pending[event.key], folded
                        )
                    else:
                        pending[event.key] = folded
            assert events_to_trace(combined, False) == events_to_trace(
                serial, False
            )


def combiner_pipeline(consumer_factory):
    dag = TransductionDAG("combiner-licensing")
    src = dag.add_source("src", output_type=U)
    v = dag.add_op(
        map_values(lambda v: v + 1, name="inc"), parallelism=2,
        upstream=[src], edge_types=[None],
    )
    v = dag.add_op(
        consumer_factory(), parallelism=2, upstream=[v], edge_types=[None]
    )
    dag.add_sink("out", upstream=v)
    return dag


class TestCombinerLicensing:
    def compile(self, dag, stream):
        return compile_dag(
            dag,
            {"src": source_from_events(stream, parallelism=2)},
            CompilerOptions(fusion=False),
        )

    def test_default_hook_keyed_unordered_edge_is_planned(self):
        stream = random_stream(1)
        compiled = self.compile(combiner_pipeline(tumbling_count), stream)
        plan = plan_combiners(compiled)
        assert len(plan) == 1, plan
        (edge,) = plan
        assert compiled.edge_kinds[edge] == "U"
        assert isinstance(plan[edge], OpKeyedUnordered)

    def test_active_on_item_disqualifies_edge(self):
        stream = random_stream(1)
        compiled = self.compile(combiner_pipeline(count_with_echo), stream)
        assert plan_combiners(compiled) == {}

    def test_non_keyed_unordered_head_disqualifies_edge(self):
        stream = random_stream(1)
        compiled = self.compile(
            combiner_pipeline(lambda: SortOp(sort_key=lambda v: v, name="srt")),
            stream,
        )
        assert plan_combiners(compiled) == {}


class TestSimulatorBatchingParity:
    """The Section 2 motivation pipeline, serial vs. batched, on the
    simulated cluster — canonical sink traces must be identical to the
    sequential denotation for every seed and every batching mode."""

    SEEDS = (0, 1, 2, 3)

    @pytest.fixture(scope="class")
    def workload(self):
        return SensorWorkload(n_sensors=3, duration=30, marker_period=10)

    @pytest.fixture(scope="class")
    def baseline(self, workload):
        dag = iot_typed_dag(parallelism=2)
        return evaluate_dag(
            dag, {"SENSOR": workload.events()}
        ).sink_trace("SINK", False)

    def simulate(self, workload, seed, batching_mode):
        dag = iot_typed_dag(parallelism=2)
        compiled = compile_dag(
            dag,
            {"SENSOR": source_from_events(workload.events(), parallelism=2)},
        )
        if batching_mode == "off":
            batching = None
        elif batching_mode == "micro":
            batching = BatchingOptions.for_compiled(compiled, combine=False)
        elif batching_mode == "combine":
            batching = BatchingOptions.for_compiled(compiled, max_batch=1)
        else:
            batching = BatchingOptions.for_compiled(compiled)
        simulator = Simulator(
            compiled.topology,
            Cluster(3, cores_per_machine=2),
            seed=seed,
            batching=batching,
        )
        report = simulator.run()
        trace = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
        return trace, report

    @pytest.mark.parametrize("mode", ["off", "micro", "combine", "full"])
    def test_seed_sweep_matches_denotation(self, workload, baseline, mode):
        traces = []
        for seed in self.SEEDS:
            trace, _ = self.simulate(workload, seed, mode)
            assert trace == baseline, (mode, seed)
            traces.append(trace)
        # Seed-sweep invariance: every interleaving produced the same
        # canonical sink trace.
        assert all(trace == traces[0] for trace in traces)

    def test_batched_run_does_not_drop_work(self, workload):
        _, serial = self.simulate(workload, 1, "off")
        _, batched = self.simulate(workload, 1, "full")
        # Same inputs injected; the batched schedule coalesces
        # executions but every spout tuple is accounted for.
        assert batched.input_data_tuples == serial.input_data_tuples
        assert batched.input_all_tuples == serial.input_all_tuples
        assert batched.makespan > 0

    def test_max_batch_one_still_correct(self, workload, baseline):
        dag = iot_typed_dag(parallelism=2)
        compiled = compile_dag(
            dag,
            {"SENSOR": source_from_events(workload.events(), parallelism=2)},
        )
        batching = BatchingOptions.for_compiled(compiled, max_batch=1)
        Simulator(
            compiled.topology, Cluster(2), seed=2, batching=batching
        ).run()
        trace = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
        assert trace == baseline


class TestSerialIsBatchOfOne:
    """The unbatched simulator is the batched engine with batches of one:
    ``batching=None`` and ``max_batch=1`` without combiners must yield
    bit-identical reports — same schedule, not just the same trace."""

    @staticmethod
    def reports(build, seed):
        out = []
        for batching_for in (
            lambda compiled: None,
            lambda compiled: BatchingOptions.for_compiled(
                compiled, max_batch=1, combine=False
            ),
        ):
            compiled = build()
            report = Simulator(
                compiled.topology, Cluster(3, cores_per_machine=2),
                seed=seed, batching=batching_for(compiled),
            ).run()
            out.append((report, compiled.sinks["SINK"].aligned_events))
        return out

    @staticmethod
    def assert_identical(reports):
        (serial, serial_sink), (one, one_sink) = reports
        assert serial.makespan == one.makespan
        assert serial.processed == one.processed
        assert serial.sink_tuples == one.sink_tuples
        assert serial.sink_delivery_times == one.sink_delivery_times
        assert serial == one
        assert serial_sink == one_sink

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iot(self, seed):
        events = SensorWorkload(
            n_sensors=3, duration=30, marker_period=10
        ).events()

        def build():
            return compile_dag(
                iot_typed_dag(parallelism=2),
                {"SENSOR": source_from_events(events, parallelism=2)},
            )

        self.assert_identical(self.reports(build, seed))

    @pytest.fixture(scope="class")
    def fig6_inputs(self):
        from repro.apps.smarthomes import SmartHomesWorkload, train_predictor

        workload = SmartHomesWorkload(
            n_buildings=2, units_per_building=2, plugs_per_unit=2,
            duration=60,
        )
        models = train_predictor(horizon=120, train_seconds=600, past=60)
        return workload, workload.events(), models

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fig6(self, fig6_inputs, seed):
        from repro.apps.smarthomes import smart_homes_dag

        workload, events, models = fig6_inputs

        def build():
            dag = smart_homes_dag(
                workload.make_database(), models, parallelism=3
            )
            return compile_dag(dag, {"hub": source_from_events(events, 2)})

        self.assert_identical(self.reports(build, seed))


class TestSimulatorRunsTwice:
    """``Simulator.run`` builds its per-run state (routing, link floors,
    combiner buffers) afresh, so one instance run twice gives equal
    reports and equal sink traces."""

    @pytest.mark.parametrize("mode", ["serial", "batched"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_iot(self, mode, seed):
        events = SensorWorkload(
            n_sensors=3, duration=30, marker_period=10
        ).events()
        compiled = compile_dag(
            iot_typed_dag(parallelism=2),
            {"SENSOR": source_from_events(events, parallelism=2)},
        )
        simulator = Simulator(
            compiled.topology, Cluster(3, cores_per_machine=2), seed=seed,
            batching=(BatchingOptions.for_compiled(compiled)
                      if mode == "batched" else None),
        )
        sink = compiled.sinks["SINK"]
        first = simulator.run()
        first_sink = list(sink.aligned_events)
        second = simulator.run()
        assert first == second
        assert first_sink == sink.aligned_events
        assert first_sink


class TestBatchingOptionsValidation:
    @pytest.mark.parametrize("max_batch", [0, -3, 2.5, "8", True, None])
    def test_rejects_bad_max_batch(self, max_batch):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingOptions(max_batch=max_batch)

    def test_accepts_positive_int(self):
        assert BatchingOptions(max_batch=1).max_batch == 1
        assert BatchingOptions().max_batch == 512
