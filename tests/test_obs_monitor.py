"""Online invariant monitors: edge-level conformance checks, progress
tracking, fault injection through the simulator, and — as for the rest
of the obs layer — parity: a monitored run must be bit-identical to a
plain run.
"""

import math

import pytest

from repro.apps.iot import SensorWorkload, iot_typed_dag
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.obs import MonitorConfig, MonitorHub, ObsContext
from repro.obs.export import prometheus_text
from repro.obs.monitor import (
    DUPLICATE_MARKER,
    EPOCH_MISMATCH,
    OUT_OF_EPOCH_MARKER,
    PER_KEY_ORDER,
    POST_MARKER_STRAGGLER,
    default_order_token,
)
from repro.obs.schema import validate_records
from repro.operators.base import KV, Marker
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster
from repro.storm.faults import CrashFault, EdgeFaults, FaultPlan
from repro.storm.local import LocalRunner, events_to_trace
from repro.storm.recovery import RecoveryOptions
from repro.storm.simulator import Simulator
from repro.storm.topology import CaptureBolt, IteratorSpout, TopologyBuilder


def _compiled_iot():
    events = SensorWorkload().events()
    dag = iot_typed_dag(parallelism=2)
    return compile_dag(dag, {"SENSOR": source_from_events(events, 2)})


def _value_order(kv):
    return kv.value


# ----------------------------------------------------------------------
# EdgeMonitor unit behaviour (hand-fed, no simulator).
# ----------------------------------------------------------------------


class TestDefaultOrderToken:
    def test_trailing_numeric_of_tuple(self):
        assert default_order_token((3.5, 17)) == 17
        assert default_order_token([1, 2, 9.5]) == 9.5

    def test_non_idiom_shapes_yield_none(self):
        assert default_order_token(7) is None  # bare number: ambiguous
        assert default_order_token("abc") is None
        assert default_order_token(()) is None
        assert default_order_token((1, "x")) is None
        assert default_order_token((1, True)) is None  # bool is not a ts


class TestEdgeMonitor:
    def _hub(self, kind="O", **config):
        config.setdefault("order_key", _value_order)
        hub = MonitorHub(MonitorConfig(**config))
        monitor = hub.attach_edge("up", "down", kind=kind)
        return hub, monitor

    def test_one_violation_per_out_of_order_item(self):
        hub, monitor = self._hub()
        # 15 regresses below 20, and 25 below 30: exactly those two items
        # are bad; 40 recovers without a violation.
        for token in [10, 20, 15, 30, 25, 40]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        assert hub.violation_counts == {PER_KEY_ORDER: 2}
        bad = [v.item for v in hub.violations]
        assert bad == [repr(KV("k", 15)), repr(KV("k", 25))]
        assert all(v.edge == "up->down" for v in hub.violations)

    def test_keys_are_ordered_independently(self):
        hub, monitor = self._hub()
        for event in [KV("a", 1), KV("b", 9), KV("a", 2), KV("b", 10)]:
            monitor.observe(0, 0, event, 0.0)
        assert hub.violation_count() == 0

    def test_marker_resets_per_key_order(self):
        hub, monitor = self._hub()
        monitor.observe(0, 0, KV("k", 9), 0.0)
        monitor.observe(0, 0, Marker(1), 0.0)
        monitor.observe(0, 0, KV("k", 1), 0.0)  # new block: 1 after 9 is fine
        assert hub.violation_count() == 0

    def test_order_check_requires_explicit_order_key(self):
        # Arrival order IS the trace order unless the stream declares one.
        hub = MonitorHub(MonitorConfig())
        monitor = hub.attach_edge("up", "down", kind="O")
        for token in [10, 5, 1]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        assert hub.violation_count() == 0

    def test_u_edge_has_no_order_check(self):
        hub, monitor = self._hub(kind="U")
        for token in [10, 5, 1]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        assert hub.violation_count() == 0

    def test_none_token_items_are_skipped(self):
        hub, monitor = self._hub(
            order_key=lambda kv: default_order_token(kv.value)
        )
        monitor.observe(0, 0, KV("k", (1, 20)), 0.0)
        monitor.observe(0, 0, KV("k", "opaque"), 0.0)  # no token: skipped
        monitor.observe(0, 0, KV("k", (2, 10)), 0.0)  # 10 < 20: violation
        assert hub.violation_counts == {PER_KEY_ORDER: 1}

    def test_duplicate_marker(self):
        hub, monitor = self._hub()
        monitor.observe(0, 0, Marker(1), 0.0)
        monitor.observe(0, 0, Marker(1), 1.0)
        assert hub.violation_counts == {DUPLICATE_MARKER: 1}

    def test_marker_regression(self):
        hub, monitor = self._hub()
        monitor.observe(0, 0, Marker(2), 0.0)
        monitor.observe(0, 0, Marker(1), 1.0)
        assert hub.violation_counts == {OUT_OF_EPOCH_MARKER: 1}

    def test_epoch_mismatch_across_channels(self):
        hub, monitor = self._hub()
        monitor.observe(0, 0, Marker(1), 0.0)  # channel 0 establishes epoch 1
        monitor.observe(0, 1, Marker(2), 1.0)  # channel 1 disagrees
        assert hub.violation_counts == {EPOCH_MISMATCH: 1}

    def test_post_marker_straggler(self):
        hub, monitor = self._hub(epoch_of=lambda kv: kv.value[0])
        monitor.observe(0, 0, KV("k", (1, 5)), 0.0)
        monitor.observe(0, 0, Marker(1), 1.0)
        monitor.observe(0, 0, KV("k", (1, 6)), 2.0)  # epoch 1 after Marker(1)
        assert hub.violation_counts[POST_MARKER_STRAGGLER] == 1

    def test_nth_sampling_skips_items_but_not_markers(self):
        hub, monitor = self._hub(sampling="nth", nth=2)
        # Only every 2nd item per channel is checked; both bad items land
        # on unsampled positions here, markers are still fully checked.
        for token in [10, 5, 8, 1]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        monitor.observe(0, 0, Marker(1), 0.0)
        monitor.observe(0, 0, Marker(1), 1.0)
        assert PER_KEY_ORDER not in hub.violation_counts or (
            hub.violation_counts[PER_KEY_ORDER] <= 1
        )
        assert hub.violation_counts[DUPLICATE_MARKER] == 1

    def test_epoch_sampling_keeps_digests_only(self):
        hub, monitor = self._hub(sampling="epoch")
        for token in [10, 5, 1]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        assert hub.violation_count() == 0  # no per-item checks at all
        (state,) = monitor.channel_states().values()
        assert state.block_items == 3
        assert state.block_digest != 0
        monitor.observe(0, 0, Marker(1), 0.0)
        (state,) = monitor.channel_states().values()
        assert state.block_items == 0  # marker sealed the block

    def test_violation_cap(self):
        hub, monitor = self._hub(max_violations=2)
        for token in [10, 9, 8, 7, 6]:
            monitor.observe(0, 0, KV("k", token), 0.0)
        assert len(hub.violations) == 2
        assert hub.dropped_violations == 2
        assert hub.violation_counts[PER_KEY_ORDER] == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonitorConfig(sampling="sometimes")
        with pytest.raises(ValueError):
            MonitorConfig(nth=0)
        with pytest.raises(ValueError):
            MonitorHub(MonitorConfig()).attach_edge("a", "b", kind="X")

    def test_violation_str_names_edge_epoch_and_item(self):
        hub, monitor = self._hub()
        monitor.observe(0, 0, Marker(1), 0.0)
        monitor.observe(0, 0, KV("k", 9), 1.0)
        monitor.observe(0, 0, KV("k", 3), 2.0)
        (violation,) = hub.violations
        text = str(violation)
        assert "per-key-order" in text
        assert "up->down" in text
        assert "epoch 1" in text
        assert repr(KV("k", 3)) in text


# ----------------------------------------------------------------------
# Hub construction and progress monitors.
# ----------------------------------------------------------------------


class TestMonitorHub:
    def test_for_compiled_uses_typed_edge_kinds(self):
        compiled = _compiled_iot()
        hub = MonitorHub.for_compiled(compiled)
        kinds = {edge: m.kind for edge, m in hub.edges.items()}
        assert kinds == compiled.edge_kinds
        assert kinds[("SORT;LI", "Avg")] == "O"  # the sorted edge
        assert kinds[("SENSOR", "Map")] == "U"

    def test_for_topology_monitors_every_edge_as_u(self):
        events = [KV("k", 1), Marker(1)]
        builder = TopologyBuilder("t")
        builder.set_spout("src", IteratorSpout(lambda i, n: iter(events)), 1)
        builder.set_bolt("sink", CaptureBolt(), 1).shuffle_grouping("src")
        hub = MonitorHub.for_topology(builder.build())
        assert set(hub.edges) == {("src", "sink")}
        assert hub.edges[("src", "sink")].kind == "U"

    def test_watermark_lag_against_frontier(self):
        hub = MonitorHub()
        hub.on_source_marker("src", 1, 0.0)
        hub.on_source_marker("src", 2, 1.0)
        hub.on_source_marker("src", 3, 2.0)
        hub.on_epoch_sealed("op", 0, 1, 2.5)
        assert hub.frontier_epoch() == 3
        assert hub.watermark_lag("op", 0) == 2
        assert hub.max_watermark_lag() == (2, "op[0]")
        hub.on_epoch_sealed("op", 0, 3, 3.0)
        assert hub.watermark_lag("op", 0) == 0

    def test_watermark_lag_alert_fires_once(self):
        hub = MonitorHub(MonitorConfig(watermark_lag_alert=2))
        for epoch in [1, 2, 3, 4]:
            hub.on_source_marker("src", epoch, float(epoch))
        hub.on_epoch_sealed("op", 0, 1, 5.0)  # lag 3 >= 2: alert
        hub.on_epoch_sealed("op", 0, 2, 6.0)  # still lagging: no re-alert
        assert [a.kind for a in hub.alerts] == ["watermark-lag"]

    def test_queue_depth_alert_rearms_below_threshold(self):
        hub = MonitorHub(MonitorConfig(queue_depth_alert=3))
        for depth in [1, 3, 4, 1, 5]:
            hub.on_queue_depth("op", 0, 0.0, depth)
        # Crossings at 3 and (after dropping to 1) at 5: two alerts.
        assert [a.kind for a in hub.alerts] == ["queue-depth", "queue-depth"]

    def test_queue_growth_alert(self):
        hub = MonitorHub(MonitorConfig(
            queue_depth_alert=1000, queue_growth_window=4,
        ))
        for depth in [1, 2, 3, 4]:
            hub.on_queue_depth("op", 0, 0.0, depth)
        assert [a.kind for a in hub.alerts] == ["queue-growth"]

    def test_telemetry_snapshot_per_source_epoch(self):
        hub = MonitorHub()
        hub.on_source_marker("src", 1, 0.0)
        hub.on_source_marker("src", 1, 0.5)  # other spout task: no new row
        hub.on_source_marker("src", 2, 1.0)
        hub.close(2.0)
        rows = [r for r in hub.telemetry_records() if r["type"] == "telemetry"]
        assert len(rows) == 3
        assert [r["seq"] for r in rows] == [0, 1, 2]
        assert rows[-1]["final"] is True

    def test_summary_rolls_up(self):
        hub = MonitorHub(MonitorConfig(order_key=_value_order))
        monitor = hub.attach_edge("a", "b", kind="O")
        monitor.observe(0, 0, KV("k", 2), 0.0)
        monitor.observe(0, 0, KV("k", 1), 0.0)
        summary = hub.summary()
        assert summary["edges_monitored"] == 1
        assert summary["violations_total"] == 1
        assert summary["violations_by_kind"] == {PER_KEY_ORDER: 1}
        assert summary["items_observed"] == 2


# ----------------------------------------------------------------------
# Fault injection through the simulator.
# ----------------------------------------------------------------------


def _run_monitored(events, hub, seed=0):
    builder = TopologyBuilder("t")
    builder.set_spout("src", IteratorSpout(lambda i, n: iter(events)), 1)
    builder.set_bolt("sink", CaptureBolt(), 1).shuffle_grouping("src")
    topology = builder.build()
    obs = ObsContext.monitoring(hub)
    return Simulator(topology, Cluster(2), seed=seed, obs=obs).run()


class TestFaultInjection:
    def test_order_violating_stream_one_violation_per_bad_item(self):
        # Values follow the (payload, timestamp) idiom; items 2 and 4 put
        # their timestamps backwards within the block.
        events = [
            KV("k", ("a", 10)),
            KV("k", ("b", 20)),
            KV("k", ("c", 15)),  # bad
            KV("k", ("d", 30)),
            KV("k", ("e", 25)),  # bad
            Marker(1),
            KV("k", ("f", 5)),   # fresh block: not a violation
        ]
        hub = MonitorHub(MonitorConfig(
            order_key=lambda kv: default_order_token(kv.value)
        ))
        hub.attach_edge("src", "sink", kind="O")
        _run_monitored(events, hub)
        assert hub.violation_counts == {PER_KEY_ORDER: 2}
        assert [v.item for v in hub.violations] == [
            repr(KV("k", ("c", 15))), repr(KV("k", ("e", 25))),
        ]
        for violation in hub.violations:
            assert violation.edge == "src->sink"
            assert violation.component == "sink"
            assert violation.channel == "src[0]"

    def test_duplicate_marker_injection(self):
        events = [KV("k", 1), Marker(1), KV("k", 2), Marker(1)]
        hub = MonitorHub()
        hub.attach_edge("src", "sink", kind="U")
        _run_monitored(events, hub)
        assert hub.violation_counts == {DUPLICATE_MARKER: 1}
        (violation,) = hub.violations
        assert violation.epoch == 1

    def test_clean_compiled_run_has_zero_violations(self):
        compiled = _compiled_iot()
        hub = MonitorHub.for_compiled(compiled, MonitorConfig(
            order_key=lambda kv: default_order_token(kv.value)
        ))
        obs = ObsContext.monitoring(hub)
        LocalRunner(compiled.topology, seed=0, obs=obs).run()
        assert hub.violation_count() == 0
        assert hub.summary()["items_observed"] > 0
        assert hub.summary()["markers_observed"] > 0
        # Watermarks advanced all the way to the source frontier.
        assert hub.max_watermark_lag()[0] == 0


# ----------------------------------------------------------------------
# Parity: monitoring must not change simulation outcomes.
# ----------------------------------------------------------------------


class TestMonitorParity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_monitored_run_bit_identical(self, seed):
        plain = LocalRunner(_compiled_iot().topology, seed=seed).run()
        compiled = _compiled_iot()
        hub = MonitorHub.for_compiled(compiled, MonitorConfig(
            order_key=lambda kv: default_order_token(kv.value),
            queue_depth_alert=1.0,
            watermark_lag_alert=1,
        ))
        obs = ObsContext.monitoring(hub)
        monitored = LocalRunner(compiled.topology, seed=seed, obs=obs).run()

        assert monitored.makespan == plain.makespan
        assert monitored.processed == plain.processed
        assert monitored.emitted == plain.emitted
        assert monitored.sink_events == plain.sink_events
        assert monitored.sink_delivery_times == plain.sink_delivery_times
        assert monitored.machine_busy == plain.machine_busy
        # And the monitors actually observed the run.
        assert hub.summary()["items_observed"] > 0
        assert hub.closed

    @pytest.mark.parametrize("sampling", ["nth", "epoch"])
    def test_sampling_modes_also_bit_identical(self, sampling):
        plain = LocalRunner(_compiled_iot().topology, seed=7).run()
        compiled = _compiled_iot()
        hub = MonitorHub.for_compiled(
            compiled, MonitorConfig(sampling=sampling, nth=3)
        )
        obs = ObsContext.monitoring(hub)
        monitored = LocalRunner(compiled.topology, seed=7, obs=obs).run()
        assert monitored.makespan == plain.makespan
        assert monitored.sink_events == plain.sink_events


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_recovered_run_is_violation_free(self, seed):
        """Monitors with micro-batching, type-licensed combiners, and a
        crash plus link faults under recovery: zero violations, the
        fault-free sink trace, and the report of the same run
        unmonitored."""
        from repro.apps.yahoo.events import YahooWorkload
        from repro.apps.yahoo.queries import query6

        workload = YahooWorkload(
            seconds=3, events_per_second=60, n_campaigns=4,
            ads_per_campaign=4, n_users=20,
        )
        events = workload.events()

        def simulate(faulted, monitored=False):
            compiled = compile_dag(
                query6(workload.make_database(), parallelism=2),
                {"events": source_from_events(events, 2)},
            )
            plan = FaultPlan(
                crashes=(CrashFault("Features", task=0, after_executions=5),),
                default_edge=EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1),
                seed=seed,
            )
            hub = MonitorHub.for_compiled(compiled) if monitored else None
            report = Simulator(
                compiled.topology, Cluster(3, cores_per_machine=2), seed=seed,
                batching=(BatchingOptions.for_compiled(compiled)
                          if faulted else None),
                faults=plan if faulted else None,
                recovery=RecoveryOptions() if faulted else None,
                obs=ObsContext.monitoring(hub) if hub is not None else None,
            ).run()
            trace = events_to_trace(compiled.sinks["SINK"].aligned_events, False)
            return trace, report, hub

        baseline, _, _ = simulate(faulted=False)
        _, plain, _ = simulate(faulted=True)
        trace, report, hub = simulate(faulted=True, monitored=True)
        assert trace == baseline
        assert report == plain
        assert report.recovery.recoveries >= 1
        assert hub.violation_count() == 0, hub.summary()
        assert hub.summary()["recoveries_total"] >= 1


# ----------------------------------------------------------------------
# Export: telemetry schema and Prometheus text.
# ----------------------------------------------------------------------


class TestExport:
    def _monitored_iot(self):
        compiled = _compiled_iot()
        hub = MonitorHub.for_compiled(compiled, MonitorConfig(
            order_key=lambda kv: default_order_token(kv.value)
        ))
        obs = ObsContext.collecting(monitors=hub)
        LocalRunner(compiled.topology, seed=0, obs=obs).run()
        return obs, hub

    def test_telemetry_records_validate_against_schema(self):
        _, hub = self._monitored_iot()
        records = hub.telemetry_records()
        assert records
        # validate_records raises TraceSchemaError on any bad record.
        assert validate_records(enumerate(records, start=1)) == len(records)

    def test_telemetry_jsonl_roundtrip(self, tmp_path):
        from repro.obs.schema import validate_jsonl

        _, hub = self._monitored_iot()
        path = tmp_path / "telemetry.jsonl"
        hub.write_telemetry_jsonl(str(path))
        assert validate_jsonl(str(path)) == len(hub.telemetry_records())

    def test_injected_violation_records_validate(self):
        hub = MonitorHub(MonitorConfig(order_key=_value_order))
        monitor = hub.attach_edge("a", "b", kind="O")
        monitor.observe(0, 0, KV("k", 2), 0.0)
        monitor.observe(0, 0, KV("k", 1), 0.5)
        hub.close(1.0)
        records = hub.telemetry_records()
        assert any(r["type"] == "violation" for r in records)
        assert validate_records(enumerate(records, start=1)) == len(records)

    def test_prometheus_text_exposes_metrics_and_monitors(self):
        obs, hub = self._monitored_iot()
        text = prometheus_text(obs.metrics, hub)
        assert "# TYPE repro_tuples_processed_total counter" in text
        assert "repro_monitor_violations_total 0" in text
        assert "repro_monitor_frontier_epochs" in text
        assert 'repro_monitor_watermark_lag_epochs{component="Avg"' in text

    def test_prometheus_violation_series_by_edge(self):
        hub = MonitorHub(MonitorConfig(order_key=_value_order))
        monitor = hub.attach_edge("a", "b", kind="O")
        monitor.observe(0, 0, KV("k", 2), 0.0)
        monitor.observe(0, 0, KV("k", 1), 0.5)
        from repro.obs import MetricsRegistry

        text = prometheus_text(MetricsRegistry(), hub)
        assert (
            'repro_monitor_violations_total'
            '{invariant="per-key-order",edge="a->b"} 1' in text
        )
        assert "repro_monitor_violations_total 1" in text  # grand total

    def test_nan_formatting(self):
        assert not math.isnan(0.0)  # placeholder sanity; _fmt covered below
        from repro.obs.export import _fmt

        assert _fmt(float("nan")) == "NaN"
        assert _fmt(float("inf")) == "+Inf"
        assert _fmt(1.5) == "1.5"
