"""The simulator's observability layer: :class:`SimulatorTap` turns one
instrumented ``Simulator.run`` into tracer spans and samples, metrics,
and :class:`~repro.obs.monitor.MonitorHub` callbacks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.operators.base import Marker


class SimulatorTap:
    """Feed one simulator run's taps into an enabled ``ObsContext``.

    The simulator builds one only for an enabled context and calls it
    at five sites: deliver, execute, spout emission, rollback, finish.
    Every call only reads simulator state, so an instrumented run is
    bit-identical to a plain one.  Spans, metrics and member breakdowns
    are skipped when only monitors are on.  Tasks with merge-frontend
    hooks (``CompiledBolt``, ``AlignedCaptureBolt``) also get epoch
    alignment spans and merge skew/buffer gauges.
    """

    def __init__(self, obs, tasks: Dict[Any, Any],
                 marker_emit_times: Dict[Any, float]):
        self.tracer = obs.tracer
        self.metrics = obs.metrics if obs.metrics.enabled else None
        self.timed = obs.tracer.enabled or obs.metrics.enabled
        monitors = obs.monitors
        self.monitors = (
            monitors if monitors is not None and monitors.enabled else None
        )
        self.marker_emit_times = marker_emit_times
        self.recoveries = 0
        # Task runtimes whose payload has merge-frontend hooks.
        self.aligned = {
            runtime for runtime in tasks.values()
            if hasattr(runtime.payload, "frontend_merge_state")
        }

    # -- simulator call sites --------------------------------------------

    def on_deliver(self, runtime, tup, now: float) -> None:
        """``tup`` was just queued at ``runtime``."""
        depth = len(runtime.queue)
        if self.monitors is not None:
            self.monitors.on_delivery(
                runtime.component, runtime.index, tup, now, depth
            )
        if not self.timed:
            return
        self.tracer.sample(
            "queue_depth", runtime.component, runtime.index, now, depth
        )
        if self.metrics is not None:
            self.metrics.gauge(
                "queue_depth", component=runtime.component,
                task=runtime.index,
            ).set_max(depth)
        if runtime in self.aligned and isinstance(tup.event, Marker):
            self.tracer.epoch_arrival(
                runtime.component, runtime.index, runtime.machine,
                tup.event.timestamp, now,
            )

    def on_execute(self, runtime, last, n_tuples: int, start: float,
                   cost: float, breakdown: List[Tuple[str, float, int]],
                   fanout: int) -> None:
        """One execution of ``n_tuples`` tuples ending with ``last``;
        ``breakdown`` holds a compiled bolt's per-member costs."""
        finish = start + cost
        comp, idx = runtime.component, runtime.index
        tracer, metrics = self.tracer, self.metrics
        if self.timed:
            tracer.sample("queue_depth", comp, idx, start, len(runtime.queue))
            tracer.exec_span(
                comp, idx, runtime.machine, start, finish,
                {"event": type(last.event).__name__, "fanout": fanout},
            )
            if metrics is not None:
                metrics.counter("tuples_processed", component=comp).inc(n_tuples)
                metrics.counter(
                    "task_busy_seconds", component=comp, task=idx
                ).inc(cost)
                metrics.counter("emit_fanout", component=comp).inc(fanout)
            # Per-fused-member sub-spans tile the execution interval in
            # chain order (glue first), so chrome://tracing shows where
            # inside the chain the time went.
            cursor = start
            for vertex, vertex_cost, n_events in breakdown:
                tracer.member_span(
                    comp, idx, runtime.machine, vertex,
                    cursor, cursor + vertex_cost, n_events,
                )
                cursor += vertex_cost
                if metrics is not None and vertex != "glue":
                    metrics.counter(
                        "member_events", component=comp, vertex=vertex
                    ).inc(n_events)
                    metrics.counter(
                        "member_cpu_seconds", component=comp, vertex=vertex,
                    ).inc(vertex_cost)
        if runtime not in self.aligned:
            return
        # Marker-epoch alignment: if the merge frontend just released
        # this execution's marker (a batch ends at its first marker),
        # that marker was the laggard completing its epoch — close the
        # epoch span.
        hooks = runtime.payload
        sealed = (
            isinstance(last.event, Marker)
            and hooks.frontend_watermark(runtime.state) == last.event.timestamp
        )
        if sealed and self.monitors is not None:
            self.monitors.on_epoch_sealed(comp, idx, last.event.timestamp, finish)
        if not self.timed:
            return
        stats = hooks.frontend_stats(runtime.state)
        if sealed:
            wait = tracer.epoch_release(
                comp, idx, last.event.timestamp, finish,
                {"buffered_after": stats["buffered_tuples"]},
            )
            if metrics is not None:
                metrics.counter(
                    "epochs_aligned", component=comp, task=idx
                ).inc()
                if wait is not None:
                    metrics.histogram(
                        "epoch_wait_seconds", component=comp
                    ).observe(wait)
        if metrics is None:
            return
        metrics.gauge("merge_skew", component=comp, task=idx).set_max(
            stats["skew"],
            note=str(stats["laggard"]) if stats["laggard"] is not None else None,
        )
        buffered = stats["buffered_tuples"]
        buffered_gauge = metrics.gauge(
            "merge_buffered_tuples", component=comp, task=idx
        )
        new_peak = buffered > 0 and (
            buffered_gauge.max is None or buffered > buffered_gauge.max
        )
        buffered_gauge.set_max(buffered)
        if new_peak:
            # Sizing walks every buffered event, so only do it when the
            # buffer hits a new high-water mark.
            metrics.gauge(
                "merge_buffered_bytes", component=comp, task=idx
            ).set_max(
                hooks.frontend_stats(runtime.state, with_bytes=True)[
                    "buffered_bytes"
                ]
            )

    def on_spout(self, runtime, start: float, finish: float,
                 outputs: List[Any], live: bool) -> None:
        """A spout emitted ``outputs`` (replayed unless ``live``)."""
        if live and self.monitors is not None:
            for event in outputs:
                if isinstance(event, Marker):
                    self.monitors.on_source_marker(
                        runtime.component, event.timestamp, finish
                    )
        if self.timed and outputs:
            self.tracer.exec_span(
                runtime.component, runtime.index, runtime.machine,
                start, finish, {"fanout": len(outputs)},
            )
            if self.metrics is not None:
                self.metrics.counter(
                    "spout_emitted", component=runtime.component
                ).inc(len(outputs))

    def on_rollback(self, epoch: Any, now: float) -> None:
        """The run rolled back to ``epoch``."""
        self.recoveries += 1
        if self.monitors is not None:
            self.monitors.on_rollback(epoch, now)
        if self.metrics is not None:
            self.metrics.counter("recoveries").inc()
            self.metrics.histogram("recovery_rollback_seconds").observe(
                max(0.0, now - self.marker_emit_times.get(epoch, now))
            )
        if self.timed:
            self.tracer.sample(
                "recovery", "<coordinator>", 0, now, self.recoveries
            )

    def finish(self, report) -> None:
        """Close the run: flush spans and monitors, record machine busy
        time and checkpoints taken."""
        self.tracer.finalize(report.makespan)
        if self.monitors is not None:
            self.monitors.close(report.makespan)
        metrics = self.metrics
        if metrics is None:
            return
        for machine_id in report.machine_cores:
            metrics.gauge("machine_busy_seconds", machine=machine_id).set(
                report.machine_busy.get(machine_id, 0.0)
            )
        recovery = report.recovery
        if recovery is not None and recovery.checkpoints_taken:
            metrics.counter("checkpoints_taken").inc(recovery.checkpoints_taken)
