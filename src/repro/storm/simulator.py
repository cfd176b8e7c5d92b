"""Discrete-event simulation of a topology on a cluster.

The engine executes *real* spout/bolt code, so outputs are genuine; only
time is simulated.  The model:

- every machine has ``cores`` cores; a core executes one tuple at a time;
- every task (component instance) is single-threaded: its tuples are
  processed serially in arrival order;
- processing a tuple costs ``framework_overhead + cpu_cost(component,
  event)`` seconds on a core;
- a tuple emitted at time *t* arrives at a consumer task at
  ``t + network_delay(src_machine, dst_machine)``, with seeded jitter on
  remote hops — jitter (plus shuffle-grouping randomness) is the source
  of interleaving nondeterminism, so a seed sweep explores the
  "arbitrary interleavings imposed by the network" of Section 2;
- spout tasks and capture sinks live on an unbounded implicit host by
  default (see :mod:`repro.storm.cluster`), so the 1..N worker machines
  measure the processing stages, as in the paper's experiments.

The simulation drains the workload to completion; *makespan* is the time
the last tuple finishes anywhere, and throughput = data tuples injected /
makespan.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError, TaskFailureError
from repro.operators.base import Event, KV, Marker
from repro.operators.keyed_unordered import CombinedAgg
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster, Placement, round_robin_placement
from repro.storm.costs import CostModel, UniformCostModel
from repro.storm.faults import FaultPlan
from repro.storm.recovery import FaultCoordinator, RecoveryOptions, RecoveryStats
from repro.storm.topology import (
    Bolt, CaptureBolt, OutputCollector, Spout, Topology,
)
from repro.obs import ObsContext
from repro.obs.simtap import SimulatorTap
from repro.storm.tuples import StormTuple

TaskKey = Tuple[str, int]


@dataclass
class SimulationReport:
    """Outcome of one simulated run."""

    makespan: float
    input_data_tuples: int
    input_all_tuples: int
    processed: Dict[str, int]
    emitted: Dict[str, int]
    #: events delivered to each CaptureBolt component, in delivery order.
    sink_events: Dict[str, List[Event]]
    #: delivered (event, src_component, src_task) per sink, for provenance checks.
    sink_tuples: Dict[str, List[StormTuple]]
    #: simulated delivery time of each sink tuple (parallel to sink_events).
    sink_delivery_times: Dict[str, List[float]]
    #: per marker timestamp: simulated time of first spout emission.
    marker_emit_times: Dict[Any, float]
    #: per machine id: total core-seconds of CPU charged.
    machine_busy: Dict[int, float]
    #: cores per machine id (for utilization).
    machine_cores: Dict[int, int]
    #: fault-tolerance accounting (a :class:`~repro.storm.recovery.
    #: RecoveryStats`) when the run had faults or recovery enabled, else
    #: ``None``.  Under recovery the raw ``sink_events``/``sink_tuples``
    #: views are at-least-once (replayed epochs re-deliver); exactly-once
    #: reads go through the capture bolts' aligned/received records,
    #: which roll back with the checkpoints.
    recovery: Optional[Any] = None

    def throughput(self) -> float:
        """Input data tuples per simulated second.

        An empty run (nothing injected, zero makespan) reports 0.0; a
        run that injected data in zero simulated time reports ``inf``.
        """
        if self.makespan <= 0:
            return 0.0 if self.input_data_tuples == 0 else float("inf")
        return self.input_data_tuples / self.makespan

    def utilization(self, machine_id: int) -> float:
        """Fraction of the machine's core-time spent busy over the run."""
        if self.makespan <= 0:
            return 0.0
        capacity = self.machine_cores.get(machine_id, 0) * self.makespan
        if capacity <= 0:
            return 0.0
        return min(1.0, self.machine_busy.get(machine_id, 0.0) / capacity)

    def mean_utilization(self) -> float:
        """Average utilization over the worker machines."""
        machines = [m for m in self.machine_cores if m >= 0]
        if not machines:
            return 0.0
        return sum(self.utilization(m) for m in machines) / len(machines)

    def marker_latencies(self, sink: str) -> Dict[Any, float]:
        """End-to-end latency per marker timestamp at a sink.

        Latency of timestamp ``t`` = time of the *last* delivery of a
        ``t``-marker to the sink (when alignment completes) minus the
        time a spout first emitted it.  The marker traverses every stage,
        so this is the pipeline's synchronization latency.

        A sink with no deliveries — or a name that is not a capture sink
        at all — yields ``{}`` rather than raising."""
        if sink not in self.sink_delivery_times or sink not in self.sink_tuples:
            return {}
        last_arrival: Dict[Any, float] = {}
        for time, tup in zip(self.sink_delivery_times[sink], self.sink_tuples[sink]):
            if isinstance(tup.event, Marker):
                last_arrival[tup.event.timestamp] = time
        return {
            ts: arrival - self.marker_emit_times.get(ts, 0.0)
            for ts, arrival in last_arrival.items()
        }


class _Route(NamedTuple):
    """One consumer of a task's output, resolved once per run."""

    consumer: str
    #: the sender's own grouping instance's bound ``select``.
    select: Callable[[Event, int], List[int]]
    n_tasks: int
    #: the consumer's task runtimes, indexed by task index.
    targets: List["_TaskRuntime"]
    #: injected faults on this edge, or ``None`` for a healthy edge.
    edge: Any
    #: sender-side combiner buffer ``{key: pending aggregate}`` and the
    #: consumer's head operator, or ``None`` when the edge is not planned.
    pending: Optional[Dict[Any, Any]]
    head: Any


class _TaskRuntime:
    """Mutable per-task execution state."""

    __slots__ = (
        "component",
        "index",
        "machine",
        "is_spout",
        "payload",
        "state",
        "routes",
        "link_floor",
        "cost_events",
        "collector",
        "queue",
        "running",
        "max_batch",
        "last_marker",
    )

    def __init__(self, component, index, machine, is_spout, payload, state):
        self.component = component
        self.index = index
        self.machine = machine
        self.is_spout = is_spout
        self.payload = payload
        self.state = state
        # The route plan (one row per downstream component, in topology
        # order) and the per-destination FIFO floors of this sender's
        # links; both are built and reset by Simulator.run.
        self.routes: List[_Route] = []
        self.link_floor: Dict["_TaskRuntime", float] = {}
        # The payload's per-member work report (compiled bolts), or
        # ``None`` when the task is charged per delivered tuple.
        self.cost_events = getattr(payload, "cost_events", None)
        self.collector = OutputCollector()
        # FIFO of pending (tuple, remote) deliveries; `running` marks an
        # in-flight execution (a scheduled "done" event).
        self.queue: "deque" = deque()
        self.running = False
        # Most tuples one execution may drain; raised by Simulator.run
        # when a BatchingOptions licenses it.
        self.max_batch = 1
        # Timestamp of the last epoch this task sealed (kept by the
        # recovery layer; reported in failure context).
        self.last_marker: Any = None

    def failure(self, exc: BaseException, report: "SimulationReport"
                ) -> TaskFailureError:
        """This task's exception wrapped with its failure context."""
        epoch = None
        payload = self.payload
        if hasattr(payload, "frontend_watermark"):
            try:
                epoch = payload.frontend_watermark(self.state)
            except Exception:
                epoch = None
        if epoch is None:
            epoch = self.last_marker
        return TaskFailureError(
            f"task {self.component}[{self.index}] on machine "
            f"{self.machine} failed (last sealed epoch {epoch!r}): {exc}",
            component=self.component,
            task_index=self.index,
            machine=self.machine,
            epoch=epoch,
            report=report,
        )


class Simulator:
    """Run a topology on a simulated cluster.

    ``run`` is one event loop over tasks, per-machine cores, per-link
    FIFO delivery and routing.  What cannot change during a run — each
    task's route plan and the cost model's bound methods — is resolved
    once when ``run`` starts, and heap entries carry task runtimes, so
    the loop does no per-tuple lookups.  Faults/recovery
    (:class:`~repro.storm.recovery.FaultCoordinator`) and observability
    (:class:`~repro.obs.simtap.SimulatorTap`) are optional layers on it,
    ``None`` when off; neither touches the scheduling RNG.

    Parameters
    ----------
    topology: the component graph.
    cluster: worker machines (see :class:`Cluster`).
    cost_model: CPU/network costs; default charges 1 us per tuple.
    placement: task->machine map; defaults to round-robin with sources
        and capture sinks offloaded.
    seed: RNG seed controlling shuffle groupings and network jitter.
    max_events: safety valve against runaway topologies.
    obs: optional :class:`~repro.obs.ObsContext`; when enabled, the run
        records one busy span per execution, queue-depth timelines,
        marker-epoch alignment spans, and merge channel-skew gauges, and
        feeds any attached :class:`~repro.obs.monitor.MonitorHub` every
        delivery (type-conformance checks), source marker (frontier),
        and sealed epoch (watermarks).  Instrumentation is read-only, so
        an instrumented run produces bit-identical results, with or
        without ``batching``.
    batching: optional :class:`~repro.storm.batching.BatchingOptions`
        enabling the epoch-batched fast paths — receiver-side
        micro-batches of up to ``max_batch`` tuples (one framework
        overhead per batch instead of per tuple) and sender-side per-key
        combiners on type-licensed ``U(K,V)`` hash edges.  Every bolt
        runs through ``execute_batch``; without batching each execution
        is a batch of one, which is also what ``max_batch=1`` gives.
        Batching changes the simulated *schedule* (fewer invocations,
        fewer shipped tuples) but never the canonical sink traces.
    faults: optional :class:`~repro.storm.faults.FaultPlan` injecting
        task crashes, machine failures, and per-edge message
        drop/duplicate/reorder.  Fault randomness draws from the plan's
        own seeded RNG, never the scheduling RNG, so enabling the
        machinery without faults leaves the simulated schedule
        unchanged.  Without ``recovery``, a crash raises
        :class:`~repro.errors.TaskFailureError` and message faults are
        raw (drops lose tuples).
    recovery: optional :class:`~repro.storm.recovery.RecoveryOptions`
        enabling epoch-aligned checkpointing and global rollback
        recovery: tasks snapshot at marker boundaries, crashes restore
        the last complete epoch and replay sources from it, and links
        become exactly-once via per-link sequence numbers and
        resequencing (drops turn into retransmissions).  The recovered
        run's canonical sink traces are trace-equivalent to the
        fault-free run's.
    """

    def __init__(
        self,
        topology: Topology,
        cluster: Cluster,
        cost_model: Optional[CostModel] = None,
        placement: Optional[Placement] = None,
        seed: int = 0,
        max_events: int = 50_000_000,
        obs: Optional[ObsContext] = None,
        batching: Optional[BatchingOptions] = None,
        faults: Optional[FaultPlan] = None,
        recovery: Optional[RecoveryOptions] = None,
    ):
        topology.validate()
        self.topology = topology
        self.cluster = cluster
        self.cost_model = cost_model or UniformCostModel()
        self.placement = placement or round_robin_placement(topology, cluster)
        self.seed = seed
        self.max_events = max_events
        self.obs = obs
        self.batching = batching
        self.faults = faults
        self.recovery = recovery

    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        rng = random.Random(self.seed)
        topology = self.topology
        components = topology.components
        tasks: Dict[TaskKey, _TaskRuntime] = {}

        # Instantiate tasks.
        for spec in components.values():
            for index in range(spec.parallelism):
                machine = self.placement.machine_of(spec.name, index)
                if spec.is_spout:
                    spout: Spout = copy.copy(spec.payload)
                    spout.open(index, spec.parallelism)
                    runtime = _TaskRuntime(
                        spec.name, index, machine, True, spout, None
                    )
                else:
                    state = spec.payload.prepare(index, spec.parallelism)
                    runtime = _TaskRuntime(
                        spec.name, index, machine, False, spec.payload, state
                    )
                tasks[(spec.name, index)] = runtime

        # Type-licensed batching (see repro.storm.batching).
        batching = self.batching
        combiner_plan = batching.combiners if batching is not None else {}
        if batching is not None:
            for runtime in tasks.values():
                if (
                    not runtime.is_spout
                    and type(runtime.payload).execute_batch
                    is not Bolt.execute_batch
                ):
                    runtime.max_batch = batching.max_batch

        # Per-machine core availability heaps (source host unbounded).
        core_free: Dict[int, List[float]] = {}
        for machine in self.cluster.machines:
            core_free[machine.machine_id] = [0.0] * machine.cores

        # Heap entries: (time, seq, action, task runtime or None, tuple
        # or fault, remote).  ``seq`` is unique, so runtimes are never
        # compared.
        heap: List[Tuple[float, int, str, Any, Any, bool]] = []
        seq = itertools.count()
        heappush, heappop = heapq.heappush, heapq.heappop

        def schedule(time: float, action: str,
                     runtime: Optional[_TaskRuntime], tup=None,
                     remote: bool = False):
            heappush(heap, (time, next(seq), action, runtime, tup, remote))

        processed: Dict[str, int] = {name: 0 for name in components}
        emitted: Dict[str, int] = {name: 0 for name in components}
        sink_deliveries: Dict[str, List[Tuple[float, int, StormTuple]]] = {
            spec.name: []
            for spec in components.values()
            if isinstance(spec.payload, CaptureBolt)
        }
        marker_emit_times: Dict[Any, float] = {}
        machine_busy: Dict[int, float] = {}
        input_data = 0
        input_all = 0
        makespan = 0.0
        events_handled = 0

        def build_report() -> SimulationReport:
            """The run's report so far (also attached to failures)."""
            return SimulationReport(
                makespan=makespan,
                input_data_tuples=input_data,
                input_all_tuples=input_all,
                processed=processed,
                emitted=emitted,
                sink_events={
                    name: [t.event for _, _, t in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                sink_tuples={
                    name: [t for _, _, t in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                sink_delivery_times={
                    name: [time for time, _, _ in deliveries]
                    for name, deliveries in sink_deliveries.items()
                },
                marker_emit_times=marker_emit_times,
                machine_busy=machine_busy,
                machine_cores={
                    m.machine_id: m.cores for m in self.cluster.machines
                },
                recovery=recovery_stats,
            )

        def restart(now: float, at: float, epoch: Any) -> None:
            """The core's half of a rollback (task state is already
            restored): drop everything in flight or queued except armed
            fault events, reset link floors, wake the spouts at ``at``."""
            heap[:] = [entry for entry in heap if entry[2] == "fault"]
            heapq.heapify(heap)
            for runtime in tasks.values():
                runtime.link_floor.clear()
                runtime.queue.clear()
                runtime.running = False
                runtime.collector.drain()
                for row in runtime.routes:
                    if row.pending is not None:
                        row.pending.clear()
                if runtime.is_spout:
                    schedule(at, "spout", runtime)
            if tap is not None:
                tap.on_rollback(epoch, now)

        # The optional layers.  Fault events are scheduled by the
        # coordinator here, ahead of the spouts' first wakeups.
        ft: Optional[FaultCoordinator] = None
        recovery_stats: Optional[RecoveryStats] = None
        edge_faults: Dict[Tuple[str, str], Any] = {}
        if self.faults is not None or self.recovery is not None:
            ft = FaultCoordinator(
                topology, tasks, self.faults, self.recovery,
                schedule=schedule, report=build_report, restart=restart,
            )
            recovery_stats = ft.stats
            edge_faults = ft.edges
        obs = self.obs
        tap = (
            SimulatorTap(obs, tasks, marker_emit_times)
            if obs is not None and obs.enabled else None
        )

        # The route plan: every fact a send needs that cannot change
        # during the run, resolved once per task, with the sender's own
        # grouping instance for each downstream bolt (seeded in task
        # order).  Combiner buffers, like link floors, live only as
        # long as this run.
        for runtime in tasks.values():
            for consumer, grouping in topology.downstream_of(runtime.component):
                instance = copy.deepcopy(grouping)
                instance.bind(random.Random(rng.randrange(2**62)))
                n_tasks = components[consumer].parallelism
                edge = (runtime.component, consumer)
                head = combiner_plan.get(edge)
                runtime.routes.append(_Route(
                    consumer, instance.select, n_tasks,
                    [tasks[(consumer, i)] for i in range(n_tasks)],
                    edge_faults.get(edge), None if head is None else {}, head,
                ))

        # Kick off all spout tasks at t=0.
        for runtime in tasks.values():
            if runtime.is_spout:
                schedule(0.0, "spout", runtime)

        # The cost model, bound once: its methods are still called once
        # per charge, so custom and instrumented models see every call.
        cost_model = self.cost_model
        framework_overhead = cost_model.framework_overhead
        remote_cpu = cost_model.remote_cpu
        cpu_cost = cost_model.cpu_cost
        glue_cost = cost_model.glue_cost
        vertex_cost = cost_model.vertex_cost
        network_delay = cost_model.network_delay
        spout_cost = cost_model.spout_cost

        def fail(runtime: _TaskRuntime, now: float,
                 detail: str = "injected crash",
                 exc: Optional[BaseException] = None) -> None:
            """A task failed: roll back under recovery, else surface the
            failure with its context."""
            if ft is None or ft.recovery is None:
                raise runtime.failure(exc or RuntimeError(detail),
                                      build_report()) from exc
            ft.rollback(now, detail)

        def execution_cost(
            runtime: _TaskRuntime, batch: List[Tuple[StormTuple, bool]],
            breakdown: Optional[List[Tuple[str, float, int]]] = None,
        ) -> float:
            """Simulated CPU seconds of one execution of ``batch``.

            The per-invocation framework overhead is paid once per
            execution — that is the entire point of micro-batching —
            while the per-tuple charges (remote deserialization, glue,
            per-vertex CPU) do not depend on the batching, so the
            simulated speedup comes only from amortized overhead, never
            from dropped work.  ``breakdown``, when given, receives a
            compiled bolt's ``(member label, cost seconds, events
            consumed)`` rows; the returned total is the same either
            way, because every charge is added to it one at a time."""
            cost = framework_overhead
            component, index = runtime.component, runtime.index
            cost_events = runtime.cost_events
            if cost_events is None:
                for tup, remote in batch:
                    if remote:
                        cost += remote_cpu
                    cost += cpu_cost(component, tup.event, index)
                return cost
            # Compiled bolts report per-vertex work, so cardinality
            # changes inside a fused chain are charged faithfully.
            glue = 0.0
            for tup, remote in batch:
                if remote:
                    cost += remote_cpu
                tup_glue = glue_cost(component, tup.event)
                cost += tup_glue
                glue += tup_glue
            if breakdown is not None:
                breakdown.append(("glue", glue, len(batch)))
            for vertex, events in cost_events(runtime.state):
                vertex_total = 0.0
                for event in events:
                    charge = vertex_cost(vertex, event, index)
                    cost += charge
                    vertex_total += charge
                if breakdown is not None:
                    breakdown.append((vertex, vertex_total, len(events)))
            return cost

        def maybe_start(runtime: _TaskRuntime, now: float) -> None:
            """Begin the task's next execution if it is idle.

            One execution drains up to the task's ``max_batch`` queued
            tuples and runs them through ``execute_batch``; a batch
            always ends at its first marker (epoch granularity), so
            marker alignment is timed exactly as in serial execution,
            which is a batch of one.  The core is reserved only when
            the task actually starts — a task waiting on its own serial
            stream must not hold cores hostage (that would serialize
            co-located pipeline stages)."""
            nonlocal makespan
            queue = runtime.queue
            if runtime.running or not queue:
                return
            if ft is not None and ft.crashes(runtime):
                fail(runtime, now)
                return
            entry = queue.popleft()
            batch = [entry]
            last = entry[0]
            tups = [last]
            if runtime.max_batch > 1 and not isinstance(last.event, Marker):
                while queue and len(batch) < runtime.max_batch:
                    entry = queue.popleft()
                    last = entry[0]
                    batch.append(entry)
                    tups.append(last)
                    if isinstance(last.event, Marker):
                        break
            start = now
            cores = core_free.get(runtime.machine)
            if cores is not None:
                earliest = heappop(cores)
                start = max(start, earliest)
            try:
                runtime.payload.execute_batch(
                    runtime.state, tups, runtime.collector
                )
            except Exception as exc:
                if cores is not None:
                    heappush(cores, start)
                runtime.collector.drain()
                fail(runtime, now, f"operator exception: {exc}", exc)
                return
            outputs = runtime.collector.drain()
            if ft is not None and isinstance(last.event, Marker):
                ft.executed_marker(runtime, last.event.timestamp)
            if tap is None:
                cost = execution_cost(runtime, batch)
            else:
                breakdown: List[Tuple[str, float, int]] = []
                cost = execution_cost(runtime, batch, breakdown)
                tap.on_execute(
                    runtime, last, len(batch), start, cost, breakdown,
                    len(outputs),
                )
            finish = start + cost
            machine_busy[runtime.machine] = (
                machine_busy.get(runtime.machine, 0.0) + cost
            )
            if cores is not None:
                heappush(cores, finish)
            runtime.running = True
            makespan = max(makespan, finish)
            processed[runtime.component] += len(batch)
            if outputs:
                route(runtime, outputs, finish)
            heappush(heap, (finish, next(seq), "done", runtime, None, False))

        def send(runtime: _TaskRuntime, row: _Route, tup: StormTuple,
                 at: float) -> None:
            """Ship one tuple to every selected task of ``row``'s
            consumer; links with injected faults go through the
            coordinator."""
            consumer, select, n_tasks, targets, edge, _, _ = row
            machine = runtime.machine
            floors = runtime.link_floor
            for target in select(tup.event, n_tasks):
                dst = targets[target]
                arrival = at + network_delay(machine, dst.machine, rng)
                # FIFO per link: Storm guarantees in-order delivery
                # between a fixed producer task and consumer task;
                # jittered delays must never reorder tuples on a link.
                floor = floors.get(dst, 0.0)
                if arrival < floor:
                    arrival = floor
                floors[dst] = arrival
                remote = machine != dst.machine
                if edge is None:
                    heappush(
                        heap, (arrival, next(seq), "deliver", dst, tup, remote)
                    )
                else:
                    link = ((runtime.component, runtime.index),
                            (consumer, target))
                    ft.transmit(edge, link, dst, tup, arrival, remote)

        def route(runtime: _TaskRuntime, events: List[Event], at: float) -> None:
            component, index = runtime.component, runtime.index
            emitted[component] += len(events)
            routes = runtime.routes
            for event in events:
                tup = StormTuple(event, component, index)
                for row in routes:
                    pending = row.pending
                    if pending is not None:
                        if isinstance(event, KV):
                            # Fold instead of shipping: the U(K,V) edge
                            # type makes between-marker items mutually
                            # independent, and the consumer's head
                            # operator folds them through a commutative
                            # monoid — so one pre-combined aggregate per
                            # key per epoch denotes the same trace.
                            head = row.head
                            folded = head.fold_in(event.key, event.value)
                            if event.key in pending:
                                pending[event.key] = head.combine(
                                    pending[event.key], folded
                                )
                            else:
                                pending[event.key] = folded
                            continue
                        if isinstance(event, Marker) and pending:
                            # Flush the epoch's aggregates ahead of the
                            # marker; link FIFO keeps them in its block.
                            for key, agg in pending.items():
                                send(
                                    runtime, row,
                                    StormTuple(
                                        KV(key, CombinedAgg(agg)),
                                        component, index,
                                    ),
                                    at,
                                )
                            pending.clear()
                    send(runtime, row, tup, at)

        def deliver(runtime: _TaskRuntime, tup: StormTuple, remote: bool,
                    now: float) -> None:
            """Hand one arrived tuple to its task."""
            if runtime.component in sink_deliveries:
                sink_deliveries[runtime.component].append(
                    (now, runtime.index, tup)
                )
            runtime.queue.append((tup, remote))
            if tap is not None:
                tap.on_deliver(runtime, tup, now)

        max_events = self.max_events
        while heap:
            events_handled += 1
            if events_handled > max_events:
                raise SimulationError("simulation exceeded max_events; runaway?")
            time_now, _, action, runtime, tup, remote = heappop(heap)

            # Actions in order of frequency: deliveries, then dones.
            if action == "deliver":
                if ft is None:
                    deliver(runtime, tup, remote, time_now)
                else:
                    for released, released_remote in ft.receive(
                        runtime, tup, remote
                    ):
                        deliver(runtime, released, released_remote, time_now)
                maybe_start(runtime, time_now)
                continue

            if action == "done":  # the running execution finished
                runtime.running = False
                maybe_start(runtime, time_now)
                continue

            if action == "fault":
                crashed = ft.strike(tup, time_now, core_free)
                if crashed is not None:
                    fail(crashed, time_now)
                continue

            # "spout": the spout task's next emission.
            replayed = None
            if ft is not None:
                if ft.crashes(runtime):
                    fail(runtime, time_now)
                    continue
                replayed = ft.replay(runtime)
            if replayed is None:
                try:
                    alive = runtime.payload.next_tuple(runtime.collector)
                except Exception as exc:
                    runtime.collector.drain()
                    fail(runtime, time_now, f"spout exception: {exc}", exc)
                    continue
                outputs = runtime.collector.drain()
            else:
                outputs, alive = replayed, True
            component = runtime.component
            cost = sum(spout_cost(component, e) for e in outputs)
            start = time_now
            cores = core_free.get(runtime.machine)
            if cores is not None:
                start = max(start, heappop(cores))
            finish = start + cost
            if cores is not None:
                heappush(cores, finish)
            makespan = max(makespan, finish)
            live = replayed is None
            if live:
                # Replayed traffic was accounted the first time.
                for event in outputs:
                    input_all += 1
                    if isinstance(event, KV):
                        input_data += 1
                    elif isinstance(event, Marker):
                        marker_emit_times.setdefault(event.timestamp, finish)
            if ft is not None:
                ft.emitted(runtime, outputs, live)
            if tap is not None:
                tap.on_spout(runtime, start, finish, outputs, live)
            if outputs:
                route(runtime, outputs, finish)
            if alive:
                heappush(heap, (finish, next(seq), "spout", runtime, None, False))

        report = build_report()
        if tap is not None:
            tap.finish(report)
        return report
