"""The four benchmark workloads (see WORKLOADS.md for why each exists).

A workload object is built from the seed alone: it generates the events,
tables and models the program receives and computes the
``evaluate_dag`` oracle's per-epoch sink blocks, all untimed.  Then:

- :meth:`setup` does what ``setup_s`` times — DAG build, type check,
  compilation and engine or pipeline construction;
- :meth:`new_pass` sets up once more and returns a :class:`Pass`: the
  closed-loop calls of one pass over the inputs, and the check of what
  they delivered.  With a tracer, the pass's objects are instrumented
  (see :mod:`layers`).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.smarthomes import SmartHomesWorkload, smart_homes_dag, train_predictor
from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.queries import (
    DB_LOOKUP_COST,
    FEATURE_COST,
    KMEANS_MARKER_COST,
    WINDOW_UPDATE_COST,
    query4,
    query4_multi_source,
    query6,
)
from repro.bench import MarkerTriggerCost, fused_cost_model
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.dag.semantics import evaluate_dag
from repro.storm import recovery as recovery_module
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster
from repro.storm.recovery import split_epochs
from repro.storm.simulator import Simulator
from repro.storm.local import events_to_trace

import layers
from harness import epoch_blocks, failed_epochs, sink_is_ordered
from tracing import Tracer

#: The simulated cluster of the Yahoo workloads: 4 machines of 2 cores,
#: 2 tasks per stage per machine, 2 spout tasks.
MACHINES = 4
TASKS_PER_MACHINE = 2
SPOUTS = 2


class Pass:
    """The closed-loop calls of one pass and the check of their output.

    ``calls`` is a list of ``(call, source events it feeds)``; the runner
    times each call and, untimed, runs ``after_call(i)``.  ``check()``
    returns ``(attempted epochs, failed epochs, signature)`` where the
    signature is the raw delivered output (plus, on the simulator, the
    makespan and executed-tuple counts) for exact traced-vs-untraced
    comparison.
    """

    def __init__(self, calls: List[Tuple[Callable[[], Any], int]],
                 check: Callable[[], Tuple[int, int, Any]],
                 after_call: Optional[Callable[[int], None]] = None):
        self.calls = calls
        self.check = check
        self.after_call = after_call or (lambda i: None)
        #: per-pass facts the per-layer report reads (edges, reports, stats).
        self.info: Dict[str, Any] = {}


def _yahoo(seed: int, seconds: int, events_per_second: int) -> YahooWorkload:
    """The Yahoo workload shape of the repository's Figure 4 benchmarks."""
    return YahooWorkload(
        seconds=seconds, events_per_second=events_per_second, n_campaigns=20,
        ads_per_campaign=10, n_users=200, n_locations=8, seed=seed,
    )


class Workload:
    """What every workload provides (see the module docstring)."""

    name = ""
    #: The kernel entry point the engine calls on each operator.
    kernel_method = "handle_batch"
    SINK = "SINK"
    #: Passes of the traced run and of its untraced reference.
    traced_passes = 10
    #: Oracle blocks of the sink, one per epoch (set by the constructor).
    expected: List[Any]

    def setup(self, tracer: Optional[Tracer] = None):
        raise NotImplementedError

    def new_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        raise NotImplementedError

    def shared_layers(self, tracer: Tracer) -> None:
        """Trace what every pass shares (tables, classes, modules)."""
        layers.tables(tracer, self.db)

    def extra_parity(self) -> Optional[bool]:
        """A check beyond the oracle, if the workload has one."""
        return None

    def derived_layers(self, reference: List[Pass], traced: List[Pass],
                       counts, reference_wall: float) -> Dict[str, float]:
        """Per-layer metrics computed from the passes rather than spans."""
        return {}


class Fig6InProcess(Workload):
    """Figure 5/6 Smart-Homes DAG on the epoch-batched in-process backend,
    fed one epoch block per ``push_batch``."""

    name = "fig6-inprocess"
    traced_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        workload = SmartHomesWorkload(
            n_buildings=12, units_per_building=5, plugs_per_unit=4,
            duration=600, marker_period=10, seed=seed,
        )
        self.models = train_predictor(horizon=120, train_seconds=800, past=60, seed=seed)
        self.db = workload.make_database()
        events = workload.events()
        self.blocks = split_epochs(events)
        self.markers = [block[-1] for block in self.blocks]
        dag = smart_homes_dag(self.db, self.models)
        self.ordered = sink_is_ordered(dag, self.SINK)
        oracle = evaluate_dag(dag, {"hub": events}).sink_events[self.SINK]
        self.expected, _ = epoch_blocks(oracle, self.ordered)

    def setup(self, tracer: Optional[Tracer] = None):
        compile_ = compile_inprocess
        if tracer is not None:
            compile_ = tracer.traced(compile_inprocess, "setup.compile")
        dag = smart_homes_dag(self.db, self.models)
        return dag, compile_(dag, batched=True)

    def shared_layers(self, tracer: Tracer) -> None:
        super().shared_layers(tracer)
        layers.merges(tracer)

    def new_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        dag, pipe = self.setup()
        if tracer is not None:
            layers.pipeline(tracer, pipe)
            layers.kernels(tracer, dag, self.kernel_method)
        late = set()

        def after_call(i: int) -> None:
            # The epoch's marker must be at the sink when push_batch returns.
            delivered = pipe.outputs(self.SINK)
            if not delivered or delivered[-1] != self.markers[i]:
                late.add(i)

        def check():
            outputs = pipe.outputs(self.SINK)
            failed = failed_epochs(outputs, self.expected, self.ordered) | late
            return len(self.expected), len(failed), outputs

        calls = [
            ((lambda block=block: pipe.push_batch("hub", block)), len(block))
            for block in self.blocks
        ]
        return Pass(calls, check, after_call)


class YahooSimulated(Workload):
    """A Yahoo query compiled with ``compile_dag`` and run on the
    discrete-event simulator; one call is one whole ``Simulator.run``."""

    SECONDS = 4
    EVENTS_PER_SECOND = 300

    def __init__(self, seed: int):
        self.seed = seed
        workload = _yahoo(seed, self.SECONDS, self.EVENTS_PER_SECOND)
        self.events = workload.events()
        self.db = workload.make_database()
        dag = self.build_dag()
        self.ordered = sink_is_ordered(dag, self.SINK)
        oracle = evaluate_dag(dag, {"events": self.events}).sink_events[self.SINK]
        self.expected, _ = epoch_blocks(oracle, self.ordered)

    def build_dag(self):
        raise NotImplementedError

    def vertex_costs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def batching(self, compiled) -> Optional[BatchingOptions]:
        return None

    def setup(self, tracer: Optional[Tracer] = None):
        compile_ = compile_dag
        if tracer is not None:
            compile_ = tracer.traced(compile_dag, "setup.compile")
        dag = self.build_dag()
        compiled = compile_(dag, {"events": source_from_events(self.events, SPOUTS)})
        # MarkerTriggerCost entries are stateful: one cost model per run.
        cost_model = fused_cost_model(self.vertex_costs(), generated=True)
        simulator = Simulator(
            compiled.topology, Cluster(MACHINES, cores_per_machine=2),
            cost_model=cost_model, seed=self.seed,
            batching=self.batching(compiled),
        )
        return dag, compiled, cost_model, simulator

    def shared_layers(self, tracer: Tracer) -> None:
        super().shared_layers(tracer)
        layers.spouts(tracer)

    def new_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        dag, compiled, cost_model, simulator = self.setup()
        reports = []
        calls = [((lambda: reports.append(simulator.run())), len(self.events))]

        def check():
            if not reports:
                return len(self.expected), len(self.expected), None
            outputs = list(compiled.sinks[self.SINK].aligned_events)
            failed = len(failed_epochs(outputs, self.expected, self.ordered))
            report = reports[-1]
            signature = (outputs, report.makespan, dict(report.processed))
            return len(self.expected), failed, signature

        result = Pass(calls, check)
        result.info["reports"] = reports
        if tracer is not None:
            layers.kernels(tracer, dag, self.kernel_method)
            result.info["edges"] = layers.simulation(
                tracer, dag, compiled, cost_model, simulator
            )
        return result

    def derived_layers(self, reference, traced, counts, reference_wall):
        edges = traced[0].info["edges"]
        delivered = sum(counts[f"data_in.{dst}"] for dst in {dst for _, dst in edges})
        emitted = sum(counts[f"kernel.{src}.data_out"] for src, _ in edges)
        reports = [r for p in reference for r in p.info["reports"]]
        tuples = sum(sum(r.processed.values()) for r in reports)
        return {
            "sim.executions": counts["sim.executions"],
            "sim.batch_mean": counts["sim.executed_tuples"] / counts["sim.executions"],
            "combiner.ratio": delivered / emitted,
            "sim.tuples": tuples / len(reports),
            "sim.us_per_tuple": reference_wall * 1e6 / tuples,
            "sim.makespan_ms": reports[0].makespan * 1e3,
        }


class Q4Simulated(YahooSimulated):
    """Yahoo Query IV (FilterMap -> Count10s), simulator unbatched."""

    name = "q4-sim"
    kernel_method = "handle"

    def build_dag(self):
        return query4(self.db, parallelism=MACHINES * TASKS_PER_MACHINE)

    def vertex_costs(self):
        return {
            "FilterMap": DB_LOOKUP_COST,
            "Count10s": MarkerTriggerCost(WINDOW_UPDATE_COST, 50e-6),
        }


class Q6SimulatedBatched(YahooSimulated):
    """Yahoo Query VI (Locate -> Features -> Cluster), simulator with
    micro-batching and type-licensed combiners."""

    name = "q6-sim-batched"
    kernel_method = "handle_batch"

    def build_dag(self):
        return query6(self.db, parallelism=MACHINES * TASKS_PER_MACHINE)

    def vertex_costs(self):
        return {
            "Locate": DB_LOOKUP_COST,
            "Features": MarkerTriggerCost(FEATURE_COST, 50e-6),
            "Cluster": MarkerTriggerCost(WINDOW_UPDATE_COST, KMEANS_MARKER_COST),
        }

    def batching(self, compiled):
        return BatchingOptions.for_compiled(compiled)


class Q4MultiRecovery(Workload):
    """Figure 3 verbatim — several Yahoo sources into FilterMap's implicit
    marker-aligned merge — through ``run_with_recovery`` with crash epochs
    drawn from the seed; one call is one whole recovered run."""

    name = "q4multi-recovery"
    SOURCES = 4
    SECONDS = 12
    EVENTS_PER_SECOND = 400
    CRASHES = 3

    def __init__(self, seed: int):
        self.seed = seed
        workloads = [
            _yahoo(seed * self.SOURCES + i, self.SECONDS, self.EVENTS_PER_SECOND)
            for i in range(self.SOURCES)
        ]
        self.sources = {f"Yahoo{i}": w.events() for i, w in enumerate(workloads)}
        self.n_events = sum(len(events) for events in self.sources.values())
        self.db = workloads[0].make_database()
        self.crash_epochs = sorted(
            random.Random(seed).sample(range(1, self.SECONDS), self.CRASHES)
        )
        dag = query4_multi_source(self.db, self.SOURCES)
        self.ordered = sink_is_ordered(dag, self.SINK)
        oracle = evaluate_dag(dag, self.sources).sink_events[self.SINK]
        self.expected, _ = epoch_blocks(oracle, self.ordered)

    def setup(self, tracer: Optional[Tracer] = None):
        compile_ = compile_inprocess
        if tracer is not None:
            compile_ = tracer.traced(compile_inprocess, "setup.compile")
        dag = query4_multi_source(self.db, self.SOURCES)
        return dag, compile_(dag, batched=True)

    def shared_layers(self, tracer: Tracer) -> None:
        super().shared_layers(tracer)
        layers.merges(tracer)
        layers.pipelines_built_by_callee(tracer, self.kernel_method)

    def extra_parity(self) -> bool:
        """The recovered output equals a plain, crash-free run's."""
        dag, _ = self.setup()
        plain = compile_inprocess(dag, batched=True).run(self.sources)[self.SINK]
        recovered = self._run(dag).outputs[self.SINK]
        return events_to_trace(plain, self.ordered) == events_to_trace(
            recovered, self.ordered
        )

    def _run(self, dag, run=None):
        run = run or recovery_module.run_with_recovery
        return run(
            dag, self.sources, batched=True, checkpoint_every=1,
            crash_epochs=self.crash_epochs, seed=self.seed,
        )

    def new_pass(self, tracer: Optional[Tracer] = None) -> Pass:
        dag, _ = self.setup()
        run = None
        if tracer is not None:
            run = tracer.traced(recovery_module.run_with_recovery, "recovery.run")
        runs = []
        calls = [((lambda: runs.append(self._run(dag, run))), self.n_events)]

        def check():
            if not runs:
                return len(self.expected), len(self.expected), None
            outputs = runs[-1].outputs[self.SINK]
            failed = len(failed_epochs(outputs, self.expected, self.ordered))
            return len(self.expected), failed, (outputs, runs[-1].stats.to_dict())

        result = Pass(calls, check)
        result.info["runs"] = runs
        return result

    def derived_layers(self, reference, traced, counts, reference_wall):
        runs = [r for p in traced for r in p.info["runs"]]
        replayed = sum(r.stats.replayed_events for r in runs)
        return {"recovery.replay_ratio": replayed / (len(runs) * self.n_events)}


WORKLOADS = {
    cls.name: cls
    for cls in (Fig6InProcess, Q4Simulated, Q6SimulatedBatched, Q4MultiRecovery)
}
