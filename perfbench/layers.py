"""Which public functions of each ``repro`` layer the traced run wraps.

Span names are the layer names of the per-layer metrics:

==========================  ============================================
span                        wrapped call
==========================  ============================================
``kernel.<vertex>``         the vertex payload's ``handle_batch`` (or
                            ``handle`` on the unbatched simulator)
``merge.align``             ``repro.operators.merge.Merge.handle_batch``
                            (in-process implicit merges)
``inprocess.push_batch``    ``InProcessPipeline.push_batch`` (its self
                            time is the worklist and routing)
``recovery.snapshot``       ``InProcessPipeline.snapshot``
``recovery.restore``        ``InProcessPipeline.restore``
``recovery.run``            ``repro.storm.recovery.run_with_recovery``
``db.lookup``               ``Table.lookup_one`` on the workload tables
``sim.run``                 ``Simulator.run`` (its self time is the
                            event loop)
``sim.bolt.<component>``    ``execute`` / ``execute_batch``
``sim.frontend.<component>`` ``MergeFrontend.accept`` / ``accept_batch``
``sim.cost``                the cost model's per-tuple functions
``sim.spout``               ``IteratorSpout.next_tuple``
``setup.typecheck``         ``typecheck_dag`` as the compilers call it
``setup.compile``           ``compile_inprocess`` / ``compile_dag``
==========================  ============================================
"""

from __future__ import annotations

from typing import List, Tuple

import repro.compiler.compile as compile_module
import repro.compiler.inprocess as inprocess_module
from repro.compiler.glue import CompiledBolt
from repro.dag.graph import TransductionDAG, VertexKind
from repro.db import Derby
from repro.operators.base import KV
from repro.operators.merge import Merge
from repro.storm.topology import IteratorSpout

from tracing import Tracer

#: Cost-model functions the simulator calls per tuple or per send.
COST_FUNCTIONS = ("cpu_cost", "vertex_cost", "glue_cost", "network_delay", "spout_cost")


def _data(events) -> int:
    return sum(1 for event in events if type(event) is KV)


def kernels(tracer: Tracer, dag: TransductionDAG, method: str) -> None:
    """Trace every OP vertex payload's kernel entry point ``method``."""
    batched = method == "handle_batch"
    for vertex in dag.vertices.values():
        if vertex.kind != VertexKind.OP:
            continue
        name = f"kernel.{vertex.name}"

        def count(counts, args, result, name=name):
            counts[name + ".events_in"] += len(args[-1]) if batched else 1
            counts[name + ".events_out"] += len(result)
            counts[name + ".data_out"] += _data(result)

        tracer.wrap(vertex.payload, method, name, count)


def tables(tracer: Tracer, db: Derby) -> None:
    """Trace indexed point lookups on every table of ``db``.

    Operators may bind ``lookup_one`` when the DAG is built, so this
    must run before the traced DAG is built.
    """
    for table in db.tables.values():
        tracer.wrap(table, "lookup_one", "db.lookup")


def merges(tracer: Tracer) -> None:
    """Trace the in-process backend's implicit marker-aligned merges."""

    def count(counts, args, result):
        counts["merge.events_in"] += len(args[-1])
        counts["merge.events_out"] += len(result)

    tracer.wrap(Merge, "handle_batch", "merge.align", count)


def pipeline(tracer: Tracer, pipe) -> None:
    """Trace an :class:`InProcessPipeline`'s block entry and checkpoints."""
    tracer.wrap(pipe, "push_batch", "inprocess.push_batch")
    tracer.wrap(pipe, "snapshot", "recovery.snapshot")
    tracer.wrap(pipe, "restore", "recovery.restore")


def pipelines_built_by_callee(tracer: Tracer, dag_method: str) -> None:
    """Instrument every pipeline ``compile_inprocess`` builds from now on
    (``run_with_recovery`` compiles its own), kernels included."""
    compile_inprocess = inprocess_module.compile_inprocess

    def instrumented(dag, *args, **kwargs):
        pipe = compile_inprocess(dag, *args, **kwargs)
        pipeline(tracer, pipe)
        kernels(tracer, dag, dag_method)
        return pipe

    tracer.replace(inprocess_module, "compile_inprocess", instrumented)


def setup(tracer: Tracer) -> None:
    """Trace type checking inside both compilers."""
    tracer.wrap(inprocess_module, "typecheck_dag", "setup.typecheck")
    tracer.wrap(compile_module, "typecheck_dag", "setup.typecheck")


def spouts(tracer: Tracer) -> None:
    tracer.wrap(IteratorSpout, "next_tuple", "sim.spout")


def simulation(tracer: Tracer, dag: TransductionDAG, compiled, cost_model,
               simulator) -> List[Tuple[str, str]]:
    """Trace one compiled topology's simulation.

    Returns the bolt-to-bolt edges as ``(upstream vertex, downstream
    component)`` pairs, where the upstream vertex is the last member of
    the sending component's fused chain (whose kernel output the
    component emits); the combiner ratio is measured over these edges.
    """
    tracer.wrap(simulator, "run", "sim.run")
    for function in COST_FUNCTIONS:
        tracer.wrap(cost_model, function, "sim.cost")
    vertex_of_payload = {id(v.payload): v.name for v in dag.vertices.values()}
    components = compiled.topology.components
    edges: List[Tuple[str, str]] = []
    for spec in components.values():
        if spec.is_spout:
            continue
        bolt, component = spec.payload, spec.name
        if isinstance(bolt, CompiledBolt):
            for upstream in spec.inputs:
                sender = components[upstream].payload
                if isinstance(sender, CompiledBolt):
                    edges.append((vertex_of_payload[id(sender.operators[-1])], component))

        def count_one(counts, args, result):
            counts["sim.executions"] += 1
            counts["sim.executed_tuples"] += 1

        def count_batch(counts, args, result):
            counts["sim.executions"] += 1
            counts["sim.executed_tuples"] += len(args[1])

        def data_one(counts, args, result, component=component):
            counts[f"data_in.{component}"] += type(args[1].event) is KV

        def data_batch(counts, args, result, component=component):
            counts[f"data_in.{component}"] += _data(t.event for t in args[1])

        tracer.wrap(bolt, "execute", f"sim.bolt.{component}", count_one)
        tracer.wrap(bolt, "execute_batch", f"sim.bolt.{component}", count_batch)
        tracer.wrap(bolt.frontend, "accept", f"sim.frontend.{component}", data_one)
        tracer.wrap(bolt.frontend, "accept_batch", f"sim.frontend.{component}", data_batch)
    return edges
