"""The in-process compilation backend: same DAG, same traces as both the
denotational semantics and the distributed topology."""

import pytest

from repro.errors import CompilationError
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.compiler.inprocess import compile_inprocess
from repro.dag import TransductionDAG, evaluate_dag
from repro.operators.base import KV, Marker
from repro.operators.library import filter_items, map_values, tumbling_count
from repro.operators.merge import Merge
from repro.operators.sort import SortOp
from repro.operators.split import RoundRobinSplit
from repro.storm import LocalRunner
from repro.storm.local import events_to_trace
from repro.traces.blocks import BlockTrace
from repro.traces.trace_type import unordered_type

U = unordered_type()

EVENTS = [KV("a", 2), KV("b", 1), Marker(1), KV("a", 5), KV("b", 0), Marker(2)]


def pipeline_dag():
    dag = TransductionDAG("inproc")
    src = dag.add_source("src", output_type=U)
    f = dag.add_op(filter_items(lambda k, v: v > 0, name="F"),
                   upstream=[src], edge_types=[U])
    c = dag.add_op(tumbling_count("C"), upstream=[f], edge_types=[U])
    dag.add_sink("out", upstream=c)
    return dag


class TestInProcessBackend:
    def test_matches_denotation(self):
        dag = pipeline_dag()
        expected = evaluate_dag(dag, {"src": EVENTS}).sink_trace("out", False)
        pipeline = compile_inprocess(dag)
        outputs = pipeline.run({"src": EVENTS})
        assert BlockTrace.from_events(False, outputs["out"]) == expected

    def test_matches_distributed_backend(self):
        dag = pipeline_dag()
        pipeline = compile_inprocess(pipeline_dag())
        local = pipeline.run({"src": EVENTS})["out"]
        compiled = compile_dag(dag, {"src": source_from_events(EVENTS, 2)})
        LocalRunner(compiled.topology, seed=0).run()
        distributed = compiled.sinks["out"].aligned_events
        assert BlockTrace.from_events(False, local) == BlockTrace.from_events(
            False, distributed
        )

    def test_incremental_push(self):
        pipeline = compile_inprocess(pipeline_dag())
        pipeline.push_batch("src", [KV("a", 2)])
        assert pipeline.outputs("out") == []
        pipeline.push_batch("src", [Marker(1)])
        assert pipeline.outputs("out") == [KV("a", 1), Marker(1)]

    def test_multi_source_merge(self):
        dag = TransductionDAG("multi")
        s1 = dag.add_source("s1", output_type=U)
        s2 = dag.add_source("s2", output_type=U)
        op = dag.add_op(tumbling_count("C"), upstream=[s1, s2],
                        edge_types=[U, U])
        dag.add_sink("out", upstream=op)
        pipeline = compile_inprocess(dag)
        outputs = pipeline.run({
            "s1": [KV("x", 1), Marker(1)],
            "s2": [KV("x", 1), KV("y", 2), Marker(1)],
        })
        trace = BlockTrace.from_events(False, outputs["out"])
        assert sorted(trace.blocks[0].pairs()) == [("x", 2), ("y", 1)]

    def test_explicit_merge_vertex(self):
        dag = TransductionDAG("mrg")
        s1 = dag.add_source("s1", output_type=U)
        s2 = dag.add_source("s2", output_type=U)
        merge = dag.add_merge(Merge(2), upstream=[s1, s2])
        op = dag.add_op(map_values(lambda v: v, name="M"), upstream=[merge],
                        edge_types=[U])
        dag.add_sink("out", upstream=op)
        pipeline = compile_inprocess(dag)
        outputs = pipeline.run({
            "s1": [KV("a", 1), Marker(1)], "s2": [Marker(1)],
        })
        trace = BlockTrace.from_events(False, outputs["out"])
        assert trace.num_markers() == 1

    def test_ordered_stages(self):
        dag = TransductionDAG("sorted")
        src = dag.add_source("src", output_type=U)
        sort = dag.add_op(SortOp(name="S"), upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=sort)
        pipeline = compile_inprocess(dag)
        outputs = pipeline.run({"src": [KV("k", 3), KV("k", 1), Marker(1)]})
        values = [e.value for e in outputs["out"] if isinstance(e, KV)]
        assert values == [1, 3]

    def test_type_errors_rejected(self):
        from repro.errors import TraceTypeError
        from repro.operators.keyed_ordered import OpKeyedOrdered

        class Ordered(OpKeyedOrdered):
            def init(self):
                return None

            def on_item(self, state, key, value, emit):
                return state

        dag = TransductionDAG("bad")
        src = dag.add_source("src", output_type=U)
        op = dag.add_op(Ordered(), upstream=[src], edge_types=[U])
        dag.add_sink("out", upstream=op)
        with pytest.raises(TraceTypeError):
            compile_inprocess(dag)

    def test_explicit_splitters_rejected(self):
        dag = TransductionDAG("split")
        src = dag.add_source("src", output_type=U)
        split = dag.add_split(RoundRobinSplit(2), upstream=src)
        a = dag.add_op(map_values(lambda v: v), upstream=[split])
        b = dag.add_op(map_values(lambda v: v), upstream=[split])
        merge = dag.add_merge(Merge(2), upstream=[a, b])
        dag.add_sink("out", upstream=merge)
        with pytest.raises(CompilationError):
            compile_inprocess(dag)

    def test_unknown_source_rejected(self):
        pipeline = compile_inprocess(pipeline_dag())
        with pytest.raises(CompilationError):
            pipeline.push_batch("ghost", [KV("a", 1)])
