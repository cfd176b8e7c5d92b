"""A second compilation target: the in-process pipeline backend.

The paper's conclusion lists "extend the compilation procedure to target
streaming frameworks other than Storm" as future work.  This backend is
the smallest instance of that claim: the same typed DAG, the same type
checking, compiled not to a distributed topology but to a single-process
*push pipeline* — an object consuming events and returning output
events, suitable for embedding the computation in another program (or
another engine's operator slot).

The compilation reuses the DAG's topological structure directly: every
vertex becomes a node holding its operator state; blocks of events are
pushed through edges with an iterative worklist (no recursion, so deep
chains and high-fan-out DAGs cannot hit the interpreter's recursion
limit).

There is one execution path, :meth:`InProcessPipeline.push_batch`: the
worklist moves ``List[Event]`` blocks through ``Operator.handle_batch``
and ``Merge.handle_batch``, paying the per-edge plumbing once per block.
The block size is the caller's choice, up to one epoch: a longer block
is drained an epoch at a time.  :meth:`InProcessPipeline.run`
pushes each source's whole stream as one block when compiled with
``batched=True``, and one-event blocks round-robin across the sources
otherwise — serial execution is a block of one.

Any block size is licensed by the edge types: the type checker has
already established what order each edge's consumers may rely on, and
the batch kernels (see :mod:`repro.operators`) reorder only what the
edge type declares invisible — so every block size denotes the same
trace transduction as the reference semantics (``Operator.handle``, run
by :func:`~repro.dag.semantics.evaluate_dag`), and the canonical sink
traces coincide (asserted by the parity suite).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Sequence, Tuple

from repro.errors import CompilationError
from repro.dag.graph import TransductionDAG, VertexKind
from repro.dag.typecheck import typecheck_dag
from repro.operators.base import Event, Marker
from repro.operators.merge import Merge


class InProcessPipeline:
    """A compiled single-process executor for a transduction DAG.

    Feed blocks of events per source with :meth:`push_batch`; outputs
    accumulate per sink and are retrieved with :meth:`outputs`.
    :meth:`run` is the convenience over whole streams — one block per
    stream when the pipeline was compiled with ``batched=True``, one
    event per block otherwise.  Blocks of any size thread the same
    operator states, so they can be mixed freely on one instance.
    """

    def __init__(self, dag: TransductionDAG, batched: bool = False):
        typecheck_dag(dag)
        self._dag = dag
        self._batched = batched
        self._order = dag.topological_order()
        self._op_state: Dict[int, Any] = {}
        self._merge_state: Dict[int, Any] = {}
        # Implicit merges for multi-input OP vertices.
        self._implicit_merge: Dict[int, Merge] = {}
        self._outputs: Dict[str, List[Event]] = {
            sink.name: [] for sink in dag.sinks()
        }
        self._source_edges: Dict[str, int] = {}
        for vertex in self._order:
            if vertex.kind == VertexKind.SOURCE:
                (edge,) = dag.out_edges(vertex)
                self._source_edges[vertex.name] = edge.edge_id
            elif vertex.kind == VertexKind.OP:
                self._op_state[vertex.vertex_id] = vertex.payload.initial_state()
                ins = dag.in_edges(vertex)
                if len(ins) > 1:
                    merge = Merge(len(ins))
                    self._implicit_merge[vertex.vertex_id] = merge
                    self._merge_state[vertex.vertex_id] = merge.initial_state()
            elif vertex.kind == VertexKind.MERGE:
                self._op_state[vertex.vertex_id] = vertex.payload.initial_state()
            elif vertex.kind == VertexKind.SPLIT:
                raise CompilationError(
                    "the in-process backend compiles logical DAGs; express "
                    "parallelism with hints (they are ignored here)"
                )

    # ------------------------------------------------------------------

    def push_batch(self, source: str, events: Sequence[Event]) -> None:
        """Consume a block of events from the named source.

        The block is drained one epoch at a time: it is cut after each
        marker, and each piece travels the whole DAG before the next
        starts — each vertex consumes it through its batch kernel and
        forwards one output block per out-edge.  Like any block size,
        the cut is licensed by the edge types; it keeps every
        intermediate block within one epoch, so pushing a long stream
        does not build stream-sized intermediate lists.
        """
        edge_id = self._resolve_source(source)
        events = list(events)
        start = 0
        for end, event in enumerate(events, 1):
            if type(event) is Marker:
                self._push_block(edge_id, events[start:end])
                start = end
        if start < len(events):
            self._push_block(edge_id, events[start:])

    def outputs(self, sink: str) -> List[Event]:
        """Everything delivered to ``sink`` so far."""
        return list(self._outputs[sink])

    def sink_names(self) -> List[str]:
        """The DAG's sink names, in declaration order."""
        return list(self._outputs)

    # -- fault tolerance (see repro.storm.recovery) --------------------

    def snapshot(self) -> Any:
        """Checkpoint the whole pipeline: every vertex state plus the
        sink output lengths.

        Meaningful at epoch boundaries — after pushing whole marker-
        terminated blocks through every source — where the DAG is fully
        drained (the push worklists run to completion), so there is no
        in-flight data to capture.
        """
        vertices = self._dag.vertices
        return {
            "ops": {
                vertex_id: vertices[vertex_id].payload.snapshot_state(state)
                for vertex_id, state in self._op_state.items()
            },
            "merges": {
                vertex_id: self._implicit_merge[vertex_id].snapshot_state(state)
                for vertex_id, state in self._merge_state.items()
            },
            "outputs": {
                name: len(events) for name, events in self._outputs.items()
            },
        }

    def restore(self, snapshot: Any) -> None:
        """Roll the pipeline back to a :meth:`snapshot` checkpoint.

        The snapshot survives intact, so it can be restored again after
        another failure.
        """
        vertices = self._dag.vertices
        for vertex_id, snap in snapshot["ops"].items():
            self._op_state[vertex_id] = (
                vertices[vertex_id].payload.restore_state(snap)
            )
        for vertex_id, snap in snapshot["merges"].items():
            self._merge_state[vertex_id] = (
                self._implicit_merge[vertex_id].restore_state(snap)
            )
        for name, length in snapshot["outputs"].items():
            del self._outputs[name][length:]

    def run(
        self, source_events: Dict[str, Sequence[Event]]
    ) -> Dict[str, List[Event]]:
        """Evaluation over whole streams, draining fully.

        Batched pipelines move each source's stream as one block;
        unbatched ones push one-event blocks, interleaving the sources
        round-robin and dropping a source from the rotation once its
        stream is exhausted.
        """
        if self._batched:
            for name, events in source_events.items():
                self.push_batch(name, events)
            return {name: self.outputs(name) for name in self._outputs}
        cursors = [(name, iter(events)) for name, events in source_events.items()]
        while cursors:
            alive = []
            for name, iterator in cursors:
                event = next(iterator, _EXHAUSTED)
                if event is _EXHAUSTED:
                    continue
                self.push_batch(name, [event])
                alive.append((name, iterator))
            cursors = alive
        return {name: self.outputs(name) for name in self._outputs}

    # ------------------------------------------------------------------

    def _resolve_source(self, source: str) -> int:
        try:
            return self._source_edges[source]
        except KeyError:
            raise CompilationError(f"unknown source {source!r}")

    def _push_block(self, edge_id: int, events: List[Event]) -> None:
        """Move a whole block of events through the DAG at once.

        The worklist carries ``(edge_id, List[Event])`` blocks; each
        vertex consumes its block through the batch kernels, so the
        per-edge bookkeeping is paid once per block rather than once per
        event.
        """
        edges = self._dag.edges
        vertices = self._dag.vertices
        work: Deque[Tuple[int, List[Event]]] = deque()
        work.append((edge_id, events))
        while work:
            edge_id, block = work.popleft()
            if not block:
                continue
            edge = edges[edge_id]
            vertex = vertices[edge.dst]
            if vertex.kind == VertexKind.SINK:
                self._outputs[vertex.name].extend(block)
                continue
            if vertex.kind == VertexKind.MERGE:
                outputs = vertex.payload.handle_batch(
                    self._op_state[vertex.vertex_id], edge.dst_port, block
                )
                (out_edge,) = self._dag.out_edges(vertex)
                work.append((out_edge.edge_id, outputs))
                continue
            merge = self._implicit_merge.get(vertex.vertex_id)
            if merge is not None:
                block = merge.handle_batch(
                    self._merge_state[vertex.vertex_id], edge.dst_port, block
                )
                if not block:
                    continue
            outputs = vertex.payload.handle_batch(
                self._op_state[vertex.vertex_id], block
            )
            for out_edge in self._dag.out_edges(vertex):
                work.append((out_edge.edge_id, outputs))


class _Exhausted:
    """Sentinel marking a drained source iterator in ``run``."""


_EXHAUSTED = _Exhausted()


def compile_inprocess(
    dag: TransductionDAG, batched: bool = False
) -> InProcessPipeline:
    """Compile a typed DAG to the in-process backend (see module doc).

    ``batched`` only sets the block size :meth:`InProcessPipeline.run`
    uses: whole streams when true, single events otherwise — same
    canonical sink traces either way, with one batch-kernel invocation
    per block.
    """
    return InProcessPipeline(dag, batched=batched)
