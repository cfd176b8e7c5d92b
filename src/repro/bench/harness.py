"""Throughput measurement on the simulated cluster.

Cost assembly: experiments declare per-*vertex* CPU costs; compiled
topologies fuse vertices into components named ``"A;B;C"``, so
:func:`fused_cost_model` resolves a component's cost as the sum of its
members' costs (a fused chain does all its members' work in one task).
Compiled components additionally pay a small per-tuple *glue* charge for
the merge-frontend bookkeeping the compiler generates; hand-crafted
bolts pay a slightly smaller charge for their manual marker tracking.
These charges (defaults below) are the substitution for the framework
overhead measured on the paper's testbed and are recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import ObsContext
from repro.operators.base import Event, Marker
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster
from repro.storm.costs import PerComponentCostModel
from repro.storm.simulator import SimulationReport, Simulator
from repro.storm.topology import Topology

#: Per-tuple charge for compiler-generated merge/alignment glue.
GENERATED_GLUE_COST = 0.25e-6
#: Per-tuple charge for hand-rolled marker tracking.
HANDCRAFTED_GLUE_COST = 0.15e-6
#: Default per-tuple cost for components without a declared cost.
DEFAULT_VERTEX_COST = 0.5e-6


def _resolve_vertex(name: str, vertex_costs: Dict[str, Any]) -> Optional[Any]:
    """Vertex cost by name, tolerating the compiler's ``.1`` dedup suffix."""
    if name in vertex_costs:
        return vertex_costs[name]
    base = name.rsplit(".", 1)[0]
    return vertex_costs.get(base)


class MarkerTriggerCost:
    """Cost entry for operators whose heavy work fires once per *aligned*
    marker.

    A task receives every marker timestamp once per upstream channel, but
    the blocking computation (window flush, k-means run, batch persist)
    triggers only when the timestamp completes across all channels —
    i.e. once per task per timestamp.  This entry charges ``trigger_cost``
    on the first delivery of a timestamp to a task and ``forward_cost``
    on repeats; key-value tuples cost ``item_cost``.

    Instances are stateful (they remember seen timestamps per task), so
    build a fresh instance per simulation (see the bench modules'
    ``vertex_costs_for`` factories).
    """

    def __init__(
        self,
        item_cost: float,
        trigger_cost: float,
        forward_cost: float = 0.5e-6,
    ):
        self.item_cost = item_cost
        self.trigger_cost = trigger_cost
        self.forward_cost = forward_cost
        self._seen: set = set()

    def cost(self, event: Event, task_index: int) -> float:
        if not isinstance(event, Marker):
            return self.item_cost
        key = (task_index, event.timestamp)
        if key in self._seen:
            return self.forward_cost
        self._seen.add(key)
        return self.trigger_cost

    def __call__(self, event: Event) -> float:  # plain-callable fallback
        return self.cost(event, 0)


class FusedCostModel(PerComponentCostModel):
    """Resolves fused component names ``"A;B;C"`` as sums of vertex costs."""

    def __init__(
        self,
        vertex_costs: Dict[str, Any],
        glue_cost: float = GENERATED_GLUE_COST,
        default: float = DEFAULT_VERTEX_COST,
    ):
        super().__init__({}, default=default)
        self._vertex_costs = dict(vertex_costs)
        self._glue = glue_cost
        self._resolved: Dict[str, Callable[[Event, int], float]] = {}
        self._vertex_entries: Dict[str, Any] = {}

    def cpu_cost(self, component: str, event: Event, task_index: int = 0) -> float:
        fn = self._resolved.get(component)
        if fn is None:
            fn = self._build(component)
            self._resolved[component] = fn
        return fn(event, task_index)

    def vertex_cost(self, vertex: str, event: Event, task_index: int = 0) -> float:
        """Cost of one chain member processing one event (no glue)."""
        entry = self._vertex_entries.get(vertex)
        if entry is None:
            entry = _resolve_vertex(vertex, self._vertex_costs)
            if entry is None:
                entry = self._default
            self._vertex_entries[vertex] = entry
        if isinstance(entry, MarkerTriggerCost):
            return entry.cost(event, task_index)
        if callable(entry):
            return entry(event)
        return entry

    def glue_cost(self, component: str, event: Event) -> float:
        return self._glue

    def _build(self, component: str) -> Callable[[Event, int], float]:
        parts = component.split(";")
        entries = []
        for part in parts:
            cost = _resolve_vertex(part, self._vertex_costs)
            entries.append(self._default if cost is None else cost)
        glue = self._glue

        def total(event: Event, task_index: int) -> float:
            acc = glue
            for entry in entries:
                if isinstance(entry, MarkerTriggerCost):
                    acc += entry.cost(event, task_index)
                elif callable(entry):
                    acc += entry(event)
                else:
                    acc += entry
            return acc

        return total


def fused_cost_model(
    vertex_costs: Dict[str, Any],
    generated: bool = True,
    default: float = DEFAULT_VERTEX_COST,
) -> FusedCostModel:
    """Cost model for a compiled (``generated=True``) or hand-crafted
    topology over the same per-vertex cost table."""
    glue = GENERATED_GLUE_COST if generated else HANDCRAFTED_GLUE_COST
    return FusedCostModel(vertex_costs, glue_cost=glue, default=default)


@dataclass
class ScalingPoint:
    """One point of a throughput-vs-machines curve."""

    machines: int
    throughput: float
    makespan: float
    report: SimulationReport

    def __repr__(self):
        return f"ScalingPoint({self.machines} -> {self.throughput:,.0f} tup/s)"


def measure_throughput(
    topology: Topology,
    n_machines: int,
    cost_model,
    seed: int = 1,
    cores_per_machine: int = 2,
    obs: Optional[ObsContext] = None,
    batching: Optional[BatchingOptions] = None,
) -> SimulationReport:
    """Run one simulated execution and return its report.

    Pass an enabled ``obs`` context to collect the run's metrics and
    marker-epoch trace alongside the report (see :mod:`repro.obs`);
    pass ``batching`` to run the epoch-batched engine (see
    :mod:`repro.storm.batching`)."""
    cluster = Cluster(n_machines, cores_per_machine=cores_per_machine)
    simulator = Simulator(
        topology, cluster, cost_model=cost_model, seed=seed, obs=obs,
        batching=batching,
    )
    return simulator.run()


def sweep_machines(
    build: Callable[[int], Topology],
    cost_model_for: Callable[[int], Any],
    machines: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    seed: int = 1,
    cores_per_machine: int = 2,
) -> List[ScalingPoint]:
    """Throughput-vs-machines sweep.

    ``build(n)`` constructs the topology configured for ``n`` machines
    (parallelism hints scaled with the cluster, as the paper's
    experiments do); ``cost_model_for(n)`` supplies the cost model.
    """
    points: List[ScalingPoint] = []
    for n in machines:
        report = measure_throughput(
            build(n), n, cost_model_for(n), seed=seed,
            cores_per_machine=cores_per_machine,
        )
        points.append(
            ScalingPoint(n, report.throughput(), report.makespan, report)
        )
    return points
