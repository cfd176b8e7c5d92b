"""Pinned digests of simulator reports: the event loop's safety net.

Each case runs a compiled topology (the iot pipeline or Yahoo Query IV)
on the discrete-event simulator under one seed, one batching mode and
one fault scenario, and hashes the resulting
:class:`~repro.storm.simulator.SimulationReport`: makespan, per-component
``processed``/``emitted`` counts, sink events and their delivery times,
per-machine busy time, marker emit times and the recovery statistics.
Any change to the simulated schedule, however small (the last ulp of a
float sum counts), changes a digest, so a refactor of the simulator must
leave every one of them unchanged.

Instrumented runs (tracer, metrics and monitors all on) must reproduce
the uninstrumented digest exactly.

A second set of cases pins the cost paths the default
:class:`~repro.storm.costs.UniformCostModel` never reaches: Yahoo Query
IV under the fused per-vertex cost model with a
:class:`~repro.bench.MarkerTriggerCost` entry, iot under a cost model
that charges receiver-side CPU per remote tuple, and Yahoo Query VI with
micro-batching and type-licensed combiners under its fused cost model.

To print the current digests (for a deliberate change of the simulated
schedule)::

    PYTHONPATH=src python tests/test_sim_report_digests.py
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.apps.iot.pipeline import iot_typed_dag
from repro.apps.iot.sensors import SensorWorkload
from repro.apps.yahoo.events import YahooWorkload
from repro.apps.yahoo.queries import (
    DB_LOOKUP_COST,
    FEATURE_COST,
    KMEANS_MARKER_COST,
    WINDOW_UPDATE_COST,
    query4,
    query6,
)
from repro.bench import MarkerTriggerCost, fused_cost_model
from repro.compiler import compile_dag
from repro.compiler.compile import source_from_events
from repro.obs import ObsContext
from repro.obs.monitor import MonitorHub
from repro.storm.batching import BatchingOptions
from repro.storm.cluster import Cluster
from repro.storm.costs import CostModel
from repro.storm.faults import CrashFault, EdgeFaults, FaultPlan, MachineFault
from repro.storm.recovery import RecoveryOptions
from repro.storm.simulator import Simulator

SEEDS = (0, 1, 2)
BATCHING = ("serial", "batched")
FAULTS = ("none", "raw-edge", "crash-edge", "machine-loss")

_IOT_EVENTS = SensorWorkload(n_sensors=3, duration=30, marker_period=10).events()
_Q4_WORKLOAD = YahooWorkload(
    seconds=3, events_per_second=40, n_campaigns=4, ads_per_campaign=4,
    n_users=20,
)
_Q4_EVENTS = _Q4_WORKLOAD.events()


def _iot():
    return compile_dag(
        iot_typed_dag(parallelism=2),
        {"SENSOR": source_from_events(_IOT_EVENTS, parallelism=2)},
    )


def _q4():
    return compile_dag(
        query4(_Q4_WORKLOAD.make_database(), parallelism=2),
        {"events": source_from_events(_Q4_EVENTS, parallelism=2)},
    )


def _q6():
    return compile_dag(
        query6(_Q4_WORKLOAD.make_database(), parallelism=2),
        {"events": source_from_events(_Q4_EVENTS, parallelism=2)},
    )


#: topology factory, the bolt a crash targets, and the simulated time of
#: the permanent machine loss (a third to a half of a fault-free run;
#: ``None`` where no machine-loss case runs).
TOPOLOGIES = {
    "iot": (_iot, "Map", 1e-4),
    "q4": (_q4, "FilterMap", 1e-4),
    "q6": (_q6, "Features", None),
}


class RemoteCpuCostModel(CostModel):
    """Default costs plus receiver-side CPU per cross-machine tuple."""

    remote_cpu = 2e-6


def _q4_costs():
    # MarkerTriggerCost entries are stateful: one cost model per run.
    return fused_cost_model({
        "FilterMap": DB_LOOKUP_COST,
        "Count10s": MarkerTriggerCost(WINDOW_UPDATE_COST, 50e-6),
    })


def _q6_costs():
    return fused_cost_model({
        "Locate": DB_LOOKUP_COST,
        "Features": MarkerTriggerCost(FEATURE_COST, 50e-6),
        "Cluster": MarkerTriggerCost(WINDOW_UPDATE_COST, KMEANS_MARKER_COST),
    })


#: cost-path scenario -> (topology, cost model factory, batching mode).
COST_PATHS = {
    "q4fused": ("q4", _q4_costs, "serial"),
    "iotremote": ("iot", RemoteCpuCostModel, "serial"),
    "q6fused": ("q6", _q6_costs, "batched"),
}
COST_FAULTS = ("none", "crash-edge")


def _fault_setup(fault, crash_target, machine_loss_at, seed):
    """``(FaultPlan or None, RecoveryOptions or None)`` for a scenario."""
    edges = EdgeFaults(drop=0.05, duplicate=0.05, reorder=0.1)
    if fault == "none":
        return None, None
    if fault == "raw-edge":
        return FaultPlan(default_edge=edges, seed=seed), None
    if fault == "crash-edge":
        plan = FaultPlan(
            crashes=(CrashFault(crash_target, task=0, after_executions=8),),
            default_edge=edges, seed=seed,
        )
        return plan, RecoveryOptions()
    plan = FaultPlan(
        machine_faults=(MachineFault(0, machine_loss_at, permanent=True),),
        seed=seed,
    )
    return plan, RecoveryOptions()


def simulate(topology, seed, batching, fault, obs=False, cost_model=None):
    build, crash_target, machine_loss_at = TOPOLOGIES[topology]
    compiled = build()
    faults, recovery = _fault_setup(fault, crash_target, machine_loss_at, seed)
    context = None
    if obs:
        context = ObsContext.collecting(monitors=MonitorHub.for_compiled(compiled))
    return Simulator(
        compiled.topology, Cluster(3, cores_per_machine=2),
        cost_model=cost_model, seed=seed,
        batching=(BatchingOptions.for_compiled(compiled)
                  if batching == "batched" else None),
        faults=faults, recovery=recovery, obs=context,
    ).run()


def report_digest(report) -> str:
    """SHA-256 (first 16 hex digits) over the report's stable fields.

    Floats enter through ``repr``, which round-trips exactly, so a
    one-ulp change shows.  Dicts are sorted by ``repr`` of their keys,
    so the digest does not depend on insertion order."""

    def items(mapping):
        return sorted(mapping.items(), key=lambda kv: repr(kv[0]))

    payload = repr((
        report.makespan,
        report.input_data_tuples,
        report.input_all_tuples,
        items(report.processed),
        items(report.emitted),
        items(report.sink_events),
        items(report.sink_delivery_times),
        items(report.machine_busy),
        items(report.marker_emit_times),
        None if report.recovery is None else items(report.recovery.to_dict()),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def case_id(topology, seed, batching, fault) -> str:
    return f"{topology}-s{seed}-{batching}-{fault}"


CASES = [
    case_id(*case)
    for case in itertools.product(("iot", "q4"), SEEDS, BATCHING, FAULTS)
]

COST_CASES = [
    f"{path}-s{seed}-{fault}"
    for path, seed, fault in itertools.product(COST_PATHS, SEEDS, COST_FAULTS)
]

DIGESTS = {
    "iot-s0-serial-none": "e608deaa3cf37b4a",
    "iot-s0-serial-raw-edge": "4db11804381d8062",
    "iot-s0-serial-crash-edge": "1efd21c8ef8a0b83",
    "iot-s0-serial-machine-loss": "99b78cf1e10c2afc",
    "iot-s0-batched-none": "da358d0841e245af",
    "iot-s0-batched-raw-edge": "3c06c5f63fb4c7d9",
    "iot-s0-batched-crash-edge": "f15cbd79e530c3e5",
    "iot-s0-batched-machine-loss": "a63e0f002bd191b2",
    "iot-s1-serial-none": "c1d111de4495411d",
    "iot-s1-serial-raw-edge": "0be752cb2071cffd",
    "iot-s1-serial-crash-edge": "903f13293897ba71",
    "iot-s1-serial-machine-loss": "6c22802c7bc10516",
    "iot-s1-batched-none": "34fe78a472be5aab",
    "iot-s1-batched-raw-edge": "0d00764b748d5cf7",
    "iot-s1-batched-crash-edge": "00abfdae83a57887",
    "iot-s1-batched-machine-loss": "f31c7e9d7c336447",
    "iot-s2-serial-none": "f9b1cd79eecc2c16",
    "iot-s2-serial-raw-edge": "59e57cac9d2c5d54",
    "iot-s2-serial-crash-edge": "ef60714147a96bf7",
    "iot-s2-serial-machine-loss": "157aabae4e858ff1",
    "iot-s2-batched-none": "c4816599a2dd9ef5",
    "iot-s2-batched-raw-edge": "2b966a5324388b4f",
    "iot-s2-batched-crash-edge": "a0183700cd3c662d",
    "iot-s2-batched-machine-loss": "c831fd9c73a669b7",
    "q4-s0-serial-none": "561e2f78fa9aaaf8",
    "q4-s0-serial-raw-edge": "e9e154ce7e387dbb",
    "q4-s0-serial-crash-edge": "936f9b303f3bbe04",
    "q4-s0-serial-machine-loss": "664c537cdb25dbc2",
    "q4-s0-batched-none": "7f252e90421bed4e",
    "q4-s0-batched-raw-edge": "b5e10f932cbd3280",
    "q4-s0-batched-crash-edge": "d338f982fdd522de",
    "q4-s0-batched-machine-loss": "1254a2faa8917251",
    "q4-s1-serial-none": "257003bfa5405a28",
    "q4-s1-serial-raw-edge": "1e68d4147d91f66c",
    "q4-s1-serial-crash-edge": "63d5b34172de9f09",
    "q4-s1-serial-machine-loss": "c6053dd2f4113d1a",
    "q4-s1-batched-none": "c4b607fbe274be1e",
    "q4-s1-batched-raw-edge": "662e82631cdf50de",
    "q4-s1-batched-crash-edge": "9834c2359aec983e",
    "q4-s1-batched-machine-loss": "4cb42230e2a3b6a0",
    "q4-s2-serial-none": "b40a51c456fa07b4",
    "q4-s2-serial-raw-edge": "daa0508dda6db73f",
    "q4-s2-serial-crash-edge": "40941981ab3c20aa",
    "q4-s2-serial-machine-loss": "969ff1dbb32dad91",
    "q4-s2-batched-none": "73d558dcc60f297f",
    "q4-s2-batched-raw-edge": "01f0b7e25a1ba297",
    "q4-s2-batched-crash-edge": "2d70d522da62457a",
    "q4-s2-batched-machine-loss": "b712b3674b198d86",
}


COST_DIGESTS = {
    "q4fused-s0-none": "b4d779ec37c0cfb6",
    "q4fused-s0-crash-edge": "5946616444361fd6",
    "q4fused-s1-none": "d2dd2b483f0b3932",
    "q4fused-s1-crash-edge": "288a481b6a4ecec6",
    "q4fused-s2-none": "620845c9203084d6",
    "q4fused-s2-crash-edge": "a1cef7aa3aaa0646",
    "iotremote-s0-none": "f24c8570d391856e",
    "iotremote-s0-crash-edge": "27f54380875462ca",
    "iotremote-s1-none": "41374c010f808b75",
    "iotremote-s1-crash-edge": "846168f57e961d68",
    "iotremote-s2-none": "428fe9ea92d799cf",
    "iotremote-s2-crash-edge": "8af24805d6c5c1d4",
    "q6fused-s0-none": "8900d37eec970c2c",
    "q6fused-s0-crash-edge": "e233a6bb85346b97",
    "q6fused-s1-none": "db3b6d148bb6e858",
    "q6fused-s1-crash-edge": "72102588dfccf54d",
    "q6fused-s2-none": "f376a8aec6b7c117",
    "q6fused-s2-crash-edge": "4d1a88202472926f",
}


def _parse(case):
    topology, seed, batching, fault = case.split("-", 3)
    return topology, int(seed[1:]), batching, fault


def simulate_cost_case(case, obs=False):
    path, seed, fault = case.split("-", 2)
    topology, cost_model, batching = COST_PATHS[path]
    return simulate(
        topology, int(seed[1:]), batching, fault, obs=obs,
        cost_model=cost_model(),
    )


@pytest.mark.parametrize("case", CASES)
def test_report_digest_is_pinned(case):
    assert report_digest(simulate(*_parse(case))) == DIGESTS[case]


@pytest.mark.parametrize(
    "case", [case for case in CASES if "-serial-" in case]
)
def test_instrumented_report_digest_is_pinned(case):
    assert report_digest(simulate(*_parse(case), obs=True)) == DIGESTS[case]


@pytest.mark.parametrize("case", COST_CASES)
def test_cost_path_digest_is_pinned(case):
    assert report_digest(simulate_cost_case(case)) == COST_DIGESTS[case]


@pytest.mark.parametrize("case", COST_CASES)
def test_instrumented_cost_path_digest_is_pinned(case):
    assert report_digest(simulate_cost_case(case, obs=True)) == COST_DIGESTS[case]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": "{report_digest(simulate(*_parse(case)))}",')
    for case in COST_CASES:
        print(f'    "{case}": "{report_digest(simulate_cost_case(case))}",')
