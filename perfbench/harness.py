"""Statistics, parity and bookkeeping helpers of the benchmark runner.

Everything here is engine-agnostic: percentiles with their sample
support, per-epoch canonical comparison against the ``evaluate_dag``
oracle, metric-name validation and the host fingerprint every result
record carries.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import re
import statistics
import time
from collections import namedtuple
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.dag.graph import TransductionDAG
from repro.dag.typecheck import typecheck_dag
from repro.storm.local import events_to_trace

#: Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a legal metric name, else raise."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and its support.

    Returns ``(value, beyond)`` where ``beyond`` counts the samples
    ranked strictly above the percentile's rank; a tail percentile is
    worth reporting only when at least ten samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


#: Wall seconds the calibration kernel takes on the reference host.
#: Timings are reported scaled to that host speed (see WORKLOADS.md).
REFERENCE_KERNEL_S = 5e-3
#: Calibration samples in the rolling median behind each call's factor.
CALIBRATION_WINDOW = 9

_Row = namedtuple("_Row", "key value")


def calibration_kernel(n: int = 4000) -> int:
    """Fixed interpreter-bound work resembling stream kernels — small
    records, per-key grouping, appends, sorts and calls — that uses no
    code of the program under test."""
    groups: Dict[int, List[_Row]] = {}
    for i in range(n):
        row = _Row((i * 7919) % 257, i * 0.5)
        groups.setdefault(row.key, []).append(row)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        rows.sort(key=lambda r: -r.value)
        out.append((key, sum(r.value for r in rows), len(rows)))
    return len(out)


def time_calibration() -> float:
    """Wall seconds of one calibration kernel run.

    The collector is paused so that collecting the program's objects is
    never charged to the calibration.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_factors(samples: Sequence[float], window: int = CALIBRATION_WINDOW) -> List[float]:
    """Per-sample factor scaling a wall time to the reference host speed:
    ``REFERENCE_KERNEL_S`` over the median of the ``window`` calibration
    samples centred on the sample."""
    half = window // 2
    factors = []
    for i in range(len(samples)):
        lo = max(0, min(i - half, len(samples) - window))
        factors.append(REFERENCE_KERNEL_S / statistics.median(samples[lo:lo + window]))
    return factors


def sink_is_ordered(dag: TransductionDAG, sink: str) -> bool:
    """Whether the type checker gives the sink's input edge kind ``O``."""
    kinds = typecheck_dag(dag)
    (vertex,) = [v for v in dag.sinks() if v.name == sink]
    (edge,) = dag.in_edges(vertex)
    return kinds[edge.edge_id] == "O"


def epoch_blocks(events: Sequence[Any], ordered: bool) -> Tuple[List[Any], bool]:
    """Cut a sink stream into canonical per-epoch blocks.

    Returns the marker-closed :class:`~repro.traces.blocks.Block` list
    (block ``i`` is epoch ``i``, compared canonically: a bag for ``U``
    sinks, per-key sequences for ``O`` sinks) and whether data trails
    the last marker.
    """
    trace = events_to_trace(list(events), ordered)
    return trace.closed_blocks(), not trace.open_block().is_empty()


def failed_epochs(events: Sequence[Any], expected: Sequence[Any], ordered: bool) -> Set[int]:
    """Indices of the oracle epochs the delivered stream gets wrong.

    An epoch fails when its canonical block differs from the oracle's or
    never arrives.  Output beyond the oracle's last epoch is wrong output
    too; it is charged to the last epoch.
    """
    got, trailing = epoch_blocks(events, ordered)
    failed = {
        i for i, want in enumerate(expected) if i >= len(got) or got[i] != want
    }
    if expected and (trailing or len(got) > len(expected)):
        failed.add(len(expected) - 1)
    return failed


def host_fingerprint() -> Dict[str, Any]:
    """Python version, platform and usable CPU count (``nproc``)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": nproc,
    }


class Ledger:
    """Attempted and failed epochs over every checked pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    @property
    def mismatch_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
