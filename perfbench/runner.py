"""Passes, timing, tracing and reporting of one benchmark run (see run.py)."""

from __future__ import annotations

import gc
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

import layers
from harness import (
    Ledger,
    check_metric_name,
    host_factors,
    host_fingerprint,
    percentile,
    time_calibration,
)
from tracing import Tracer, self_times, span_counts, write_spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Enough samples that the 95th percentile has ten beyond it.
MIN_SAMPLES = 200
#: Set-ups timed before each timed pass; ``setup_s`` is their median,
#: so its samples are spread over the whole run.
SETUPS_PER_PASS = 3
#: Set-ups of the traced run; the ``setup.*`` layers are their medians.
TRACED_SETUPS = 31

#: Per-layer metric of each span's self time, where it is not
#: ``<span>.s``.
SELF_METRIC = {
    "inprocess.push_batch": "inprocess.worklist_s",
    "sim.run": "sim.engine_self_s",
    "recovery.run": "recovery.driver_s",
    "recovery.snapshot": "recovery.snapshot_s",
    "recovery.restore": "recovery.restore_s",
    "merge.align": "merge.align_s",
    "db.lookup": "db.lookup_s",
    "sim.cost": "sim.cost_s",
    "sim.spout": "sim.spout_s",
}


def run_calls(one_pass, latencies=None, calibration=None):
    """Run a pass's calls in order, timing each.

    With a ``calibration`` list, the calibration kernel is timed before
    every call, outside the call's own timing.  Returns ``(seconds inside
    calls, raised)``; a call that raises ends the pass.
    """
    busy = 0.0
    for i, (call, _) in enumerate(one_pass.calls):
        if calibration is not None:
            calibration.append(time_calibration())
        start = time.perf_counter()
        try:
            call()
        except Exception:
            traceback.print_exc()
            if calibration is not None:
                calibration.pop()
            return busy, True
        elapsed = time.perf_counter() - start
        busy += elapsed
        if latencies is not None:
            latencies.append(elapsed)
        one_pass.after_call(i)
    return busy, False


def check_pass(one_pass, ledger, raised):
    """Check a pass against the oracle; a pass that raised fails every epoch."""
    attempted, failed, signature = one_pass.check()
    ledger.add(attempted, attempted if raised else failed)
    return signature


def measure(workload, ledger, seconds):
    """The end-to-end metrics (tracing off).

    Every execution is scaled to the reference host speed by the
    calibration kernel timed before it (see ``harness.host_factors``).
    Pass ``k`` of the first half of the run is then paired with pass ``k``
    of the second half, and each call's sample is the faster of its two
    executions (see WORKLOADS.md).  The raw figures go to the record.
    """
    gc.collect()
    tracemalloc.start()
    try:
        one_pass = workload.new_pass()
        _, raised = run_calls(one_pass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    check_pass(one_pass, ledger, raised)

    gc.collect()
    latencies, calibration, setups, passes, busy = [], [], [], [], 0.0
    started = time.perf_counter()
    cap = max(3 * seconds, seconds + 60)
    while busy < seconds or len(passes) // 2 * len(one_pass.calls) < MIN_SAMPLES:
        if time.perf_counter() - started > cap:
            print(f"warning: stopped after {len(passes)} passes at the "
                  f"{cap:.0f} s cap", file=sys.stderr)
            break
        for _ in range(SETUPS_PER_PASS):
            start = time.perf_counter()
            workload.setup()
            setups.append((len(calibration), time.perf_counter() - start))
        one_pass = workload.new_pass()
        first = len(latencies)
        spent, raised = run_calls(one_pass, latencies, calibration)
        busy += spent
        if not raised:
            events = sum(n_events for _, n_events in one_pass.calls)
            passes.append((first, len(latencies), events))
        check_pass(one_pass, ledger, raised)

    factors = host_factors(calibration)
    scaled = [t * f for t, f in zip(latencies, factors)]
    half = len(passes) // 2
    samples, rates, raw_rates = [], [], []
    for (a, b, events), (c, d, _) in zip(passes[:half], passes[half:2 * half]):
        pair = [min(x, y) for x, y in zip(scaled[a:b], scaled[c:d])]
        samples.extend(pair)
        rates.append(events / sum(pair))
        raw_rates.append(events / sum(min(x, y) for x, y in zip(latencies[a:b], latencies[c:d])))
    p50, _ = percentile(samples, 50)
    p95, beyond = percentile(samples, 95)
    last = len(factors) - 1
    values = {
        "events_per_s": median(rates),
        "call_latency_p50_ms": p50 * 1e3,
        "call_latency_p95_ms": p95 * 1e3,
        "setup_s": median([t * factors[min(i, last)] for i, t in setups]),
        "peak_mem_mb": peak / 2**20,
    }
    facts = {
        "samples": len(samples), "passes": len(passes), "setups": len(setups),
        "p95_samples_beyond": beyond, "timed_s": busy,
        "calibration_median_s": median(calibration),
        "raw_events_per_s": median(raw_rates),
        "raw_call_latency_p50_ms": percentile(latencies, 50)[0] * 1e3,
        "raw_call_latency_p95_ms": percentile(latencies, 95)[0] * 1e3,
        "raw_setup_s": median([t for _, t in setups]),
    }
    return values, facts, None


def traced_setups(workload):
    """Medians of the set-up layers over repeated traced set-ups."""
    tracer = Tracer()
    layers.setup(tracer)
    typecheck, compile_ = [], []
    try:
        for _ in range(TRACED_SETUPS):
            workload.setup(tracer)
            selfs = self_times(tracer.take())
            typecheck.append(selfs.get("setup.typecheck", 0.0))
            compile_.append(selfs.get("setup.compile", 0.0))
    finally:
        tracer.restore()
    return {"setup.typecheck_s": median(typecheck), "setup.compile_s": median(compile_)}


def trace(workload, ledger, names):
    """The per-layer metrics: untraced reference passes, then the same
    passes traced; their outputs must be identical."""
    n_passes = workload.traced_passes
    reference, reference_wall = [], 0.0
    for _ in range(n_passes):
        one_pass = workload.new_pass()
        spent, raised = run_calls(one_pass)
        reference_wall += spent
        reference.append((one_pass, check_pass(one_pass, ledger, raised)))

    values = {name: 0.0 for name in names}
    values.update(traced_setups(workload))

    tracer = Tracer()
    workload.shared_layers(tracer)
    traced, traced_wall = [], 0.0
    try:
        for _ in range(n_passes):
            one_pass = workload.new_pass(tracer)
            spent, raised = run_calls(one_pass)
            traced_wall += spent
            traced.append((one_pass, check_pass(one_pass, ledger, raised)))
    finally:
        tracer.restore()
    for (_, reference_sig), (_, traced_sig) in zip(reference, traced):
        if reference_sig != traced_sig:
            print("traced run changed the output", file=sys.stderr)
            ledger.add(len(workload.expected), len(workload.expected))

    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    for span, seconds in selfs.items():
        metric = SELF_METRIC.get(span, span + ".s")
        if metric not in values:
            raise KeyError(f"span {span!r} has no per-layer metric {metric!r}")
        values[metric] += seconds
    for key, count in counts.items():
        if key in values:
            values[key] = count
    n_spans = span_counts(spans)
    values["db.lookups"] = n_spans["db.lookup"]
    values["recovery.checkpoints"] = n_spans["recovery.snapshot"]
    values["trace.calls"] = sum(len(p.calls) for p, _ in traced)
    values["trace.spans"] = len(spans)
    values["trace.coverage"] = sum(selfs.values()) / traced_wall
    values["trace.overhead_frac"] = traced_wall / reference_wall - 1.0
    values.update(workload.derived_layers(
        [p for p, _ in reference], [p for p, _ in traced], counts, reference_wall,
    ))

    facts = {"traced_passes": n_passes, "untraced_s": reference_wall,
             "traced_s": traced_wall}
    return values, facts, spans


def run(args) -> int:
    """One run as ``run.py`` describes it; returns the exit status."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    for name in units:
        check_metric_name(name)

    workload = WORKLOADS[args.workload](args.seed)
    # The inputs and the oracle are the benchmark's fixtures, not the
    # program's objects: keep full collections from traversing them.
    # The collector stays enabled with its default thresholds.
    gc.collect()
    gc.freeze()
    ledger = Ledger()

    gate = workload.new_pass()
    _, raised = run_calls(gate)
    check_pass(gate, ledger, raised)
    extra = workload.extra_parity()
    if extra is not None:
        n_epochs = len(workload.expected)
        ledger.add(n_epochs, 0 if extra else n_epochs)

    values, facts, spans = {}, {}, None
    if ledger.failed == 0:
        if args.trace:
            values, facts, spans = trace(workload, ledger, units)
        else:
            values, facts, spans = measure(workload, ledger, args.seconds)
    missing = set(units) - set(values)
    if ledger.failed == 0 and missing:
        raise KeyError(f"metrics not produced: {sorted(missing)}")

    for name, value in values.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    print(f"{'mismatch_rate':36s} {ledger.mismatch_rate:>16.6g} "
          f"({ledger.failed}/{ledger.attempted} epochs)")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(),
        "mismatch_rate": ledger.mismatch_rate, "facts": facts, "metrics": values,
    }
    print("record " + json.dumps(record, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json.gz",
                    spans, {k: record[k] for k in ("workload", "seed", "host")})

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1

