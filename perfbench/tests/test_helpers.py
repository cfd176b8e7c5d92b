"""Self-tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import check_metric_name, failed_epochs, percentile
from repro.operators.base import KV, Marker
from tracing import Tracer, self_times, span_counts
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile with sample count ------------------------------------------


def test_p95_of_200_samples_has_ten_beyond():
    values = list(range(1, 201))
    assert percentile(values, 95) == (190, 10)
    assert percentile(values, 50) == (100, 100)


def test_p95_of_199_samples_has_nine_beyond():
    assert percentile(list(range(199)), 95)[1] == 9


def test_percentile_ignores_input_order_and_handles_one_sample():
    assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)
    assert percentile([7.5], 95) == (7.5, 0)


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


# -- epoch splitting and per-epoch parity ------------------------------------

ORACLE = [KV("a", 1), KV("b", 2), Marker(1), KV("a", 3), KV("a", 4), Marker(2)]


def _expected(ordered):
    from harness import epoch_blocks

    return epoch_blocks(ORACLE, ordered)[0]


def test_epochs_compare_as_bags_on_unordered_sinks():
    reordered = [KV("b", 2), KV("a", 1), Marker(1), KV("a", 4), KV("a", 3), Marker(2)]
    assert failed_epochs(reordered, _expected(False), False) == set()


def test_epochs_keep_per_key_order_on_ordered_sinks():
    other_key_first = [KV("b", 2), KV("a", 1), Marker(1), KV("a", 3), KV("a", 4), Marker(2)]
    assert failed_epochs(other_key_first, _expected(True), True) == set()
    swapped = [KV("a", 1), KV("b", 2), Marker(1), KV("a", 4), KV("a", 3), Marker(2)]
    assert failed_epochs(swapped, _expected(True), True) == {1}


def test_wrong_and_missing_epochs_fail_individually():
    wrong_first = [KV("a", 1), Marker(1), KV("a", 3), KV("a", 4), Marker(2)]
    assert failed_epochs(wrong_first, _expected(False), False) == {0}
    assert failed_epochs(ORACLE[:3], _expected(False), False) == {1}
    assert failed_epochs([], _expected(False), False) == {0, 1}


def test_epochs_are_cut_at_markers_not_timestamps():
    wrong_marker = ORACLE[:2] + [Marker(9)] + ORACLE[3:]
    assert failed_epochs(wrong_marker, _expected(False), False) == {0}


def test_output_past_the_last_epoch_fails_the_last_epoch():
    assert failed_epochs(ORACLE + [KV("z", 0)], _expected(False), False) == {1}
    assert failed_epochs(ORACLE + [Marker(3)], _expected(False), False) == {1}


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "kernel.SORT1.s", "a-b.c_d", "9lives", "x" * 64])
def test_legal_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", ".s", "_s", "a b", "a/b", "späť", "x" * 65, "a\n"])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_spec_names_and_units_are_legal_and_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_metric_name(name)
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_workload_names_agree():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(run.WORKLOADS) == list(WORKLOADS)


# -- spans and self time -----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 15, 25, 1),
        ("c", 50, 90, 0),
        ("b", 60, 70, 3),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"root": 30e-9, "a": 20e-9, "b": 20e-9, "c": 30e-9})
    assert sum(selfs.values()) == pytest.approx(100e-9)
    assert span_counts(spans) == {"root": 1, "a": 1, "b": 2, "c": 1}


class _Kernel:
    def outer(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


def test_tracer_nests_spans_counts_calls_and_restores():
    kernel = _Kernel()
    tracer = Tracer()
    tracer.wrap(kernel, "outer", "outer",
                lambda counts, args, result: counts.update(out=len(result)))
    tracer.wrap(_Kernel, "inner", "inner")
    try:
        assert kernel.outer(3) == [0, 2, 4]
    finally:
        tracer.restore()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0), ("inner", 0)]
    assert tracer.counts["out"] == 3
    assert "outer" not in vars(kernel) and _Kernel.inner(kernel, 1) == 2
    assert all(end >= start for _, start, end, _ in tracer.spans)
    taken = tracer.take()
    assert len(taken) == 4 and tracer.spans == []


def test_tracer_records_spans_of_calls_that_raise():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.traced(boom, "boom")()
    assert [s[0] for s in tracer.spans] == ["boom"]
    assert tracer._stack == [-1]


# -- the benchmark without the repository -------------------------------------


def test_run_fails_without_repository_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "q4-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode not in (0, None)
    assert '"correct"' not in done.stdout
