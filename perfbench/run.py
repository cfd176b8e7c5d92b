"""Run one benchmark workload: parity gate first, then timed or traced.

    python3 perfbench/run.py --workload fig6-inprocess --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every run

1. builds the workload's inputs from ``--seed`` and the ``evaluate_dag``
   oracle (untimed);
2. runs the parity gate: one full pass whose per-epoch canonical sink
   blocks must equal the oracle's (``q4multi-recovery`` must also equal
   a plain crash-free run).  A mismatch exits 1 before anything is timed;
3. with ``--trace 0``, measures the end-to-end metrics of BENCHMARK.json:
   set-up time (median of repeated set-ups), peak Python heap over one
   pass, then closed-loop passes for ``--seconds`` of timed calls and at
   least 200 samples (the faster of two executions of a call, half a
   run apart), each pass checked against the oracle (WORKLOADS.md
   explains the protocol);
4. with ``--trace 1``, runs untraced reference passes and then the same
   passes with every layer wrapped (see ``layers.py``), requires the
   traced outputs (and simulated makespans) to equal the untraced ones
   exactly, and reports the per-layer metrics of BENCHMARK.json.

Human-readable lines and a ``record`` line (seed, host fingerprint, every
metric) come first; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted``/``failed`` count checked epochs (their ratio is the
mismatch rate).  The record is appended to ``.perfbench_out/results.jsonl``
and a traced run's spans are written to ``.perfbench_out/``.
Exit status: 0 when every checked epoch matched, 1 on a mismatch, 2 when
the repository sources are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig6-inprocess", "q4-sim", "q6-sim-batched", "q4multi-recovery")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repository sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import runner

    return runner.run(args)


if __name__ == "__main__":
    sys.exit(main())
