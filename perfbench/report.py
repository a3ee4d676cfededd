"""Every workload in one command: end-to-end metrics and workload properties.

    python3 perfbench/report.py

Runs ``run.py`` untraced and traced for each workload at the default
seed and ``BENCHMARK.json``'s ``run_seconds``, and prints the end-to-end
metrics with their units, the output check, the failed probes of both
runs, ``probe_fail_ratio``, and the properties an optimisation may rely
on: how much of the LPM work a block cache could reuse
(``bgp.block_reuse_share``), how many targets were realised and how many
probes the kernel processed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
METRICS = json.loads((BENCH / "metrics.json").read_text())
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
SEED = 1
PROPERTIES = (
    "probe_fail_ratio",
    "bgp.block_reuse_share",
    "targets.count",
    "netsim.probes",
    "trace.uncovered_share",
)


def bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", str(SECONDS),
            "--trace", str(trace),
        ],  # fmt: skip
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: {completed.stderr.strip()}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    names = list(METRICS["end_to_end"]) + list(PROPERTIES)
    print(f"{'workload':<13} {'output':<8} {'failed':>14}  " + "  ".join(names))
    for workload in METRICS["workloads"]:
        untraced = bench(workload, 0)
        traced = bench(workload, 1)
        metrics = {**untraced["metrics"], **traced["metrics"]}
        ok = untraced["correct"] and traced["correct"]
        failed = "{}/{}".format(
            untraced["failed"] + traced["failed"],
            untraced["attempted"] + traced["attempted"],
        )
        cells = [f"{metrics[n]['value']:.4g} {metrics[n]['unit']}" for n in names]
        print(f"{workload:<13} {'ok' if ok else 'WRONG':<8} {failed:>14}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
