"""One run of one workload in a fresh process (started by ``run.py``).

Writes the program's outputs to ``--output`` and a small JSON report to
``--report``: the ``time.perf_counter()`` reading at the first scan call
(CLOCK_MONOTONIC, comparable with the parent's on Linux), probes sent,
faulted probes and, with ``--trace-dir``, the span snapshot of this
process plus the files its pool workers dumped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--artifact", type=Path)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--build-artifact", action="store_true")
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace_dir is not None:
        import spans

        tracer = spans.Tracer(dump_dir=args.trace_dir)
    start = time.perf_counter()
    import workloads

    if tracer is not None:
        tracer.record("run.imports", time.perf_counter() - start, start, time.perf_counter())
        spans.install(tracer)

    size = workloads.SIZES[args.size]
    report: dict = {}
    if args.build_artifact:
        workloads.build_artifact(size, args.artifact)
    else:

        def setup_done() -> None:
            report["setup_done"] = time.perf_counter()

        outcome = workloads.RUNNERS[args.workload](
            size,
            args.seed,
            args.output,
            setup_done,
            reference=args.reference,
            artifact_path=args.artifact,
            workdir=args.workdir,
        )
        report.update(probes=outcome.probes, faulted=outcome.faulted)
    if tracer is not None:
        report["covered_s"] = tracer.covered_seconds()
        report["spans"] = [tracer.snapshot()] + [
            json.loads(path.read_text())
            for path in sorted(args.trace_dir.glob("worker-*.json"))
        ]
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
