"""End-to-end scan benchmark: ``survey``, ``rescan`` and ``sharded-scan``.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload is a batch job a user waits
for (a Table 2 campaign, the Fig. 5/6 re-scans, an ``sra-scan`` over an
artifact world).  The load is a closed loop of one job at a time: every
repetition is a fresh Python process with GC on, started only after the
previous one exited, until ``--seconds`` have passed (at least
``MIN_REPS`` times).  Reported values are medians over repetitions.
Repetitions of the single-process workloads are pinned round-robin to
the usable CPUs, so every run samples each CPU alike.

Before the timed repetitions the benchmark builds the workload's inputs
from ``--seed`` (for ``sharded-scan`` the world artifact, built once
per run as users reuse one by fingerprint) and runs a *reference*
configuration that the program promises gives identical outputs.  Every
repetition's output digest must equal the stored digest for the seed
(``expected_digests.json``) or, for other seeds, the reference digest; a
repetition that differs, crashes or times out counts all its probes as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions of the same inputs and prints the
per-layer metrics; spans are taken by wrapping the program's public
functions from ``spans.py``.  Metric meanings, units and the end-to-end
metric each layer should move are in ``metrics.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (probes) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
METRICS = json.loads((BENCH / "metrics.json").read_text())
EXPECTED = json.loads((BENCH / "expected_digests.json").read_text())
WORKLOADS = tuple(METRICS["workloads"])

MIN_REPS = 3
# A run must end within 180 s; leave room for the last repetition.
RUN_BUDGET_S = 170.0
CHILD_TIMEOUT_S = 120.0
# Single-process workloads.  Left alone, the kernel keeps each fresh child
# on the CPU it was spawned from, so a whole run would sample one vCPU's
# speed; their repetitions are pinned round-robin over the usable CPUs.
SERIAL = ("survey", "rescan")


@dataclass
class Rep:
    """One finished child process."""

    ok: bool
    wall: float = 0.0
    setup: float = 0.0
    rss_mib: float = 0.0
    digest: str = ""
    report: dict = field(default_factory=dict)
    error: str = ""


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], workdir: Path, timeout: float) -> Rep:
    """Run ``child.py`` once; time it from spawn to exit and take the peak
    RSS of it and every process it reaped (its pool workers)."""
    report = workdir / "report.json"
    output = workdir / "output"
    for path in (report, output):
        path.unlink(missing_ok=True)
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        *args,
        "--report",
        str(report),
        "--output",
        str(output),
        "--workdir",
        str(workdir),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    errors = workdir / "child.err"
    with open(errors, "wb") as stderr:
        start = time.perf_counter()
        # Its own process group, so a timeout or an interrupt stops the
        # child's pool workers along with it.
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = errors.read_text(errors="replace").strip().splitlines()[-5:]
        return Rep(ok=False, error=f"exit {proc.returncode}: " + " | ".join(tail))
    rep = Rep(
        ok=True,
        wall=end - start,
        # ru_maxrss is KiB on Linux.
        rss_mib=usage.ru_maxrss / 1024.0,
        report=json.loads(report.read_text()),
    )
    if "setup_done" in rep.report:
        rep.setup = rep.report["setup_done"] - start
    if output.exists():
        rep.digest = hashlib.sha256(output.read_bytes()).hexdigest()
    return rep


@dataclass
class Tally:
    """Probe accounting and output checks over the timed repetitions."""

    expected_digest: str
    expected_probes: int
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    crashed: int = 0

    def score(self, rep: Rep) -> bool:
        """Count one repetition; True when its outputs are correct."""
        self.attempted += self.expected_probes
        if not rep.ok:
            self.crashed += 1
            self.failed += self.expected_probes
            return False
        if (
            rep.digest != self.expected_digest
            or rep.report["probes"] != self.expected_probes
        ):
            self.mismatched += 1
            self.failed += self.expected_probes
            return False
        self.failed += rep.report["faulted"]
        return True


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r.wall for r in reps),
        "setup_s": statistics.median(r.setup for r in reps),
        "probes_per_s": statistics.median(
            r.report["probes"] / (r.wall - r.setup) for r in reps
        ),
        "peak_rss_mib": statistics.median(r.rss_mib for r in reps),
    }


def per_layer(
    traced: list[Rep], untraced: list[Rep], artifact_spans: dict | None, tally: Tally
) -> dict[str, float]:
    runs = []
    for rep in traced:
        layers = spans.layer_metrics(rep.report["spans"], artifact_spans)
        layers["trace.uncovered_share"] = 1.0 - rep.report["covered_s"] / rep.wall
        runs.append(layers)
    metrics = spans.median_metrics(runs)
    metrics["trace.overhead_share"] = (
        statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in untraced)
        - 1.0
    )
    metrics["probe_fail_ratio"] = tally.failed / tally.attempted
    return metrics


def bench(args, workdir: Path, begin: float) -> int:
    base = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
    ]  # fmt: skip
    trace_dir = workdir / "spans"

    def traced_args() -> list[str]:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        return ["--trace-dir", str(trace_dir)]

    artifact_spans = None
    if args.workload == "sharded-scan":
        base += ["--artifact", str(workdir / "world.sraw")]
        build = spawn(
            base + ["--build-artifact"] + (traced_args() if args.trace else []),
            workdir,
            CHILD_TIMEOUT_S,
        )
        if not build.ok:
            print(f"perfbench: artifact build failed: {build.error}", file=sys.stderr)
            return 1
        if args.trace:
            artifact_spans = build.report["spans"][0]

    reference = spawn(base + ["--reference"], workdir, CHILD_TIMEOUT_S)
    if not reference.ok:
        print(f"perfbench: reference run failed: {reference.error}", file=sys.stderr)
        return 1
    stored = EXPECTED[args.size][args.workload].get(str(args.seed))
    tally = Tally(
        expected_digest=stored or reference.digest,
        expected_probes=reference.report["probes"],
    )
    reference_ok = reference.digest == tally.expected_digest

    timed_start = time.perf_counter()
    deadline = begin + RUN_BUDGET_S
    longest = reference.wall
    untraced: list[Rep] = []
    traced: list[Rep] = []
    while True:
        now = time.perf_counter()
        done = now - timed_start >= args.seconds and len(untraced) >= MIN_REPS
        if args.trace:
            done = done and len(traced) >= MIN_REPS
        if done or tally.crashed >= MIN_REPS or now + 1.5 * longest > deadline:
            break
        trace_now = bool(args.trace) and len(traced) < len(untraced)
        pin = []
        if args.workload in SERIAL:
            cpus = sorted(os.sched_getaffinity(0))
            reps_of_kind = len(traced if trace_now else untraced)
            pin = ["--cpu", str(cpus[reps_of_kind % len(cpus)])]
        rep = spawn(
            base + pin + (traced_args() if trace_now else []),
            workdir,
            min(CHILD_TIMEOUT_S, deadline - now),
        )
        longest = max(longest, rep.wall)
        if not tally.score(rep):
            print(f"perfbench: repetition failed: {rep.error or 'wrong output'}", file=sys.stderr)
        if rep.ok:
            (traced if trace_now else untraced).append(rep)

    if not untraced or (args.trace and not traced):
        print("perfbench: no repetition finished", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced, artifact_spans, tally)
        units = METRICS["per_layer"]
    else:
        metrics = end_to_end(untraced)
        units = METRICS["end_to_end"]

    print(
        f"workload {args.workload} (seed {args.seed}, {args.size}): "
        f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
        f"{tally.crashed} crashed, {tally.mismatched} wrong output; "
        f"nproc {len(os.sched_getaffinity(0))}, Python {platform.python_version()}"
    )
    print(
        f"  output sha256 {tally.expected_digest} "
        f"({'stored' if stored else 'reference run'})"
    )
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]['unit']}")
    result = {
        "correct": reference_ok and tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]["unit"]}
            for name in units
        },
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C: the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    begin = time.perf_counter()
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return bench(args, workdir, begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
