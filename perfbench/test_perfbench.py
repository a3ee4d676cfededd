"""Smoke test of the benchmark on tiny worlds.

    PYTHONPATH=src python -m pytest perfbench -q

Runs every workload once untraced and once traced at ``--size tiny`` and
checks that each named metric is emitted with its unit, that outputs
were checked against the stored digests, and that a wrong output counts
all of a repetition's probes as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--size", "tiny",
            "--seed", "1",
            "--seconds", "0",
            "--trace", str(trace),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_descriptions():
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        described = {name: m["unit"] for name, m in run.METRICS[kind].items()}
        assert declared == described
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_stored_digests_cover_default_and_held_out_seed():
    for size in ("full", "tiny"):
        for workload in run.WORKLOADS:
            assert {"1", "2"} <= set(run.EXPECTED[size][workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in DECLARED[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["probe_fail_ratio"]["value"] == 0
        assert result["metrics"]["netsim.probes"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_output_fails_all_probes():
    tally = run.Tally(expected_digest="good", expected_probes=100)
    good = run.Rep(ok=True, digest="good", report={"probes": 100, "faulted": 3})
    wrong = run.Rep(ok=True, digest="bad", report={"probes": 100, "faulted": 0})
    short = run.Rep(ok=True, digest="good", report={"probes": 99, "faulted": 0})
    crashed = run.Rep(ok=False, error="exit 1")
    assert tally.score(good) is True
    assert [tally.score(r) for r in (wrong, short, crashed)] == [False] * 3
    assert (tally.attempted, tally.failed) == (400, 303)
    assert (tally.mismatched, tally.crashed) == (2, 1)
