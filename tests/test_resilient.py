"""The resilient transport layer, unit by unit.

The backend contract suite (tests/test_backend_contract.py) pins the
end-to-end properties — wrapper identity, transient-fault byte identity,
quarantine, the breaker cycle under a real scan.  This file covers the
mechanisms underneath:

* ``RetryPolicy`` validation and the backoff/jitter math (hypothesis
  properties: bounds, determinism, jitter-0 exactness),
* transactional attempts: a failed ``send_batch`` rolls back stats,
  deferred rate-limit checks, and ``unmatched_replies``,
* the watchdog deadline recovering a hung backend (injected join, zero
  wall-time),
* batch splitting isolating a single poison probe,
* the ``CircuitBreaker`` state machine on a fake clock,
* checkpoint ``config_key`` refusing a resume across a policy change,
* CLI validation (exit 2 + one-line stderr) for the resilience flags,
* the sharded runner's injectable retry-backoff sleep,
* ``merge_results`` summing ``faulted_probes``,
* ``FaultyBackend``'s short-outcome and blackhole modes.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import EngineStats, ProbeResult
from repro.netsim.faults import ChaosEngine, FaultPlan, FaultyBackend
from repro.scanner.backends import (
    BackendSpec,
    BackendTimeoutError,
    CircuitBreaker,
    ResilientBackend,
    RetryPolicy,
    make_backend_spec,
    ProbeBackend,
)
from repro.scanner.checkpoint import (
    CheckpointMismatchError,
    ScanCheckpoint,
    config_key,
)
from repro.scanner.records import ScanResult, merge_results
from repro.scanner.sharded import ShardedScanRunner
from repro.scanner.zmapv6 import ScanConfig

TARGETS = [0x2001_0DB8_0000_0000_0000_0000_0000_0000 + i for i in range(8)]
TIMES = [i / 1000.0 for i in range(8)]


class ScriptedBackend(ProbeBackend):
    """A backend whose per-call behaviour is a script.

    Every call mutates observable state *before* acting out its step —
    like a real backend that got half-way before failing — so the
    transactional-rollback tests can prove the wrapper undoes it.
    """

    name = "scripted"
    supports_columns = False
    deterministic = True
    requires_privilege = False

    def __init__(self, script=(), release=None):
        self.script = list(script)  # "ok" | "fail" | "short" | "hang"
        self.calls = 0
        self.unmatched_replies = 0
        self._epoch = 0
        self._stats = EngineStats()
        self._checks: list[tuple[float, int]] = []
        self._release = release

    @classmethod
    def from_spec(cls, spec, *, world=None, engine=None, epoch=0,
                  defer_rate_limit=False):
        raise TypeError("test backend; never spec-built")

    def spec(self) -> BackendSpec:
        return make_backend_spec("sim")

    @property
    def epoch(self) -> int:
        return self._epoch

    def new_epoch(self, epoch: int) -> None:
        self._epoch = epoch

    @property
    def stats(self) -> EngineStats:
        return self._stats

    @property
    def pending_checks(self) -> list[tuple[float, int]]:
        return self._checks

    def send_batch(self, targets, times, *, hop_limit=64, probe_ids=None):
        step = self.script[self.calls] if self.calls < len(self.script) else "ok"
        self.calls += 1
        # Mutations first: a failure leaves them behind for the wrapper
        # to roll back.
        self._stats.probes += len(targets)
        self._checks.append((times[0], 1))
        self.unmatched_replies += 1
        if step == "fail":
            raise RuntimeError("scripted transport failure")
        if step == "hang":
            self._release.wait()
        outcomes = [
            ProbeResult(target=target, time=time, epoch=self._epoch)
            for target, time in zip(targets, times)
        ]
        if step == "short" and len(outcomes) > 1:
            return outcomes[:-1]
        return outcomes


class PoisonBackend(ScriptedBackend):
    """Fails any batch containing the poison target; clean otherwise."""

    def __init__(self, poison: int):
        super().__init__()
        self.poison = poison

    def send_batch(self, targets, times, *, hop_limit=64, probe_ids=None):
        if self.poison in targets:
            self.calls += 1
            raise RuntimeError("poison probe in batch")
        return super().send_batch(
            targets, times, hop_limit=hop_limit, probe_ids=probe_ids
        )


# ---------------- RetryPolicy validation + backoff math ---------------- #


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"max_retries": 1.5},
        {"backoff": -0.1},
        {"backoff": float("nan")},
        {"backoff_cap": float("inf")},
        {"jitter": -0.01},
        {"jitter": 1.01},
        {"timeout": 0.0},
        {"timeout": float("nan")},
        {"breaker_threshold": 0.0},
        {"breaker_threshold": 1.5},
        {"breaker_threshold": float("nan")},
        {"breaker_window": 0},
        {"breaker_min_batches": 0},
        {"breaker_cooldown": -1.0},
        {"max_split_depth": -1},
    ],
)
def test_policy_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        RetryPolicy(**kwargs)


def test_policy_is_picklable_and_hashable():
    import pickle

    policy = RetryPolicy(max_retries=3, jitter=0.5, seed=7)
    assert pickle.loads(pickle.dumps(policy)) == policy
    assert hash(policy) == hash(RetryPolicy(max_retries=3, jitter=0.5, seed=7))


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(0, 20),
    backoff=st.floats(0.0, 100.0),
    cap=st.floats(0.0, 100.0),
    jitter=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    keys=st.lists(st.integers(0, 1_000), max_size=3),
)
def test_backoff_delay_bounds_and_determinism(
    attempt, backoff, cap, jitter, seed, keys
):
    policy = RetryPolicy(
        backoff=backoff, backoff_cap=cap, jitter=jitter, seed=seed
    )
    delay = policy.backoff_delay(attempt, *keys)
    base = min(backoff * 2.0**attempt, cap)
    assert 0.0 <= delay <= cap + 1e-9
    assert base * (1.0 - jitter) - 1e-9 <= delay <= base + 1e-9
    # Same policy, same keys, same delay: retried runs back off alike.
    assert delay == policy.backoff_delay(attempt, *keys)


@settings(max_examples=100, deadline=None)
@given(
    attempt=st.integers(0, 20),
    backoff=st.floats(0.0, 100.0),
    cap=st.floats(0.0, 100.0),
)
def test_zero_jitter_reproduces_exponential_formula(attempt, backoff, cap):
    policy = RetryPolicy(backoff=backoff, backoff_cap=cap)
    assert policy.backoff_delay(attempt) == min(backoff * 2.0**attempt, cap)


def test_jitterless_schedule_matches_historical_shard_backoff():
    # The sharded runner's pre-policy formula, bit for bit.
    policy = RetryPolicy(max_retries=5, backoff=0.1, backoff_cap=5.0)
    assert [policy.backoff_delay(i) for i in range(7)] == [
        0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0,
    ]


# ---------------- transactional attempts ---------------- #


def test_failed_attempt_rolls_back_observable_state():
    inner = ScriptedBackend(script=["fail", "ok"])
    policy = RetryPolicy(max_retries=1, backoff=0.0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    outcomes = backend.send_batch(TARGETS, TIMES)
    assert len(outcomes) == len(TARGETS)
    # One logical batch: the failed attempt's mutations were undone.
    assert inner.stats.probes == len(TARGETS)
    assert len(inner.pending_checks) == 1
    assert inner.unmatched_replies == 1
    assert backend.resilience.retries == 1
    assert backend.resilience.faulted_probes == 0


def test_short_outcome_list_is_rolled_back_and_retried():
    inner = ScriptedBackend(script=["short", "ok"])
    policy = RetryPolicy(max_retries=1, backoff=0.0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    outcomes = backend.send_batch(TARGETS, TIMES)
    assert len(outcomes) == len(TARGETS)
    assert inner.stats.probes == len(TARGETS)
    assert backend.resilience.retries == 1


def test_exhausted_batch_records_last_error():
    inner = ScriptedBackend(script=["fail", "fail"])
    policy = RetryPolicy(max_retries=1, backoff=0.0, max_split_depth=0)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    outcomes = backend.send_batch(TARGETS, TIMES)
    assert all(not outcome.replies for outcome in outcomes)
    assert inner.stats.probes == 0, "every attempt rolled back"
    (fault,) = backend.resilience.faults
    assert fault.reason == "exhausted"
    assert fault.attempts == 2
    assert "scripted transport failure" in fault.error
    assert backend.resilience.faulted_probes == len(TARGETS)


# ---------------- watchdog deadline ---------------- #


def test_watchdog_recovers_hung_backend():
    import threading

    release = threading.Event()
    inner = ScriptedBackend(script=["hang", "ok"], release=release)
    policy = RetryPolicy(max_retries=1, backoff=0.0, timeout=30.0)
    # Injected join returns without waiting: the "deadline" expires
    # instantly, so the test spends zero wall-time on the hang.
    backend = ResilientBackend(
        inner,
        policy,
        sleep=lambda _d: None,
        join=lambda _thread, _timeout: None,
    )
    try:
        outcomes = backend.send_batch(TARGETS, TIMES)
        assert len(outcomes) == len(TARGETS)
        assert backend.resilience.timeouts == 1
        assert backend.resilience.retries == 1
        assert backend.resilience.faulted_probes == 0
    finally:
        release.set()  # let the abandoned watchdog thread finish


def test_timeout_error_names_the_deadline():
    with pytest.raises(ValueError):
        RetryPolicy(timeout=-1.0)
    error = BackendTimeoutError("send_batch exceeded the 2.0s deadline")
    assert "2.0s" in str(error)


# ---------------- splitting isolates poison probes ---------------- #


def test_split_quarantines_only_the_poison_probe():
    poison = TARGETS[5]
    inner = PoisonBackend(poison)
    policy = RetryPolicy(max_retries=0, backoff=0.0, max_split_depth=3)
    backend = ResilientBackend(inner, policy, sleep=lambda _d: None)
    outcomes = backend.send_batch(TARGETS, TIMES)
    assert [outcome.target for outcome in outcomes] == TARGETS
    assert backend.resilience.faulted_probes == 1
    (fault,) = backend.resilience.faults
    assert fault.probes == 1
    assert fault.reason == "exhausted"
    # The seven clean probes were actually sent.
    assert inner.stats.probes == len(TARGETS) - 1


# ---------------- the breaker state machine ---------------- #


def test_breaker_opens_half_opens_and_closes_on_fake_clock():
    clock = [0.0]
    breaker = CircuitBreaker(
        threshold=0.5, window=4, min_batches=2, cooldown=10.0,
        clock=lambda: clock[0],
    )
    assert breaker.allow() and breaker.state == "closed"
    breaker.record(False)
    assert breaker.state == "closed", "below min_batches"
    breaker.record(False)
    assert breaker.state == "open"
    assert not breaker.allow(), "cooldown has not expired"
    clock[0] = 10.0
    assert breaker.allow()
    assert breaker.state == "half-open"
    breaker.record(True)
    assert breaker.state == "closed"
    assert breaker.transitions == [
        ("closed", "open"), ("open", "half-open"), ("half-open", "closed"),
    ]


def test_breaker_reopens_on_failed_trial():
    clock = [0.0]
    breaker = CircuitBreaker(
        threshold=0.5, window=4, min_batches=2, cooldown=5.0,
        clock=lambda: clock[0],
    )
    breaker.record(False)
    breaker.record(False)
    clock[0] = 5.0
    assert breaker.allow() and breaker.state == "half-open"
    breaker.record(False)
    assert breaker.state == "open"
    assert not breaker.allow(), "cooldown restarted"


# ---------------- checkpoint: policy is part of the identity ------------ #


def test_config_key_includes_retry_policy():
    without = config_key(ScanConfig(pps=100.0))
    with_policy = config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy())
    )
    assert without != with_policy
    assert with_policy == config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy())
    )


def test_resume_across_policy_change_fails_loudly():
    stored = config_key(ScanConfig(pps=100.0))
    checkpoint = ScanCheckpoint(
        name="scan", epoch=0, shards=2, scan_key=stored,
        target_count=8, fingerprint=1,
    )
    resuming = config_key(
        ScanConfig(pps=100.0, retry_policy=RetryPolicy(max_retries=1))
    )
    with pytest.raises(CheckpointMismatchError, match="scan config"):
        checkpoint.validate_resume(
            name="scan", epoch=0, shards=2, scan_key=resuming,
            target_count=8, fingerprint=1,
        )


def test_scan_config_rejects_non_policy():
    with pytest.raises(ValueError, match="retry_policy"):
        ScanConfig(pps=100.0, retry_policy="not-a-policy")


# ---------------- CLI validation: exit 2, one-line stderr ------------- #


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--backend-retries", "-1"], "--backend-retries"),
        (["--backend-timeout", "0"], "--backend-timeout"),
        (["--backend-timeout", "-3"], "--backend-timeout"),
        (["--backend-timeout", "nan"], "--backend-timeout"),
        (["--breaker-threshold", "0"], "--breaker-threshold"),
        (["--breaker-threshold", "1.5"], "--breaker-threshold"),
        (["--breaker-threshold", "nan"], "--breaker-threshold"),
        (["--max-shard-retries", "-1"], "--max-shard-retries"),
    ],
)
def test_scan_cli_rejects_bad_resilience_flags(argv, fragment, capsys):
    from repro.scanner.cli import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("sra-scan: ")
    assert fragment in err
    assert err.count("\n") == 1, "one-line diagnostics only"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--backend-retries", "-1"], "--backend-retries"),
        (["--backend-timeout", "0"], "--backend-timeout"),
        (["--backend-timeout", "nan"], "--backend-timeout"),
        (["--breaker-threshold", "0"], "--breaker-threshold"),
        (["--breaker-threshold", "nan"], "--breaker-threshold"),
    ],
)
def test_repro_cli_rejects_bad_resilience_flags(argv, fragment, capsys):
    from repro.experiments.runner import main

    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("sra-repro: ")
    assert fragment in err
    assert err.count("\n") == 1, "one-line diagnostics only"


def test_scan_cli_accepts_resilience_flags(tmp_path, capsys):
    from repro.scanner.cli import main

    code = main(
        [
            "--world", "tiny",
            "--input-set", "bgp-plain",
            "--max-targets", "32",
            "--backend-retries", "2",
            "--breaker-threshold", "0.5",
            "--jsonl", str(tmp_path / "records.jsonl"),
            "--summary",
        ]
    )
    assert code == 0
    assert (tmp_path / "records.jsonl").exists()


# ---------------- sharded runner: injectable backoff sleep ------------ #


def test_shard_retry_backoff_uses_injected_sleep(tiny_world):
    from repro.scanner.cli import build_targets

    delays: list[float] = []
    chaos = ChaosEngine(
        FaultPlan(crash_shard=0, crash_at_probe=0, crash_attempts=2)
    )
    runner = ShardedScanRunner(
        tiny_world,
        shards=2,
        executor="serial",
        max_shard_retries=2,
        sleep=delays.append,
        chaos=chaos,
    )
    targets = build_targets(tiny_world, "bgp-plain", max_targets=32, seed=5)
    result = runner.scan(
        targets,
        ScanConfig(pps=10_000.0, seed=5),
        name="backoff-sleep",
        epoch=7300,
    )
    assert result.sent == len(targets)
    # Two failed rounds, exponential schedule, zero wall-time.
    assert delays == [0.1, 0.2]


# ---------------- merge + FaultyBackend odds and ends ----------------- #


def test_merge_results_sums_faulted_probes():
    merged = merge_results(
        "merged",
        [
            ScanResult(name="a", sent=10, faulted_probes=3),
            ScanResult(name="b", sent=10, faulted_probes=0),
            ScanResult(name="c", sent=10, faulted_probes=4),
        ],
    )
    assert merged.faulted_probes == 7
    assert merged.sent == 30


def test_faulty_backend_short_mode_truncates_once():
    inner = ScriptedBackend()
    faulty = FaultyBackend(
        inner, FaultPlan(backend_short_batch=0), shard=0
    )
    first = faulty.send_batch(TARGETS, TIMES)
    assert len(first) == len(TARGETS) - 1, "first attempt is short"
    second = faulty.send_batch(TARGETS, TIMES)
    assert len(second) == len(TARGETS), "retries see the full batch"


def test_faulty_backend_blackhole_eats_echo_replies(tiny_world):
    from repro.scanner.backends import build_backend
    from repro.scanner.cli import build_targets

    spec = ScanConfig(backend="sim").backend_spec()
    targets = list(
        build_targets(tiny_world, "bgp-plain", max_targets=16, seed=5)
    )
    times = [i / 1000.0 for i in range(len(targets))]
    clean = build_backend(spec, world=tiny_world, epoch=0)
    baseline = clean.send_batch(targets, times)
    echoes = sum(
        reply.count
        for outcome in baseline
        for reply in outcome.replies
        if reply.is_echo
    )
    assert echoes > 0, "vacuous: the tiny world answered nothing"

    fresh = build_backend(spec, world=tiny_world, epoch=0)
    faulty = FaultyBackend(fresh, FaultPlan(backend_blackhole=True))
    eaten = faulty.send_batch(targets, times)
    assert all(
        not reply.is_echo for outcome in eaten for reply in outcome.replies
    )
    # Counters stay coherent with the surviving replies.
    assert fresh.stats.echo_replies == 0


def test_stochastic_fault_plan_is_deterministic():
    plan = FaultPlan(seed=42, backend_error_probability=0.5)
    first = FaultyBackend(ScriptedBackend(), plan, shard=3)
    second = FaultyBackend(ScriptedBackend(), plan, shard=3)
    verdicts_a = [first._fated(ordinal) for ordinal in range(64)]
    verdicts_b = [second._fated(ordinal) for ordinal in range(64)]
    assert verdicts_a == verdicts_b
    assert any(verdicts_a) and not all(verdicts_a)


def test_resilience_is_invisible_without_math_weirdness():
    # A policy whose knobs are all no-ops must behave as pure delegation.
    inner = ScriptedBackend()
    backend = ResilientBackend(
        inner, RetryPolicy(max_retries=0, backoff=0.0), sleep=lambda _d: None
    )
    outcomes = backend.send_batch(TARGETS, TIMES)
    assert len(outcomes) == len(TARGETS)
    assert backend.resilience.empty()
    assert math.isfinite(RetryPolicy().backoff_delay(1000))
