"""In-memory span tracer wrapped around the program's public seams.

Traced runs only: :func:`install` replaces one public function or method
per layer with a wrapper that records one span per call — per scan, per
batch, per LPM batch walk, never per probe — plus counters derived from
the call's arguments and result.  Nothing under ``src/`` changes; the
wrappers are set on the module or class attribute that the caller looks
up at call time.

A span's time excludes the tracer's own bookkeeping, so layer times stay
honest.  The costliest hook reads the block key of every index an LPM
batch walk received (once per call, outside the span) to count block
runs and reuse.  The whole cost of tracing shows as
``trace.overhead_share`` (traced against untraced wall time of the same
inputs).

Pool workers forked after :func:`install` inherit the wrappers.  Each
worker restarts with an empty tracer and, after every shard it scans,
writes its spans to a JSON file in ``dump_dir``; :func:`layer_metrics`
sums them with the parent's.  Per-layer seconds are therefore busy
seconds summed over every process of the run.

This module imports nothing from the program at import time, so the
orchestrator can use :func:`layer_metrics` without loading it.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import pickle
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Span names of the two LPM roles, told apart by instance at call time.
ROUTE_LPM = "bgp.route_lpm"
RESOLUTION_LPM = "bgp.resolution_lpm"


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, dump_dir: Path | None = None) -> None:
        self.owner_pid = os.getpid()
        self.dump_dir = dump_dir
        self._dumps = 0
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # (parent span, child span) -> seconds of child spans nested
        # directly inside the parent; self time = span - nested children.
        self.nested: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel_ms: list[float] = []
        self.top: list[tuple[float, float]] = []
        self.stack: list[tuple[str, float, float]] = []
        self.hook_seconds = 0.0
        self.last_elapsed = 0.0
        self.lpm_roles: dict[int, str] = {}
        self.lpm_seen: dict[str, set[int]] = defaultdict(set)

    # ---------------- spans ---------------- #

    def enter(self, name: str) -> None:
        self.stack.append((name, time.perf_counter(), self.hook_seconds))

    def exit(self) -> float:
        name, start, hooks_before = self.stack.pop()
        end = time.perf_counter()
        elapsed = end - start - (self.hook_seconds - hooks_before)
        self.record(name, elapsed, start, end)
        self.last_elapsed = elapsed
        return elapsed

    def record(self, name: str, elapsed: float, start: float, end: float) -> None:
        self.seconds[name] += elapsed
        self.calls[name] += 1
        if self.stack:
            self.nested[(self.stack[-1][0], name)] += elapsed
        else:
            self.top.append((start, end))

    def covered_seconds(self) -> float:
        """Wall time covered by at least one outermost span."""
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(self.top):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        return covered

    # ---------------- export ---------------- #

    def snapshot(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "nested": [[p, c, s] for (p, c), s in self.nested.items()],
            "counts": dict(self.counts),
            "kernel_ms": list(self.kernel_ms),
            "lpm_distinct": {k: len(v) for k, v in self.lpm_seen.items()},
            "peak_rss_mib": _own_peak_rss_mib(),
        }

    def dump_worker(self) -> None:
        """In a pool worker: write the spans since the last dump, then
        start over (a worker may scan several shards)."""
        if self.dump_dir is None:
            return
        self._dumps += 1
        path = self.dump_dir / f"worker-{os.getpid()}-{self._dumps}.json"
        path.write_text(json.dumps(self.snapshot()))
        self.reset()


def _own_peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wrap(tracer, owner, attr, name, *, before=None, after=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``name`` is a span name or a callable of the call's arguments that
    returns one.  ``before(*args, **kwargs)`` runs outside the span and
    its return value reaches ``after(state, args, kwargs, result)``,
    which runs after the span closes; both count as tracer bookkeeping.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        state = None
        if before is not None:
            mark = time.perf_counter()
            state = before(*args, **kwargs)
            tracer.hook_seconds += time.perf_counter() - mark
        tracer.enter(name(args) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            mark = time.perf_counter()
            after(state, args, kwargs, result)
            tracer.hook_seconds += time.perf_counter() - mark
        return result

    setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every layer seam the benchmark measures."""
    from repro.bgp.frozenfib import FrozenLPM
    from repro.bgp.lpm import LengthIndexedLPM
    from repro.core import aliasfilter, probing
    from repro.core import survey as core_survey
    from repro.datasets import tum
    from repro.netsim.engine import SimulationEngine
    from repro.scanner import cli, sharded
    from repro.scanner.backends.sim import SimBackend
    from repro.scanner.zmapv6 import ZMapV6Scanner
    from repro.topology import artifact, generator

    # topology / datasets
    _wrap(tracer, generator, "build_world", "topology.world")
    _wrap(tracer, artifact, "load_world_artifact", "topology.world")
    _wrap(tracer, generator, "build_world_artifact", "topology.artifact_build")
    _wrap(tracer, tum, "harvest_hitlist", "datasets.hitlist")
    _wrap(tracer, tum, "published_alias_list", "datasets.hitlist")

    # scanner.targets, at the names core.survey, core.probing and the
    # sra-scan CLI look up when they realise an input set.  Pool workers
    # rebuild a spec-shipped stream in full: their realisation time counts,
    # their targets do not, so targets.count is the workload's own.
    def count_targets(state, args, kwargs, result):
        if os.getpid() == tracer.owner_pid:
            tracer.counts["targets.count"] += operator.length_hint(result)

    # random_targets_for_sras is a generator function: drain it inside the
    # span so the span covers the realisation; the caller gets the same
    # targets in the same order.
    random_targets = probing.random_targets_for_sras
    probing.random_targets_for_sras = functools.wraps(random_targets)(
        lambda *args, **kwargs: iter(list(random_targets(*args, **kwargs)))
    )

    for module, names in (
        (
            core_survey,
            (
                "bgp_plain_targets",
                "bgp_slash48_targets",
                "bgp_slash64_targets",
                "route6_slash64_targets",
                "hitlist_slash64_targets",
            ),
        ),
        (cli, ("bgp_slash48_targets",)),
        (probing, ("random_targets_for_sras",)),
    ):
        for attr in names:
            _wrap(tracer, module, attr, "targets.realise", after=count_targets)

    # scanner
    def count_records(state, args, kwargs, result):
        tracer.counts["scanner.records"] += len(result.records) + result.records_streamed

    _wrap(tracer, ZMapV6Scanner, "scan", "scanner.scan", after=count_records)

    # scanner.backends
    _wrap(tracer, SimBackend, "probe_columns", "backends.probe")

    # netsim: tell the two LPM instances of this engine's world apart.
    def kernel_before(engine, targets, *args, **kwargs):
        world = engine.world
        tracer.lpm_roles[id(world.bgp.lpm)] = ROUTE_LPM
        tracer.lpm_roles[id(world.resolution)] = RESOLUTION_LPM
        stats = engine.stats
        return stats.echo_replies + stats.error_replies

    def kernel_after(replies_before, args, kwargs, result):
        stats = args[0].stats
        tracer.counts["netsim.probes"] += len(args[1])
        tracer.counts["netsim.replies"] += (
            stats.echo_replies + stats.error_replies - replies_before
        )
        tracer.kernel_ms.append(tracer.last_elapsed * 1000.0)

    _wrap(
        tracer,
        SimulationEngine,
        "probe_columns",
        "netsim.kernel",
        before=kernel_before,
        after=kernel_after,
    )

    # bgp: one wrapper per LPM class, named by the instance's role.
    def lpm_name(args) -> str:
        return tracer.lpm_roles.get(id(args[0]), "bgp.other_lpm")

    def lpm_after(state, args, kwargs, result):
        lpm, addresses, indices = args[0], args[1], args[2]
        role = tracer.lpm_roles.get(id(lpm))
        if role is None:
            return
        shift = lpm.block_shift
        keys = [addresses[i] >> shift for i in indices]
        tracer.counts["bgp.lpm_lookups"] += len(keys)
        if keys:
            tracer.counts["bgp.lpm_runs"] += 1 + sum(map(int.__ne__, keys, keys[1:]))
        tracer.lpm_seen[role].update(keys)

    for cls in (LengthIndexedLPM, FrozenLPM):
        _wrap(tracer, cls, "longest_match_batch", lpm_name, after=lpm_after)

    # core
    def count_dropped(state, args, kwargs, result):
        tracer.counts["core.records_dropped"] += result[1].dropped

    _wrap(tracer, core_survey, "filter_aliased", "core.alias_filter", after=count_dropped)
    _wrap(tracer, aliasfilter, "filter_aliased", "core.alias_filter", after=count_dropped)

    # scanner.sharded, at the names the runner looks up.
    def ring_before(runner, *args, **kwargs):
        return runner.ring_stats.as_dict()

    def ring_after(before, args, kwargs, result):
        after = args[0].ring_stats.as_dict()
        tracer.counts["sharded.ring_bytes"] += after["bytes"] - before["bytes"]
        tracer.counts["sharded.ring_fallbacks"] += after["fallbacks"] - before["fallbacks"]

    _wrap(
        tracer,
        sharded.ShardedScanRunner,
        "scan",
        "sharded.scan",
        before=ring_before,
        after=ring_after,
    )
    _wrap(tracer, sharded, "merge_shard_outcomes", "sharded.merge")

    def count_bootstrap(state, args, kwargs, result):
        tracer.counts["sharded.bootstrap_bytes"] += len(pickle.dumps(result))

    _wrap(tracer, sharded, "world_payload", "sharded.bootstrap", after=count_bootstrap)

    def dump_if_worker(state, args, kwargs, result):
        if os.getpid() != tracer.owner_pid:
            tracer.dump_worker()

    _wrap(tracer, sharded, "scan_shard", "sharded.shard", after=dump_if_worker)

    # scanner.checkpoint, at the name the runner looks up.
    def count_journal(state, args, kwargs, result):
        tracer.counts["checkpoint.writes"] += 1
        path = kwargs["path"] if "path" in kwargs else args[1]
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)

    _wrap(tracer, sharded, "save_checkpoint", "checkpoint.write", after=count_journal)

    os.register_at_fork(after_in_child=tracer.reset)


# ---------------------------------------------------------------------- #
# derived per-layer metrics
# ---------------------------------------------------------------------- #


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def layer_metrics(snapshots: list[dict], artifact_build: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced run from the span snapshots of
    every process in it (the parent first, then pool workers).

    ``artifact_build`` is the snapshot of the separate artifact-build
    step, or None when the workload uses no artifact.
    """
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    nested: dict[tuple[str, str], float] = defaultdict(float)
    kernel_ms: list[float] = []
    distinct = 0
    for snap in snapshots:
        for key, value in snap["seconds"].items():
            seconds[key] += value
        for key, value in snap["calls"].items():
            calls[key] += value
        for key, value in snap["counts"].items():
            counts[key] += value
        for parent, child, value in snap["nested"]:
            nested[(parent, child)] += value
        kernel_ms.extend(snap["kernel_ms"])
        distinct += sum(snap["lpm_distinct"].values())

    def inside(parent: str, *children: str) -> float:
        if not children:
            return sum(v for (p, _), v in nested.items() if p == parent)
        return sum(nested[(parent, child)] for child in children)

    lookups = counts["bgp.lpm_lookups"]
    probes = counts["netsim.probes"]
    workers = snapshots[1:]
    return {
        "topology.world_s": seconds["topology.world"],
        "topology.artifact_build_s": (
            artifact_build["seconds"].get("topology.artifact_build", 0.0)
            if artifact_build is not None
            else 0.0
        ),
        "datasets.hitlist_s": seconds["datasets.hitlist"],
        "targets.realise_s": seconds["targets.realise"],
        "targets.count": counts["targets.count"],
        "scanner.scan_s": seconds["scanner.scan"],
        "scanner.self_s": seconds["scanner.scan"]
        - inside("scanner.scan", "backends.probe"),
        "scanner.records": counts["scanner.records"],
        "backends.probe_s": seconds["backends.probe"],
        "backends.seam_s": seconds["backends.probe"]
        - inside("backends.probe", "netsim.kernel"),
        "netsim.kernel_s": seconds["netsim.kernel"],
        "netsim.kernel_self_s": seconds["netsim.kernel"]
        - inside("netsim.kernel", ROUTE_LPM, RESOLUTION_LPM),
        "netsim.batches": calls["netsim.kernel"],
        "netsim.batch_p50_ms": _percentile(kernel_ms, 0.50),
        "netsim.batch_p99_ms": _percentile(kernel_ms, 0.99),
        "netsim.probes": probes,
        "netsim.replies": counts["netsim.replies"],
        "netsim.reply_share": counts["netsim.replies"] / probes if probes else 0.0,
        "bgp.route_lpm_s": seconds[ROUTE_LPM],
        "bgp.resolution_lpm_s": seconds[RESOLUTION_LPM],
        "bgp.lpm_lookups": lookups,
        "bgp.lpm_runs": counts["bgp.lpm_runs"],
        "bgp.block_reuse_share": 1.0 - distinct / lookups if lookups else 0.0,
        "core.alias_filter_s": seconds["core.alias_filter"],
        "core.records_dropped": counts["core.records_dropped"],
        "sharded.scan_s": seconds["sharded.scan"],
        "sharded.merge_s": seconds["sharded.merge"],
        "sharded.wait_s": seconds["sharded.scan"] - inside("sharded.scan"),
        "sharded.bootstrap_bytes": counts["sharded.bootstrap_bytes"],
        "sharded.ring_bytes": counts["sharded.ring_bytes"],
        "sharded.ring_fallbacks": counts["sharded.ring_fallbacks"],
        "sharded.worker_peak_rss_mib": max(
            (snap["peak_rss_mib"] for snap in workers), default=0.0
        ),
        "checkpoint.write_s": seconds["checkpoint.write"],
        "checkpoint.writes": counts["checkpoint.writes"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "run.imports_s": seconds["run.imports"],
    }


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced runs."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
