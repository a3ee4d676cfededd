"""The benchmark's workloads: inputs from a seed, one program run, outputs.

Each workload scans a fixed world — generated from :data:`WORLD_SEED`,
the default seed of ``sra-repro`` and ``sra-scan`` — so every seed asks
for the same amount of work.  ``seed`` draws everything else: the
sampled targets and the scan seeds.  A workload calls ``setup_done()``
right before its first scan call, runs the program and writes the
program's deterministic outputs as JSON or JSONL to ``output``; the
orchestrator digests that file.

``reference=True`` runs the same inputs through a configuration the
program promises is output-identical — a two-shard serial merge with the
deferred rate-limit replay for ``survey`` and ``rescan``, a one-shard
serial scan for ``sharded-scan`` — so every seed has an oracle, not only
the seeds whose digests are stored.

Program functions are called through their modules (``generator.
build_world``, ``probing.run_stability``, ...) so the tracer's wrappers,
when installed, see every call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core import aliasfilter, probing
from repro.core import survey as core_survey
from repro.datasets import tum
from repro.experiments.world import ExperimentScale, quick_scale
from repro.scanner import cli, sharded
from repro.scanner.zmapv6 import ScanConfig
from repro.topology import artifact, generator
from repro.topology.config import WorldConfig, tiny_config

WORLD_SEED = 2024


def router_dense_config(ases: int, seed: int) -> WorldConfig:
    """~31 routers per AS and no aggregation tail; at 1000 ASes this is
    the world-scale benchmark's world (``benchmarks/world_scale.py``)."""
    return WorldConfig(
        seed=seed,
        num_ases=ases,
        num_tier1=min(10, max(2, ases // 20)),
        num_tier2=min(110, max(4, ases // 4)),
        subnets_per_router_tail=0.0,
        max_subnets_per_router=4,
        single_router_as_fraction=0.0,
    )


@dataclass(frozen=True)
class Size:
    """Input sizes: ``full`` is what the benchmark measures, ``tiny``
    keeps the smoke test fast."""

    scale: ExperimentScale
    sharded_world: WorldConfig
    sharded_targets: int


def _tiny_scale() -> ExperimentScale:
    scale = quick_scale(WORLD_SEED)
    return replace(
        scale,
        world_config=tiny_config(WORLD_SEED),
        survey_config=replace(
            scale.survey_config,
            max_bgp_48=1_500,
            max_bgp_64=1_500,
            max_route6=1_500,
            max_hitlist=1_500,
        ),
        fig5_targets=400,
        fig5_epochs=2,
        stability_targets=400,
        stability_epochs=2,
    )


SIZES = {
    # The quick scale is what `sra-repro --scale quick` runs.
    "full": Size(
        scale=quick_scale(WORLD_SEED),
        sharded_world=router_dense_config(1000, WORLD_SEED),
        sharded_targets=100_000,
    ),
    "tiny": Size(
        scale=_tiny_scale(),
        sharded_world=router_dense_config(60, WORLD_SEED),
        sharded_targets=3_000,
    ),
}


@dataclass
class Outcome:
    probes: int
    faulted: int


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def survey(size: Size, seed: int, output: Path, setup_done, *, reference: bool, **_) -> Outcome:
    """The Table 2 campaign: five input sets scanned once, alias filter on."""
    scale = size.scale
    world = generator.build_world(scale.world_config)
    hitlist = tum.harvest_hitlist(world, stale_fraction=scale.hitlist_stale_fraction)
    aliases = tum.published_alias_list(world)
    config = replace(
        scale.survey_config,
        seed=seed,
        shards=2 if reference else 1,
        parallel="serial",
    )
    setup_done()
    result = core_survey.SRASurvey(
        world, hitlist, alias_list=aliases, config=config
    ).run()
    _write_json(
        output,
        {
            "table2": result.table2_rows(),
            "router_ips": sorted(result.all_router_ips()),
        },
    )
    scans = [entry.result for entry in result.input_sets.values()]
    return Outcome(
        probes=sum(scan.sent for scan in scans),
        faulted=sum(scan.faulted_probes for scan in scans),
    )


def rescan(size: Size, seed: int, output: Path, setup_done, *, reference: bool, **_) -> Outcome:
    """The Fig. 5/6 re-scans of one fixed hitlist /64 set, serially."""
    scale = size.scale
    world = generator.build_world(scale.world_config)
    hitlist = tum.harvest_hitlist(world, stale_fraction=scale.hitlist_stale_fraction)
    slash64s = hitlist.unique_slash64s()
    # Samples of the sizes `sra-repro fig5` / `fig6` draw.
    fig5 = random.Random(f"fig5-{seed}").sample(
        slash64s, min(scale.fig5_targets, len(slash64s))
    )
    stable = random.Random(f"fig6-{seed}").sample(
        slash64s, min(scale.stability_targets, len(slash64s))
    )
    runner = (
        sharded.ShardedScanRunner(world, shards=2, executor="serial")
        if reference
        else None
    )
    # Both functions look ``_scan`` up at call time: count every scan's
    # probes and faults rather than assume them, without keeping results
    # the program would have dropped.
    sent = faulted = 0
    program_scan = probing._scan

    def counted_scan(*args, **kwargs):
        nonlocal sent, faulted
        result = program_scan(*args, **kwargs)
        sent += result.sent
        faulted += result.faulted_probes
        return result

    probing._scan = counted_scan
    setup_done()
    series = probing.run_sra_vs_random(
        world, fig5, epochs=scale.fig5_epochs, seed=seed, runner=runner
    )
    stability = probing.run_stability(
        world, stable, epochs=scale.stability_epochs, seed=seed, runner=runner
    )
    _write_json(
        output,
        {
            "sra": [sorted(scan.router_ips) for scan in series.sra],
            "random": [sorted(scan.router_ips) for scan in series.random],
            "stability_baseline": sorted(stability.baseline.items()),
            "stability_epochs": stability.epochs,
        },
    )
    return Outcome(probes=sent, faulted=faulted)


def build_artifact(size: Size, path: Path) -> None:
    """Build the sharded-scan world artifact (once per run, untimed)."""
    generator.build_world_artifact(size.sharded_world, path)


def sharded_scan(
    size: Size,
    seed: int,
    output: Path,
    setup_done,
    *,
    reference: bool,
    artifact_path: Path,
    workdir: Path,
) -> Outcome:
    """An ``sra-scan``-style scan of the /48 input set over an artifact
    world: process shards, one per core, journalled to a checkpoint dir."""
    world = artifact.load_world_artifact(artifact_path)
    if world.artifact_fingerprint != artifact.build_fingerprint(size.sharded_world):
        raise RuntimeError(f"{artifact_path}: artifact is for another world")
    targets = cli.build_targets(
        world, "bgp-48", max_targets=size.sharded_targets, seed=seed
    )
    aliases = tum.published_alias_list(world)
    # sra-scan's default pacing: the whole set in a 6 s virtual scan.
    config = ScanConfig(pps=max(100.0, len(targets) / 6.0), seed=seed)
    if reference:
        runner = sharded.ShardedScanRunner(world, shards=1, executor="serial")
    else:
        runner = sharded.ShardedScanRunner(
            world,
            shards=len(os.sched_getaffinity(0)),
            executor="process",
            checkpoint_dir=workdir / "journal",
        )
    setup_done()
    result = runner.scan(targets, config, name="bgp-48", epoch=0)
    result, _ = aliasfilter.filter_aliased(result, aliases)
    result.write_jsonl(output)
    return Outcome(probes=result.sent, faulted=result.faulted_probes)


RUNNERS = {"survey": survey, "rescan": rescan, "sharded-scan": sharded_scan}
