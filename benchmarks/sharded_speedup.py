"""Wall-clock speedup of sharded parallel scanning.

Runs the survey's heaviest input sets serially and sharded (process pool)
on the same world and verifies the results are identical while timing
both.  On a multi-core machine the sharded run should finish in a
fraction of the serial wall-clock; on one core it documents the overhead.

    PYTHONPATH=src python benchmarks/sharded_speedup.py
    PYTHONPATH=src python benchmarks/sharded_speedup.py --shards 8 --scale full
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core.survey import SRASurvey
from repro.datasets.tum import harvest_hitlist, published_alias_list
from repro.experiments.world import SCALES
from repro.scanner.sharded import ShardedScanRunner, auto_shard_count
from repro.scanner.pacing import paced_pps
from repro.scanner.zmapv6 import ScanConfig
from repro.topology.generator import build_world


def time_scan(runner, targets, config, *, epoch):
    started = time.perf_counter()
    result = runner.scan(targets, config, name="bench", epoch=epoch)
    return result, time.perf_counter() - started


def bench_input_sets(world, hitlist, alias_list, scale, shards, executor):
    survey = SRASurvey(
        world, hitlist, alias_list=alias_list, config=scale.survey_config
    )
    serial_runner = ShardedScanRunner(world, shards=1)
    sharded_runner = ShardedScanRunner(world, shards=shards, executor=executor)
    config = scale.survey_config
    print(f"{'input set':<12} {'targets':>9} {'serial':>8} {'sharded':>8} {'speedup':>8}")
    totals = [0.0, 0.0]
    for name, targets in survey.build_input_sets().items():
        target_list = list(targets)
        pps = paced_pps(len(target_list), config.scan_duration, config.pps)
        scan_config = ScanConfig(
            pps=pps, hop_limit=config.hop_limit, seed=config.seed
        )
        serial, serial_s = time_scan(serial_runner, target_list, scan_config, epoch=0)
        sharded, sharded_s = time_scan(sharded_runner, target_list, scan_config, epoch=0)
        if sharded.records != serial.records:
            print(f"!! {name}: sharded result differs from serial", file=sys.stderr)
            return 1
        totals[0] += serial_s
        totals[1] += sharded_s
        speedup = serial_s / sharded_s if sharded_s else float("inf")
        print(
            f"{name:<12} {len(target_list):>9} {serial_s:>7.2f}s {sharded_s:>7.2f}s "
            f"{speedup:>7.2f}x"
        )
    speedup = totals[0] / totals[1] if totals[1] else float("inf")
    print(
        f"{'total':<12} {'':>9} {totals[0]:>7.2f}s {totals[1]:>7.2f}s {speedup:>7.2f}x"
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--shards", type=int, default=None, help="default: one per core"
    )
    parser.add_argument(
        "--executor",
        choices=("auto", "process", "serial"),
        default="process",
    )
    args = parser.parse_args(argv)

    shards = args.shards or auto_shard_count()
    cores = os.cpu_count() or 1
    print(f"cores={cores} shards={shards} executor={args.executor} scale={args.scale}")
    if cores < 2:
        print("note: <2 cores — expect overhead, not speedup, from processes")

    scale = SCALES[args.scale](args.seed)
    print("building world ...")
    world = build_world(scale.world_config)
    hitlist = harvest_hitlist(world, stale_fraction=scale.hitlist_stale_fraction)
    alias_list = published_alias_list(world)
    return bench_input_sets(world, hitlist, alias_list, scale, shards, args.executor)


if __name__ == "__main__":
    sys.exit(main())
