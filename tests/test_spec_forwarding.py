"""Differential test: the columnar kernel against the scalar spec.

``SimulationEngine.probe_columns`` is the only forwarding implementation
in the package; ``spec_forwarding.SpecEngine.probe`` is the plain
per-probe model it must reproduce.  Every case runs the same rows
through both — the spec one probe at a time, the kernel in chunks on a
reused column buffer — and compares every column of every row plus the
engine counters.  Rows cover each destination behaviour (SRA addresses,
router interfaces, hosts, unassigned subnet addresses, aliased and
infrastructure space, loops, unassigned announced space, unrouted
space), with duplicates and in shuffled order, at hop limits that stop
probes before, inside and after transit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, replace

import pytest

from repro.netsim.engine import (
    FLAG_LOOPED,
    FLAG_LOST,
    FLAG_REPLY,
    ProbeColumns,
    SimulationEngine,
)
from repro.scanner.targets import bgp_slash48_targets
from spec_forwarding import spec_probes


def _behaviour_targets(world) -> list[int]:
    rng = random.Random(17)
    targets = list(
        bgp_slash48_targets(
            world.bgp, max_per_prefix=6, max_targets=600, rng=rng
        )
    )
    subnets = list(world.subnets.values())
    aliased = [subnet for subnet in subnets if subnet.aliased][:5]
    for subnet in subnets[:150] + aliased:
        targets.append(subnet.sra_address)
        targets.append(subnet.router_interface)
        targets.extend(subnet.hosts[:2])
        targets.append(subnet.prefix.network | 0xBEEF)
    for region in world.loop_regions[:3]:
        targets.extend(region.prefix.network | offset for offset in range(1, 12))
    for region in world.alias_regions[:3]:
        targets.extend(region.prefix.network | offset for offset in (1, 77))
    for infra in list(world.infra_subnets.values())[:10]:
        targets.extend(list(infra.interfaces)[:2])
        targets.append(infra.prefix.network | 0xD00D)
    # Unrouted space (2001:db8::/32 is never announced).
    targets.extend((0x20010DB8 << 96) | offset for offset in range(1, 6))
    # Duplicates: the same target probed again later in the scan.
    targets.extend(targets[::9])
    rng.shuffle(targets)
    return targets


@pytest.fixture(scope="module")
def rows(tiny_world):
    targets = _behaviour_targets(tiny_world)
    times = [i / 150_000.0 for i in range(len(targets))]
    ids = list(range(len(targets)))
    return targets, times, ids


@pytest.fixture(scope="module")
def transit(tiny_world, rows):
    """The most common vantage→origin transit length among the rows."""
    lengths = Counter()
    for target in rows[0]:
        origin = tiny_world.bgp.origin_of(target)
        if origin is not None:
            lengths[len(tiny_world.paths.get(origin, ()))] += 1
    length = lengths.most_common(1)[0][0]
    assert length >= 2
    return length


def _kernel(world, targets, times, ids, *, hop_limit, batch_size, epoch):
    """Run the kernel in ``batch_size`` chunks on one engine and one
    reused buffer, returning a comparable row per probe."""
    engine = SimulationEngine(world, epoch=epoch)
    cols = ProbeColumns()
    rows = []
    for start in range(0, len(targets), batch_size):
        stop = start + batch_size
        engine.probe_columns(
            targets[start:stop],
            times[start:stop],
            hop_limit=hop_limit,
            probe_ids=ids[start:stop],
            out=cols,
        )
        rows.extend(_column_row(cols, i) for i in range(cols.n))
    return rows, engine.stats


def _column_row(cols, i):
    flags = cols.flags[i]
    if flags & FLAG_LOST:
        return ("lost",)
    reply = None
    if flags & FLAG_REPLY:
        rid = cols.router_id[i]
        reply = (
            cols.source(i),
            cols.icmp_type[i],
            cols.code[i],
            cols.count[i],
            None if rid < 0 else rid,
        )
    return (bool(flags & FLAG_LOOPED), cols.transit[i], reply)


def _spec_row(result):
    if result.lost:
        return ("lost",)
    reply = None
    if result.replies:
        (only,) = result.replies
        reply = (
            only.source,
            int(only.icmp_type),
            only.code,
            only.count,
            only.router_id,
        )
    return (result.looped, result.transit_hops, reply)


def _assert_equivalent(world, rows, *, hop_limit, batch_size, epoch=2):
    targets, times, ids = rows
    expected, expected_stats = spec_probes(
        world, targets, times, hop_limit=hop_limit, probe_ids=ids, epoch=epoch
    )
    got, stats = _kernel(
        world,
        targets,
        times,
        ids,
        hop_limit=hop_limit,
        batch_size=batch_size,
        epoch=epoch,
    )
    assert len(got) == len(expected)
    for i, result in enumerate(expected):
        assert got[i] == _spec_row(result), (i, hex(targets[i]))
    assert asdict(stats) == asdict(expected_stats)
    return expected, expected_stats


HOP_LIMITS = ["0", "1", "transit-1", "transit", "64", "255"]


def _hop_limit(name, transit):
    if name == "transit-1":
        return transit - 1
    if name == "transit":
        return transit
    return int(name)


@pytest.mark.parametrize("batch_size", [1, 7, 1024])
@pytest.mark.parametrize("hop_name", HOP_LIMITS)
def test_kernel_matches_spec(tiny_world, rows, transit, hop_name, batch_size):
    _assert_equivalent(
        tiny_world,
        rows,
        hop_limit=_hop_limit(hop_name, transit),
        batch_size=batch_size,
    )


def test_rows_exercise_every_behaviour(tiny_world, rows, transit):
    """The differential cases above prove nothing about a branch the rows
    never reach; pin that the workload hits each kind of outcome."""
    expected, stats = _assert_equivalent(
        tiny_world, rows, hop_limit=64, batch_size=1024
    )
    assert stats.lost and stats.loops_hit and stats.amplified_replies
    assert stats.suppressed_errors and stats.echo_replies
    icmp_types = {
        int(reply.icmp_type) for result in expected for reply in result.replies
    }
    assert len(icmp_types) == 3  # echo reply, unreachable, time exceeded
    aliased_sras = {
        subnet.sra_address
        for subnet in tiny_world.subnets.values()
        if subnet.aliased
    }
    assert aliased_sras & set(rows[0])
    assert len(set(rows[0])) < len(rows[0])  # duplicates present
    assert rows[0] != sorted(rows[0])
    # Below the transit length probes die in transit with Time Exceeded.
    short, _ = _assert_equivalent(
        tiny_world, rows, hop_limit=transit - 1, batch_size=7
    )
    assert any(result.transit_hops >= transit for result in short)


@pytest.mark.parametrize("epoch", [0, 5])
def test_kernel_matches_spec_across_epochs_and_heavy_loss(
    tiny_world, rows, epoch
):
    lossy = replace(tiny_world, packet_loss=0.3)
    _assert_equivalent(lossy, rows, hop_limit=64, batch_size=7, epoch=epoch)


def test_probe_is_a_batch_of_one(tiny_world, rows):
    """The public per-probe entry point agrees with the spec too."""
    targets, times, ids = rows
    expected, expected_stats = spec_probes(
        tiny_world, targets[:300], times[:300], probe_ids=ids[:300]
    )
    engine = SimulationEngine(tiny_world)
    got = [
        engine.probe(target, time, probe_id=probe_id)
        for target, time, probe_id in zip(targets[:300], times[:300], ids[:300])
    ]
    assert got == expected
    assert engine.stats == expected_stats
