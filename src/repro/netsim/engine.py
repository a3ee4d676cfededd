"""Packet-level behaviour of the simulated Internet.

:class:`SimulationEngine` answers one question: *given a probe sent from
the vantage point to destination D at virtual time t in scan epoch e, which
ICMPv6 packets come back?*  It walks the probe hop by hop:

1. BGP longest-prefix match.  Unrouted destinations draw a (rate-limited)
   "no route" error from the vantage's upstream router.
2. Transit traversal.  Each AS on the vantage→origin path costs one hop;
   a hop limit that expires in transit yields a Time Exceeded from that
   transit router — this is also how the traceroute datasets are built.
3. Destination resolution via the world's longest-prefix index:
   an active subnet (SRA semantics, hosts, router interfaces, unassigned
   addresses), an aliased region, an infrastructure subnet, a routing-loop
   region (with the amplification firmware bug), or — default — unassigned
   announced space answered by the origin's border router.

ICMPv6 *error* messages pass through the emitting router's RFC 4443 token
bucket plus an "on-off" background-load gate (Ravaioli et al. observed
routers alternating between answering and silence under cross traffic);
Echo replies are never rate limited, which is exactly the asymmetry SRA
probing exploits.

All of this is implemented once, in the columnar batch kernel
:meth:`SimulationEngine.probe_columns`; :meth:`~SimulationEngine.probe`
and :meth:`~SimulationEngine.probe_batch` are per-probe views onto it.
The test suite checks the kernel against an executable scalar reference
model (``tests/spec_forwarding.py``).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Sequence

from ..addr.ipv6 import split_into
from ..packet.icmpv6 import ICMPv6Type, UnreachableCode
from ..topology.entities import EntryKind, Router, World
from ..topology.profiles import SRABehavior
from .ratelimit import TokenBucket
from .stochastic import base_hasher, stable_bool, stable_unit

# Cap on materialised reply counts for amplified loops; counts above this
# are reported truthfully in `Reply.count` but the engine never enumerates.
AMPLIFICATION_CAP = 1 << 22  # ~4.2M replies per probe

_PURPOSE_LOSS = b"loss"
# Packed-word layouts for the inlined draws (see probe_columns): the loss
# keys are (target, probe_id, epoch) and the behaviour draws are keyed
# (key, epoch); a key over 62 bits contributes two words, exactly as
# stable_unit would pack it.
_PACK_2 = struct.Struct(">2q")
_PACK_LOSS_3 = struct.Struct(">3q")
_PACK_LOSS_4 = struct.Struct(">4q")
_MASK63 = 0x7FFFFFFFFFFFFFFF
_MASK64 = (1 << 64) - 1
_UNIT_SCALE = float(1 << 64)
_PURPOSE_FLAKY = b"flaky"
_PURPOSE_HOST = b"host"
_PURPOSE_DIRECT = b"direct"
_PURPOSE_FLIP = b"flip"
_PURPOSE_BG_WINDOW = b"bgwin"
_PURPOSE_BG_JITTER = b"bgjit"


@dataclass(slots=True)
class Reply:
    """One (possibly replicated) ICMPv6 reply arriving at the vantage.

    Treated as immutable by convention; not ``frozen=True`` because the
    frozen ``__init__`` funnels every field through ``object.__setattr__``,
    which costs ~3x on this allocation-heavy hot path.
    """

    source: int
    icmp_type: ICMPv6Type
    code: int
    count: int = 1
    router_id: int | None = None

    @property
    def is_echo(self) -> bool:
        return self.icmp_type is ICMPv6Type.ECHO_REPLY

    @property
    def is_error(self) -> bool:
        return self.icmp_type.is_error


@dataclass(slots=True)
class ProbeResult:
    """Everything a probe produced.

    Immutable by convention (see :class:`Reply` for why not ``frozen``).
    """

    target: int
    time: float
    epoch: int
    replies: tuple[Reply, ...] = ()
    lost: bool = False
    looped: bool = False
    amplification: int = 0
    transit_hops: int = 0

    @property
    def replied(self) -> bool:
        return bool(self.replies)


@dataclass(slots=True)
class EngineStats:
    """Aggregate counters over an engine's lifetime (scan epoch)."""

    probes: int = 0
    lost: int = 0
    echo_replies: int = 0
    error_replies: int = 0
    suppressed_errors: int = 0
    loops_hit: int = 0
    amplified_replies: int = 0


# ProbeColumns.flags bits.  Exactly one of LOST / (LOOPED|REPLY in any
# combination) describes a row; a zero byte means "probed, no reply".
FLAG_LOST = 1
FLAG_LOOPED = 2
FLAG_REPLY = 4

# Column prefill patterns (see ProbeColumns.reserve): the kernel only
# writes the minority values — count on amplified loops, icmp_type/code
# on error replies whose code is non-zero.
_ECHO_BYTE = bytes([int(ICMPv6Type.ECHO_REPLY)])
_ONE_Q = array("Q", [1]).tobytes()


class ProbeColumns:
    """One probe batch as packed parallel columns (structure-of-arrays).

    The columnar kernel (:meth:`SimulationEngine.probe_columns`) fills one
    of these per batch instead of allocating a ``ProbeResult``/``Reply``
    pair per probe.  Input columns (``targets``, ``times``) are borrowed
    references to the caller's sequences; result columns are compact
    ``array`` buffers reused across batches via ``out=``.

    Column validity contract, per row ``i``:

    * ``flags[i]`` is always valid (``FLAG_LOST`` / ``FLAG_LOOPED`` /
      ``FLAG_REPLY`` bits).
    * ``transit[i]`` is valid whenever ``FLAG_LOST`` is clear.
    * ``source_hi/source_lo`` (the reply source as 64-bit halves),
      ``icmp_type``, ``code``, ``count`` and ``router_id`` (``-1`` encodes
      "unknown router") are valid only when ``FLAG_REPLY`` is set.

    Reused buffers never leak stale rows because every kernel path writes
    the flags byte for every probe of the batch.
    """

    __slots__ = (
        "n",
        "targets",
        "times",
        "flags",
        "source_hi",
        "source_lo",
        "icmp_type",
        "code",
        "count",
        "router_id",
        "transit",
        "_zero_fill",
        "_echo_fill",
        "_ones_fill",
    )

    def __init__(self) -> None:
        self.n = 0
        self.targets: Sequence[int] = ()
        self.times: Sequence[float] = ()
        self.flags = array("B")
        self.source_hi = array("Q")
        self.source_lo = array("Q")
        self.icmp_type = array("B")
        self.code = array("B")
        self.count = array("Q")
        self.router_id = array("q")
        self.transit = array("H")
        self._zero_fill = b""
        self._echo_fill = b""
        self._ones_fill = b""

    def reserve(self, n: int) -> None:
        """Size the result columns for ``n`` rows and prefill the
        constant-majority values: ``count=1``, ``code=0``,
        ``icmp_type=ECHO_REPLY``.  The kernel then writes only the
        minority values (amplified counts, error types/codes), which is
        most of what makes an echo row four column writes instead of
        seven.  Other columns are left undefined until written."""
        self.n = n
        have = len(self.flags)
        if have < n:
            grow = n - have
            self.flags.frombytes(bytes(grow))
            self.icmp_type.frombytes(bytes(grow))
            self.code.frombytes(bytes(grow))
            self.source_hi.frombytes(bytes(8 * grow))
            self.source_lo.frombytes(bytes(8 * grow))
            self.count.frombytes(bytes(8 * grow))
            self.router_id.frombytes(bytes(8 * grow))
            self.transit.frombytes(bytes(2 * grow))
            cap = len(self.flags)
            self._zero_fill = bytes(cap)
            self._echo_fill = _ECHO_BYTE * cap
            self._ones_fill = _ONE_Q * cap
        memoryview(self.icmp_type)[:n] = self._echo_fill[:n]
        memoryview(self.code)[:n] = self._zero_fill[:n]
        memoryview(self.count).cast("B")[: 8 * n] = self._ones_fill[: 8 * n]

    def source(self, i: int) -> int:
        """The reply source address of row ``i`` as a 128-bit int."""
        return (self.source_hi[i] << 64) | self.source_lo[i]

    def target_pairs(self) -> tuple[array, array]:
        """The batch targets as hi/lo ``array('Q')`` int-pair columns —
        the packing the shared-memory shard transport ships."""
        hi = array("Q", bytes(8 * self.n))
        lo = array("Q", bytes(8 * self.n))
        split_into(self.targets, range(self.n), hi, lo)
        return hi, lo


class SimulationEngine:
    """Stateful per-epoch simulation: owns rate-limiter buckets.

    Create one engine per scan (or call :meth:`new_epoch` between scans);
    token-bucket state deliberately persists *within* an epoch so that
    scan pacing interacts with rate limiting the way it does on real
    routers.
    """

    def __init__(
        self,
        world: World,
        *,
        epoch: int = 0,
        background_window: float = 1.0,
        defer_rate_limit: bool = False,
    ) -> None:
        if world.vantage is None:
            raise ValueError("world has no vantage point")
        self.world = world
        self.epoch = epoch
        self.background_window = background_window
        self.stats = EngineStats()
        # Deferred mode: `_error_allowed` records (time, router_id) and lets
        # every error through.  A sharded scan runs each shard deferred, then
        # replays the recorded checks in global time order on a fresh engine —
        # the rate limiter is the engine's only cross-probe mutable state, so
        # the replay reproduces the serial outcome exactly (scanner/sharded).
        self.defer_rate_limit = defer_rate_limit
        self.pending_checks: list[tuple[float, int]] = []
        self._buckets: dict[int, TokenBucket] = {}
        self._bg_load: dict[int, float] = {}
        # Memoised background-window draws, keyed (router_id, window).
        # The draw is a pure keyed hash of exactly that pair (plus the
        # epoch, which scopes the cache via new_epoch), so caching it
        # changes nothing observable — it only spares one blake2 digest
        # per error attempt within a window.
        self._bg_window: dict[tuple[int, int], bool] = {}
        # Optional hot-path observability hook (duck-typed: anything with
        # on_loop(router_id, time) / on_suppressed(router_id, time), e.g.
        # repro.telemetry.HotPathCollector).  Scanners attach one for the
        # duration of an instrumented scan.  Both call sites sit on rare
        # branches (loop entry, error suppression), so a disabled engine
        # pays a single `is not None` check there and nothing on the
        # per-probe fast path.
        self.telemetry = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def new_epoch(self, epoch: int) -> None:
        """Start a new scan epoch: reset buckets, caches, and counters."""
        self.epoch = epoch
        self.stats = EngineStats()
        self.pending_checks.clear()
        self._buckets.clear()
        self._bg_load.clear()
        self._bg_window.clear()

    def as_backend(self):
        """This engine behind the scanner's probe-backend seam.

        Returns a :class:`~repro.scanner.backends.sim.SimBackend`
        wrapping ``self`` (imported locally: the engine must stay
        importable without the scanner package).
        """
        from ..scanner.backends.sim import SimBackend

        return SimBackend(self)

    # ------------------------------------------------------------------ #
    # the probe path
    # ------------------------------------------------------------------ #

    def probe(
        self,
        target: int,
        time: float,
        *,
        hop_limit: int = 64,
        probe_id: int = 0,
    ) -> ProbeResult:
        """Send one ICMPv6 Echo Request from the vantage to ``target``:
        a batch of one through :meth:`probe_batch`.  Per-probe callers
        (traceroute datasets, rate-limit inference, pcap export) share
        the batched kernel's semantics exactly."""
        return self.probe_batch(
            [target], [time], hop_limit=hop_limit, probe_ids=[probe_id]
        )[0]

    def probe_columns(
        self,
        targets: Sequence[int],
        times: Sequence[float],
        *,
        hop_limit: int = 64,
        probe_ids: Sequence[int] | None = None,
        out: ProbeColumns | None = None,
    ) -> ProbeColumns:
        """Send one Echo Request per target, filling packed result columns.

        This is the scanner's hot path — the single batched kernel behind
        :meth:`probe_batch`.  Instead of one ``ProbeResult``/``Reply``
        allocation per probe it writes parallel ``array`` columns, in
        three phases that together stay bit-identical to walking the
        probes one at a time, in order (the scalar reference model in
        ``tests/spec_forwarding.py``):

        A. *Loss draws*, in probe order — pure keyed-hash draws with the
           hasher primed once per batch and copied per probe.
        B. *Routing lookups*, in block-sorted order — live rows are
           sorted by target and run through the vectorised LPMs
           (``longest_match_batch``), so one BGP walk and one resolution
           walk serve an entire run of same-block targets.  Lookups are
           pure, so reordering cannot change results.
        C. *Effects dispatch*, back in probe order — everything stateful
           (token buckets, the background-load gate, stats, telemetry)
           runs here, in exactly the order a probe-by-probe walk would,
           because probe times are non-decreasing in probe order.
        """
        world = self.world
        seed = world.seed
        loss = world.packet_loss
        epoch = self.epoch
        n = len(targets)
        cols = out if out is not None else ProbeColumns()
        cols.reserve(n)
        cols.targets = targets
        cols.times = times
        flags = cols.flags

        # -------- phase A: loss draws, probe order -------------------- #
        # Same digest stream as stable_bool(seed, b"loss", loss, target,
        # probe_id, epoch); targets over 62 bits (every real IPv6
        # address) contribute a second packed word, exactly as
        # stable_unit packs them.  Odd-shaped probe_ids or epochs fall
        # back to the generic draw.
        pack2 = _PACK_2.pack
        pack3 = _PACK_LOSS_3.pack
        pack4 = _PACK_LOSS_4.pack
        epoch_word = epoch & _MASK63
        simple_epoch = 0 <= epoch and epoch.bit_length() <= 62
        lost_count = 0
        if loss > 0.0:
            loss_base = base_hasher(seed, _PURPOSE_LOSS)
            for i in range(n):
                target = targets[i]
                probe_id = probe_ids[i] if probe_ids is not None else 0
                if (
                    simple_epoch
                    and target >= 0
                    and 0 <= probe_id
                    and probe_id.bit_length() <= 62
                ):
                    hasher = loss_base.copy()
                    if target.bit_length() > 62:
                        hasher.update(
                            pack4(
                                target & _MASK63,
                                (target >> 62) & _MASK63,
                                probe_id,
                                epoch_word,
                            )
                        )
                    else:
                        hasher.update(pack3(target, probe_id, epoch_word))
                    lost_draw = (
                        int.from_bytes(hasher.digest(), "big") / _UNIT_SCALE
                        < loss
                    )
                else:
                    lost_draw = stable_bool(
                        seed, _PURPOSE_LOSS, loss, target, probe_id, epoch
                    )
                if lost_draw:
                    flags[i] = FLAG_LOST
                    lost_count += 1
                else:
                    flags[i] = 0
        else:
            memoryview(flags)[:n] = cols._zero_fill[:n]
        self.stats.probes += n
        self.stats.lost += lost_count

        # -------- phase B: vectorised lookups, block-sorted ----------- #
        if lost_count:
            live = [i for i in range(n) if not flags[i]]
        else:
            live = list(range(n))
        live.sort(key=targets.__getitem__)
        paths_get = world.paths.get
        transit_col = cols.transit
        matches: list = [None] * n
        world.bgp.lpm.longest_match_batch(targets, live, matches)
        resolve_rows: list[int] = []
        if hop_limit >= 1:
            rappend = resolve_rows.append
            for i in live:
                match = matches[i]
                if match is not None:
                    transit = len(paths_get(match[1], ()))
                    transit_col[i] = transit
                    if hop_limit > transit:
                        rappend(i)
        else:
            # probe() reports transit_hops=0 when the hop limit is spent
            # before the first hop; unrouted rows are overwritten in C.
            for i in live:
                transit_col[i] = 0
        entries: list = [None] * n
        world.resolution.longest_match_batch(targets, resolve_rows, entries)

        # -------- phase C: effects dispatch, probe order -------------- #
        routers = world.routers
        ases_get = world.ases.get
        upstream = routers[world.vantage.upstream_router_id]  # type: ignore[union-attr]
        upstream_source = self._router_error_source(upstream)
        upstream_hi = upstream_source >> 64
        upstream_lo = upstream_source & _MASK64
        upstream_id = upstream.router_id
        subnet_kind = EntryKind.SUBNET
        alias_kind = EntryKind.ALIAS
        infra_kind = EntryKind.INFRA
        sra_drop = SRABehavior.DROP
        sra_error = SRABehavior.ERROR
        stats = self.stats
        telemetry = self.telemetry
        error_allowed = self._error_reply_allowed
        source_hi = cols.source_hi
        source_lo = cols.source_lo
        icmp_col = cols.icmp_type
        code_col = cols.code
        count_col = cols.count
        rid_col = cols.router_id
        # NO_ROUTE and HOP_LIMIT_EXCEEDED are both 0, ECHO_REPLY is the
        # prefill — only ADDRESS_UNREACHABLE rows write a code value.
        icmp_unreach = int(ICMPv6Type.DESTINATION_UNREACHABLE)
        icmp_exceeded = int(ICMPv6Type.TIME_EXCEEDED)
        code_addr_unreach = int(UnreachableCode.ADDRESS_UNREACHABLE)
        unit_scale = _UNIT_SCALE
        mask63 = _MASK63

        if simple_epoch:
            host_base = base_hasher(seed, _PURPOSE_HOST)
            flaky_base = base_hasher(seed, _PURPOSE_FLAKY)
            direct_base = base_hasher(seed, _PURPOSE_DIRECT)
            flip_base = base_hasher(seed, _PURPOSE_FLIP)

            def draw(base, purpose, probability, key):
                # Inlined stable_bool(seed, purpose, probability, key,
                # epoch): identical digest stream, minus the generic
                # packing loop.  Negative keys take the generic path.
                if key >= 0:
                    hasher = base.copy()
                    if key.bit_length() > 62:
                        hasher.update(
                            pack3(key & mask63, (key >> 62) & mask63, epoch_word)
                        )
                    else:
                        hasher.update(pack2(key, epoch_word))
                    return (
                        int.from_bytes(hasher.digest(), "big") / unit_scale
                        < probability
                    )
                return stable_bool(seed, purpose, probability, key, epoch)

        else:
            host_base = flaky_base = direct_base = flip_base = None

            def draw(base, purpose, probability, key):
                return stable_bool(seed, purpose, probability, key, epoch)

        # Per-batch subnet plans: everything about a subnet's behaviour
        # that is constant within an epoch — liveness (death epoch +
        # flaky draw), the SRA behaviour and its reply source (including
        # the unstable-source flip), the direct-ping draw, and the error
        # source — computed once per subnet per batch.  All of it is pure
        # (keyed-hash draws carry no state), so hoisting changes nothing
        # observable; the cache lives only for this call, so topology
        # mutations between batches are always picked up.
        #   dead plan:  (False, router, src_hi, src_lo, rid)
        #   alive plan: (True, router, aliased, action, ans_hi, ans_lo,
        #                direct_ok, err_hi, err_lo, rid)
        #   action: 0 = DROP, 1 = ERROR, 2 = ANSWER
        subnet_plans: dict[int, tuple] = {}
        plans_get = subnet_plans.get

        echo_replies = 0
        for i in range(n):
            if flags[i]:  # only FLAG_LOST is set at this point
                continue
            target = targets[i]
            match = matches[i]
            if match is None:
                transit_col[i] = 0
                if error_allowed(upstream, times[i], True):
                    flags[i] = FLAG_REPLY
                    source_hi[i] = upstream_hi
                    source_lo[i] = upstream_lo
                    icmp_col[i] = icmp_unreach
                    # code stays 0 (NO_ROUTE), count stays 1 (prefilled)
                    rid_col[i] = upstream_id
                continue

            transit = transit_col[i]
            if hop_limit <= transit:
                if hop_limit < 1:
                    continue
                hop = paths_get(match[1], ())[hop_limit - 1]
                router = routers[hop.router_id]
                if error_allowed(router, times[i], False):
                    flags[i] = FLAG_REPLY
                    source = hop.interface
                    source_hi[i] = source >> 64
                    source_lo[i] = source & _MASK64
                    icmp_col[i] = icmp_exceeded
                    # code stays 0 (HOP_LIMIT_EXCEEDED), count stays 1
                    rid_col[i] = router.router_id
                continue

            entry_match = entries[i]
            if entry_match is None:
                # Announced but unassigned space.  The error originates at
                # whatever *internal* router holds the closest covering
                # route for the destination (deterministic per /56: ISP
                # internals aggregate hierarchically), so unassigned space
                # spreads error sources across many router IPs, as
                # observed.
                asn = match[1]
                info = ases_get(asn)
                if info is not None and info.filters_unroutable:
                    continue
                responsible = self._responsible_router(asn, target)
                if responsible is None:
                    continue
                if responsible.errors_from_primary and responsible.loopback:
                    source = responsible.loopback
                else:
                    # Customer-facing sub-interface of the aggregation
                    # router: a distinct address per /56 region (point-to-
                    # point/VLAN links carry addresses from the delegated
                    # space).  This is why error sources in the /48 and /64
                    # partition scans are so numerous — and why most of
                    # them never answer a direct probe.
                    source = ((target >> 72) << 72) | 0xFFFE
                if error_allowed(responsible, times[i], True):
                    flags[i] = FLAG_REPLY
                    source_hi[i] = source >> 64
                    source_lo[i] = source & _MASK64
                    icmp_col[i] = icmp_unreach
                    # code stays 0 (NO_ROUTE), count stays 1 (prefilled)
                    rid_col[i] = responsible.router_id
                continue

            entry = entry_match[1]
            kind = entry.kind
            if kind is subnet_kind:
                subnet = entry.payload
                plan = plans_get(id(subnet))
                if plan is None:
                    death = subnet.death_epoch
                    router = routers[subnet.router_id]
                    if (death is not None and epoch >= death) or (
                        subnet.flaky
                        and not draw(
                            flaky_base,
                            _PURPOSE_FLAKY,
                            0.55,
                            subnet.prefix.network,
                        )
                    ):
                        # Dead (or flaky-off) subnet: the interface is down
                        # but the route usually lingers in the IGP, so the
                        # *last-hop* router answers Address Unreachable
                        # from the subnet-facing interface — a distinct
                        # source per dead subnet.  This is what makes the
                        # error-IP population of the hitlist scan so large
                        # (Fig. 4).
                        iface = subnet.router_interface
                        plan = (
                            False,
                            router,
                            iface >> 64,
                            iface & _MASK64,
                            router.router_id,
                        )
                    else:
                        behavior = router.vendor.sra_behavior
                        ans_hi = ans_lo = 0
                        if behavior is sra_drop:
                            action = 0
                        elif behavior is sra_error:
                            action = 1
                        else:
                            action = 2
                            # The RFC says "its own full source address";
                            # which interface that is differs between
                            # implementations (and is what makes AS
                            # attribution of SRA replies error-prone when
                            # peering-LAN addresses leak).
                            if (
                                router.replies_from_peering
                                and router.peering_lan_address is not None
                            ):
                                source = router.peering_lan_address
                            elif router.sra_from_primary:
                                source = router.loopback
                            elif router.unstable_reply_source and draw(
                                flip_base, _PURPOSE_FLIP, 0.5, router.router_id
                            ):
                                source = router.loopback
                            else:
                                source = subnet.router_interface
                            ans_hi = source >> 64
                            ans_lo = source & _MASK64
                        err = self._router_error_source(
                            router, subnet.router_interface
                        )
                        plan = (
                            True,
                            router,
                            subnet.aliased,
                            action,
                            ans_hi,
                            ans_lo,
                            router.answers_direct_ping
                            and draw(
                                direct_base,
                                _PURPOSE_DIRECT,
                                0.96,
                                router.router_id,
                            ),
                            err >> 64,
                            err & _MASK64,
                            router.router_id,
                        )
                    subnet_plans[id(subnet)] = plan
                if not plan[0]:
                    if error_allowed(plan[1], times[i], True):
                        flags[i] = FLAG_REPLY
                        source_hi[i] = plan[2]
                        source_lo[i] = plan[3]
                        icmp_col[i] = icmp_unreach
                        code_col[i] = code_addr_unreach
                        rid_col[i] = plan[4]
                    continue
                if plan[2]:
                    # Aliased networks answer on *every* address —
                    # including the SRA address itself, which is the alias
                    # filter's tell-tale.
                    echo_replies += 1
                    flags[i] = FLAG_REPLY
                    source_hi[i] = target >> 64
                    source_lo[i] = target & _MASK64
                    rid_col[i] = -1
                    continue
                if target == subnet.sra_address:
                    action = plan[3]
                    if action == 2:  # ANSWER
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = plan[4]
                        source_lo[i] = plan[5]
                        rid_col[i] = plan[9]
                    elif action == 1:  # ERROR
                        if error_allowed(plan[1], times[i], True):
                            flags[i] = FLAG_REPLY
                            source_hi[i] = plan[7]
                            source_lo[i] = plan[8]
                            icmp_col[i] = icmp_unreach
                            code_col[i] = code_addr_unreach
                            rid_col[i] = plan[9]
                    continue
                if target == subnet.router_interface:
                    if plan[6]:
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & _MASK64
                        rid_col[i] = plan[9]
                    continue
                if target in subnet.hosts:
                    if draw(host_base, _PURPOSE_HOST, 0.85, target):
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & _MASK64
                        rid_col[i] = -1
                    continue
                # Unassigned address inside an active subnet.
                if error_allowed(plan[1], times[i], True):
                    flags[i] = FLAG_REPLY
                    source_hi[i] = plan[7]
                    source_lo[i] = plan[8]
                    icmp_col[i] = icmp_unreach
                    code_col[i] = code_addr_unreach
                    rid_col[i] = plan[9]
                continue
            if kind is alias_kind:
                echo_replies += 1
                flags[i] = FLAG_REPLY
                source_hi[i] = target >> 64
                source_lo[i] = target & _MASK64
                rid_col[i] = -1
                continue
            if kind is infra_kind:
                infra = entry.payload
                router_id = infra.interfaces.get(target)
                if router_id is not None:
                    router = routers[router_id]
                    if router.answers_direct_ping and draw(
                        direct_base, _PURPOSE_DIRECT, 0.96, router.router_id
                    ):
                        echo_replies += 1
                        flags[i] = FLAG_REPLY
                        source_hi[i] = target >> 64
                        source_lo[i] = target & _MASK64
                        rid_col[i] = router.router_id
                    continue
                border = self._border_router(infra.asn)
                if border is None:
                    continue
                if error_allowed(border, times[i], True):
                    flags[i] = FLAG_REPLY
                    source = self._router_error_source(border)
                    source_hi[i] = source >> 64
                    source_lo[i] = source & _MASK64
                    icmp_col[i] = icmp_unreach
                    code_col[i] = code_addr_unreach
                    rid_col[i] = border.router_id
                continue
            # Routing-loop region: customer<->provider ping-pong until the
            # hop limit expires.  The Time Exceeded is generated (and, with
            # buggy firmware, massively replicated) at the misconfigured
            # customer edge router — the paper observes floods "from the
            # same router".
            region = entry.payload
            stats.loops_hit += 1
            time = times[i]
            if telemetry is not None:
                telemetry.on_loop(region.customer_router_id, time)
            customer = routers[region.customer_router_id]
            remaining = hop_limit - transit
            if remaining < 1:
                flags[i] = FLAG_LOOPED
                continue
            source = self._router_error_source(customer)
            amplification = self._loop_amplification(customer, remaining)
            if amplification > 1:
                # The firmware bug replicates packets in the fast path; the
                # resulting Time Exceeded flood bypasses the control-plane
                # rate limiter (this is what makes it dangerous).
                count = min(amplification, AMPLIFICATION_CAP)
                stats.error_replies += count
                stats.amplified_replies += count - 1
                flags[i] = FLAG_LOOPED | FLAG_REPLY
                source_hi[i] = source >> 64
                source_lo[i] = source & _MASK64
                icmp_col[i] = icmp_exceeded
                # code stays 0 (HOP_LIMIT_EXCEEDED)
                count_col[i] = count
                rid_col[i] = customer.router_id
            elif error_allowed(customer, time, False):
                flags[i] = FLAG_LOOPED | FLAG_REPLY
                source_hi[i] = source >> 64
                source_lo[i] = source & _MASK64
                icmp_col[i] = icmp_exceeded
                # code stays 0 (HOP_LIMIT_EXCEEDED), count stays 1
                rid_col[i] = customer.router_id
            else:
                flags[i] = FLAG_LOOPED

        stats.echo_replies += echo_replies
        return cols

    def probe_batch(
        self,
        targets: list[int],
        times: list[float],
        *,
        hop_limit: int = 64,
        probe_ids: list[int] | None = None,
    ) -> list[ProbeResult]:
        """Send one Echo Request per target; one :class:`ProbeResult` per
        row, in row order.

        Adapter over :meth:`probe_columns` — the columnar kernel is the
        only forwarding implementation; this reconstructs the per-probe
        dataclasses from its packed result columns.
        """
        cols = self.probe_columns(
            targets, times, hop_limit=hop_limit, probe_ids=probe_ids
        )
        epoch = self.epoch
        flags = cols.flags
        source_hi = cols.source_hi
        source_lo = cols.source_lo
        icmp_col = cols.icmp_type
        code_col = cols.code
        count_col = cols.count
        rid_col = cols.router_id
        transit_col = cols.transit
        results: list[ProbeResult] = []
        append = results.append
        for i in range(len(targets)):
            f = flags[i]
            if f & FLAG_LOST:
                append(ProbeResult(targets[i], times[i], epoch, lost=True))
                continue
            looped = bool(f & FLAG_LOOPED)
            if f & FLAG_REPLY:
                rid = rid_col[i]
                count = count_col[i]
                reply = Reply(
                    (source_hi[i] << 64) | source_lo[i],
                    ICMPv6Type(icmp_col[i]),
                    code_col[i],
                    count=count,
                    router_id=None if rid < 0 else rid,
                )
                append(
                    ProbeResult(
                        targets[i],
                        times[i],
                        epoch,
                        replies=(reply,),
                        looped=looped,
                        amplification=count if looped else 0,
                        transit_hops=transit_col[i],
                    )
                )
            else:
                append(
                    ProbeResult(
                        targets[i],
                        times[i],
                        epoch,
                        looped=looped,
                        transit_hops=transit_col[i],
                    )
                )
        return results

    # ------------------------------------------------------------------ #
    # building blocks
    # ------------------------------------------------------------------ #

    def _loop_amplification(self, customer: Router, remaining: int) -> int:
        factor = customer.replication_factor
        if factor <= 1.0:
            return 1
        cycles = remaining / 2.0
        try:
            amplification = factor**cycles
        except OverflowError:
            return AMPLIFICATION_CAP
        if amplification >= AMPLIFICATION_CAP:
            return AMPLIFICATION_CAP
        return max(1, round(amplification))

    def _responsible_router(self, asn: int, target: int) -> Router | None:
        """The internal router whose aggregate covers the target's /56.

        ISP internals aggregate below the /48 level (per-PoP, per-BNG),
        so errors for the /64s of one /48 spread over several routers —
        which is why the paper's /64 partition scan discovers the most
        router IPs of all BGP-derived inputs (45 M, Table 2).
        """
        info = self.world.ases.get(asn)
        if info is None:
            return None
        if not info.router_ids:
            return self._border_router(asn)
        slash56 = target >> 72
        index = int(
            stable_unit(self.world.seed, b"aggroute", asn, slash56)
            * len(info.router_ids)
        )
        return self.world.routers[info.router_ids[index]]

    def _border_router(self, asn: int) -> Router | None:
        info = self.world.ases.get(asn)
        if info is None or info.border_router_id is None:
            return None
        return self.world.routers[info.border_router_id]

    def _router_error_source(self, router: Router, hint: int | None = None) -> int:
        """Where a router sources its ICMP errors: the subnet-facing
        interface (``hint``) or, for primary-source policies, its loopback."""
        if router.errors_from_primary and router.loopback:
            return router.loopback
        if hint is not None:
            return hint
        if router.interface_addresses:
            return router.interface_addresses[0]
        return router.loopback

    def _error_reply_allowed(
        self, router: Router, time: float, unreachable: bool
    ) -> bool:
        """Originate an ICMPv6 error or not: the router's unreachable-
        filtering policy ("no ip unreachables"), the RFC 4443 rate-limit /
        background-load gate, and the stats accounting.  True means the
        error goes out and the kernel writes its result columns."""
        if unreachable and not router.emits_unreachables:
            return False
        if not self._error_allowed(router, time):
            self.stats.suppressed_errors += 1
            return False
        self.stats.error_replies += 1
        return True

    def error_allowed(self, router_id: int, time: float) -> bool:
        """Evaluate one rate-limit check by router id — the replay hook used
        when merging deferred-mode shards.  Calls for one router must arrive
        with non-decreasing timestamps, as during a live scan."""
        return self._error_allowed(self.world.routers[router_id], time)

    def _error_allowed(self, router: Router, time: float) -> bool:
        if self.defer_rate_limit:
            self.pending_checks.append((time, router.router_id))
            return True
        load = self._bg_load.get(router.router_id)
        if load is None:
            jitter = 0.5 + stable_unit(
                self.world.seed, _PURPOSE_BG_JITTER, router.router_id, self.epoch
            )
            load = min(0.95, router.background_error_load * jitter)
            self._bg_load[router.router_id] = load
        if load > 0.0:
            window = int(time / self.background_window)
            window_key = (router.router_id, window)
            suppressed = self._bg_window.get(window_key)
            if suppressed is None:
                suppressed = stable_bool(
                    self.world.seed,
                    _PURPOSE_BG_WINDOW,
                    load,
                    router.router_id,
                    self.epoch,
                    window,
                )
                self._bg_window[window_key] = suppressed
            if suppressed:
                telemetry = self.telemetry
                if telemetry is not None:
                    telemetry.on_suppressed(router.router_id, time)
                return False
        bucket = self._buckets.get(router.router_id)
        if bucket is None:
            vendor = router.vendor
            initial = vendor.error_burst * (
                1.0
                - stable_unit(
                    self.world.seed,
                    _PURPOSE_BG_JITTER,
                    router.router_id,
                    self.epoch,
                    1,
                )
                * load
            )
            bucket = TokenBucket(
                vendor.error_rate * (1.0 - load),
                vendor.error_burst,
                initial=initial,
            )
            self._buckets[router.router_id] = bucket
        allowed = bucket.allow(time)
        if not allowed:
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.on_suppressed(router.router_id, time)
        return allowed