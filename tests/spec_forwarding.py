"""Executable forwarding spec: the scalar, one-probe-at-a-time model.

:meth:`SimulationEngine.probe_columns` is the simulator's only forwarding
implementation.  It is fast because it is clever — block-sorted batch
LPMs, per-batch subnet plans, inlined keyed-hash draws — and clever code
needs an oracle.  :class:`SpecEngine` is that oracle: the original
per-probe walk, kept deliberately plain, one method per destination
behaviour (DESIGN.md §1–2):

* RFC 4291 §2.6.1 subnet-router anycast replies from the router's own
  address (:meth:`SpecEngine._probe_sra`),
* RFC 4443 §2.4(f) error rate limiting via the engine's shared
  ``_error_reply_allowed`` gate (:meth:`SpecEngine._emit_error`),
* customer-default-route loops with hop-limit-bounded amplification
  (:meth:`SpecEngine._probe_loop`),
* aliased and infrastructure prefixes, and unassigned space.

The differential tests (``test_spec_forwarding.py`` and the engine-level
pins in ``test_hotpath_determinism.py``) compare :meth:`SpecEngine.probe`
called once per row against ``probe_columns`` over the same rows, so a
kernel optimisation that changes a verdict, a source, a counter or a
rate-limit decision fails there, not in a downstream golden.

Only :meth:`SpecEngine.probe` is the spec; every other method a
``SpecEngine`` inherits (``probe_columns``, ``probe_batch``) is the
kernel under test.
"""

from __future__ import annotations

from repro.netsim.engine import (
    _PURPOSE_DIRECT,
    _PURPOSE_FLAKY,
    _PURPOSE_FLIP,
    _PURPOSE_HOST,
    _PURPOSE_LOSS,
    AMPLIFICATION_CAP,
    EngineStats,
    ProbeResult,
    Reply,
    SimulationEngine,
)
from repro.netsim.stochastic import stable_bool
from repro.packet.icmpv6 import ICMPv6Type, TimeExceededCode, UnreachableCode
from repro.topology.entities import (
    AliasRegion,
    EntryKind,
    InfraSubnet,
    LoopRegion,
    Router,
    Subnet,
)
from repro.topology.profiles import SRABehavior


class SpecEngine(SimulationEngine):
    """A :class:`SimulationEngine` whose :meth:`probe` is the scalar spec."""

    def probe(
        self,
        target: int,
        time: float,
        *,
        hop_limit: int = 64,
        probe_id: int = 0,
    ) -> ProbeResult:
        """Send one ICMPv6 Echo Request from the vantage to ``target``."""
        world = self.world
        self.stats.probes += 1
        if stable_bool(
            world.seed, _PURPOSE_LOSS, world.packet_loss, target, probe_id, self.epoch
        ):
            self.stats.lost += 1
            return ProbeResult(target, time, self.epoch, lost=True)

        origin = world.bgp.origin_of(target)
        if origin is None:
            upstream = world.routers[world.vantage.upstream_router_id]
            reply = self._emit_error(
                upstream,
                self._router_error_source(upstream),
                ICMPv6Type.DESTINATION_UNREACHABLE,
                UnreachableCode.NO_ROUTE,
                time,
            )
            return ProbeResult(target, time, self.epoch, replies=_as_tuple(reply))

        hops = world.paths.get(origin, ())
        transit = len(hops)
        if hop_limit <= transit:
            if hop_limit < 1:
                return ProbeResult(target, time, self.epoch)
            hop = hops[hop_limit - 1]
            router = world.routers[hop.router_id]
            reply = self._emit_error(
                router,
                hop.interface,
                ICMPv6Type.TIME_EXCEEDED,
                TimeExceededCode.HOP_LIMIT_EXCEEDED,
                time,
            )
            return ProbeResult(
                target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit
            )

        remaining = hop_limit - transit
        match = world.resolution.longest_match(target)
        if match is None:
            return self._unassigned_space(target, time, origin, transit)

        entry = match[1]
        if entry.kind is EntryKind.SUBNET:
            return self._probe_subnet(target, time, entry.payload, transit)
        if entry.kind is EntryKind.ALIAS:
            return self._probe_alias(target, time, entry.payload, transit)
        if entry.kind is EntryKind.INFRA:
            return self._probe_infra(target, time, entry.payload, transit)
        return self._probe_loop(target, time, entry.payload, remaining, transit)

    def _probe_subnet(
        self, target: int, time: float, subnet: Subnet, transit: int
    ) -> ProbeResult:
        world = self.world
        if not self._subnet_alive(subnet):
            # Dead (or flaky-off) subnet: the interface is down but the
            # route usually lingers in the IGP, so the *last-hop* router
            # answers Address Unreachable from the subnet-facing interface
            # — a distinct source per dead subnet.  This is what makes the
            # error-IP population of the hitlist scan so large (Fig. 4).
            router = world.routers[subnet.router_id]
            reply = self._emit_error(
                router,
                subnet.router_interface,
                ICMPv6Type.DESTINATION_UNREACHABLE,
                UnreachableCode.ADDRESS_UNREACHABLE,
                time,
            )
            return ProbeResult(
                target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit
            )
        if subnet.aliased:
            # Aliased networks answer on *every* address — including the SRA
            # address itself, which is the alias filter's tell-tale.
            reply = Reply(target, ICMPv6Type.ECHO_REPLY, 0)
            self.stats.echo_replies += 1
            return ProbeResult(target, time, self.epoch, replies=(reply,), transit_hops=transit)

        router = world.routers[subnet.router_id]
        if target == subnet.sra_address:
            return self._probe_sra(target, time, subnet, router, transit)
        if target == subnet.router_interface:
            reply = self._direct_ping(router, subnet.router_interface)
            return ProbeResult(target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit)
        if target in subnet.hosts:
            if stable_bool(
                world.seed, _PURPOSE_HOST, 0.85, target, self.epoch
            ):
                self.stats.echo_replies += 1
                reply = Reply(target, ICMPv6Type.ECHO_REPLY, 0)
                return ProbeResult(target, time, self.epoch, replies=(reply,), transit_hops=transit)
            return ProbeResult(target, time, self.epoch, transit_hops=transit)
        # Unassigned address inside an active subnet.
        reply = self._emit_error(
            router,
            self._router_error_source(router, subnet.router_interface),
            ICMPv6Type.DESTINATION_UNREACHABLE,
            UnreachableCode.ADDRESS_UNREACHABLE,
            time,
        )
        return ProbeResult(target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit)

    def _probe_sra(
        self, target: int, time: float, subnet: Subnet, router: Router, transit: int
    ) -> ProbeResult:
        behavior = router.vendor.sra_behavior
        if behavior is SRABehavior.DROP:
            return ProbeResult(target, time, self.epoch, transit_hops=transit)
        if behavior is SRABehavior.ERROR:
            reply = self._emit_error(
                router,
                self._router_error_source(router, subnet.router_interface),
                ICMPv6Type.DESTINATION_UNREACHABLE,
                UnreachableCode.ADDRESS_UNREACHABLE,
                time,
            )
            return ProbeResult(
                target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit
            )
        source = self._sra_reply_source(router, subnet)
        self.stats.echo_replies += 1
        reply = Reply(source, ICMPv6Type.ECHO_REPLY, 0, router_id=router.router_id)
        return ProbeResult(target, time, self.epoch, replies=(reply,), transit_hops=transit)

    def _sra_reply_source(self, router: Router, subnet: Subnet) -> int:
        """The RFC says "its own full source address" — which interface that
        is differs between implementations (and is what makes AS attribution
        of SRA replies error-prone when peering-LAN addresses leak)."""
        if router.replies_from_peering and router.peering_lan_address is not None:
            return router.peering_lan_address
        if router.sra_from_primary:
            return router.loopback
        if router.unstable_reply_source and stable_bool(
            self.world.seed, _PURPOSE_FLIP, 0.5, router.router_id, self.epoch
        ):
            return router.loopback
        return subnet.router_interface

    def _probe_alias(
        self, target: int, time: float, region: AliasRegion, transit: int
    ) -> ProbeResult:
        self.stats.echo_replies += 1
        reply = Reply(target, ICMPv6Type.ECHO_REPLY, 0)
        return ProbeResult(target, time, self.epoch, replies=(reply,), transit_hops=transit)

    def _probe_infra(
        self, target: int, time: float, infra: InfraSubnet, transit: int
    ) -> ProbeResult:
        router_id = infra.interfaces.get(target)
        if router_id is not None:
            router = self.world.routers[router_id]
            reply = self._direct_ping(router, target)
            return ProbeResult(
                target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit
            )
        border = self._border_router(infra.asn)
        if border is None:
            return ProbeResult(target, time, self.epoch, transit_hops=transit)
        reply = self._emit_error(
            border,
            self._router_error_source(border),
            ICMPv6Type.DESTINATION_UNREACHABLE,
            UnreachableCode.ADDRESS_UNREACHABLE,
            time,
        )
        return ProbeResult(target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit)

    def _probe_loop(
        self,
        target: int,
        time: float,
        region: LoopRegion,
        remaining: int,
        transit: int,
    ) -> ProbeResult:
        """Customer<->provider ping-pong until the hop limit expires."""
        world = self.world
        self.stats.loops_hit += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_loop(region.customer_router_id, time)
        customer = world.routers[region.customer_router_id]
        if remaining < 1:
            return ProbeResult(target, time, self.epoch, looped=True, transit_hops=transit)
        # The packet ping-pongs customer<->provider; the Time Exceeded is
        # generated (and, with buggy firmware, massively replicated) at the
        # misconfigured customer edge router — the paper observes floods
        # "from the same router".
        victim = customer
        source = self._router_error_source(victim)
        amplification = self._loop_amplification(customer, remaining)
        if amplification > 1:
            # The firmware bug replicates packets in the fast path; the
            # resulting Time Exceeded flood bypasses the control-plane
            # rate limiter (this is what makes it dangerous).
            count = min(amplification, AMPLIFICATION_CAP)
            self.stats.error_replies += count
            self.stats.amplified_replies += count - 1
            reply = Reply(
                source,
                ICMPv6Type.TIME_EXCEEDED,
                TimeExceededCode.HOP_LIMIT_EXCEEDED,
                count=count,
                router_id=victim.router_id,
            )
            return ProbeResult(
                target,
                time,
                self.epoch,
                replies=(reply,),
                looped=True,
                amplification=count,
                transit_hops=transit,
            )
        reply = self._emit_error(
            victim,
            source,
            ICMPv6Type.TIME_EXCEEDED,
            TimeExceededCode.HOP_LIMIT_EXCEEDED,
            time,
        )
        return ProbeResult(
            target,
            time,
            self.epoch,
            replies=_as_tuple(reply),
            looped=True,
            amplification=1 if reply else 0,
            transit_hops=transit,
        )

    def _unassigned_space(
        self, target: int, time: float, asn: int, transit: int
    ) -> ProbeResult:
        """Announced but unassigned space.

        The error originates at whatever *internal* router holds the
        closest covering route for the destination's /48 — deterministic
        per /48 (ISP internals aggregate hierarchically), so unassigned
        space spreads error sources across many router IPs, as observed.
        """
        info = self.world.ases.get(asn)
        if info is not None and info.filters_unroutable:
            return ProbeResult(target, time, self.epoch, transit_hops=transit)
        responsible = self._responsible_router(asn, target)
        if responsible is None:
            return ProbeResult(target, time, self.epoch, transit_hops=transit)
        if responsible.errors_from_primary and responsible.loopback:
            source = responsible.loopback
        else:
            # Customer-facing sub-interface of the aggregation router: a
            # distinct address per /56 region (point-to-point/VLAN links
            # carry addresses from the delegated space).  This is why
            # error sources in the /48 and /64 partition scans are so
            # numerous — and why most of them never answer a direct probe.
            source = ((target >> 72) << 72) | 0xFFFE
        reply = self._emit_error(
            responsible,
            source,
            ICMPv6Type.DESTINATION_UNREACHABLE,
            UnreachableCode.NO_ROUTE,
            time,
        )
        return ProbeResult(target, time, self.epoch, replies=_as_tuple(reply), transit_hops=transit)

    def _direct_ping(self, router: Router, interface: int) -> Reply | None:
        """Behaviour for an Echo Request aimed at a router's own address."""
        if not router.answers_direct_ping:
            return None
        if not stable_bool(
            self.world.seed, _PURPOSE_DIRECT, 0.96, router.router_id, self.epoch
        ):
            return None
        self.stats.echo_replies += 1
        return Reply(
            interface, ICMPv6Type.ECHO_REPLY, 0, router_id=router.router_id
        )

    def _subnet_alive(self, subnet: Subnet) -> bool:
        if subnet.death_epoch is not None and self.epoch >= subnet.death_epoch:
            return False
        if subnet.flaky:
            return stable_bool(
                self.world.seed,
                _PURPOSE_FLAKY,
                0.55,
                subnet.prefix.network,
                self.epoch,
            )
        return True

    def _emit_error(
        self,
        router: Router,
        source: int,
        icmp_type: ICMPv6Type,
        code: int,
        time: float,
    ) -> Reply | None:
        """Originate an ICMPv6 error, subject to RFC 4443 rate limiting,
        the background-load on-off gate, and the router's unreachable-
        filtering policy ("no ip unreachables")."""
        if not self._error_reply_allowed(
            router, time, icmp_type is ICMPv6Type.DESTINATION_UNREACHABLE
        ):
            return None
        return Reply(source, icmp_type, int(code), router_id=router.router_id)


def spec_probes(
    world,
    targets,
    times,
    *,
    hop_limit: int = 64,
    probe_ids=None,
    epoch: int = 0,
) -> tuple[list[ProbeResult], EngineStats]:
    """Run the spec once per row on a fresh engine: the results and the
    engine counters a correct kernel must reproduce for the same rows."""
    spec = SpecEngine(world, epoch=epoch)
    if probe_ids is None:
        probe_ids = [0] * len(targets)
    results = [
        spec.probe(target, time, hop_limit=hop_limit, probe_id=probe_id)
        for target, time, probe_id in zip(targets, times, probe_ids)
    ]
    return results, spec.stats


def _as_tuple(reply: Reply | None) -> tuple[Reply, ...]:
    return () if reply is None else (reply,)
