"""Flit-level router microsimulator (validation extension).

The network model used by the full-system simulator is packet-granular:
per-hop pipeline charges plus link occupancy. This module implements
the reference it approximates — a cycle-accurate wormhole router pair
with explicit virtual channels, credit-based flow control, and
flit-by-flit switch traversal — for a single link, which is where the
approximation could err. The test suite uses it to validate:

* zero-load latency: identical to the packet model's formula — the
  head flit leaves after the router pipeline plus the link cycles, and
  each trailing flit adds one cycle;
* back-to-back serialization: a trailing packet waits for the leader's
  tail flits exactly as the packet model's link-occupancy rule charges
  — on one physical link, virtual channels share bandwidth rather than
  add it, so the two models coincide (VCs earn their keep against
  head-of-line blocking across *different* routes, and by giving each
  coherence message class its own deadlock-free lane).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import SimulationError
from ...obs import counter, span
from .router import DEFAULT_ROUTER, RouterParams


@dataclass
class _Packet:
    pid: int
    vc: int
    flits: int
    inject_cycle: int
    flits_sent: int = 0
    done_cycle: int | None = None


@dataclass
class FlitLink:
    """One router-to-router link with VC buffers and credits.

    Models the downstream input buffers (per-VC, ``vc_buffer_flits``
    credits), a round-robin VC allocator for the single physical link,
    and the router pipeline and link delay ahead of the head flit.

    Args:
        params: Table 1 router constants.
    """

    params: RouterParams = field(default_factory=lambda: DEFAULT_ROUTER)

    def __post_init__(self) -> None:
        self._queues: list[list[_Packet]] = [
            [] for _ in range(self.params.num_vcs)]
        self._credits = [self.params.vc_buffer_flits] * self.params.num_vcs
        self._drain_at: list[list[int]] = [
            [] for _ in range(self.params.num_vcs)]
        self._rr = 0
        self._cycle = 0
        self.delivered: list[_Packet] = []
        self._delivered_by_pid: dict[int, _Packet] = {}
        self._next_pid = 0

    def inject(self, vc: int, flits: int, cycle: int) -> int:
        """Queue a packet for transmission; returns its packet id."""
        if not (0 <= vc < self.params.num_vcs):
            raise SimulationError(f"vc {vc} out of range")
        if flits < 1:
            raise SimulationError("packet needs at least one flit")
        if cycle < self._cycle:
            raise SimulationError("cannot inject in the past")
        pkt = _Packet(pid=self._next_pid, vc=vc, flits=flits,
                      inject_cycle=cycle)
        self._next_pid += 1
        self._queues[vc].append(pkt)
        return pkt.pid

    def _receiver_drain(self) -> None:
        """The downstream router drains one flit per VC per cycle,
        returning a credit ``pipeline`` cycles later (credit loop)."""
        for vc in range(self.params.num_vcs):
            arrivals = self._drain_at[vc]
            while arrivals and arrivals[0] <= self._cycle:
                arrivals.pop(0)
                self._credits[vc] += 1

    def step(self) -> None:
        """Advance one cycle: credits return, one flit crosses the link."""
        self._receiver_drain()
        # Round-robin over VCs with a ready head packet and a credit.
        for offset in range(self.params.num_vcs):
            vc = (self._rr + offset) % self.params.num_vcs
            q = self._queues[vc]
            if not q:
                continue
            head = q[0]
            ready_at = (head.inject_cycle + self.params.pipeline_stages
                        + self.params.link_cycles)
            if self._cycle < ready_at or self._credits[vc] == 0:
                continue
            self._credits[vc] -= 1
            head.flits_sent += 1
            # The downstream buffer frees this flit after its own
            # pipeline (credit round trip).
            self._drain_at[vc].append(
                self._cycle + self.params.pipeline_stages)
            if head.flits_sent == head.flits:
                # The tail crosses during this cycle; latency counts the
                # cycle it is sent (the packet model's convention).
                head.done_cycle = self._cycle
                self.delivered.append(q.pop(0))
                self._delivered_by_pid[head.pid] = head
                counter("noc.flits_routed").inc(head.flits)
                counter("noc.packets_delivered").inc()
            self._rr = (vc + 1) % self.params.num_vcs
            break
        self._cycle += 1

    def run_until_drained(self, *, max_cycles: int = 100_000) -> int:
        """Step until every injected packet is delivered."""
        for _ in range(max_cycles):
            if not any(self._queues):
                return self._cycle
            self.step()
        raise SimulationError(
            f"link did not drain within {max_cycles} cycles"
        )

    def latency_of(self, pid: int) -> int:
        """Inject-to-tail latency of a delivered packet.

        O(1) via the delivery index — validation sweeps query every
        packet of a long run, which made a ``delivered`` scan
        quadratic over the campaign.
        """
        p = self._delivered_by_pid.get(pid)
        if p is None or p.done_cycle is None:
            raise SimulationError(f"packet {pid} not delivered")
        return p.done_cycle - p.inject_cycle


def zero_load_flit_latency(flits: int,
                           params: RouterParams = DEFAULT_ROUTER) -> int:
    """Reference single-hop latency measured on the flit model."""
    with span("noc.flit_latency", flits=flits):
        link = FlitLink(params=params)
        pid = link.inject(vc=0, flits=flits, cycle=0)
        link.run_until_drained()
        return link.latency_of(pid)
