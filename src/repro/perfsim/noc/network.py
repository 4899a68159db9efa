"""Cycle-approximate network simulation with link contention.

Packets traverse their XY-Z route link by link; every directed link is
a serially-reusable resource with a ``next_free`` time. A packet arrives
at a link, waits until the link frees, holds it for its serialization
time, and proceeds. Pipeline depth is charged per hop. This is the
standard packet-granularity approximation of a wormhole mesh: it
reproduces zero-load latency exactly and saturation trends to first
order, at a small fraction of a flit-accurate simulator's cost.

The network can run standalone (``deliver`` with explicit timestamps,
used by the NoC unit tests and the ablation bench) or inside the
full-system event simulation (``transfer_delay``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...errors import SimulationError
from .router import DEFAULT_ROUTER, RouterParams
from .routing import links_of, xy_route
from .topology import MeshTopology, NodeId


@dataclass
class NetworkStats:
    """Aggregate traffic counters."""

    packets: int = 0
    flits: int = 0
    total_latency_cycles: float = 0.0
    total_queue_cycles: float = 0.0
    max_latency_cycles: float = 0.0

    @property
    def mean_latency_cycles(self) -> float:
        """Average end-to-end packet latency."""
        return self.total_latency_cycles / self.packets if self.packets else 0.0

    @property
    def mean_queue_cycles(self) -> float:
        """Average cycles spent waiting for busy links."""
        return self.total_queue_cycles / self.packets if self.packets else 0.0


class MeshNetwork:
    """A stacked-mesh NoC with per-link contention state.

    All times are in cycles; the caller converts through the clock.

    Args:
        topo: mesh/stack shape.
        params: router timing (Table 1 defaults).
        vertical_link_cycles: extra cycles for tier-crossing links
            (TSV/TCI serialization).
    """

    def __init__(self, topo: MeshTopology,
                 params: RouterParams = DEFAULT_ROUTER,
                 vertical_link_cycles: int = 1) -> None:
        self.topo = topo
        self.params = params
        self.vertical_link_cycles = vertical_link_cycles
        self._link_free: dict[tuple[NodeId, NodeId], float] = {}
        self.stats = NetworkStats()

    def reset(self) -> None:
        """Clear contention state and statistics."""
        self._link_free.clear()
        self.stats = NetworkStats()

    def _hop_cycles(self, a: NodeId, b: NodeId) -> int:
        base = self.params.pipeline_stages + self.params.link_cycles
        if a.chip != b.chip:
            base += self.vertical_link_cycles
        return base

    def deliver(self, src: NodeId, dst: NodeId, *, is_data: bool,
                depart_cycle: float) -> float:
        """Send one packet; returns its arrival cycle.

        Contention is resolved in call order at equal timestamps (the
        event engine's deterministic ordering makes runs reproducible).
        """
        if src == dst:
            return depart_cycle
        flits = self.params.packet_flits(is_data)
        occupancy = self.params.occupancy_cycles(flits)
        path = xy_route(self.topo, src, dst)
        t = depart_cycle
        queued = 0.0
        for a, b in links_of(path):
            key = (a, b)
            free_at = self._link_free.get(key, 0.0)
            start = max(t, free_at)
            queued += start - t
            self._link_free[key] = start + occupancy
            t = start + self._hop_cycles(a, b)
        t += flits - 1  # wormhole tail serialization at the receiver
        latency = t - depart_cycle
        s = self.stats
        s.packets += 1
        s.flits += flits
        s.total_latency_cycles += latency
        s.total_queue_cycles += queued
        s.max_latency_cycles = max(s.max_latency_cycles, latency)
        return t

    def zero_load_cycles(self, src: NodeId, dst: NodeId, *,
                         is_data: bool) -> int:
        """Uncontended latency between two nodes."""
        hops = self.topo.hop_distance(src, dst)
        flits = self.params.packet_flits(is_data)
        vertical = abs(src.chip - dst.chip)
        return (self.params.zero_load_cycles(hops, flits)
                + vertical * self.vertical_link_cycles)

    def mean_hop_distance(self) -> float:
        """Average hop distance over all unordered node pairs (analytic
        tier), in closed form.

        XY-Z hops are the per-axis distances summed, so over the
        ``N = w·h·c`` nodes the pair total is

            Σ_{k ∈ (w, h, c)} (N // k)² · (k³ − k) // 6

        (a pair of distinct coordinates on an axis of length k is joined
        by (N // k)² node pairs, and Σ_{i<j} (j − i) = (k³ − k) / 6 on
        that axis). Both it and the pair count ``N(N − 1) // 2`` are
        exact ints, so the quotient is the same float as the pair-by-pair
        mean. One node gives 0.0.
        """
        t = self.topo
        n = t.num_nodes
        if n == 1:
            return 0.0
        total = sum((n // k) ** 2 * (k ** 3 - k) // 6
                    for k in (t.width, t.height, t.chips))
        return total / (n * (n - 1) // 2)


def expected_noc_cycles(topo: MeshTopology,
                        params: RouterParams = DEFAULT_ROUTER,
                        *, vertical_link_cycles: int = 1,
                        legs: int = 2) -> float:
    """Expected uncontended cycles of a coherence transaction.

    A 2-leg transaction is request (control) + response (data) over the
    mean hop distance; a 3-leg adds the directory forward. Used by the
    analytic performance tier.
    """
    if legs not in (2, 3):
        raise SimulationError(f"coherence transactions have 2 or 3 legs, "
                              f"got {legs}")
    net = MeshNetwork(topo, params, vertical_link_cycles)
    mean_hops = net.mean_hop_distance()
    h = max(1, round(mean_hops))
    control = params.zero_load_cycles(h, params.control_flits)
    data = params.zero_load_cycles(h, params.data_flits)
    if legs == 2:
        return float(control + data)
    return float(control + control + data)
