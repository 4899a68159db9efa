"""CMP system assembly from the Table 1 specification.

A :class:`CmpSystem` binds together the stacked-mesh NoC, the cache
hierarchy timing, the DRAM system, and the tile roles: per Fig. 5, each
chip's bottom row holds the four cores and the remaining twelve tiles
hold L2 banks (which also serve as directory homes). Memory controllers
sit at the four corners of the bottom tier, reached through the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..power.processors import ChipSpec
from .cache import DEFAULT_HIERARCHY, CacheHierarchyTiming
from .memory import DEFAULT_DRAM, DramParams, MemorySystem
from .noc.network import MeshNetwork
from .noc.router import DEFAULT_ROUTER, RouterParams
from .noc.topology import MeshTopology, NodeId


@dataclass(frozen=True)
class SystemConfig:
    """Static configuration of one simulated CMP stack.

    Attributes:
        n_chips: stacked tiers.
        cores_per_chip: Table 1: 4.
        mesh_width / mesh_height: Table 1: 4x4.
        hierarchy: cache latencies/sizes.
        dram: memory timings.
        router: NoC timing.
    """

    n_chips: int
    cores_per_chip: int = 4
    mesh_width: int = 4
    mesh_height: int = 4
    hierarchy: CacheHierarchyTiming = field(default_factory=lambda: DEFAULT_HIERARCHY)
    dram: DramParams = field(default_factory=lambda: DEFAULT_DRAM)
    router: RouterParams = field(default_factory=lambda: DEFAULT_ROUTER)

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ConfigurationError("need at least one chip")
        if self.cores_per_chip > self.mesh_width * self.mesh_height:
            raise ConfigurationError(
                f"{self.cores_per_chip} cores do not fit a "
                f"{self.mesh_width}x{self.mesh_height} mesh"
            )

    @property
    def total_cores(self) -> int:
        """Cores across the stack (24 for 6 chips, 32 for 8)."""
        return self.n_chips * self.cores_per_chip


def config_for_stack(chip: ChipSpec, n_chips: int) -> SystemConfig:
    """Build the simulator configuration for a stack of ``chip``; a
    :class:`ConfigurationError` naming the chip when it has none (the
    72-core Xeon Phi does not fit the Table 1 mesh)."""
    try:
        return SystemConfig(n_chips=n_chips, cores_per_chip=chip.num_cores)
    except ConfigurationError as exc:
        raise ConfigurationError(
            f"chip {chip.name!r} has no NPB system: {exc}") from None


class CmpSystem:
    """Instantiated hardware: topology, network, memory, tile roles."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.topo = MeshTopology(width=config.mesh_width,
                                 height=config.mesh_height,
                                 chips=config.n_chips)
        self.network = MeshNetwork(self.topo, config.router)
        self.memory = MemorySystem(config.dram)
        # Cores occupy the bottom row (y = 0) of every tier, like Fig. 5.
        self.core_nodes: tuple[NodeId, ...] = tuple(
            self.topo.node(c, x, 0)
            for c in range(config.n_chips)
            for x in range(config.cores_per_chip)
        )
        # L2 banks / directory homes: every non-core tile.
        core_set = set(self.core_nodes)
        self.bank_nodes: tuple[NodeId, ...] = tuple(
            n for n in self.topo.all_nodes() if n not in core_set
        )
        if not self.bank_nodes:
            raise ConfigurationError("no tiles left for L2 banks")
        # Memory controllers at the four corners of the bottom tier.
        w, h = config.mesh_width, config.mesh_height
        self.mem_nodes: tuple[NodeId, ...] = tuple(
            self.topo.node(0, x, y)
            for (x, y) in ((0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1))
        )[: config.dram.num_controllers]

    def home_for(self, address: int) -> NodeId:
        """Home L2 bank (directory) of an address, line-interleaved."""
        line = address // self.config.hierarchy.line_bytes
        return self.bank_nodes[line % len(self.bank_nodes)]

    def mem_node_for(self, address: int) -> NodeId:
        """Tile adjacent to the controller serving an address."""
        return self.mem_nodes[self.memory.controller_for(address)
                              % len(self.mem_nodes)]

    def core_node(self, thread: int) -> NodeId:
        """Tile of the core running a given thread (block mapping)."""
        return self.core_nodes[thread % len(self.core_nodes)]
