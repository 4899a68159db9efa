"""Thermal modeling: materials, coolants, compact network, HotSpot facade."""

from .coolants import (
    AIR,
    FLUORINERT,
    MINERAL_OIL,
    WATER,
    Coolant,
    coolant_names,
    custom_coolant,
    get_coolant,
)
from .cache import BoundedCache, CacheInfo
from .hotspot import ThermalModel, model_cache, model_for
from .layers import Boundary, GridLayer, Interface, overlap_matrix
from .maps import MapStats, ascii_map, stack_stats, uniformity_index, vertical_profile
from .materials import (
    COPPER,
    FR4,
    PARYLENE,
    SILICON,
    TIM,
    Material,
    get_material,
    material_names,
)
from .network import ThermalNetwork, ThermalResult
from .analytic import (
    FinArray,
    SlabLayer,
    series_slab_resistance,
    spreading_resistance,
)
from .microchannel import (
    DEFAULT_MICROCHANNEL,
    MicrochannelParams,
    build_microchannel_network,
    microchannel_max_temperature_c,
)
from .transient import TransientSolver, TransientTrace
from .package import (
    DEFAULT_PACKAGE,
    PackageParams,
    build_network,
    build_package_network,
    die_layer_names,
    stack_power_maps,
)
from .response import (
    block_power_vector,
    response_cache,
    response_enabled,
)
from .stacksolve import DieFactor, PackageFactor

__all__ = [
    "Coolant",
    "AIR",
    "MINERAL_OIL",
    "FLUORINERT",
    "WATER",
    "get_coolant",
    "coolant_names",
    "custom_coolant",
    "Material",
    "SILICON",
    "COPPER",
    "TIM",
    "PARYLENE",
    "FR4",
    "get_material",
    "material_names",
    "GridLayer",
    "Interface",
    "Boundary",
    "overlap_matrix",
    "ThermalNetwork",
    "ThermalResult",
    "TransientSolver",
    "TransientTrace",
    "SlabLayer",
    "series_slab_resistance",
    "spreading_resistance",
    "FinArray",
    "MicrochannelParams",
    "DEFAULT_MICROCHANNEL",
    "build_microchannel_network",
    "microchannel_max_temperature_c",
    "PackageParams",
    "DEFAULT_PACKAGE",
    "build_network",
    "build_package_network",
    "stack_power_maps",
    "die_layer_names",
    "ThermalModel",
    "model_for",
    "model_cache",
    "BoundedCache",
    "CacheInfo",
    "DieFactor",
    "PackageFactor",
    "block_power_vector",
    "response_cache",
    "response_enabled",
    "MapStats",
    "stack_stats",
    "uniformity_index",
    "vertical_profile",
    "ascii_map",
]
