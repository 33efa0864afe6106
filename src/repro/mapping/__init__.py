"""Software mapping toolchain (Fig. 3 of the paper).

Logical mapping (layer splitting, PS adder trees and add-joins, spike-NoC
source/destination matching), physical mapping (greedy placement,
deterministic XY routing, conflict-free wave packing) and the program of
atomic operations the :func:`repro.ir.compile` pipeline emits, plus a
structural estimator for very large networks.
"""

from .compiler import CompiledNetwork
from .conv import ConvGeometry, conv_block_size, conv_geometry, estimate_conv_cores, map_conv
from .estimator import LayerEstimate, MappingEstimate, estimate_mapping, estimate_network_cores
from .fc import FcGeometry, algorithm1_schedule, fc_geometry, fold_rounds, map_dense
from .join import estimate_join_cores, join_block_size, map_add_join
from .logical import (
    EXTERNAL_INPUT,
    LogicalCore,
    LogicalLayer,
    LogicalNetwork,
    MappingError,
    ReductionGroup,
    VirtualSource,
)
from .placement import Placement, fabric_summary, place_network
from .pool import estimate_pool_cores, is_pool_spec, map_pool
from .program import (
    InputBinding,
    Instruction,
    InstructionGroup,
    OutputBinding,
    Phase,
    Program,
    ProgramError,
    TileConfig,
)
from .routing import (
    Hop,
    Transfer,
    Wave,
    pack_waves,
    route_length,
    serial_waves,
    total_hop_count,
    verify_waves,
    xy_route,
)
from .spike_mapping import DeliverySegment, canonicalise_axons, segments_summary

__all__ = [
    "CompiledNetwork",
    "ConvGeometry",
    "DeliverySegment",
    "EXTERNAL_INPUT",
    "FcGeometry",
    "Hop",
    "InputBinding",
    "Instruction",
    "InstructionGroup",
    "LayerEstimate",
    "LogicalCore",
    "LogicalLayer",
    "LogicalNetwork",
    "MappingError",
    "MappingEstimate",
    "OutputBinding",
    "Phase",
    "Placement",
    "Program",
    "ProgramError",
    "ReductionGroup",
    "TileConfig",
    "Transfer",
    "VirtualSource",
    "Wave",
    "algorithm1_schedule",
    "canonicalise_axons",
    "conv_block_size",
    "conv_geometry",
    "estimate_conv_cores",
    "estimate_join_cores",
    "estimate_mapping",
    "estimate_network_cores",
    "estimate_pool_cores",
    "fabric_summary",
    "fc_geometry",
    "fold_rounds",
    "is_pool_spec",
    "join_block_size",
    "map_add_join",
    "map_conv",
    "map_dense",
    "map_pool",
    "pack_waves",
    "place_network",
    "route_length",
    "segments_summary",
    "serial_waves",
    "total_hop_count",
    "verify_waves",
    "xy_route",
]
