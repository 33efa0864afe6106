"""Layer-graph IR and the pass-based compilation pipeline.

``repro.ir`` is the structural backbone of the toolchain: every network is
a :class:`LayerGraph` — a chain (:meth:`LayerGraph.chain`) or an arbitrary
DAG (skip connections, multi-branch concats), as
:func:`repro.snn.conversion.convert_ann_to_graph` emits it — and compiles
through one pipeline of named, composable, introspectable passes::

    from repro.ir import compile
    compiled = compile(graph, arch)                    # -> Program
    compiled = compile(graph, arch, to="schedule")     # + engine lower/optimize

    from repro.ir import default_pipeline, FunctionPass
    pipeline = default_pipeline().insert_after(
        "placement", FunctionPass("report", lambda ctx: print(
            ctx.require("placement").chips_used()), requires=("placement",)))
    compiled = compile(graph, arch, pipeline=pipeline)

See :mod:`repro.ir.pipeline` for the standard pass list and
:mod:`repro.ir.graph` for the IR itself.
"""

from .graph import GRAPH_INPUT, GraphError, GraphNode, LayerGraph
from .passes import (
    PASS_REGISTRY,
    CompileContext,
    FunctionPass,
    Pass,
    PassError,
    PassManager,
    PassRecord,
    build_pass,
    build_pipeline,
    register_pass,
)
from .pipeline import (
    PROGRAM_PASSES,
    SCHEDULE_PASSES,
    RoutePlan,
    build_routes,
    compile,
    default_pipeline,
    emit_program,
    logical_map,
    schedule_pipeline,
)
from .runner import GraphSnnRunner

__all__ = [
    "CompileContext",
    "FunctionPass",
    "GRAPH_INPUT",
    "GraphError",
    "GraphNode",
    "GraphSnnRunner",
    "LayerGraph",
    "PASS_REGISTRY",
    "PROGRAM_PASSES",
    "Pass",
    "PassError",
    "PassManager",
    "PassRecord",
    "RoutePlan",
    "SCHEDULE_PASSES",
    "build_pass",
    "build_pipeline",
    "build_routes",
    "compile",
    "default_pipeline",
    "emit_program",
    "logical_map",
    "register_pass",
    "schedule_pipeline",
]
