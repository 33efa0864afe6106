"""Layer-graph IR and the compile function.

``repro.ir`` is the structural backbone of the toolchain: every network is
a :class:`LayerGraph` — a chain (:meth:`LayerGraph.chain`) or an arbitrary
DAG (skip connections, multi-branch concats), as
:func:`repro.snn.conversion.convert_ann_to_graph` emits it — and
:func:`compile` maps it onto the fabric through one fixed sequence of
named, timed steps::

    from repro.ir import compile
    compiled = compile(graph, arch)                     # -> CompiledNetwork
    compiled = compile(graph, arch, optimize_noc=True)  # + repro.opt NoC steps
    print(compiled.describe_trace())                    # one line per step

See :mod:`repro.ir.pipeline` for the steps and :mod:`repro.ir.graph` for
the IR itself.
"""

from .graph import GRAPH_INPUT, GraphError, GraphNode, LayerGraph
from .passes import PassRecord
from .pipeline import (
    CompiledNetwork,
    RoutePlan,
    build_routes,
    compile,
    emit_program,
    logical_map,
)
from .runner import GraphSnnRunner

__all__ = [
    "CompiledNetwork",
    "GRAPH_INPUT",
    "GraphError",
    "GraphNode",
    "GraphSnnRunner",
    "LayerGraph",
    "PassRecord",
    "RoutePlan",
    "build_routes",
    "compile",
    "emit_program",
    "logical_map",
]
