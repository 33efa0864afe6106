"""The layer-graph intermediate representation.

A :class:`LayerGraph` is a DAG of named nodes over quantised layer specs
(:mod:`repro.snn.spec`) — the one model representation that the converter
(:func:`repro.snn.conversion.convert_ann_to_graph`), the abstract runner
(:class:`repro.ir.GraphSnnRunner`) and the compiler (:func:`repro.ir.compile`)
share:

``input``
    The external spike source (exactly one, created with the graph).

``fire``
    An integrate-and-fire stage.  It carries one linear layer spec *per
    incoming edge*; with one edge it is an ordinary dense/conv/pool layer,
    with several edges it is an **add-join** — the contributions' partial
    sums are added (through the PS NoCs, once mapped) before the single
    threshold comparison.  Residual shortcuts, and any other skip topology,
    are plain add-joins here.

``concat``
    A wiring-only join: its output vector is the concatenation of its
    inputs (channel-wise for same-sized feature maps, flat otherwise).  It
    maps to *no* hardware operation — consumers simply read producer lanes.

A purely sequential network is a chain (:meth:`LayerGraph.chain`).  Nodes
are appended in topological order by construction (every input must
already exist); :meth:`LayerGraph.validate` re-checks acyclicity and shape
consistency independently so pass pipelines can assert the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..snn.spec import LayerSpec

#: name of the implicit external-input node (matches the logical toolchain's
#: :data:`repro.mapping.logical.EXTERNAL_INPUT`)
GRAPH_INPUT = "__input__"


class GraphError(ValueError):
    """Raised on malformed layer graphs (cycles, shape mismatches, ...)."""


@dataclass
class GraphNode:
    """One node of a :class:`LayerGraph`."""

    name: str
    kind: str                       # "input" | "fire" | "concat"
    inputs: Tuple[str, ...] = ()
    #: for "fire" nodes: one linear spec per incoming edge
    specs: Tuple[LayerSpec, ...] = ()
    output_shape: Tuple[int, ...] = ()

    @property
    def out_size(self) -> int:
        return int(np.prod(self.output_shape))

    @property
    def is_join(self) -> bool:
        return len(self.inputs) > 1

    @property
    def threshold(self) -> int:
        """Firing threshold of a fire node (the primary contribution's)."""
        if self.kind != "fire":
            raise GraphError(f"node {self.name} ({self.kind}) does not fire")
        return self.specs[0].threshold

    def contributions(self) -> List[Tuple[LayerSpec, str]]:
        """(spec, input) pairs of a fire node."""
        if self.kind != "fire":
            raise GraphError(f"node {self.name} ({self.kind}) has no contributions")
        return list(zip(self.specs, self.inputs))


class LayerGraph:
    """A DAG of layer specs with explicit multi-input/multi-output edges."""

    def __init__(self, name: str, input_shape: Sequence[int], timesteps: int = 20,
                 metadata: Optional[dict] = None):
        if timesteps <= 0:
            raise GraphError("timesteps must be positive")
        self.name = name
        self.input_shape: Tuple[int, ...] = tuple(int(v) for v in input_shape)
        self.timesteps = int(timesteps)
        self.metadata = dict(metadata or {})
        self.nodes: Dict[str, GraphNode] = {}
        self.output: Optional[str] = None
        self._add_node(GraphNode(name=GRAPH_INPUT, kind="input",
                                 output_shape=self.input_shape))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_node(self, node: GraphNode) -> str:
        if node.name in self.nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        for source in node.inputs:
            if source not in self.nodes:
                raise GraphError(
                    f"node {node.name!r} reads from unknown node {source!r} "
                    "(nodes must be added in topological order)"
                )
        self.nodes[node.name] = node
        if node.kind != "input":
            self.output = node.name
        return node.name

    @classmethod
    def chain(cls, name: str, input_shape: Sequence[int],
              layers: Sequence[LayerSpec], timesteps: int = 20) -> "LayerGraph":
        """A linear graph in which each layer reads the one before it."""
        graph = cls(name, input_shape, timesteps=timesteps)
        previous = GRAPH_INPUT
        for spec in layers:
            previous = graph.add_layer(spec, input=previous)
        graph.validate()
        return graph

    def add_layer(self, spec: LayerSpec, input: str = GRAPH_INPUT) -> str:
        """Append an ordinary firing layer reading from ``input``."""
        return self.add_join(spec.name, [(spec, input)])

    def add_join(self, name: str,
                 contributions: Sequence[Tuple[LayerSpec, str]]) -> str:
        """Append a fire node adding ``contributions`` before one IF stage.

        The first contribution is the *primary* one: its spec's threshold is
        the node's firing threshold.  Every contribution's input size must
        match its source node's output size, and all contributions must
        produce the same output shape.
        """
        if not contributions:
            raise GraphError(f"join {name!r} needs at least one contribution")
        specs = tuple(spec for spec, _ in contributions)
        inputs = tuple(source for _, source in contributions)
        for spec, source in contributions:
            producer = self.node(source)
            if spec.in_size != producer.out_size:
                raise GraphError(
                    f"join {name!r}: contribution {spec.name!r} expects "
                    f"{spec.in_size} inputs but {source!r} produces "
                    f"{producer.out_size}"
                )
        shapes = {tuple(spec.output_shape) for spec in specs}
        if len(shapes) != 1:
            raise GraphError(
                f"join {name!r}: contribution output shapes differ ({shapes})"
            )
        return self._add_node(GraphNode(
            name=name, kind="fire", inputs=inputs, specs=specs,
            output_shape=specs[0].output_shape,
        ))

    def add_concat(self, name: str, inputs: Sequence[str]) -> str:
        """Append a concatenation node over ``inputs`` (wiring only)."""
        if len(inputs) < 2:
            raise GraphError(f"concat {name!r} needs at least two inputs")
        if GRAPH_INPUT in inputs:
            raise GraphError(
                f"concat {name!r}: concatenating the external input is not "
                "supported (insert an explicit layer first)"
            )
        producers = [self.node(source) for source in inputs]
        shape = self._concat_shape(name, producers)
        return self._add_node(GraphNode(
            name=name, kind="concat", inputs=tuple(inputs), output_shape=shape,
        ))

    @staticmethod
    def _concat_shape(name: str, producers: Sequence[GraphNode]) -> Tuple[int, ...]:
        shapes = [producer.output_shape for producer in producers]
        if all(len(shape) == 3 for shape in shapes):
            spatial = {shape[:2] for shape in shapes}
            if len(spatial) != 1:
                raise GraphError(
                    f"concat {name!r}: spatial shapes differ ({spatial})"
                )
            h, w = shapes[0][:2]
            return (h, w, sum(shape[2] for shape in shapes))
        return (sum(int(np.prod(shape)) for shape in shapes),)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node(self, name: str) -> GraphNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise GraphError(f"no node named {name!r}") from None

    @property
    def input_size(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def output_size(self) -> int:
        if self.output is None:
            return self.input_size
        return self.node(self.output).out_size

    @property
    def output_shape(self) -> Tuple[int, ...]:
        if self.output is None:
            return self.input_shape
        return self.node(self.output).output_shape

    def topological(self) -> List[GraphNode]:
        """Nodes in topological order (insertion order, by construction)."""
        return list(self.nodes.values())

    def fire_nodes(self) -> List[GraphNode]:
        return [node for node in self.nodes.values() if node.kind == "fire"]

    def consumers(self, name: str) -> List[str]:
        return [node.name for node in self.nodes.values() if name in node.inputs]

    def concat_parts(self, name: str) -> List[Tuple[str, np.ndarray]]:
        """Element mapping of a concat node: ``(input, out_indices)`` pairs.

        ``out_indices[i]`` is the concat-output element fed by element ``i``
        of the input node (row-major HWC for channel concatenation).
        """
        node = self.node(name)
        if node.kind != "concat":
            raise GraphError(f"node {name!r} is not a concat node")
        producers = [self.node(source) for source in node.inputs]
        parts: List[Tuple[str, np.ndarray]] = []
        if len(node.output_shape) == 3:
            h, w, total = node.output_shape
            offset = 0
            for producer in producers:
                channels = producer.output_shape[2]
                pixels = np.arange(h * w, dtype=np.int64)[:, None] * total
                indices = (pixels + offset + np.arange(channels, dtype=np.int64)[None, :])
                parts.append((producer.name, indices.ravel()))
                offset += channels
        else:
            offset = 0
            for producer in producers:
                size = producer.out_size
                parts.append((producer.name,
                              np.arange(offset, offset + size, dtype=np.int64)))
                offset += size
        return parts

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check the structural invariants (acyclicity, shapes, output)."""
        if GRAPH_INPUT not in self.nodes:
            raise GraphError("graph has no input node")
        if self.output is None:
            raise GraphError("graph has no output node")
        if self.output not in self.nodes:
            raise GraphError(f"output node {self.output!r} does not exist")
        if self.node(self.output).kind == "input":
            raise GraphError("the input node cannot be the graph output")
        self._check_acyclic()
        for node in self.nodes.values():
            if node.kind == "input":
                continue
            for source in node.inputs:
                if source not in self.nodes:
                    raise GraphError(
                        f"node {node.name!r} reads unknown node {source!r}"
                    )
            if node.kind == "fire":
                for spec, source in node.contributions():
                    producer = self.node(source)
                    if spec.in_size != producer.out_size:
                        raise GraphError(
                            f"node {node.name!r}: {spec.name!r} expects "
                            f"{spec.in_size} inputs, {source!r} produces "
                            f"{producer.out_size}"
                        )
            elif node.kind == "concat":
                expected = self._concat_shape(
                    node.name, [self.node(source) for source in node.inputs])
                if tuple(node.output_shape) != tuple(expected):
                    raise GraphError(
                        f"concat {node.name!r}: stored shape "
                        f"{node.output_shape} != derived {expected}"
                    )
            else:
                raise GraphError(f"unknown node kind {node.kind!r}")

    def _check_acyclic(self) -> None:
        """Kahn's algorithm over the stored edges (independent of insertion)."""
        indegree = {name: len(node.inputs) for name, node in self.nodes.items()}
        ready = [name for name, degree in indegree.items() if degree == 0]
        seen = 0
        while ready:
            current = ready.pop()
            seen += 1
            for consumer in self.consumers(current):
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if seen != len(self.nodes):
            cyclic = sorted(name for name, degree in indegree.items() if degree > 0)
            raise GraphError(f"layer graph contains a cycle through {cyclic}")

    def describe(self) -> str:
        lines = [f"LayerGraph '{self.name}' (input {self.input_shape}, "
                 f"T={self.timesteps})"]
        for node in self.topological():
            if node.kind == "input":
                continue
            sources = ", ".join(node.inputs)
            if node.kind == "concat":
                lines.append(f"  {node.name:<20} concat[{sources}] -> "
                             f"{node.output_shape}")
            elif node.is_join:
                lines.append(f"  {node.name:<20} add-join[{sources}] -> "
                             f"{node.output_shape} (threshold {node.threshold})")
            else:
                lines.append(f"  {node.name:<20} {type(node.specs[0]).__name__} "
                             f"[{sources}] -> {node.output_shape} "
                             f"(threshold {node.threshold})")
        lines.append(f"  output: {self.output}")
        return "\n".join(lines)
