"""Layer-by-hop execution of multi-layer RGNN models.

A :class:`MultiLayerModule` stacks ``L`` schema-specialised
:class:`~repro.runtime.module.CompiledRGNNModule` layers (chained feature
dimensions, one shared :class:`~repro.graph.schema.GraphSchema`) and executes
them three ways:

* **full graph** — every layer over the parent graph (the classic training
  baseline; uses each layer's default binding);
* **merged block** — every layer over one merged k-hop
  :class:`~repro.graph.sampler.MinibatchBlock`; correct at the seeds, but
  each layer pays aggregation over the *whole* merged frontier;
* **per-hop blocks** — layer ``l`` over ``blocks[l-1]`` of a
  :meth:`~repro.graph.sampler.NeighborSampler.sample_blocks` result, with
  only the next block's rows gathered across each hop boundary, so deeper
  layers aggregate over shrinking frontiers instead of the merged union.

The backward pass chains through the same boundaries in reverse: an inner
layer's input gradient is scattered into an outer-block-shaped buffer (inner
nodes are a subset of outer nodes) and becomes the outer layer's output
gradient.  Parameter gradients accumulate on each layer's module exactly as
single-layer bindings do, so gradient accumulation across minibatches works
unchanged.

Each layer leases from its own tenant — of the layer module's own
:class:`~repro.runtime.planner.SharedArenaBudget`, or of a serving router's —
so the forward/backward interleaving across layers never invalidates a
pooled arena's forward intermediates — the stale-backward guard stays quiet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.sampler import MinibatchBlock, hop_gather_indices
from repro.runtime.binding import GraphBinding
from repro.runtime.module import CompiledRGNNModule
from repro.runtime.planner import SharedArenaBudget, TenantArenaSource


@dataclass
class StackRun:
    """One forward pass of a layer stack, kept alive for its backward pass.

    Attributes:
        bindings: per-layer graph bindings, in execution (outermost-first)
            order.
        blocks: the per-layer blocks (``None`` entries for full-graph runs;
            the same merged block repeated for merged runs).
        restrict_maps: ``restrict_maps[i]`` gathers layer ``i``'s output rows
            into layer ``i+1``'s input rows (``None`` = identity).
        output: the final layer's output matrix (rows of the last binding's
            graph).
    """

    bindings: List[GraphBinding]
    blocks: List[Optional[MinibatchBlock]]
    restrict_maps: List[Optional[np.ndarray]] = field(default_factory=list)
    output: Optional[np.ndarray] = None

    def seed_outputs(self) -> np.ndarray:
        """The final output restricted to the innermost block's seed rows."""
        final = self.blocks[-1]
        if final is None:
            raise ValueError("a full-graph run has no seed set; index the output directly")
        return final.seed_outputs(self.output)


class MultiLayerModule:
    """A stack of compiled RGNN layers executed full-graph, merged, or per-hop.

    Args:
        modules: the layer modules, outermost (input) layer first.  All must
            share one schema, and each layer's output dimension must match
            the next layer's input dimension.
    """

    def __init__(self, modules: Sequence[CompiledRGNNModule]):
        modules = list(modules)
        if not modules:
            raise ValueError("MultiLayerModule needs at least one layer")
        schema = modules[0].schema
        for index, module in enumerate(modules[1:], start=1):
            if module.schema != schema:
                raise ValueError(
                    f"layer {index} is specialised for a different schema than layer 0"
                )
            previous = modules[index - 1]
            if (
                previous.output_feature_dim is not None
                and module.input_feature_dim is not None
                and previous.output_feature_dim != module.input_feature_dim
            ):
                raise ValueError(
                    f"layer {index - 1} produces dimension {previous.output_feature_dim} "
                    f"but layer {index} expects {module.input_feature_dim}"
                )
        self.modules = modules
        self.schema = schema
        #: Per-layer arena sources: each layer module's own source until
        #: :meth:`attach_arena_sources` moves them into a shared budget
        #: (``None`` for layers without memory planning).
        self.arena_sources: List[Optional[TenantArenaSource]] = [
            module.arena_source for module in modules
        ]

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: str,
        graph: HeteroGraph,
        dims: Sequence[int],
        *,
        options=None,
        seed: int = 0,
    ) -> "MultiLayerModule":
        """Compile an ``L``-layer stack of one model for a graph.

        Args:
            model: model name (``"rgcn"`` / ``"rgat"`` / ``"hgt"``).
            graph: parent graph (defines the schema and the default binding).
            dims: ``L + 1`` feature dimensions; layer ``l`` maps
                ``dims[l] -> dims[l + 1]``.
            options: compiler options shared by every layer (default options
                keep backward kernels on, as training needs them).  Unset pass
                switches resolve to U: layers run on sampled blocks, not on ``graph``.
            seed: base parameter-initialisation seed (layer ``l`` uses
                ``seed + l`` so layers do not share initial weights).
        """
        from repro.frontend.compiler import compile_model  # local import: avoids a cycle
        from repro.frontend.config import CompilerOptions

        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValueError("dims needs at least (in_dim, out_dim)")
        requested = options or CompilerOptions()
        options = requested.resolved()
        modules = [
            compile_model(model, graph, in_dim=dims[i], out_dim=dims[i + 1],
                          options=options, seed=seed + i)
            for i in range(len(dims) - 1)
        ]
        for module in modules:
            module.decision = {"decided_by": "options" if options is requested else "compiler"}
        return cls(modules)

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.modules)

    @property
    def input_feature_dim(self) -> Optional[int]:
        return self.modules[0].input_feature_dim

    @property
    def output_feature_dim(self) -> Optional[int]:
        return self.modules[-1].output_feature_dim

    @property
    def output_name(self) -> str:
        """The final layer's primary output buffer name (the stack's output)."""
        return self.modules[-1].output_name

    @property
    def uses_memory_planning(self) -> bool:
        """True when any layer leases arenas (serving must budget for it)."""
        return any(module.memory_planner is not None for module in self.modules)

    def attach_arena_sources(self, budget: SharedArenaBudget, prefix: str) -> List[str]:
        """Lease every planned layer's arenas from ``budget``, as tenants
        named ``{prefix}/layer{l}``.

        The serving router calls this when an endpoint adopts a stack: the
        prefixed names cannot collide when several endpoints adopt stacks
        into one budget.  Returns the tenant names it registered (the router
        rolls them back if the rest of the registration fails).
        """
        names: List[str] = []
        for index, module in enumerate(self.modules):
            if module.memory_planner is None:
                continue
            tenant = f"{prefix}/layer{index}"
            self.arena_sources[index] = budget.tenant(tenant)
            names.append(tenant)
        return names

    def parameters(self):
        """All layers' parameters, outermost layer first."""
        return [p for module in self.modules for p in module.parameters()]

    def parameters_by_name(self) -> Dict[str, object]:
        """Parameters keyed ``layer{l}.{name}`` (for reporting and tests)."""
        return {
            f"layer{index}.{name}": parameter
            for index, module in enumerate(self.modules)
            for name, parameter in module.parameters_by_name.items()
        }

    def zero_grad(self) -> None:
        for module in self.modules:
            module.zero_grad()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _bind(self, layer: int, graph: HeteroGraph, label: Optional[str] = None) -> GraphBinding:
        return self.modules[layer].bind(graph, arena_source=self.arena_sources[layer], label=label)

    def _forward_stack(self, run: StackRun, features: np.ndarray) -> StackRun:
        h = features
        for index, binding in enumerate(run.bindings):
            out = binding.forward(h)[self.modules[index].output_name]
            restrict = run.restrict_maps[index]
            h = out if restrict is None else out[restrict]
        run.output = h
        return run

    def _backward_stack(self, run: StackRun, output_grad: np.ndarray) -> np.ndarray:
        """Chain backward through the stack; returns the gradient w.r.t. the
        features fed to the first (outermost) layer."""
        grad = np.asarray(output_grad, dtype=np.float64)
        for index in reversed(range(self.num_layers)):
            binding = run.bindings[index]
            restrict = run.restrict_maps[index]
            if restrict is not None:
                # The inner layer saw only the restricted rows; scatter its
                # gradient back into this layer's (larger) output shape.
                widened = np.zeros((binding.graph.num_nodes, grad.shape[1]))
                widened[restrict] = grad
                grad = widened
            binding.backward({self.modules[index].output_name: grad})
            # forward() feeds the same feature matrix into every node-space
            # input, so the upstream gradient is the sum over all of them.
            input_grads = list(binding.input_gradients().values())
            grad = input_grads[0] if len(input_grads) == 1 else sum(input_grads)
        return grad

    def forward_full(self, features: np.ndarray) -> StackRun:
        """Every layer over the parent graph, via the default bindings."""
        bindings = []
        for module in self.modules:
            if module.default_binding is None:
                raise RuntimeError(
                    "forward_full needs graph-bound layers; build the stack with "
                    "MultiLayerModule.build(model, graph, dims)"
                )
            bindings.append(module.default_binding)
        run = StackRun(bindings=bindings, blocks=[None] * self.num_layers,
                       restrict_maps=[None] * self.num_layers)
        return self._forward_stack(run, np.asarray(features))

    def backward_full(self, run: StackRun, output_grad: np.ndarray) -> np.ndarray:
        """Backward of :meth:`forward_full`; accumulates parameter gradients."""
        return self._backward_stack(run, output_grad)

    def forward_merged(self, block: MinibatchBlock, parent_features: np.ndarray) -> StackRun:
        """Every layer over one merged k-hop block (the pre-per-hop baseline)."""
        bindings = [
            self._bind(index, block.graph, label=f"layer {index} (merged)")
            for index in range(self.num_layers)
        ]
        run = StackRun(bindings=bindings, blocks=[block] * self.num_layers,
                       restrict_maps=[None] * self.num_layers)
        return self._forward_stack(run, block.gather_features(parent_features))

    def backward_merged(self, run: StackRun, output_grad: np.ndarray) -> np.ndarray:
        """Backward of :meth:`forward_merged`."""
        return self._backward_stack(run, output_grad)

    def forward_blocks(self, blocks: Sequence[MinibatchBlock], parent_features: np.ndarray) -> StackRun:
        """Layer ``l`` over ``blocks[l-1]``, gathering rows at hop boundaries.

        ``blocks`` is a :meth:`~repro.graph.sampler.NeighborSampler.sample_blocks`
        result: outermost hop first, one block per layer.  Only the rows of
        the next block's nodes cross each boundary, so layer ``l+1``
        aggregates over its own (smaller) frontier instead of the merged one.
        """
        blocks = list(blocks)
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} per-hop blocks (one per layer), got {len(blocks)}; "
                f"sample with fanouts of length {self.num_layers}"
            )
        bindings = [
            self._bind(index, block.graph, label=f"layer {index} (hop)")
            for index, block in enumerate(blocks)
        ]
        restrict_maps: List[Optional[np.ndarray]] = [
            hop_gather_indices(blocks[index], blocks[index + 1])
            for index in range(len(blocks) - 1)
        ] + [None]
        run = StackRun(bindings=bindings, blocks=blocks, restrict_maps=restrict_maps)
        return self._forward_stack(run, blocks[0].gather_features(parent_features))

    def backward_blocks(self, run: StackRun, output_grad: np.ndarray) -> np.ndarray:
        """Backward of :meth:`forward_blocks`; scatters across hop boundaries."""
        return self._backward_stack(run, output_grad)

    # ------------------------------------------------------------------
    def layer_edge_counts(self, run: StackRun) -> List[int]:
        """Edges each layer aggregated over (the per-layer work accounting)."""
        return [binding.graph.num_edges for binding in run.bindings]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        dims = [self.input_feature_dim] + [m.output_feature_dim for m in self.modules]
        return f"MultiLayerModule(layers={self.num_layers}, dims={dims})"
