"""Graph bindings: one compiled module executed against one concrete graph.

A :class:`~repro.runtime.module.CompiledRGNNModule` is specialised for a
*schema* (type vocabulary + feature dimensions); a :class:`GraphBinding` is
the lightweight object that attaches it to a concrete
:class:`~repro.graph.hetero_graph.HeteroGraph` — the full training graph, or
a sampled minibatch block.  The binding owns everything graph-sized: the
preprocessed index arrays (:class:`~repro.runtime.context.GraphContext`), an
arena lease (pooled from a tenant of a
:class:`~repro.runtime.planner.SharedArenaBudget`, or the default binding's
exact-size private arena), the executor, and the last forward environment
the backward pass re-reads.  Parameters stay on the
module and are shared by every binding, so serving many sampled blocks
compiles once, initialises weights once, and binds per request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.runtime.context import GraphContext
from repro.runtime.executor import PlanExecutor
from repro.runtime.planner import ArenaLease

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids an import cycle
    from repro.runtime.module import CompiledRGNNModule


class GraphBinding:
    """A compiled module bound to one concrete graph.

    Created by :meth:`CompiledRGNNModule.bind`; not instantiated directly.

    Args:
        module: the schema-specialised compiled module (owns plan, generated
            kernels, and parameters).
        graph: the concrete graph this binding executes against.
        ctx: the graph's preprocessed index arrays.
        arena_lease: lease on a (pooled or private) buffer arena, or ``None``
            when memory planning is disabled for the plan.
        label: optional owner tag (e.g. ``"endpoint 'rgat-medium'"``) prefixed
            to validation errors, so in a multi-tenant process a bad input
            names the tenant it belongs to, not just the (shared) graph.
    """

    def __init__(
        self,
        module: "CompiledRGNNModule",
        graph: HeteroGraph,
        ctx: GraphContext,
        arena_lease: Optional[ArenaLease] = None,
        label: Optional[str] = None,
    ):
        self.module = module
        self.graph = graph
        self.ctx = ctx
        self.arena_lease = arena_lease
        self.label = label
        # Bind-time respecialisation hook: backends with per-graph variants
        # (mixed-backend occupancy specialisation) pick the variant here, once
        # per binding, instead of per call.
        self.executor = PlanExecutor(module.plan, module.generated_for(ctx), arena=arena_lease)
        self._last_env: Optional[Dict[str, np.ndarray]] = None
        self._forward_generation: Optional[int] = None

    def _describe(self) -> str:
        """``graph 'name'`` or ``endpoint ...: graph 'name'`` for errors."""
        base = f"graph {self.graph.name!r}"
        return f"{self.label}: {base}" if self.label else base

    # ------------------------------------------------------------------
    @property
    def plan(self):
        return self.module.plan

    @property
    def arena(self):
        """The (possibly shared) buffer arena backing this binding, if any."""
        return self.arena_lease.arena if self.arena_lease is not None else None

    # ------------------------------------------------------------------
    def _default_inputs(self) -> Dict[str, np.ndarray]:
        """Inputs derivable from the bound graph itself (e.g. RGCN norm)."""
        derived: Dict[str, np.ndarray] = {}
        for name in self.module.plan.input_names:
            if name == "norm":
                derived[name] = self.ctx.degree_normalization()
        return derived

    def _validate_features(self, node_features) -> np.ndarray:
        """Check shape/dtype against the bound graph before any kernel runs.

        Mismatched features used to surface as cryptic failures deep inside
        the generated kernels; this front door names the bound graph and the
        expected shape instead.
        """
        array = np.asarray(node_features)
        where = self._describe()
        if array.dtype == object or not np.issubdtype(array.dtype, np.number):
            raise TypeError(
                f"node_features must be numeric, got dtype {array.dtype} ({where})"
            )
        if np.issubdtype(array.dtype, np.complexfloating):
            raise TypeError(
                f"node_features must be real-valued, got dtype {array.dtype} ({where})"
            )
        expected_dim = self.module.input_feature_dim
        if array.ndim != 2:
            raise ValueError(
                f"node_features must be 2-D (num_nodes, in_dim), got shape {array.shape}; "
                f"{where} expects "
                f"({self.graph.num_nodes}, {expected_dim if expected_dim is not None else 'in_dim'})"
            )
        if array.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"expected {self.graph.num_nodes} feature rows for {where}, "
                f"got {array.shape[0]}"
            )
        if expected_dim is not None and array.shape[1] != expected_dim:
            raise ValueError(
                f"expected feature dimension {expected_dim} (the compiled plan's "
                f"node-feature input), got {array.shape[1]} for {where}"
            )
        return np.asarray(array, dtype=np.float64)

    # ------------------------------------------------------------------
    def forward(
        self,
        node_features: np.ndarray,
        extra_inputs: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Run the generated forward kernels against the bound graph.

        Args:
            node_features: ``(graph.num_nodes, in_dim)`` feature matrix bound
                to the plan's node-feature inputs.
            extra_inputs: optional additional named inputs.

        Returns:
            Mapping from output value name to its numpy array.
        """
        node_features = self._validate_features(node_features)
        env: Dict[str, np.ndarray] = {}
        env.update(self._default_inputs())
        if extra_inputs:
            env.update({k: np.asarray(v, dtype=np.float64) for k, v in extra_inputs.items()})
        plan = self.module.plan
        feature_inputs = [
            name for name in self.module.node_feature_inputs if name not in env
        ]
        for name in feature_inputs:
            env[name] = node_features
        for name, parameter in self.module.parameters_by_name.items():
            env[name] = parameter.data
        self.executor.run_forward(env, self.ctx)
        self._last_env = env
        # Pooled arenas are shared between same-bucket bindings; remember the
        # arena's bind generation so a stale backward is an error, not silent
        # gradient corruption (the backward kernels re-read forward
        # intermediates living in the shared slabs).
        self._forward_generation = self.arena.bind_count if self.arena is not None else None
        return {name: env[name] for name in plan.output_names}

    __call__ = forward

    def backward(self, output_grads: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the generated backward kernels and accumulate parameter gradients.

        Gradients accumulate into the *module's* parameters — bindings share
        them — so a training step over several bindings (e.g. minibatch
        blocks) sums their contributions exactly like gradient accumulation.
        Run each binding's forward+backward as a pair: executing *another*
        binding's forward on the same pooled arena in between overwrites the
        forward intermediates backward re-reads, and is rejected below.
        """
        if not self.executor.plan.backward_kernels:
            raise RuntimeError(
                "backward() on a forward-only plan: the module was compiled with "
                "emit_backward=False, so it has no backward kernels; recompile with "
                "CompilerOptions(emit_backward=True) to train"
            )
        if self._last_env is None:
            raise RuntimeError("backward() called before forward() on this binding")
        if self.arena is not None and self.arena.bind_count != self._forward_generation:
            raise RuntimeError(
                "forward intermediates are stale: another binding sharing this pooled "
                "arena ran forward() since this binding's forward(). Re-run forward() "
                "immediately before backward(), or use module.bind(graph, pooled=False) "
                "for a private arena."
            )
        env = self.executor.run_backward(self._last_env, self.ctx, output_grads)
        grads = self.executor.parameter_gradients(env)
        for name, grad in grads.items():
            parameter = self.module.parameters_by_name[name]
            if parameter.grad is None:
                parameter.grad = grad.copy()
            else:
                parameter.grad = parameter.grad + grad
        return grads

    def input_gradients(self) -> Dict[str, np.ndarray]:
        """Gradients w.r.t. the plan's node-feature inputs, after :meth:`backward`.

        This is what chains layers: an outer layer's output rows feed an
        inner layer's input, so the inner binding's input gradient — scattered
        back across the hop boundary — becomes the outer binding's output
        gradient.  Raises if no backward pass has populated them yet.
        """
        if self._last_env is None:
            raise RuntimeError("input_gradients() called before forward()/backward() on this binding")
        grads: Dict[str, np.ndarray] = {}
        for name in self.module.node_feature_inputs:
            grad = self._last_env.get(f"grad_{name}")
            if grad is not None:
                grads[name] = grad
        if not grads:
            raise RuntimeError(
                "no input gradients in the environment: run backward() first "
                "(and compile with emit_backward=True)"
            )
        return grads

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GraphBinding(plan={self.module.plan.name!r}, graph={self.graph.name!r}, "
            f"nodes={self.graph.num_nodes}, edges={self.graph.num_edges})"
        )
