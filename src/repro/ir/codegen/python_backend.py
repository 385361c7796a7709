"""The ``python-interp``, ``python-codegen`` and ``mixed`` backends: selections over the pipeline.

All build each kernel's statements with :mod:`repro.ir.codegen.builder` and
print them with :mod:`repro.ir.codegen.printer`; they differ in what they
select (the package docstring has the overview).  The emitted source is
compiled with :func:`exec` and wrapped in a :class:`GeneratedModule`; the
executor calls the generated functions directly, so what runs is what was
generated.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ir.intra_op.kernels import KernelInstance
from repro.ir.intra_op.plan import KernelPlan

from repro.ir.codegen.artifact_cache import artifact_key_for, load_source
from repro.ir.codegen.builder import build_kernel
from repro.ir.codegen.passes import (
    fuse_ensure_grads,
    live_segments,
    merge_adjacent,
    specialise_fresh_scatters,
    unroll_segments,
)
from repro.ir.codegen.printer import join_module, print_dispatcher, print_function
from repro.ir.codegen.registry import BackendOptions
from repro.ir.codegen.stmt import Raw, Stmt

#: Occupancy variants one ``mixed`` module emits and keeps; later signatures run the module itself.
MAX_OCCUPANCY_VARIANTS = 8


@dataclass
class GeneratedModule:
    """The output of an executing Python backend.

    Attributes:
        source: the full generated source text.
        forward_functions: kernel name → callable for forward kernels.
        backward_functions: kernel name → callable for backward kernels.
        forward_program: single generated function running every forward
            kernel in plan order — the compile-once-run-many entry point the
            executor prefers over per-kernel dict dispatch.
        backward_program: the same for the backward kernel list.
        seeds_gradients: the backward program seeds its own zero gradients
            lazily (only the ones it actually reads), so the executor skips
            its eager zero-seeding loop.  Set by the ``python-codegen``
            backend.
    """

    source: str
    forward_functions: Dict[str, Callable]
    backward_functions: Dict[str, Callable]
    forward_program: Optional[Callable] = None
    backward_program: Optional[Callable] = None
    seeds_gradients: bool = False

    def line_count(self) -> int:
        """Number of generated source lines (for the programming-effort metric)."""
        return len(self.source.splitlines())


# ----------------------------------------------------------------------
# the two function shapes every selection is made of
# ----------------------------------------------------------------------
def kernel_function(kernel: KernelInstance) -> str:
    """``kernel_<name>(env, ctx)``: one kernel's template, no passes, per-kernel names."""
    body = build_kernel(kernel)
    return print_function(f"kernel_{body.name}", body.doc, body.stmts)


def whole_plan_function(
    name: str,
    direction: str,
    kernels: Sequence[KernelInstance],
    plan: KernelPlan,
    num_edge_types: Optional[int] = None,
    num_node_types: Optional[int] = None,
    occupancy: Optional[tuple] = None,
) -> str:
    """One function running ``kernels`` inlined in plan order, every pass applied.

    Args:
        num_edge_types / num_node_types: relation counts of the schema the
            plan is specialised for; per-relation segment loops over at most
            ``MAX_UNROLL_SEGMENTS`` relations unroll into straight-line code.
            ``None`` (no graph at compile time) keeps runtime loops.
        occupancy: ``(edge_mask, node_mask)`` bool tuples of a bound graph;
            only occupied relations are unrolled, empty ones cost nothing.
    """
    specialised = "schema-unrolled" if num_edge_types is not None else "runtime-looped"
    doc = f"Whole-plan {direction} of {plan.name}: {len(kernels)} kernels inlined, {specialised}."
    edge_mask, node_mask = occupancy if occupancy is not None else (None, None)
    segments = {"num_etypes": (num_edge_types, edge_mask), "num_ntypes": (num_node_types, node_mask)}
    stmts: List[Stmt] = []
    for body in merge_adjacent([build_kernel(kernel) for kernel in kernels]):
        stmts.append(Raw((f"# ---- {body.name}: {body.doc} ----",)))
        stmts += unroll_segments(body.stmts, segments)
    stmts = fuse_ensure_grads(specialise_fresh_scatters(stmts, plan.output_names))
    return print_function(name, doc, stmts, whole_plan=True, lazy_gradients=direction == "backward")


# ----------------------------------------------------------------------
# python-interp, python-codegen and mixed
# ----------------------------------------------------------------------
def build_python_module(plan: KernelPlan) -> GeneratedModule:
    """Per-kernel functions plus a fused dispatch program (the ``python-interp`` registrant)."""

    def generate() -> str:
        chunks = [kernel_function(kernel) for kernel in plan.forward_kernels + plan.backward_kernels]
        for direction, kernels in (("forward", plan.forward_kernels), ("backward", plan.backward_kernels)):
            doc = f"Fused {direction} program of plan {plan.name}: {len(kernels)} kernels, one dispatch."
            callees = [f"kernel_{kernel.name}" for kernel in kernels]
            chunks.append(print_dispatcher(f"hector_{direction}", doc, callees))
        return join_module(chunks)

    source, namespace = load_source(None, f"<hector:{plan.name}>", generate)
    return GeneratedModule(
        source=source,
        forward_functions={k.name: namespace[f"kernel_{k.name}"] for k in plan.forward_kernels},
        backward_functions={k.name: namespace[f"kernel_{k.name}"] for k in plan.backward_kernels},
        forward_program=namespace["hector_forward"],
        backward_program=namespace["hector_backward"],
    )


def build_codegen_module(
    plan: KernelPlan, options: BackendOptions, occupancy: Optional[tuple] = None
) -> GeneratedModule:
    """Whole-plan ``main_forward``/``main_backward`` (the ``python-codegen`` registrant).

    Reads the schema's relation counts and the artifact key from ``options``;
    ``occupancy`` (see :func:`whole_plan_function`) specialises the source to
    one bound graph and is folded into the artifact key.
    """

    def generate() -> str:
        schema = (plan, options.num_edge_types, options.num_node_types, occupancy)
        return join_module(
            [
                whole_plan_function("main_forward", "forward", plan.forward_kernels, *schema),
                whole_plan_function("main_backward", "backward", plan.backward_kernels, *schema),
            ]
        )

    key = options.artifact_key
    if key is not None and occupancy is not None:
        key = artifact_key_for(key, ("occupancy", occupancy))
    source, namespace = load_source(key, f"<hector-codegen:{plan.name}>", generate)
    return GeneratedModule(source, {}, {}, namespace["main_forward"], namespace["main_backward"], seeds_gradients=True)


class OccupancySpecialisedModule(GeneratedModule):
    """The ``python-codegen`` module plus bind-time occupancy specialisation (the ``mixed`` registrant).

    The module itself is exactly what :func:`build_codegen_module` returns.
    :meth:`specialise_for_occupancy` (``GraphBinding`` calls it at bind time)
    re-emits it unrolled over only the *occupied* relations of the bound
    graph, memoised per occupancy signature: a 300-relation schema with four
    live relations runs four straight-line blocks instead of a 300-iteration
    launch loop per GEMM.  A variant costs a whole emit + compile (~10 ms), so
    it pays only on a graph that is bound for many calls: a module keeps at
    most :data:`MAX_OCCUPANCY_VARIANTS` of them, and any signature past that
    (a stream of sampled blocks has a new one every few batches) runs the
    unspecialised module.
    """

    def __init__(self, plan: KernelPlan, options: BackendOptions):
        super().__init__(**vars(build_codegen_module(plan, options)))
        self.plan = plan
        self.options = options
        self._lock = threading.Lock()
        self._occupancy_memo: Dict[tuple, GeneratedModule] = {}
        self.occupancy_hits = 0
        self.occupancy_misses = 0

    def occupancy_stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.occupancy_hits,
                "misses": self.occupancy_misses,
                "variants": len(self._occupancy_memo),
            }

    def specialise_for_occupancy(self, ctx) -> GeneratedModule:
        """The variant of this module specialised to ``ctx``'s occupancy.

        Called at bind time.  Returns ``self`` when no segment loop would
        print differently (schema unknown at compile time, mask shape
        mismatch, everything occupied within the unroll limit, or more than
        the limit occupied) and for a new signature once
        :data:`MAX_OCCUPANCY_VARIANTS` are memoised; otherwise a memoised
        per-signature :class:`GeneratedModule`.
        """
        # Which relations / node types hold any rows.  Compact-space segment pointers share
        # the edge mask: a relation has unique (source, type) pairs iff it has edges.
        sig = tuple(tuple((np.diff(ptr) > 0).tolist()) for ptr in (ctx.etype_ptr, ctx.ntype_ptr))
        counts = (self.options.num_edge_types, self.options.num_node_types)
        if all(live_segments(count, mask) == live_segments(count) for count, mask in zip(counts, sig)):
            return self
        with self._lock:
            cached = self._occupancy_memo.get(sig)
            if cached is not None:
                self.occupancy_hits += 1
                return cached
            if len(self._occupancy_memo) >= MAX_OCCUPANCY_VARIANTS:
                return self
            self.occupancy_misses += 1
        variant = build_codegen_module(self.plan, self.options, sig)
        with self._lock:
            if len(self._occupancy_memo) >= MAX_OCCUPANCY_VARIANTS:  # racing builders filled it
                return self._occupancy_memo.get(sig, variant)
            return self._occupancy_memo.setdefault(sig, variant)
