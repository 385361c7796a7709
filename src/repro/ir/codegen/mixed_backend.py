"""The ``mixed`` backend: the interp/codegen selection made per kernel.

The two pure backends are all-or-nothing: ``python-interp`` pays a function
call and env lookups per kernel but runs numpy-bound traversal kernels at full
speed, while ``python-codegen`` erases dispatch for the whole plan but cannot
beat the interpreter where numpy does all the work anyway.  Hector's cost
model already prices kernels *individually*, so this backend chooses per
kernel, the way roofline-driven HPC characterisations pick an implementation
per primitive rather than one global winner:

* each kernel is assigned ``interp`` or ``codegen`` — explicitly
  (``CompilerOptions.mixed_assignment``, e.g. from the tuner's beam search),
  or from the cost model's per-kernel bound classification (dispatch/latency
  bound → codegen, memory/compute bound traversal → interp);
* maximal runs of codegen-assigned kernels become whole-plan functions
  (``_seg_forward_0`` …, every pass applied), interp-assigned kernels keep
  their per-kernel functions, and one ``main_forward``/``main_backward``
  dispatcher calls them in plan order — one generated source, compiled once.

All kernels communicate through the shared ``env`` dict exactly as both pure
backends do, so the hand-off across run boundaries is bit-exact by
construction; the only pass with cross-kernel reach — fresh-scatter
specialisation — is made boundary-aware by telling each run which gradients
earlier kernels may already have written (``pre_touched``).  The mixed module
declares ``seeds_gradients=False`` so the executor eagerly zero-seeds
gradients the way the interp kernels expect; the codegen runs' guarded reads
find those seeds and accumulate bit-identically.

The module also re-specialises *per bound graph*:
:meth:`MixedGeneratedModule.specialise_for_occupancy` (``GraphBinding`` calls
it at bind time) re-emits the codegen runs unrolled over only the *occupied*
relations of the bound graph, memoised per occupancy signature.  A
300-relation schema with four live relations runs four straight-line blocks
instead of a 300-iteration launch loop per GEMM.  A variant costs a whole
emit + compile (~10 ms), so it pays only on a graph that is bound for many
calls: a module keeps at most :data:`MAX_OCCUPANCY_VARIANTS` of them, and any
signature past that (a stream of sampled blocks has a new one every few
batches) runs the unspecialised module.
"""

from __future__ import annotations

import threading
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.ir.intra_op.kernels import KernelInstance
from repro.ir.intra_op.plan import KernelPlan

from repro.ir.codegen.artifact_cache import artifact_key_for, load_source
from repro.ir.codegen.passes import MAX_UNROLL_SEGMENTS
from repro.ir.codegen.printer import join_module, print_dispatcher
from repro.ir.codegen.python_backend import GeneratedModule, kernel_function, whole_plan_function
from repro.ir.codegen.registry import BackendOptions

#: Assignment tokens: which executor a kernel runs on.
ASSIGN_INTERP = "interp"
ASSIGN_CODEGEN = "codegen"
ASSIGN_TOKENS = (ASSIGN_INTERP, ASSIGN_CODEGEN)

#: Occupancy variants one module emits and keeps; later signatures run the module itself.
MAX_OCCUPANCY_VARIANTS = 8


# ----------------------------------------------------------------------
# Assignment: explicit > cost model > structural default
# ----------------------------------------------------------------------
def resolve_assignment(
    plan: KernelPlan,
    workload=None,
    explicit: Optional[Sequence[Tuple[str, str]]] = None,
    device=None,
) -> Dict[str, str]:
    """Per-kernel backend assignment for every kernel in the plan.

    Explicit ``(kernel_name, token)`` pairs win; unnamed kernels fall back to
    the cost model when a workload is known (traversal kernels whose modelled
    time is launch-latency bound gain from inlining; memory/compute-bound
    ones keep the interpreter's plain numpy path), else to the structural
    default: GEMM/fallback chains → codegen, traversal → interp.
    """
    kernels = list(plan.forward_kernels) + list(plan.backward_kernels)
    names = {kernel.name for kernel in kernels}
    explicit_map = dict(explicit or ())
    unknown = sorted(set(explicit_map) - names)
    if unknown:
        raise ValueError(
            f"mixed_assignment names unknown kernels {unknown}; "
            f"plan kernels: {sorted(names)}"
        )
    bad = sorted({t for t in explicit_map.values() if t not in ASSIGN_TOKENS})
    if bad:
        raise ValueError(f"unknown mixed_assignment tokens {bad}; use one of {ASSIGN_TOKENS}")
    assignment: Dict[str, str] = {}
    for kernel in kernels:
        token = explicit_map.get(kernel.name)
        if token is None:
            token = _default_token(kernel, workload, device)
        assignment[kernel.name] = token
    return assignment


def _default_token(kernel: KernelInstance, workload, device) -> str:
    if getattr(kernel, "category", "fallback") != "traversal":
        return ASSIGN_CODEGEN
    if workload is None:
        return ASSIGN_INTERP
    from repro.gpu.costmodel import RTX_3090, estimate_kernel_time, kernel_work_from_instance

    device = device if device is not None else RTX_3090
    work = kernel_work_from_instance(kernel, workload, device=device)
    time = estimate_kernel_time(work, device)
    return ASSIGN_CODEGEN if time.bound == "latency" else ASSIGN_INTERP


def _touched_gradients(kernel: KernelInstance) -> Set[str]:
    """Gradient buffers ``kernel`` may write (overapproximation-safe).

    Tells a following codegen run what is ``pre_touched``: a buffer wrongly
    included only disables fresh-scatter specialisation for it, a buffer
    wrongly *excluded* would corrupt gradients, so backward traversal kernels
    (which carry the forward micro-op list and write the adjoint of every
    statement input) contribute all their micro-op operands.
    """
    touched = {name for name in kernel.written_buffers() if name.startswith("grad_")}
    micro_ops = getattr(kernel, "micro_ops", None)
    if micro_ops is not None and kernel.direction == "backward":
        for op in micro_ops:
            touched.update(f"grad_{name}" for name in (*op.inputs, op.output))
    return touched


def occupancy_signature(ctx) -> Tuple[tuple, tuple]:
    """Which relations/node types of the bound graph hold any rows.

    Compact-space segment pointers share the edge mask: a relation has
    unique (source, type) pairs iff it has edges.
    """
    edge = tuple(bool(x) for x in np.diff(ctx.etype_ptr) > 0)
    node = tuple(bool(x) for x in np.diff(ctx.ntype_ptr) > 0)
    return edge, node


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def mixed_source(
    plan: KernelPlan,
    assignment: Dict[str, str],
    num_edge_types: Optional[int] = None,
    num_node_types: Optional[int] = None,
    occupancy: Optional[tuple] = None,
) -> str:
    """Emit interp kernel functions + codegen segments + plan-order dispatchers.

    Interp-assigned kernels are the per-kernel functions ``python-interp``
    executes, verbatim; each codegen run goes through the whole-plan pipeline
    with ``pre_touched`` seeded from everything earlier in the plan.
    """
    chunks: List[str] = []
    for direction, kernels in (("forward", plan.forward_kernels), ("backward", plan.backward_kernels)):
        counts = {ASSIGN_INTERP: 0, ASSIGN_CODEGEN: 0}
        callees: List[str] = []
        touched: Set[str] = set()
        # Maximal runs of same-assignment kernels, in plan order.
        for index, (token, run) in enumerate(groupby(kernels, key=lambda kernel: assignment[kernel.name])):
            run = list(run)
            counts[token] += len(run)
            if token == ASSIGN_CODEGEN:
                callees.append(f"_seg_{direction}_{index}")
                chunks.append(
                    whole_plan_function(
                        callees[-1], direction, run, plan, num_edge_types, num_node_types, occupancy, touched
                    )
                )
            else:
                callees += [f"kernel_{kernel.name}" for kernel in run]
                chunks += [kernel_function(kernel) for kernel in run]
            if direction == "backward":
                for kernel in run:
                    touched |= _touched_gradients(kernel)
        doc = (
            f"Mixed {direction} of {plan.name}: {counts[ASSIGN_INTERP]} interp kernels, "
            f"{counts[ASSIGN_CODEGEN]} codegen-segment kernels."
        )
        chunks.append(print_dispatcher(f"main_{direction}", doc, callees))
    return join_module(chunks)


class MixedGeneratedModule:
    """GeneratedModule-shaped mixed artifact plus bind-time respecialisation.

    Duck-typed to what :class:`~repro.runtime.executor.PlanExecutor` and the
    runtime introspection need (``source``, ``forward_program``,
    ``backward_program``, ``seeds_gradients``, ``line_count``), and carries
    the per-occupancy-signature memo that ``CompiledRGNNModule.
    generated_for`` consults at bind time.
    """

    def __init__(
        self,
        source: str,
        forward_program,
        backward_program,
        plan: KernelPlan,
        num_edge_types: Optional[int],
        num_node_types: Optional[int],
        assignment: Dict[str, str],
        artifact_key: Optional[str] = None,
    ):
        self.source = source
        self.forward_functions: Dict[str, object] = {}
        self.backward_functions: Dict[str, object] = {}
        self.forward_program = forward_program
        self.backward_program = backward_program
        self.seeds_gradients = False
        self.plan = plan
        self.num_edge_types = num_edge_types
        self.num_node_types = num_node_types
        self.assignment = dict(assignment)
        self.artifact_key = artifact_key
        self._lock = threading.Lock()
        self._occupancy_memo: Dict[tuple, GeneratedModule] = {}
        self.occupancy_hits = 0
        self.occupancy_misses = 0

    def line_count(self) -> int:
        return len(self.source.splitlines())

    def assignment_counts(self) -> Dict[str, int]:
        counts = {ASSIGN_INTERP: 0, ASSIGN_CODEGEN: 0}
        for token in self.assignment.values():
            counts[token] += 1
        return counts

    def occupancy_stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.occupancy_hits,
                "misses": self.occupancy_misses,
                "variants": len(self._occupancy_memo),
            }

    # ------------------------------------------------------------------
    def specialise_for_occupancy(self, ctx) -> object:
        """The variant of this module specialised to ``ctx``'s occupancy.

        Called at bind time.  Returns ``self`` when specialisation cannot
        change the emitted source (schema unknown at compile time, mask
        shape mismatch, or everything occupied within the unroll limit) and
        for a new signature once :data:`MAX_OCCUPANCY_VARIANTS` are memoised;
        otherwise a memoised per-signature :class:`GeneratedModule`.
        """
        if self.num_edge_types is None or self.num_node_types is None:
            return self
        sig = occupancy_signature(ctx)
        if len(sig[0]) != self.num_edge_types or len(sig[1]) != self.num_node_types:
            return self
        if (
            all(sig[0])
            and all(sig[1])
            and max(self.num_edge_types, self.num_node_types) <= MAX_UNROLL_SEGMENTS
        ):
            return self
        with self._lock:
            cached = self._occupancy_memo.get(sig)
            if cached is not None:
                self.occupancy_hits += 1
                return cached
            if len(self._occupancy_memo) >= MAX_OCCUPANCY_VARIANTS:
                return self
            self.occupancy_misses += 1
        variant = self._build_variant(sig)
        with self._lock:
            if len(self._occupancy_memo) >= MAX_OCCUPANCY_VARIANTS:  # racing builders filled it
                return self._occupancy_memo.get(sig, variant)
            return self._occupancy_memo.setdefault(sig, variant)

    def _build_variant(self, sig: tuple) -> GeneratedModule:
        key = None
        if self.artifact_key is not None:
            key = artifact_key_for(self.artifact_key, ("occupancy", sig))

        def generate() -> str:
            return mixed_source(self.plan, self.assignment, self.num_edge_types, self.num_node_types, sig)

        source, namespace = load_source(key, f"<hector-mixed:{self.plan.name}:occupancy>", generate)
        return GeneratedModule(source, {}, {}, namespace["main_forward"], namespace["main_backward"])


def build_mixed_module(plan: KernelPlan, options: BackendOptions) -> MixedGeneratedModule:
    """Generate and compile the mixed module (the ``mixed`` registrant).

    ``options.mixed_assignment`` overrides the default per-kernel policy,
    which prices kernels on ``options.workload`` when given.  The resolved
    assignment is folded into the artifact key, since workload-derived
    assignments can differ under one compilation key.
    """
    resolved = resolve_assignment(plan, workload=options.workload, explicit=options.mixed_assignment)
    key = None
    if options.artifact_key is not None:
        key = artifact_key_for(options.artifact_key, ("assignment", tuple(sorted(resolved.items()))))

    def generate() -> str:
        return mixed_source(plan, resolved, options.num_edge_types, options.num_node_types)

    source, namespace = load_source(key, f"<hector-mixed:{plan.name}>", generate)
    return MixedGeneratedModule(
        source=source,
        forward_program=namespace["main_forward"],
        backward_program=namespace["main_backward"],
        plan=plan,
        num_edge_types=options.num_edge_types,
        num_node_types=options.num_node_types,
        assignment=resolved,
        artifact_key=options.artifact_key,
    )
