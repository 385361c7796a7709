"""Compile entry points: program → passes → lowering → code generation.

``compile_program`` runs the optimization pipeline selected by
:class:`repro.frontend.config.CompilerOptions`, lowers the result to a kernel
plan, and generates both the executable Python kernels and the CUDA-like /
host source text.  ``compile_model`` additionally *binds* the result: it
builds a schema-specialised :class:`repro.runtime.module.CompiledRGNNModule`
and attaches the given graph as the module's default binding, so the module
is ready to run — and can be rebound to any other graph sharing the schema
(e.g. sampled minibatch blocks) via ``module.bind(graph)`` without
recompiling.  ``hector_compile`` is the decorator-style interface
corresponding to the paper's ``@hector.compile``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.frontend.cache import CompilationCache, global_compilation_cache, make_cache_key
from repro.frontend.config import CompilerOptions
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.codegen.artifact_cache import artifact_key_for
from repro.ir.codegen.host import generate_host_source
from repro.ir.codegen.python_backend import GeneratedModule
from repro.ir.codegen.registry import BackendOptions, get_backend
from repro.ir.inter_op.lowering import LoweringOptions, lower_program
from repro.ir.inter_op.passes import pipeline_for_options
from repro.ir.inter_op.program import InterOpProgram
from repro.ir.intra_op.plan import KernelPlan
from repro.runtime.module import CompiledRGNNModule


@dataclass
class CompilationResult:
    """Everything the compiler produces for one program + option set."""

    program: InterOpProgram
    optimized_program: InterOpProgram
    plan: KernelPlan
    generated: GeneratedModule
    options: CompilerOptions
    #: Who fixed the pass switches: the caller's ``"options"`` or the ``"compiler"``.
    decided_by: str = "options"

    @property
    def configuration(self) -> str:
        """The compiled configuration: ``U`` / ``C`` / ``R`` / ``C+R``."""
        return self.options.label()

    def cuda_source(self) -> str:
        """CUDA-like kernel source text for the plan (the ``cuda-emit`` backend)."""
        return get_backend("cuda-emit").generate(self.plan).source

    def host_source(self) -> str:
        """C++-like host wrapper / registration source text for the plan."""
        return generate_host_source(self.plan)

    def generated_line_counts(self) -> Dict[str, int]:
        """Line counts of every generated artefact (programming-effort metric)."""
        return {
            "python_kernels": self.generated.line_count(),
            "cuda_kernels": len(self.cuda_source().splitlines()),
            "host_code": len(self.host_source().splitlines()),
            "input_program": self.program.source_line_count(),
        }


def compile_program(
    program: InterOpProgram,
    options: Optional[CompilerOptions] = None,
    cache: Optional[CompilationCache] = None,
    graph: Optional[HeteroGraph] = None,
) -> CompilationResult:
    """Optimize, lower, and generate code for an inter-op program.

    When ``options.enable_compilation_cache`` is set (the default) the global
    compilation cache — or the explicit ``cache`` argument — is consulted
    first: a structurally identical program compiled under identical options
    returns the already-built result without re-running passes, lowering, or
    code generation.  ``graph``, when given, adds the graph's schema
    fingerprint to the cache key (``compile_model`` passes it), so entries are
    qualified by the (program, options, schema) triple the runtime module is
    specialised for.

    The executing backend is selected by ``options.backend`` through the
    registry (:mod:`repro.ir.codegen.registry`); emit-only backends such as
    ``cuda-emit`` are rejected here.  The backend name is part of the options
    cache key, so interp and codegen artifacts of one program never collide,
    and the generated module — including the codegen backend's ``exec``-compiled
    ``main_forward``/``main_backward`` callables — is cached alongside the plan.

    Unset pass switches resolve to U here (``graph`` only qualifies the key);
    ``compile_model`` / ``hector_compile`` decide them for their graph first.
    """
    requested = options or CompilerOptions()
    options = requested.resolved()
    decided_by = "options" if options is requested else "compiler"
    if options.is_auto:
        raise ValueError(
            "optimization_level='auto' must be resolved before compilation: use "
            "compile_model(..., tune=True) or repro.tuner.resolve_tuned_options"
        )
    backend = get_backend(options.backend)
    if not backend.executes:
        raise ValueError(
            f"backend {backend.name!r} only emits source and cannot execute plans; "
            f"pick an executing backend for CompilerOptions(backend=...) and read "
            f"emitted source through CompilationResult.cuda_source() or "
            f"get_backend({backend.name!r}).generate(plan).source"
        )
    if options.emit_backward and not backend.supports_training:
        raise ValueError(
            f"backend {backend.name!r} does not generate backward artifacts; "
            "compile with emit_backward=False or pick a training-capable backend"
        )
    if cache is None and options.enable_compilation_cache:
        cache = global_compilation_cache()
    # The key is computed even with caching disabled: it also derives the
    # persistent artifact-cache key for the generated-source backends.
    key = make_cache_key(program, options, graph)
    if cache is not None:
        cached = cache.lookup(key)
        if cached is not None:
            return cached if cached.decided_by == decided_by else replace(cached, decided_by=decided_by)
    optimized = pipeline_for_options(options).run(program)
    plan = lower_program(
        optimized,
        LoweringOptions(
            gemm_schedule=options.gemm_schedule(),
            traversal_schedule=options.traversal_schedule(),
            enable_fusion=options.enable_fusion,
            merge_adjacent_kernels=options.fuse_elementwise,
            emit_backward=options.emit_backward,
        ),
    )
    plan.name = f"{program.name}_{options.label()}"
    plan.metadata["memory_planning_enabled"] = options.enable_memory_planning
    plan.metadata["backend"] = backend.name
    plan.metadata["configuration"] = options.label()
    generated = backend.generate(
        plan,
        BackendOptions(
            num_edge_types=graph.num_edge_types if graph is not None else None,
            num_node_types=graph.num_node_types if graph is not None else None,
            artifact_key=artifact_key_for(key),
        ),
    )
    result = CompilationResult(
        program=program,
        optimized_program=optimized,
        plan=plan,
        generated=generated,
        options=options,
        decided_by=decided_by,
    )
    if cache is not None:
        cache.store(key, result)
    return result


#: Memoised inter-op programs keyed by (model, in_dim, out_dim); building the
#: IR is cheap relative to codegen but still worth skipping on the hot path.
_PROGRAM_MEMO: Dict[tuple, InterOpProgram] = {}


def compile_model(
    model: str,
    graph: HeteroGraph,
    in_dim: int = 64,
    out_dim: int = 64,
    options: Optional[CompilerOptions] = None,
    seed: int = 0,
    tune: bool = False,
    tuning_db=None,
    tuning_space=None,
    measure_top_k: int = 0,
    backend: Optional[str] = None,
) -> CompiledRGNNModule:
    """Compile a named model (``"rgcn"``, ``"rgat"``, ``"hgt"``) for a graph.

    Compilation specialises per *schema* (type vocabulary + feature dims);
    binding to the concrete ``graph`` is a separate, cheap step this function
    performs last, so the returned module can serve any graph sharing the
    schema through ``module.bind(other_graph)`` — the rebind path the serving
    engine uses for sampled minibatch blocks.  With the compilation cache
    enabled (the default) repeated calls for the same (model, dimensions,
    options, graph schema) reuse the compiled plan and generated kernels;
    only the parameter initialisation and the binding run per call.

    Args:
        model: model name registered in :mod:`repro.models`.
        graph: the heterogeneous graph the module is specialised for.
        in_dim / out_dim: feature dimensions (the paper uses 64/64).
        options: compiler options; unset pass switches are decided from
            ``graph`` (:meth:`CompilerOptions.resolved`).
            ``CompilerOptions(optimization_level="auto")`` implies ``tune=True``.
        seed: parameter-initialisation seed.
        tune: ask the :mod:`repro.tuner` autotuner to pick the configuration.
            The first call for a (program, schema, dims, device, mode) key
            searches the design space and persists the winner in the tuning
            database; subsequent calls replay the stored winner without
            re-searching.  Tuned plans flow through the compilation cache,
            memory planner, and executor exactly like hand-picked options.
        tuning_db: explicit :class:`repro.tuner.TuningDatabase` (defaults to
            the process-wide, disk-backed database).
        tuning_space: explicit :class:`repro.tuner.TuningSpace` to search.
        measure_top_k: when > 0, the search validates this many top-ranked
            candidates by measured wall-clock of the python backend on
            ``graph`` before declaring the winner.
        backend: convenience override for ``options.backend`` — the name of a
            registered executing backend (``"python-interp"``,
            ``"python-codegen"``, or a custom registrant).
    """
    from repro.models import build_program  # local import to avoid a cycle

    options = options or CompilerOptions()
    if backend is not None:
        options = options.with_(backend=backend)
    tuning = tune or options.is_auto
    if not tuning and (tuning_db is not None or tuning_space is not None or measure_top_k):
        raise ValueError(
            "tuning_db / tuning_space / measure_top_k only take effect with tune=True "
            "or CompilerOptions(optimization_level='auto')"
        )
    if options.enable_compilation_cache:
        memo_key = (model, in_dim, out_dim)
        program = _PROGRAM_MEMO.get(memo_key)
        if program is None:
            program = _PROGRAM_MEMO.setdefault(memo_key, build_program(model, in_dim=in_dim, out_dim=out_dim))
    else:
        program = build_program(model, in_dim=in_dim, out_dim=out_dim)
    if tuning:
        from repro.tuner import resolve_tuned_options  # local import to avoid a cycle

        options = resolve_tuned_options(
            program,
            graph=graph,
            base_options=options,
            mode="training" if options.emit_backward else "inference",
            db=tuning_db,
            space=tuning_space,
            measure_top_k=measure_top_k,
        )
    return _module_for(program, options, graph, seed)


def _module_for(program: InterOpProgram, options: Optional[CompilerOptions], graph: HeteroGraph, seed: int):
    """Decide unset switches for ``graph``, compile, bind; the module records the decision."""
    requested = options or CompilerOptions()
    options = requested.resolved(graph)
    result = compile_program(program, options, graph=graph)
    module = CompiledRGNNModule(result.plan, result.generated, graph, seed=seed)
    if options is not requested:
        module.decision = {"decided_by": "compiler", "entity_compaction_ratio": graph.entity_compaction_ratio,
                           "edges_per_relation": graph.num_edges / max(graph.num_edge_types, 1)}
    return module


def hector_compile(
    in_dim: int = 64,
    out_dim: int = 64,
    options: Optional[CompilerOptions] = None,
) -> Callable:
    """Decorator-style interface mirroring the paper's ``@hector.compile``.

    The decorated function receives a
    :class:`repro.ir.inter_op.builder.ProgramBuilder` and expresses the model
    with it (the transpiled form of the DGL/PyG forward function).  The
    decorator returns a factory: calling it with a graph yields a compiled
    module.

    Example::

        @hector_compile(in_dim=64, out_dim=64)
        def my_layer(g):
            h = g.input_node_feature("h")
            W = g.weight("W", (64, 64))
            msg = g.typed_linear(h, W, "msg")
            g.mark_output(g.aggregate(msg, "out"))

        module = my_layer(graph)
    """

    def decorator(model_fn: Callable) -> Callable:
        def factory(graph: HeteroGraph, seed: int = 0) -> CompiledRGNNModule:
            from repro.ir.inter_op.builder import ProgramBuilder

            builder = ProgramBuilder(model_fn.__name__, in_dim=in_dim, out_dim=out_dim)
            model_fn(builder)
            return _module_for(builder.finish(), options, graph, seed)

        factory.__name__ = f"compiled_{model_fn.__name__}"
        factory.__doc__ = model_fn.__doc__
        return factory

    return decorator
