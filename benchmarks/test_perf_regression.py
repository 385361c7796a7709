"""Hot-path regression checks: compile-once-run-many and the backends.

The serving pattern the ROADMAP targets compiles a model once and executes it
for many requests.  The seed runtime recompiled the program on every
``compile_model`` call and allocated every intermediate buffer afresh per
invocation; the performance layer (compilation cache + buffer-arena memory
planner + elementwise fusion) and the generated-code backends must keep
their mechanisms working and their numerics identical.  Checked here on
counters, source structure and bytes; the times are in ``bench/``.
"""

import numpy as np
import pytest

from repro.evaluation.reporting import format_table
from repro.frontend import CompilerOptions, clear_compilation_cache, compile_model, global_compilation_cache
from repro.graph import random_hetero_graph

#: The seed behaviour: no cache, no arena, no extra fusion.
SEED_OPTIONS = CompilerOptions(
    enable_compilation_cache=False,
    enable_memory_planning=False,
)

#: The hot-path configuration of the performance layer.
FAST_OPTIONS = CompilerOptions(fuse_elementwise=True)


def _perf_graph():
    # Sized so one compilation costs a few forward+backward invocations, as
    # in real serving: large enough to exercise every kernel, small enough
    # that the benchmark stays well under a minute in CI.
    return random_hetero_graph(
        num_nodes=120, num_edges=500, num_node_types=3, num_edge_types=6, seed=7, name="perf"
    )


def _features(graph, dim):
    return np.random.default_rng(0).standard_normal((graph.num_nodes, dim))


@pytest.mark.smoke
@pytest.mark.parametrize("model", ["rgcn"])
def test_compile_once_run_many_smoke(model):
    _assert_compile_once_run_many(model, iterations=12)


@pytest.mark.parametrize("model", ["rgat", "hgt"])
def test_compile_once_run_many(model):
    _assert_compile_once_run_many(model, iterations=25)


def _assert_compile_once_run_many(model, iterations):
    """N ``compile_model`` calls compile once; N requests reuse one arena.

    The seed path recompiled and reallocated per request.  The fast path
    misses the compilation cache once and hits it N-1 times, returns one
    plan object, binds the same arena on every request, and computes what
    the seed path computes.  The times are ``compile_cold_ms`` /
    ``compile_warm_ms`` and ``train_step_ms.*`` in ``bench/``.
    """
    graph = _perf_graph()
    dim = 16
    features = _features(graph, dim)
    seed_module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=SEED_OPTIONS)
    seed_out = seed_module.forward(features)
    assert seed_module.arena is None

    clear_compilation_cache()
    stats = global_compilation_cache().stats
    modules = [
        compile_model(model, graph, in_dim=dim, out_dim=dim, options=FAST_OPTIONS)
        for _ in range(iterations)
    ]
    assert (stats.misses, stats.hits) == (1, iterations - 1)
    assert all(module.plan is modules[0].plan for module in modules)

    module = modules[0]
    for _ in range(iterations):
        fast_out = module.forward(features)
        module.backward({name: np.ones_like(value) for name, value in fast_out.items()})
    assert module.arena.bind_count == iterations
    assert module.arena.bytes_saved() > 0
    print()
    print(format_table(
        [{
            "model": model, "iterations": iterations, "cache_misses": stats.misses,
            "cache_hits": stats.hits, "arena_binds": module.arena.bind_count,
            "arena_bytes_saved": module.arena.bytes_saved(),
        }],
        title="Compile once, run many — compilation cache and arena counters",
    ))
    # Identical numerics: the fast path is an optimisation, not an approximation.
    for name in seed_out:
        np.testing.assert_allclose(seed_out[name], fast_out[name], atol=1e-9)


#: Cells of the codegen-backend check: (model, nodes, edges, node types, edge
#: types, dim).  Dispatch-bound shapes — the regime whole-plan codegen
#: targets.
_CODEGEN_CELLS = [
    ("rgcn", 120, 500, 3, 6, 16),
    ("rgcn", 120, 500, 3, 6, 32),
    ("hgt", 256, 1000, 3, 6, 32),
]


@pytest.mark.smoke
def test_codegen_backend_matches_interp_bit_for_bit():
    """python-codegen forward equals python-interp's to the byte, on every cell.

    Both backends run the same numpy kernels (same scatter helper, same
    GEMMs); what whole-plan codegen removes is dispatch — per-kernel calls,
    ``env``/``ctx`` lookups, runtime segment loops — never arithmetic.  The
    forward times are ``infer_ms.interp`` / ``infer_ms.codegen`` in
    ``bench/``.
    """
    for model, nodes, edges, ntypes, etypes, dim in _CODEGEN_CELLS:
        graph = random_hetero_graph(
            num_nodes=nodes, num_edges=edges, num_node_types=ntypes,
            num_edge_types=etypes, seed=7, name="codegen-perf",
        )
        features = _features(graph, dim)
        outputs = {
            backend: compile_model(
                model, graph, in_dim=dim, out_dim=dim,
                options=FAST_OPTIONS.with_(backend=backend, emit_backward=False),
            ).forward(features)
            for backend in ("python-interp", "python-codegen")
        }
        for name in outputs["python-interp"]:
            assert outputs["python-interp"][name].tobytes() == outputs["python-codegen"][name].tobytes()


def _sparse_hgt_cell(num_edge_types=300, occupied=4, nodes_per_type=48, edges_per_relation=60):
    """A dispatch-bound serving cell: many relations, few occupied.

    The regime bind-time occupancy specialisation targets — per-relation
    dispatch dominates because the schema is wide but the bound graph touches
    a handful of relations.  Built by hand: ``random_hetero_graph`` guarantees
    at least one edge per relation, and the point here is that most relations
    have none.
    """
    rng = np.random.default_rng(11)
    num_nodes = {"nt0": nodes_per_type, "nt1": nodes_per_type}
    edges = {}
    for r in range(num_edge_types):
        key = (f"nt{r % 2}", f"rel{r}", f"nt{(r + 1) % 2}")
        if r % (num_edge_types // occupied) == 0:
            edges[key] = (
                rng.integers(0, nodes_per_type, edges_per_relation),
                rng.integers(0, nodes_per_type, edges_per_relation),
            )
        else:
            edges[key] = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    from repro.graph import HeteroGraph

    return HeteroGraph(num_nodes, edges, name="mixed-perf")


@pytest.mark.smoke
def test_occupancy_specialised_mixed_unrolls_the_occupied_relations():
    """``mixed`` runs 4 straight-line blocks where ``python-codegen`` loops 300 relations.

    On the 300-relation / 4-occupied cell both pure backends loop every
    relation per edge-typed GEMM site; ``mixed`` emits the same source and
    re-specialises it at bind time to the occupied relations.  Two checks:
    bit-identity across the three backends (the saving must not come from
    different arithmetic) and the structure of the specialised source.  The
    forward time is ``infer_ms.mixed`` in ``bench/``.
    """
    graph = _sparse_hgt_cell()
    dim = 8
    features = _features(graph, dim)
    modules = {
        backend: compile_model(
            "hgt", graph, in_dim=dim, out_dim=dim,
            options=FAST_OPTIONS.with_(backend=backend, emit_backward=False),
        )
        for backend in ("python-interp", "python-codegen", "mixed")
    }
    outputs = {backend: module.forward(features) for backend, module in modules.items()}
    for backend in ("python-codegen", "mixed"):
        for name in outputs["python-interp"]:
            assert (
                outputs["python-interp"][name].tobytes() == outputs[backend][name].tobytes()
            ), f"{backend} output {name} not bit-identical to python-interp"

    base = modules["mixed"].generated.source
    assert base == modules["python-codegen"].generated.source
    specialised = modules["mixed"].generated_for(modules["mixed"].default_binding.ctx).source
    runtime_loop, block = "for t in range(num_segments):", "if end > start:"
    sites = base.count(runtime_loop)  # the edge-typed GEMM sites: 300 relations are past the unroll limit
    assert sites > 0
    assert specialised.count(runtime_loop) == 0
    # The two (occupied) node types are unrolled in the base source already.
    assert specialised.count(block) == base.count(block) + 4 * sites


@pytest.mark.smoke
def test_artifact_cache_warm_compile_skips_the_emitter(tmp_path, monkeypatch):
    """A warm-process compile loads the artifact: no emit, no store.

    The artifact cache persists the generated source and its compiled code
    object keyed by compilation key × emitter fingerprint; a later compile of
    the same (model, options, schema) with a fresh compilation cache must load
    it instead of regenerating.  Asserted on counters — the times are
    ``compile_cold_ms`` / ``compile_warm_ms`` in ``BENCH_<pr>.json``.
    """
    import repro.ir.codegen.python_backend as python_backend
    from repro.ir.codegen.artifact_cache import CACHE_ENV, artifact_cache_stats

    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "codegen"))
    emitted = []
    emit = python_backend.whole_plan_function

    def counting_emit(name, *args):
        emitted.append(name)
        return emit(name, *args)

    monkeypatch.setattr(python_backend, "whole_plan_function", counting_emit)
    graph = _perf_graph()
    options = CompilerOptions(
        backend="mixed", emit_backward=True, enable_compilation_cache=False
    )

    module = compile_model("rgat", graph, in_dim=16, out_dim=16, options=options)
    cold = artifact_cache_stats()
    assert cold["stores"] >= 1 and cold["hits"] == 0
    assert emitted == ["main_forward", "main_backward"]

    for _ in range(5):
        compile_model("rgat", graph, in_dim=16, out_dim=16, options=options)
    warm = artifact_cache_stats()
    assert warm["hits"] >= 5, f"warm compiles missed the artifact cache: {warm}"
    assert warm["stores"] == cold["stores"], f"warm compiles stored new artifacts: {warm}"
    assert len(emitted) == 2, f"warm compiles ran the emitter: {emitted[2:]}"
    assert module.summary()["artifact_cache"] == warm


def test_cache_hits_on_repeated_compilation():
    """Repeated compile_model calls reuse one compilation result."""
    clear_compilation_cache()
    graph = _perf_graph()
    first = compile_model("rgcn", graph, in_dim=16, out_dim=16, options=FAST_OPTIONS)
    second = compile_model("rgcn", graph, in_dim=16, out_dim=16, options=FAST_OPTIONS)
    assert first.plan is second.plan
    assert first.generated is second.generated
    stats = global_compilation_cache().stats
    assert stats.hits >= 1


def test_arena_reuses_buffers_across_invocations():
    """The module's arena binds the same preallocated buffers on every call."""
    graph = _perf_graph()
    module = compile_model("rgat", graph, in_dim=16, out_dim=16, options=FAST_OPTIONS)
    features = _features(graph, 16)
    assert module.arena is not None
    first = {k: v.copy() for k, v in module.forward(features).items()}
    binds_after_first = module.arena.bind_count
    second = module.forward(features)
    assert module.arena.bind_count == binds_after_first + 1
    assert module.arena.bytes_saved() > 0
    for name in first:
        np.testing.assert_allclose(first[name], second[name])
