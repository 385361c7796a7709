"""Hot-path performance regression: compile-once-run-many throughput.

The serving pattern the ROADMAP targets compiles a model once and executes it
for many requests.  The seed runtime recompiled the program on every
``compile_model`` call and allocated every intermediate buffer afresh per
invocation; the performance layer (compilation cache + buffer-arena memory
planner + elementwise fusion) must beat that path by at least 2× on the same
model and graph — this file is the regression gate for it.
"""

import time

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


def _run_seed_path(model, graph, features, dim, iterations):
    """One full compile + forward + backward per request (seed behaviour)."""
    start = time.perf_counter()
    outputs = None
    for _ in range(iterations):
        module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=SEED_OPTIONS)
        outputs = module.forward(features)
        module.backward({name: np.ones_like(value) for name, value in outputs.items()})
    return time.perf_counter() - start, outputs


def _run_fast_path(model, graph, features, dim, iterations):
    """Compile once (cached), then serve every request from the same module."""
    clear_compilation_cache()
    start = time.perf_counter()
    module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=FAST_OPTIONS)
    outputs = None
    for _ in range(iterations):
        outputs = module.forward(features)
        module.backward({name: np.ones_like(value) for name, value in outputs.items()})
    elapsed = time.perf_counter() - start
    return elapsed, outputs


@pytest.mark.smoke
@pytest.mark.parametrize("model", ["rgcn"])
def test_compile_once_run_many_speedup_smoke(model):
    _assert_speedup(model, iterations=12)


@pytest.mark.parametrize("model", ["rgat", "hgt"])
def test_compile_once_run_many_speedup(model):
    _assert_speedup(model, iterations=25)


def _assert_speedup(model, iterations):
    graph = _perf_graph()
    dim = 16
    features = _features(graph, dim)
    seed_time, seed_out = _run_seed_path(model, graph, features, dim, iterations)
    fast_time, fast_out = _run_fast_path(model, graph, features, dim, iterations)
    speedup = seed_time / fast_time
    print()
    print(format_table(
        [
            {
                "model": model,
                "iterations": iterations,
                "seed_path_s": round(seed_time, 4),
                "fast_path_s": round(fast_time, 4),
                "speedup": round(speedup, 2),
            }
        ],
        title="Perf regression — compile-once-run-many (cache + arena + fusion) vs seed path",
    ))
    # Identical numerics: the fast path is an optimisation, not an approximation.
    for name in seed_out:
        np.testing.assert_allclose(seed_out[name], fast_out[name], atol=1e-9)
    assert speedup >= 2.0, (
        f"performance layer regressed: {speedup:.2f}x < 2x over the seed path "
        f"(seed {seed_time:.3f}s, fast {fast_time:.3f}s)"
    )


#: Cells of the codegen-backend gate: (model, nodes, edges, node types, edge
#: types, dim).  Dispatch-bound shapes — the regime whole-plan codegen
#: targets; at large dims both backends converge on the same numpy
#: GEMM/scatter work and the ratio tends to 1.
_CODEGEN_CELLS = [
    ("rgcn", 120, 500, 3, 6, 16),
    ("rgcn", 120, 500, 3, 6, 32),
    ("hgt", 256, 1000, 3, 6, 32),
]


def _interleaved_forward_cpu_time(modules, features, rounds=15, iterations=50):
    """Best per-forward ``time.thread_time`` seconds of each module.

    The modules' timed batches are interleaved, so a slow stretch of the
    shared host lands on every side.  Callers run one forward first (it warms
    the arena and faults in pages).
    """
    times = dict.fromkeys(modules, float("inf"))
    for _ in range(rounds):
        for key, module in modules.items():
            start = time.thread_time()
            for _ in range(iterations):
                module.forward(features)
            times[key] = min(times[key], (time.thread_time() - start) / iterations)
    return times


@pytest.mark.smoke
def test_codegen_backend_speedup_over_interp():
    """python-codegen forward is never slower than python-interp, on any cell.

    Both backends run the same numpy kernels (same scatter helper, same
    GEMMs); what whole-plan codegen removes is dispatch — per-kernel calls,
    ``env``/``ctx`` lookups, runtime segment loops — so its forward must cost
    no more CPU than interp's on every cell.  Measured in ``time.thread_time``
    (CPU time of this thread), best of N batches with the two backends'
    batches interleaved, so a slow stretch of the shared host lands on both
    sides.  Absolute times are in ``BENCH_<pr>.json`` (``infer_ms.interp`` /
    ``infer_ms.codegen``).
    """
    rows = []
    for model, nodes, edges, ntypes, etypes, dim in _CODEGEN_CELLS:
        graph = random_hetero_graph(
            num_nodes=nodes, num_edges=edges, num_node_types=ntypes,
            num_edge_types=etypes, seed=7, name="codegen-perf",
        )
        features = _features(graph, dim)
        modules = {
            backend: compile_model(
                model, graph, in_dim=dim, out_dim=dim,
                options=FAST_OPTIONS.with_(backend=backend, emit_backward=False),
            )
            for backend in ("python-interp", "python-codegen")
        }
        outputs = {backend: module.forward(features) for backend, module in modules.items()}  # also warms
        for name in outputs["python-interp"]:
            assert outputs["python-interp"][name].tobytes() == outputs["python-codegen"][name].tobytes()
        times = _interleaved_forward_cpu_time(modules, features)
        rows.append({
            "model": model,
            "graph": f"{nodes}n/{edges}e/{ntypes}nt/{etypes}et",
            "dim": dim,
            "interp_us": round(times["python-interp"] * 1e6, 1),
            "codegen_us": round(times["python-codegen"] * 1e6, 1),
            "speedup": round(times["python-interp"] / times["python-codegen"], 2),
        })
    print()
    print(format_table(rows, title="Perf regression — python-codegen vs python-interp forward CPU time"))
    slower = [row for row in rows if row["codegen_us"] > row["interp_us"]]
    assert not slower, f"codegen forward slower than python-interp on: {slower}"


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
def test_occupancy_specialised_mixed_never_slower_than_codegen():
    """``mixed`` runs 4 straight-line blocks where ``python-codegen`` loops 300 relations.

    On the 300-relation / 4-occupied cell both pure backends loop every
    relation per edge-typed GEMM site; ``mixed`` emits the same source and
    re-specialises it at bind time to the occupied relations.  Three checks:
    bit-identity across the three backends (the saving must not come from
    different arithmetic), the structure of the specialised source, and
    forward CPU time never above ``python-codegen``'s (interleaved best-of-N
    ``time.thread_time``; absolute times are ``infer_ms.*`` in
    ``BENCH_<pr>.json``).
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
    outputs = {backend: module.forward(features) for backend, module in modules.items()}  # also warms
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

    del modules["python-interp"]
    times = _interleaved_forward_cpu_time(modules, features)
    print()
    print(format_table(
        [
            {
                "cell": "hgt 2nt×48n, 300et/4 occupied",
                "dim": dim,
                "codegen_us": round(times["python-codegen"] * 1e6, 1),
                "mixed_us": round(times["mixed"] * 1e6, 1),
                "speedup": round(times["python-codegen"] / times["mixed"], 2),
            }
        ],
        title="Perf regression — occupancy-specialised mixed vs python-codegen forward CPU time",
    ))
    assert times["mixed"] <= times["python-codegen"], (
        f"occupancy-specialised mixed slower than python-codegen: {times['mixed']*1e6:.1f}us vs "
        f"{times['python-codegen']*1e6:.1f}us"
    )


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
