"""The segment-sum scatter helper and the templates built on type-sorted edges.

Three layers: the helper against a plain ``np.add.at`` reference, its
sparse-product path against its bincount path bit for bit, its weighted form
(``weights[e] · rows[through[e]]``, summed without forming the product) against
the explicit product bit for bit, and the per-context incidence and column memos
and their threshold routing; the shape of the dgrad template (one
scatter per kernel, after its segment loop, under every policy); and whole
models on awkward schemas — relation counts on both
sides of the unroll limit, an empty relation, a single-edge relation,
destinations nobody points at — where interp, codegen and mixed must agree
bit for bit and match the eager reference to rounding.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.frontend import compile_model
from repro.frontend.compiler import compile_program
from repro.frontend.config import CONFIGURATIONS, CompilerOptions
from repro.graph import random_hetero_graph
from repro.graph.hetero_graph import HeteroGraph
from repro.ir.codegen import helpers
from repro.ir.codegen.builder import build_kernel
from repro.ir.codegen.helpers import _scatter_add
from repro.ir.codegen.passes import MAX_UNROLL_SEGMENTS, merge_adjacent, unroll_segments
from repro.ir.codegen.stmt import Scatter, SegmentBlock, SegmentLoop
from repro.models import MODEL_NAMES, REFERENCE_CLASSES, build_program
from repro.runtime.context import GraphContext
from repro.serving import Router
from repro.tensor import Tensor


# ----------------------------------------------------------------------
# the helper
# ----------------------------------------------------------------------
def _reference(target, idx, contrib, fresh):
    """What the helper must compute: float64 ``np.add.at``, rounded once to the target dtype."""
    wide = np.zeros(target.shape) if fresh else target.astype(np.float64)
    np.add.at(wide, idx, contrib.astype(np.float64))
    return wide.astype(target.dtype)


def _check(target, idx, contrib, fresh):
    expected = _reference(target, idx, contrib, fresh)
    _scatter_add(target, idx, contrib, fresh=fresh)
    assert target.dtype == expected.dtype
    tolerance = 1e-5 if target.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(target, expected, rtol=tolerance, atol=tolerance)


_INDEX_CASES = {
    "empty": lambda rng: np.zeros(0, dtype=np.int64),
    "one-row": lambda rng: np.array([4]),
    "all-to-one-destination": lambda rng: np.full(200, 7),
    "untouched-destinations": lambda rng: rng.integers(0, 20, 150) * 2,  # odd rows never hit
    "window-above-zero": lambda rng: rng.integers(25, 33, 150),
    "every-row": lambda rng: rng.permutation(np.repeat(np.arange(40), 3)),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("width", [None, 1, 4, 5, 64], ids=lambda w: "1d" if w is None else f"w{w}")
@pytest.mark.parametrize("case", list(_INDEX_CASES))
@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_helper_matches_add_at(fresh, case, width, dtype):
    rng = np.random.default_rng(3)
    idx = _INDEX_CASES[case](rng)
    tail = () if width is None else (width,)
    contrib = rng.standard_normal((len(idx), *tail)).astype(dtype)
    # A fresh target's prior contents are dead: fill it with something loud.
    target = np.full((40, *tail), np.nan, dtype) if fresh else rng.standard_normal((40, *tail)).astype(dtype)
    _check(target, idx, contrib, fresh)


@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_helper_takes_non_contiguous_contributions(fresh):
    rng = np.random.default_rng(4)
    idx = rng.integers(0, 30, 100)
    wide = rng.standard_normal((100, 12))
    for contrib in (wide[:, ::3], wide.T[:6].T, wide[::-1, 2:7]):
        assert not contrib.flags.c_contiguous
        _check(rng.standard_normal((30, contrib.shape[1])), idx, contrib, fresh)
    _check(rng.standard_normal(30), idx, wide[:, 5], fresh)


@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_helper_falls_back_for_broadcasting_and_extra_axes(fresh):
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 6, 50)
    # More than one feature axis (a weight-product adjoint scattering matrices).
    _check(rng.standard_normal((6, 3, 4)), idx, rng.standard_normal((50, 3, 4)), fresh)
    # A per-row scalar broadcast across the target's feature axis.
    _check(rng.standard_normal((6, 4)), idx, rng.standard_normal((50, 1)), fresh)
    _check(rng.standard_normal((6, 4)), idx, np.float64(2.5), fresh)


def test_helper_is_deterministic_across_fresh_and_zero_filled_accumulation():
    """``fresh`` onto garbage ≡ accumulating onto zeros, bit for bit (interp vs codegen sites)."""
    rng = np.random.default_rng(6)
    idx = rng.integers(3, 90, 4000)
    for dtype in (np.float64, np.float32):
        contrib = (rng.standard_normal((4000, 8)) * 1e-3).astype(dtype)
        contrib[::7] = -0.0
        fresh = np.full((100, 8), np.nan, dtype)
        zeros = np.zeros((100, 8), dtype)
        _scatter_add(fresh, idx, contrib, fresh=True)
        _scatter_add(zeros, idx, contrib)
        assert fresh.tobytes() == zeros.tobytes()


# ----------------------------------------------------------------------
# the sparse-product path: bit-identical to bincount, memoised per context
# ----------------------------------------------------------------------
class _IndexContext(SimpleNamespace):
    """Just what :meth:`GraphContext.incidence` reads: one index array and the row count."""

    incidence = GraphContext.incidence


def _scatter_through(path, monkeypatch, target, idx, contrib, fresh):
    monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", 0 if path == "sparse" else 1 << 62)
    out = target.copy()
    helpers._scatter_add(out, idx, contrib, fresh=fresh, ctx=_IndexContext(edge_dst=idx, num_nodes=len(out)),
                         attr="edge_dst")
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("width", [1, 4, 5, 64], ids=lambda w: f"w{w}")
@pytest.mark.parametrize("case", list(_INDEX_CASES))
@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_sparse_product_equals_bincount_bitwise(fresh, case, width, dtype, monkeypatch):
    """Same adds, same order, both from ``0.0`` in float64: the two paths agree to the bit."""
    rng = np.random.default_rng(7)
    idx = _INDEX_CASES[case](rng)
    contrib = rng.standard_normal((len(idx), width)).astype(dtype)
    contrib[::5] = -0.0
    target = np.full((40, width), np.nan, dtype) if fresh else rng.standard_normal((40, width)).astype(dtype)
    target[::7] = -0.0  # rows outside the hit window keep their sign
    dense, sparse = (_scatter_through(path, monkeypatch, target, idx, contrib, fresh) for path in ("dense", "sparse"))
    assert sparse.tobytes() == dense.tobytes()
    _check(target.copy(), idx, contrib, fresh)  # and both are the add.at sum


def _count_builds(monkeypatch) -> list:
    """Record the index array of every incidence build."""
    import repro.runtime.context as context

    builds = []
    build = context.build_csr_by_dst
    monkeypatch.setattr(context, "build_csr_by_dst", lambda *args: builds.append(args[0]) or build(*args))
    return builds


def test_full_graph_modules_share_one_incidence(monkeypatch):
    """Two modules bound to one graph read one ``incidence('edge_dst')``, built once."""
    graph = random_hetero_graph(num_nodes=60, num_edges=300, num_node_types=3, num_edge_types=6, seed=4)
    builds = _count_builds(monkeypatch)
    monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", 0)
    features = np.random.default_rng(0).standard_normal((graph.num_nodes, 4))
    options = CompilerOptions(backend="python-codegen", emit_backward=True, enable_compilation_cache=False)
    modules = [compile_model(model, graph, in_dim=4, out_dim=4, options=options) for model in ("rgcn", "rgat")]
    for module in modules:
        for _ in range(2):
            out = module.forward(features)[module.output_name]
            module.backward({module.output_name: np.ones_like(out)})
    ctx = modules[0].ctx
    assert modules[1].ctx is ctx
    matrix = ctx.incidence("edge_dst")
    assert matrix is modules[1].ctx.incidence("edge_dst") and not matrix.data.flags.writeable
    assert sum(index is ctx.edge_dst for index in builds) == 1
    assert len(builds) == len(ctx._incidence)  # every other index array once, too


def _count_column_builds(monkeypatch) -> list:
    """Record the ``(attr, through)`` of every weighted scatter's first column-memo read."""
    columns = []
    read = GraphContext.gathered_columns

    def counted(ctx, attr, through):
        if (attr, through) not in ctx.__dict__.get("_gathered_columns", {}):
            columns.append((attr, through))
        return read(ctx, attr, through)

    monkeypatch.setattr(GraphContext, "gathered_columns", counted)
    return columns


def test_sampled_blocks_below_the_threshold_build_no_incidence(monkeypatch):
    graph = random_hetero_graph(num_nodes=1000, num_edges=4500, num_node_types=2, num_edge_types=3, seed=2)
    dim = 32
    assert graph.num_edges * dim >= helpers.SPMM_MIN_CONTRIBUTIONS  # the full graph takes the product
    builds, columns = _count_builds(monkeypatch), _count_column_builds(monkeypatch)
    router = Router()
    router.register("served", "rgat", graph, in_dim=dim, out_dim=dim, options=CompilerOptions(emit_backward=False),
                    fanouts=(8,), max_batch_size=4, sampler_seed=1, seed=3)
    for seeds in np.random.default_rng(1).integers(0, graph.num_nodes, (12, 4)):
        assert np.isfinite(router.query("served", seeds)).all()
    assert builds == [] and columns == []
    module = compile_model("rgat", graph, in_dim=dim, out_dim=dim)
    module.forward(np.ones((graph.num_nodes, dim)))
    assert len(builds) == 1 and builds[0] is module.ctx.edge_dst


def test_concurrent_first_incidence_calls_agree(small_graph, monkeypatch):
    """A race on the first build is benign: equal matrices, correct scatters."""
    ctx = GraphContext.from_graph(small_graph)
    rng = np.random.default_rng(9)
    contrib = rng.standard_normal((ctx.num_edges, 16))
    expected = np.zeros((ctx.num_nodes, 16))
    np.add.at(expected, ctx.edge_dst, contrib)
    monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", 0)
    barrier = threading.Barrier(4)

    def scatter(_):
        barrier.wait(timeout=30)
        target = np.empty((ctx.num_nodes, 16))
        helpers._scatter_add(target, ctx.edge_dst, contrib, fresh=True, ctx=ctx, attr="edge_dst")
        return ctx.incidence("edge_dst"), target

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(scatter, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for matrix, target in results:
        np.testing.assert_allclose(target, expected, rtol=1e-12, atol=1e-12)
        assert target.tobytes() == results[0][1].tobytes()
        assert (matrix != results[0][0]).nnz == 0


# ----------------------------------------------------------------------
# the weighted scatter: weights[e] · rows[through[e]] without forming the product
# ----------------------------------------------------------------------
def _weighted_case(attr, through, dtype=np.float64, width=8):
    """A full-graph context, an aligned target for ``attr``, rows for ``through`` and per-edge weights."""
    graph = random_hetero_graph(num_nodes=60, num_edges=400, num_node_types=3, num_edge_types=5, seed=8)
    ctx = GraphContext.from_graph(graph)
    rng = np.random.default_rng(10)
    count = len(getattr(ctx, attr))
    num_rows = {None: count, "edge_type": ctx.num_etypes, "unique_etype": ctx.num_etypes}
    num_rows["edge_to_unique"] = ctx.num_unique
    rows = rng.standard_normal((num_rows.get(through, ctx.num_nodes), width)).astype(dtype)
    rows[::4] = -0.0
    weights = rng.standard_normal(count).astype(dtype)
    weights[::7] = 0.0
    targets = ctx.num_unique if attr == "edge_to_unique" else ctx.num_nodes
    return ctx, rng.standard_normal((targets, width)).astype(dtype), rows, weights


_WEIGHTED_CASES = [
    ("edge_dst", None),
    ("edge_dst", "edge_to_unique"),
    ("edge_to_unique", "edge_dst"),
    ("edge_dst", "edge_type"),
    ("unique_src", "unique_etype"),
]


def _weighted(ctx, attr, target, rows, through, weights, fresh, fused):
    out = target.copy()
    idx = getattr(ctx, attr)
    if fused:
        helpers._scatter_add(out, idx, rows, fresh=fresh, ctx=ctx, attr=attr, through=through, weights=weights)
    else:  # what the unfused statement prints
        gathered = rows if through is None else rows[getattr(ctx, through)]
        helpers._scatter_add(out, idx, gathered * weights[:, None], fresh=fresh, ctx=ctx, attr=attr)
    return out


@pytest.mark.parametrize("attr, through", _WEIGHTED_CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_weighted_scatter_equals_the_explicit_product_bitwise(attr, through, fresh, monkeypatch):
    """``fl(w · x)`` added in index order from ``0.0`` on both sides of the threshold, fused or not."""
    ctx, target, rows, weights = _weighted_case(attr, through)
    results = []
    for threshold in (0, 1 << 62):
        monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", threshold)
        results += [_weighted(ctx, attr, target, rows, through, weights, fresh, fused) for fused in (True, False)]
    assert len({result.tobytes() for result in results}) == 1
    expected = np.zeros_like(target) if fresh else target.copy()
    gathered = rows if through is None else rows[getattr(ctx, through)]
    np.add.at(expected, getattr(ctx, attr), gathered * weights[:, None])
    np.testing.assert_allclose(results[0], expected, rtol=1e-12, atol=1e-12)
    memo = ctx.__dict__.get("_gathered_columns", {})
    assert list(memo) == ([] if through is None else [(attr, through)])
    assert not any(columns.flags.writeable for columns in memo.values())


@pytest.mark.parametrize("fresh", [False, True], ids=["accumulate", "fresh"])
def test_float32_weighted_scatter_keeps_the_formed_product(fresh, monkeypatch):
    """``fl32(x · w)`` is not the exact product the fused sum would add: float32 forms it, as unfused code does."""
    ctx, target, rows, weights = _weighted_case("edge_dst", "edge_src", np.float32)
    for threshold in (0, 1 << 62):
        monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", threshold)
        fused, formed = (_weighted(ctx, "edge_dst", target, rows, "edge_src", weights, fresh, f)
                         for f in (True, False))
        assert fused.dtype == np.float32 and fused.tobytes() == formed.tobytes()
    assert "_gathered_columns" not in ctx.__dict__


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_full_graph_modules_agree_across_the_threshold(model, monkeypatch):
    """A C+R module's weighted scatters (and every other) give the same bits fused-sparse as bincount."""
    graph = random_hetero_graph(num_nodes=80, num_edges=500, num_node_types=3, num_edge_types=4, seed=6)
    options = CONFIGURATIONS["C+R"].with_(backend="python-codegen", emit_backward=True, enable_compilation_cache=False)
    module = compile_model(model, graph, in_dim=8, out_dim=8, options=options, seed=2)
    features = np.random.default_rng(3).standard_normal((graph.num_nodes, 8))
    runs = []
    for threshold in (1 << 62, 0):
        monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", threshold)
        out = module.forward(features)[module.output_name].copy()
        grads = module.backward({module.output_name: np.cos(out)})
        runs.append([out, *(grads[name].copy() for name in sorted(grads))])
    assert "_gathered_columns" in module.ctx.__dict__ or model == "rgcn"
    assert [array.tobytes() for array in runs[0]] == [array.tobytes() for array in runs[1]]


def test_concurrent_first_column_reads_agree(small_graph, monkeypatch):
    """A race on the first column-memo build is benign, as for the incidence: equal arrays, equal sums."""
    ctx = GraphContext.from_graph(small_graph)
    rng = np.random.default_rng(12)
    rows, weights = rng.standard_normal((ctx.num_nodes, 16)), rng.standard_normal(ctx.num_edges)
    monkeypatch.setattr(helpers, "SPMM_MIN_CONTRIBUTIONS", 0)
    barrier = threading.Barrier(4)

    def scatter(_):
        barrier.wait(timeout=30)
        target = np.empty((ctx.num_nodes, 16))
        helpers._scatter_add(target, ctx.edge_dst, rows, fresh=True, ctx=ctx, attr="edge_dst", through="edge_src",
                             weights=weights)
        return ctx.gathered_columns("edge_dst", "edge_src"), target

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(scatter, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    expected = np.zeros((ctx.num_nodes, 16))
    np.add.at(expected, ctx.edge_dst, rows[ctx.edge_src] * weights[:, None])
    for columns, target in results:
        np.testing.assert_allclose(target, expected, rtol=1e-12, atol=1e-12)
        assert target.tobytes() == results[0][1].tobytes() and np.array_equal(columns, results[0][0])


# ----------------------------------------------------------------------
# one scatter per dgrad kernel
# ----------------------------------------------------------------------
def _scatter_sites(stmts, under_loop=False):
    for stmt in stmts:
        if isinstance(stmt, Scatter):
            yield under_loop
        elif isinstance(stmt, (SegmentLoop, SegmentBlock)):
            yield from _scatter_sites(stmt.body, True)


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("compact", [False, True], ids=["U", "C+R"])
def test_dgrad_scatters_once_after_its_segment_loop(model, compact):
    options = CompilerOptions(compact_materialization=compact, linear_operator_reordering=compact)
    plan = compile_program(build_program(model, in_dim=4, out_dim=4), options).plan
    bodies = [build_kernel(kernel) for kernel in plan.backward_kernels]
    pairs = [body for body in merge_adjacent(bodies) if len(body.kernels) == 2]
    assert pairs, "every model has at least one typed GEMM adjoint pair"
    gathered = 0
    for merged in pairs:
        dgrad = next(body for body in bodies if body.kernels[0] is merged.kernels[0])
        # per-kernel policy (no passes), merged runtime loop, merged unrolled blocks
        unrolled = unroll_segments(merged.stmts, {"num_etypes": (3, None), "num_ntypes": (2, None)})
        assert not any(isinstance(stmt, SegmentLoop) for stmt in unrolled)
        sites = [list(_scatter_sites(stmts)) for stmts in (dgrad.stmts, merged.stmts, unrolled)]
        assert sites[0] == sites[1] == sites[2] and sites[0] in ([], [False])
        if sites[0]:
            gathered += 1
            assert isinstance(merged.stmts[-1], Scatter) and isinstance(merged.stmts[-2], SegmentLoop)
    assert gathered, "every model has a dgrad through a gather list"


# ----------------------------------------------------------------------
# whole models on awkward schemas, through every backend
# ----------------------------------------------------------------------
def _awkward_graph(num_relations: int) -> HeteroGraph:
    """``num_relations`` relations over three node types.

    The second relation (the only one, when there is just one, stays
    populated) is empty, the last holds a single edge, and destinations are
    drawn from the lower half of each type, so the upper half has in-degree 0.
    """
    rng = np.random.default_rng(num_relations)
    nodes = {"a": 14, "b": 10, "c": 12}
    names = list(nodes)
    edges = {}
    for r in range(num_relations):
        src_type, dst_type = names[r % 3], names[(r + 1 + r // 3) % 3]
        count = int(rng.integers(5, 28))
        if num_relations > 1 and r == 1:
            count = 0
        elif num_relations > 1 and r == num_relations - 1:
            count = 1
        edges[(src_type, f"rel{r}", dst_type)] = (
            rng.integers(0, nodes[src_type], count),
            rng.integers(0, nodes[dst_type] // 2, count),
        )
    return HeteroGraph(nodes, edges, name=f"awkward-{num_relations}")


_BACKENDS = ("python-interp", "python-codegen", "mixed")
assert MAX_UNROLL_SEGMENTS == 32, "the relation counts below must straddle the unroll limit"


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("num_relations", [1, 31, 32, 33, 48])
def test_backends_agree_bitwise_and_match_reference(model, num_relations, tmp_path, monkeypatch, dim=6):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen"))
    graph = _awkward_graph(num_relations)
    assert (graph.in_degrees() == 0).any()
    assert num_relations == 1 or {0, 1} <= set(graph.relation_edge_counts().tolist())
    rng = np.random.default_rng(11)
    features = rng.standard_normal((graph.num_nodes, dim))

    runs = {}
    for backend in _BACKENDS:
        options = CompilerOptions(backend=backend, emit_backward=True, enable_compilation_cache=False)
        module = compile_model(model, graph, in_dim=dim, out_dim=dim, options=options, seed=5)
        out = module.forward(features)
        key = next(iter(out))
        upstream = np.random.default_rng(12).standard_normal(out[key].shape)
        grads = module.backward({key: upstream})
        runs[backend] = (out[key].copy(), grads, dict(module.default_binding.input_gradients()))
    out, grads, input_grads = runs["python-interp"]
    for backend in _BACKENDS[1:]:
        other_out, other_grads, other_inputs = runs[backend]
        assert other_out.tobytes() == out.tobytes(), f"{backend}: forward"
        assert set(other_grads) == set(grads) and set(other_inputs) == set(input_grads)
        for name in grads:
            assert other_grads[name].tobytes() == grads[name].tobytes(), f"{backend}: gradient of {name}"
        for name in input_grads:
            assert other_inputs[name].tobytes() == input_grads[name].tobytes(), f"{backend}: input gradient {name}"

    reference = REFERENCE_CLASSES[model](graph, dim, dim, seed=5)
    reference.load_parameters({name: p.data for name, p in module.parameters_by_name.items()})
    x = Tensor(features, requires_grad=True)
    ref_out = reference.forward(x)[key]
    ref_out.backward(upstream)
    np.testing.assert_allclose(out, ref_out.data, atol=1e-8)
    for name, parameter in reference.named_parameter_dict().items():
        np.testing.assert_allclose(grads[name], parameter.grad, atol=1e-7, err_msg=name)
    (input_grad,) = input_grads.values()
    np.testing.assert_allclose(input_grad, x.grad, atol=1e-7)


# ----------------------------------------------------------------------
# the layout assumption is an explicit failure
# ----------------------------------------------------------------------
def test_context_rejects_edges_not_grouped_by_relation(tiny_graph):
    import copy

    shuffled = copy.copy(tiny_graph)
    shuffled.edge_type = tiny_graph.edge_type.copy()
    shuffled.edge_type[[2, 5]] = shuffled.edge_type[[5, 2]]  # a 'cites' edge among the 'writes' edges
    with pytest.raises(ValueError, match=r"grouped by relation.*edge 3 has type 0 after type 1"):
        GraphContext.from_graph(shuffled)
    GraphContext.from_graph(tiny_graph)  # the constructor's own order passes
