"""The statement IR under the executing backends: passes, printer, naming.

Pass-level tests run on small hand-built bodies; the name-collision test
drives a whole program whose values are named after the emitter's own locals
through all three backends.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.frontend.compiler import compile_program
from repro.frontend.config import CompilerOptions
from repro.graph.generators import random_hetero_graph
from repro.ir.codegen import artifact_cache
from repro.ir.codegen.builder import build_kernel
from repro.ir.codegen.passes import (
    MAX_UNROLL_SEGMENTS,
    fuse_ensure_grads,
    merge_adjacent,
    specialise_fresh_scatters,
    unroll_segments,
)
from repro.ir.codegen.printer import print_function
from repro.ir.codegen.stmt import (
    Assign,
    Buf,
    Ctx,
    Ensure,
    EnsureGrad,
    Local,
    Scatter,
    SegmentBlock,
    SegmentLoop,
    SegVar,
    Store,
    Update,
    rewrite,
)
from repro.ir.inter_op.builder import ProgramBuilder
from repro.models import build_program
from repro.runtime.module import CompiledRGNNModule


def _scatters(stmts):
    for stmt in stmts:
        if isinstance(stmt, Scatter):
            yield stmt
        elif isinstance(stmt, (SegmentLoop, SegmentBlock)):
            yield from _scatters(stmt.body)


def _grad_scatter(buf="grad_h"):
    return Scatter(Local("grad_X", buf), (Ctx("edge_src"),), ("contrib",))


class TestFreshScatters:
    def test_never_fresh_under_a_runtime_loop(self):
        body = [SegmentLoop("num_etypes", (_grad_scatter(),)), Scatter(Buf("grad_h"), ("src",), ("_g",))]
        out = specialise_fresh_scatters(body, outputs=())
        # The loop re-touches its target every iteration, and leaves it touched.
        assert [s.fresh for s in _scatters(out)] == [False, False]

    def test_fresh_once_across_unrolled_copies(self):
        unrolled = unroll_segments(
            [SegmentLoop("num_etypes", (_grad_scatter(),))], {"num_etypes": (3, None)}
        )
        out = specialise_fresh_scatters(unrolled, outputs=())
        assert [s.fresh for s in _scatters(out)] == [True, False, False]

    def test_output_gradients_stay_accumulating(self):
        body = [_grad_scatter("grad_h"), _grad_scatter("grad_out")]
        out = specialise_fresh_scatters(body, outputs=("out",))
        assert [s.fresh for s in _scatters(out)] == [True, False]

    def test_dense_update_touches_the_buffer(self):
        body = [Update(Buf("grad_h"), None, ("_g",)), _grad_scatter()]
        assert [s.fresh for s in _scatters(specialise_fresh_scatters(body, ()))] == [False]

    def test_fresh_scatter_drops_the_dead_zero_fill(self):
        target = Local("Y", "out")
        shape = ((Ctx("num_nodes"),),)
        body = [Ensure(target, "out", shape), Scatter(target, ("dst",), ("_contrib",))]
        ensure, scatter = specialise_fresh_scatters(body, outputs=("out",))
        assert scatter.fresh and not ensure.zero
        # A write in between makes the buffer non-zero: the fill stays.
        touched = [body[0], Update(target, ("rows",), ("v",), "="), body[1]]
        ensure, _, scatter = specialise_fresh_scatters(touched, outputs=("out",))
        assert ensure.zero and not scatter.fresh


class TestUnroll:
    BODY = (Assign("W_t", (Buf("t"), "[", SegVar(), "]")), Update(Local("grad_W", "grad_t"), (SegVar(),), ("t2",)))

    def test_substitutes_only_the_segment_variable(self):
        blocks = unroll_segments([SegmentLoop("num_etypes", self.BODY)], {"num_etypes": (2, None)})
        assert [b.index for b in blocks] == [0, 1]
        # The buffer named ``t`` and the text ``t2`` survive; only SegVar became a literal.
        assert blocks[1].body == (
            Assign("W_t", (Buf("t"), "[", "1", "]")),
            Update(Local("grad_W", "grad_t"), ("1",), ("t2",)),
        )

    def test_masked_out_segments_emit_nothing(self):
        mask = (False, True) + (False,) * 38
        blocks = unroll_segments([SegmentLoop("num_etypes", self.BODY)], {"num_etypes": (40, mask)})
        assert [b.index for b in blocks] == [1]

    def test_unknown_or_large_counts_keep_the_runtime_loop(self):
        loop = SegmentLoop("num_etypes", self.BODY)
        for count in (None, 0, MAX_UNROLL_SEGMENTS + 1):
            assert unroll_segments([loop], {"num_etypes": (count, None)}) == (loop,)
        assert unroll_segments([loop], {"num_ntypes": (2, None)}) == (loop,)


class TestMergeAndFuse:
    def test_merged_forward_group_keeps_each_outputs_statement_order(self):
        plan = compile_program(build_program("hgt", in_dim=4, out_dim=4), CompilerOptions(emit_backward=False)).plan
        bodies = [build_kernel(kernel) for kernel in plan.forward_kernels]
        merged = next(body for body in merge_adjacent(bodies) if len(body.kernels) > 1)
        loop = merged.stmts[-1]
        gathers = [s for s in loop.body if isinstance(s, Assign) and s.target in ("rows", "Xg")]
        assert [s.target for s in gathers] == ["rows", "Xg"], "one shared gather per segment"
        expected = []
        for position, kernel in enumerate(merged.kernels):
            name = "Y" if position == 0 else f"Y{position + 1}"
            own = rewrite(
                build_kernel(kernel).stmts[-1].body,
                lambda ref: Local(name, ref.buf) if isinstance(ref, Local) else ref,
            )
            expected += [s for s in own if s not in gathers]
        # Each output's own statements, in their original order, one output after another.
        assert [s for s in loop.body if s not in gathers] == expected
        ensures = [s for s in merged.stmts if isinstance(s, Ensure)]
        assert [(s.local.name, s.buf) for s in ensures] == [
            ("Y" if i == 0 else f"Y{i + 1}", kernel.y.buffer) for i, kernel in enumerate(merged.kernels)
        ]

    def test_dense_accumulate_fuses_and_fresh_scatter_skips_the_seed(self):
        dense = [EnsureGrad("h"), Update(Buf("grad_h"), None, ("_g",))]
        assert fuse_ensure_grads(dense) == [EnsureGrad("h", accumulate=("_g",))]
        scatter = Scatter(Buf("grad_h"), ("src",), ("_g",), fresh=True)
        assert fuse_ensure_grads([EnsureGrad("h"), scatter]) == [EnsureGrad("h", zero=False), scatter]
        # An indexed update, another buffer's update, or a gap leaves the ensure alone.
        for follower in (Update(Buf("grad_h"), ("rows",), ("_g",)), Update(Buf("grad_w"), None, ("_g",))):
            assert fuse_ensure_grads([EnsureGrad("h"), follower]) == [EnsureGrad("h"), follower]


class TestPrinter:
    def test_header_binds_exactly_the_buffers_read_before_written(self):
        stmts = [
            Store("a", (Buf("x"), " + ", Buf("w"))),
            Assign("_t", (Buf("a"), " * ", Buf("x"))),
            Update(Buf("grad_a"), None, ("_t",)),
            EnsureGrad("w"),
            Update(Buf("grad_w"), ("rows",), (Buf("grad_a"),)),
        ]
        source = print_function("f", "doc", stmts, whole_plan=True, lazy_gradients=True)
        header = source.split("    _b_a = env['a'] = ")[0].splitlines()[2:]
        assert header == [
            "    _b_x = env['x']",
            "    _b_w = env['w']",
            "    _b_grad_a = env.get('grad_a')",
            "    if _b_grad_a is None:",
            "        _b_grad_a = env['grad_a'] = np.zeros_like(env['a'])",
        ]

    def test_policies_print_the_same_statements_under_different_names(self):
        stmts = [Assign("Xg", (Buf("Y"), "[", Ctx("edge_src"), "[rows]]")), Store("t", ("Xg",))]
        assert print_function("k", "d", stmts).splitlines()[2:] == [
            "    Xg = env['Y'][ctx.edge_src[rows]]",
            "    env['t'] = Xg",
        ]
        assert print_function("k", "d", stmts, whole_plan=True).splitlines()[2:] == [
            "    _c_edge_src = ctx.edge_src",
            "    _b_Y = env['Y']",
            "    Xg = _b_Y[_c_edge_src[rows]]",
            "    _b_t = env['t'] = Xg",
            "    return env",
        ]


# ----------------------------------------------------------------------
# user value names vs emitter locals
# ----------------------------------------------------------------------
def _colliding_program(dim):
    """Every value is named after a local the emitters use themselves."""
    g = ProgramBuilder("collide", in_dim=dim, out_dim=dim)
    g.input_node_feature("Xg", dim)
    g.weight("W_t", (dim, dim))
    g.weight("seg_ptr", (dim, dim))
    g.weight("contrib", (dim,))
    g.typed_linear("Xg", "seg_ptr", "rows")  # two typed projections of one input:
    g.typed_linear("Xg", "W_t", "Y")  # the merged forward loop binds Y2 for the second
    g.typed_vec_dot("Y", "contrib", "t")
    g.unary("leaky_relu", "t", "start", negative_slope=0.2)
    g.unary("exp", "start", "end")
    g.scale("rows", "end", "gY")
    g.binary("add", "gY", "Y", "_g")
    # (``grad_X`` cannot be a value: plan validation reserves the ``grad_`` prefix.)
    g.mark_output(g.aggregate("_g", "dst"))
    return g.finish()


@pytest.mark.parametrize("with_graph", [False, True], ids=["no-graph", "graph"])
def test_values_named_after_emitter_locals(with_graph, dim=4):
    graph = random_hetero_graph(30, 120, 2, 5, seed=4)
    program = _colliding_program(dim)
    features = np.random.default_rng(0).standard_normal((graph.num_nodes, dim))
    runs = {}
    for backend in ("python-interp", "python-codegen", "mixed"):
        options = CompilerOptions(backend=backend, enable_compilation_cache=False)
        result = compile_program(program, options, graph=graph if with_graph else None)
        module = CompiledRGNNModule(result.plan, result.generated, graph, seed=1)
        out = module.forward(features)["dst"]
        forward_env = {name: value.copy() for name, value in module.default_binding._last_env.items()}
        grads = module.backward({"dst": np.ones_like(out)})
        runs[backend] = (forward_env, grads, dict(module.default_binding._last_env))
    ref_forward, ref_grads, ref_env = runs["python-interp"]
    for backend in ("python-codegen", "mixed"):
        forward_env, grads, env = runs[backend]
        assert set(forward_env) == set(ref_forward), f"{backend}: forward env keys"
        for name, value in ref_forward.items():
            assert forward_env[name].tobytes() == value.tobytes(), f"{backend}: env[{name!r}] after forward"
        assert set(grads) == set(ref_grads) == {"W_t", "seg_ptr", "contrib"}
        for name, grad in ref_grads.items():
            assert grads[name].tobytes() == grad.tobytes(), f"{backend}: gradient of {name!r}"
        # Lazy seeding may skip gradients nothing reads, but never adds a key.
        assert set(env) <= set(ref_env), f"{backend}: stray env keys {set(env) - set(ref_env)}"
        for name, value in env.items():
            assert value.tobytes() == ref_env[name].tobytes(), f"{backend}: env[{name!r}] after backward"


# ----------------------------------------------------------------------
# artifact-cache fingerprint
# ----------------------------------------------------------------------
def test_emitter_fingerprint_covers_every_module_the_generators_import():
    import repro.ir.codegen  # noqa: F401  (imports every generator)

    fingerprinted = set(artifact_cache.emitter_module_paths())
    imported = {
        Path(module.__file__)
        for name, module in sys.modules.items()
        if name.startswith("repro.ir.codegen.")
    }
    assert imported and imported <= fingerprinted
    assert list(artifact_cache.emitter_module_paths()) == sorted(fingerprinted)
