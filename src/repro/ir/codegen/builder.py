"""Builder: the GEMM, traversal and fallback templates as statement IR.

One :class:`~repro.ir.codegen.stmt.KernelBody` per kernel instance.  The numpy
operations a body performs — and their order — are what every executing
backend runs, so the backends are numerically identical by construction.  The
builder only reads the plan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.inter_op.space import Space
from repro.ir.intra_op.access import GatherKind
from repro.ir.intra_op.kernels import FallbackKernel, GemmKernel, KernelInstance, MicroOp, TraversalKernel

from repro.ir.codegen.stmt import (
    Assign,
    Buf,
    Ctx,
    Ensure,
    EnsureGrad,
    Expr,
    KernelBody,
    Local,
    Raw,
    Scatter,
    SegmentLoop,
    SegVar,
    Stmt,
    Store,
    Update,
    expr,
)

_NTYPE_SELECTORS = ("ntype", "src_ntype", "dst_ntype")
#: Graph index array a gather kind reads through (absent → the rows themselves).
_GATHER_INDEX = {
    GatherKind.EDGE_SRC: "edge_src",
    GatherKind.EDGE_DST: "edge_dst",
    GatherKind.UNIQUE_SRC: "unique_src",
    GatherKind.EDGE_TO_COMPACT: "edge_to_unique",
}
_SPACE_ROWS = {Space.EDGE: "num_edges", Space.COMPACT: "num_unique", Space.NODE: "num_nodes"}


def build_kernel(kernel: KernelInstance) -> KernelBody:
    """Instantiate ``kernel``'s template."""
    if isinstance(kernel, GemmKernel):
        stmts = _gemm(kernel)
    elif isinstance(kernel, TraversalKernel):
        stmts = _traversal(kernel)
    elif isinstance(kernel, FallbackKernel):
        stmts = _fallback(kernel)
    else:
        raise TypeError(f"unknown kernel type: {type(kernel)!r}")
    return KernelBody(kernel.name, kernel.describe(), tuple(stmts), (kernel,))


# ======================================================================
# GEMM template
# ======================================================================
def _segment_axis(kernel: GemmKernel) -> Tuple[Optional[str], Optional[str]]:
    """``(segment pointer, segment count)`` context attributes of the launch loop, if it has one."""
    if kernel.m_space is Space.EDGE:
        return "etype_ptr", "num_etypes"
    if kernel.m_space is Space.COMPACT:
        return "unique_etype_ptr", "num_etypes"
    if kernel.m_space is Space.NODE and kernel.type_selector in _NTYPE_SELECTORS:
        return "ntype_ptr", "num_ntypes"
    return None, None


def _segment_header(ptr: str, count: str) -> List[Stmt]:
    return [Assign("seg_ptr", (Ctx(ptr, as_list=True),)), Assign("num_segments", (Ctx(count),))]


def _gemm(kernel: GemmKernel) -> List[Stmt]:
    ptr, count = _segment_axis(kernel)
    if ptr is None:
        stmts = [Assign("seg_ptr", ("None",)), Assign("num_segments", ("1",))]
    else:
        stmts = _segment_header(ptr, count)
    template = {"forward": _gemm_forward, "dgrad": _gemm_dgrad, "wgrad": _gemm_wgrad}.get(kernel.role)
    if template is None:
        raise ValueError(f"unknown GEMM role {kernel.role!r}")
    pre, dense, typed = template(kernel)
    return stmts + pre + ([dense] if kernel.type_selector == "none" else typed)


def _segment_loop(kernel: GemmKernel, body: List[Stmt]) -> SegmentLoop:
    return SegmentLoop(_segment_axis(kernel)[1], tuple(body))


def _weight_index(kernel: GemmKernel) -> Expr:
    """Expression selecting the weight slice of the current segment."""
    if kernel.type_selector in ("etype", "ntype"):
        return (SegVar(),)
    if kernel.type_selector in ("src_ntype", "dst_ntype"):
        return (Ctx(f"etype_to_{kernel.type_selector}"), "[", SegVar(), "]")
    return ("None",)


#: Rows of the current segment: edges are stored by relation (``GraphContext.from_graph``
#: rejects any other order), unique pairs and nodes by type, so indexing through it is a view.
_ROWS = Assign("rows", ("slice(start, end)",))


def _gather_index(gather: GatherKind) -> Expr:
    attr = _GATHER_INDEX.get(gather)
    return ("rows",) if attr is None else (Ctx(attr), "[rows]")


def _rows_and_gather(kernel: GemmKernel) -> List[Stmt]:
    """Per-segment row indexes and the gather of X through its access scheme."""
    index = _gather_index(kernel.x.access.gather)
    return [_ROWS, Assign("Xg", expr(Buf(kernel.x.buffer), "[", index, "]"))]


def _grad_base(buffer: str) -> str:
    return buffer[len("grad_"):] if buffer.startswith("grad_") else buffer


def _gemm_forward(kernel: GemmKernel):
    out = Local("Y", kernel.y.buffer)
    shape = ((Ctx(_SPACE_ROWS.get(kernel.m_space, "num_nodes")),), (str(kernel.n_dim),))
    # Every row of Y is assigned below before anything reads it: no zero fill needed.
    pre = [Ensure(out, kernel.y.buffer, shape, zero=False)]
    dense = Update(out, (":",), (Buf(kernel.x.buffer), " @ ", Buf(kernel.weight.buffer)), "=")
    segment = _rows_and_gather(kernel) + [
        Assign("W_t", expr(Buf(kernel.weight.buffer), "[", _weight_index(kernel), "]")),
        Update(out, ("rows",), ("Xg @ W_t",), "="),
    ]
    return pre, dense, [_segment_loop(kernel, segment)]


def _gemm_dgrad(kernel: GemmKernel):
    """``dX[G] += dY[S] × Wᵀ[T]`` — gradient w.r.t. the gathered input rows.

    For a dgrad kernel ``x`` holds grad_Y (access = forward Y scatter) and
    ``y`` holds grad_X (access = forward X gather).  Under a gather every
    segment writes its rows of one M-space buffer and one scatter-add through
    the gather list follows the loop: one kernel for all relations.
    """
    grad_y, weight = Buf(kernel.x.buffer), Buf(kernel.weight.buffer)
    grad_x = Local("grad_X", kernel.y.buffer)
    pre = [EnsureGrad(_grad_base(kernel.y.buffer)), Assign("grad_X", (Buf(kernel.y.buffer),))]
    dense = Update(grad_x, None, (grad_y, " @ ", weight, ".T"))
    segment = [
        _ROWS,
        Assign("gY", (grad_y, "[rows]")),
        Assign("W_t", expr(weight, "[", _weight_index(kernel), "]")),
    ]
    attr = _GATHER_INDEX.get(kernel.y.access.gather)
    if attr is None:
        segment.append(Update(grad_x, ("rows",), ("gY @ W_t.T",)))
        return pre, dense, [_segment_loop(kernel, segment)]
    shape = ("(", Ctx(_SPACE_ROWS[kernel.m_space]), f", {kernel.n_dim})")
    segment.append(Update(Local("contrib"), ("rows",), ("gY @ W_t.T",), "="))
    return pre, dense, [
        Assign("contrib", expr("np.empty(", shape, ", dtype=", grad_y, ".dtype)")),
        _segment_loop(kernel, segment),
        Scatter(grad_x, (Ctx(attr, incidence=True),), ("contrib",)),
    ]


def _gemm_wgrad(kernel: GemmKernel):
    """``dW[T] += Xᵀ[G] × dY[S]`` — the per-type outer-product kernel."""
    grad_y = Buf(kernel.weight.buffer)  # holds the gradient of the forward output
    grad_w = Local("grad_W", kernel.y.buffer)
    pre = [EnsureGrad(_grad_base(kernel.y.buffer)), Assign("grad_W", (Buf(kernel.y.buffer),))]
    dense = Update(grad_w, None, (Buf(kernel.x.buffer), ".T @ ", grad_y))
    segment = _rows_and_gather(kernel) + [
        Assign("gY", (grad_y, "[rows]")),
        Update(grad_w, _weight_index(kernel), ("Xg.T @ gY",)),
    ]
    return pre, dense, [_segment_loop(kernel, segment)]


# ======================================================================
# Traversal template
# ======================================================================
def _traversal(kernel: TraversalKernel) -> List[Stmt]:
    if kernel.domain is Space.EDGE:
        rows, index = "num_edges", (Ctx("edge_src"), ", ", Ctx("edge_dst"), ", ", Ctx("edge_type"))
    elif kernel.domain is Space.COMPACT:
        rows, index = "num_unique", (Ctx("unique_src"), ", None, ", Ctx("unique_etype"))
    else:
        rows, index = "num_nodes", ("None, None, ", Ctx("node_type_ids"))
    stmts: List[Stmt] = [Assign("n_rows", (Ctx(rows),)), Assign("src, dst, typ", index)]
    if kernel.direction == "forward":
        for op in kernel.micro_ops:
            stmts += _forward_micro_op(kernel, op)
    else:
        for op in reversed(kernel.micro_ops):
            stmts += _backward_micro_op(kernel, op)
    return stmts


def _access(op: MicroOp, position: int) -> str:
    """How the micro-op reads its ``position``-th operand."""
    if op.kind == "typed_vec_dot" and position == 1:
        return "weight"
    return op.attrs.get("access", {}).get(op.inputs[position], "direct")


def _access_index(op: MicroOp, access: str) -> Optional[Expr]:
    """Row index an access scheme gathers (forward) or scatters (adjoint) through."""
    if access in ("src", "dst"):
        return (access,)
    if access == "compact":
        return (Ctx("edge_to_unique", incidence=True),)
    if access == "weight":
        selector = op.attrs.get("type_selector", "etype")
        if selector in ("src_ntype", "dst_ntype"):
            return (Ctx("node_type_ids"), "[", selector[:3], "]")
        return ("typ",)
    return None


def _scatter_index(kernel: TraversalKernel, index: Expr) -> Expr:
    """``index`` with a local resolved to the context array :func:`_traversal` bound it to, so the helper can sum
    through its incidence matrix (``typ`` never scatters: its adjoint is per relation); a computed index stays."""
    bound = {Space.EDGE: {"src": "edge_src", "dst": "edge_dst", "typ": "edge_type"},
             Space.COMPACT: {"src": "unique_src", "typ": "unique_etype"}}
    attr = bound.get(kernel.domain, {}).get(index[0]) if len(index) == 1 else None
    return index if attr is None else (Ctx(attr, incidence=True),)


def _weighted_scatter(kernel, target, index: Expr, rows: Expr, gather, weights: Expr, scale: str):
    """``weights[e] · rows[gather[e]]`` summed into ``target[index]`` as one weighted :class:`Scatter`, if
    ``index`` is an incidence array, ``gather`` direct or a context array and ``scale`` a per-row scalar."""
    index, through = _scatter_index(kernel, index)[0], gather and _scatter_index(kernel, gather)[0]
    info = kernel.buffer_infos.get(scale)
    sums = getattr(index, "incidence", False) and getattr(through, "incidence", gather is None)
    if sums and info is not None and info.feature_shape == ():
        return Scatter(target, (index,), rows, through=through and Ctx(through.attr), weights=weights)


def _gathered(op: MicroOp, position: int) -> Tuple[Expr, Optional[Expr]]:
    """The ``position``-th operand: its buffer and the index it is read through."""
    return (Buf(op.inputs[position]),), _access_index(op, _access(op, position))


def _operand(op: MicroOp, position: int) -> Expr:
    (buffer,), index = _gathered(op, position)
    return (buffer,) if index is None else expr(buffer, "[", index, "]")


def _output_shape(kernel: TraversalKernel, op: MicroOp) -> Tuple[Expr, ...]:
    info = kernel.buffer_infos.get(op.output)
    feature = tuple((str(int(d)),) for d in (info.feature_shape if info is not None else None) or ())
    if op.kind == "scatter_add":
        rows: Expr = (Ctx("num_nodes"),)
    elif info is not None and info.space in _SPACE_ROWS:
        rows = (Ctx(_SPACE_ROWS[info.space]),)
    else:
        rows = ("n_rows",)
    return (rows,) + feature


def _forward_micro_op(kernel: TraversalKernel, op: MicroOp) -> List[Stmt]:
    stmts: List[Stmt] = [Raw((f"# {op.output} = {op.kind}({', '.join(op.inputs)})",))]
    out = op.output
    operands = [_operand(op, position) for position in range(len(op.inputs))]
    if op.kind in ("dot", "typed_vec_dot"):
        stmts.append(Store(out, expr("np.sum(", operands[0], " * ", operands[1], ", axis=-1)")))
    elif op.kind in ("binary", "scale"):
        symbol = "*" if op.kind == "scale" else {"add": "+", "sub": "-", "mul": "*", "div": "/"}[
            op.attrs.get("op", "add")
        ]
        stmts.append(Assign("_a, _b", expr("_align(", operands[0], ", ", operands[1], ")")))
        stmts.append(Store(out, (f"_a {symbol} _b",)))
    elif op.kind == "unary":
        fn = op.attrs.get("fn", "relu")
        if fn == "exp":
            stmts.append(Store(out, expr("np.exp(", operands[0], ")")))
        elif fn == "leaky_relu":
            slope = op.attrs.get("negative_slope", 0.01)
            stmts.append(Assign("_x", operands[0]))
            stmts.append(Store(out, (f"np.where(_x > 0, _x, _x * {slope})",)))
        elif fn == "scale_const":
            stmts.append(Store(out, expr(operands[0], f" * {op.attrs.get('constant', 1.0)}")))
        else:
            stmts.append(Store(out, expr("np.maximum(", operands[0], ", 0.0)")))
    elif op.kind == "copy":
        stmts.append(Store(out, expr("np.array(", operands[0], ", copy=True)")))
    elif op.kind == "scatter_add":
        target = Local("Y", out)
        stmts.append(Ensure(target, out, _output_shape(kernel, op)))
        weighted = op.attrs.get("weighted") and len(op.inputs) > 1
        fused = weighted and _weighted_scatter(kernel, target, ("dst",), *_gathered(op, 0), operands[1], op.inputs[1])
        if fused:
            return stmts + [fused]
        stmts.append(Assign("_contrib", operands[0]))
        if weighted:
            stmts.append(Assign("_c, _s", expr("_align(_contrib, ", operands[1], ")")))
            stmts.append(Assign("_contrib", ("_c * _s",)))
        stmts.append(Scatter(target, _scatter_index(kernel, ("dst",)), ("_contrib",)))
    else:
        raise ValueError(f"unknown micro-op kind {op.kind!r}")
    return stmts


def _accumulate_grad(kernel: TraversalKernel, op: MicroOp, position: int, *grad, fused=(), setup=()):
    """Accumulate ``grad`` (after ``setup``) into the ``position``-th operand's gradient, or :func:`_weighted_scatter`
    over ``fused`` where it applies.  Graph-provided edge data (RGCN's ``norm``) gets none: nothing reads it."""
    name = op.inputs[position]
    info = kernel.buffer_infos.get(name)
    if info is not None and info.is_input and info.space is Space.EDGE:
        return []
    index = _access_index(op, _access(op, position))
    target = Buf(f"grad_{name}")
    if index is None:
        return [*setup, EnsureGrad(name), Update(target, None, expr(*grad))]
    scatter = fused and _weighted_scatter(kernel, target, index, *fused)
    if scatter:
        return [EnsureGrad(name), scatter]
    return [*setup, EnsureGrad(name), Scatter(target, _scatter_index(kernel, index), expr(*grad))]


def _scale_adjoint(kernel: TraversalKernel, op: MicroOp, operands, rows: Expr, gather, local: str) -> List[Stmt]:
    """Adjoints of ``x · s``, ``_g = rows[gather]``: ``_g · s`` into ``x`` and ``Σ _g · x`` into ``s``."""
    align = Assign(f"{local}, _s", expr("_align(_g, ", operands[1], ")"))
    fused = (rows, gather, operands[1], op.inputs[1])
    stmts = _accumulate_grad(kernel, op, 0, f"{local} * _s", fused=fused, setup=[align])
    grad_s = Assign("_gs", expr("np.sum(_g * ", operands[0], ", axis=-1)"))
    return stmts + _accumulate_grad(kernel, op, 1, "_gs", setup=[grad_s])


#: Relation segment pointer of a traversal domain whose rows are stored by relation.
_ETYPE_SEGMENTS = {Space.EDGE: "etype_ptr", Space.COMPACT: "unique_etype_ptr"}


def _typed_weight_adjoint(kernel: TraversalKernel, op: MicroOp) -> List[Stmt]:
    """Adjoint of ``typed_vec_dot``'s weight: ``grad_w[t] += g[s:e] @ x[s:e]``, one GEMV over each
    relation's contiguous rows instead of an E×d product scattered into a handful of weight rows."""
    x, weight = op.inputs
    index = _access_index(op, _access(op, 0))
    rows = ("[start:end]",) if index is None else expr("[", index, "[start:end]]")
    gemv = Update(Buf(f"grad_{weight}"), (SegVar(),), expr("_g[start:end] @ ", Buf(x), rows))
    header = _segment_header(_ETYPE_SEGMENTS[kernel.domain], "num_etypes")
    return [EnsureGrad(weight), *header, SegmentLoop("num_etypes", (gemv,))]


def _backward_micro_op(kernel: TraversalKernel, op: MicroOp) -> List[Stmt]:
    stmts: List[Stmt] = [Raw((f"# adjoint of {op.output} = {op.kind}({', '.join(op.inputs)})",))]
    out = op.output
    operands = [_operand(op, position) for position in range(len(op.inputs))]
    if op.kind == "scatter_add":
        stmts.append(Assign("_g", (Buf(f"grad_{out}"), "[dst]")))
        if op.attrs.get("weighted") and len(op.inputs) > 1:
            stmts += _scale_adjoint(kernel, op, operands, (Buf(f"grad_{out}"),), ("dst",), "_gm")
        else:
            stmts += _accumulate_grad(kernel, op, 0, "_g")
        return stmts
    stmts.append(Assign("_g", (Buf(f"grad_{out}"),)))
    if op.kind in ("dot", "typed_vec_dot"):
        fused = (*_gathered(op, 1), ("_g",), out)
        stmts += _accumulate_grad(kernel, op, 0, "_g[:, None] * ", operands[1], fused=fused)
        by_relation = op.kind == "typed_vec_dot" and _access_index(op, "weight") == ("typ",)
        if by_relation and kernel.domain in _ETYPE_SEGMENTS:
            stmts += _typed_weight_adjoint(kernel, op)
        else:
            fused = (*_gathered(op, 0), ("_g",), out)
            stmts += _accumulate_grad(kernel, op, 1, "_g[:, None] * ", operands[0], fused=fused)
    elif op.kind == "binary":
        symbol = op.attrs.get("op", "add")
        scalars = op.attrs.get("scalar", {})
        if symbol == "add":
            grad_a, grad_b = "_g", "_g"
        elif symbol == "sub":
            grad_a, grad_b = "_g", "-_g"
        else:
            stmts.append(Assign("_a, _b", expr("_align(", operands[0], ", ", operands[1], ")")))
            grad_a, grad_b = ("_g * _b", "_g * _a") if symbol == "mul" else ("_g / _b", "-_g * _a / (_b ** 2)")
        stmts += [Assign("_ga", (grad_a,)), Assign("_gb", (grad_b,))]
        for position, local in enumerate(("_ga", "_gb")):
            if scalars.get(op.inputs[position], False):
                stmts.append(Assign(local, (f"np.sum({local}, axis=-1) if {local}.ndim > 1 else {local}",)))
        stmts += _accumulate_grad(kernel, op, 0, "_ga") + _accumulate_grad(kernel, op, 1, "_gb")
    elif op.kind == "unary":
        fn = op.attrs.get("fn", "relu")
        if fn == "exp":
            stmts.append(Assign("_gx", ("_g * ", Buf(out))))
        elif fn == "leaky_relu":
            slope = op.attrs.get("negative_slope", 0.01)
            stmts.append(Assign("_gx", expr("_g * np.where(", operands[0], f" > 0, 1.0, {slope})")))
        elif fn == "scale_const":
            stmts.append(Assign("_gx", (f"_g * {op.attrs.get('constant', 1.0)}",)))
        else:
            stmts.append(Assign("_gx", expr("_g * (", operands[0], " > 0)")))
        stmts += _accumulate_grad(kernel, op, 0, "_gx")
    elif op.kind == "scale":
        stmts += _scale_adjoint(kernel, op, operands, ("_g",), None, "_gx")
    elif op.kind == "copy":
        stmts += _accumulate_grad(kernel, op, 0, "_g")
    else:
        raise ValueError(f"unknown micro-op kind {op.kind!r}")
    return stmts


# ======================================================================
# Fallback kernels (PyTorch-call path)
# ======================================================================
def _fallback(kernel: FallbackKernel) -> List[Stmt]:
    if kernel.op_kind == "weight_product":
        return _weight_product_forward(kernel)
    if kernel.op_kind == "weight_product_backward":
        return _weight_product_backward(kernel)
    return [Raw((f"raise NotImplementedError('fallback op {kernel.op_kind} has no runtime')",))]


def _composed(kernel: FallbackKernel, a_name: str) -> Expr:
    """The left operand, expanded from source node types to relations when composed."""
    if kernel.attrs.get("compose") == "src_ntype_x_etype":
        return (Buf(a_name), "[", Ctx("etype_to_src_ntype"), "]")
    return (Buf(a_name),)


def _weight_product_forward(kernel: FallbackKernel) -> List[Stmt]:
    (a_name, _), (b_name, b_info) = kernel.inputs[0], kernel.inputs[1]
    product = "np.einsum('tij,tj->ti', A, B)" if len(b_info.feature_shape) == 1 else "np.matmul(A, B)"
    return [
        Assign("A", _composed(kernel, a_name)),
        Assign("B", (Buf(b_name),)),
        Store(kernel.output[0], (product,)),
    ]


def _weight_product_backward(kernel: FallbackKernel) -> List[Stmt]:
    # inputs: [grad_out, A, B]; output: grad_A (grad_B is also accumulated).
    (grad_out, _), (a_name, _), (b_name, b_info) = kernel.inputs[:3]
    if len(b_info.feature_shape) == 1:
        grad_a, grad_b = "np.einsum('ti,tj->tij', G, B)", "np.einsum('tij,ti->tj', A, G)"
    else:
        # Batched BLAS: the same contractions as einsum 'tik,tjk->tij' / 'tij,tik->tjk', ~10x faster.
        grad_a, grad_b = "np.matmul(G, B.transpose(0, 2, 1))", "np.matmul(A.transpose(0, 2, 1), G)"
    if kernel.attrs.get("compose") == "src_ntype_x_etype":
        accumulate_a: Stmt = Scatter(Buf(f"grad_{a_name}"), (Ctx("etype_to_src_ntype"),), ("gA",))
    else:
        accumulate_a = Update(Buf(f"grad_{a_name}"), None, ("gA",))
    return [
        EnsureGrad(a_name),
        EnsureGrad(b_name),
        Assign("G", (Buf(grad_out),)),
        Assign("A", _composed(kernel, a_name)),
        Assign("B", (Buf(b_name),)),
        Assign("gA", (grad_a,)),
        Assign("gB", (grad_b,)),
        accumulate_a,
        Update(Buf(f"grad_{b_name}"), None, ("gB",)),
    ]
