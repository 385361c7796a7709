"""IR→IR passes of the whole-plan pipeline, each bit-preserving.

``python-interp`` runs none of them, ``python-codegen`` runs all of them over
the whole plan, ``mixed`` runs them over each codegen-assigned run of kernels:
:func:`merge_adjacent` → :func:`unroll_segments` per body →
:func:`specialise_fresh_scatters` → :func:`fuse_ensure_grads` over the function.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.intra_op.kernels import GemmKernel

from repro.ir.codegen.stmt import (
    Assign,
    Buf,
    Ctx,
    Ensure,
    EnsureGrad,
    KernelBody,
    Local,
    RowsOf,
    Scatter,
    SegmentBlock,
    SegmentLoop,
    SegVar,
    Stmt,
    Store,
    Update,
    buffer_of,
    rewrite,
)

#: Relation counts above this are left as runtime loops: unrolling a huge
#: type vocabulary would bloat the generated source past any dispatch saving.
MAX_UNROLL_SEGMENTS = 32

#: Per-segment locals both halves of a dgrad/wgrad pair compute identically.
_SHARED_SEGMENT_LOCALS = ("rows", "Xg", "gY", "W_t")
#: The gather locals merged forward GEMMs share (same X, same segments).
_GATHER_LOCALS = ("rows", "Xg")


def _assigns(stmt: Stmt, targets: Tuple[str, ...]) -> bool:
    return isinstance(stmt, Assign) and stmt.target in targets


# ----------------------------------------------------------------------
# merged segment loops
# ----------------------------------------------------------------------
def merge_adjacent(bodies: Sequence[KernelBody]) -> List[KernelBody]:
    """Merge forward-projection runs and adjoint pairs that are adjacent in plan order."""
    merged: List[KernelBody] = []
    index = 0
    while index < len(bodies):
        group = _forward_group(bodies, index)
        result = _merge(group, projections=True) if len(group) > 1 else None
        if result is None and _is_adjoint_pair(bodies[index : index + 2]):
            group = bodies[index : index + 2]
            result = _merge(group, projections=False)
        if result is None:
            group, result = [bodies[index]], bodies[index]
        merged.append(result)
        index += len(group)
    return merged


def _gemm_of(body: KernelBody) -> Optional[GemmKernel]:
    kernel = body.kernels[0]
    return kernel if len(body.kernels) == 1 and isinstance(kernel, GemmKernel) else None


def _forward_group(bodies: Sequence[KernelBody], index: int) -> List[KernelBody]:
    """Maximal run of adjacent forward GEMMs over the same X and segments.

    HGT-style models project one feature through several weights (K/Q/V);
    adjacent forward GEMMs reading the same untouched input over the same
    typed space can share one loop and one ``Xg`` gather per segment.
    """
    first = _gemm_of(bodies[index])
    group = [bodies[index]]
    if first is None or first.role != "forward" or first.type_selector == "none":
        return group
    outputs = {first.y.buffer}
    reads = {first.x.buffer, first.weight.buffer}
    for body in bodies[index + 1 :]:
        nxt = _gemm_of(body)
        if not (
            nxt is not None
            and nxt.role == "forward"
            and nxt.type_selector == first.type_selector
            and nxt.m_space == first.m_space
            and nxt.x.buffer == first.x.buffer
            and nxt.weight.buffer not in outputs
            and nxt.y.buffer not in outputs
            and nxt.y.buffer not in reads
        ):
            break
        outputs.add(nxt.y.buffer)
        reads.add(nxt.weight.buffer)
        group.append(body)
    return group


def _is_adjoint_pair(pair: Sequence[KernelBody]) -> bool:
    """The dgrad then wgrad kernel of one forward GEMM."""
    if len(pair) != 2 or _gemm_of(pair[0]) is None or _gemm_of(pair[1]) is None:
        return False
    dgrad, wgrad = pair[0].kernels[0], pair[1].kernels[0]
    return (dgrad.role, wgrad.role) == ("dgrad", "wgrad") and dgrad.name.removesuffix(
        "_dgrad"
    ) == wgrad.name.removesuffix("_wgrad")


def _merge(group: Sequence[KernelBody], projections: bool) -> Optional[KernelBody]:
    """Fuse bodies that each end in a segment loop over the same segments into one loop.

    The merged loop runs the first body's segment statements, then each later
    body's minus the ``shared`` local assignments the first already made; the
    statements before the loops are concatenated without repeats.  Sound —
    bit-identical to running the loops one after another — when

    * *forward projections* gather X identically (checked: their ``shared``
      assignments must equal the first body's), write pairwise distinct
      outputs and none writes the shared input (:func:`_forward_group`); each
      output after the first binds its own local (``Y2``, ``Y3`` …);
    * *a dgrad/wgrad pair* writes disjoint buffers (``grad_X`` vs ``grad_W``)
      and neither reads what the other writes, so every buffer's
      accumulations keep their order while ``rows``/``gY``/``Xg`` are
      gathered once per segment instead of twice.
    """
    shared = _GATHER_LOCALS if projections else _SHARED_SEGMENT_LOCALS
    pre: List[Stmt] = []
    segment: List[Stmt] = []
    count = None
    for position, body in enumerate(group):
        stmts = body.stmts
        if not (stmts and isinstance(stmts[-1], SegmentLoop)) or (position and stmts[-1].count != count):
            return None
        if position and projections:
            name = f"Y{position + 1}"
            stmts = rewrite(
                stmts, lambda ref: Local(name, ref.buf) if isinstance(ref, Local) and ref.name == "Y" else ref
            )
            if [s for s in stmts[-1].body if _assigns(s, shared)] != [s for s in segment if _assigns(s, shared)]:
                return None
        count = stmts[-1].count
        pre += [stmt for stmt in stmts[:-1] if stmt not in pre]
        segment += [stmt for stmt in stmts[-1].body if not (stmt in segment and _assigns(stmt, shared))]
    return KernelBody(
        " + ".join(body.name for body in group),
        f"merged {'forward' if projections else 'adjoint'} segment loop",
        tuple(pre) + (SegmentLoop(count, tuple(_share_rows_indexes(segment))),),
        tuple(kernel for body in group for kernel in body.kernels),
    )


def _share_rows_indexes(segment: List[Stmt]) -> List[Stmt]:
    """Compute a graph index gathered through ``rows`` once when used more than once.

    A merged dgrad/wgrad loop both scatters through and gathers through e.g.
    ``edge_src[rows]``; one ``_rows_edge_src`` local per segment drops a
    fancy-index pass.
    """
    counts: Dict[str, int] = {}

    def count(ref):
        if isinstance(ref, RowsOf):
            counts[ref.attr] = counts.get(ref.attr, 0) + 1
        return ref

    rewrite(tuple(segment), count)  # used as a traversal: ``count`` returns every reference unchanged
    repeated = [attr for attr, uses in counts.items() if uses > 1]
    rows_at = next((i for i, stmt in enumerate(segment) if _assigns(stmt, ("rows",))), None)
    if not repeated or rows_at is None:
        return segment
    shared = rewrite(
        tuple(segment),
        lambda ref: RowsOf(ref.attr, True) if isinstance(ref, RowsOf) and ref.attr in repeated else ref,
    )
    hoisted = [Assign(f"_rows_{attr}", (Ctx(attr), "[rows]")) for attr in repeated]
    return [*shared[: rows_at + 1], *hoisted, *shared[rows_at + 1 :]]


# ----------------------------------------------------------------------
# unrolling
# ----------------------------------------------------------------------
def unroll_segments(
    stmts: Iterable[Stmt], segments: Dict[str, Tuple[Optional[int], Optional[tuple]]]
) -> Tuple[Stmt, ...]:
    """Replace segment loops over a known relation count with per-relation blocks.

    ``segments`` maps a loop's ``count`` attribute to ``(count, occupancy
    mask)``.  With a mask, only *occupied* relations are unrolled — even past
    :data:`MAX_UNROLL_SEGMENTS` relations, as long as at most that many are
    occupied — and empty ones emit nothing, so a 300-relation schema with a
    handful of live relations runs as a handful of straight-line blocks.
    """
    out: List[Stmt] = []
    for stmt in stmts:
        if not isinstance(stmt, SegmentLoop):
            out.append(stmt)
            continue
        count, mask = segments.get(stmt.count, (None, None))
        if mask is not None and count == len(mask) and sum(mask) <= MAX_UNROLL_SEGMENTS:
            live = [t for t in range(count) if mask[t]]
        elif count is not None and 0 < count <= MAX_UNROLL_SEGMENTS:
            live = list(range(count))
        else:
            out.append(stmt)
            continue
        for t in live:
            literal = str(t)
            out.append(SegmentBlock(t, rewrite(stmt.body, lambda ref: literal if ref == SegVar() else ref)))
    return tuple(out)


# ----------------------------------------------------------------------
# fresh scatters and dead zero fills
# ----------------------------------------------------------------------
def specialise_fresh_scatters(
    stmts: Iterable[Stmt], outputs: Iterable[str], pre_touched: Iterable[str] = ()
) -> List[Stmt]:
    """Mark first-touch scatters ``fresh`` and drop the zero fills they make dead.

    A scatter whose target is known to be all-zeros — a buffer its
    :class:`Ensure` just zero-filled, or a non-output gradient at its first
    accumulation site in program order — computes a plain segment sum, which
    ``np.bincount`` produces bit-identically (same per-bin addition order)
    and far faster than the unbuffered ufunc.  Any update, scatter or rebind
    marks the buffer touched, so later sites keep the accumulating scatter;
    ``pre_touched`` names gradient buffers earlier code may already have
    written.  Output gradients are never fresh: their seed is caller data.

    A scatter inside a *runtime* :class:`SegmentLoop` is never fresh: the body
    runs once per segment, so a full overwrite on the second iteration would
    clobber the first's contributions.  Unrolled blocks are separate sites.
    """
    outputs = set(outputs)
    touched = set(pre_touched)
    zeroed: Dict[str, Tuple[list, int]] = {}  # buffer → where its still-all-zeros Ensure sits

    def visit(block: Iterable[Stmt], in_loop: bool) -> List[Stmt]:
        out: List[Stmt] = []
        for stmt in block:
            if isinstance(stmt, Ensure) and stmt.zero:
                zeroed[stmt.buf] = (out, len(out))
            elif isinstance(stmt, Scatter):
                buf = buffer_of(stmt.target)
                fresh_gradient = buf.startswith("grad_") and buf not in touched and buf[len("grad_"):] not in outputs
                if not in_loop and (buf in zeroed or fresh_gradient):
                    stmt = replace(stmt, fresh=True)
                    if buf in zeroed:
                        site, at = zeroed[buf]
                        site[at] = replace(site[at], zero=False)
                touched.add(buf)
                zeroed.pop(buf, None)
            elif isinstance(stmt, (Update, Store)):
                buf = stmt.buf if isinstance(stmt, Store) else buffer_of(stmt.target)
                touched.add(buf)
                zeroed.pop(buf, None)
            elif isinstance(stmt, SegmentLoop):
                stmt = replace(stmt, body=tuple(visit(stmt.body, True)))
            elif isinstance(stmt, SegmentBlock):
                stmt = replace(stmt, body=tuple(visit(stmt.body, in_loop)))
            out.append(stmt)
        return out

    return visit(stmts, False)


def fuse_ensure_grads(stmts: Iterable[Stmt]) -> List[Stmt]:
    """Fuse each :class:`EnsureGrad` with the accumulation right after it.

    A dense ``+=`` onto the would-be zeros folds into the ensure (printed as
    ``(expr) + 0.0`` — elementwise ``0.0 + v`` either way, so bit-identical);
    a fresh scatter overwrites its target fully, so the ensure allocates
    uninitialised.
    """
    out: List[Stmt] = []
    for stmt in stmts:
        prev = out[-1] if out else None
        if isinstance(prev, EnsureGrad) and prev.accumulate is None and isinstance(stmt, (Update, Scatter)):
            if stmt.target == Buf(f"grad_{prev.buf}"):
                if isinstance(stmt, Update) and stmt.index is None and stmt.op == "+=":
                    out[-1] = replace(prev, accumulate=stmt.value)
                    continue
                if isinstance(stmt, Scatter) and stmt.fresh:
                    out[-1] = replace(prev, zero=False)
        out.append(stmt)
    return out
