"""IR→IR passes of the whole-plan pipeline, each bit-preserving.

``python-interp`` runs none of them; ``python-codegen`` (and ``mixed``, the
same selection re-run per bound graph's occupancy) runs all of them over the
whole plan: :func:`merge_adjacent` → :func:`unroll_segments` per body →
:func:`specialise_fresh_scatters` → :func:`fuse_ensure_grads` over the function.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ir.intra_op.kernels import GemmKernel

from repro.ir.codegen.stmt import (
    Assign,
    Buf,
    Ensure,
    EnsureGrad,
    KernelBody,
    Local,
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
    """Fuse bodies that each hold one segment loop over the same segments into one loop.

    The merged loop runs the first body's segment statements, then each later
    body's minus the ``shared`` local assignments the first already made; the
    statements before the loops are concatenated without repeats, and so are
    the statements after them (a dgrad's one scatter of its per-segment
    contributions).  Sound — bit-identical to running the bodies one after
    another — when

    * *forward projections* gather X identically (checked: their ``shared``
      assignments must equal the first body's), write pairwise distinct
      outputs and none writes the shared input (:func:`_forward_group`); each
      output after the first binds its own local (``Y2``, ``Y3`` …);
    * *a dgrad/wgrad pair* writes disjoint buffers (``grad_X`` vs ``grad_W``)
      and neither reads what the other writes, so every buffer's
      accumulations keep their order while ``rows``/``gY`` are taken once per
      segment instead of twice.
    """
    shared = _GATHER_LOCALS if projections else _SHARED_SEGMENT_LOCALS
    pre: List[Stmt] = []
    segment: List[Stmt] = []
    post: List[Stmt] = []
    count = None
    for position, body in enumerate(group):
        stmts = body.stmts
        at = next((i for i, stmt in enumerate(stmts) if isinstance(stmt, SegmentLoop)), None)
        if at is None or (position and stmts[at].count != count):
            return None
        if position and projections:
            name = f"Y{position + 1}"
            stmts = rewrite(
                stmts, lambda ref: Local(name, ref.buf) if isinstance(ref, Local) and ref.name == "Y" else ref
            )
            if [s for s in stmts[at].body if _assigns(s, shared)] != [s for s in segment if _assigns(s, shared)]:
                return None
        before, loop, after = stmts[:at], stmts[at], stmts[at + 1 :]
        count = loop.count
        pre += [stmt for stmt in before if stmt not in pre]
        segment += [stmt for stmt in loop.body if not (stmt in segment and _assigns(stmt, shared))]
        post += after
    return KernelBody(
        " + ".join(body.name for body in group),
        f"merged {'forward' if projections else 'adjoint'} segment loop",
        (*pre, SegmentLoop(count, tuple(segment)), *post),
        tuple(kernel for body in group for kernel in body.kernels),
    )


# ----------------------------------------------------------------------
# unrolling
# ----------------------------------------------------------------------
def live_segments(count: Optional[int], mask: Optional[tuple] = None) -> Optional[List[int]]:
    """The relations a segment loop over ``count`` unrolls into, or ``None`` for a runtime loop.

    With an occupancy ``mask``, only *occupied* relations are unrolled — even
    past :data:`MAX_UNROLL_SEGMENTS` relations, as long as at most that many
    are occupied — so a 300-relation schema with a handful of live relations
    runs as a handful of straight-line blocks.  A mask that leaves more than
    the limit occupied changes nothing: the answer is the unmasked one.
    """
    if mask is not None and count == len(mask) and sum(mask) <= MAX_UNROLL_SEGMENTS:
        return [t for t in range(count) if mask[t]]
    if count is not None and 0 < count <= MAX_UNROLL_SEGMENTS:
        return list(range(count))
    return None


def unroll_segments(
    stmts: Iterable[Stmt], segments: Dict[str, Tuple[Optional[int], Optional[tuple]]]
) -> Tuple[Stmt, ...]:
    """Replace segment loops over a known relation count with per-relation blocks.

    ``segments`` maps a loop's ``count`` attribute to ``(count, occupancy
    mask)``; :func:`live_segments` decides what each loop becomes, and empty
    relations emit nothing.
    """
    out: List[Stmt] = []
    for stmt in stmts:
        if not isinstance(stmt, SegmentLoop):
            out.append(stmt)
            continue
        live = live_segments(*segments.get(stmt.count, (None, None)))
        if live is None:
            out.append(stmt)
            continue
        for t in live:
            literal = str(t)
            out.append(SegmentBlock(t, rewrite(stmt.body, lambda ref: literal if ref == SegVar() else ref)))
    return tuple(out)


# ----------------------------------------------------------------------
# fresh scatters and dead zero fills
# ----------------------------------------------------------------------
def specialise_fresh_scatters(stmts: Iterable[Stmt], outputs: Iterable[str]) -> List[Stmt]:
    """Mark first-touch scatters ``fresh`` and drop the zero fills they make dead.

    A scatter whose target is known to be all-zeros — a buffer its
    :class:`Ensure` just zero-filled, or a non-output gradient at its first
    accumulation site in program order — may assign its segment sum instead
    of adding it (bit-identical: ``0.0 + v`` is ``v``), which saves the zero
    fill and a read of the target.  Any update, scatter or rebind marks the
    buffer touched, so later sites accumulate.  Output gradients are never
    fresh: their seed is caller data.

    A scatter inside a *runtime* :class:`SegmentLoop` is never fresh: the body
    runs once per segment, so an assignment on the second iteration would
    clobber the first's contributions.  Unrolled blocks are separate sites.
    """
    outputs = set(outputs)
    touched: set = set()
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
    a fresh scatter assigns every row of its target, so the ensure allocates
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
