"""Statement IR between :class:`~repro.ir.intra_op.plan.KernelPlan` and source.

Expressions are flat tuples of text fragments and *typed references* — a
buffer, a graph-context attribute, the segment index — so nothing downstream
recovers a name by parsing text: a buffer called ``Y`` or ``t`` can never be
mistaken for an emitter local or the loop variable.  Loop scope is a field
of the tree (:class:`SegmentLoop` / :class:`SegmentBlock` bodies), never
indentation.  Nodes are frozen: passes rebuild, they never mutate subtrees
that unrolled copies or merged bodies may share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


# ----------------------------------------------------------------------
# typed references: the holes of an expression
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Buf:
    """An ``env`` buffer (input, parameter, intermediate or gradient)."""

    name: str


@dataclass(frozen=True)
class Ctx:
    """An attribute of the bound :class:`~repro.runtime.context.GraphContext`.

    ``as_list`` marks a segment-pointer array (``etype_ptr`` …) that is only
    ever indexed, so a naming policy may bind it as a Python list.
    ``incidence`` marks a per-row index array (``edge_dst`` …): a scatter
    through it alone may sum as the product with ``ctx.incidence(attr)``.
    """

    attr: str
    as_list: bool = False
    incidence: bool = False


@dataclass(frozen=True)
class SegVar:
    """The segment index of the enclosing :class:`SegmentLoop`."""


@dataclass(frozen=True)
class Local:
    """A function local that passes need to see; ``buf`` is the buffer it aliases."""

    name: str
    buf: Optional[str] = None


Ref = Union[Buf, Ctx, SegVar, Local]
Expr = Tuple[Union[str, Ref], ...]


def expr(*parts) -> Expr:
    """Concatenate text fragments, references and sub-expressions into one :data:`Expr`."""
    flat: list = []
    for part in parts:
        if isinstance(part, tuple):
            flat.extend(part)
        else:
            flat.append(part)
    return tuple(flat)


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Raw:
    """A line that is just an expression: a comment, or the unsupported-fallback ``raise``."""

    value: Expr


@dataclass(frozen=True)
class Assign:
    """``target = value`` where ``target`` names plain locals (``rows``, ``_a, _b``)."""

    target: str
    value: Expr


@dataclass(frozen=True)
class Store:
    """Bind buffer ``buf`` in ``env`` to a new array."""

    buf: str
    value: Expr


@dataclass(frozen=True)
class Update:
    """In-place ``target[index] op value`` (``+=`` accumulates, ``=`` overwrites rows)."""

    target: Union[Buf, Local]
    index: Optional[Expr]
    value: Expr
    op: str = "+="


@dataclass(frozen=True)
class Ensure:
    """Fetch or allocate output ``buf`` with static ``shape``, bound to ``local``.

    ``zero=False`` says nothing reads the buffer before the kernel has written
    every row, so a policy may skip the zero fill.
    """

    local: Local
    buf: str
    shape: Tuple[Expr, ...]
    zero: bool = True


@dataclass(frozen=True)
class EnsureGrad:
    """Fetch or zero-allocate ``grad_<buf>``, shaped like ``buf``.

    ``accumulate`` is a dense ``+=`` the fusion pass folded into the ensure;
    ``zero=False`` allocates uninitialised for a fresh scatter that follows.
    """

    buf: str
    accumulate: Optional[Expr] = None
    zero: bool = True


@dataclass(frozen=True)
class Scatter:
    """Segment-sum ``contrib`` rows into ``target[index]``: ``+=``, or ``=`` when ``fresh`` (target all-zeros);
    with per-row scalar ``weights``, row ``e`` is ``weights[e] · contrib[through[e]]`` (``contrib[e]`` without)."""

    target: Union[Buf, Local]
    index: Expr
    contrib: Expr
    fresh: bool = False
    through: Optional[Ctx] = None
    weights: Optional[Expr] = None


@dataclass(frozen=True)
class SegmentLoop:
    """Runtime loop over typed segments; ``start``/``end`` and the empty-segment skip are implicit.

    ``count`` is the context attribute holding the number of segments
    (``num_etypes`` / ``num_ntypes``), or ``None`` when it is not a type count.
    """

    count: Optional[str]
    body: Tuple["Stmt", ...]


@dataclass(frozen=True)
class SegmentBlock:
    """One unrolled segment: the loop body at a literal segment ``index``."""

    index: int
    body: Tuple["Stmt", ...]


Stmt = Union[Raw, Assign, Store, Update, Ensure, EnsureGrad, Scatter, SegmentLoop, SegmentBlock]


@dataclass(frozen=True)
class KernelBody:
    """The statements of one kernel, or of several merged into one segment loop.

    ``name``/``doc`` label the body in the emitted source; ``kernels`` are the
    plan's kernel instances it implements, in plan order.
    """

    name: str
    doc: str
    stmts: Tuple[Stmt, ...]
    kernels: tuple


def buffer_of(target: Union[Buf, Local]) -> Optional[str]:
    """The buffer an update/scatter target writes through."""
    return target.name if isinstance(target, Buf) else target.buf


def rewrite(node, fn):
    """Rebuild ``node`` with ``fn`` applied to every typed reference inside it."""
    if isinstance(node, (Buf, Ctx, SegVar, Local)):
        return fn(node)
    if isinstance(node, tuple):
        return tuple([rewrite(item, fn) for item in node])
    if hasattr(node, "__dataclass_fields__"):
        return type(node)(*[rewrite(getattr(node, name), fn) for name in node.__dataclass_fields__])
    return node
