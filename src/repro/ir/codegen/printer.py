"""The one printer: statement IR → Python/numpy source, under a naming policy.

* **per-kernel** (``python-interp``) — one ``kernel_<name>(env, ctx)``
  function per kernel: buffers are ``env['x']``, graph arrays ``ctx.attr``,
  ensures call the imported helpers (the only output helper zero-fills, so an
  ``Ensure(zero=False)`` is filled all the same — unobservable, and it keeps
  this policy to one helper).
* **whole-plan** (``python-codegen``, ``mixed``) — one function over many
  kernel bodies:

  - every graph index array is a ``_c_<attr>`` local bound once per call,
    segment pointers are ``_s_<attr>`` Python *lists* (indexing an ndarray
    yields a numpy scalar, which pays boxing on every segment bound; the
    values are identical — they only ever index and compare);
  - every buffer is a ``_b_<name>`` local kept in sync with ``env``
    (rebinding statements also store into ``env``; in-place mutation flows
    through the shared arrays), so the executor, bindings and
    ``module._last_env`` see exactly what the per-kernel policy produces;
  - a buffer *read before the function writes it* is bound once in the
    function header.  In a backward function such a gradient read seeds its
    own zeros when absent (lazy gradient seeding: only adjoint roots get
    allocated; a caller-seeded output gradient is found and used as is);
  - ensures are inlined to an ``env.get`` plus a shape check — shapes are
    static at generation time, so the helper call and its ``np.isscalar``
    dispatch reduce to the hot path, allocating or zero-filling exactly as
    the helpers do on the cold path.

All of it is decided from the typed references of the tree; the printer never
inspects text it has printed.  A native backend would be a second printer
over the same tree.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.ir.codegen.stmt import (
    Assign,
    Buf,
    Ctx,
    Ensure,
    EnsureGrad,
    Expr,
    Local,
    Raw,
    Scatter,
    SegmentBlock,
    SegmentLoop,
    SegVar,
    Stmt,
    Store,
    Update,
)

#: Header of every generated module: the kernels below it are the whole source.
_PREAMBLE = '''"""Generated by Hector's Python backend — do not edit by hand."""
import numpy as np

from repro.ir.codegen.helpers import _align, _ensure, _ensure_grad, _env_dtype, _scatter_add
'''


class _Printer:
    """Prints statements under one policy, collecting what the function header must bind."""

    def __init__(self, whole_plan: bool, lazy_gradients: bool):
        self.whole_plan = whole_plan
        self.lazy_gradients = lazy_gradients
        self.lines: List[str] = []
        self.header: List[str] = []  # read-before-written buffer bindings
        self.seg_lists: List[str] = []
        self.ctx_attrs: List[str] = []
        self.bound: Set[str] = set()  # buffers written or bound so far

    # -- references --------------------------------------------------------
    def buf(self, name: str) -> str:
        if not self.whole_plan:
            return f"env['{name}']"
        local = f"_b_{name}"
        if name not in self.bound:
            self.bound.add(name)
            if self.lazy_gradients and name.startswith("grad_"):
                self.header += [
                    f"    {local} = env.get('{name}')",
                    f"    if {local} is None:",
                    f"        {local} = env['{name}'] = np.zeros_like(env['{name[len('grad_'):]}'])",
                ]
            else:
                self.header.append(f"    {local} = env['{name}']")
        return local

    def ctx(self, attr: str, as_list: bool = False) -> str:
        if not self.whole_plan:
            return f"ctx.{attr}"
        seen = self.seg_lists if as_list else self.ctx_attrs
        if attr not in seen:
            seen.append(attr)
        return ("_s_" if as_list else "_c_") + attr

    def ref(self, ref) -> str:
        kind = ref.__class__
        if kind is Buf:
            return self.buf(ref.name)
        if kind is Ctx:
            return self.ctx(ref.attr, ref.as_list)
        if kind is Local:
            return ref.name
        if kind is SegVar:
            return "t"
        raise TypeError(f"not a reference: {ref!r}")

    def text(self, expr: Expr) -> str:
        return "".join([part if part.__class__ is str else self.ref(part) for part in expr])

    # -- statements --------------------------------------------------------
    def block(self, stmts: Iterable[Stmt], indent: str) -> None:
        for stmt in stmts:
            self.stmt(stmt, indent)

    def stmt(self, stmt: Stmt, indent: str) -> None:
        emit = self.lines.append
        kind = stmt.__class__
        if kind is Assign:
            emit(f"{indent}{stmt.target} = {self.text(stmt.value)}")
        elif kind is Store:
            value = self.text(stmt.value)
            if self.whole_plan:
                self.bound.add(stmt.buf)
                emit(f"{indent}_b_{stmt.buf} = env['{stmt.buf}'] = {value}")
            else:
                emit(f"{indent}env['{stmt.buf}'] = {value}")
        elif kind is Update:
            target = self.ref(stmt.target)
            if stmt.index is not None:
                target += f"[{self.text(stmt.index)}]"
            emit(f"{indent}{target} {stmt.op} {self.text(stmt.value)}")
        elif kind is Scatter:
            args = f"{self.ref(stmt.target)}, {self.text(stmt.index)}, {self.text(stmt.contrib)}"
            args += ", fresh=True" if stmt.fresh else ""
            head = stmt.index[0]
            if len(stmt.index) == 1 and head.__class__ is Ctx and head.incidence:
                args += f", ctx=ctx, attr='{head.attr}'"
            args += f", through='{stmt.through.attr}'" if stmt.through else ""
            args += f", weights={self.text(stmt.weights)}" if stmt.weights else ""
            emit(f"{indent}_scatter_add({args})")
        elif kind is Ensure:
            self._ensure(stmt, indent)
        elif kind is EnsureGrad:
            self._ensure_grad(stmt, indent)
        elif kind is SegmentLoop:
            emit(f"{indent}for t in range(num_segments):")
            emit(f"{indent}    start, end = seg_ptr[t], seg_ptr[t + 1]")
            emit(f"{indent}    if end <= start:")
            emit(f"{indent}        continue")
            self.block(stmt.body, indent + "    ")
        elif kind is SegmentBlock:
            emit(f"{indent}start, end = seg_ptr[{stmt.index}], seg_ptr[{stmt.index + 1}]")
            emit(f"{indent}if end > start:")
            self.block(stmt.body, indent + "    ")
        elif kind is Raw:
            emit(indent + self.text(stmt.value))
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    def _ensure(self, stmt: Ensure, indent: str) -> None:
        emit = self.lines.append
        local, buf = stmt.local.name, stmt.buf
        dims = ", ".join([self.text(dim) for dim in stmt.shape])
        if not self.whole_plan:
            emit(f"{indent}{local} = _ensure(env, '{buf}', ({dims}))")
            return
        self.bound.add(buf)
        shape = f"({dims},)" if len(stmt.shape) == 1 else f"({dims})"
        alloc = "np.zeros" if stmt.zero else "np.empty"
        emit(f"{indent}{local} = _b_{buf} = env.get('{buf}')")
        emit(f"{indent}if {local} is None or {local}.shape != {shape}:")
        emit(f"{indent}    {local} = _b_{buf} = env['{buf}'] = {alloc}({shape}, dtype=_env_dtype(env))")
        if stmt.zero:
            emit(f"{indent}else:")
            emit(f"{indent}    {local}[...] = 0.0")

    def _ensure_grad(self, stmt: EnsureGrad, indent: str) -> None:
        emit = self.lines.append
        buf, grad = stmt.buf, f"grad_{stmt.buf}"
        if not self.whole_plan:
            emit(f"{indent}_ensure_grad(env, '{buf}')")
            if stmt.accumulate is not None:
                self.stmt(Update(Buf(grad), None, stmt.accumulate), indent)
            return
        self.bound.add(grad)
        local = f"_b_{grad}"
        emit(f"{indent}{local} = env.get('{grad}')")
        emit(f"{indent}if {local} is None:")
        if stmt.accumulate is None:
            alloc = "np.zeros_like" if stmt.zero else "np.empty_like"
            emit(f"{indent}    {local} = env['{grad}'] = {alloc}(env['{buf}'])")
            return
        value = self.text(stmt.accumulate)
        emit(f"{indent}    {local} = ({value}) + 0.0")
        emit(f"{indent}    if {local}.shape != env['{buf}'].shape:")
        emit(f"{indent}        {local} = np.zeros_like(env['{buf}'])")
        emit(f"{indent}        {local} += {value}")
        emit(f"{indent}    env['{grad}'] = {local}")
        emit(f"{indent}else:")
        emit(f"{indent}    {local} += {value}")


def print_function(
    name: str, doc: str, stmts: Sequence[Stmt], whole_plan: bool = False, lazy_gradients: bool = False
) -> str:
    """Print ``def name(env, ctx)`` over ``stmts`` under the chosen policy.

    A whole-plan function binds its context attributes and read-before-written
    buffers first and returns ``env``; a per-kernel function is the bare body.
    """
    printer = _Printer(whole_plan, lazy_gradients)
    printer.block(stmts, "    ")
    lines = [f"def {name}(env, ctx):", f'    """{doc}"""']
    if whole_plan:
        lines += [f"    _s_{attr} = ctx.{attr}.tolist()" for attr in printer.seg_lists]
        lines += [f"    _c_{attr} = ctx.{attr}" for attr in printer.ctx_attrs]
        lines += printer.header
    lines += printer.lines
    if whole_plan:
        lines.append("    return env")
    return "\n".join(lines)


def print_dispatcher(name: str, doc: str, callees: Iterable[str]) -> str:
    """Print a function calling ``callees`` in order on ``(env, ctx)``."""
    lines = [f"def {name}(env, ctx):", f'    """{doc}"""']
    lines += [f"    {callee}(env, ctx)" for callee in callees]
    lines.append("    return env")
    return "\n".join(lines)


def join_module(chunks: Iterable[str]) -> str:
    """Assemble a generated module: the import header, then functions two lines apart."""
    return "\n\n".join([_PREAMBLE, *chunks]) + "\n"
