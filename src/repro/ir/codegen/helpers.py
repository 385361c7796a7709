"""Runtime helpers every generated module imports.

Imported, not pasted into each emitted source, so ``compile()`` never
re-parses them and the artifact fingerprint (every ``*.py`` of this package)
covers them.  Underscore names: the generated code's private vocabulary,
which no buffer (``_b_<name>``) or context (``_c_<attr>``) local can shadow.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse


def _align(a, b):
    """Broadcast a per-row scalar against per-row vectors."""
    if a.ndim == 1 and b.ndim == 2:
        a = a[:, None]
    if b.ndim == 1 and a.ndim == 2:
        b = b[:, None]
    return a, b


def _env_dtype(env):
    """The floating dtype of the environment's buffers.

    Inputs and parameters are installed before any kernel runs, so the first
    floating array encountered fixes the working precision; fresh output and
    gradient allocations follow it instead of silently upcasting a float32
    environment to float64.
    """
    for value in env.values():
        if isinstance(value, np.ndarray) and np.issubdtype(value.dtype, np.floating):
            return value.dtype
    return np.dtype(np.float64)


def _ensure(env, name, shape):
    """Fetch (or allocate) an output buffer, zero-filled.

    A correctly shaped buffer already present in ``env`` — e.g. bound from a
    preallocated arena, or left over from a previous invocation — is reused
    in place and reset to zero, so reuse is indistinguishable from a fresh
    ``np.zeros`` allocation.  Fresh buffers take the environment dtype
    (see ``_env_dtype``), not a hardcoded float64.
    """
    if np.isscalar(shape):
        shape = (shape,)
    if name not in env or env[name].shape != tuple(shape):
        env[name] = np.zeros(shape, dtype=_env_dtype(env))
    else:
        env[name][...] = 0.0
    return env[name]


def _ensure_grad(env, name):
    """Allocate (or fetch) the gradient buffer of a forward value.

    ``zeros_like`` inherits the forward buffer's dtype, so gradients never
    upcast a float32 environment.
    """
    grad_name = "grad_" + name
    if grad_name not in env:
        env[grad_name] = np.zeros_like(env[name])
    return env[grad_name]


#: Fewest ``len(idx) × width`` contributions a 2-D scatter through a graph index array
#: sums as ``ctx.incidence(attr) @ contrib``; smaller (and 1-D) scatters take ``np.bincount``.
#: One fresh float64 scatter, µs (Xeon @ 2.1 GHz, one BLAS thread), and the one-off build:
#:
#:   E × width      bincount  sparse @  build
#:   20 000 × 1           40        23  1 437
#:   2 500 × 32          196        44    161
#:   19 200 × 32       1 623       392  1 382
#:   40 000 × 64       7 290     1 583  3 106
#:   19 200 × 32 weighted through ``edge_src``: 3 850 forming gather and product before the sparse @, 550 fused
#:
#: So the crossover is the build: a full graph pays it once for every later step,
#: a sampled block (the bench workloads' average 32–80 k contributions) is bound
#: for a call or two and would pay it each time.  A 1-D sum is within call
#: overhead either way.
SPMM_MIN_CONTRIBUTIONS = 1 << 17


def _scatter_add(target, idx, contrib, fresh=False, ctx=None, attr=None, through=None, weights=None):
    """``target[idx] += contrib`` over repeated indexes, as one float64 segment sum.

    The sum runs in float64 and is rounded once, when it is added to the
    ``[idx.min(), idx.max()]`` row window of ``target`` it was taken over —
    or, ``fresh`` (the target's prior contents are dead), taken over every
    row and assigned.  When ``idx`` is the context array ``ctx.<attr>`` and
    the target is 2-D with at least :data:`SPMM_MIN_CONTRIBUTIONS`
    contributions, the sum is the sparse × dense product with the context's
    memoised incidence matrix; otherwise it is one ``np.bincount``.  Both add
    each row's contributions in index order starting from ``0.0``, so they
    agree bit for bit, and so does every executing backend; neither yields
    ``-0.0``, so ``fresh`` equals accumulating onto a zero-filled target.
    Trailing feature axes of a C-contiguous target are flattened into one;
    contributions that broadcast against the target rows take the unbuffered
    ufunc.

    With ``weights``, row ``e`` contributes ``weights[e] · contrib[ctx.<through>[e]]``.  Past the
    threshold (2-D, float64) the incidence takes ``ctx.gathered_columns`` and the weights as values:
    each row adds ``fl(w · x)`` in index order, the bits of the product every other path forms first.
    """
    if weights is not None:
        sparse = ctx is not None and target.ndim == 2 and len(idx) * target.shape[1] >= SPMM_MIN_CONTRIBUTIONS
        if sparse and contrib.dtype == weights.dtype == np.float64 and contrib.shape[1:] == target.shape[1:]:
            incidence = ctx.incidence(attr)
            columns = incidence.indices if through is None else ctx.gathered_columns(attr, through)
            shape = (incidence.shape[0], len(contrib))
            product = scipy.sparse.csr_matrix((weights[incidence.indices], columns, incidence.indptr), shape=shape)
            return _add_window(target, product, contrib, fresh)
        contrib, weights = _align(contrib if through is None else contrib[getattr(ctx, through)], weights)
        contrib = contrib * weights
    row_per_index = contrib.shape == (len(idx), *target.shape[1:])
    if row_per_index and target.ndim > 2 and target.flags.c_contiguous:  # the reshape is a view of ``target``
        target, contrib = target.reshape(len(target), -1), contrib.reshape(len(idx), -1)
    if not row_per_index or target.ndim > 2 or len(idx) == 0:
        if fresh:
            target[...] = 0.0
        np.add.at(target, idx, contrib)
        return
    if ctx is not None and target.ndim == 2 and len(idx) * target.shape[1] >= SPMM_MIN_CONTRIBUTIONS:
        return _add_window(target, ctx.incidence(attr), contrib.astype(np.float64, copy=False), fresh)
    if fresh:
        low, rows = 0, len(target)
    else:
        low = idx.min()
        rows = idx.max() + 1 - low
        if low:
            idx = idx - low
    if target.ndim == 1:
        window = np.bincount(idx, weights=contrib, minlength=rows)
    else:
        width = target.shape[1]
        flat = (idx[:, None] * width + np.arange(width)).ravel()
        window = np.bincount(flat, weights=contrib.ravel(), minlength=rows * width).reshape(rows, width)
    if fresh:
        target[...] = window
    else:
        target[low : low + rows] += window


def _add_window(target, matrix, contrib, fresh):
    """Assign ``matrix @ contrib`` to every row (``fresh``), or add its first..last nonempty rows (the window)."""
    window = matrix @ contrib
    if fresh:
        target[...] = window
    else:
        low = np.searchsorted(matrix.indptr, 0, side="right") - 1
        high = np.searchsorted(matrix.indptr, matrix.indptr[-1])
        target[low:high] += window[low:high]
