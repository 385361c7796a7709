# backend: python-codegen
"""Generated by Hector's Python backend — do not edit by hand."""
import numpy as np

from repro.ir.codegen.helpers import _align, _ensure, _ensure_grad, _env_dtype, _scatter_add


def main_forward(env, ctx):
    """Whole-plan forward of rgat_U: 5 kernels inlined, runtime-looped."""
    _s_etype_ptr = ctx.etype_ptr.tolist()
    _c_num_etypes = ctx.num_etypes
    _c_num_edges = ctx.num_edges
    _c_edge_src = ctx.edge_src
    _c_edge_dst = ctx.edge_dst
    _c_edge_type = ctx.edge_type
    _c_num_nodes = ctx.num_nodes
    _b_h = env['h']
    _b_W = env['W']
    _b_w_s = env['w_s']
    _b_w_t = env['w_t']
    # ---- gemm_1: gemm_1: Y:(hs[SCATTER(etype_ptr)]) = X:(h[GATHER(row_idx)]) × W:(W, etype) M=edge K=64 N=64 schedule {tile_sz: 16} role=forward ----
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    Y = _b_hs = env.get('hs')
    if Y is None or Y.shape != (_c_num_edges, 64):
        Y = _b_hs = env['hs'] = np.empty((_c_num_edges, 64), dtype=_env_dtype(env))
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        rows = slice(start, end)
        Xg = _b_h[_c_edge_src[rows]]
        W_t = _b_W[t]
        Y[rows] = Xg @ W_t
    # ---- traversal_1: traversal_1: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=False | atts=typed_vec_dot(hs, w_s) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # atts = typed_vec_dot(hs, w_s)
    _b_atts = env['atts'] = np.sum(_b_hs * _b_w_s[typ], axis=-1)
    # ---- gemm_2: gemm_2: Y:(ht[SCATTER(etype_ptr)]) = X:(h[GATHER(col_idx)]) × W:(W, etype) M=edge K=64 N=64 schedule {tile_sz: 16} role=forward ----
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    Y = _b_ht = env.get('ht')
    if Y is None or Y.shape != (_c_num_edges, 64):
        Y = _b_ht = env['ht'] = np.empty((_c_num_edges, 64), dtype=_env_dtype(env))
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        rows = slice(start, end)
        Xg = _b_h[_c_edge_dst[rows]]
        W_t = _b_W[t]
        Y[rows] = Xg @ W_t
    # ---- traversal_2: traversal_2: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=True | attt=typed_vec_dot(ht, w_t); att_raw=binary(atts, attt); att_l=unary(att_raw); att_exp=unary(att_l); att_sum=scatter_add(att_exp) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # attt = typed_vec_dot(ht, w_t)
    _b_attt = env['attt'] = np.sum(_b_ht * _b_w_t[typ], axis=-1)
    # att_raw = binary(atts, attt)
    _a, _b = _align(_b_atts, _b_attt)
    _b_att_raw = env['att_raw'] = _a + _b
    # att_l = unary(att_raw)
    _x = _b_att_raw
    _b_att_l = env['att_l'] = np.where(_x > 0, _x, _x * 0.2)
    # att_exp = unary(att_l)
    _b_att_exp = env['att_exp'] = np.exp(_b_att_l)
    # att_sum = scatter_add(att_exp)
    Y = _b_att_sum = env.get('att_sum')
    if Y is None or Y.shape != (_c_num_nodes,):
        Y = _b_att_sum = env['att_sum'] = np.empty((_c_num_nodes,), dtype=_env_dtype(env))
    _contrib = _b_att_exp
    _scatter_add(Y, _c_edge_dst, _contrib, fresh=True, ctx=ctx, attr='edge_dst')
    # ---- traversal_3: traversal_3: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=True | att_sum_edges=copy(att_sum); att=binary(att_exp, att_sum_edges); out=scatter_add(hs, att) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # att_sum_edges = copy(att_sum)
    _b_att_sum_edges = env['att_sum_edges'] = np.array(_b_att_sum[dst], copy=True)
    # att = binary(att_exp, att_sum_edges)
    _a, _b = _align(_b_att_exp, _b_att_sum_edges)
    _b_att = env['att'] = _a / _b
    # out = scatter_add(hs, att)
    Y = _b_out = env.get('out')
    if Y is None or Y.shape != (_c_num_nodes, 64):
        Y = _b_out = env['out'] = np.empty((_c_num_nodes, 64), dtype=_env_dtype(env))
    _scatter_add(Y, _c_edge_dst, _b_hs, fresh=True, ctx=ctx, attr='edge_dst', weights=_b_att)
    return env

def main_backward(env, ctx):
    """Whole-plan backward of rgat_U: 7 kernels inlined, runtime-looped."""
    _s_etype_ptr = ctx.etype_ptr.tolist()
    _c_num_edges = ctx.num_edges
    _c_edge_src = ctx.edge_src
    _c_edge_dst = ctx.edge_dst
    _c_edge_type = ctx.edge_type
    _c_num_etypes = ctx.num_etypes
    _b_grad_out = env.get('grad_out')
    if _b_grad_out is None:
        _b_grad_out = env['grad_out'] = np.zeros_like(env['out'])
    _b_att = env['att']
    _b_hs = env['hs']
    _b_att_exp = env['att_exp']
    _b_att_sum_edges = env['att_sum_edges']
    _b_att_raw = env['att_raw']
    _b_w_t = env['w_t']
    _b_ht = env['ht']
    _b_W = env['W']
    _b_h = env['h']
    _b_w_s = env['w_s']
    # ---- traversal_3_bwd: traversal_3_bwd: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=True | att_sum_edges=copy(att_sum); att=binary(att_exp, att_sum_edges); out=scatter_add(hs, att) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # adjoint of out = scatter_add(hs, att)
    _g = _b_grad_out[dst]
    _gm, _s = _align(_g, _b_att)
    _b_grad_hs = env.get('grad_hs')
    if _b_grad_hs is None:
        _b_grad_hs = (_gm * _s) + 0.0
        if _b_grad_hs.shape != env['hs'].shape:
            _b_grad_hs = np.zeros_like(env['hs'])
            _b_grad_hs += _gm * _s
        env['grad_hs'] = _b_grad_hs
    else:
        _b_grad_hs += _gm * _s
    _gs = np.sum(_g * _b_hs, axis=-1)
    _b_grad_att = env.get('grad_att')
    if _b_grad_att is None:
        _b_grad_att = (_gs) + 0.0
        if _b_grad_att.shape != env['att'].shape:
            _b_grad_att = np.zeros_like(env['att'])
            _b_grad_att += _gs
        env['grad_att'] = _b_grad_att
    else:
        _b_grad_att += _gs
    # adjoint of att = binary(att_exp, att_sum_edges)
    _g = _b_grad_att
    _a, _b = _align(_b_att_exp, _b_att_sum_edges)
    _ga = _g / _b
    _gb = -_g * _a / (_b ** 2)
    _ga = np.sum(_ga, axis=-1) if _ga.ndim > 1 else _ga
    _gb = np.sum(_gb, axis=-1) if _gb.ndim > 1 else _gb
    _b_grad_att_exp = env.get('grad_att_exp')
    if _b_grad_att_exp is None:
        _b_grad_att_exp = (_ga) + 0.0
        if _b_grad_att_exp.shape != env['att_exp'].shape:
            _b_grad_att_exp = np.zeros_like(env['att_exp'])
            _b_grad_att_exp += _ga
        env['grad_att_exp'] = _b_grad_att_exp
    else:
        _b_grad_att_exp += _ga
    _b_grad_att_sum_edges = env.get('grad_att_sum_edges')
    if _b_grad_att_sum_edges is None:
        _b_grad_att_sum_edges = (_gb) + 0.0
        if _b_grad_att_sum_edges.shape != env['att_sum_edges'].shape:
            _b_grad_att_sum_edges = np.zeros_like(env['att_sum_edges'])
            _b_grad_att_sum_edges += _gb
        env['grad_att_sum_edges'] = _b_grad_att_sum_edges
    else:
        _b_grad_att_sum_edges += _gb
    # adjoint of att_sum_edges = copy(att_sum)
    _g = _b_grad_att_sum_edges
    _b_grad_att_sum = env.get('grad_att_sum')
    if _b_grad_att_sum is None:
        _b_grad_att_sum = env['grad_att_sum'] = np.empty_like(env['att_sum'])
    _scatter_add(_b_grad_att_sum, _c_edge_dst, _g, fresh=True, ctx=ctx, attr='edge_dst')
    # ---- traversal_2_bwd: traversal_2_bwd: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=True | attt=typed_vec_dot(ht, w_t); att_raw=binary(atts, attt); att_l=unary(att_raw); att_exp=unary(att_l); att_sum=scatter_add(att_exp) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # adjoint of att_sum = scatter_add(att_exp)
    _g = _b_grad_att_sum[dst]
    _b_grad_att_exp = env.get('grad_att_exp')
    if _b_grad_att_exp is None:
        _b_grad_att_exp = (_g) + 0.0
        if _b_grad_att_exp.shape != env['att_exp'].shape:
            _b_grad_att_exp = np.zeros_like(env['att_exp'])
            _b_grad_att_exp += _g
        env['grad_att_exp'] = _b_grad_att_exp
    else:
        _b_grad_att_exp += _g
    # adjoint of att_exp = unary(att_l)
    _g = _b_grad_att_exp
    _gx = _g * _b_att_exp
    _b_grad_att_l = env.get('grad_att_l')
    if _b_grad_att_l is None:
        _b_grad_att_l = (_gx) + 0.0
        if _b_grad_att_l.shape != env['att_l'].shape:
            _b_grad_att_l = np.zeros_like(env['att_l'])
            _b_grad_att_l += _gx
        env['grad_att_l'] = _b_grad_att_l
    else:
        _b_grad_att_l += _gx
    # adjoint of att_l = unary(att_raw)
    _g = _b_grad_att_l
    _gx = _g * np.where(_b_att_raw > 0, 1.0, 0.2)
    _b_grad_att_raw = env.get('grad_att_raw')
    if _b_grad_att_raw is None:
        _b_grad_att_raw = (_gx) + 0.0
        if _b_grad_att_raw.shape != env['att_raw'].shape:
            _b_grad_att_raw = np.zeros_like(env['att_raw'])
            _b_grad_att_raw += _gx
        env['grad_att_raw'] = _b_grad_att_raw
    else:
        _b_grad_att_raw += _gx
    # adjoint of att_raw = binary(atts, attt)
    _g = _b_grad_att_raw
    _ga = _g
    _gb = _g
    _ga = np.sum(_ga, axis=-1) if _ga.ndim > 1 else _ga
    _gb = np.sum(_gb, axis=-1) if _gb.ndim > 1 else _gb
    _b_grad_atts = env.get('grad_atts')
    if _b_grad_atts is None:
        _b_grad_atts = (_ga) + 0.0
        if _b_grad_atts.shape != env['atts'].shape:
            _b_grad_atts = np.zeros_like(env['atts'])
            _b_grad_atts += _ga
        env['grad_atts'] = _b_grad_atts
    else:
        _b_grad_atts += _ga
    _b_grad_attt = env.get('grad_attt')
    if _b_grad_attt is None:
        _b_grad_attt = (_gb) + 0.0
        if _b_grad_attt.shape != env['attt'].shape:
            _b_grad_attt = np.zeros_like(env['attt'])
            _b_grad_attt += _gb
        env['grad_attt'] = _b_grad_attt
    else:
        _b_grad_attt += _gb
    # adjoint of attt = typed_vec_dot(ht, w_t)
    _g = _b_grad_attt
    _b_grad_ht = env.get('grad_ht')
    if _b_grad_ht is None:
        _b_grad_ht = (_g[:, None] * _b_w_t[typ]) + 0.0
        if _b_grad_ht.shape != env['ht'].shape:
            _b_grad_ht = np.zeros_like(env['ht'])
            _b_grad_ht += _g[:, None] * _b_w_t[typ]
        env['grad_ht'] = _b_grad_ht
    else:
        _b_grad_ht += _g[:, None] * _b_w_t[typ]
    _b_grad_w_t = env.get('grad_w_t')
    if _b_grad_w_t is None:
        _b_grad_w_t = env['grad_w_t'] = np.zeros_like(env['w_t'])
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        _b_grad_w_t[t] += _g[start:end] @ _b_ht[start:end]
    # ---- gemm_2_dgrad + gemm_2_wgrad: merged adjoint segment loop ----
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    _b_grad_h = env.get('grad_h')
    if _b_grad_h is None:
        _b_grad_h = env['grad_h'] = np.zeros_like(env['h'])
    grad_X = _b_grad_h
    contrib = np.empty((_c_num_edges, 64), dtype=_b_grad_ht.dtype)
    _b_grad_W = env.get('grad_W')
    if _b_grad_W is None:
        _b_grad_W = env['grad_W'] = np.zeros_like(env['W'])
    grad_W = _b_grad_W
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        rows = slice(start, end)
        gY = _b_grad_ht[rows]
        W_t = _b_W[t]
        contrib[rows] = gY @ W_t.T
        Xg = _b_h[_c_edge_dst[rows]]
        grad_W[t] += Xg.T @ gY
    _scatter_add(grad_X, _c_edge_dst, contrib, fresh=True, ctx=ctx, attr='edge_dst')
    # ---- traversal_1_bwd: traversal_1_bwd: traversal over edge {rows/block: 128, threads/row: 32, partial_agg: True} atomics=True | atts=typed_vec_dot(hs, w_s) ----
    n_rows = _c_num_edges
    src, dst, typ = _c_edge_src, _c_edge_dst, _c_edge_type
    # adjoint of atts = typed_vec_dot(hs, w_s)
    _g = _b_grad_atts
    _b_grad_hs = env.get('grad_hs')
    if _b_grad_hs is None:
        _b_grad_hs = (_g[:, None] * _b_w_s[typ]) + 0.0
        if _b_grad_hs.shape != env['hs'].shape:
            _b_grad_hs = np.zeros_like(env['hs'])
            _b_grad_hs += _g[:, None] * _b_w_s[typ]
        env['grad_hs'] = _b_grad_hs
    else:
        _b_grad_hs += _g[:, None] * _b_w_s[typ]
    _b_grad_w_s = env.get('grad_w_s')
    if _b_grad_w_s is None:
        _b_grad_w_s = env['grad_w_s'] = np.zeros_like(env['w_s'])
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        _b_grad_w_s[t] += _g[start:end] @ _b_hs[start:end]
    # ---- gemm_1_dgrad + gemm_1_wgrad: merged adjoint segment loop ----
    seg_ptr = _s_etype_ptr
    num_segments = _c_num_etypes
    _b_grad_h = env.get('grad_h')
    if _b_grad_h is None:
        _b_grad_h = env['grad_h'] = np.zeros_like(env['h'])
    grad_X = _b_grad_h
    contrib = np.empty((_c_num_edges, 64), dtype=_b_grad_hs.dtype)
    _b_grad_W = env.get('grad_W')
    if _b_grad_W is None:
        _b_grad_W = env['grad_W'] = np.zeros_like(env['W'])
    grad_W = _b_grad_W
    for t in range(num_segments):
        start, end = seg_ptr[t], seg_ptr[t + 1]
        if end <= start:
            continue
        rows = slice(start, end)
        gY = _b_grad_hs[rows]
        W_t = _b_W[t]
        contrib[rows] = gY @ W_t.T
        Xg = _b_h[_c_edge_src[rows]]
        grad_W[t] += Xg.T @ gY
    _scatter_add(grad_X, _c_edge_src, contrib, ctx=ctx, attr='edge_src')
    return env
