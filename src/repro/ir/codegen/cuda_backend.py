"""CUDA-like source text backend.

The real Hector emits CUDA kernels plus C++ host code (for the three models it
generates roughly 3K lines of CUDA and 5K lines of host code from 51 input
lines).  This reproduction cannot compile CUDA offline, so this backend emits
*CUDA-like source text* for inspection, documentation, and the
programming-effort metric of Section 4.1: each kernel instance becomes a
specialisation of the GEMM template (Algorithm 1) or the traversal template
(Algorithm 2), with its gather/scatter schemes, weight slicing, and schedule
constants baked in.  The text is not executed; the executable path is
:mod:`repro.ir.codegen.python_backend`.
"""

from __future__ import annotations

from typing import List

from repro.ir.intra_op.access import GatherKind, ScatterKind
from repro.ir.intra_op.kernels import FallbackKernel, GemmKernel, KernelInstance, TraversalKernel
from repro.ir.intra_op.plan import KernelPlan

_HEADER = """// Generated by Hector's CUDA backend (reproduction).
// Each __global__ function below is a specialisation of either the GEMM
// template (Algorithm 1) or the node/edge traversal template (Algorithm 2).
#include <cuda_runtime.h>
#include <cstdint>

#define FULL_MASK 0xffffffff
"""


def build_cuda_source(plan: KernelPlan) -> str:
    """Emit CUDA-like source text for every kernel in the plan.

    Besides the per-kernel specialisations, the text ends with the fused
    launch sequence: the single host-side function that issues every forward
    (and backward) launch in plan order — the CUDA counterpart of the Python
    backend's ``hector_forward`` / ``hector_backward`` program functions.

    This is the ``cuda-emit`` registrant of the backend registry
    (:mod:`repro.ir.codegen.registry`); it emits source only and cannot
    execute plans.
    """
    chunks: List[str] = [_HEADER]
    for kernel in plan.forward_kernels + plan.backward_kernels:
        chunks.append(_emit_kernel(kernel))
    chunks.append(_emit_launch_sequence(plan, "forward", plan.forward_kernels))
    if plan.backward_kernels:
        chunks.append(_emit_launch_sequence(plan, "backward", plan.backward_kernels))
    return "\n".join(chunks) + "\n"


def _emit_launch_sequence(plan: KernelPlan, direction: str, kernels: List[KernelInstance]) -> str:
    """The fused whole-pass launcher: one host call, N back-to-back launches."""
    symbol = "".join(c if c.isalnum() else "_" for c in plan.name)
    lines = [
        f"// ---- fused {direction} program of plan {plan.name} ----",
        f"void hector_{direction}_{symbol}(cudaStream_t stream) {{",
    ]
    for kernel in kernels:
        lines.append(f"  {kernel.name}<<<grid_{kernel.name}, block_{kernel.name}, 0, stream>>>(/* bound buffers */);")
    lines.append("}")
    return "\n".join(lines)


def _emit_kernel(kernel: KernelInstance) -> str:
    if isinstance(kernel, GemmKernel):
        return _emit_gemm(kernel)
    if isinstance(kernel, TraversalKernel):
        return _emit_traversal(kernel)
    if isinstance(kernel, FallbackKernel):
        return _emit_fallback(kernel)
    raise TypeError(f"unknown kernel type {type(kernel)!r}")


def _gather_snippet(kind: GatherKind, target: str) -> List[str]:
    if kind is GatherKind.EDGE_SRC:
        return [f"  // gather {target} rows through row_idx (COO source indices)",
                "  int64_t in_row = row_idx[idxRow];"]
    if kind is GatherKind.EDGE_DST:
        return [f"  // gather {target} rows through col_idx (COO destination indices)",
                "  int64_t in_row = col_idx[idxRow];"]
    if kind is GatherKind.UNIQUE_SRC:
        return [f"  // gather {target} rows through unique_row_idx (compact materialization)",
                "  int64_t in_row = unique_row_idx[idxRow];"]
    if kind is GatherKind.EDGE_TO_COMPACT:
        return [f"  // gather {target} rows through the edge -> unique (src, etype) map",
                "  int64_t in_row = edge_to_unique[idxRow];"]
    if kind is GatherKind.ETYPE_PERMUTATION:
        return [f"  // gather {target} rows through the edges-sorted-by-type permutation",
                "  int64_t in_row = etype_perm[idxRow];"]
    return [f"  // {target} rows are contiguous (no gather)",
            "  int64_t in_row = idxRow;"]


def _scatter_snippet(kind: ScatterKind) -> List[str]:
    if kind is ScatterKind.ETYPE_SEGMENT:
        return ["  // scatter through entry_idx_per_etype + etype_ptr[etype_idx]",
                "  int64_t out_row = etype_perm[idxRow];"]
    if kind is ScatterKind.UNIQUE_ETYPE_SEGMENT:
        return ["  // store per unique (source node, edge type) pair (unique_etype_ptr segments)",
                "  int64_t out_row = idxRow;"]
    if kind is ScatterKind.SCATTER_ADD_DST:
        return ["  // atomically accumulate into the destination node row",
                "  int64_t out_row = col_idx[idxRow];"]
    return ["  // output rows are contiguous (no scatter)", "  int64_t out_row = idxRow;"]


def _emit_gemm(kernel: GemmKernel) -> str:
    schedule = kernel.schedule
    lines: List[str] = []
    lines.append(f"// ---- GEMM template instance: {kernel.name} (role: {kernel.role}) ----")
    lines.append(f"// Y:({kernel.y.buffer}){kernel.y.access.describe()} = "
                 f"X:({kernel.x.buffer}){kernel.x.access.describe()} x W:({kernel.weight.buffer}, {kernel.type_selector})")
    lines.append(f"// schedule: {schedule.describe()}")
    bounds = f"__launch_bounds__({schedule.launch_bounds}) " if schedule.launch_bounds else ""
    lines.append(
        f"__global__ void {bounds}{kernel.name}(const float* __restrict__ X, const float* __restrict__ W,"
    )
    lines.append(
        "    float* __restrict__ Y, const int64_t* __restrict__ row_idx, const int64_t* __restrict__ col_idx,"
    )
    lines.append(
        "    const int64_t* __restrict__ etype_ptr, const int64_t* __restrict__ etype_perm,"
    )
    lines.append(
        "    const int64_t* __restrict__ unique_row_idx, const int64_t* __restrict__ edge_to_unique,"
    )
    lines.append("    int64_t num_rows, int64_t k_dim, int64_t n_dim, int64_t num_types) {")
    tile = schedule.tile_size
    lines.append(f"  __shared__ float X_shmem[{tile}][{tile}];")
    lines.append(f"  __shared__ float W_shmem[{tile}][{tile}];")
    lines.append("  // GetRange<kid>(): position this block's output tile")
    lines.append(f"  int64_t idxTileRow = blockIdx.x * {tile} + threadIdx.y;")
    lines.append(f"  int64_t idxTileCol = blockIdx.y * {tile} + threadIdx.x;")
    lines.append("  int64_t idxRow = idxTileRow;")
    lines.append("  if (idxRow >= num_rows) return;")
    lines += _gather_snippet(kernel.x.access.gather, "X")
    lines += _scatter_snippet(kernel.y.access.scatter)
    lines.append("  float acc = 0.0f;")
    lines.append(f"  for (int64_t kk = 0; kk < k_dim; kk += {tile}) {{")
    lines.append("    // LoadXToShmemIfInRange<kid>() / LoadWToShmemOrRegistersIfInRange<kid>()")
    lines.append("    X_shmem[threadIdx.y][threadIdx.x] = X[in_row * k_dim + kk + threadIdx.x];")
    if kernel.type_selector == "none":
        lines.append("    W_shmem[threadIdx.y][threadIdx.x] = W[(kk + threadIdx.y) * n_dim + idxTileCol];")
    else:
        lines.append("    int64_t etype = /* segment id from etype_ptr binary search */ 0;")
        lines.append("    W_shmem[threadIdx.y][threadIdx.x] = W[(etype * k_dim + kk + threadIdx.y) * n_dim + idxTileCol];")
    lines.append("    __syncthreads();")
    lines.append("    #pragma unroll")
    lines.append(f"    for (int i = 0; i < {tile}; ++i) acc += X_shmem[threadIdx.y][i] * W_shmem[i][threadIdx.x];")
    lines.append("    __syncthreads();")
    lines.append("  }")
    if schedule.per_row_scalar:
        lines.append(f"  acc *= {schedule.per_row_scalar}[idxRow];  // fused per-row scalar epilogue")
    if kernel.role in ("dgrad", "wgrad") or kernel.uses_atomics:
        lines.append("  // StoreYIfInRange<kid>(): atomic accumulation (multiple simultaneous updaters)")
        lines.append("  atomicAdd(&Y[out_row * n_dim + idxTileCol], acc);")
    else:
        lines.append("  // StoreYIfInRange<kid>()")
        lines.append("  Y[out_row * n_dim + idxTileCol] = acc;")
    lines.append("}")
    return "\n".join(lines)


def _emit_traversal(kernel: TraversalKernel) -> str:
    lines: List[str] = []
    lines.append(f"// ---- traversal template instance: {kernel.name} ({kernel.direction}) ----")
    lines.append(f"// domain: {kernel.domain.value}; schedule: {kernel.schedule.describe()}")
    if len(kernel.source_ops) > 1:
        lines.append(f"// fused from operators: {', '.join(kernel.source_ops)}")
    if kernel.local_values:
        lines.append(
            "// fused locals (registers/shmem only, never written to global memory): "
            + ", ".join(sorted(kernel.local_values))
        )
    lines.append(f"__global__ void {kernel.name}(")
    buffers = sorted(set(kernel.read_buffers() + kernel.written_buffers()))
    for buffer in buffers:
        lines.append(f"    float* __restrict__ {buffer},")
    lines.append("    const int64_t* __restrict__ row_idx, const int64_t* __restrict__ col_idx,")
    lines.append("    const int64_t* __restrict__ etypes, const int64_t* __restrict__ edge_to_unique,")
    lines.append("    int64_t num_rows, int64_t feat_dim) {")
    lines.append("  // GetRange<kid>(): one outer-loop row per block, threads over the feature dim")
    lines.append("  int64_t idxRow = blockIdx.x;")
    lines.append("  int64_t idxFeat = threadIdx.x;")
    lines.append("  if (idxRow >= num_rows || idxFeat >= feat_dim) return;")
    lines.append("  // GetEType<kid>() / GetSrcId<kid>() / GetDstId<kid>() (COO accessors)")
    lines.append("  int64_t eType = etypes[idxRow];")
    lines.append("  int64_t srcIdx = row_idx[idxRow];")
    lines.append("  int64_t dstIdx = col_idx ? col_idx[idxRow] : -1;")
    ops = kernel.micro_ops if kernel.direction == "forward" else list(reversed(kernel.micro_ops))
    for op in ops:
        prefix = "adjoint of " if kernel.direction == "backward" else ""
        lines.append(f"  // {prefix}{op.output} = {op.kind}({', '.join(op.inputs)})")
        if op.kind in ("dot", "typed_vec_dot"):
            lines.append("  float partial = 0.0f;  // warp-level partial-result aggregation")
            lines.append("  for (int64_t f = idxFeat; f < feat_dim; f += blockDim.x) partial += /* a[f] * b[f] */ 0.0f;")
            lines.append("  for (int off = 16; off > 0; off >>= 1) partial += __shfl_down_sync(FULL_MASK, partial, off);")
        elif op.kind == "scatter_add" or kernel.direction == "backward":
            lines.append(f"  atomicAdd(&{op.output if op.kind == 'scatter_add' else 'grad_' + op.inputs[0]}"
                         "[dstIdx * feat_dim + idxFeat], /* contribution */ 0.0f);")
        else:
            lines.append(f"  {op.output}[idxRow * feat_dim + idxFeat] = /* {op.kind} */ 0.0f;")
    lines.append("}")
    return "\n".join(lines)


def _emit_fallback(kernel: FallbackKernel) -> str:
    lines = [
        f"// ---- fallback (PyTorch runtime) op: {kernel.name} ----",
        f"// {kernel.op_kind} over {kernel.output[0]} — executed with at::bmm / libtorch, no kernel generated.",
    ]
    return "\n".join(lines)
