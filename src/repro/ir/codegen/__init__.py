"""Code generation (Section 3.6): one emitter pipeline, several selections.

Every executing backend turns a :class:`~repro.ir.intra_op.plan.KernelPlan`
into Python/numpy source through the same three stages:

1. **builder** (:mod:`~repro.ir.codegen.builder`) — instantiates each
   kernel's GEMM / traversal / fallback template into a small statement IR
   (:mod:`~repro.ir.codegen.stmt`) with typed buffer, context and
   segment-index references; rows are stored by type, so a segment is a
   slice (a view, never a gather), a dgrad scatters once, after its loop, and
   a weighted scatter sums ``w · rows[through]`` without forming it;
2. **passes** (:mod:`~repro.ir.codegen.passes`) — IR→IR: merged adjoint and
   forward-projection segment loops, schema/occupancy unrolling,
   fresh-scatter specialisation, ensure-grad fusion;
3. **printer** (:mod:`~repro.ir.codegen.printer`) — one walker under a naming
   policy (per-kernel functions over ``env``/``ctx``, or one whole-plan
   function over hoisted locals); generated modules import their helpers
   (ensures, the one segment-sum scatter: a CSR product on full graphs, a
   bincount on small or 1-D targets) from :mod:`~repro.ir.codegen.helpers`.

The backends, selected through :mod:`~repro.ir.codegen.registry`
(``get_backend(name)``) or ``CompilerOptions(backend="...")``, are selections
over that pipeline and bit-identical to each other (``allclose`` to the eager
reference):

* ``python-interp`` — no passes, one function per kernel plus a fused
  dispatch program; the default runtime path.
* ``python-codegen`` — every pass, one specialised ``main_forward`` /
  ``main_backward`` per plan; faster on the compile-once-run-many path.
* ``mixed`` — ``python-codegen``'s source, byte for byte, re-specialised at
  bind time on the bound graph's segment occupancy (at most
  ``MAX_OCCUPANCY_VARIANTS`` memoised variants per module).

Print-only, outside the pipeline: ``cuda-emit``
(:mod:`~repro.ir.codegen.cuda_backend`, CUDA-like text for inspection and the
programming-effort metric) and :mod:`~repro.ir.codegen.host` (the
``TORCH_LIBRARY_FRAGMENT``-style host bindings of Figure 5).  Generated
sources persist across processes through the on-disk artifact cache
(:mod:`~repro.ir.codegen.artifact_cache`, ``$REPRO_CODEGEN_CACHE``).
"""

from repro.ir.codegen.python_backend import (
    GeneratedModule,
    OccupancySpecialisedModule,
    build_codegen_module,
    build_python_module,
)
from repro.ir.codegen.artifact_cache import (
    artifact_cache_stats,
    artifact_key_for,
    default_artifact_cache,
)
from repro.ir.codegen.cuda_backend import build_cuda_source
from repro.ir.codegen.host import generate_host_source
from repro.ir.codegen.registry import (
    Backend,
    BackendOptions,
    SourceModule,
    available_backends,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "BackendOptions",
    "GeneratedModule",
    "OccupancySpecialisedModule",
    "SourceModule",
    "artifact_cache_stats",
    "artifact_key_for",
    "available_backends",
    "build_codegen_module",
    "build_cuda_source",
    "build_python_module",
    "default_artifact_cache",
    "generate_host_source",
    "get_backend",
    "register_backend",
]
