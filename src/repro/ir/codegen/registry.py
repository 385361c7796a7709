"""Backend registry: pluggable code-generation targets for kernel plans.

Decouples plan lowering from artifact generation behind a small protocol, in
the style of gt4py's ``BaseBackend`` + ``register`` pattern:

* :class:`Backend` — ``name``, ``generate(plan, options) -> module``, and the
  capability flags ``executes`` (produces runnable callables),
  ``emits_source`` (produces inspectable source text), and
  ``supports_training`` (generates backward artifacts).
* :func:`register_backend` / :func:`get_backend` / :func:`available_backends`
  — the registry surface, re-exported from :mod:`repro`.

Registered on import: ``python-interp``, ``python-codegen`` and ``mixed``
(``python-codegen``'s source, re-specialised per bound graph) — selections
over the one builder → passes → printer pipeline (see :mod:`repro.ir.codegen`)
— and the print-only ``cuda-emit``.

A new executing target (numba, C via ctypes, …) is a further registrant — and,
over the same statement IR, a second printer rather than another emitter:
subclass :class:`Backend`, return an object exposing
``forward_program(env, ctx)`` / ``backward_program(env, ctx)``, and select it
with ``CompilerOptions(backend="<name>")``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.intra_op.plan import KernelPlan


@dataclass(frozen=True)
class BackendOptions:
    """Generation-time knobs the compiler hands to :meth:`Backend.generate`.

    Attributes:
        num_edge_types / num_node_types: relation counts of the graph schema
            the plan is compiled against, or ``None`` when compiling without
            a graph.  Backends may use them to specialise the artifact (the
            codegen backend unrolls its per-relation launch loops); the cache
            key already includes the schema fingerprint, so schema-specialised
            artifacts never leak across schemas.
        artifact_key: persistent artifact-cache key derived from the
            compilation-cache key (:func:`repro.ir.codegen.artifact_cache.
            artifact_key_for`); backends that generate-and-``exec`` use it to
            skip both on a warm process.  ``None`` disables persistence.
    """

    num_edge_types: Optional[int] = None
    num_node_types: Optional[int] = None
    artifact_key: Optional[str] = None


@dataclass
class SourceModule:
    """Artifact of an emit-only backend: source text, nothing runnable."""

    source: str

    def line_count(self) -> int:
        """Number of generated source lines (for the programming-effort metric)."""
        return len(self.source.splitlines())


class Backend(abc.ABC):
    """One code-generation target for lowered kernel plans.

    Attributes:
        name: registry key, the value of ``CompilerOptions(backend=...)``.
        executes: whether :meth:`generate` returns a runnable module (an
            object with ``forward_program`` / ``backward_program`` callables
            the :class:`~repro.runtime.executor.PlanExecutor` can drive).
            Emit-only backends (``cuda-emit``) set this ``False`` and are
            rejected as execution backends by ``compile_program``.
        emits_source: whether the generated artifact carries inspectable
            source text in a ``source`` attribute.
        supports_training: whether the backend generates backward artifacts
            for plans compiled with ``emit_backward=True``.
    """

    name: str = ""
    executes: bool = False
    emits_source: bool = True
    supports_training: bool = False

    @abc.abstractmethod
    def generate(self, plan: KernelPlan, options: Optional[BackendOptions] = None):
        """Produce this backend's artifact for ``plan``."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flags = ",".join(
            flag
            for flag in ("executes", "emits_source", "supports_training")
            if getattr(self, flag)
        )
        return f"<{type(self).__name__} {self.name!r} [{flags}]>"


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register ``backend`` under its ``name``; returns it for chaining.

    Args:
        backend: a :class:`Backend` instance with a non-empty ``name``.
        replace: allow overwriting an existing registration (tests, or
            swapping in an instrumented backend); re-registering a taken name
            without it is an error, so typos never shadow a real backend.
    """
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {backend.name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of every registered backend, sorted (deterministic across runs)."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# built-in registrants
# ----------------------------------------------------------------------
class PythonInterpBackend(Backend):
    """Per-kernel Python functions plus a fused dispatch program."""

    name = "python-interp"
    executes = True
    emits_source = True
    supports_training = True

    def generate(self, plan: KernelPlan, options: Optional[BackendOptions] = None):
        from repro.ir.codegen.python_backend import build_python_module

        return build_python_module(plan)


class PythonCodegenBackend(Backend):
    """One specialised whole-plan source function per direction."""

    name = "python-codegen"
    executes = True
    emits_source = True
    supports_training = True

    def generate(self, plan: KernelPlan, options: Optional[BackendOptions] = None):
        from repro.ir.codegen.python_backend import build_codegen_module

        return build_codegen_module(plan, options or BackendOptions())


class MixedBackend(Backend):
    """``python-codegen``'s whole-plan source, re-specialised per bound graph's occupancy."""

    name = "mixed"
    executes = True
    emits_source = True
    supports_training = True

    def generate(self, plan: KernelPlan, options: Optional[BackendOptions] = None):
        from repro.ir.codegen.python_backend import OccupancySpecialisedModule

        return OccupancySpecialisedModule(plan, options or BackendOptions())


class CudaEmitBackend(Backend):
    """CUDA-like source text for inspection; emits but never executes."""

    name = "cuda-emit"
    executes = False
    emits_source = True
    supports_training = True

    def generate(self, plan: KernelPlan, options: Optional[BackendOptions] = None):
        from repro.ir.codegen.cuda_backend import build_cuda_source

        return SourceModule(source=build_cuda_source(plan))


register_backend(PythonInterpBackend())
register_backend(PythonCodegenBackend())
register_backend(MixedBackend())
register_backend(CudaEmitBackend())
