"""Compilation cache: reuse compiled artefacts across calls and models.

Recompiling an RGNN layer on every ``compile_model`` / ``hector_compile`` call
repeats the pass pipeline, the lowering driver, and — most expensively — the
``exec`` of the generated Python kernels.  None of that work depends on
anything but the program's structure and the compiler options, so this module
provides a process-wide :class:`CompilationCache` keyed on

* a structural fingerprint of the inter-op program (operators, values,
  dimensions — not object identity),
* the :meth:`repro.frontend.config.CompilerOptions.cache_key` tuple — which
  includes ``options.backend``, so ``python-interp`` and ``python-codegen``
  artefacts of one program occupy distinct entries and a backend switch can
  never replay the other backend's generated module — and
* optionally a graph *schema* fingerprint (node/edge type vocabulary), so
  callers that specialise per schema get distinct entries.

Two models sharing a subprogram, or one model compiled repeatedly (the
compile-once-run-many serving pattern), hit the cache and receive the
identical :class:`~repro.frontend.compiler.CompilationResult`.  This mirrors
how gt4py's backends cache generated artefacts per builder fingerprint and
how slope compiles a program once into a single executable rather than
re-deriving it per call.

Exact node/edge counts deliberately never enter the key: compiled plans are
specialised per (schema, feature dims), not per graph size, so differently
sized sampled minibatch blocks of one graph replay one plan with zero
recompiles.  Size-dependent runtime state (arena slabs) is handled one layer
down, where :func:`repro.runtime.planner.dim_bucket` buckets runtime
dimensions into power-of-two classes and a
:class:`~repro.runtime.planner.SharedArenaBudget` shares one pooled arena per
(tenant, bucket).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.ir.inter_op.program import InterOpProgram

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids an import cycle
    from repro.frontend.compiler import CompilationResult
    from repro.frontend.config import CompilerOptions
    from repro.graph.hetero_graph import HeteroGraph

#: Cache keys: (program fingerprint, options key, graph-schema fingerprint).
CacheKey = Tuple[str, tuple, Optional[str]]


def fingerprint_program(program: InterOpProgram) -> str:
    """Stable structural fingerprint of an inter-op program.

    Two programs with the same values, operators, and dimensions fingerprint
    identically regardless of object identity, so independently built copies
    of a model share one cache entry.
    """
    digest = hashlib.sha256()
    digest.update(repr((program.name, program.in_dim, program.out_dim)).encode())
    for name in sorted(program.values):
        info = program.values[name]
        digest.update(
            repr(
                (
                    name,
                    info.space.value,
                    tuple(info.feature_shape),
                    info.per_type,
                    info.is_input,
                    info.is_parameter,
                    info.is_output,
                    info.dtype_bytes,
                )
            ).encode()
        )
    for operator in program.operators:
        digest.update(
            repr(
                (
                    operator.name,
                    operator.kind.value,
                    operator.context.value,
                    tuple(operator.inputs),
                    operator.output,
                    operator.type_selector.value,
                    tuple(sorted((k, v.value) for k, v in operator.bindings.items())),
                    tuple(sorted((k, repr(v)) for k, v in operator.attrs.items())),
                )
            ).encode()
        )
    return digest.hexdigest()


def fingerprint_graph_schema(graph: "HeteroGraph") -> str:
    """Fingerprint of a graph's *schema* (type vocabulary, not its edges).

    The generated kernels are specialised per schema — parameter shapes and
    segment counts follow the node/edge type vocabulary — but not per concrete
    edge list or node/edge count, so serving many graphs with one schema
    (including every minibatch block sampled from one parent graph) reuses one
    compilation.
    """
    digest = hashlib.sha256()
    digest.update(repr(tuple(sorted(graph.num_nodes_per_type))).encode())
    digest.update(repr(tuple(sorted(map(tuple, graph.canonical_etypes)))).encode())
    return digest.hexdigest()


def make_cache_key(
    program: InterOpProgram,
    options: "CompilerOptions",
    graph: Optional["HeteroGraph"] = None,
) -> CacheKey:
    """Build the full cache key for one compilation request."""
    schema = fingerprint_graph_schema(graph) if graph is not None else None
    return (fingerprint_program(program), options.cache_key(), schema)


def fingerprint_workload(workload) -> str:
    """Fingerprint of a workload's sizes (tuning without a concrete graph).

    Covers everything the cost model prices candidates against: node/edge
    counts, type vocabulary sizes, compaction opportunity, and the
    per-relation / per-node-type distributions.
    """
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                workload.num_nodes,
                workload.num_edges,
                workload.num_node_types,
                workload.num_edge_types,
                workload.num_unique_pairs,
            )
        ).encode()
    )
    digest.update(workload.relation_edge_counts.tobytes())
    digest.update(workload.node_type_counts.tobytes())
    return digest.hexdigest()


def make_tuning_key(
    program: InterOpProgram,
    graph: Optional["HeteroGraph"],
    in_dim: int,
    out_dim: int,
    device_name: str,
    mode: str,
    workload=None,
) -> str:
    """Key of one autotuning entry: program × schema × dims × device × mode.

    The tuning database is keyed the same way as the compilation cache —
    structural program fingerprint plus graph-*schema* fingerprint — so every
    graph sharing a schema reuses one tuned configuration, with the device
    and the tuning objective (``"inference"`` / ``"training"``) qualifying the
    entry.  A ``workload`` additionally scopes the entry by its size
    fingerprint: callers pass it when tuning against published dataset
    statistics, or when pricing a schema against an explicit workload (so
    different pricing workloads for one schema never collide on one record).
    Returned as a flat string so it can serve as a JSON object key in the
    on-disk database.
    """
    parts = []
    if graph is not None:
        parts.append(fingerprint_graph_schema(graph))
    if workload is not None:
        parts.append(fingerprint_workload(workload))
    scope = "+".join(parts) if parts else "any"
    return "|".join(
        [fingerprint_program(program), scope, f"{in_dim}x{out_dim}", device_name, mode]
    )


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CompilationCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CompilationCache:
    """Thread-safe map from :data:`CacheKey` to compilation results."""

    _entries: Dict[CacheKey, "CompilationResult"] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def lookup(self, key: CacheKey) -> Optional["CompilationResult"]:
        """Return the cached result for ``key``, recording a hit or miss."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return result

    def store(self, key: CacheKey, result: "CompilationResult") -> "CompilationResult":
        with self._lock:
            self._entries[key] = result
            return result

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide cache consulted when ``enable_compilation_cache`` is set.
_GLOBAL_CACHE = CompilationCache()


def global_compilation_cache() -> CompilationCache:
    """The default process-wide compilation cache."""
    return _GLOBAL_CACHE


def clear_compilation_cache() -> None:
    """Drop every entry of the global cache (tests, benchmarks)."""
    _GLOBAL_CACHE.clear()
