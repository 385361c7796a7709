"""Graph context: the index arrays generated kernels read.

This is the runtime counterpart of the paper's "layout choices" box in
Figure 5: the COO arrays (``row_idx`` / ``col_idx`` / edge types), edges
presorted by type (``etype_ptr`` + permutation), nodes grouped by type
(``ntype_ptr``), and the canonical edge-type → endpoint-node-type maps used
to resolve per-source/destination-node-type weights inside edge-type
segments.  Derived layouts are built on first read, so a binding builds only
what its plan reads: the compact-materialization mapping (``unique_src``,
``unique_etype_ptr``, ``edge_to_unique``; only a C plan reads it), the CSR
incidence a full-graph scatter sums through instead of atomics (edges by
destination) and the columns through which a weighted one reads its rows.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from repro.graph.adjacency import build_csr_by_dst
from repro.graph.compaction import CompactionIndex, build_compaction_index
from repro.graph.hetero_graph import HeteroGraph

#: Per-graph memo of preprocessed contexts; entries die with their graph.
_CONTEXT_CACHE: "weakref.WeakKeyDictionary[HeteroGraph, GraphContext]" = weakref.WeakKeyDictionary()

#: Guards the memo: the serving router's executor workers bind blocks (and
#: therefore call :meth:`GraphContext.cached`) from multiple threads, and a
#: WeakKeyDictionary mutating during a concurrent lookup is not safe.
_CONTEXT_CACHE_LOCK = threading.Lock()


@dataclass
class GraphContext:
    """Precomputed index arrays for one heterogeneous graph."""

    num_nodes: int
    num_edges: int
    num_etypes: int
    num_ntypes: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_type: np.ndarray
    etype_perm: np.ndarray
    etype_ptr: np.ndarray
    node_type_ids: np.ndarray
    ntype_ptr: np.ndarray
    etype_to_src_ntype: np.ndarray
    etype_to_dst_ntype: np.ndarray

    @classmethod
    def from_graph(cls, graph: HeteroGraph) -> "GraphContext":
        """Run the preprocessing the generated code requires on a graph.

        Raises ``ValueError`` unless edges are stored grouped by relation: kernels
        address relation ``t`` as the edge range ``etype_ptr[t]:etype_ptr[t + 1]``.
        """
        unsorted = np.flatnonzero(np.diff(graph.edge_type) < 0)
        if len(unsorted):
            edge = int(unsorted[0]) + 1
            raise ValueError(
                f"edges must be stored grouped by relation (edge_type non-decreasing): edge {edge} has "
                f"type {int(graph.edge_type[edge])} after type {int(graph.edge_type[edge - 1])}"
            )
        segments = graph.edge_segments
        etype_to_src, etype_to_dst = graph.etype_endpoint_types
        ctx = cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            num_etypes=graph.num_edge_types,
            num_ntypes=graph.num_node_types,
            edge_src=graph.edge_src,
            edge_dst=graph.edge_dst,
            edge_type=graph.edge_type,
            etype_perm=segments.permutation,
            etype_ptr=segments.offsets,
            node_type_ids=graph.node_type_ids,
            ntype_ptr=graph.node_type_offsets,
            etype_to_src_ntype=etype_to_src,
            etype_to_dst_ntype=etype_to_dst,
        )
        if "compaction" in graph.__dict__:  # the graph built it (the C/R decision reads it): share, not rebuild
            ctx.__dict__["compaction"] = graph.compaction
        return ctx

    @classmethod
    def cached(cls, graph: HeteroGraph) -> "GraphContext":
        """Memoised :meth:`from_graph`: one preprocessing per graph object.

        Compiled modules bound to the same graph share the index arrays (they
        are read-only at runtime), so repeated ``compile_model`` calls skip
        the segment/compaction preprocessing entirely.
        """
        with _CONTEXT_CACHE_LOCK:
            ctx = _CONTEXT_CACHE.get(graph)
        if ctx is None:
            # Preprocessing runs outside the lock (it can be expensive); a
            # concurrent duplicate for the same graph is benign — last write
            # wins and both contexts are equivalent read-only views.
            ctx = cls.from_graph(graph)
            with _CONTEXT_CACHE_LOCK:
                ctx = _CONTEXT_CACHE.setdefault(graph, ctx)
        elif "compaction" in graph.__dict__:  # the graph built its index since: share it unless ctx built one
            ctx.__dict__.setdefault("compaction", graph.compaction)
        return ctx

    @cached_property
    def compaction(self) -> CompactionIndex:
        """Unique ``(source node, edge type)`` mapping, built on first read (only C plans read it).

        Memoised in ``__dict__``; concurrent first reads may each build it, benignly.
        """
        return build_compaction_index(self.edge_src, self.edge_type, self.num_etypes)

    num_unique = property(lambda self: self.compaction.num_unique)
    unique_src = property(lambda self: self.compaction.unique_src)
    unique_etype = property(lambda self: self.compaction.unique_etype)
    unique_etype_ptr = property(lambda self: self.compaction.unique_etype_ptr)
    edge_to_unique = property(lambda self: self.compaction.edge_to_unique)

    def degree_normalization(self) -> np.ndarray:
        """Per-edge ``1 / c_{v,r}`` factors (RGCN normalisation).

        Pure graph structure, so it is computed once per context and the
        (read-only) array is shared across every forward call — the
        ``np.unique``/argsort pass it needs is comparable in cost to a whole
        small-graph forward and used to dominate serve-loop profiles.
        """
        cached = getattr(self, "_degree_norm", None)
        if cached is None:
            keys = self.edge_dst * self.num_etypes + self.edge_type
            _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
            cached = 1.0 / counts[inverse].astype(np.float64)
            cached.flags.writeable = False
            self._degree_norm = cached
        return cached

    def incidence(self, attr: str) -> scipy.sparse.csr_matrix:
        """The 0/1 matrix that sums rows scattered through index array ``attr`` (``edge_dst`` …).

        One row per target row (a node, or a unique pair for ``edge_to_unique``)
        and one column per index entry, columns ascending within a row (the
        stable grouping of :func:`~repro.graph.adjacency.build_csr_by_dst`), so
        ``incidence @ contrib`` adds each row's contributions in index order.
        Built once per context and array, read-only, and shared by every
        module bound here; concurrent first calls may each build it, benignly.
        """
        memo = self.__dict__.setdefault("_incidence", {})
        matrix = memo.get(attr)
        if matrix is None:
            index = getattr(self, attr)
            rows = self.num_unique if attr == "edge_to_unique" else self.num_nodes
            csr = build_csr_by_dst(index, index, index, rows)  # only the grouping by destination is read
            matrix = scipy.sparse.csr_matrix((np.ones(len(index)), csr.edge_ids, csr.indptr), shape=(rows, len(index)))
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False
            matrix = memo.setdefault(attr, matrix)
        return matrix

    def gathered_columns(self, attr: str, through: str) -> np.ndarray:
        """``through[incidence(attr).indices]``: the columns with which ``incidence(attr)`` sums rows gathered
        through ``through`` (a weighted scatter).  Memoised and read-only, racing benignly, like :meth:`incidence`."""
        memo = self.__dict__.setdefault("_gathered_columns", {})
        if (attr, through) not in memo:
            indices = self.incidence(attr).indices
            columns = getattr(self, through)[indices].astype(indices.dtype)
            columns.flags.writeable = False
            memo.setdefault((attr, through), columns)
        return memo[(attr, through)]

    def index_array_bytes(self) -> int:
        """Device memory occupied by the index arrays built so far (for the memory model)."""
        arrays = [
            self.edge_src,
            self.edge_dst,
            self.edge_type,
            self.etype_perm,
            self.etype_ptr,
            self.node_type_ids,
            self.ntype_ptr,
        ]
        if "compaction" in self.__dict__:
            arrays += [self.unique_src, self.unique_etype, self.unique_etype_ptr, self.edge_to_unique]
        return int(sum(a.nbytes for a in arrays))
