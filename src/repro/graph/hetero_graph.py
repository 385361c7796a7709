"""The :class:`HeteroGraph` container for typed nodes and edges.

The graph keeps both the DGL-style per-relation view (canonical edge types
``(src node type, relation, dst node type)`` with local node indices) and a
flattened homogenised view (global node ids, parallel ``src`` / ``dst`` /
``etype`` arrays).  The flattened view is what the Hector templates and the
baseline simulators consume; the per-relation view is what per-relation-loop
baselines (DGL HeteroConv, PyG ``RGCNConv``) iterate over.

Nodes of the same type occupy a contiguous global id range ("nodes are
presorted by type"), which is the precondition for segment matrix multiply on
nodewise typed linear layers (Section 4.1 of the paper).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.graph.adjacency import (
    COOAdjacency,
    CSRAdjacency,
    SegmentPointers,
    build_csr_by_dst,
    build_segment_pointers,
)
from repro.graph.compaction import CompactionIndex, build_compaction_index

CanonicalEtype = Tuple[str, str, str]


class HeteroGraph:
    """A heterogeneous graph with typed nodes and edges.

    Args:
        num_nodes_per_type: mapping from node type name to node count.
        edges_per_relation: mapping from canonical edge type
            ``(src_type, relation_name, dst_type)`` to a pair of integer arrays
            ``(src_local_ids, dst_local_ids)`` expressed in each node type's
            local index space.
        name: optional dataset name for reporting.
    """

    def __init__(
        self,
        num_nodes_per_type: Mapping[str, int],
        edges_per_relation: Mapping[CanonicalEtype, Tuple[np.ndarray, np.ndarray]],
        name: str = "hetero_graph",
    ):
        if not num_nodes_per_type:
            raise ValueError("a heterogeneous graph needs at least one node type")
        self.name = name
        self.node_type_names: List[str] = list(num_nodes_per_type.keys())
        self.num_nodes_per_type: Dict[str, int] = {
            ntype: int(count) for ntype, count in num_nodes_per_type.items()
        }
        for ntype, count in self.num_nodes_per_type.items():
            if count < 0:
                raise ValueError(f"node type {ntype!r} has negative count {count}")

        self._ntype_index: Dict[str, int] = {
            name_: idx for idx, name_ in enumerate(self.node_type_names)
        }
        counts = np.array([self.num_nodes_per_type[n] for n in self.node_type_names], dtype=np.int64)
        self.node_type_offsets: np.ndarray = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.node_type_offsets[1:])

        self.canonical_etypes: List[CanonicalEtype] = list(edges_per_relation.keys())
        self._etype_index: Dict[CanonicalEtype, int] = {
            etype: idx for idx, etype in enumerate(self.canonical_etypes)
        }
        self.edges_per_relation: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}

        src_chunks: List[np.ndarray] = []
        dst_chunks: List[np.ndarray] = []
        etype_chunks: List[np.ndarray] = []
        for etype, (src_local, dst_local) in edges_per_relation.items():
            src_type, _, dst_type = etype
            if src_type not in self._ntype_index or dst_type not in self._ntype_index:
                raise ValueError(f"edge type {etype} references unknown node types")
            src_local = np.asarray(src_local, dtype=np.int64)
            dst_local = np.asarray(dst_local, dtype=np.int64)
            if len(src_local) != len(dst_local):
                raise ValueError(f"edge type {etype} has mismatched src/dst arrays")
            if len(src_local) and (
                src_local.max() >= self.num_nodes_per_type[src_type]
                or dst_local.max() >= self.num_nodes_per_type[dst_type]
                or src_local.min() < 0
                or dst_local.min() < 0
            ):
                raise ValueError(f"edge type {etype} has out-of-range node indices")
            self.edges_per_relation[etype] = (src_local, dst_local)
            src_chunks.append(src_local + self.node_type_offset(src_type))
            dst_chunks.append(dst_local + self.node_type_offset(dst_type))
            etype_chunks.append(np.full(len(src_local), self._etype_index[etype], dtype=np.int64))

        if src_chunks:
            self.edge_src: np.ndarray = np.concatenate(src_chunks)
            self.edge_dst: np.ndarray = np.concatenate(dst_chunks)
            self.edge_type: np.ndarray = np.concatenate(etype_chunks)
        else:
            self.edge_src = np.zeros(0, dtype=np.int64)
            self.edge_dst = np.zeros(0, dtype=np.int64)
            self.edge_type = np.zeros(0, dtype=np.int64)

    @classmethod
    def from_flat(
        cls,
        parent: "HeteroGraph",
        node_type_offsets: np.ndarray,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        etype_ptr: np.ndarray,
        name: str = "hetero_graph",
    ) -> "HeteroGraph":
        """A graph over ``parent``'s type vocabulary, from the flattened view itself.

        ``edge_src`` / ``edge_dst`` hold global node ids with relation ``r``
        stored as the edge range ``etype_ptr[r]:etype_ptr[r + 1]`` (the layout
        the constructor produces), and ``node_type_offsets`` delimits the node
        types.  The vocabulary objects are shared with ``parent``, so a sampled
        block costs no per-relation Python work; the per-relation view
        (:attr:`edges_per_relation`) is derived on first use.
        """
        num_etypes = len(parent.canonical_etypes)
        if len(node_type_offsets) != len(parent.node_type_names) + 1:
            raise ValueError(f"expected {len(parent.node_type_names) + 1} node type offsets")
        if (
            len(etype_ptr) != num_etypes + 1
            or etype_ptr[0] != 0
            or not len(edge_src) == len(edge_dst) == etype_ptr[-1]
        ):
            raise ValueError(f"etype_ptr does not delimit {num_etypes} relations over the edge arrays")
        counts = np.diff(etype_ptr)
        endpoint_types = parent.etype_endpoint_types
        endpoints = np.stack((edge_src, edge_dst))
        first = np.repeat(node_type_offsets[endpoint_types], counts, axis=1)
        end = np.repeat(node_type_offsets[endpoint_types + 1], counts, axis=1)
        outside = (endpoints < first) | (endpoints >= end)
        if outside.any():
            edge = int(np.flatnonzero(outside.any(axis=0))[0])
            etype = parent.canonical_etypes[int(np.searchsorted(etype_ptr, edge, side="right")) - 1]
            raise ValueError(f"edge type {etype} has out-of-range node indices")

        graph = cls.__new__(cls)
        graph.name = name
        graph.node_type_names = parent.node_type_names
        graph._ntype_index = parent._ntype_index
        graph.canonical_etypes = parent.canonical_etypes
        graph._etype_index = parent._etype_index
        graph.node_type_offsets = node_type_offsets
        graph.num_nodes_per_type = dict(zip(parent.node_type_names, np.diff(node_type_offsets).tolist()))
        graph.edge_src = edge_src
        graph.edge_dst = edge_dst
        graph.edge_type = np.repeat(np.arange(num_etypes, dtype=np.int64), counts)
        graph.etype_endpoint_types = endpoint_types
        graph.edge_segments = SegmentPointers(
            offsets=etype_ptr, permutation=np.arange(len(edge_src), dtype=np.int64)
        )
        return graph

    # ------------------------------------------------------------------
    # counts and lookups
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes across all types."""
        return int(self.node_type_offsets[-1])

    @property
    def num_edges(self) -> int:
        """Total number of edges across all relations."""
        return len(self.edge_src)

    @property
    def num_node_types(self) -> int:
        return len(self.node_type_names)

    @property
    def num_edge_types(self) -> int:
        return len(self.canonical_etypes)

    def node_type_offset(self, ntype: str) -> int:
        """Global id of the first node of type ``ntype``."""
        return int(self.node_type_offsets[self._ntype_index[ntype]])

    def node_type_id(self, ntype: str) -> int:
        """Integer id of a node type name."""
        return self._ntype_index[ntype]

    def edge_type_id(self, etype: CanonicalEtype) -> int:
        """Integer id of a canonical edge type."""
        return self._etype_index[etype]

    def num_nodes_of_type(self, ntype: str) -> int:
        return self.num_nodes_per_type[ntype]

    def num_edges_of_relation(self, etype: CanonicalEtype) -> int:
        return len(self.edges_per_relation[etype][0])

    @cached_property
    def etype_endpoint_types(self) -> np.ndarray:
        """``(2, num_edge_types)``: source / destination node type id of every relation (read-only)."""
        index = self._ntype_index
        types = np.array(
            [[index[etype[0]] for etype in self.canonical_etypes],
             [index[etype[2]] for etype in self.canonical_etypes]],
            dtype=np.int64,
        ).reshape(2, -1)
        types.flags.writeable = False
        return types

    @cached_property
    def edges_per_relation(self) -> Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]]:
        """The per-relation view: ``(src_local_ids, dst_local_ids)`` by canonical edge type."""
        bounds = self.edge_segments.offsets.tolist()
        src_first, dst_first = self.node_type_offsets[self.etype_endpoint_types].tolist()
        return {
            etype: (
                self.edge_src[bounds[r]:bounds[r + 1]] - src_first[r],
                self.edge_dst[bounds[r]:bounds[r + 1]] - dst_first[r],
            )
            for r, etype in enumerate(self.canonical_etypes)
        }

    @cached_property
    def node_type_ids(self) -> np.ndarray:
        """Per-node integer node type (global node id order)."""
        ids = np.empty(self.num_nodes, dtype=np.int64)
        for idx, ntype in enumerate(self.node_type_names):
            start = self.node_type_offsets[idx]
            end = self.node_type_offsets[idx + 1]
            ids[start:end] = idx
        return ids

    @cached_property
    def average_degree(self) -> float:
        """Average in-degree (edges per node)."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_edges / self.num_nodes

    def in_degrees(self) -> np.ndarray:
        """Number of incoming edges per (global) node."""
        return np.bincount(self.edge_dst, minlength=self.num_nodes)

    def out_degrees(self) -> np.ndarray:
        """Number of outgoing edges per (global) node."""
        return np.bincount(self.edge_src, minlength=self.num_nodes)

    def relation_edge_counts(self) -> np.ndarray:
        """Number of edges of each edge type, indexed by edge type id."""
        return np.bincount(self.edge_type, minlength=self.num_edge_types)

    def degree_normalization(self) -> np.ndarray:
        """Per-edge ``1 / c_{v,r}`` factors used by RGCN aggregation.

        ``c_{v,r}`` is the number of incoming edges of relation ``r`` at
        destination ``v`` (Schlichtkrull et al.'s default normalisation).
        """
        if self.num_edges == 0:
            return np.zeros(0)
        keys = self.edge_dst * self.num_edge_types + self.edge_type
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        return 1.0 / counts[inverse].astype(np.float64)

    # ------------------------------------------------------------------
    # derived structures (cached)
    # ------------------------------------------------------------------
    @cached_property
    def coo(self) -> COOAdjacency:
        """Flattened COO adjacency."""
        return COOAdjacency(src=self.edge_src, dst=self.edge_dst, etype=self.edge_type)

    @cached_property
    def csr_by_dst(self) -> CSRAdjacency:
        """CSR adjacency grouped by destination node (incoming edges)."""
        return build_csr_by_dst(self.edge_src, self.edge_dst, self.edge_type, self.num_nodes)

    @cached_property
    def edge_segments(self) -> SegmentPointers:
        """Edges sorted (stably) by edge type: the ``etype_ptr`` structure."""
        return build_segment_pointers(self.edge_type, self.num_edge_types)

    @cached_property
    def node_segments(self) -> SegmentPointers:
        """Nodes grouped by node type (already contiguous by construction)."""
        return SegmentPointers(
            offsets=self.node_type_offsets.copy(),
            permutation=np.arange(self.num_nodes, dtype=np.int64),
        )

    @cached_property
    def compaction(self) -> CompactionIndex:
        """Unique ``(source node, edge type)`` mapping for compact materialization."""
        return build_compaction_index(self.edge_src, self.edge_type, self.num_edge_types)

    @property
    def entity_compaction_ratio(self) -> float:
        """Unique ``(source node, edge type)`` pairs divided by edges."""
        return self.compaction.compaction_ratio

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def add_reverse_edges(self) -> "HeteroGraph":
        """Return a new graph with a reverse relation added per relation.

        Mirrors the default OGB/DGL preprocessing mentioned under Table 3
        ("adding inverse edges").
        """
        new_edges: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}
        for (src_t, rel, dst_t), (src_local, dst_local) in self.edges_per_relation.items():
            new_edges[(src_t, rel, dst_t)] = (src_local, dst_local)
            reverse_key = (dst_t, f"rev_{rel}", src_t)
            if reverse_key not in self.edges_per_relation:
                new_edges[reverse_key] = (dst_local.copy(), src_local.copy())
        return HeteroGraph(self.num_nodes_per_type, new_edges, name=f"{self.name}+rev")

    def add_self_loops(self, relation_name: str = "self_loop") -> "HeteroGraph":
        """Return a new graph with a self-loop relation per node type.

        This is the explicit form of RGCN's *virtual self-loop* (Figure 1).
        Models in this repository instead apply ``W_0`` directly, so this
        helper mostly exists for dataset preparation experiments.
        """
        new_edges = dict(self.edges_per_relation)
        for ntype, count in self.num_nodes_per_type.items():
            key = (ntype, f"{relation_name}_{ntype}", ntype)
            ids = np.arange(count, dtype=np.int64)
            new_edges[key] = (ids, ids.copy())
        return HeteroGraph(self.num_nodes_per_type, new_edges, name=f"{self.name}+self")

    def subgraph_by_edge_fraction(self, fraction: float, seed: int = 0) -> "HeteroGraph":
        """Uniformly subsample each relation's edges by ``fraction``."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        new_edges: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}
        for etype, (src_local, dst_local) in self.edges_per_relation.items():
            count = len(src_local)
            keep = max(1, int(round(count * fraction))) if count else 0
            if keep >= count:
                new_edges[etype] = (src_local, dst_local)
            else:
                selected = rng.choice(count, size=keep, replace=False)
                selected.sort()
                new_edges[etype] = (src_local[selected], dst_local[selected])
        return HeteroGraph(self.num_nodes_per_type, new_edges, name=f"{self.name}@{fraction:g}")

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, float]:
        """Summary statistics in the style of Table 3."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_node_types": self.num_node_types,
            "num_edges": self.num_edges,
            "num_edge_types": self.num_edge_types,
            "average_degree": self.average_degree,
            "entity_compaction_ratio": self.entity_compaction_ratio,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HeteroGraph(name={self.name!r}, nodes={self.num_nodes} ({self.num_node_types} types), "
            f"edges={self.num_edges} ({self.num_edge_types} types))"
        )
