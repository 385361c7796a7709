"""The benchmark's workloads and the inputs generated for them.

A workload is a graph regime plus a serving traffic mix.  The driver wants
every end-to-end metric from every workload, so each one runs every phase
(compile sweep, full-graph cells, two minibatch trainers, a three-tenant
router) on its *own* graph — but the phases a workload exists for get the
long blocks (the sizes below), the others short ones.  Inputs are a pure
function of ``(workload, seed)``:
the schema is fixed per workload (relation endpoints never depend on the
seed, unlike ``repro.graph.random_hetero_graph``) so every seed asks the
program for the same amount of work, and only edges, features, labels and
seed pools are drawn.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Seeds per serving request (every tenant, every workload).
SEEDS_PER_REQUEST = 3
#: Feature rows of one ``update_features`` write.
WRITE_ROWS = 16

#: The three serving tenants: name, model, layers, fanouts, backend.
TENANTS = (
    ("rgcn-a", "rgcn", 1, (8,), "python-interp"),
    ("rgat-b", "rgat", 2, (8, 4), "python-codegen"),
    ("hgt-c", "hgt", 1, (8, 4), "mixed"),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: graph shape, epoch size, serving traffic."""

    name: str
    why: str
    nodes: int
    edges: int
    node_types: int
    relations: int
    dim: int
    #: Seconds of one block of a full-graph cell (never fewer than 2 iterations).
    cell_block_s: float
    #: Training seeds per epoch (batch 32, accumulation 2, fanouts (8, 4)).
    train_seeds: int
    #: Requests draw their seeds from a per-tenant pool of this many nodes;
    #: ``None`` draws uniformly over all nodes (every draw a cache miss).
    hot_pool: Optional[int]
    #: Whether ``WRITE_ROWS`` feature rows per tenant are written before each serving block.
    writes: bool
    #: Requests per burst block / queries per latency block at the declared
    #: run length; fixed (not time-calibrated) so cache hit rates repeat.
    burst_requests: int
    queries: int

    def scaled(self, factor: float) -> "Workload":
        """A shrunken copy for ``--quick`` smoke runs (at most 2 node types and 4 relations)."""
        node_types, relations = min(self.node_types, 2), min(self.relations, 4)
        return replace(
            self,
            node_types=node_types,
            relations=relations,
            nodes=max(node_types * 8, int(self.nodes * factor)),
            edges=max(relations * 4, int(self.edges * factor)),
            cell_block_s=0.0,
            train_seeds=64,
            hot_pool=None if self.hot_pool is None else 16,
            burst_requests=24,
            queries=12,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fullgraph_manyrel",
            "48 relations (past the 32-segment unroll limit): per-relation loops and Python dispatch "
            "dominate, numpy kernels little; the emitters and compile cost show here",
            nodes=3000, edges=12000, node_types=6, relations=48, dim=32,
            cell_block_s=0.07, train_seeds=384, hot_pool=64, writes=False, burst_requests=400, queries=200,
        ),
        Workload(
            "fullgraph_dense",
            "3 relations, 8 edges per node: gather/GEMM/scatter kernels and the arena dominate; "
            "the no-change control for dispatch savings",
            nodes=2400, edges=19200, node_types=2, relations=3, dim=32,
            cell_block_s=0.1, train_seeds=384, hot_pool=64, writes=False, burst_requests=900, queries=300,
        ),
        Workload(
            "minibatch_train",
            "7 node types, 12 relations, dim 16, 2048 training seeds per epoch: sampler draw memo, "
            "per-hop vs merged blocks, backward and Adam steps dominate",
            nodes=4000, edges=28000, node_types=7, relations=12, dim=16,
            cell_block_s=0.04, train_seeds=2048, hot_pool=64, writes=False, burst_requests=900, queries=300,
        ),
        Workload(
            "serve_hot",
            "requests draw from a 64-seed pool per tenant, so after warm-up every draw hits the "
            "per-seed cache: bind + execute + scheduler do the work, the sampler none",
            nodes=3000, edges=18000, node_types=4, relations=12, dim=32,
            cell_block_s=0.04, train_seeds=512, hot_pool=64, writes=False, burst_requests=1500, queries=600,
        ),
        Workload(
            "serve_churn",
            "seeds uniform over all nodes plus feature writes before each block, so every draw "
            "misses: draw + union assembly + eviction + invalidation do the work",
            nodes=3000, edges=18000, node_types=4, relations=12, dim=32,
            cell_block_s=0.04, train_seeds=512, hot_pool=None, writes=True, burst_requests=600, queries=300,
        ),
    )
}


@dataclass
class Inputs:
    """Everything the program is handed for one ``(workload, seed)``."""

    nodes_per_type: Dict[str, int]
    edges: Dict[Tuple[str, str, str], Tuple[np.ndarray, np.ndarray]]
    features: np.ndarray
    labels: np.ndarray
    train_ids: np.ndarray
    #: Per-tenant hot seed pools (all nodes when the workload has none).
    pools: Dict[str, np.ndarray]

    def digest(self) -> str:
        """SHA-256 over every generated array (the determinism check)."""
        arrays = [self.features, self.labels, self.train_ids, *self.pools.values()]
        arrays += [array for pair in self.edges.values() for array in pair]
        sha = hashlib.sha256()
        for array in arrays:
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()


def generate(workload: Workload, seed: int) -> Inputs:
    """Draw a workload's inputs from ``seed`` (same seed, same bytes)."""
    rng = np.random.default_rng([int(seed), 0])
    types, relations = workload.node_types, workload.relations
    per_type, extra = divmod(workload.nodes, types)
    nodes_per_type = {f"n{t}": per_type + (t < extra) for t in range(types)}
    names = list(nodes_per_type)
    per_relation, extra = divmod(workload.edges, relations)
    edges = {}
    for r in range(relations):
        src, dst = names[r % types], names[(r + 1 + r // types) % types]
        count = per_relation + (r < extra)
        edges[(src, f"r{r}", dst)] = (
            rng.integers(0, nodes_per_type[src], count),
            rng.integers(0, nodes_per_type[dst], count),
        )
    nodes = workload.nodes
    pool = nodes if workload.hot_pool is None else workload.hot_pool
    return Inputs(
        nodes_per_type=nodes_per_type,
        edges=edges,
        features=rng.standard_normal((nodes, workload.dim)),
        labels=rng.integers(0, workload.dim, nodes),
        train_ids=rng.choice(nodes, min(workload.train_seeds, nodes), replace=False),
        pools={
            tenant[0]: (np.arange(nodes) if pool >= nodes else rng.choice(nodes, pool, replace=False))
            for tenant in TENANTS
        },
    )


def request_stream(inputs: Inputs, rng: np.random.Generator, count: int) -> List[Tuple[str, np.ndarray]]:
    """``count`` requests, round-robin across tenants, seeds from each pool."""
    names = [tenant[0] for tenant in TENANTS]
    picks = {
        name: inputs.pools[name][rng.integers(0, len(inputs.pools[name]), (count, SEEDS_PER_REQUEST))]
        for name in names
    }
    return [(names[i % len(names)], picks[names[i % len(names)]][i]) for i in range(count)]
