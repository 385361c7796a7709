"""Minibatch block sampling: per-request subgraphs for serving and training.

Production GNN inference does not run a compiled layer over one static full
graph — each request names a handful of *seed* nodes, and the system samples
their k-hop incoming neighborhood (capped per relation by a *fanout*) into a
compacted minibatch *block*.  This module produces such blocks as ordinary
:class:`~repro.graph.hetero_graph.HeteroGraph` objects that preserve the
parent's full schema (same node-type and relation vocabulary, in the same
order, with empty relations kept), so a schema-specialised compiled module
binds them directly — ``module.bind(block.graph)`` — and the whole existing
machinery (segment pointers, :class:`~repro.graph.compaction.CompactionIndex`
compact materialization, degree normalisation) applies to blocks unchanged.

A :class:`MinibatchBlock` additionally carries the index maps serving needs:
``node_map`` gathers parent-graph features into block order, and
``seed_positions`` scatters block outputs back to the request's seeds.

Everything here works in the parent's flat, relation-segmented edge space: a
drawn neighborhood (*positions*) is one sorted array of **global edge ids**
(indices into ``graph.edge_src`` / ``edge_dst``; relation ``r`` is the id range
``etype_ptr[r]:etype_ptr[r + 1]``), a hop expands its whole frontier with one
vectorised pass over an in-edge CSR, and a block is compacted from the id
array with a handful of ``searchsorted`` calls — no per-relation or
per-destination Python loop anywhere.

Sampling semantics (DGL-style incoming-neighbor sampling):

* hop 1 keeps at most ``fanouts[0]`` incoming edges per (seed, relation);
  hop ``k`` repeats from the nodes hop ``k-1`` reached;
* which edges a (node, relation) row keeps is decided by a **stateless
  per-edge key**, ``splitmix64(edge_id + salt)`` with the salt derived from
  ``(seed, epoch)`` — or ``(seed, epoch, shard)`` for a data-parallel worker's
  sampler: a row over the cap keeps its ``fanout`` smallest keys, a uniform
  sample without replacement.  A draw is therefore a pure function of
  (seed, epoch, shard, edge): the same node gets the same neighborhood in
  every minibatch of an epoch whatever was sampled before it, a fanout-``k``
  draw is a subset of the fanout-``2k`` draw, and nothing is memoised;
* a merged ``sample`` call expands a node at the hop that first reaches it
  (revisits are skipped), so per-relation in-degrees in a merged block never
  exceed that hop's cap; per-hop blocks draw their whole destination frontier
  under their own hop's cap;
* :meth:`NeighborSampler.resample` starts a new epoch by changing the salt, so
  epochs (and shards) draw *different* neighborhoods while any epoch is
  exactly reproducible from the base seed; ``shard=0`` yields the very salt
  unsharded training uses (numpy's ``SeedSequence`` absorbs the trailing zero
  word), so a 1-shard world reproduces plain training by construction, while
  shards >= 1 never alias any unsharded epoch;
* ``fanout=None`` keeps the full neighborhood, in which case every seed's
  one-hop aggregation over the block is *exact*: it matches the full-graph
  computation restricted to the seeds (the property the sampler tests pin).

Besides the merged block, :meth:`NeighborSampler.sample_blocks` emits one
block *per hop* (outermost hop first), the message-flow-graph form multilayer
models execute layer-by-hop: layer ``l`` of an ``L``-layer model runs over
``blocks[l-1]`` and only the rows of the next block's nodes survive the hop
boundary, so deep layers stop paying full-frontier aggregation cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.hetero_graph import HeteroGraph
from repro.graph.schema import GraphSchema

#: Per-hop fanout: max sampled incoming edges per (node, relation); None = all.
Fanout = Optional[int]
#: A drawn neighborhood: sorted global edge ids (merged), or one such array per hop.
Positions = Union[np.ndarray, List[np.ndarray]]


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 output function over a ``uint64`` array (arithmetic wraps)."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array by sorting.

    numpy >= 2.3 routes ``np.unique`` through a hash table that is several
    times slower than one sort at the few-thousand-element sizes sampling
    works at.
    """
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _split(keys: np.ndarray, owners: int, stride: int) -> List[np.ndarray]:
    """Per-owner ids of sorted ``owner * stride + id`` keys (copies: callers
    cache them one by one, and a view would pin the whole batch's array)."""
    bounds = np.searchsorted(keys, np.arange(owners + 1) * stride).tolist()
    ids = keys % stride
    return [ids[start:end].copy() for start, end in zip(bounds, bounds[1:])]


@dataclass
class MinibatchBlock:
    """A compacted sampled subgraph plus its parent-graph index maps.

    Attributes:
        graph: the block as a :class:`HeteroGraph` with the parent's full
            schema; node ids are block-local (contiguous, grouped by type).
        parent: the graph the block was sampled from.
        node_map: ``(block.num_nodes,)`` — parent global node id of every
            block node (the feature-gather map).
        seeds: the requested seed nodes, as parent global ids, request order.
        seed_positions: ``(len(seeds),)`` — block global node id of every
            seed (the output-scatter map).
        fanouts: the per-hop fanout configuration the block was sampled with.
    """

    graph: HeteroGraph
    parent: HeteroGraph
    node_map: np.ndarray
    seeds: np.ndarray
    seed_positions: np.ndarray
    fanouts: Tuple[Fanout, ...]

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def gather_features(self, parent_features: np.ndarray) -> np.ndarray:
        """Restrict a parent-graph feature matrix to the block's nodes."""
        parent_features = np.asarray(parent_features)
        if parent_features.shape[0] != self.parent.num_nodes:
            raise ValueError(
                f"expected {self.parent.num_nodes} parent feature rows "
                f"(graph {self.parent.name!r}), got {parent_features.shape[0]}"
            )
        return parent_features[self.node_map]

    def seed_outputs(self, block_rows: np.ndarray) -> np.ndarray:
        """Extract the per-seed rows from a block-shaped output matrix."""
        block_rows = np.asarray(block_rows)
        if block_rows.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"expected {self.graph.num_nodes} block rows, got {block_rows.shape[0]}"
            )
        return block_rows[self.seed_positions]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MinibatchBlock(parent={self.parent.name!r}, seeds={len(self.seeds)}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, fanouts={self.fanouts})"
        )


@dataclass
class HopBlock(MinibatchBlock):
    """One hop of a per-hop block sequence (see :meth:`NeighborSampler.sample_blocks`).

    Attributes (beyond :class:`MinibatchBlock`):
        hop: 1-based hop index; hop 1 is the innermost (its destinations are
            the seeds), hop ``k`` the outermost.
        dst_nodes: parent global ids of this hop's destination frontier —
            the nodes whose incoming neighborhoods were drawn, and therefore
            the only rows of this hop's output that are exact.  By
            construction ``blocks[i].dst_nodes == blocks[i+1].node_map`` in a
            ``sample_blocks`` result (hop boundaries compose).
        dst_positions: block-local node ids of ``dst_nodes``.
    """

    hop: int = 0
    dst_nodes: np.ndarray = None
    dst_positions: np.ndarray = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HopBlock(hop={self.hop}, parent={self.parent.name!r}, "
            f"dst={len(self.dst_nodes)}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"fanouts={self.fanouts})"
        )


def hop_gather_indices(outer: MinibatchBlock, inner: MinibatchBlock) -> np.ndarray:
    """Positions of ``inner``'s nodes inside ``outer``'s node order.

    The hop-boundary map of layer-by-hop execution: rows of a matrix shaped
    like ``outer``'s nodes, gathered with the returned indices, line up with
    ``inner``'s nodes.  Requires ``inner``'s node set to be a subset of
    ``outer``'s (true for adjacent blocks of one ``sample_blocks`` result,
    where ``inner.node_map == outer.dst_nodes``).
    """
    indices = np.searchsorted(outer.node_map, inner.node_map)
    indices = np.minimum(indices, max(len(outer.node_map) - 1, 0))
    if len(inner.node_map) and not np.array_equal(outer.node_map[indices], inner.node_map):
        raise ValueError(
            f"inner block's nodes are not a subset of the outer block's "
            f"(outer {outer.graph.name!r}, inner {inner.graph.name!r})"
        )
    return indices


class NeighborSampler:
    """K-hop incoming-neighbor sampler over one parent graph.

    Args:
        graph: the parent heterogeneous graph.
        fanouts: one entry per hop; each is the max number of incoming edges
            kept per (node, relation), or ``None`` for the full neighborhood.
        seed: base seed; a draw is a pure function of
            (seed, epoch, shard, edge) — never of call order.
        shard: optional data-parallel shard index.  A sharded sampler salts
            every epoch from ``(seed, epoch, shard)`` instead of
            ``(seed, epoch)``, so workers sharing a base seed draw distinct
            neighborhoods while any ``(epoch, shard)`` pair stays exactly
            replayable (see :meth:`resample`).

    The sampler holds no draw state: every block sampled between two
    :meth:`resample` calls sees the same neighborhood for the same node
    because the per-edge keys are the same, so fanout caps and in-epoch
    determinism hold across minibatches by construction.
    ``draw_misses`` counts the (relation, destination) rows drawn,
    ``draw_hits`` the frontier nodes a merged draw skipped because an earlier
    hop had already expanded them.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        fanouts: Sequence[Fanout] = (None,),
        seed: int = 0,
        shard: Optional[int] = None,
    ):
        if not len(fanouts):
            raise ValueError("fanouts needs at least one hop")
        for fanout in fanouts:
            if fanout is not None and fanout < 1:
                raise ValueError(f"fanout must be >= 1 or None (full), got {fanout}")
        self.graph = graph
        self.fanouts: Tuple[Fanout, ...] = tuple(fanouts)
        self.schema = GraphSchema.from_graph(graph)
        self.base_seed = int(seed)
        self.epoch = 0
        self.shard = None if shard is None else int(shard)
        self._salt = self._stream_salt(0, self.shard)
        self.draw_hits = 0
        self.draw_misses = 0
        # In-edge CSR over global edge ids.  Edges are stored by relation, so
        # the stable by-destination order lists a node's incoming edges
        # relation by relation: one slice per node, one run per (relation,
        # destination) row inside it.
        self._in_ptr = graph.csr_by_dst.indptr
        self._in_edges = graph.csr_by_dst.edge_ids
        self._edge_stride = max(graph.num_edges, 1)  # of ``owner * stride + edge`` keys
        rows_per_type = np.bincount(graph.etype_endpoint_types[1], minlength=graph.num_node_types)
        self._rows_per_node = rows_per_type[graph.node_type_ids]

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def _stream_salt(self, epoch: int, shard: Optional[int]) -> np.uint64:
        """The per-edge key salt of one ``(epoch, shard)`` stream, validated.

        ``SeedSequence`` entropy words must be non-negative; a negative epoch
        (or shard) crashes deep inside numpy with an opaque ``ValueError``, so
        both are rejected here with the argument named.
        """
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0 (seed words are non-negative), got {epoch}")
        if shard is not None and shard < 0:
            raise ValueError(f"shard must be >= 0 (seed words are non-negative), got {shard}")
        words = [self.base_seed, epoch] if shard is None else [self.base_seed, epoch, shard]
        return np.random.SeedSequence(words).generate_state(1, np.uint64)[0]

    def resample(self, epoch: Optional[int] = None, shard: Optional[int] = None) -> int:
        """Start a new sampling epoch; returns the epoch now in effect.

        Re-salts the per-edge keys from ``(base_seed, epoch)`` — or
        ``(base_seed, epoch, shard)`` for a sharded sampler — so the new epoch
        draws fresh neighborhoods yet is exactly reproducible: any sampler
        with the same base seed replays the same ``(epoch, shard)`` draws
        regardless of what earlier epochs (or other shards in between)
        sampled.  ``epoch`` defaults to the next epoch in sequence; ``shard``
        defaults to the sampler's current shard (sticky, so per-worker
        samplers stay in their own stream across epochs).
        """
        epoch = int(epoch) if epoch is not None else self.epoch + 1
        shard = self.shard if shard is None else int(shard)
        self._salt = self._stream_salt(epoch, shard)
        self.epoch = epoch
        self.shard = shard
        return self.epoch

    set_epoch = resample

    @property
    def draw_hit_rate(self) -> float:
        """``draw_hits / (draw_hits + draw_misses)``: skipped nodes against rows drawn."""
        lookups = self.draw_hits + self.draw_misses
        return self.draw_hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # drawing: (owner, node) frontiers -> (owner, edge) keys
    # ------------------------------------------------------------------
    def _validate_seeds(self, seeds) -> np.ndarray:
        graph = self.graph
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        if seeds.size == 0:
            raise ValueError("a minibatch needs at least one seed node")
        if seeds.min() < 0 or seeds.max() >= graph.num_nodes:
            raise ValueError(
                f"seed ids must lie in [0, {graph.num_nodes}) for graph {graph.name!r}"
            )
        return seeds

    def _draw(self, frontier: np.ndarray, fanout: Fanout) -> np.ndarray:
        """Kept incoming edges of a frontier, as sorted ``owner * E + edge`` keys.

        ``frontier`` holds distinct ``owner * N + node`` keys.  All rows are
        expanded in one pass; a (node, relation) row over the cap keeps the
        ``fanout`` edges with the smallest salted keys.
        """
        graph = self.graph
        owner, node = np.divmod(frontier, graph.num_nodes)
        self.draw_misses += int(self._rows_per_node[node].sum())
        start = self._in_ptr[node]
        degree = self._in_ptr[node + 1] - start
        total = int(degree.sum())
        # Flat slot i belongs to frontier entry entry[i]; its edge sits at CSR
        # slot (i - first flat slot of the entry) + start[entry].
        entry = np.repeat(np.arange(len(node)), degree)
        shift = start - (np.cumsum(degree) - degree)
        edges = self._in_edges[np.arange(total) + shift[entry]]
        if fanout is not None and total and int(degree.max()) > fanout:
            # Slots are in (entry, relation) order already: number the rows,
            # then one sort on (row, top 32 key bits) ranks each row's edges.
            relation = graph.edge_type[edges]
            new_row = np.ones(total, dtype=bool)
            new_row[1:] = (entry[1:] != entry[:-1]) | (relation[1:] != relation[:-1])
            row = np.cumsum(new_row) - 1
            keys = _splitmix64(edges.astype(np.uint64) + self._salt)
            ranked = (row.astype(np.uint64) << np.uint64(32)) | (keys >> np.uint64(32))
            by_key = np.argsort(ranked, kind="stable")
            kept = by_key[np.arange(total) - np.flatnonzero(new_row)[row] < fanout]
            edges, entry = edges[kept], entry[kept]
        return np.sort(owner[entry] * self._edge_stride + edges)

    def _expand(self, seeds, per_seed: bool, merged: bool) -> Tuple[List[np.ndarray], np.ndarray, int]:
        """Draw hop by hop; returns per-hop ``(owner, edge)`` keys, the sorted
        ``(owner, node)`` keys of every node touched, and the owner count.

        With ``per_seed`` every seed is its own owner (its neighborhood is
        drawn independently of the others, all in the same pass); otherwise
        the seed set is one owner.  ``merged`` expands only newly reached
        nodes at each hop; per-hop draws hop ``i+1`` for the whole node set of
        hop ``i``'s block.
        """
        graph = self.graph
        seeds = self._validate_seeds(seeds)
        owners = np.arange(len(seeds)) if per_seed else 0
        frontier = nodes = sorted_unique(owners * graph.num_nodes + seeds)
        hops: List[np.ndarray] = []
        for fanout in self.fanouts:
            drawn = self._draw(frontier, fanout)
            hops.append(drawn)
            owner, edge = np.divmod(drawn, self._edge_stride)
            reached = sorted_unique(owner * graph.num_nodes + graph.edge_src[edge])
            touched = sorted_unique(np.concatenate((nodes, reached)))
            if merged:
                seen = np.zeros(len(touched), dtype=bool)
                seen[np.searchsorted(touched, nodes)] = True
                frontier = touched[~seen]
                self.draw_hits += len(reached) - len(frontier)
            else:
                frontier = touched
            nodes = touched
        return hops, nodes, len(seeds) if per_seed else 1

    def merged_positions(self, seeds, per_seed: bool = False):
        """Kept edge ids of the merged k-hop block of ``seeds`` — the draw
        without the compaction.

        This is the cacheable half of :meth:`sample`: positions are global
        edge ids, deduplicated and sorted, so positions drawn for different
        seed sets union with one sort and re-compact via :meth:`assemble`.
        Under ``fanout=None`` the union of per-seed positions equals a fresh
        merged draw of the seed union (full neighborhoods compose), which is
        what makes per-seed block caching exact.

        With ``per_seed`` each seed's neighborhood is drawn on its own, all of
        them in one pass: the result is one ``(positions, nodes)`` pair per
        seed, ``nodes`` being the sorted node set the draw touches
        (:meth:`positions_nodes`) — exactly what ``len(seeds)`` one-seed calls
        would return.
        """
        hops, nodes, owners = self._expand(seeds, per_seed, merged=True)
        drawn = np.sort(np.concatenate(hops))  # a node is expanded once, so hops are disjoint
        if not per_seed:
            return drawn
        return list(zip(_split(drawn, owners, self._edge_stride), _split(nodes, owners, self.graph.num_nodes)))

    def hop_positions(self, seeds, per_seed: bool = False):
        """Per-hop kept edge ids, innermost hop first.

        The cacheable half of :meth:`sample_blocks`: entry ``i`` holds hop
        ``i+1``'s drawn edge ids (deduplicated, sorted).  Hop ``i+1``'s
        destination frontier is hop ``i``'s node set.  ``per_seed`` is as in
        :meth:`merged_positions`, each pair's positions being a per-hop list.
        """
        hops, nodes, owners = self._expand(seeds, per_seed, merged=False)
        if not per_seed:
            return hops
        per_hop = [_split(drawn, owners, self._edge_stride) for drawn in hops]
        return list(zip(map(list, zip(*per_hop)), _split(nodes, owners, self.graph.num_nodes)))

    def positions_nodes(self, seeds, positions: Positions) -> np.ndarray:
        """The node set (sorted parent global ids) a positions draw touches.

        ``positions`` is one edge-id array (:meth:`merged_positions`) or a
        list of them (:meth:`hop_positions`); the result is the union of
        ``seeds`` and every kept edge's endpoints — exactly the ``node_map``
        of the compacted block.
        """
        graph = self.graph
        edges = np.concatenate(positions) if isinstance(positions, list) else positions
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        return sorted_unique(np.concatenate((seeds, graph.edge_src[edges], graph.edge_dst[edges])))

    def assemble(
        self,
        seeds,
        positions: np.ndarray,
        required_nodes: Optional[np.ndarray] = None,
    ) -> MinibatchBlock:
        """Compact a block from sorted, deduplicated edge ids.

        The deterministic half of sampling: given positions (from
        :meth:`merged_positions`, or a union of cached per-seed draws), the
        resulting block is a pure function of ``(seeds, positions)``.  Block
        nodes are the sorted parent ids of the seeds, any ``required_nodes``
        (a destination frontier kept even where no edge touches it — the
        per-hop case) and every kept edge's endpoints, which is type-major
        order; block edges keep the parent's edge order, so every relation of
        the parent's vocabulary is a (possibly empty) contiguous range and
        edge-type ids keep indexing the same per-relation weights.
        """
        graph = self.graph
        seeds = self._validate_seeds(seeds)
        src, dst = graph.edge_src[positions], graph.edge_dst[positions]
        members = (seeds, src, dst) if required_nodes is None else (seeds, required_nodes, src, dst)
        node_map = sorted_unique(np.concatenate(members))
        block_id = np.empty(graph.num_nodes, dtype=np.int64)  # read only at node_map's ids
        block_id[node_map] = np.arange(len(node_map))
        block_graph = HeteroGraph.from_flat(
            graph,
            node_type_offsets=np.searchsorted(node_map, graph.node_type_offsets),
            edge_src=block_id[src],
            edge_dst=block_id[dst],
            etype_ptr=np.searchsorted(positions, graph.edge_segments.offsets),
            name=f"{graph.name}/block[{len(seeds)}s,{len(node_map)}n]",
        )
        return MinibatchBlock(
            graph=block_graph,
            parent=graph,
            node_map=node_map,
            seeds=seeds,
            seed_positions=block_id[seeds],
            fanouts=self.fanouts,
        )

    def assemble_hop_blocks(self, seeds, hops: List[np.ndarray]) -> List[HopBlock]:
        """Compact one block per hop from per-hop positions (see
        :meth:`hop_positions`); returns outermost hop first, exactly as
        :meth:`sample_blocks` does."""
        seeds = self._validate_seeds(seeds)
        if len(hops) != len(self.fanouts):
            raise ValueError(
                f"expected {len(self.fanouts)} per-hop position arrays, got {len(hops)}"
            )
        blocks: List[HopBlock] = []
        dst_frontier = sorted_unique(seeds)
        for hop_index, (fanout, positions) in enumerate(zip(self.fanouts, hops), start=1):
            block = self.assemble(seeds, positions, required_nodes=dst_frontier)
            dst_positions = np.searchsorted(block.node_map, dst_frontier)
            blocks.append(HopBlock(
                graph=block.graph,
                parent=block.parent,
                node_map=block.node_map,
                seeds=block.seeds,
                seed_positions=block.seed_positions,
                fanouts=(fanout,),
                hop=hop_index,
                dst_nodes=dst_frontier,
                dst_positions=dst_positions,
            ))
            dst_frontier = block.node_map
        return list(reversed(blocks))

    def sample(self, seeds) -> MinibatchBlock:
        """Sample the merged block of a set of seed nodes (parent global ids).

        A destination reached again at a later hop is not expanded a second
        time, so merged per-relation in-degrees never exceed the cap of the
        hop that first reached the node — the block-level fanout invariant.
        """
        return self.assemble(seeds, self.merged_positions(seeds))

    def sample_blocks(self, seeds) -> List[HopBlock]:
        """Sample one block per hop, outermost hop first.

        Returns ``[Block_hop_k, ..., Block_hop_1]`` where hop 1's destination
        frontier is the seed set and hop ``i+1``'s destination frontier is the
        *entire node set* of hop ``i``'s block — so layer ``l`` of an
        ``L``-layer model (``L == k``) executes over ``blocks[l-1]`` and
        computes exact rows precisely for the nodes layer ``l+1`` reads:

        * ``blocks[i].dst_nodes == blocks[i+1].node_map`` (hop boundaries
          compose), and ``blocks[-1].dst_nodes`` is the deduplicated seed set;
        * each hop's per-relation in-degrees respect that hop's fanout;
        * every hop preserves the parent's full relation vocabulary, so edge
          type ids keep indexing the same per-relation weights.

        Draws use the same per-edge keys as :meth:`sample`: within one epoch
        and under a uniform per-hop fanout, the outermost per-hop block and
        the merged k-hop block of the same seeds contain exactly the same
        edges, which is what makes per-hop vs merged aggregation-work
        comparisons edge-for-edge fair.
        """
        return self.assemble_hop_blocks(seeds, self.hop_positions(seeds))


def sample_block(
    graph: HeteroGraph,
    seeds,
    fanouts: Sequence[Fanout] = (None,),
    seed: int = 0,
) -> MinibatchBlock:
    """One-shot convenience wrapper around :class:`NeighborSampler`."""
    return NeighborSampler(graph, fanouts=fanouts, seed=seed).sample(seeds)
