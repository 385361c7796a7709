"""Sampler correctness: schema preservation, fanout caps, seed addressing,
and block-vs-full-graph execution equivalence.

The hypothesis properties pin the structural contract of
:mod:`repro.graph.sampler`; the execution tests pin the semantic one — with
unbounded fanout, a one-hop block's outputs at the seed nodes must equal the
eager full-graph reference restricted to those seeds, for every model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import CompilerOptions, compile_model
from repro.graph import HeteroGraph, NeighborSampler, hop_gather_indices, random_hetero_graph, sample_block
from repro.models import MODEL_NAMES, REFERENCE_CLASSES

DIM = 8


@st.composite
def graph_and_seeds(draw):
    """A random parent graph plus a non-empty seed set drawn from it."""
    num_node_types = draw(st.integers(2, 3))
    num_edge_types = draw(st.integers(2, 6))
    num_nodes = draw(st.integers(num_node_types * 4, 60))
    num_edges = draw(st.integers(num_edge_types, 180))
    graph_seed = draw(st.integers(0, 1000))
    graph = random_hetero_graph(
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_node_types=num_node_types,
        num_edge_types=num_edge_types,
        seed=graph_seed,
        name="prop",
    )
    seeds = draw(
        st.lists(st.integers(0, graph.num_nodes - 1), min_size=1, max_size=8, unique=True)
    )
    return graph, np.array(seeds, dtype=np.int64)


class TestBlockStructure:
    @settings(max_examples=40, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.one_of(st.none(), st.integers(1, 4)),
           rng_seed=st.integers(0, 100))
    def test_schema_fanout_and_seed_addressing(self, data, fanout, rng_seed):
        graph, seeds = data
        block = sample_block(graph, seeds, fanouts=(fanout,), seed=rng_seed)

        # Schema preserved, ordered: type ids keep indexing the same weights.
        assert block.graph.node_type_names == graph.node_type_names
        assert block.graph.canonical_etypes == graph.canonical_etypes

        # Fanout caps: per-relation in-degree within the block never exceeds
        # the cap (a node is expanded once per merged draw, even when the
        # frontier reaches it again).
        if fanout is not None:
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= fanout, etype

        # Seeds stay addressable through the scatter map.
        np.testing.assert_array_equal(block.node_map[block.seed_positions], seeds)
        assert block.num_nodes >= len(np.unique(seeds))

        # Every block edge exists in the parent (per relation, as a multiset).
        for etype, (src_b, dst_b) in block.graph.edges_per_relation.items():
            if not len(src_b):
                continue
            src_p, dst_p = graph.edges_per_relation[etype]
            parent_pairs = {(int(s), int(d)) for s, d in zip(src_p, dst_p)}
            src_type, _, dst_type = etype
            src_off = block.graph.node_type_offset(src_type)
            dst_off = block.graph.node_type_offset(dst_type)
            for s, d in zip(src_b, dst_b):
                parent_s = int(block.node_map[src_off + s]) - graph.node_type_offset(src_type)
                parent_d = int(block.node_map[dst_off + d]) - graph.node_type_offset(dst_type)
                assert (parent_s, parent_d) in parent_pairs, etype

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), rng_seed=st.integers(0, 100))
    def test_full_fanout_keeps_every_seed_in_edge(self, data, rng_seed):
        """fanout=None one-hop blocks contain every incoming edge of a seed."""
        graph, seeds = data
        block = sample_block(graph, seeds, fanouts=(None,), seed=rng_seed)
        seed_set = set(seeds.tolist())
        expected = int(np.isin(graph.edge_dst, list(seed_set)).sum())
        assert block.num_edges == expected

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3))
    def test_sampling_is_deterministic_per_sampler_seed(self, data, fanout):
        graph, seeds = data
        first = sample_block(graph, seeds, fanouts=(fanout,), seed=9)
        second = sample_block(graph, seeds, fanouts=(fanout,), seed=9)
        np.testing.assert_array_equal(first.node_map, second.node_map)
        assert first.num_edges == second.num_edges
        for etype in graph.canonical_etypes:
            for a, b in zip(first.graph.edges_per_relation[etype],
                            second.graph.edges_per_relation[etype]):
                np.testing.assert_array_equal(a, b)

    def test_multi_hop_reaches_two_hop_neighbors(self):
        # A chain a0 -> a1 -> a2 (by "to"): seeds {2} need two hops to pull a0.
        from repro.graph import HeteroGraph

        chain = HeteroGraph(
            {"a": 3},
            {("a", "to", "a"): (np.array([0, 1]), np.array([1, 2]))},
            name="chain",
        )
        one_hop = sample_block(chain, [2], fanouts=(None,))
        two_hop = sample_block(chain, [2], fanouts=(None, None))
        assert one_hop.num_nodes == 2 and one_hop.num_edges == 1
        assert two_hop.num_nodes == 3 and two_hop.num_edges == 2

    def test_rejects_bad_seeds_and_fanouts(self, small_graph):
        with pytest.raises(ValueError):
            sample_block(small_graph, [])
        with pytest.raises(ValueError):
            sample_block(small_graph, [small_graph.num_nodes])
        with pytest.raises(ValueError):
            sample_block(small_graph, [-1])
        with pytest.raises(ValueError):
            NeighborSampler(small_graph, fanouts=())
        with pytest.raises(ValueError):
            NeighborSampler(small_graph, fanouts=(0,))

    def test_gather_and_scatter_shapes_are_validated(self, small_graph, rng):
        block = sample_block(small_graph, [0, 5, 9])
        with pytest.raises(ValueError):
            block.gather_features(np.zeros((small_graph.num_nodes - 1, 4)))
        with pytest.raises(ValueError):
            block.seed_outputs(np.zeros((block.num_nodes + 1, 4)))


class TestPerHopBlocks:
    """Structural contract of ``sample_blocks``: one block per hop,
    outermost first, hop boundaries composing through the node maps."""

    @settings(max_examples=30, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_hop_boundary_node_maps_compose(self, data, fanouts, rng_seed):
        graph, seeds = data
        sampler = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed)
        blocks = sampler.sample_blocks(seeds)
        assert len(blocks) == len(fanouts)

        # Outermost first: hop indices count down to 1 at the seeds.
        assert [block.hop for block in blocks] == list(range(len(fanouts), 0, -1))

        # hop-k's destination set is exactly hop-(k-1)'s node set (src
        # frontier), and the innermost destinations are the seed set.
        for outer, inner in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(outer.dst_nodes, inner.node_map)
            gathered = hop_gather_indices(outer, inner)
            np.testing.assert_array_equal(outer.node_map[gathered], inner.node_map)
        np.testing.assert_array_equal(blocks[-1].dst_nodes, np.unique(seeds))

        # dst_positions address the destination frontier inside each block.
        for block in blocks:
            np.testing.assert_array_equal(block.node_map[block.dst_positions], block.dst_nodes)
            np.testing.assert_array_equal(block.node_map[block.seed_positions], seeds)

    @settings(max_examples=30, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_each_hop_respects_its_own_fanout(self, data, fanouts, rng_seed):
        """Per-relation in-degrees in hop i's block never exceed fanouts[i-1],
        even when hops use different caps (a revisited node must not carry a
        larger earlier draw into a tighter hop)."""
        graph, seeds = data
        blocks = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed).sample_blocks(seeds)
        for block, fanout in zip(blocks, reversed(fanouts)):
            assert block.fanouts == (fanout,)
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= fanout, (etype, block.hop)

    @settings(max_examples=20, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.one_of(st.none(), st.integers(1, 3)),
           rng_seed=st.integers(0, 100))
    def test_every_hop_preserves_the_relation_vocabulary(self, data, fanout, rng_seed):
        """Empty relations stay, in order, so etype ids keep indexing the
        same per-relation weights at every hop."""
        graph, seeds = data
        blocks = NeighborSampler(graph, fanouts=(fanout, fanout), seed=rng_seed).sample_blocks(seeds)
        for block in blocks:
            assert block.graph.canonical_etypes == graph.canonical_etypes
            assert block.graph.node_type_names == graph.node_type_names

    @settings(max_examples=15, deadline=None)
    @given(data=graph_and_seeds(), fanout=st.integers(1, 3), epoch=st.integers(0, 3))
    def test_resampling_with_same_seed_is_deterministic_across_epochs(self, data, fanout, epoch):
        """Two samplers with one base seed replay identical per-hop blocks
        for any epoch, independent of what earlier epochs drew."""
        graph, seeds = data
        first = NeighborSampler(graph, fanouts=(fanout, fanout), seed=13)
        second = NeighborSampler(graph, fanouts=(fanout, fanout), seed=13)
        for earlier in range(epoch):  # first sampler also samples earlier epochs
            first.resample(earlier)
            first.sample_blocks(seeds)
        first.resample(epoch)
        second.resample(epoch)
        for a, b in zip(first.sample_blocks(seeds), second.sample_blocks(seeds)):
            np.testing.assert_array_equal(a.node_map, b.node_map)
            assert a.num_edges == b.num_edges
            for etype in graph.canonical_etypes:
                for left, right in zip(a.graph.edges_per_relation[etype],
                                       b.graph.edges_per_relation[etype]):
                    np.testing.assert_array_equal(left, right)

    @settings(max_examples=25, deadline=None)
    @given(data=graph_and_seeds(),
           fanouts=st.lists(st.integers(1, 4), min_size=2, max_size=3),
           rng_seed=st.integers(0, 100))
    def test_merged_block_caps_hold_under_heterogeneous_fanouts(self, data, fanouts, rng_seed):
        """A destination reached again at a later merged hop is not expanded
        a second time even when the hops' fanouts differ, so merged
        per-relation in-degrees never exceed the largest configured cap."""
        graph, seeds = data
        block = NeighborSampler(graph, fanouts=fanouts, seed=rng_seed).sample(seeds)
        cap = max(fanouts)
        for etype, (_, dst_local) in block.graph.edges_per_relation.items():
            if len(dst_local):
                assert np.bincount(dst_local).max() <= cap, etype

    def test_merged_block_equals_outermost_hop_under_uniform_fanout(self, medium_graph):
        """Within one epoch (same per-edge keys) the merged 2-hop block and the
        outermost per-hop block contain exactly the same edges — the basis of
        edge-for-edge per-hop vs merged work accounting."""
        sampler = NeighborSampler(medium_graph, fanouts=(3, 3), seed=4)
        seeds = np.array([0, 17, 55, 120, 199])
        blocks = sampler.sample_blocks(seeds)
        merged = sampler.sample(seeds)
        assert blocks[0].num_edges == merged.num_edges
        np.testing.assert_array_equal(blocks[0].node_map, merged.node_map)
        # ... and the inner hop is a strict subset on any graph with depth.
        assert blocks[1].num_edges <= blocks[0].num_edges


class TestEpochResampling:
    """Draws are keyed by epoch: stable within an epoch, fresh across
    epochs, reproducible from the base seed."""

    def test_draws_repeat_within_an_epoch(self, medium_graph):
        sampler = NeighborSampler(medium_graph, fanouts=(2,), seed=0)
        seeds = np.arange(0, 40)
        first = sampler.sample(seeds)
        sampler.sample(np.arange(30, 90))  # other draws in between change nothing
        second = sampler.sample(seeds)
        np.testing.assert_array_equal(first.node_map, second.node_map)
        for etype in medium_graph.canonical_etypes:
            for a, b in zip(first.graph.edges_per_relation[etype],
                            second.graph.edges_per_relation[etype]):
                np.testing.assert_array_equal(a, b)

    def test_fanout_cap_holds_across_overlapping_minibatches(self, medium_graph):
        """Two same-epoch minibatches sharing destinations draw the same edges
        for them, so the union of their blocks still respects the cap per
        destination."""
        sampler = NeighborSampler(medium_graph, fanouts=(2,), seed=0)
        block_a = sampler.sample(np.arange(0, 30))
        block_b = sampler.sample(np.arange(15, 45))  # overlaps 15..29
        for block in (block_a, block_b):
            for etype, (_, dst_local) in block.graph.edges_per_relation.items():
                if len(dst_local):
                    assert np.bincount(dst_local).max() <= 2
        union = sampler.assemble(np.arange(0, 45), np.union1d(
            sampler.merged_positions(np.arange(0, 30)), sampler.merged_positions(np.arange(15, 45))
        ))
        assert union.num_edges == sampler.sample(np.arange(0, 45)).num_edges

    def test_resample_draws_fresh_neighborhoods(self, medium_graph):
        """Epochs must differ: without resample(), every epoch would train on
        exactly the first epoch's neighborhoods."""
        sampler = NeighborSampler(medium_graph, fanouts=(2,), seed=0)
        seeds = np.arange(0, 60)
        epoch_one = sampler.sample(seeds)
        sampler.resample()
        assert sampler.epoch == 1
        epoch_two = sampler.sample(seeds)
        assert any(
            not np.array_equal(epoch_one.graph.edges_per_relation[etype][0],
                               epoch_two.graph.edges_per_relation[etype][0])
            or not np.array_equal(epoch_one.node_map, epoch_two.node_map)
            for etype in medium_graph.canonical_etypes
        )

    def test_epochs_are_reproducible_from_the_base_seed(self, medium_graph):
        sampler_a = NeighborSampler(medium_graph, fanouts=(2,), seed=9)
        sampler_b = NeighborSampler(medium_graph, fanouts=(2,), seed=9)
        seeds = np.arange(0, 50)
        # a samples epochs 0..2; b jumps straight to epoch 2.
        results = {}
        for epoch in range(3):
            sampler_a.resample(epoch)
            results[epoch] = sampler_a.sample(seeds)
        sampler_b.resample(2)
        replay = sampler_b.sample(seeds)
        np.testing.assert_array_equal(results[2].node_map, replay.node_map)
        for etype in medium_graph.canonical_etypes:
            for a, b in zip(results[2].graph.edges_per_relation[etype],
                            replay.graph.edges_per_relation[etype]):
                np.testing.assert_array_equal(a, b)

    def test_draw_telemetry_counts_rows_drawn_and_nodes_skipped(self):
        # a0 -> a1 -> a2 -> a1: from seed a2, hop 1 reaches a1, hop 2 reaches
        # a0 (new) and a2 (already expanded: the one skip), hop 3 nothing.
        cycle = HeteroGraph(
            {"a": 3, "b": 2},
            {("a", "to", "a"): (np.array([0, 1, 2]), np.array([1, 2, 1])),
             ("b", "into", "a"): (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))},
            name="cycle",
        )
        sampler = NeighborSampler(cycle, fanouts=(None, None, None))
        assert sampler.draw_hit_rate == 0.0
        sampler.sample([2])
        # Every expanded "a" node owns two (relation, destination) rows.
        assert (sampler.draw_misses, sampler.draw_hits) == (6, 1)
        assert sampler.draw_hit_rate == 1 / 7
        sampler.sample_blocks([2])  # per-hop frontiers {2}, {1,2}, {0,1,2}: never skipped
        assert (sampler.draw_misses, sampler.draw_hits) == (18, 1)


def _reference_block_edges(graph, seeds, hops):
    """Brute force: global ids of every edge within ``hops`` incoming hops of
    ``seeds``, found one edge at a time."""
    frontier, kept = set(np.asarray(seeds).tolist()), set()
    for _ in range(hops):
        reached = set()
        for edge in range(graph.num_edges):
            if int(graph.edge_dst[edge]) in frontier:
                kept.add(edge)
                reached.add(int(graph.edge_src[edge]))
        frontier = reached
    return sorted(kept)


def _reference_block_graph(graph, seeds, edge_ids):
    """The block of ``edge_ids`` through the dict constructor, relation by relation."""
    edge_ids = np.asarray(edge_ids, dtype=np.int64)
    nodes = set(np.asarray(seeds).tolist())
    nodes.update(graph.edge_src[edge_ids].tolist(), graph.edge_dst[edge_ids].tolist())
    node_map = np.array(sorted(nodes), dtype=np.int64)
    local = {}
    for type_id, name in enumerate(graph.node_type_names):
        start, end = graph.node_type_offsets[type_id:type_id + 2]
        local[name] = [node for node in node_map.tolist() if start <= node < end]
    edges = {}
    for relation, etype in enumerate(graph.canonical_etypes):
        of_relation = edge_ids[graph.edge_type[edge_ids] == relation]
        edges[etype] = (
            np.array([local[etype[0]].index(n) for n in graph.edge_src[of_relation].tolist()], dtype=np.int64),
            np.array([local[etype[2]].index(n) for n in graph.edge_dst[of_relation].tolist()], dtype=np.int64),
        )
    return node_map, HeteroGraph({name: len(ids) for name, ids in local.items()}, edges)


def _seed_sets(graph):
    """Seed sets of a corner graph: spread out, duplicated, and the nodes without in-edges."""
    spread = np.arange(0, graph.num_nodes, max(1, graph.num_nodes // 7))
    isolated = np.flatnonzero(graph.in_degrees() == 0)[:4]
    return [spread, np.concatenate((spread[:3], spread[:3])), isolated if len(isolated) else spread[:1]]


def _row_degrees(graph):
    """In-degree of every non-empty (destination, relation) row of a graph."""
    keys = graph.edge_dst * graph.num_edge_types + graph.edge_type
    return np.unique(keys, return_counts=True)


class TestFlatEdgeSpace:
    """The sampler's contract in global-edge-id space, on the corner graphs."""

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_full_fanout_blocks_equal_the_brute_force_neighborhood(self, corner_graph, hops):
        sampler = NeighborSampler(corner_graph, fanouts=(None,) * hops)
        for seeds in _seed_sets(corner_graph):
            expected = _reference_block_edges(corner_graph, seeds, hops)
            np.testing.assert_array_equal(sampler.merged_positions(seeds), expected)
            node_map, reference = _reference_block_graph(corner_graph, seeds, expected)
            for block in (sampler.sample(seeds), sampler.sample_blocks(seeds)[0]):
                np.testing.assert_array_equal(block.node_map, node_map)
                np.testing.assert_array_equal(block.node_map[block.seed_positions], seeds)
                for name in ("edge_src", "edge_dst", "edge_type", "node_type_offsets"):
                    np.testing.assert_array_equal(getattr(block.graph, name), getattr(reference, name))
                assert block.graph.canonical_etypes == corner_graph.canonical_etypes

    @pytest.mark.parametrize("fanouts", [(1,), (2, 1), (3, 1, 2)])
    def test_rows_respect_the_cap_of_the_hop_that_drew_them(self, corner_graph, fanouts):
        sampler = NeighborSampler(corner_graph, fanouts=fanouts, seed=3)
        for seeds in _seed_sets(corner_graph):
            for block, fanout in zip(sampler.sample_blocks(seeds), reversed(fanouts)):
                _, degrees = _row_degrees(block.graph)
                assert not len(degrees) or degrees.max() <= fanout
            # Merged: a node is expanded at the hop that first reaches it
            # (its distance from the seeds along kept edges), under that cap.
            merged = sampler.sample(seeds)
            distance = np.full(merged.num_nodes, len(fanouts))
            distance[merged.seed_positions] = 0
            for hop in range(1, len(fanouts)):
                at_hop = merged.graph.edge_src[distance[merged.graph.edge_dst] == hop - 1]
                distance[at_hop] = np.minimum(distance[at_hop], hop)
            rows, degrees = _row_degrees(merged.graph)
            caps = np.array(fanouts + (0,))[distance[rows // merged.graph.num_edge_types]]
            assert (degrees <= caps).all()

    def test_a_smaller_fanout_draws_a_subset_and_a_full_row_when_it_fits(self, corner_graph):
        seeds = np.arange(corner_graph.num_nodes)
        full = NeighborSampler(corner_graph, fanouts=(None,), seed=1).merged_positions(seeds)
        for fanout in (1, 2, 3):
            small = NeighborSampler(corner_graph, fanouts=(fanout,), seed=1).merged_positions(seeds)
            large = NeighborSampler(corner_graph, fanouts=(2 * fanout,), seed=1).merged_positions(seeds)
            assert np.isin(small, large).all() and np.isin(large, full).all()
            # Exactly min(degree, fanout) edges per (destination, relation) row.
            _, degrees = _row_degrees(corner_graph)
            assert len(small) == np.minimum(degrees, fanout).sum()

    def test_every_incoming_edge_is_kept_equally_often(self):
        graph = random_hetero_graph(num_nodes=80, num_edges=1600, num_node_types=2, num_edge_types=3, seed=7)
        rows, degrees = _row_degrees(graph)
        node, relation = divmod(int(rows[np.argmax(degrees)]), graph.num_edge_types)
        incoming = np.flatnonzero((graph.edge_dst == node) & (graph.edge_type == relation))
        degree, fanout, epochs = len(incoming), 3, 400
        assert degree >= 8
        sampler = NeighborSampler(graph, fanouts=(fanout,), seed=0)
        kept = np.zeros(graph.num_edges, dtype=np.int64)
        for epoch in range(epochs):
            sampler.resample(epoch)
            kept[sampler.merged_positions([node])] += 1
        assert kept[incoming].sum() == fanout * epochs
        share = fanout / degree
        tolerance = 5 * np.sqrt(share * (1 - share) / epochs)
        assert np.abs(kept[incoming] / epochs - share).max() < tolerance

    @pytest.mark.parametrize("fanouts", [(None,), (2,), (2, None), (3, 1, 2)])
    def test_a_batch_draw_is_the_one_seed_draws(self, corner_graph, fanouts):
        """All seeds of a batch drawn in one pass: byte for byte what one
        call per seed returns (from a sampler with a different history), and
        the per-hop union is ``sample_blocks`` of the seed union."""
        batch = NeighborSampler(corner_graph, fanouts=fanouts, seed=6)
        single = NeighborSampler(corner_graph, fanouts=fanouts, seed=6)
        single.sample(np.arange(corner_graph.num_nodes))
        single.resample(9)
        for sampler in (single, batch):
            sampler.resample(4)
        for seeds in _seed_sets(corner_graph):
            for draw in ("merged_positions", "hop_positions"):
                drawn = getattr(batch, draw)(seeds, per_seed=True)
                assert len(drawn) == len(seeds)
                for seed, (positions, nodes) in zip(seeds, drawn):
                    alone = getattr(single, draw)([seed])
                    as_list = lambda value: value if isinstance(value, list) else [value]
                    assert [a.tobytes() for a in as_list(positions)] == [a.tobytes() for a in as_list(alone)]
                    assert all(a.dtype == np.int64 for a in as_list(positions))
                    assert nodes.tobytes() == single.positions_nodes([seed], alone).tobytes()
            per_seed = [positions for positions, _ in batch.hop_positions(seeds, per_seed=True)]
            union = [np.unique(np.concatenate(hop)) for hop in zip(*per_seed)]
            for ours, theirs in zip(batch.assemble_hop_blocks(seeds, union), single.sample_blocks(seeds)):
                assert ours.node_map.tobytes() == theirs.node_map.tobytes()
                assert ours.graph.edge_src.tobytes() == theirs.graph.edge_src.tobytes()
                assert ours.graph.edge_dst.tobytes() == theirs.graph.edge_dst.tobytes()
                assert ours.graph.edge_type.tobytes() == theirs.graph.edge_type.tobytes()

    def test_shard_zero_draws_the_unsharded_neighborhoods(self, corner_graph):
        seeds = np.arange(corner_graph.num_nodes)
        draws = {
            shard: NeighborSampler(corner_graph, fanouts=(1, 1), seed=2, shard=shard).merged_positions(seeds)
            for shard in (None, 0, 1)
        }
        np.testing.assert_array_equal(draws[None], draws[0])
        assert corner_graph.name == "adversarial" or not np.array_equal(draws[0], draws[1])


class TestBlockExecution:
    """Compiled execution on blocks vs the eager full-graph reference."""

    @pytest.mark.parametrize("model", MODEL_NAMES)
    @pytest.mark.parametrize("config_label", ["U", "C+R"])
    def test_full_fanout_block_matches_reference_at_seeds(self, model, config_label,
                                                          small_graph, rng):
        from repro.frontend.config import CONFIGURATIONS

        options = CONFIGURATIONS[config_label].with_(emit_backward=False)
        module = compile_model(model, small_graph, in_dim=DIM, out_dim=DIM,
                               options=options, seed=3)
        reference = REFERENCE_CLASSES[model](small_graph, DIM, DIM, seed=3)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        features = rng.standard_normal((small_graph.num_nodes, DIM))
        full = reference.forward(features)
        key = next(iter(full))

        seeds = np.array([1, 7, 19, 33, 50])
        block = sample_block(small_graph, seeds, fanouts=(None,), seed=2)
        binding = module.bind(block.graph)
        block_out = binding.forward(block.gather_features(features))[key]
        np.testing.assert_allclose(
            block.seed_outputs(block_out), full[key].data[seeds], atol=1e-8
        )

    @settings(max_examples=10, deadline=None)
    @given(data=graph_and_seeds(), rng_seed=st.integers(0, 50))
    def test_rgcn_block_execution_property(self, data, rng_seed):
        """The execution-equivalence property under random graphs and seeds."""
        graph, seeds = data
        module = compile_model(
            "rgcn", graph, in_dim=DIM, out_dim=DIM,
            options=CompilerOptions(emit_backward=False), seed=1,
        )
        reference = REFERENCE_CLASSES["rgcn"](graph, DIM, DIM, seed=1)
        reference.load_parameters({k: p.data for k, p in module.parameters_by_name.items()})
        features = np.random.default_rng(rng_seed).standard_normal((graph.num_nodes, DIM))
        full = reference.forward(features)
        key = next(iter(full))

        block = sample_block(graph, seeds, fanouts=(None,), seed=rng_seed)
        binding = module.bind(block.graph)
        block_out = binding.forward(block.gather_features(features))[key]
        np.testing.assert_allclose(
            block.seed_outputs(block_out), full[key].data[seeds], atol=1e-8
        )
