"""Tests of the heterogeneous graph substrate (HeteroGraph, adjacency, generators)."""

import numpy as np
import pytest

from repro.graph import HeteroGraph, random_hetero_graph
from repro.graph.adjacency import AdjacencyAccessor, COOAdjacency, build_segment_pointers
from repro.graph.generators import random_features, random_labels


class TestHeteroGraphConstruction:
    def test_counts_and_offsets(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_edges == 7
        assert tiny_graph.num_node_types == 2
        assert tiny_graph.num_edge_types == 2
        assert tiny_graph.node_type_offset("paper") == 3

    def test_node_type_ids_are_segmented(self, tiny_graph):
        ids = tiny_graph.node_type_ids
        assert list(ids) == [0, 0, 0, 1, 1, 1]

    def test_global_edge_arrays_respect_offsets(self, tiny_graph):
        writes_id = tiny_graph.edge_type_id(("author", "writes", "paper"))
        mask = tiny_graph.edge_type == writes_id
        # writes edges: authors (global 0..2) -> papers (global 3..5)
        assert tiny_graph.edge_src[mask].max() <= 2
        assert tiny_graph.edge_dst[mask].min() >= 3

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            HeteroGraph({"a": 2}, {("a", "r", "a"): (np.array([0, 5]), np.array([0, 1]))})
        with pytest.raises(ValueError):
            HeteroGraph({"a": 2}, {("a", "r", "b"): (np.array([0]), np.array([0]))})
        with pytest.raises(ValueError):
            HeteroGraph({"a": 2}, {("a", "r", "a"): (np.array([0, 1]), np.array([0]))})
        with pytest.raises(ValueError):
            HeteroGraph({}, {})

    def test_from_flat_equals_the_dict_constructor(self, corner_graph):
        graph = corner_graph
        flat = HeteroGraph.from_flat(
            graph, graph.node_type_offsets, graph.edge_src, graph.edge_dst,
            graph.edge_segments.offsets, name="flat",
        )
        # The vocabulary is the parent's, by identity.
        assert flat.node_type_names is graph.node_type_names
        assert flat.canonical_etypes is graph.canonical_etypes
        assert flat.num_nodes_per_type == graph.num_nodes_per_type
        assert (flat.name, flat.num_nodes, flat.num_edges) == ("flat", graph.num_nodes, graph.num_edges)
        for name in ("edge_src", "edge_dst", "edge_type", "node_type_ids"):
            assert getattr(flat, name).tobytes() == getattr(graph, name).tobytes(), name
            assert getattr(flat, name).dtype == np.int64
        assert list(flat.edges_per_relation) == list(graph.edges_per_relation)
        for etype, (src_local, dst_local) in graph.edges_per_relation.items():
            np.testing.assert_array_equal(flat.edges_per_relation[etype][0], src_local)
            np.testing.assert_array_equal(flat.edges_per_relation[etype][1], dst_local)
            assert flat.num_edges_of_relation(etype) == len(src_local)
        for mine, theirs in ((flat.edge_segments, graph.edge_segments), (flat.compaction, graph.compaction)):
            for name, value in vars(theirs).items():
                np.testing.assert_array_equal(getattr(mine, name), value, err_msg=name)
        np.testing.assert_array_equal(flat.degree_normalization(), graph.degree_normalization())

    def test_from_flat_rejects_out_of_range_endpoints_and_bad_pointers(self, tiny_graph):
        graph = tiny_graph
        offsets, ptr = graph.node_type_offsets, graph.edge_segments.offsets
        papers = graph.node_type_offset("paper")
        for bad_src, bad_dst in (
            (papers, None),   # "writes" sources are authors
            (None, 0),        # ... and its destinations papers
            (-1, None),
            (None, graph.num_nodes),
        ):
            src, dst = graph.edge_src.copy(), graph.edge_dst.copy()
            if bad_src is not None:
                src[0] = bad_src
            if bad_dst is not None:
                dst[0] = bad_dst
            with pytest.raises(ValueError, match="writes.*out-of-range"):
                HeteroGraph.from_flat(graph, offsets, src, dst, ptr)
        for bad_ptr in (ptr[:-1], ptr + 1, np.array([0, 2, graph.num_edges + 1])):
            with pytest.raises(ValueError, match="etype_ptr"):
                HeteroGraph.from_flat(graph, offsets, graph.edge_src, graph.edge_dst, bad_ptr)
        with pytest.raises(ValueError, match="offsets"):
            HeteroGraph.from_flat(graph, offsets[:-1], graph.edge_src, graph.edge_dst, ptr)

    def test_degrees_and_normalization(self, tiny_graph):
        assert tiny_graph.in_degrees().sum() == tiny_graph.num_edges
        assert tiny_graph.out_degrees().sum() == tiny_graph.num_edges
        norm = tiny_graph.degree_normalization()
        assert norm.shape == (tiny_graph.num_edges,)
        assert np.all(norm > 0) and np.all(norm <= 1.0)

    def test_statistics_keys(self, small_graph):
        stats = small_graph.statistics()
        for key in ("num_nodes", "num_edges", "num_node_types", "num_edge_types",
                    "average_degree", "entity_compaction_ratio"):
            assert key in stats


class TestHeteroGraphTransforms:
    def test_add_reverse_edges_doubles_relations(self, tiny_graph):
        reversed_graph = tiny_graph.add_reverse_edges()
        assert reversed_graph.num_edge_types == 2 * tiny_graph.num_edge_types
        assert reversed_graph.num_edges == 2 * tiny_graph.num_edges

    def test_add_self_loops_adds_per_node_type_relations(self, tiny_graph):
        looped = tiny_graph.add_self_loops()
        assert looped.num_edge_types == tiny_graph.num_edge_types + tiny_graph.num_node_types
        assert looped.num_edges == tiny_graph.num_edges + tiny_graph.num_nodes

    def test_subgraph_by_edge_fraction(self, medium_graph):
        sub = medium_graph.subgraph_by_edge_fraction(0.5, seed=1)
        assert sub.num_edges < medium_graph.num_edges
        assert sub.num_edges >= medium_graph.num_edge_types  # at least one edge per relation
        assert sub.num_nodes == medium_graph.num_nodes
        with pytest.raises(ValueError):
            medium_graph.subgraph_by_edge_fraction(0.0)


class TestAdjacency:
    def test_segment_pointers_sorted_and_cover_all(self, small_graph):
        seg = small_graph.edge_segments
        assert seg.offsets[-1] == small_graph.num_edges
        sorted_types = small_graph.edge_type[seg.permutation]
        assert np.all(np.diff(sorted_types) >= 0)
        for t in range(small_graph.num_edge_types):
            start, end = seg.segment(t)
            assert np.all(sorted_types[start:end] == t)
            assert seg.segment_size(t) == end - start

    def test_segment_inverse_permutation(self):
        seg = build_segment_pointers(np.array([2, 0, 1, 0]), 3)
        inverse = seg.inverse_permutation()
        np.testing.assert_array_equal(seg.permutation[inverse], np.arange(4))

    def test_csr_by_dst_incoming_edges(self, small_graph):
        csr = small_graph.csr_by_dst
        assert csr.num_edges == small_graph.num_edges
        for node in range(0, small_graph.num_nodes, 7):
            incoming = csr.incoming_edges(node)
            assert np.all(small_graph.edge_dst[incoming] == node)
        assert csr.indptr[-1] == small_graph.num_edges

    def test_coo_accessors(self, tiny_graph):
        coo = tiny_graph.coo
        assert coo.num_edges == tiny_graph.num_edges
        assert coo.get_src(0) == tiny_graph.edge_src[0]
        assert coo.get_dst(0) == tiny_graph.edge_dst[0]
        assert coo.get_etype(0) == tiny_graph.edge_type[0]

    def test_coo_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            COOAdjacency(np.array([0]), np.array([0, 1]), np.array([0]))

    def test_adjacency_accessor_costs(self):
        coo = AdjacencyAccessor.for_format("coo", num_nodes=1000)
        csr = AdjacencyAccessor.for_format("csr", num_nodes=1000)
        assert coo.lookups_per_edge == 3.0
        assert csr.lookups_per_edge > coo.lookups_per_edge  # binary search is dearer
        with pytest.raises(ValueError):
            AdjacencyAccessor.for_format("ell", num_nodes=10)


class TestGenerators:
    def test_generator_respects_requested_shape(self):
        graph = random_hetero_graph(100, 700, 4, 9, seed=5)
        assert graph.num_nodes == 100
        assert graph.num_edges == 700
        assert graph.num_node_types == 4
        assert graph.num_edge_types == 9
        assert all(count >= 1 for count in graph.relation_edge_counts())

    def test_generator_is_deterministic(self):
        a = random_hetero_graph(50, 200, 3, 5, seed=9)
        b = random_hetero_graph(50, 200, 3, 5, seed=9)
        np.testing.assert_array_equal(a.edge_src, b.edge_src)
        np.testing.assert_array_equal(a.edge_dst, b.edge_dst)

    def test_source_locality_lowers_compaction_ratio(self):
        loose = random_hetero_graph(200, 2000, 2, 4, seed=1, source_locality=0.0)
        tight = random_hetero_graph(200, 2000, 2, 4, seed=1, source_locality=0.9)
        assert tight.entity_compaction_ratio < loose.entity_compaction_ratio

    def test_generator_input_validation(self):
        with pytest.raises(ValueError):
            random_hetero_graph(2, 10, 5, 2)
        with pytest.raises(ValueError):
            random_hetero_graph(10, 1, 2, 5)
        with pytest.raises(ValueError):
            random_hetero_graph(10, 10, 0, 2)
        with pytest.raises(ValueError):
            random_hetero_graph(10, 10, 2, 2, source_locality=1.5)

    def test_random_features_and_labels(self, small_graph):
        feats = random_features(small_graph, 16, seed=0)
        labels = random_labels(small_graph, 4, seed=0)
        assert feats.shape == (small_graph.num_nodes, 16)
        assert labels.shape == (small_graph.num_nodes,)
        assert labels.max() < 4
