"""Graph container, file formats, sampling, and increments."""
import io
import warnings

import numpy as np
import pytest

from dhge.graph import (DataError, GraphFormatError, NodeRef, RelationSchema,
                        HeteroGraph, IncrementBatch, load_graph, load_schema,
                        save_graph, read_increment, apply_increment,
                        graphs_equal, minibatch_partition, sample_subgraph)
from conftest import build_graph, tiny_bipartite
from oracles import adjacency_by_unique, incidence_by_argsort


class TestContainer:
    def test_counts_and_addressing(self, bipartite_graph):
        g = bipartite_graph
        assert g.num_types == 2
        assert g.counts == [3, 4]
        assert g.num_nodes == 7
        assert g.num_edges == 8
        assert g.global_index(NodeRef(1, 0)) == 3
        assert g.ref_of(3) == NodeRef(1, 0)
        assert [g.ref_of(i) for i in range(7)] == g.all_refs()

    def test_neighbors_type_erased_and_sorted(self, bipartite_graph):
        g = bipartite_graph
        # user 0 clicks items 0 and 1 (globals 3, 4); item 3 (global 6)
        # links back to user 0, and direction is erased in the adjacency
        nbrs = g.neighbors_of(NodeRef(0, 0))
        assert list(nbrs) == [3, 4, 6]
        assert g.degree_of(NodeRef(0, 0)) == 3
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        assert not g.has_edge(0, 5)  # user 0 never touches item 2

    def test_dangling_edge_rejected(self):
        with pytest.raises(DataError, match="dangling"):
            build_graph([(0, 0)], [3], [[(0, 9)]])

    def test_self_loop_rejected(self):
        with pytest.raises(DataError, match="self-loop"):
            build_graph([(0, 0)], [3], [[(1, 1)]])

    def test_schema_type_beyond_blocks_rejected(self):
        with pytest.raises(DataError):
            build_graph([(0, 5)], [3, 3], [[(0, 1)]])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DataError, match=r"relation 0: duplicate edge \(0, 1\)"):
            build_graph([(0, 0)], [3], [[(0, 1), (1, 2), (0, 1)]])

    def test_graphs_equal_ignores_edge_order(self):
        a = build_graph([(0, 0)], [4], [[(0, 1), (2, 3), (1, 2)]], seed=5)
        b = build_graph([(0, 0)], [4], [[(1, 2), (0, 1), (2, 3)]], seed=5)
        assert graphs_equal(a, b)
        c = build_graph([(0, 0)], [4], [[(0, 1), (2, 3)]], seed=5)
        assert not graphs_equal(a, c)


class TestPartitionAndSampling:
    def test_partition_covers_every_node_once(self, bipartite_graph):
        batches = minibatch_partition(bipartite_graph, 3, rng_seed=11)
        allv = np.sort(np.concatenate(batches))
        assert np.array_equal(allv, np.arange(7))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_partition_deterministic_per_seed(self, bipartite_graph):
        a = minibatch_partition(bipartite_graph, 3, rng_seed=11)
        b = minibatch_partition(bipartite_graph, 3, rng_seed=11)
        c = minibatch_partition(bipartite_graph, 3, rng_seed=12)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_subgraph_keeps_all_edges_under_limit(self, bipartite_graph):
        g = bipartite_graph
        sub = sample_subgraph(g, np.arange(g.num_nodes), degree_limit=10, rng_seed=0)
        assert sub.num_edges == g.num_edges
        assert np.array_equal(sub.nodes, np.arange(g.num_nodes))
        # local endpoints must map back to the same global edges
        keys = set()
        for r in range(g.schema.num_relations):
            for s, d in zip(sub.rel_src[r], sub.rel_dst[r]):
                keys.add((r, int(sub.nodes[s]), int(sub.nodes[d])))
        assert keys == {(r, int(gs + g.offsets[g.schema.pairs[r][0]]),
                         int(gd + g.offsets[g.schema.pairs[r][1]]))
                        for r in range(g.schema.num_relations)
                        for gs, gd in zip(g.rel_src[r], g.rel_dst[r])}

    def test_subgraph_respects_degree_limit(self):
        # star: user 0 clicks 12 items
        g = build_graph([(0, 1)], [1, 12], [[(0, i) for i in range(12)]])
        sub = sample_subgraph(g, np.array([0]), degree_limit=5, rng_seed=3)
        assert len(sub.rel_src[0]) == 5
        sub2 = sample_subgraph(g, np.array([0]), degree_limit=5, rng_seed=3)
        assert np.array_equal(sub.nodes, sub2.nodes)
        assert np.array_equal(sub.rel_dst[0], sub2.rel_dst[0])

    def test_subgraph_seeds_sorted_unique_and_range_checked(self, bipartite_graph):
        sub = sample_subgraph(bipartite_graph, np.array([5, 0, 5]), degree_limit=10,
                              rng_seed=0)
        assert sub.seeds.tolist() == [0, 5]
        for bad in ([7], [-1], [0, 7]):
            with pytest.raises(DataError, match="out of range"):
                sample_subgraph(bipartite_graph, np.array(bad), degree_limit=10, rng_seed=0)

    def test_subgraph_nodes_are_type_major_ascending(self, bipartite_graph):
        sub = sample_subgraph(bipartite_graph, np.array([0, 5]), degree_limit=10,
                              rng_seed=0)
        assert np.all(np.diff(sub.nodes) > 0)
        assert np.array_equal(sub.node_types, np.sort(sub.node_types))
        for t, (start, stop) in enumerate(sub.type_slices):
            assert np.all(sub.node_types[start:stop] == t)

    def test_subgraph_local_index_roundtrip(self, bipartite_graph):
        sub = sample_subgraph(bipartite_graph, np.array([1, 4]), degree_limit=10,
                              rng_seed=0)
        loc = sub.local_index(sub.nodes)
        assert np.array_equal(loc, np.arange(sub.num_nodes))
        with pytest.raises(DataError):
            missing = [g for g in range(7) if g not in set(sub.nodes.tolist())]
            if not missing:
                raise DataError("all nodes retained; nothing to probe")
            sub.local_index(np.array([missing[0]]))


def _appended_edges(g, g2):
    """The edges ``g2`` appends to each relation of ``g``, as increment tuples."""
    out = set()
    for r, (s_t, d_t) in enumerate(g2.schema.pairs):
        first = len(g.rel_src[r])
        for s, d, ts in zip(g2.rel_src[r][first:], g2.rel_dst[r][first:], g2.rel_ts[r][first:]):
            out.add((NodeRef(s_t, int(s)), NodeRef(d_t, int(d)), r, float(ts)))
    return out


class TestIncrement:
    def test_apply_increment_appends_and_reports(self, bipartite_graph):
        g = bipartite_graph
        batch = IncrementBatch(
            new_nodes=[(NodeRef(0, 3), np.ones(5), np.ones(5, dtype=bool))],
            new_edges=[(NodeRef(0, 3), NodeRef(1, 2), 0, 9.0),
                       (NodeRef(0, 0), NodeRef(1, 2), 0, 9.5)],
            batch_time=9.5)
        g2, stats = apply_increment(g, batch)
        assert g2.counts == [4, 4]
        assert g2.num_edges == g.num_edges + 2
        assert stats["n_new_nodes"] == 1
        assert stats["n_new_edges"] == 2
        assert stats["n_duplicate_edges_dropped"] == 0
        assert _appended_edges(g, g2) == set(batch.new_edges)
        # base graph untouched
        assert g.counts == [3, 4]

    def test_apply_increment_drops_duplicates_with_warning(self, bipartite_graph):
        g = bipartite_graph
        dup = (NodeRef(0, 0), NodeRef(1, 0), 0, 1.0)  # already an edge
        batch = IncrementBatch(new_nodes=[], new_edges=[dup], batch_time=1.0)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            g2, stats = apply_increment(g, batch)
        assert stats["n_duplicate_edges_dropped"] == 1
        assert _appended_edges(g, g2) == set()
        assert g2.num_edges == g.num_edges
        assert any("duplicate" in str(w.message) for w in rec)

    def test_apply_increment_rejects_id_gap(self, bipartite_graph):
        batch = IncrementBatch(
            new_nodes=[(NodeRef(0, 5), None, None)],  # skips intra id 3, 4
            new_edges=[], batch_time=0.0)
        with pytest.raises(DataError, match="contiguous|gap"):
            apply_increment(bipartite_graph, batch)

    def test_increment_edge_to_unknown_node_rejected(self, bipartite_graph):
        batch = IncrementBatch(
            new_nodes=[],
            new_edges=[(NodeRef(0, 9), NodeRef(1, 0), 0, 1.0)], batch_time=1.0)
        with pytest.raises(DataError):
            apply_increment(bipartite_graph, batch)


def _assert_indexes_match_oracles(g):
    indptr, indices = adjacency_by_unique(g)
    assert g._adj_indptr.dtype == indptr.dtype and np.array_equal(g._adj_indptr, indptr)
    assert g._adj_indices.dtype == indices.dtype and np.array_equal(g._adj_indices, indices)
    for r, (s_t, d_t) in enumerate(g.schema.pairs):
        for got, ends, count in ((g._inc_src[r], g.rel_src[r], g.counts[s_t]),
                                 (g._inc_dst[r], g.rel_dst[r], g.counts[d_t])):
            want = incidence_by_argsort(ends, count)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestIncrementIndexes:
    """Indexes merged by apply_increment against a from-scratch rebuild."""

    SCHEMA = [(0, 1), (1, 0), (0, 0)]

    def _batch(self, rng, g, edges, step):
        users, items = g.counts
        new_users, new_items = 3, 2
        nodes = ([(NodeRef(0, users + j), rng.normal(size=3), None) for j in range(new_users)]
                 + [(NodeRef(1, items + j), None, None) for j in range(new_items)])
        n_user, n_item = users + new_users, items + new_items
        batch_edges = []
        for _ in range(12):
            u, i = int(rng.integers(n_user)), int(rng.integers(n_item))
            r = int(rng.integers(3))
            if r == 0:
                batch_edges.append((NodeRef(0, u), NodeRef(1, i), 0, 10.0 * step))
            elif r == 1:
                batch_edges.append((NodeRef(1, i), NodeRef(0, u), 1, 10.0 * step))
            else:
                v = (u + 1 + int(rng.integers(n_user - 1))) % n_user
                batch_edges.append((NodeRef(0, u), NodeRef(0, v), 2, 10.0 * step))
        # duplicates: one against the base graph, one inside the batch
        r = int(rng.integers(3))
        j = int(rng.integers(len(edges[r])))
        s_t, d_t = self.SCHEMA[r]
        batch_edges.append((NodeRef(s_t, edges[r][j][0]), NodeRef(d_t, edges[r][j][1]), r, 0.5))
        batch_edges.append(batch_edges[0][:3] + (99.0,))
        # every new node gets an edge, so each grows the adjacency
        for j in range(new_users):
            batch_edges.append((NodeRef(0, users + j), NodeRef(1, int(rng.integers(n_item))),
                                0, 10.0 * step))
        for j in range(new_items):
            batch_edges.append((NodeRef(0, int(rng.integers(n_user))), NodeRef(1, items + j),
                                0, 10.0 * step))
        return IncrementBatch(new_nodes=nodes, new_edges=batch_edges, batch_time=10.0 * step)

    def test_chain_matches_rebuild_and_oracles(self):
        rng = np.random.default_rng(12)
        edges = [sorted({(int(rng.integers(8)), int(rng.integers(6))) for _ in range(15)}),
                 sorted({(int(rng.integers(6)), int(rng.integers(8))) for _ in range(10)}),
                 sorted({(a, b) for a, b in rng.integers(8, size=(10, 2)).tolist() if a != b})]
        g = build_graph(self.SCHEMA, [8, 6], [[e + (1.0,) for e in rel] for rel in edges],
                        input_dim=3, seed=4)
        _assert_indexes_match_oracles(g)
        edges = [[e + (1.0,) for e in rel] for rel in edges]
        for step in range(1, 5):
            batch = self._batch(rng, g, edges, step)
            # the rule, edge by edge: the first occurrence of (relation, src, dst) wins
            seen = {(r, e[0], e[1]) for r in range(3) for e in edges[r]}
            dropped = 0
            for src, dst, r, ts in batch.new_edges:
                if (r, src[1], dst[1]) in seen:
                    dropped += 1
                    continue
                seen.add((r, src[1], dst[1]))
                edges[r].append((src[1], dst[1], ts))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                g2, stats = apply_increment(g, batch)
            assert stats["n_duplicate_edges_dropped"] == dropped >= 2
            rebuilt = HeteroGraph(g.schema, g2.feature_blocks, g2.mask_blocks,
                                  [(np.asarray([e[0] for e in rel], dtype=np.int64),
                                    np.asarray([e[1] for e in rel], dtype=np.int64),
                                    np.asarray([e[2] for e in rel], dtype=np.float64))
                                   for rel in edges])
            assert graphs_equal(g2, rebuilt)
            for r in range(3):
                assert np.array_equal(g2.rel_src[r], rebuilt.rel_src[r])
                assert np.array_equal(g2.rel_dst[r], rebuilt.rel_dst[r])
                assert np.array_equal(g2.rel_ts[r], rebuilt.rel_ts[r])
            _assert_indexes_match_oracles(g2)
            _assert_indexes_match_oracles(rebuilt)
            for a, b in zip(g2._edge_key_index, rebuilt._edge_key_index):
                assert np.array_equal(a, b)
            assert g2.offsets[1] > g.offsets[1]  # the item block moved
            g = g2


EDGES = "0\t0\t1\t0\t0\t1.5\n0\t1\t1\t1\t0\t2.0\n1\t0\t0\t1\t1\t2.5\n"
FEATURES = ("0\t0\t1.0,2.0,3.0\n0\t1\t4.0,,6.0\n"
            "1\t0\t0.5,0.5,0.5\n1\t1\t,,\n")
SCHEMA = "0\t0\t1\n1\t1\t0\n"


class TestFileFormats:
    def test_load_graph_round_trip(self, tmp_path):
        e, f, s = tmp_path / "e.tsv", tmp_path / "f.tsv", tmp_path / "s.tsv"
        e.write_text(EDGES)
        f.write_text(FEATURES)
        s.write_text(SCHEMA)
        g = load_graph(str(e), str(f), str(s))
        assert g.counts == [2, 2]
        assert g.num_edges == 3
        assert g.input_dim == 3
        # empty cells become missing entries
        assert not g.mask_blocks[0][1, 1]
        assert np.all(~g.mask_blocks[1][1])
        e2, f2, s2 = tmp_path / "e2.tsv", tmp_path / "f2.tsv", tmp_path / "s2.tsv"
        save_graph(g, str(e2), str(f2), str(s2))
        g2 = load_graph(str(e2), str(f2), str(s2))
        assert graphs_equal(g, g2)

    def test_missing_file_is_data_error(self, tmp_path):
        s = tmp_path / "s.tsv"
        s.write_text(SCHEMA)
        with pytest.raises(DataError, match="cannot open"):
            load_graph(str(tmp_path / "absent.tsv"), io.StringIO(FEATURES),
                       str(s))

    def test_comments_and_blank_lines_skipped(self):
        g = load_graph(io.StringIO("# edges\n\n" + EDGES),
                       io.StringIO("# features\n" + FEATURES),
                       io.StringIO(SCHEMA))
        assert g.num_edges == 3

    def test_field_count_error_carries_location(self):
        with pytest.raises(GraphFormatError, match=":1"):
            load_graph(io.StringIO("0\t0\t1\t0\t0\n"), io.StringIO(FEATURES),
                       io.StringIO(SCHEMA))

    def test_non_integer_field_rejected(self):
        bad = EDGES.replace("0\t0\t1\t0\t0\t1.5", "0\tx\t1\t0\t0\t1.5")
        with pytest.raises(GraphFormatError, match="integer"):
            load_graph(io.StringIO(bad), io.StringIO(FEATURES), io.StringIO(SCHEMA))

    def test_intra_id_gap_rejected(self):
        # edges still mention user 1, so jumping the feature row to id 3
        # leaves id 2 unmentioned anywhere
        gap = FEATURES.replace("0\t1\t4.0,,6.0", "0\t3\t4.0,,6.0")
        with pytest.raises(DataError, match="gap|contiguous"):
            load_graph(io.StringIO(EDGES), io.StringIO(gap), io.StringIO(SCHEMA))

    def test_duplicate_edges_warn_and_drop(self):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            g = load_graph(io.StringIO(EDGES + EDGES.splitlines()[0] + "\n"),
                           io.StringIO(FEATURES), io.StringIO(SCHEMA))
        assert g.num_edges == 3
        assert any("duplicate" in str(w.message).lower() for w in rec)

    def test_edge_endpoint_type_must_match_schema(self):
        bad = EDGES.replace("1\t0\t0\t1\t1\t2.5", "0\t0\t1\t0\t1\t2.5")
        with pytest.raises(DataError):
            load_graph(io.StringIO(bad), io.StringIO(FEATURES), io.StringIO(SCHEMA))

    def test_load_schema_requires_dense_ids(self):
        with pytest.raises(DataError):
            load_schema(io.StringIO("0\t0\t1\n2\t1\t0\n"))

    def test_read_increment_classifies_new_nodes(self, tmp_path):
        g = load_graph(io.StringIO(EDGES), io.StringIO(FEATURES), io.StringIO(SCHEMA))
        inc_e = tmp_path / "inc.edges.tsv"
        inc_f = tmp_path / "inc.features.tsv"
        inc_e.write_text("0\t2\t1\t0\t0\t7.0\n")
        inc_f.write_text("0\t2\t9.0,9.0,9.0\n")
        batch = read_increment(g, str(inc_e), str(inc_f))
        assert batch.batch_time == 7.0
        assert [n[0] for n in batch.new_nodes] == [NodeRef(0, 2)]
        assert batch.new_edges == [(NodeRef(0, 2), NodeRef(1, 0), 0, 7.0)]

    def test_read_increment_rejects_feature_row_for_existing_node(self, tmp_path):
        g = load_graph(io.StringIO(EDGES), io.StringIO(FEATURES), io.StringIO(SCHEMA))
        inc_f = tmp_path / "inc.features.tsv"
        inc_f.write_text("0\t0\t9.0,9.0,9.0\n")
        inc_e = tmp_path / "inc.edges.tsv"
        inc_e.write_text("")
        with pytest.raises(DataError, match="existing"):
            read_increment(g, str(inc_e), str(inc_f))

    def test_edge_only_new_node_gets_all_missing_features(self):
        g = load_graph(io.StringIO(EDGES), io.StringIO(FEATURES), io.StringIO(SCHEMA))
        batch = read_increment(g, io.StringIO("0\t2\t1\t0\t0\t7.0\n"), None)
        ref, values, mask = batch.new_nodes[0]
        assert ref == NodeRef(0, 2)
        assert values is None and mask is None
        g2, _ = apply_increment(g, batch)
        assert np.all(~g2.mask_blocks[0][2])
