"""Incremental embedding machinery against independent dense oracles."""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dhge import incremental
from dhge.fixtures import gen_planted_bipartite
from dhge.graph import DataError, NodeRef, IncrementBatch, apply_increment, load_graph
from dhge.config import RunConfig
from dhge.model import EmbeddingTable, ModelConfig, ModelParams, embed_all
from dhge.pipeline import cmd_retrieve, write_snapshot
from dhge.incremental import (ColdIsolatedError, bfs_neighbors,
                              reconstruction_weights, residual_blend,
                              embed_increment, capture_alignment,
                              AlignmentProblem, AlignmentState, incremental_refine,
                              UpdateConfig, disentangled_update, ille_update,
                              _neighborhoods, _reaching, _reconstruction_operator,
                              _weight_rows)
from dhge.seeding import TAG_BFS, mix, mix_many, seed_states
from dhge.tensor import NumericError, SingularMatrixError
from conftest import build_graph, tiny_bipartite, tiny_params
from oracles import (all_refs, bfs_neighbors_loop, blocks_equal, constrained_weights,
                     coupled_rows_dense, coupled_rows_solve, embed_increment_sweeps,
                     full_lle_oracle, knn_brute, knn_indices, lle_loss, lle_weight_matrix,
                     neighborhoods_loop, reaching_dijkstra, reconstruction_operator_loop,
                     reconstruction_weights_loop, refine_per_trial)
from test_bench_contract import _bench_module
from update_scaling import scaling_graph


class TestReconstructionWeights:
    def test_matches_kkt_oracle(self, rng):
        for trial in range(25):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            center = rng.normal(size=d)
            nbrs = rng.normal(size=(k, d))
            eps = float(rng.choice([1e-6, 1e-3, 1e-1]))
            got = reconstruction_weights(center, nbrs, eps)
            want = constrained_weights(center, nbrs, eps)
            assert np.allclose(got, want, atol=1e-8), trial
            assert abs(got.sum() - 1.0) <= 1e-12

    def test_single_neighbor_gets_unit_weight(self, rng):
        assert reconstruction_weights(rng.normal(size=3),
                                      rng.normal(size=(1, 3)), 1e-3).tolist() == [1.0]

    def test_exact_affine_point_reconstructs_exactly(self, rng):
        # center inside the affine hull of 3 neighbors in 2-D: residual ~ 0
        nbrs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w_true = np.array([0.2, 0.5, 0.3])
        center = w_true @ nbrs
        w = reconstruction_weights(center, nbrs, 1e-12)
        recon = w @ nbrs
        assert np.allclose(recon, center, atol=1e-6)

    def test_degenerate_neighborhood_uniform_fallback(self):
        center = np.ones(3)
        nbrs = np.tile(center, (4, 1))   # all differences are zero
        got = reconstruction_weights(center, nbrs, 1e-3)
        assert np.allclose(got, 0.25)
        from dhge.tensor import SingularMatrixError
        with pytest.raises(SingularMatrixError):
            reconstruction_weights(center, nbrs, 0.0)

    def test_residual_blend_formula_and_bounds(self, rng):
        c = rng.normal(size=4)
        nb = rng.normal(size=(3, 4))
        w = np.array([0.2, 0.3, 0.5])
        out = residual_blend(c[None], nb[None], w[None], 0.25)
        assert np.allclose(out[0], 0.25 * (w @ nb) + 0.75 * c, atol=1e-15)
        assert np.allclose(residual_blend(c[None], nb[None], w[None], 0.0)[0], c)
        with pytest.raises(ValueError):
            residual_blend(c[None], nb[None], w[None], 1.5)

    def test_residual_blend_rows_match_one_at_a_time(self, rng):
        c = rng.normal(size=(6, 4))
        nb = rng.normal(size=(6, 3, 4))
        w = rng.normal(size=(6, 3))
        want = np.stack([0.3 * (w[i] @ nb[i]) + 0.7 * c[i] for i in range(6)])
        assert np.allclose(residual_blend(c, nb, w, 0.3), want, rtol=1e-12, atol=1e-15)


class TestBfsNeighbors:
    def test_one_hop_suffices(self):
        g = tiny_bipartite()
        center = g.global_index(NodeRef(0, 0))
        nbrs, hops = bfs_neighbors(g, center, 2, rng_seed=4)
        assert len(nbrs) == 2
        assert hops.tolist() == [1, 1]
        assert set(nbrs.tolist()) <= set(g.neighbors_of(center).tolist())

    def test_two_hop_expansion(self):
        # path: a - b - c ; from a with k=2 we need c via hop 2
        g = build_graph([(0, 0)], [3], [[(0, 1), (1, 2)]])
        nbrs, hops = bfs_neighbors(g, 0, 2, rng_seed=0)
        assert hops.tolist() == [1, 2]
        assert nbrs.tolist() == [1, 2]

    def test_padding_with_replacement_preserves_hops(self):
        # single edge a - b: k=4 forces resampling of b
        g = build_graph([(0, 0)], [2], [[(0, 1)]])
        nbrs, hops = bfs_neighbors(g, 0, 4, rng_seed=1)
        assert nbrs.tolist() == [1, 1, 1, 1]
        assert hops.tolist() == [1, 1, 1, 1]

    def test_isolated_raises_cold(self):
        g = build_graph([(0, 0)], [3], [[(0, 1)]])
        with pytest.raises(ColdIsolatedError) as err:
            bfs_neighbors(g, 2, 2, rng_seed=0)
        assert err.value.ref == NodeRef(0, 2)

    def test_deterministic_per_seed(self):
        g = tiny_bipartite()
        center = g.global_index(NodeRef(1, 1))
        a = bfs_neighbors(g, center, 3, rng_seed=7)
        b = bfs_neighbors(g, center, 3, rng_seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBatchedMatchesLoops:
    """The array-pass neighborhoods and stacked weight solves against the
    per-node loops they replace, at exact equality."""

    @staticmethod
    def _padding_graph():
        # a star, a path and two isolated nodes: rows short of k after both
        # hops pad, rows with exactly k fill, isolated rows are cold
        star = [(0, i) for i in range(1, 12)]
        path = [(12, 13), (13, 14), (14, 15)]
        return build_graph([(0, 0)], [18], [star + path])

    def test_neighborhoods(self, monkeypatch):
        # rng_seed >= 2**32 takes SeedSequence's five-word path in mix
        cases = [(scaling_graph(2000, seed=3), k) for k in (3, 8)]
        cases += [(scaling_graph(1000, seed=4), 20)]
        cases += [(self._padding_graph(), k) for k in (2, 4, 12)]
        for g, k in cases:
            ids = np.arange(g.num_nodes)
            for rng_seed in (0, 2 ** 32 + 5, 2 ** 64 - 1, -7):
                with monkeypatch.context() as m:
                    if rng_seed == -7:   # many 2-hop passes, one a single row
                        m.setattr(incremental, "_HOP2_CHUNK", 40)
                    got = _neighborhoods(g, ids, k, rng_seed)
                want = neighborhoods_loop(g, ids, k, rng_seed)
                assert np.array_equal(got[0], want[0]), (k, rng_seed)
                assert np.array_equal(got[1], want[1]), (k, rng_seed)
        # a subset in any order, as ille_update passes its update set
        g = self._padding_graph()
        sub = np.array([15, 3, 0, 16, 12])
        assert all(np.array_equal(a, b) for a, b in zip(
            _neighborhoods(g, sub, 4, 9), neighborhoods_loop(g, sub, 4, 9)))

    @staticmethod
    def _draw_size_graph(k):
        # k hubs with 12 leaves each, and three probes of every degree 1 to
        # k - 1 on consecutive hubs, interleaved by degree: each probe and
        # leaf sees more 2-hop nodes than the k - deg it still needs
        edges, n = [], k
        for h in range(k):
            edges += [(h, n + j) for j in range(12)]
            n += 12
        for rep in range(3):
            for d in range(1, k):
                edges += [(n, (rep + d + j) % k) for j in range(d)]
                n += 1
        return build_graph([(0, 0)], [n], [edges])

    def test_neighborhoods_every_draw_size(self, monkeypatch):
        k = 8
        g = self._draw_size_graph(k)
        ids = np.arange(g.num_nodes)
        sizes = []
        draw = incremental.seeded_choice_rows
        monkeypatch.setattr(incremental, "seeded_choice_rows",
                            lambda states, n, size: sizes.append(size) or draw(states, n, size))
        for chunk in (incremental._HOP2_CHUNK, 400):
            monkeypatch.setattr(incremental, "_HOP2_CHUNK", chunk)
            for rng_seed in (0, 2 ** 32 + 5, -7):
                sizes.clear()
                got = _neighborhoods(g, ids, k, rng_seed)
                want = neighborhoods_loop(g, ids, k, rng_seed)
                assert np.array_equal(got[0], want[0]), (chunk, rng_seed)
                assert np.array_equal(got[1], want[1]), (chunk, rng_seed)
                if chunk == 400:   # each 2-hop draw size spans passes
                    assert min(sizes.count(s) for s in range(1, k)) >= 2
                else:              # one call per draw size, 1 to k
                    assert sorted(sizes) == list(range(1, k + 1))

    def test_only_pad_rows_build_a_generator(self, monkeypatch):
        cases = [(self._padding_graph(), k) for k in (2, 4, 12)]
        cases += [(self._draw_size_graph(8), 8), (scaling_graph(1000, seed=4), 20)]
        made, pads = [], 0
        state = incremental.pcg64_state
        monkeypatch.setattr(incremental, "pcg64_state",
                            lambda words: made.append(tuple(words)) or state(words))
        for g, k in cases:
            # pad rows: connected, short of k with both hops together
            pad = []
            for j in range(g.num_nodes):
                hop1 = set(g.neighbors_of(j).tolist())
                hop2 = {int(m) for h in hop1 for m in g.neighbors_of(h)} - hop1 - {j}
                if hop1 and len(hop1) + len(hop2) < k:
                    pad.append(j)
            pads += len(pad)
            refs = np.array([g.ref_of(j) for j in pad], dtype=np.int64).reshape(-1, 2)
            want = seed_states(TAG_BFS, mix_many(5, TAG_BFS, refs[:, 0], refs[:, 1]))
            made.clear()
            _neighborhoods(g, np.arange(g.num_nodes), k, 5)
            assert sorted(made) == sorted(map(tuple, want.T.tolist())), k
        assert pads

    def test_bfs_neighbors(self):
        g = self._padding_graph()
        for center in (0, 1, 12, 13, 15):
            for k in (1, 2, 3, 5, 11, 12, 16):
                for rng_seed in (3, 2 ** 63 + 1, -2):
                    got = bfs_neighbors(g, center, k, rng_seed)
                    want = bfs_neighbors_loop(g, center, k, rng_seed)
                    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
                    assert got[1].dtype == want[1].dtype == np.int64
        with pytest.raises(ColdIsolatedError):
            bfs_neighbors(g, 17, 2, 0)
        with pytest.raises(DataError, match="out of range"):
            bfs_neighbors(g, 18, 2, 0)
        with pytest.raises(ValueError):
            bfs_neighbors(g, 0, 0, 0)

    def test_weight_rows(self, rng):
        vecs = rng.normal(size=(300, 16)) * rng.choice([1e-4, 1.0, 1e4], size=(300, 1))
        vecs[7] = vecs[8] = vecs[9]
        for k in (1, 2, 8, 16):
            nbrs = rng.integers(0, 300, size=(300, k))
            centers = rng.permutation(300)
            nbrs[5], centers[5] = 7, 8          # every neighbor on the center
            for eps in (1e-3, 1e-8):
                got = _weight_rows(vecs, centers, nbrs, eps)
                for j in range(300):
                    want = reconstruction_weights_loop(vecs[centers[j]], vecs[nbrs[j]], eps)
                    assert got[j].tobytes() == want.tobytes(), (k, eps, j)
        nbrs = rng.integers(0, 300, size=(300, 8))
        nbrs[250], centers[250] = 7, 8
        with pytest.raises(SingularMatrixError):
            _weight_rows(vecs, centers, nbrs, 0.0)
        with pytest.raises(SingularMatrixError):
            reconstruction_weights_loop(vecs[8], vecs[nbrs[250]], 0.0)


def _max_rel(got, want):
    """Largest entry-wise difference relative to the largest entry of ``want``."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestEmbedIncrement:
    # a (5 + 5, 3) table: global ids 0-4 are type 0, 5-9 type 1
    def _table(self, rng):
        return rng.normal(size=(10, 3))

    def test_all_known_neighbors_closed_form(self, rng):
        y = self._table(rng)
        nbrs = [1, 7, 3]
        w = np.array([0.5, 0.25, 0.25])
        rows, loss, n_coupled, unsolved = embed_increment(y, [4], [nbrs], [w])
        # a row that reads no new node is the per-row product, bit for bit
        assert rows[0].tobytes() == (w @ y[nbrs]).tobytes()
        assert loss <= 1e-24
        assert n_coupled == 0 and unsolved.tolist() == [False]

    def test_coupled_pair_matches_dense_solve(self, rng):
        y = self._table(rng)
        a, b = 4, 9
        wa = np.array([0.4, 0.3, 0.3])
        wb = np.array([0.5, 0.5, 0.0])
        rows, loss, n_coupled, unsolved = embed_increment(y, [a, b], [[b, 0, 1], [a, 5, 5]],
                                                          [wa, wb])
        want = coupled_rows_solve(
            2,
            [[("u", 1), ("k", 0), ("k", 1)], [("u", 0), ("k", 2), ("k", 2)]],
            [wa, wb],
            np.stack([y[0], y[1], y[5]]))
        assert n_coupled == 2 and not unsolved.any()
        assert _max_rel(rows, want) <= 1e-10
        assert loss <= 1e-18

    def test_divergent_coupling_is_solved(self, rng):
        # weights that sum to 1 but expand distances: the coupling's spectral
        # radius is 2, where sweeps diverge; the direct solve does not care
        y = self._table(rng)
        w = np.array([2.0, -1.0])
        rows, loss, n_coupled, _ = embed_increment(y, [4, 9], [[9, 0], [4, 5]], [w, w])
        want = coupled_rows_solve(2, [[("u", 1), ("k", 0)], [("u", 0), ("k", 1)]], [w, w],
                                  np.stack([y[0], y[5]]))
        assert n_coupled == 2
        assert _max_rel(rows, want) <= 1e-10
        with pytest.raises(ArithmeticError, match="sweeps"):
            embed_increment_sweeps(y, [4, 9], [[9, 0], [4, 5]], [w, w], max_sweeps=30)

    def test_closed_pair_is_zero(self, rng):
        # 4 reads only 9 and 9 reads only 4: any equal pair of rows solves
        # the equations, so neither has a unique value
        y = self._table(rng)
        rows, loss, n_coupled, unsolved = embed_increment(y, [4, 9], [[9], [4]],
                                                          [np.ones(1), np.ones(1)])
        assert not rows.any() and loss == 0.0 and n_coupled == 2
        assert unsolved.tolist() == [True, True]

    def test_pair_with_zero_table_weights_is_zero(self, rng):
        y = self._table(rng)
        w = np.array([1.0, 0.0])
        rows, loss, _, unsolved = embed_increment(y, [4, 9], [[9, 0], [4, 5]], [w, w])
        assert not rows.any() and loss == 0.0 and unsolved.all()

    def test_unanchored_row_does_not_move_the_rest(self, rng):
        # 9 and 8 read only each other; 4 reads 9 and a table row, so it is
        # its table part while 9 and 8 stay 0
        y = self._table(rng)
        rows, loss, n_coupled, unsolved = embed_increment(
            y, [4, 9, 8], [[9, 0], [8, 8], [9, 9]],
            [np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        assert n_coupled == 3 and unsolved.tolist() == [False, True, True]
        assert not rows[1:].any()
        assert np.array_equal(rows[0], 0.5 * y[0])
        assert loss == 0.0

    def test_singular_anchored_pair_raises(self, rng):
        # det(I - W_UU) = 1 - 2 * 0.5 = 0 exactly, with a table anchor
        y = self._table(rng)
        with pytest.raises(SingularMatrixError, match="singular"):
            embed_increment(y, [4, 9], [[9, 0], [4, 5]],
                            [np.array([2.0, -1.0]), np.array([0.5, 0.5])])

    def test_uncoupled_new_rows_feed_the_coupled_block(self, rng):
        # 3 reads table rows only; 4 and 9 read 3 and each other
        y = self._table(rng)
        nbrs = [[0, 1], [9, 3], [4, 3]]
        w = [np.array([0.6, 0.4]), np.array([0.3, 0.7]), np.array([0.8, 0.2])]
        rows, loss, n_coupled, unsolved = embed_increment(y, [3, 4, 9], nbrs, w)
        assert n_coupled == 2 and not unsolved.any()
        assert _max_rel(rows, coupled_rows_dense(y, [3, 4, 9], nbrs, w)) <= 1e-10
        assert loss <= 1e-24

    def test_matches_sweeps_where_they_converge(self, tmp_path, monkeypatch):
        # every embed call of a resident chain in the embedding space
        calls = []
        for seed in (1, 2):
            calls += _resident_chain(monkeypatch, tmp_path / str(seed), seed, "embedding")
        assert sum(int(n_coupled) for *_, n_coupled in calls) > 0
        for y, centers, nbrs, weights, rows, _ in calls:
            want, _, _ = embed_increment_sweeps(y, centers, nbrs, weights)
            assert np.max(np.abs(rows - want)) <= 1e-7

    def test_reaching_matches_dijkstra(self, rng):
        # random sparse read graphs with cycles, self-loops, repeated edges,
        # chains longer than one pass and no seed at all
        for trial in range(200):
            n = int(rng.integers(1, 30))
            m = int(rng.integers(0, 3 * n))
            src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
            if trial % 10 == 0:
                src, dst = np.arange(1, n), np.arange(n - 1)   # a chain into node 0
            seeds = rng.random(n) < (0.0 if trial % 7 == 0 else 0.15)
            seeds[0] |= trial % 10 == 0
            got = _reaching(seeds, src, dst)
            assert got.tolist() == reaching_dijkstra(seeds, src, dst).tolist(), trial

    def test_unknown_neighbor_rejected(self, rng):
        y = self._table(rng)
        with pytest.raises(DataError, match="missing"):
            embed_increment(y, [4], [[14]], [np.ones(1)])

    def test_duplicate_centers_rejected(self, rng):
        y = self._table(rng)
        with pytest.raises(DataError, match="duplicate"):
            embed_increment(y, [4, 4], [[0], [0]], [np.ones(1), np.ones(1)])


def _resident_chain(monkeypatch, workdir, seed, weight_space):
    """Every ``embed_increment`` call of the ``resident`` benchmark's update
    chain at its tiny sizes with six batches, with untrained weights and the
    alignment captured in ``weight_space``, as (y, centers, nbrs, weights,
    rows, n_coupled)."""
    workloads = _bench_module("workloads")
    sizes = dict(workloads.TINY["resident"], batches=6)
    resident = workloads.ResidentWorkload(sizes, seed, str(workdir))
    resident.setup(0)
    graph, params, cfg = resident.graph, resident.params, resident.model_config
    ucfg = UpdateConfig(weight_space=weight_space)
    calls = []

    def record(y, centers, nbrs, weights):
        out = embed_increment(y, centers, nbrs, weights)
        calls.append((y.copy(), centers, nbrs, weights, out[0], out[2]))
        return out

    monkeypatch.setattr(incremental, "embed_increment", record)
    table = embed_all(graph, params, cfg, version=1)
    alignment = capture_alignment(graph, table, k=ucfg.k, eps=ucfg.eps, rng_seed=seed,
                                  weight_space=weight_space)
    batches = workloads.make_batches(seed, graph.counts, sizes["communities"],
                                     graph.input_dim, sizes)
    for version, (batch, _, _) in enumerate(batches, start=1):
        graph, params, table, _, alignment = ille_update(
            graph, batch, params, table, cfg, ucfg, alignment=alignment,
            rng_seed=mix(seed, version))
    assert len(calls) == len(batches)
    return calls


class TestFeatureSpaceChain:
    def test_every_batch_is_solved_exactly(self, tmp_path, monkeypatch):
        # the sweeps diverge on some of these batches (spectral radius of
        # W_UU above 1); the direct solve places every batch
        diverged = 0
        for seed in range(1, 11):
            for y, centers, nbrs, weights, rows, n_coupled in _resident_chain(
                    monkeypatch, tmp_path / str(seed), seed, "feature"):
                assert n_coupled > 0
                assert _max_rel(rows, coupled_rows_dense(y, centers, nbrs, weights)) <= 1e-10
                try:
                    embed_increment_sweeps(y, centers, nbrs, weights)
                except ArithmeticError:
                    diverged += 1
        assert diverged > 0


class TestKnnAndWeights:
    def test_knn_matches_brute_force(self, rng):
        x = rng.normal(size=(40, 3))
        assert np.array_equal(knn_indices(x, 5), knn_brute(x, 5))

    def test_knn_tie_breaks_by_index(self):
        x = np.array([[0.0], [1.0], [-1.0], [2.0]])
        # from point 0: points 1 and 2 are both at distance 1; 1 wins
        assert knn_indices(x, 2)[0].tolist() == [1, 2]

    def test_weight_matrix_rows_sum_to_one(self, rng):
        x = rng.normal(size=(30, 4))
        w = lle_weight_matrix(x, 6, 1e-3)
        assert w.shape == (30, 30)
        assert np.allclose(np.asarray(w.sum(axis=1)).ravel(), 1.0, atol=1e-10)
        assert w.diagonal().max() == 0.0
        assert (w != 0).sum() == 30 * 6


class TestFullLleOracle:
    def test_affine_subspace_embeds_exactly(self, rng):
        # 2-D affine subspace of 5-D space: reconstruction is exact, so the
        # bottom nontrivial eigenvalues and the embedding loss are ~ 0
        basis = rng.normal(size=(2, 5))
        coords = rng.normal(size=(60, 2))
        x = coords @ basis + rng.normal(size=5)
        y, lam = full_lle_oracle(x, k=6, dim=2)
        assert y.shape == (60, 2)
        assert np.all(lam < 1e-10)
        w = lle_weight_matrix(x, 6, 1e-8)
        nbr_lists = [w.indices[w.indptr[i]:w.indptr[i + 1]] for i in range(60)]
        wt_lists = [w.data[w.indptr[i]:w.indptr[i + 1]] for i in range(60)]
        assert lle_loss(y, nbr_lists, wt_lists) < 1e-6

    def test_embedding_loss_equals_spectrum_sum(self, rng):
        # for any point set, loss(Y) == N * sum(lam): ties together the
        # eigensolve, the weight matrix, and the loop-based loss oracle
        x = rng.normal(size=(35, 4))
        y, lam = full_lle_oracle(x, k=5, dim=3)
        w = lle_weight_matrix(x, 5, 1e-8)
        nbr_lists = [w.indices[w.indptr[i]:w.indptr[i + 1]] for i in range(35)]
        wt_lists = [w.data[w.indptr[i]:w.indptr[i + 1]] for i in range(35)]
        got = lle_loss(y, nbr_lists, wt_lists)
        want = 35 * lam.sum()
        assert abs(got - want) <= 1e-8 * max(1.0, want)

    def test_output_is_orthogonal_at_scale_sqrt_n(self, rng):
        x = rng.normal(size=(25, 4))
        y, _ = full_lle_oracle(x, k=4, dim=3)
        assert np.allclose(y.T @ y, 25 * np.eye(3), atol=1e-8)

    def test_dim_bound_validated(self, rng):
        x = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            full_lle_oracle(x, k=3, dim=9)


class TestAlignmentAndRefine:
    def _setup(self):
        g = tiny_bipartite(seed=3)
        cfg, params = tiny_params(g, seed=3)
        table = embed_all(g, params, cfg, version=1)
        return g, cfg, params, table

    def test_capture_covers_non_isolated_nodes(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        assert state.k == 3 and state.counts == tuple(g.counts)
        assert [g.ref_of(r) for r in state.rows] == all_refs(g)
        assert state.lam.shape == (table.dim, table.dim)
        assert state.nbrs.shape == (len(state.rows), 3)
        assert np.all(np.abs(state.weights.sum(axis=1) - 1.0) <= 1e-10)

    def test_capture_is_deterministic(self):
        g, cfg, params, table = self._setup()
        a = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=5)
        b = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=5)
        assert np.array_equal(a.lam, b.lam)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.nbrs, b.nbrs)
        assert np.array_equal(a.weights, b.weights)

    def test_with_rows_replaces_and_inserts_in_key_order(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        keep = state.rows != 3   # a gap in the stored rows
        state = AlignmentState(state.lam, state.counts, state.rows[keep], state.nbrs[keep],
                               state.weights[keep])
        rng = np.random.default_rng(2)
        # two stored rows replaced, three new ones (one in the gap, two at
        # the end), and one id given twice: its first row wins
        rows = np.array([5, 3, 0, 20, 3, 9])
        nbrs = rng.integers(0, 7, size=(6, 3))
        weights = rng.normal(size=(6, 3))
        want = {int(r): (n, w) for r, n, w in zip(state.rows, state.nbrs, state.weights)}
        for r, n, w in reversed(list(zip(rows.tolist(), nbrs, weights))):
            want[r] = (n, w)
        got = state.with_rows(rows, nbrs, weights)
        assert got.rows.tolist() == sorted(want)
        for r, n, w in zip(got.rows.tolist(), got.nbrs, got.weights):
            assert np.array_equal(n, want[r][0])
            assert np.array_equal(w, want[r][1])
        assert got.lam is state.lam and got.counts == state.counts and got.grams is None

    def test_refine_objective_never_increases_and_respects_mask(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        y0 = table.dense() + 0.05  # perturb so there is something to reduce
        mask = np.zeros(g.num_nodes, dtype=bool)
        mask[[0, 3, 4]] = True
        problem = AlignmentProblem(g, state, y0, mask, mu=1.0)
        result = incremental_refine(problem, steps=25, step_size=1e-4)
        assert all(b <= a + 1e-12 for a, b in zip(result.trajectory,
                                                  result.trajectory[1:]))
        assert result.j_pen_final < result.j_pen_initial
        assert np.array_equal(result.moved, np.flatnonzero(mask))
        assert not np.array_equal(result.y_moved, y0[mask])

    def test_refine_empty_mask_is_identity(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        y0 = table.dense()
        problem = AlignmentProblem(g, state, y0, np.zeros(g.num_nodes, dtype=bool))
        result = incremental_refine(problem, steps=5, step_size=1e-3)
        assert result.moved.size == 0 and result.y_moved.size == 0
        assert not result.step_warning

    def test_operator_matches_loop_oracle_after_growth(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        ucfg = UpdateConfig(k=3, refine_steps=2, refine_step_size=1e-5)
        offsets = [g.offsets.tolist()]
        for b in range(2):
            u, it = g.counts
            feats = (np.ones(5), np.ones(5, dtype=bool))
            batch = IncrementBatch(
                new_nodes=[(NodeRef(0, u), *feats), (NodeRef(1, it), *feats)],
                new_edges=[(NodeRef(0, u), NodeRef(1, it), 0, 60.0 + b),
                           (NodeRef(0, u), NodeRef(1, b), 0, 60.0 + b),
                           (NodeRef(1, it), NodeRef(0, 1), 1, 60.0 + b)],
                batch_time=60.0 + b)
            g, params, table, _, state = ille_update(
                g, batch, params, table, cfg, ucfg, alignment=state, rng_seed=b)
            offsets.append(g.offsets.tolist())
            assert [g.ref_of(r) for r in state.rows] == sorted(all_refs(g))
            assert state.counts == tuple(g.counts)
            got = _reconstruction_operator(g, state)
            got.sum_duplicates()   # canonical form: sorted columns, repeats summed
            want = reconstruction_operator_loop(g, state.rows, state.nbrs, state.weights)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()
        # the item block's global offset moved with each new user
        assert offsets == [[0, 3, 7], [0, 4, 9], [0, 5, 11]]

    @staticmethod
    def _grown(g, new_refs):
        feats = (np.ones(5), np.ones(5, dtype=bool))
        return apply_increment(g, IncrementBatch(
            new_nodes=[(ref, *feats) for ref in new_refs], new_edges=[], batch_time=60.0))[0]

    def test_in_graph_shifts_later_types_when_an_earlier_one_grows(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        g2 = self._grown(g, [NodeRef(0, 3), NodeRef(0, 4)])
        got = state.in_graph(g2)
        assert got.counts == (5, 4) and state.counts == (3, 4)
        # every type-1 id moves by the two new users; the nodes stay the same
        assert got.rows.tolist() == [g2.global_index(g.ref_of(r)) for r in state.rows]
        assert got.nbrs.tolist() == [[g2.global_index(g.ref_of(n)) for n in nb]
                                     for nb in state.nbrs]
        assert got.rows.tolist() == [0, 1, 2, 5, 6, 7, 8]
        assert got.weights is state.weights and got.lam is state.lam
        assert got.grams is state.grams
        op = _reconstruction_operator(g2, got)
        op.sum_duplicates()
        want = reconstruction_operator_loop(g2, got.rows, got.nbrs, got.weights)
        assert (op != want).nnz == 0 and op.shape == (9, 9)
        assert got.in_graph(g2) is got and state.in_graph(g) is state

    def test_in_graph_moves_no_id_when_only_the_last_type_grows(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        got = state.in_graph(self._grown(g, [NodeRef(1, 4)]))
        # the state must describe the grown graph's counts, so it is a new
        # state, with the same ids
        assert got.counts == (3, 5)
        assert np.array_equal(got.rows, state.rows) and np.array_equal(got.nbrs, state.nbrs)
        assert got.weights is state.weights and got.grams is state.grams

    def test_in_graph_rejects_a_graph_it_does_not_fit(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        smaller = AlignmentState(state.lam, (3, 5), state.rows, state.nbrs, state.weights)
        with pytest.raises(DataError, match=r"counts \(3, 5\), which the graph with counts"
                                            r" \(3, 4\) does not contain"):
            smaller.in_graph(g)
        with pytest.raises(DataError, match="does not contain"):
            AlignmentProblem(g, smaller, table.dense(), np.zeros(g.num_nodes, dtype=bool))
        other_types = AlignmentState(state.lam, (3, 4, 0), state.rows, state.nbrs,
                                     state.weights)
        with pytest.raises(DataError, match=r"counts \(3, 4, 0\)"):
            other_types.in_graph(g)

    def test_refine_flags_hopeless_step(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        y0 = table.dense() + 0.05
        mask = np.ones(g.num_nodes, dtype=bool)
        problem = AlignmentProblem(g, state, y0, mask, mu=1.0)
        # a step size so large that 20 halvings cannot rescue it
        result = incremental_refine(problem, steps=3, step_size=1e30)
        assert result.step_warning


def _assert_refine_matches_oracle(problem, steps, step_size):
    """The closed-form line search against per-trial re-evaluation, 1e-10 relative."""
    got = incremental_refine(problem, steps, step_size)
    y, traj, warning, jp0, jp1, ja0, ja1 = refine_per_trial(
        problem.i_minus_w, problem.lam, problem.y, problem.update_mask, problem.mu,
        steps, step_size)
    assert got.step_warning == warning
    assert len(got.trajectory) == len(traj)
    for a, b in zip(got.trajectory + [got.j_pen_initial, got.j_pen_final,
                                      got.j_align_initial, got.j_align_final],
                    traj + [jp0, jp1, ja0, ja1]):
        assert abs(a - b) <= 1e-10 * abs(b), (a, b)
    # only the masked rows move
    assert np.array_equal(got.moved, np.flatnonzero(problem.update_mask))
    got_y = problem.y.copy()
    got_y[got.moved] = got.y_moved
    assert np.max(np.abs(got_y - y)) <= 1e-10 * np.max(np.abs(y))
    return got


class TestRefineOracle:
    """Each case starts the fast and the per-trial refine from identical inputs."""

    def _problem(self, mask_rows, shift=0.05, mu=1.0):
        g = tiny_bipartite(seed=3)
        cfg, params = tiny_params(g, seed=3)
        table = embed_all(g, params, cfg, version=1)
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        mask = np.zeros(g.num_nodes, dtype=bool)
        mask[mask_rows] = True
        return AlignmentProblem(g, state, table.dense() + shift, mask, mu=mu)

    def test_descending_fixture(self):
        got = _assert_refine_matches_oracle(self._problem([0, 3, 4]), 25, 1e-4)
        assert len(got.trajectory) == 26

    def test_low_penalty_and_all_rows(self):
        _assert_refine_matches_oracle(self._problem(list(range(7)), shift=0.2, mu=0.1), 10, 1e-3)

    def test_empty_mask(self):
        _assert_refine_matches_oracle(self._problem([]), 5, 1e-3)

    def test_hopeless_step(self):
        got = _assert_refine_matches_oracle(self._problem(list(range(7))), 3, 1e30)
        assert got.step_warning

    def test_planted_update(self, tmp_path, monkeypatch):
        # a 2k + 2k planted graph, one batch of 20 new users and 4 new items
        gen_planted_bipartite(tmp_path, n_users=2000, n_items=2000, communities=16,
                              p_in=0.048, p_out=0.0008, feature_dim=16, seed=92)
        g = load_graph(tmp_path / "edges.tsv", tmp_path / "features.tsv",
                       tmp_path / "schema.tsv")
        cfg = ModelConfig(input_dim=g.input_dim, rng_seed=92)
        params = ModelParams(cfg, 2, 2, id_capacity=max(g.counts), init_seed=92)
        table = embed_all(g, params, cfg, version=1)
        state = capture_alignment(g, table, k=8, eps=1e-3, rng_seed=92)
        rng = np.random.default_rng(92)
        users, items = g.counts
        nodes = [(NodeRef(0, users + j), rng.normal(size=g.input_dim), None) for j in range(20)]
        nodes += [(NodeRef(1, items + j), rng.normal(size=g.input_dim), None) for j in range(4)]
        edges = [(NodeRef(0, users + j), NodeRef(1, int(i)), 0, 1e6)
                 for j in range(20) for i in rng.choice(items + 4, size=8, replace=False)]
        edges += [(dst, src, 1, ts) for src, dst, _, ts in edges]
        # ille_update writes the refined rows into the problem's y once the
        # refine returns, so the inputs are copied as the refine sees them
        seen = []
        monkeypatch.setattr(incremental, "incremental_refine",
                            lambda problem, steps, step_size: seen.append(
                                (AlignmentProblem(problem.graph, problem.alignment,
                                                  problem.y.copy(), problem.update_mask,
                                                  problem.mu, problem.grams),
                                 steps, step_size)) or incremental_refine(
                                    problem, steps, step_size))
        ille_update(g, IncrementBatch(new_nodes=nodes, new_edges=edges, batch_time=1e6),
                    params, table, cfg, UpdateConfig(), alignment=state, rng_seed=92)
        (problem, steps, step_size), = seen
        assert 0 < problem.update_mask.sum() < g.num_nodes
        got = _assert_refine_matches_oracle(problem, steps, step_size)
        assert len(got.trajectory) > 1


class TestDisentangledUpdate:
    def test_only_targeted_id_rows_change(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        row = np.arange(4, dtype=np.float64)
        out = disentangled_update(params, [[1, 2]], row[None])
        want = row - out.type_table.value[1]
        assert np.allclose(out.id_table.value[2], want, atol=1e-15)
        for a, b in zip(params.all_params(), out.all_params()):
            if a.name == "id_table":
                mask = np.ones(len(a.value), dtype=bool)
                mask[2] = False
                assert np.array_equal(a.value[mask], b.value[mask])
            else:
                assert np.array_equal(a.value, b.value), a.name

    def test_shared_id_row_resolves_last_ref_wins(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        r0 = np.zeros(4)
        r1 = np.ones(4)
        out = disentangled_update(params, [[1, 1], [0, 1]], np.stack([r1, r0]))
        # sorted refs: (0,1) then (1,1); the type-1 write lands last
        want = r1 - out.type_table.value[1]
        assert np.allclose(out.id_table.value[1], want, atol=1e-15)

    def test_grows_id_table_when_needed(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        out = disentangled_update(params, [[1, 9]], np.ones((1, 4)))
        assert out.id_capacity == 10
        assert params.id_capacity == 4


class TestIlleUpdate:
    def _setup(self, seed=0):
        g = tiny_bipartite(seed=seed)
        cfg, params = tiny_params(g, seed=seed)
        table = embed_all(g, params, cfg, version=1)
        return g, cfg, params, table

    def _batch(self, connected=True):
        edges = [(NodeRef(0, 3), NodeRef(1, 1), 0, 50.0)] if connected else []
        return IncrementBatch(
            new_nodes=[(NodeRef(0, 3), np.ones(5), np.ones(5, dtype=bool))],
            new_edges=edges, batch_time=50.0)

    def _chain_batch(self, g, b):
        """Batch b of a chain: a new user and a new item, linked to each other
        and to existing nodes."""
        u, it = g.counts
        return IncrementBatch(
            new_nodes=[(NodeRef(0, u), np.ones(5), np.ones(5, dtype=bool)),
                       (NodeRef(1, it), None, None)],
            new_edges=[(NodeRef(0, u), NodeRef(1, b), 0, 50.0 + b),
                       (NodeRef(0, b), NodeRef(1, it), 0, 50.0 + b),
                       (NodeRef(1, it), NodeRef(0, u), 1, 50.0 + b)],
            batch_time=50.0 + b)

    def test_new_connected_node_row_is_neighbor_combination(self):
        g, cfg, params, table = self._setup()
        ucfg = UpdateConfig(k=2, refine_steps=0)
        g2, params2, table2, report, _ = ille_update(
            g, self._batch(), params, table, cfg, ucfg, rng_seed=1)
        assert g2.counts == [4, 4]
        assert table2.counts == [4, 4]
        assert report["n_new_nodes"] == 1
        assert report["n_cold_isolated"] == 0
        assert report["reconstruction_loss"] >= 0.0
        assert np.all(np.isfinite(table2.blocks[0][3]))
        assert np.any(table2.blocks[0][3] != 0.0)
        # inputs untouched
        assert table.counts == [3, 4]
        assert g.counts == [3, 4]

    def test_cold_isolated_node_uses_feature_pathway(self):
        g, cfg, params, table = self._setup()
        ucfg = UpdateConfig(k=2, refine_steps=0)
        g2, params2, table2, report, _ = ille_update(
            g, self._batch(connected=False), params, table, cfg, ucfg, rng_seed=1)
        assert report["n_cold_isolated"] == 1
        assert np.all(np.isfinite(table2.blocks[0][3]))
        assert np.any(table2.blocks[0][3] != 0.0)

    def test_unanchored_new_pair_uses_feature_pathway(self, tmp_path):
        # a new user and a new item linked only to each other read only each
        # other's rows, so embed_increment leaves both unsolved
        g, cfg, params, table = self._setup()
        u, it = g.counts
        batch = IncrementBatch(
            new_nodes=[(NodeRef(0, u), np.ones(5), np.ones(5, dtype=bool)),
                       (NodeRef(1, it), None, None)],
            new_edges=[(NodeRef(0, u), NodeRef(1, it), 0, 50.0),
                       (NodeRef(1, it), NodeRef(0, u), 1, 50.0)],
            batch_time=50.0)
        ucfg = UpdateConfig(k=2)
        alignment = capture_alignment(g, table, k=2, eps=ucfg.eps, rng_seed=0)
        g2, params2, table2, report, alignment2 = ille_update(
            g, batch, params, table, cfg, ucfg, alignment=alignment, rng_seed=1)
        assert report["n_cold_isolated"] == 2 and report["jacobi_sweeps"] == 2
        for row in (table2.blocks[0][u], table2.blocks[1][it]):
            assert np.all(np.isfinite(row)) and np.any(row != 0.0)
        run = RunConfig.from_text("")
        run.paths["snapshot_dir"] = str(tmp_path)
        write_snapshot(tmp_path, "incremental", cfg, params2, table2, alignment2, "0" * 64,
                       None, [], graph=g2)
        hits = cmd_retrieve(run, u, k=3)
        assert len(hits) == 3 and all(np.isfinite(h["score"]) for h in hits)

    def test_uncoupled_update_loads_no_sparse_solver(self):
        # scipy's sparse LU and graph-search modules stay unloaded when no
        # new node reads another
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from conftest import tiny_bipartite, tiny_params
            from dhge.graph import IncrementBatch, NodeRef
            from dhge.incremental import UpdateConfig, capture_alignment, ille_update
            from dhge.model import embed_all
            g = tiny_bipartite()
            cfg, params = tiny_params(g)
            table = embed_all(g, params, cfg, version=1)
            ucfg = UpdateConfig(k=2)
            alignment = capture_alignment(g, table, k=2, eps=ucfg.eps, rng_seed=0)
            batch = IncrementBatch(
                new_nodes=[(NodeRef(0, 3), np.ones(5), np.ones(5, dtype=bool))],
                new_edges=[(NodeRef(0, 3), NodeRef(1, 1), 0, 50.0)], batch_time=50.0)
            report = ille_update(g, batch, params, table, cfg, ucfg, alignment=alignment,
                                 rng_seed=1)[3]
            assert report["n_new_nodes"] == 1 and report["jacobi_sweeps"] == 0
            print(sorted(m for m in sys.modules
                         if m.startswith(("scipy.sparse.linalg", "scipy.sparse.csgraph"))))
            """)
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
        env = dict(os.environ, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_determinism_per_seed(self):
        g, cfg, params, table = self._setup()
        ucfg = UpdateConfig(k=2, refine_steps=0)
        out1 = ille_update(g, self._batch(), params, table, cfg, ucfg, rng_seed=9)
        out2 = ille_update(g, self._batch(), params, table, cfg, ucfg, rng_seed=9)
        assert blocks_equal(out1[2], out2[2])
        assert np.array_equal(out1[1].id_table.value, out2[1].id_table.value)

    def test_only_update_set_rows_change_without_refine(self):
        g, cfg, params, table = self._setup()
        ucfg = UpdateConfig(k=2, refine_steps=0)
        g2, params2, table2, report, _ = ille_update(
            g, self._batch(), params, table, cfg, ucfg, rng_seed=1)
        # update set: new user (0,3) and touched item (1,1)
        changed = {(t, i)
                   for t in range(2) for i in range(table.counts[t])
                   if not np.array_equal(table.blocks[t][i], table2.blocks[t][i])}
        assert changed == {(1, 1)}
        # model: only id-table rows 3 (new) and 1 (touched) may differ
        for a, b in zip(params.all_params(), params2.all_params()):
            if a.name == "id_table":
                same = [i for i in range(min(len(a.value), len(b.value)))
                        if np.array_equal(a.value[i], b.value[i])]
                assert set(range(len(a.value))) - set(same) <= {1, 3}
            else:
                assert np.array_equal(a.value, b.value), a.name

    def test_alignment_rows_gain_new_nodes(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        ucfg = UpdateConfig(k=2, refine_steps=3, refine_step_size=1e-5)
        g2, params2, table2, report, state2 = ille_update(
            g, self._batch(), params, table, cfg, ucfg,
            alignment=state, rng_seed=1)
        assert g2.global_index((0, 3)) in state2.rows.tolist()
        assert np.array_equal(state2.lam, state.lam)
        assert report["refine_J_initial"] is not None
        assert report["refine_J_final"] <= report["refine_J_initial"]

    def test_report_times_each_stage(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        report = ille_update(g, self._batch(), params, table, cfg,
                             UpdateConfig(k=2, refine_steps=2, refine_step_size=1e-5),
                             alignment=state, rng_seed=1)[3]
        stages = report["stage_ms"]
        assert list(stages) == ["apply", "sample", "weights", "embed", "blend",
                                "refine", "write-back"]
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= report["wall_ms"]

    def test_cached_sums_match_a_full_pass(self):
        # a chain of updates carries R^T R and Y^T Y in the alignment; each
        # update from a copy without them recomputes both over every row
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        ucfg = UpdateConfig(k=2, refine_steps=3, refine_step_size=1e-4)
        for b in range(3):
            batch = self._chain_batch(g, b)
            assert state.grams[0] is table
            bare = AlignmentState(state.lam, state.counts, state.rows, state.nbrs, state.weights)
            out = ille_update(g, batch, params, table, cfg, ucfg, alignment=state, rng_seed=b)
            ref = ille_update(g, batch, params, table, cfg, ucfg, alignment=bare, rng_seed=b)
            for got, want in zip(out[4].grams[1:], ref[4].grams[1:]):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(out[2].dense() - ref[2].dense())) <= 1e-10
            g, params, table, _, state = out

    def test_cached_sums_spare_the_whole_operator(self, monkeypatch):
        # with sums cached for its table an update builds only the rows of
        # I - W it reads; without them, as loaded from disk, it builds the
        # whole operator once
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        ucfg = UpdateConfig(k=2, refine_steps=3, refine_step_size=1e-4)
        g, params, table, _, state = ille_update(g, self._chain_batch(g, 0), params, table,
                                                 cfg, ucfg, alignment=state, rng_seed=0)
        whole = incremental._reconstruction_operator
        calls = []
        monkeypatch.setattr(incremental, "_reconstruction_operator",
                            lambda *args: calls.append(args) or whole(*args))
        batch = self._chain_batch(g, 1)
        report = ille_update(g, batch, params, table, cfg, ucfg, alignment=state, rng_seed=1)[3]
        assert calls == []
        assert report["refine_J_final"] is not None
        bare = AlignmentState(state.lam, state.counts, state.rows, state.nbrs, state.weights)
        ille_update(g, batch, params, table, cfg, ucfg, alignment=bare, rng_seed=1)
        assert len(calls) == 1

    @pytest.mark.parametrize("space", ["embedding", "feature"])
    def test_weight_rows_solve_over_their_space(self, space):
        # every stored row against reconstruction_weights over the space's
        # vectors: feature rows, or the table with provisional rows (the mean
        # of the existing neighbors' rows) for the batch's new nodes
        g, cfg, params, table = self._setup()
        eps = 1e-3

        def check(graph, alignment, vec):
            for r, nb, w in zip(alignment.rows, alignment.nbrs, alignment.weights):
                want = reconstruction_weights(vec(graph.ref_of(r)),
                                              np.stack([vec(graph.ref_of(n)) for n in nb]), eps)
                assert w.tobytes() == want.tobytes(), r

        state = capture_alignment(g, table, k=3, eps=eps, rng_seed=0, weight_space=space)
        assert len(state.rows) == g.num_nodes
        check(g, state, table.row if space == "embedding" else
              lambda ref: g.feature_blocks[ref[0]][ref[1]])
        ucfg = UpdateConfig(k=3, refine_steps=2, refine_step_size=1e-4, weight_space=space)
        coupled = 0
        for b in range(2):
            g2, params, table2, report, state2 = ille_update(
                g, self._chain_batch(g, b), params, table, cfg, ucfg, alignment=state, rng_seed=b)
            coupled += report["jacobi_sweeps"]
            new = {(0, g.counts[0]), (1, g.counts[1])}
            updated = new | {(0, b), (1, b)}
            rows = {g2.ref_of(r): [g2.ref_of(n) for n in nb]
                    for r, nb in zip(state2.rows, state2.nbrs)}

            def vec(ref):
                if space == "feature":
                    return g2.feature_blocks[ref[0]][ref[1]]
                if ref not in new:
                    return table.row(ref)
                known = [table.row(n) for n in rows[ref] if n not in new]
                return np.mean(known, axis=0) if known else np.zeros(table.dim)

            old = {g.ref_of(r): w for r, w in zip(state.rows, state.weights)}
            rewritten = np.array([g2.ref_of(r) in updated for r in state2.rows])
            assert rewritten.sum() == len(updated)
            check(g2, AlignmentState(None, state2.counts, state2.rows[rewritten],
                                     state2.nbrs[rewritten], state2.weights[rewritten]), vec)
            for r, w in zip(state2.rows[~rewritten], state2.weights[~rewritten]):
                assert w.tobytes() == old[g2.ref_of(r)].tobytes()
            g, table, state = g2, table2, state2
        assert coupled > 0

    def test_alignment_k_mismatch_rejected(self):
        g, cfg, params, table = self._setup()
        state = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        with pytest.raises(DataError, match="k=2 but the update uses k=3"):
            ille_update(g, self._batch(), params, table, cfg, UpdateConfig(k=3),
                        alignment=state)

    def test_table_count_mismatch_rejected(self):
        g, cfg, params, table = self._setup()
        bad = EmbeddingTable([np.zeros((2, table.dim)), np.zeros((4, table.dim))])
        with pytest.raises(DataError, match="counts"):
            ille_update(g, self._batch(), params, bad, cfg, UpdateConfig())
