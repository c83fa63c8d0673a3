"""Model-layer tests against dense quadratic-cost oracles.

The fast attention paths never materialize score matrices; every oracle
here does exactly that, on graphs small enough to brute-force.
"""
import hashlib

import numpy as np
import pytest

from dhge.graph import DataError, NodeRef, sample_subgraph
from dhge.model import (ModelConfig, ModelParams, init_features, identity_embed,
                        global_attention, edge_attention, gcn_forward, fuse,
                        forward_subgraph, edge_loss, dynamic_negative_sample,
                        train_epoch, embed_all, apply_dropout)
from dhge.tensor import Tensor, Param, backward
from dhge.optim import AdamW
from dhge.seeding import TAG_EMBED, mix
from conftest import build_graph, full_subgraph, tiny_bipartite, tiny_params
from update_scaling import scaling_graph
from oracles import (blocks_equal, dense_global_attention, dense_edge_attention, dense_gcn,
                     embed_all_full_rows, dynamic_negative_sample_loop, pair_loss_ref,
                     fd_gradient, rel_err)


def _edges_by_relation(sub, num_relations):
    return [list(zip(sub.rel_src[r].tolist(), sub.rel_dst[r].tolist()))
            for r in range(num_relations)]


class TestInitFeatures:
    def test_missing_cells_take_the_learned_token(self):
        g = tiny_bipartite(missing_rate=0.0)
        cfg, params = tiny_params(g)
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        mask = np.array([[True, False, True, False, True]])
        out = init_features(x, mask, params).value
        token = params.imputation_token.value[0]
        filled = np.where(mask[0], x[0], token)
        want = filled @ params.input_weight.value + params.input_bias.value[0]
        assert np.allclose(out[0], want, atol=1e-12)

    def test_shape_and_dim_validation(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        with pytest.raises(DataError):
            init_features(np.ones((2, 5)), np.ones((3, 5), dtype=bool), params)
        with pytest.raises(DataError):
            init_features(np.ones((2, 4)), np.ones((2, 4), dtype=bool), params)

    def test_relu_activation_applies(self):
        g = tiny_bipartite(missing_rate=0.0)
        cfg, params = tiny_params(g)
        x = g.feature_blocks[0]
        m = g.mask_blocks[0]
        lin = init_features(x, m, params, activation="identity").value
        rl = init_features(x, m, params, activation="relu").value
        assert np.allclose(rl, np.maximum(lin, 0.0), atol=1e-12)
        with pytest.raises(ValueError):
            init_features(x, m, params, activation="gelu")


class TestIdentityEmbed:
    def test_rows_are_id_plus_type(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        out = identity_embed([0, 1, 1], [2, 0, 2], params).value
        it = params.id_table.value
        tt = params.type_table.value
        assert np.allclose(out[0], it[2] + tt[0], atol=1e-15)
        assert np.allclose(out[1], it[0] + tt[1], atol=1e-15)
        assert np.allclose(out[2], it[2] + tt[1], atol=1e-15)

    def test_out_of_range_rejected(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        with pytest.raises(DataError):
            identity_embed([0], [params.id_capacity], params)
        with pytest.raises(DataError):
            identity_embed([9], [0], params)


class TestGlobalAttention:
    def test_matches_dense_oracle(self, rng):
        for trial in range(20):
            n = int(rng.integers(2, 33))
            d = int(rng.integers(2, 7))
            g = build_graph([(0, 0)], [max(n, 2)], [[]], input_dim=3,
                            seed=trial)
            cfg = ModelConfig(input_dim=3, hidden_dim=d)
            params = ModelParams(cfg, num_types=1, num_relations=1,
                                 id_capacity=max(n, 2), init_seed=trial)
            x0 = rng.normal(size=(n, d))
            mix = float(rng.random())
            got = global_attention(Tensor(x0), params, mix).value
            want = dense_global_attention(
                x0, params.attn_query.value, params.attn_key.value,
                params.attn_value.value, mix)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_mix_zero_is_identity(self, rng):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        x0 = rng.normal(size=(6, 4))
        out = global_attention(Tensor(x0), params, 0.0).value
        assert np.array_equal(out, x0)

    def test_gradient_matches_fd(self, rng):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        x0 = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 4))

        def run(x):
            return (global_attention(x, params, 0.7) * Tensor(w)).sum()

        p = Param(x0.copy(), name="x")
        backward(run(p))
        want = fd_gradient(lambda a: float(run(Tensor(a)).value), x0)
        assert rel_err(p.grad, want) <= 1e-4


class TestEdgeAttention:
    def _setup(self, seed=0, missing_rate=0.3):
        g = tiny_bipartite(seed=seed, missing_rate=missing_rate)
        cfg, params = tiny_params(g, seed=seed)
        sub = full_subgraph(g)
        return g, cfg, params, sub

    def test_matches_dense_masked_oracle(self, rng):
        for seed in range(10):
            g, cfg, params, sub = self._setup(seed=seed)
            gin = rng.normal(size=(g.num_nodes, cfg.hidden_dim))
            got = edge_attention(Tensor(gin), sub, params, g.schema).value
            want = dense_edge_attention(
                gin, sub.node_types,
                _edges_by_relation(sub, g.schema.num_relations),
                g.schema.pairs,
                [p.value for p in params.type_query],
                [p.value for p in params.type_key],
                [p.value for p in params.type_value],
                [p.value for p in params.rel_attn],
                [p.value for p in params.rel_msg],
                [float(p.value) for p in params.rel_factor],
                [float(p.value) for p in params.type_mix])
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_isolated_node_keeps_residual_only(self, rng):
        # a node with no in-edges gets (1 - beta) * g exactly
        g = build_graph([(0, 1)], [2, 2], [[(0, 0)]], input_dim=3, seed=1)
        cfg, params = tiny_params(g, hidden_dim=3, seed=1)
        gin = rng.normal(size=(4, 3))
        out = edge_attention(Tensor(gin), full_subgraph(g), params, g.schema).value
        beta_u = float(params.type_mix[0].value)
        beta_i = float(params.type_mix[1].value)
        # user rows never receive messages under relation 0 -> item
        assert np.allclose(out[0], (1 - beta_u) * gin[0], atol=1e-12)
        assert np.allclose(out[1], (1 - beta_u) * gin[1], atol=1e-12)
        # item 1 has no in-edge either
        assert np.allclose(out[3], (1 - beta_i) * gin[3], atol=1e-12)
        assert not np.allclose(out[2], (1 - beta_i) * gin[2], atol=1e-6)

    def test_gradient_matches_fd(self, rng):
        g, cfg, params, sub = self._setup(seed=3)
        gin = rng.normal(size=(g.num_nodes, cfg.hidden_dim))
        w = rng.normal(size=gin.shape)

        def run(x):
            return (edge_attention(x, sub, params, g.schema) * Tensor(w)).sum()

        p = Param(gin.copy(), name="g")
        backward(run(p))
        want = fd_gradient(lambda a: float(run(Tensor(a)).value), gin)
        assert rel_err(p.grad, want) <= 1e-4


class TestGcnAndFusion:
    def test_gcn_matches_dense_oracle(self, rng):
        g = tiny_bipartite(seed=4)
        cfg, params = tiny_params(g, hidden_dim=4, num_gcn_layers=3, seed=4)
        sub = full_subgraph(g)
        x0 = rng.normal(size=(g.num_nodes, 4))
        got = gcn_forward(Tensor(x0), sub, params).value
        want = dense_gcn(x0, g.num_nodes,
                         _edges_by_relation(sub, g.schema.num_relations),
                         [w.value for w in params.gcn_weight])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_fuse_is_weighted_sum(self, rng):
        a, b, c = (Tensor(rng.normal(size=(3, 2))) for _ in range(3))
        out = fuse(a, b, c, (0.5, 2.0, -1.0)).value
        assert np.allclose(out, 0.5 * a.value + 2.0 * b.value - c.value,
                           atol=1e-15)

    def test_forward_subgraph_matches_stacked_dense_oracle(self):
        # end-to-end forward against the dense pipeline assembled from oracles
        g = tiny_bipartite(seed=7, missing_rate=0.25)
        cfg, params = tiny_params(g, hidden_dim=5, num_gcn_layers=2, seed=7,
                                  global_mix=0.6, fusion_weights=(0.7, 1.1, 0.9))
        sub = full_subgraph(g)
        got = forward_subgraph(g, sub, params, cfg).value

        x_raw = np.concatenate([g.feature_blocks[0], g.feature_blocks[1]])
        mask = np.concatenate([g.mask_blocks[0], g.mask_blocks[1]])
        token = params.imputation_token.value[0]
        filled = np.where(mask, x_raw, token)
        x0 = filled @ params.input_weight.value + params.input_bias.value
        gt = dense_global_attention(x0, params.attn_query.value,
                                    params.attn_key.value,
                                    params.attn_value.value, 0.6)
        edges = _edges_by_relation(sub, g.schema.num_relations)
        z_edge = dense_edge_attention(
            gt, sub.node_types, edges, g.schema.pairs,
            [p.value for p in params.type_query],
            [p.value for p in params.type_key],
            [p.value for p in params.type_value],
            [p.value for p in params.rel_attn],
            [p.value for p in params.rel_msg],
            [float(p.value) for p in params.rel_factor],
            [float(p.value) for p in params.type_mix])
        z_gcn = dense_gcn(x0, g.num_nodes, edges,
                          [w.value for w in params.gcn_weight])
        z_id = (params.id_table.value[sub.intra_ids]
                + params.type_table.value[sub.node_types])
        want = 0.7 * z_id + 1.1 * z_edge + 0.9 * z_gcn
        assert np.max(np.abs(got - want)) <= 1e-10


class TestLossAndNegatives:
    def test_edge_loss_matches_scipy_reference(self, rng):
        z = rng.normal(size=(6, 4)) * 3.0
        pos = [(0, 3), (1, 4)]
        neg = [(0, 5), (1, 2)]
        got = float(edge_loss(Tensor(z), pos, neg).value)
        assert abs(got - pair_loss_ref(z, pos, neg)) <= 1e-10

    def test_edge_loss_clamps_extreme_scores(self, rng):
        z = np.zeros((2, 2))
        z[0] = [100.0, 0.0]
        z[1] = [100.0, 0.0]   # dot = 10000, clamped to 30
        got = float(edge_loss(Tensor(z), [(0, 1)], [(0, 1)]).value)
        want = pair_loss_ref(z, [(0, 1)], [(0, 1)])
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-10

    def test_edge_loss_validation(self, rng):
        z = Tensor(rng.normal(size=(4, 2)))
        with pytest.raises(DataError):
            edge_loss(z, [], [])
        with pytest.raises(DataError):
            edge_loss(z, [(0, 1)], [(0, 1), (1, 2)])

    def test_gradient_through_loss_matches_fd(self, rng):
        z0 = rng.normal(size=(5, 3))
        pos = [(0, 1), (2, 3)]
        neg = [(0, 4), (2, 1)]
        p = Param(z0.copy(), name="z")
        backward(edge_loss(p, pos, neg))
        want = fd_gradient(lambda a: pair_loss_ref(a, pos, neg), z0)
        assert rel_err(p.grad, want) <= 1e-4

    def test_negative_sampling_picks_hardest_non_neighbor(self):
        g = tiny_bipartite()
        rng = np.random.default_rng(0)
        emb_ids = np.arange(g.num_nodes)
        emb = np.zeros((g.num_nodes, 2))
        emb[0] = [1.0, 0.0]
        # candidate items for user 0 (positive (0 -> item0=3)): items are
        # globals 3..6; neighbors of user 0 are {3, 4, 6}; so only item 2
        # (global 5) is admissible regardless of score
        emb[5] = [0.2, 0.0]
        out = dynamic_negative_sample(np.array([[0, 3]]), emb, emb_ids, g,
                                      pool_size=8, rng=rng)
        assert out.tolist() == [[0, 5]]

    def test_negative_sampling_tie_breaks_to_smallest_id(self):
        # three equally-scored admissible candidates -> smallest global id
        g = build_graph([(0, 1)], [1, 5], [[(0, 0)]])
        rng = np.random.default_rng(3)
        emb_ids = np.arange(g.num_nodes)
        emb = np.zeros((g.num_nodes, 2))   # all scores identical (0)
        out = dynamic_negative_sample(np.array([[0, 1]]), emb, emb_ids, g,
                                      pool_size=8, rng=rng)
        assert out.tolist() == [[0, 2]]   # globals 2,3,4,5 admissible; 1 is linked

    def test_negative_sampling_exhausted_pool_raises(self):
        g = build_graph([(0, 1)], [1, 2], [[(0, 0), (0, 1)]])
        rng = np.random.default_rng(0)
        emb_ids = np.arange(g.num_nodes)
        emb = np.zeros((g.num_nodes, 2))
        with pytest.raises(DataError, match="negative"):
            dynamic_negative_sample(np.array([[0, 1]]), emb, emb_ids, g,
                                    pool_size=4, rng=rng)


def _sampling_case(seed, integer_scores):
    """Three node types, four relations (one within a type), a seeded batch.

    Type 2 has five nodes and users 0-2 link to all of them, so their pairs
    into type 2 are exhausted. The batch repeats pairs, mixes edges with
    random pairs (sources of every type, any target type), and ``emb_ids``
    is a random subset of the nodes that keeps every source, as in a
    sampled subgraph. Integer-valued embeddings make score ties common.
    """
    rng = np.random.default_rng(seed)
    counts = [40, 30, 5]
    pairs = [(0, 1), (1, 0), (0, 2), (1, 1)]
    rel_edges = []
    for r, (s_t, d_t) in enumerate(pairs):
        linked = rng.random((counts[s_t], counts[d_t])) < 0.15
        if s_t == d_t:
            np.fill_diagonal(linked, False)
        if r == 2:
            linked[:3] = True
        rel_edges.append([(int(i), int(j)) for i, j in zip(*np.nonzero(linked))])
    g = build_graph(pairs, counts, rel_edges, seed=seed)
    edges = np.concatenate([np.stack([g.rel_src[r] + g.offsets[s_t],
                                      g.rel_dst[r] + g.offsets[d_t]], axis=1)
                            for r, (s_t, d_t) in enumerate(pairs)])
    pos = np.concatenate([edges[rng.choice(len(edges), size=80)],
                          rng.integers(0, g.num_nodes, size=(40, 2)),
                          [[0, g.offsets[2]], [2, g.offsets[2] + 4]]])
    pos = np.concatenate([pos, pos[:10]])
    keep = rng.random(g.num_nodes) < 0.7
    keep[pos[:, 0]] = True
    emb_ids = np.flatnonzero(keep)
    emb = rng.normal(size=(len(emb_ids), 6))
    if integer_scores:
        emb = np.round(emb)
    return g, pos, emb, emb_ids


def _candidate_counts(g, pos, emb_ids):
    types = g.type_of_global(emb_ids)
    return np.array([len(np.setdiff1d(emb_ids[types == g.type_of_global(j)],
                                      np.append(g.neighbors_of(int(i)), i)))
                     for i, j in pos])


class TestBatchedNegativesMatchLoop:
    """The batched sampler against the per-pair loop: same picks, same draws."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("integer_scores", [False, True])
    def test_same_negatives_and_rng_state(self, seed, integer_scores):
        g, pos, emb, emb_ids = _sampling_case(seed, integer_scores)
        n_cands = _candidate_counts(g, pos, emb_ids)
        assert len(emb_ids) < g.num_nodes
        assert np.any(g.type_of_global(pos[:, 0]) != g.type_of_global(pos[:, 1]))
        # exhausted pairs, and at pool 8 both drawn and whole pools
        assert np.any(n_cands == 0)
        assert np.any(n_cands > 8) and np.any((n_cands > 0) & (n_cands <= 8))
        for pool in (1, 3, 8, 64):
            rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got = dynamic_negative_sample(pos, emb, emb_ids, g, pool, rng,
                                          skip_exhausted=True)
            want = dynamic_negative_sample_loop(pos, emb, emb_ids, g, pool, rng_loop,
                                                skip_exhausted=True)
            assert np.array_equal(got, want), pool
            assert rng.bit_generator.state == rng_loop.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_exhausted_pair_raises_after_the_same_draws(self, seed):
        g, pos, emb, emb_ids = _sampling_case(seed, integer_scores=False)
        n_cands = _candidate_counts(g, pos, emb_ids)
        rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.raises(DataError) as got:
            dynamic_negative_sample(pos, emb, emb_ids, g, 8, rng)
        with pytest.raises(DataError) as want:
            dynamic_negative_sample_loop(pos, emb, emb_ids, g, 8, rng_loop)
        assert str(got.value) == str(want.value)
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        # without exhausted pairs nothing raises and nothing differs
        live = pos[n_cands > 0]
        got = dynamic_negative_sample(live, emb, emb_ids, g, 8, rng)
        want = dynamic_negative_sample_loop(live, emb, emb_ids, g, 8, rng_loop)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == rng_loop.bit_generator.state

    def test_out_of_range_pair_rejected(self):
        g = tiny_bipartite()
        emb_ids = np.arange(g.num_nodes)
        emb = np.zeros((g.num_nodes, 2))
        for bad in ([[0, g.num_nodes]], [[-1, 3]]):
            with pytest.raises(DataError, match="out of range"):
                dynamic_negative_sample(np.array(bad), emb, emb_ids, g, 4,
                                        np.random.default_rng(0))


class TestDropout:
    def test_inference_path_never_drops(self, rng):
        t = Tensor(rng.normal(size=(20, 10)))
        assert apply_dropout(t, 0.0, rng) is t

    def test_inverted_scaling(self):
        rng = np.random.default_rng(5)
        t = Tensor(np.ones((400, 50)))
        out = apply_dropout(t, 0.25, rng).value
        kept = out != 0.0
        assert np.allclose(out[kept], 1.0 / 0.75)
        assert abs(kept.mean() - 0.75) < 0.02


class TestTrainingLoop:
    def test_epoch_metrics_and_determinism(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g, hidden_dim=4, rng_seed=9)
        params2 = params.copy()
        m1 = train_epoch(g, params, cfg, AdamW(lr=1e-3), epoch=0)
        m2 = train_epoch(g, params2, cfg, AdamW(lr=1e-3), epoch=0)
        assert m1["epoch"] == 0
        assert m1["n_pairs"] > 0
        assert np.isfinite(m1["mean_loss"])
        assert m1["mean_loss"] == m2["mean_loss"]
        for a, b in zip(params.all_params(), params2.all_params()):
            assert np.array_equal(a.value, b.value), a.name

    def test_loss_decreases_on_easy_fixture(self):
        g = tiny_bipartite(missing_rate=0.0)
        cfg, params = tiny_params(g, hidden_dim=8, rng_seed=1)
        opt = AdamW(lr=0.02, weight_decay=0.0)
        losses = [train_epoch(g, params, cfg, opt, epoch=e)["mean_loss"]
                  for e in range(30)]
        assert losses[-1] < losses[0]

    def test_epoch_times_each_stage(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g, hidden_dim=4, rng_seed=9)
        m = train_epoch(g, params, cfg, AdamW(lr=1e-3), epoch=0)
        stages = m["stage_ms"]
        assert list(stages) == ["sample", "forward", "negatives", "loss", "backward", "step"]
        assert all(v >= 0.0 for v in stages.values())
        assert sum(stages.values()) <= m["wall_ms"]

    def test_empty_graph_rejected(self):
        g = build_graph([(0, 1)], [2, 2], [[]])
        cfg, params = tiny_params(g)
        with pytest.raises(DataError, match="train"):
            train_epoch(g, params, cfg, AdamW())


class TestEmbedAll:
    def test_covers_every_node_and_is_bit_deterministic(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g, rng_seed=2)
        t1 = embed_all(g, params, cfg, version=3)
        t2 = embed_all(g, params, cfg, version=3)
        assert t1.version == 3
        assert t1.counts == g.counts
        assert blocks_equal(t1, t2)
        assert all(np.all(np.isfinite(b)) for b in t1.blocks)
        # rows are not all identical (the encoder actually ran)
        assert not np.allclose(t1.blocks[0][0], t1.blocks[0][1])

    def test_small_batch_size_changes_nothing_observable(self):
        # chunked inference must produce the same coverage regardless of
        # batch size (values may differ because neighborhoods are sampled
        # per chunk seed, but shapes/finiteness/determinism must hold)
        g = tiny_bipartite()
        cfg1, params = tiny_params(g, rng_seed=2, batch_size=2)
        t1 = embed_all(g, params, cfg1, version=0)
        t1b = embed_all(g, params, cfg1, version=0)
        assert blocks_equal(t1, t1b)


def _three_type_graph(seed=0):
    """19 nodes: 9 of type 0, 7 of type 1, 3 of type 2. Relation 2 joins
    type 0 to itself; relation 3 has two edges, (2, 0) -> (1, 3) and
    (2, 2) -> (1, 5); node (2, 1) has no edge."""
    rng = np.random.default_rng(seed)
    ui = sorted({(int(u), int(i)) for u, i in zip(rng.integers(0, 9, 20), rng.integers(0, 7, 20))})
    uu = sorted({(int(a), int(b)) for a, b in zip(rng.integers(0, 9, 8), rng.integers(0, 9, 8))
                 if a != b})
    return build_graph([(0, 1), (1, 0), (0, 0), (2, 1)], [9, 7, 3],
                       [ui, [(i, u) for u, i in ui], uu, [(0, 3), (2, 5)]],
                       seed=seed, missing_rate=0.2)


def _chunk_cases(g, cfg):
    """The edge cases of the restricted forward that ``embed_all``'s chunks
    reach under ``cfg``."""
    out = set()
    for b in range(0, g.num_nodes, cfg.batch_size):
        sub = sample_subgraph(g, np.arange(b, min(b + cfg.batch_size, g.num_nodes)),
                              cfg.degree_limit, mix(cfg.rng_seed, b, TAG_EMBED))
        kept = np.zeros(sub.num_nodes, dtype=bool)
        kept[sub.seed_locals] = True
        if len(sub.seeds) == 1 and sub.num_nodes > 1:
            out.add("one seed")
        if any(kept[a:z].sum() == 1 and z - a > 1 for a, z in sub.type_slices):
            out.add("one seed of a type")
        for dst in sub.rel_dst:
            into = int(kept[dst].sum())
            if len(dst) > 1 and into == 1:
                out.add("one edge into kept rows")
            if len(dst) and not into:
                out.add("no edge into kept rows")
    return out


# encoder settings that take different paths through the restricted tail
_VARIANTS = [{}, {"input_activation": "relu"}, {"num_gcn_layers": 1}, {"num_gcn_layers": 3},
             {"fusion_weights": (1.0, 0.0, 0.5)}, {"fusion_weights": (0.0, 0.7, 0.0)},
             {"global_mix": 0.0}, {"global_mix": 1.0}]


class TestRestrictedForward:
    """The seed-row tail of ``forward_subgraph`` and ``embed_all`` against the
    full-row encoder, at exact equality."""

    def test_rows_equal_those_rows_of_the_full_output(self):
        g = _three_type_graph()
        for variant in _VARIANTS:
            cfg, params = tiny_params(g, hidden_dim=6, seed=3, **variant)
            for seeds in (np.arange(g.num_nodes), np.arange(6, 16)):
                sub = sample_subgraph(g, seeds, 2, 5)
                full = forward_subgraph(g, sub, params, cfg).value
                n = sub.num_nodes
                picks = ([[i] for i in range(n)] + [[i, i + 1] for i in range(n - 1)]
                         + [[0, n - 1], list(range(n))])
                for r in picks:
                    got = forward_subgraph(g, sub, params, cfg, rows=np.array(r)).value
                    assert np.array_equal(got, full[r]), (variant, r)

    def test_embed_all_equals_full_row_oracle(self):
        g = _three_type_graph()
        reached = set()
        for batch_size in (2, 3, 6):
            assert g.num_nodes % batch_size == 1     # the last chunk has one seed
            for variant in _VARIANTS:
                cfg, params = tiny_params(g, hidden_dim=6, seed=3, batch_size=batch_size,
                                          degree_limit=2, rng_seed=1, **variant)
                got = embed_all(g, params, cfg).blocks
                want = embed_all_full_rows(g, params, cfg)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (batch_size, variant)
            reached |= _chunk_cases(g, cfg)
        assert reached == {"one seed", "one seed of a type", "one edge into kept rows",
                           "no edge into kept rows"}

    def test_embed_all_equals_full_row_oracle_at_full_width(self):
        g = scaling_graph(1000, seed=2)
        cfg = ModelConfig(input_dim=8, batch_size=333, rng_seed=4)   # hidden 64; 1000 = 3 * 333 + 1
        params = ModelParams(cfg, num_types=2, num_relations=2, id_capacity=max(g.counts))
        got = embed_all(g, params, cfg).blocks
        want = embed_all_full_rows(g, params, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_rows_are_ascending_unique_and_for_inference_only(self):
        g = _three_type_graph()
        cfg, params = tiny_params(g)
        sub = sample_subgraph(g, np.arange(6), 2, 5)
        for rows in ([1, 0], [2, 2], [], [-1, 0], [sub.num_nodes]):
            with pytest.raises(ValueError, match="ascending"):
                forward_subgraph(g, sub, params, cfg, rows=np.array(rows, dtype=np.int64))
        with pytest.raises(ValueError, match="inference"):
            forward_subgraph(g, sub, params, cfg, training=True, rows=sub.seed_locals)


def _params_sha256(params):
    """sha256 over each parameter's name, shape and float64 bytes, in order."""
    h = hashlib.sha256()
    for p in params.all_params():
        value = np.asarray(p.value, dtype=np.float64)
        h.update(p.name.encode() + repr(value.shape).encode() + value.tobytes())
    return h.hexdigest()


class TestParamPlumbing:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, global_mix=1.5)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, dropout=1.0)
        with pytest.raises(ValueError):
            ModelConfig(input_dim=3, num_gcn_layers=0)

    def test_config_items_round_trip(self):
        cfg = ModelConfig(input_dim=7, hidden_dim=32, num_gcn_layers=3,
                          global_mix=0.6, fusion_weights=(1.0, 2.0, 0.5),
                          dropout=0.1, degree_limit=5, neg_pool_size=16,
                          batch_size=128, input_activation="relu", rng_seed=42)
        assert ModelConfig.from_items(cfg.to_items()) == cfg

    def test_init_and_copy_bytes_match_golden(self):
        # digests of the parameters drawn before the layout table existed
        cfg = ModelConfig(input_dim=5, hidden_dim=6, num_gcn_layers=3, rng_seed=11,
                          fusion_weights=(1.0, 0.5, 0.25), global_mix=0.3)
        params = ModelParams(cfg, num_types=3, num_relations=4, id_capacity=7)
        init = "f720143616287f6f981d793bb02f8603c95aecb79d58bab69b18eb40ca4a6b33"
        assert _params_sha256(params) == init
        assert _params_sha256(params.copy()) == init
        assert (_params_sha256(params.copy(id_capacity=12, grow_seed=9))
                == "d33e69e82bd80e3652d1bdb276ec2cd9c9e56b17449ff11fcd59258f8f2b7e19")

    def test_ensure_id_capacity_is_deterministic_and_preserving(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g, seed=11)
        before = params.id_table.value.copy()
        params.ensure_id_capacity(10, grow_seed=5)
        cfg2, params2 = tiny_params(g, seed=11)
        params2.ensure_id_capacity(10, grow_seed=5)
        assert params.id_capacity == 10
        assert np.array_equal(params.id_table.value[:len(before)], before)
        assert np.array_equal(params.id_table.value, params2.id_table.value)
        # growing to a smaller capacity is a no-op
        params.ensure_id_capacity(3, grow_seed=5)
        assert params.id_capacity == 10

    def test_copy_is_deep(self):
        g = tiny_bipartite()
        cfg, params = tiny_params(g)
        clone = params.copy()
        clone.id_table.value[0, 0] += 1.0
        assert params.id_table.value[0, 0] != clone.id_table.value[0, 0]
