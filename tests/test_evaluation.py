"""Retrieval metrics and the sampled ranking protocol."""
import numpy as np
import pytest

import dhge.evaluation
from dhge.evaluation import EvalProtocol, cosine_topk, evaluate_table
from dhge.graph import DataError, NodeRef
from dhge.model import EmbeddingTable
from dhge.tensor import NumericError
from conftest import build_graph, tiny_bipartite
from oracles import (_cosine_topk_ref, evaluate_table_loop, hitrate_at_k, ndcg_at_k, ndcg_ref,
                     recall_at_k)


def basis(n, dim):
    out = np.zeros((n, dim))
    out[np.arange(n), np.arange(n) % dim] = 1.0
    return out


class TestCosineTopk:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            items = rng.normal(size=(15, 4))
            q = rng.normal(size=4)
            idx, scores = cosine_topk(q, items, 6)
            ref = items @ q / (np.linalg.norm(items, axis=1) * np.linalg.norm(q))
            want = sorted(range(15), key=lambda i: (-ref[i], i))[:6]
            assert idx.tolist() == want
            assert np.allclose(scores, ref[want], atol=1e-12)

    def test_tie_breaks_toward_smaller_index(self):
        items = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        idx, scores = cosine_topk(np.array([1.0, 0.0]), items, 3)
        assert idx.tolist() == [0, 1, 2]   # rows 0/1 tie at cos=1
        assert scores[0] == scores[1] == 1.0

    def test_zero_norm_items_sort_last(self):
        items = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
        idx, scores = cosine_topk(np.array([1.0, 0.0]), items, 4)
        assert idx.tolist() == [0, 2, 1, 3]
        assert np.isneginf(scores[2:]).all()

    def test_zero_norm_query_raises(self):
        with pytest.raises(NumericError, match="unrankable"):
            cosine_topk(np.zeros(2), np.eye(2), 1)

    def test_k_truncates_to_population(self):
        idx, _ = cosine_topk(np.ones(2), np.eye(2), 10)
        assert len(idx) == 2

    def test_equals_full_sort_reference_bit_for_bit(self):
        """The partial selection against the full lexsort it replaced: equal
        ids and equal score bits. Integer-valued rows tie exactly, often
        across the k-th place; rows of zero norm, all-zero tables and rows
        holding NaN or inf (a NaN score) are mixed in; n runs from 1 and k
        takes 1, n - 1, n, past n and a random value."""
        rng = np.random.default_rng(7)
        n_straddled = n_nan_scores = 0
        for case in range(400):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            items = (rng.integers(-2, 3, size=(n, dim)).astype(np.float64) if case % 2
                     else rng.normal(size=(n, dim)))
            if case % 3 == 0:
                items[rng.integers(n, size=n // 3 + 1)] = 0.0
            if case % 5 == 0:
                items[rng.integers(n)] = np.nan
            if case % 7 == 0:
                items[rng.integers(n, size=n // 4 + 1), 0] = np.inf
            if case % 13 == 0:
                items[:] = 0.0
            query = rng.integers(-2, 3, size=dim).astype(np.float64)
            query[0] = query[0] or 1.0
            if case % 17 == 0:
                query[-1] = np.nan
            with np.errstate(invalid="ignore"):
                _, full = _cosine_topk_ref(query, items, n)
                for k in {1, n - 1, n, n + 2, int(rng.integers(1, n + 1))} - {0}:
                    idx, scores = cosine_topk(query, items, k)
                    want_idx, want_scores = _cosine_topk_ref(query, items, k)
                    assert idx.tolist() == want_idx.tolist(), (case, k)
                    assert scores.view(np.int64).tolist() == want_scores.view(np.int64).tolist()
                    n_straddled += k < n and full[k - 1] == full[k]
            n_nan_scores += bool(np.isnan(full).any())
        assert n_straddled > 100 and n_nan_scores > 10

    def test_tie_group_straddling_the_kth_place(self):
        # rows 1, 3, 4, 6, 8 and 9 all score 1.0; k = 4 cuts that group
        items = np.array([[0, 1], [1, 0], [-1, 0], [2, 0], [3, 0], [0, 0], [1, 0], [1, 1],
                          [5, 0], [1, 0]], dtype=np.float64)
        idx, scores = cosine_topk(np.array([1.0, 0.0]), items, 4)
        assert idx.tolist() == [1, 3, 4, 6]
        assert scores.tolist() == [1.0] * 4

    def test_stacked_pool_scores_equal_one_pool_at_a_time(self):
        """``_pool_scores`` against the reference scoring of each pool on its
        own, bit for bit, with pools that hold a zero-norm row among pools
        that do not."""
        rng = np.random.default_rng(3)
        for dim in (1, 3, 8, 64):
            items = rng.normal(size=(300, dim))
            items[rng.integers(300, size=4)] = 0.0
            norms = np.linalg.norm(items, axis=1)
            pools = np.array([rng.choice(300, size=50, replace=False) for _ in range(40)])
            vecs = rng.normal(size=(40, dim))
            qns = np.array([np.linalg.norm(v) for v in vecs])
            got = dhge.evaluation._pool_scores(vecs, qns, items, norms, pools)
            for j, pool in enumerate(pools):
                idx, scores = _cosine_topk_ref(vecs[j], items[pool], len(pool))
                assert got[j][idx].view(np.int64).tolist() == scores.view(np.int64).tolist()
            assert (norms[pools] == 0.0).any(axis=1).sum() > 5


class TestMetricFunctions:
    def test_hitrate_hand_example(self):
        rankings = [["a", "b"], ["c", "d"]]
        truths = [{"b"}, {"e"}]
        assert hitrate_at_k(rankings, truths, 2) == 0.5
        assert hitrate_at_k(rankings, truths, 1) == 0.0
        assert hitrate_at_k([], [], 3) == 0.0

    def test_recall_counts_fraction_of_truth(self):
        assert recall_at_k([["a", "b", "c"]], [{"a", "c", "x"}], 3) == pytest.approx(2 / 3)
        assert recall_at_k([["a"]], [set()], 1) == 0.0

    def test_ndcg_against_reference(self, rng):
        universe = list(range(30))
        for _ in range(25):
            ranking = list(rng.permutation(universe)[:10])
            truth = set(rng.choice(universe, size=4, replace=False).tolist())
            k = int(rng.integers(1, 10))
            got = ndcg_at_k([ranking], [truth], k)
            assert got == pytest.approx(ndcg_ref(ranking, truth, k), abs=1e-12)

    def test_ndcg_perfect_ranking_is_one(self):
        assert ndcg_at_k([["a", "b", "z"]], [{"a", "b"}], 3) == pytest.approx(1.0)


def _clicks_world(users, items, clicks=()):
    """A graph of users (type 0) and items (type 1) whose only edges are the
    known (user, item) clicks, and the table holding ``users`` and ``items``."""
    g = build_graph([(0, 1)], [len(users), len(items)], [list(clicks)])
    return g, EmbeddingTable([np.asarray(users, dtype=np.float64),
                              np.asarray(items, dtype=np.float64)], version=0)


def _evaluate(users, items, tests, proto, clicks=()):
    """``evaluate_table`` on a clicks world; tests are (user row, item row, ts)."""
    g, table = _clicks_world(users, items, clicks)
    tests = [(NodeRef(0, u), NodeRef(1, i), ts) for u, i, ts in tests]
    return evaluate_table(g, table, tests, proto, user_type=0, item_type=1)


class TestEvaluateSampled:
    def _world(self):
        # 6 one-hot items; user vectors point at their positive
        items = basis(6, 6)
        users = np.stack([items[0] * 2.0, items[3] * 0.5])
        tests = [(0, 0, 1.0), (1, 3, 1.0)]
        return users, items, tests

    def test_perfect_model_hits_at_one(self):
        users, items, tests = self._world()
        proto = EvalProtocol(k_values=(1, 3), negatives_per_user=3)
        rep = _evaluate(users, items, tests, proto)
        assert rep.hitrate[1] == 1.0
        assert rep.hitrate[3] == 1.0
        assert rep.ndcg[1] == 1.0
        assert rep.n_users == 2 and rep.n_skipped == 0

    def test_positive_wins_score_ties(self):
        # user vector matches a negative exactly; everything else scores 0,
        # and the positive sits at pool position 0 so it takes rank 2
        items = basis(6, 6)
        users = items[1][None, :]
        proto = EvalProtocol(k_values=(1, 2), negatives_per_user=5)
        rep = _evaluate(users, items, [(0, 0, 1.0)], proto)
        assert rep.hitrate[1] == 0.0
        assert rep.hitrate[2] == 1.0

    def test_earliest_event_is_the_scored_positive(self):
        items = basis(6, 6)
        # user saw item 4 late and item 2 early; vector leans to 2 plus a
        # nudge toward 5 so a wrong positive choice cannot hit by tie-break
        users = (items[2] + 0.1 * items[5])[None, :]
        tests = [(0, 4, 9.0), (0, 2, 1.0)]
        proto = EvalProtocol(k_values=(1,), negatives_per_user=4)
        rep = _evaluate(users, items, tests, proto)
        assert rep.hitrate[1] == 1.0

    def test_negatives_exclude_known_and_test_items(self):
        items = basis(4, 4)
        users = items[3][None, :]
        proto = EvalProtocol(k_values=(1, 2), negatives_per_user=1)
        rep = _evaluate(users, items, [(0, 0, 1.0)], proto, clicks=[(0, 1), (0, 2)])
        # only item 3 is an admissible negative; the user vector points at it
        assert rep.n_skipped == 0
        assert rep.hitrate[1] == 0.0
        assert rep.hitrate[2] == 1.0

    def test_insufficient_candidates_skips_user(self):
        items = basis(4, 4)
        users = items[3][None, :]
        proto = EvalProtocol(k_values=(1,), negatives_per_user=2)
        rep = _evaluate(users, items, [(0, 0, 1.0)], proto, clicks=[(0, 1), (0, 2)])
        assert rep.n_skipped == 1
        assert rep.n_users == 0
        assert rep.hitrate[1] == 0.0

    def test_zero_norm_user_counts_as_miss(self):
        items = basis(6, 6)
        users = np.stack([items[0], np.zeros(6)])
        proto = EvalProtocol(k_values=(2,), negatives_per_user=3)
        rep = _evaluate(users, items, [(0, 0, 1.0), (1, 3, 1.0)], proto)
        assert rep.n_unrankable == 1
        assert rep.n_users == 2
        assert rep.hitrate[2] == 0.5

    def test_unknown_test_user_dropped_and_unknown_item_fatal(self):
        items = basis(4, 4)
        users = items[0][None, :]
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        rep = _evaluate(users, items, [(0, 0, 1.0), (99, 1, 1.0)], proto)
        assert rep.n_users == 1
        with pytest.raises(DataError, match="unknown item"):
            _evaluate(users, items, [(0, -1, 1.0)], proto)
        with pytest.raises(DataError, match="no evaluable"):
            _evaluate(users, items, [(99, 1, 1.0)], proto)

    def test_deterministic_given_seed(self):
        users, items, tests = self._world()
        proto = EvalProtocol(k_values=(1, 3), negatives_per_user=3, rng_seed=11)
        a = _evaluate(users, items, tests, proto).to_json_dict()
        b = _evaluate(users, items, tests, proto).to_json_dict()
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b

    def test_full_corpus_mode_ranks_everything_unknown(self):
        items = basis(5, 5)
        # heavy pull toward the known item 0, which must stay out of the pool
        users = (5.0 * items[0] + items[1] + items[2])[None, :]
        proto = EvalProtocol(k_values=(1, 2), negatives_per_user=None)
        rep = _evaluate(users, items, [(0, 1, 1.0), (0, 2, 2.0)], proto, clicks=[(0, 0)])
        assert rep.recall[1] == pytest.approx(0.5)
        assert rep.recall[2] == pytest.approx(1.0)
        assert rep.hitrate[1] == 1.0


class TestEvaluateTable:
    def _table(self, graph, user_rows, item_rows):
        blocks = [np.asarray(user_rows, dtype=np.float64),
                  np.asarray(item_rows, dtype=np.float64)]
        assert [len(b) for b in blocks] <= graph.counts or True
        return EmbeddingTable(blocks, version=7)

    def test_known_items_come_from_adjacency(self):
        g = tiny_bipartite(seed=0)
        # user 0 already interacted with items 0, 1, 3; give it a vector
        # matching item 2 (its only admissible negative) and test on item 1?
        # item 1 is known, so the test must use an unseen item: craft tests
        # on item 2 itself so pool has no admissible negative and skips,
        # proving known-set extraction saw all three interactions
        users = basis(3, 4)
        items = basis(4, 4)
        table = EmbeddingTable([users, items], version=3)
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        tests = [(NodeRef(0, 0), NodeRef(1, 2), 5.0)]
        rep = evaluate_table(g, table, tests, proto, user_type=0, item_type=1)
        assert rep.n_skipped == 1
        assert rep.table_version == 3

    def test_drop_mode_ignores_rows_beyond_table(self):
        g = tiny_bipartite(seed=0)
        users = basis(3, 4)
        items = basis(4, 4)
        users[1] = items[2]
        table = EmbeddingTable([users, items], version=1)
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        tests = [(NodeRef(0, 1), NodeRef(1, 2), 5.0),
                 (NodeRef(0, 9), NodeRef(1, 0), 6.0)]
        rep = evaluate_table(g, table, tests, proto, user_type=0, item_type=1,
                             missing_users="drop")
        assert rep.n_users == 1
        assert rep.hitrate[1] == 1.0

    def test_miss_mode_dilutes_by_unservable_users(self):
        g = tiny_bipartite(seed=0)
        users = basis(3, 4)
        items = basis(4, 4)
        users[1] = items[2]
        table = EmbeddingTable([users, items], version=1)
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        tests = [(NodeRef(0, 1), NodeRef(1, 2), 5.0),
                 (NodeRef(0, 9), NodeRef(1, 0), 6.0)]
        rep = evaluate_table(g, table, tests, proto, user_type=0, item_type=1,
                             missing_users="miss")
        assert rep.n_users == 2
        assert rep.n_unrankable == 1
        assert rep.hitrate[1] == 0.5

    def test_miss_mode_with_no_servable_users_reports_zeros(self):
        g = tiny_bipartite(seed=0)
        table = EmbeddingTable([basis(3, 4), basis(4, 4)], version=1)
        proto = EvalProtocol(k_values=(1, 5), negatives_per_user=1)
        tests = [(NodeRef(0, 7), NodeRef(1, 0), 6.0)]
        rep = evaluate_table(g, table, tests, proto, user_type=0, item_type=1,
                             missing_users="miss")
        assert rep.n_users == 1
        assert rep.hitrate == {1: 0.0, 5: 0.0}
        assert rep.n_unrankable == 1

    def test_seeds_only_the_scored_users(self, monkeypatch):
        """Full-corpus mode draws nothing and seeds no user; the sampled
        path seeds the users it scores, not skipped or zero-norm ones."""
        seeded = []
        real = dhge.evaluation.seed_states

        def recorded(*keys):
            seeded.append(keys[-1].tolist())
            return real(*keys)
        monkeypatch.setattr(dhge.evaluation, "seed_states", recorded)
        users = basis(3, 6)
        users[1] = 0.0
        # user 2 knows five of the six items and holds out the sixth
        tests = [(0, 0, 1.0), (1, 1, 1.0), (2, 5, 1.0)]
        clicks = [(2, i) for i in range(5)]
        rep = _evaluate(users, basis(6, 6), tests, EvalProtocol(negatives_per_user=2), clicks)
        assert (rep.n_users, rep.n_skipped, rep.n_unrankable) == (2, 1, 1)
        assert seeded == [[0]]
        _evaluate(users, basis(6, 6), tests, EvalProtocol(negatives_per_user=None), clicks)
        assert seeded == [[0]]

    def test_unknown_missing_users_mode_raises(self):
        g = tiny_bipartite(seed=0)
        table = EmbeddingTable([basis(3, 4), basis(4, 4)], version=1)
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        tests = [(NodeRef(0, 1), NodeRef(1, 2), 5.0), (NodeRef(0, 9), NodeRef(1, 0), 6.0)]
        for mode in ("mis", "Drop", None):
            with pytest.raises(ValueError, match="'drop' or 'miss'.*%r" % (mode,)):
                evaluate_table(g, table, tests, proto, user_type=0, item_type=1,
                               missing_users=mode)


def _fields(report):
    out = report.to_json_dict()
    out.pop("wall_ms")
    return out


def _grid_vectors(rng, n, dim=3):
    """Rows of -1/0/1 entries: many exact score ties and some zero rows."""
    return rng.integers(-1, 2, size=(n, dim)).astype(np.float64)


class TestEvaluateMatchesLoop:
    """The array core against the per-user loop it replaced, at exact equality."""

    PROTOCOLS = [dict(k_values=(1, 5, 10), negatives_per_user=None),
                 dict(k_values=(1, 5, 10), negatives_per_user=1),
                 dict(k_values=(1, 5, 10), negatives_per_user=4),
                 dict(k_values=(10, 1, 5), negatives_per_user=9)]

    def test_exact_candidate_count(self):
        """A user with exactly ``negatives_per_user`` candidates (NumPy's own
        n == size call) beside users with more and with fewer."""
        # known items per user; each user's one test item follows its run
        known_runs = [7, 3, 10, 0, 6]
        clicks = [(u, i) for u, n in enumerate(known_runs) for i in range(n)]
        tests = [(NodeRef(0, u), NodeRef(1, n), 1.0) for u, n in enumerate(known_runs)]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g, table = _clicks_world(_grid_vectors(rng, 5), _grid_vectors(rng, 12), clicks)
            for kw in self.PROTOCOLS[1:] + [dict(k_values=(1, 3), negatives_per_user=5)]:
                args = (g, table, tests, EvalProtocol(rng_seed=seed - 5, **kw), 0, 1)
                assert _fields(evaluate_table(*args)) == _fields(evaluate_table_loop(*args)), \
                    (seed, kw)
        # user 0 has 12 - 7 known - 1 test = 4 candidates, user 4 has 5 and
        # user 2 has 1
        report = evaluate_table(g, table, tests,
                                EvalProtocol(k_values=(1,), negatives_per_user=4), 0, 1)
        assert report.n_skipped == 1 and report.n_users == 4

    @pytest.mark.parametrize("chunk_floats", [1, 40])
    def test_pools_scored_in_chunks(self, monkeypatch, chunk_floats):
        """More users than one chunk holds: with the chunk constant shrunk, a
        chunk holds one user, or a few, and every report still equals the
        loop's. The worlds hold zero-norm users, users skipped for too few
        candidates and full-corpus protocols."""
        sizes = []
        pool_scores = dhge.evaluation._pool_scores

        def counted(vecs, *args):
            sizes.append(len(vecs))
            return pool_scores(vecs, *args)
        monkeypatch.setattr(dhge.evaluation, "_CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(dhge.evaluation, "_pool_scores", counted)
        reports = []
        for seed in range(20):
            g, table, tests = self._table_world(seed, 0, 2)
            for kw in self.PROTOCOLS:
                args = (g, table, tests, EvalProtocol(rng_seed=seed, **kw), 0, 2, "drop")
                try:
                    want = _fields(evaluate_table_loop(*args))
                except DataError:
                    continue
                reports.append(evaluate_table(*args))
                assert _fields(reports[-1]) == want, (seed, kw)
        # pools of 2 to 10 rows of 3 floats
        assert max(sizes) == max(1, chunk_floats // (2 * 3)) and len(sizes) > 60
        assert sum(r.n_skipped for r in reports) and sum(r.n_unrankable for r in reports)

    def _table_world(self, seed, user_type, item_type):
        # types 0 and 2 are users/items in either role, type 1 a third
        # type whose edges must not count as known items
        rng = np.random.default_rng(seed)
        counts = [int(c) for c in rng.integers(4, 14, size=3)]
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b] + [(0, 0)]
        rel_edges = []
        for a, b in pairs:
            m = int(rng.integers(0, counts[a] * 3))
            edges = set(zip(rng.integers(0, counts[a], m).tolist(),
                            rng.integers(0, counts[b], m).tolist()))
            rel_edges.append(sorted((s, t) for s, t in edges if a != b or s != t))
        g = build_graph(pairs, counts, rel_edges, seed=seed)
        n_u = counts[user_type] + int(rng.integers(-2, 3))
        n_i = counts[item_type] + int(rng.integers(-3, 2))
        blocks = [_grid_vectors(rng, c) for c in counts]
        blocks[user_type] = _grid_vectors(rng, n_u)
        blocks[item_type] = _grid_vectors(rng, n_i)
        blocks[user_type][rng.integers(n_u)] = 0.0
        tests = []
        for _ in range(int(rng.integers(1, 25))):
            u = NodeRef(user_type if rng.random() < 0.9 else 1, int(rng.integers(0, n_u + 3)))
            i = (item_type, int(rng.integers(0, n_i + 2)))
            tests.append((u, i, float(rng.integers(0, 3))))
        tests += tests[-2:]
        return g, EmbeddingTable(blocks, version=seed), tests

    def test_evaluate_table_drop_and_miss(self):
        n_cases = 0
        for seed in range(60):
            for user_type, item_type in ((0, 2), (2, 0)):
                g, table, tests = self._table_world(seed, user_type, item_type)
                for kw in self.PROTOCOLS:
                    proto = EvalProtocol(rng_seed=seed * 31 - 500, **kw)
                    for missing in ("drop", "miss"):
                        args = (g, table, tests, proto, user_type, item_type, missing)
                        try:
                            want = _fields(evaluate_table_loop(*args))
                        except DataError as exc:
                            with pytest.raises(DataError, match=str(exc)):
                                evaluate_table(*args)
                            continue
                        assert _fields(evaluate_table(*args)) == want, (seed, kw, missing)
                        n_cases += 1
        assert n_cases > 600

    def test_evaluate_table_negative_ids(self):
        g = tiny_bipartite(seed=0)
        table = EmbeddingTable([basis(3, 4), basis(4, 4)], version=1)
        proto = EvalProtocol(k_values=(1,), negatives_per_user=1)
        tests = [(NodeRef(0, 1), NodeRef(1, 2), 2.0)]
        for missing in ("drop", "miss"):
            args = (g, table, tests, proto, 0, 1, missing)
            assert _fields(evaluate_table(*args)) == _fields(evaluate_table_loop(*args))
            for fn in (evaluate_table, evaluate_table_loop):
                # a negative user is an error, not a user the table lacks
                with pytest.raises(DataError, match=r"unknown user .*intra_id=-1"):
                    fn(g, table, [(NodeRef(0, -1), NodeRef(1, 2), 1.0)] + tests, proto, 0, 1,
                       missing)
                with pytest.raises(DataError, match=r"unknown item .*intra_id=-2"):
                    fn(g, table, tests + [(NodeRef(0, 2), NodeRef(1, -2), 1.0)], proto, 0, 1,
                       missing)


def _hex_fields(report):
    """``_fields`` with every metric value as ``float.hex``, so equal means
    equal bits."""
    out = _fields(report)
    for name in ("hitrate", "recall", "ndcg"):
        out[name] = {k: float.hex(float(v)) for k, v in out[name].items()}
    return out


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestMetricCore:
    """The relevance-matrix metrics of both modes against the per-user
    definitions ``evaluate_table_loop`` scores with, compared by ``float.hex``, at
    k values up to past every pool. An inf entry makes NaN scores."""

    K_VALUES = (1, 3, 10, 150)

    def _world(self, seed):
        # -1/0/1 rows tie often; item 0 is zero-norm and item 1 holds an inf
        # (its scores are NaN); item 3 copies item 2. User 0 is zero-norm,
        # user 1's first positive is item 0, user 2's is item 1 and user 3's
        # item 2, which item 3 ties; user 4 knows all but two items, and user
        # 5 holds out twelve, so its ideal DCG sums up to ten gains
        rng = np.random.default_rng(seed)
        n_u, n_i = int(rng.integers(6, 12)), int(rng.integers(14, 30))
        users, items = _grid_vectors(rng, n_u), _grid_vectors(rng, n_i)
        users[0] = 0.0
        users[3] = items[2] = items[3] = [1.0, 1.0, 0.0]
        items[0] = 0.0
        items[1] = [np.inf, 0.0, 1.0]
        tests = [(1, 0, 0.0), (2, 1, 0.0), (3, 2, 0.0), (4, n_i - 1, 0.0)]
        for u in range(n_u):
            for _ in range(int(rng.integers(1, 5))):
                tests.append((u, int(rng.integers(n_i)), float(rng.integers(1, 4))))
        tests += [(5, j, 5.0) for j in rng.permutation(n_i)[:12].tolist()]
        clicks = {(4, j) for j in range(n_i - 2)}
        clicks |= {(int(rng.integers(5, n_u)), int(rng.integers(4, n_i))) for _ in range(2 * n_u)}
        g, table = _clicks_world(users, items, sorted(clicks))
        return g, table, [(NodeRef(0, u), NodeRef(1, i), ts) for u, i, ts in tests]

    def test_special_scores_bit_for_bit(self):
        totals = dict(n_skipped=0, n_unrankable=0, partial=0)
        for seed in range(25):
            g, table, tests = self._world(seed)
            n_i = len(table.blocks[1])
            # the last protocol draws every candidate of users 2 and 3, so
            # item 3 ties user 3's positive in its pool
            for n_neg in (None, 1, 4, 9, n_i - 4):
                proto = EvalProtocol(k_values=self.K_VALUES, negatives_per_user=n_neg,
                                     rng_seed=seed)
                args = (g, table, tests, proto, 0, 1)
                got = evaluate_table(*args)
                assert _hex_fields(got) == _hex_fields(evaluate_table_loop(*args)), (seed, n_neg)
                totals["n_skipped"] += got.n_skipped
                totals["n_unrankable"] += got.n_unrankable
                totals["partial"] += 0.0 < got.recall[10] < got.recall[150]
        assert all(totals.values()), totals

    def test_evaluate_table_bit_for_bit(self):
        world = TestEvaluateMatchesLoop()._table_world
        for seed in range(30):
            for user_type, item_type in ((0, 2), (2, 0)):
                g, table, tests = world(seed, user_type, item_type)
                for n_neg in (None, 1, 3, 6):
                    proto = EvalProtocol(k_values=self.K_VALUES, negatives_per_user=n_neg,
                                         rng_seed=seed)
                    for missing in ("drop", "miss"):
                        args = (g, table, tests, proto, user_type, item_type, missing)
                        try:
                            want = _hex_fields(evaluate_table_loop(*args))
                        except DataError:
                            continue
                        assert _hex_fields(evaluate_table(*args)) == want, (seed, n_neg)

    def test_row_norms_bit_for_bit(self):
        # the stacked product both modes take each user's norm by, against
        # one np.linalg.norm per user
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 8, 16, 31, 32, 33, 64, 100, 128, 257):
            rows = rng.normal(size=(300, dim)) * 10.0 ** rng.integers(-150, 150, size=(300, 1))
            rows[0] = 0.0
            want = np.array([np.linalg.norm(row) for row in rows])
            got = dhge.evaluation._row_norms(rows)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), dim
        assert dhge.evaluation._row_norms(np.empty((0, 4))).shape == (0,)
