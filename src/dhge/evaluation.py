"""Top-K retrieval metrics over embedding tables.

Rankings are by cosine similarity with deterministic tie handling: equal
scores order by ascending item key, and zero-norm item vectors sort after
every real score. The sampled protocol ranks each user's earliest held-out
positive against per-user seeded negatives drawn from non-interacted items.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import DataError, NodeRef, _ranges, _unique
from .seeding import _MASK, seed_states, seeded_choice_rows, TAG_EVALNEG
from .tensor import NumericError

_CHUNK_FLOATS = 1 << 16   # item-vector floats gathered per stacked pool product


@dataclass
class EvalProtocol:
    k_values: tuple = (10,)
    negatives_per_user: int | None = 99
    rng_seed: int = 0

    def __post_init__(self):
        if not self.k_values or any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive")
        if self.negatives_per_user is not None and self.negatives_per_user < 1:
            raise ValueError("negatives_per_user must be >= 1 or None for full-corpus")


@dataclass
class EvalReport:
    hitrate: dict
    recall: dict
    ndcg: dict
    n_users: int
    n_skipped: int
    n_unrankable: int
    wall_ms: float
    table_version: int = 0
    refresh_latency_ms: float | None = None

    def to_json_dict(self):
        return {
            "hitrate": {str(k): v for k, v in self.hitrate.items()},
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "n_users": self.n_users,
            "n_skipped": self.n_skipped,
            "n_unrankable": self.n_unrankable,
            "wall_ms": self.wall_ms,
            "table_version": self.table_version,
            "refresh_latency_ms": self.refresh_latency_ms,
        }


def cosine_topk(query, items, k):
    """Indices of the top-k items by cosine similarity with ``query``.

    Ties break toward the smaller index. Zero-norm item rows rank after all
    scored rows (in index order); a zero-norm query is unrankable and raises.
    """
    query = np.asarray(query, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise NumericError("unrankable query: zero-norm query vector")
    return _ranked(query, qn, items, np.linalg.norm(items, axis=1), k)


def _scores(query, qn, items, norms):
    """Cosine scores of the item rows, -inf for a row whose norm is not
    positive. The product runs on ``items`` itself when every row is scored,
    else on a copy of the scored rows only."""
    ok = norms > 0.0
    if ok.all():
        return (items @ query) / (norms * qn)
    scores = np.full(len(items), -np.inf)
    scores[ok] = (items[ok] @ query) / (norms[ok] * qn)
    return scores


def _ranked(query, qn, items, norms, k):
    """``cosine_topk`` given the query's norm and the item rows' norms; a
    row's norm does not depend on the other rows, so callers may take them
    once for a whole table. Only the rows at or above the k-th best score
    (every row if it is NaN, which sorts last) are ordered by (-score, row)."""
    scores = _scores(query, qn, items, norms)
    neg = -scores
    k = min(k, len(neg))
    rows = (np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1])) if k < len(neg)
            else np.arange(len(neg)))
    order = rows[np.argsort(neg[rows], kind="stable")[:k]]
    return order, scores[order]


def _pool_scores(vecs, qns, item_vectors, norms, pools):
    """``_scores`` of each row of ``pools`` (equal-length pools of item rows,
    one per query), bit for bit, from one stacked product. A pool holding a
    row that ``_scores`` leaves out of its product is scored by ``_scores``:
    the bits of a row's product depend on where the row sits in the matrix."""
    nrm = norms[pools]
    full = (nrm > 0.0).all(axis=1)
    scores = np.empty(pools.shape)
    scores[full] = (np.matmul(item_vectors[pools[full]], vecs[full][:, :, None])[:, :, 0]
                    / (nrm[full] * qns[full, None]))
    for j in np.flatnonzero(~full).tolist():
        scores[j] = _scores(vecs[j], qns[j], item_vectors[pools[j]], nrm[j])
    return scores


def hitrate_at_k(rankings, truths, k):
    """Fraction of queries whose top-k contains at least one relevant item."""
    hits = 0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        hits += any(item in truth for item in list(ranking)[:k])
    return hits / len(rankings) if rankings else 0.0


def recall_at_k(rankings, truths, k):
    """Mean fraction of each query's relevant set retrieved in the top-k."""
    total = 0.0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        if not truth:
            continue
        got = sum(1 for item in list(ranking)[:k] if item in truth)
        total += got / len(truth)
    return total / len(rankings) if rankings else 0.0


def ndcg_at_k(rankings, truths, k):
    """Binary-relevance NDCG: DCG normalized by the ideal ordering's DCG."""
    total = 0.0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        dcg = 0.0
        for pos, item in enumerate(list(ranking)[:k], start=1):
            if item in truth:
                dcg += 1.0 / np.log2(pos + 1)
        ideal = sum(1.0 / np.log2(pos + 1) for pos in range(1, min(k, len(truth)) + 1))
        if ideal > 0:
            total += dcg / ideal
    return total / len(rankings) if rankings else 0.0


def _as_set(truth):
    if isinstance(truth, (set, frozenset)):
        return truth
    if isinstance(truth, (list, tuple)) and not isinstance(truth, NodeRef):
        return set(truth)
    return {truth}


def _key_ints(key):
    if isinstance(key, (tuple, NodeRef)):
        return [int(x) for x in key]
    return [int(key)]


def evaluate(user_vectors, user_keys, item_vectors, item_keys,
             test_interactions, protocol, known_interactions=()):
    """Rank held-out positives for each test user and aggregate metrics.

    ``test_interactions`` is a list of (user_key, item_key, timestamp).
    Sampled mode scores each user's earliest positive against
    ``negatives_per_user`` seeded draws from items the user never interacted
    with; users without enough candidates are skipped. Full-corpus mode
    (``negatives_per_user=None``) ranks every item outside the user's known
    interactions against the whole held-out set. Users whose vector has zero
    norm are unrankable and count as misses.

    Keys are mapped to table rows once; the ranking itself runs on rows.
    """
    t0 = time.perf_counter()
    user_keys, item_keys = list(user_keys), list(item_keys)
    user_row = {k: i for i, k in enumerate(user_keys)}
    item_row = {k: i for i, k in enumerate(item_keys)}
    if len(user_row) != len(user_vectors) or len(item_row) != len(item_vectors):
        raise DataError("duplicate or missing keys for evaluation tables")
    known = np.array([(user_row[u], item_row[i]) for u, i in known_interactions
                      if u in user_row and i in item_row], dtype=np.int64).reshape(-1, 2)
    order = np.argsort(known[:, 0], kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(known[:, 0],
                                                        minlength=len(user_keys)))))
    tests = []
    for u, i, ts in test_interactions:
        if u not in user_row:
            continue  # user unknown to this table version
        if i not in item_row:
            raise DataError("test interaction references unknown item %r" % (i,))
        tests.append((user_row[u], item_row[i], float(ts)))
    t_user = np.array([u for u, _, _ in tests], dtype=np.int64)
    t_item = np.array([i for _, i, _ in tests], dtype=np.int64)
    # users in order of their keys, and equal-time events in order of theirs
    users = sorted(dict.fromkeys(t_user.tolist()), key=lambda r: _key_ints(user_keys[r]))
    tie = {r: j for j, r in enumerate(sorted(set(t_item.tolist()),
                                             key=lambda r: _key_ints(item_keys[r])))}
    report = _evaluate_rows(
        user_vectors, item_vectors, (indptr, known[order, 1]),
        np.array(users, dtype=np.int64),
        _user_states([_key_ints(user_keys[r]) for r in users], protocol.rng_seed),
        (t_user, t_item, np.array([ts for _, _, ts in tests]),
         np.array([tie[i] for i in t_item.tolist()], dtype=np.int64)),
        protocol)
    report.wall_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _user_states(keys, rng_seed):
    """``seed_states`` of (TAG_EVALNEG, rng_seed, *key) per key-int list,
    one call per key length."""
    states = np.empty((4, len(keys)), dtype=np.uint64)
    width = np.array([len(k) for k in keys], dtype=np.int64)
    for n in np.unique(width).tolist():
        at = np.flatnonzero(width == n)
        cols = np.array([[x & _MASK for x in keys[j]] for j in at.tolist()],
                        dtype=np.int64).reshape(len(at), n)
        states[:, at] = seed_states(TAG_EVALNEG, rng_seed, *cols.T)
    return states


def _evaluate_rows(user_vectors, item_vectors, known, users, states, tests, protocol):
    """The array core of ``evaluate`` and ``evaluate_table``.

    ``known`` is a CSR pair (indptr over user rows, item rows); ``users``
    holds each test user's row once, in the order users are ranked, and
    ``states`` each one's ``seed_states`` column; ``tests`` is the (user
    row, item row, ts, tie) columns of the test events, where ``tie`` orders
    equal-time events as their item keys do.
    """
    t_user, t_item, t_ts, t_tie = tests
    if not len(t_user):
        raise DataError("no evaluable test interactions")
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    slot = np.empty(len(user_vectors), dtype=np.int64)
    slot[users] = np.arange(len(users))
    order = np.lexsort((t_tie, t_ts, slot[t_user]))
    events = (slot[t_user][order], t_item[order])
    norms = np.linalg.norm(item_vectors, axis=1)
    if protocol.negatives_per_user is None:
        rankings, truths, n_unrankable = _full_rankings(
            user_vectors, item_vectors, norms, known, users, events, max(protocol.k_values))
        n_skipped = 0
    else:
        rankings, truths, n_skipped, n_unrankable = _sampled_rankings(
            user_vectors, item_vectors, norms, known, users, states, events, protocol)
    return EvalReport(hitrate={k: hitrate_at_k(rankings, truths, k) for k in protocol.k_values},
                      recall={k: recall_at_k(rankings, truths, k) for k in protocol.k_values},
                      ndcg={k: ndcg_at_k(rankings, truths, k) for k in protocol.k_values},
                      n_users=len(rankings), n_skipped=n_skipped,
                      n_unrankable=n_unrankable, wall_ms=0.0)


def _full_rankings(user_vectors, item_vectors, norms, known, users, events, max_k):
    """Full-corpus mode: each user's items outside its known set, ranked in
    turn by ``_ranked``; its truth is every test item."""
    indptr, known_items = known
    e_slot, e_item = events
    bounds = np.searchsorted(e_slot, np.arange(len(users) + 1))
    mask = np.empty(len(item_vectors), dtype=bool)
    rankings, truths = [], []
    n_unrankable = 0
    for j, u in enumerate(users.tolist()):
        mask.fill(True)
        mask[known_items[indptr[u]:indptr[u + 1]]] = False
        pool = np.flatnonzero(mask)
        truths.append(set(e_item[bounds[j]:bounds[j + 1]].tolist()))
        qn = np.linalg.norm(user_vectors[u])
        if qn == 0.0:
            rankings.append([])
            n_unrankable += 1
        else:
            idx, _ = _ranked(user_vectors[u], qn, item_vectors[pool], norms[pool], max_k)
            rankings.append(pool[idx].tolist())
    return rankings, truths, n_unrankable


def _sampled_rankings(user_vectors, item_vectors, norms, known, users, states, events,
                      protocol):
    """Sampled mode: each user's earliest test item ranked against
    ``negatives_per_user`` draws from the items it neither knows nor holds
    out; users with fewer such candidates are skipped.

    The candidates are counted from one sorted array of (user, blocked item)
    keys, every pool is drawn by ``seeded_choice_rows`` from the state each
    user's own ``derived_rng`` starts from, and the pools of a chunk of users
    are scored by one stacked product.
    """
    indptr, known_items = known
    e_slot, e_item = events
    n_neg, n_items = protocol.negatives_per_user, len(item_vectors)
    max_k = max(protocol.k_values)
    slots = np.arange(len(users))
    n_known = indptr[users + 1] - indptr[users]
    blocked = _unique(np.concatenate((
        np.repeat(slots, n_known) * n_items + known_items[_ranges(indptr[users], n_known)],
        e_slot * n_items + e_item)))
    b_slot = blocked // n_items
    n_blocked = np.bincount(b_slot, minlength=len(users))
    n_cands = n_items - n_blocked
    kept = np.flatnonzero(n_cands >= n_neg)
    qns = np.array([np.linalg.norm(user_vectors[u]) for u in users[kept].tolist()])
    scored = qns != 0.0
    live, live_qns = kept[scored], qns[scored]
    picks = seeded_choice_rows(states[:, live], n_cands[live], n_neg)
    # candidate r of a user is item r + #{its blocked items m: item_m - m <= r}
    b_start = np.cumsum(n_blocked) - n_blocked
    gaps = blocked - (np.arange(len(blocked)) - b_start[b_slot])
    picks += (np.searchsorted(gaps, live[:, None] * n_items + picks, side="right")
              - b_start[live, None])
    positive = e_item[np.searchsorted(e_slot, slots)]
    pools = np.concatenate((positive[live, None], picks), axis=1)
    ranked = []
    chunk = max(1, _CHUNK_FLOATS // ((n_neg + 1) * item_vectors.shape[1]))
    for c in range(0, len(live), chunk):
        at = slice(c, c + chunk)
        scores = _pool_scores(user_vectors[users[live[at]]], live_qns[at], item_vectors, norms,
                              pools[at])
        top = np.argsort(-scores, axis=1, kind="stable")[:, :max_k]
        ranked += np.take_along_axis(pools[at], top, axis=1).tolist()
    rankings = [[] for _ in kept]
    for j, ranking in zip(np.flatnonzero(scored).tolist(), ranked):
        rankings[j] = ranking
    truths = [{p} for p in positive[kept].tolist()]
    return rankings, truths, len(users) - len(kept), len(kept) - len(live)


def evaluate_table(graph, table, test_interactions, protocol, user_type, item_type,
                   missing_users="drop"):
    """``evaluate`` over a graph + embedding table, on rows instead of keys.

    Test interactions are (user NodeRef, item NodeRef, ts); a user's known
    items are its adjacency row, which for all users is one contiguous run
    of the graph's CSR arrays. Test users beyond the table's rows (events
    newer than the snapshot) are dropped by default;
    ``missing_users="miss"`` scores them as guaranteed misses instead, which
    is how a stale snapshot behaves in serving. A negative user id, or a
    negative item id of a user the table holds, is a ``DataError``.
    """
    t0 = time.perf_counter()
    n_users, n_items = len(table.blocks[user_type]), len(table.blocks[item_type])
    refs = np.array([(u[0], u[1], i[0], i[1]) for u, i, _ in test_interactions],
                    dtype=np.int64).reshape(-1, 4)
    typed = (refs[:, 0] == user_type) & (refs[:, 2] == item_type)
    fits = typed & (refs[:, 1] < n_users) & (refs[:, 3] < n_items)
    missing = typed & ~fits
    for rows, col, what, t in ((typed, 1, "user", user_type), (fits, 3, "item", item_type)):
        bad = np.flatnonzero(rows & (refs[:, col] < 0))
        if len(bad):
            raise DataError("test interaction references unknown %s %r"
                            % (what, NodeRef(t, int(refs[bad[0], col]))))
    if not fits.any() and missing_users == "miss" and missing.any():
        zeros = {k: 0.0 for k in protocol.k_values}
        report = EvalReport(hitrate=dict(zeros), recall=dict(zeros), ndcg=dict(zeros),
                            n_users=0, n_skipped=0, n_unrankable=0, wall_ms=0.0)
    else:
        n_graph = min(graph.counts[user_type], n_users)
        first = graph.offsets[user_type]
        indptr = graph._adj_indptr[first:first + n_graph + 1]
        items = graph._adj_indices[indptr[0]:indptr[-1]] - graph.offsets[item_type]
        hit = (items >= 0) & (items < min(graph.counts[item_type], n_items))
        # dropping other types' neighbors keeps each user's items one run
        indptr = np.concatenate(([0], np.cumsum(hit)))[indptr - indptr[0]]
        indptr = np.concatenate((indptr, np.full(n_users - n_graph, indptr[-1])))
        rows = refs[fits]
        ts = np.array([float(t) for _, _, t in test_interactions])[fits]
        users = np.unique(rows[:, 1])   # user keys (user_type, row) sort by row
        report = _evaluate_rows(table.blocks[user_type], table.blocks[item_type],
                                (indptr, items[hit]), users,
                                seed_states(TAG_EVALNEG, protocol.rng_seed, user_type, users),
                                (rows[:, 1], rows[:, 3], ts, rows[:, 3]), protocol)
    if missing_users == "miss" and missing.any():
        # stale-snapshot semantics: users whose events cannot be served by
        # this table version are unrankable, diluting every metric to zero
        n_missed = np.setdiff1d(refs[missing, 1], refs[fits, 1]).size
        total = report.n_users + n_missed
        scale = report.n_users / total if total else 0.0
        report.hitrate = {k: v * scale for k, v in report.hitrate.items()}
        report.recall = {k: v * scale for k, v in report.recall.items()}
        report.ndcg = {k: v * scale for k, v in report.ndcg.items()}
        report.n_users = total
        report.n_unrankable += n_missed
    report.table_version = table.version
    report.wall_ms = (time.perf_counter() - t0) * 1000.0
    return report


def chronological_split(interactions, fractions=(0.8, 0.1, 0.1)):
    """Stable timestamp-ordered split into (train, valid, test) lists.

    ``interactions`` entries must carry the timestamp at index 2. Equal
    timestamps keep their input order (stable sort), so boundary placement
    is deterministic.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must be three non-negative values summing to 1")
    order = sorted(range(len(interactions)), key=lambda j: interactions[j][2])
    n = len(interactions)
    c1 = int(round(n * fractions[0]))
    c2 = int(round(n * (fractions[0] + fractions[1])))
    train = [interactions[j] for j in order[:c1]]
    valid = [interactions[j] for j in order[c1:c2]]
    test = [interactions[j] for j in order[c2:]]
    return train, valid, test
