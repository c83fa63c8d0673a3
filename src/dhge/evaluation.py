"""Top-K retrieval metrics over embedding tables.

Rankings are by cosine similarity with deterministic tie handling: equal
scores order by ascending item row, and zero-norm item vectors sort after
every real score. The sampled protocol ranks each user's earliest held-out
positive against per-user seeded negatives drawn from non-interacted items.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import DataError, NodeRef, _in_sorted, _ranges, _unique
from .seeding import seed_states, seeded_choice_rows, TAG_EVALNEG
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


def _row_norms(rows):
    """Each row's ``np.linalg.norm``, bit for bit: the square root of its
    ``x.dot(x)``, taken by one stacked product."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


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


def _metrics(relevant, n_truth, k_values):
    """Hit rate, recall and NDCG at each k, as dicts keyed by k, from the
    (users, max k) matrix of which ranked items are relevant and each
    user's count of relevant items (at least one). Gains add by position
    and user terms in user order, left to right as the per-user definitions
    do, so sums run by ``np.cumsum``, never the pairwise ``np.sum``."""
    n = len(relevant)
    if not n:
        return tuple({k: 0.0 for k in k_values} for _ in range(3))
    gains = np.array([1.0 / np.log2(pos + 1) for pos in range(1, relevant.shape[1] + 1)])
    hits = np.cumsum(relevant, axis=1)
    dcg = np.cumsum(np.where(relevant, gains, 0.0), axis=1)
    ideal = np.cumsum(gains)
    hitrate, recall, ndcg = {}, {}, {}
    for k in k_values:
        hitrate[k] = int(np.count_nonzero(hits[:, k - 1])) / n
        recall[k] = float(np.cumsum(hits[:, k - 1] / n_truth)[-1]) / n
        ndcg[k] = float(np.cumsum(dcg[:, k - 1] / ideal[np.minimum(n_truth, k) - 1])[-1]) / n
    return hitrate, recall, ndcg


def _full_rankings(user_vectors, item_vectors, norms, known, users, events, max_k):
    """Full-corpus mode: each user's items outside its known set, ranked in
    turn by ``_ranked``; its truth is every test item. Returns the relevance
    of each user's top ``max_k``, matched against the sorted (user, test
    item) keys, and each user's count of distinct test items."""
    indptr, known_items = known
    e_slot, e_item = events
    n_items = len(item_vectors)
    mask = np.empty(n_items, dtype=bool)
    ranked = np.full((len(users), max_k), -1, dtype=np.int64)
    n_unrankable = 0
    qns = _row_norms(user_vectors[users])
    for j, (u, qn) in enumerate(zip(users.tolist(), qns.tolist())):
        if qn == 0.0:
            n_unrankable += 1
            continue
        mask.fill(True)
        mask[known_items[indptr[u]:indptr[u + 1]]] = False
        pool = np.flatnonzero(mask)
        idx, _ = _ranked(user_vectors[u], qn, item_vectors[pool], norms[pool], max_k)
        ranked[j, :len(idx)] = pool[idx]
    truth = _unique(e_slot * n_items + e_item)
    _, relevant = _in_sorted(truth, np.arange(len(users))[:, None] * n_items + ranked)
    return (relevant & (ranked >= 0), np.bincount(truth // n_items, minlength=len(users)),
            n_unrankable)


def _sampled_rankings(user_vectors, item_vectors, norms, known, users, events, protocol,
                      user_type):
    """Sampled mode: each user's earliest test item ranked against
    ``negatives_per_user`` draws from the items it neither knows nor holds
    out; users with fewer such candidates are skipped.

    The candidates are counted from one sorted array of (user, blocked item)
    keys, every pool is drawn by ``seeded_choice_rows`` from the state a
    fresh ``derived_rng(TAG_EVALNEG, rng_seed, user_type, user row)``
    starts from, and the pools of a chunk of users are scored by one
    stacked product. No pool is sorted: the positive sits in column 0, so
    its place in a stable sort on descending score is the count of scores
    strictly above it, and a NaN positive's is the count of scores that are
    not NaN. Returns the kept users' relevance matrix, true at each scored
    user's rank if it is below ``max(k_values)``.
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
    qns = _row_norms(user_vectors[users[kept]])
    scored = qns != 0.0
    live, live_qns = kept[scored], qns[scored]
    picks = seeded_choice_rows(seed_states(TAG_EVALNEG, protocol.rng_seed, user_type, users[live]),
                               n_cands[live], n_neg)
    # candidate r of a user is item r + #{its blocked items m: item_m - m <= r}
    b_start = np.cumsum(n_blocked) - n_blocked
    gaps = blocked - (np.arange(len(blocked)) - b_start[b_slot])
    picks += (np.searchsorted(gaps, live[:, None] * n_items + picks, side="right")
              - b_start[live, None])
    positive = e_item[np.searchsorted(e_slot, slots)]
    pools = np.concatenate((positive[live, None], picks), axis=1)
    rank = np.empty(len(live), dtype=np.int64)
    chunk = max(1, _CHUNK_FLOATS // ((n_neg + 1) * item_vectors.shape[1]))
    for c in range(0, len(live), chunk):
        at = slice(c, c + chunk)
        scores = _pool_scores(user_vectors[users[live[at]]], live_qns[at], item_vectors, norms,
                              pools[at])
        above = scores[:, 1:] > scores[:, :1]
        nan = np.isnan(scores[:, 0])
        above[nan] = ~np.isnan(scores[nan, 1:])
        rank[at] = np.count_nonzero(above, axis=1)
    relevant = np.zeros((len(kept), max_k), dtype=bool)
    top = rank < max_k
    relevant[np.flatnonzero(scored)[top], rank[top]] = True
    return (relevant, np.ones(len(kept), dtype=np.int64), len(users) - len(kept),
            len(kept) - len(live))


def check_missing_users(mode):
    """``ValueError`` unless ``mode`` is one of ``evaluate_table``'s two."""
    if mode not in ("drop", "miss"):
        raise ValueError("missing_users must be 'drop' or 'miss', not %r" % (mode,))


def evaluate_table(graph, table, test_interactions, protocol, user_type, item_type,
                   missing_users="drop"):
    """Rank held-out positives for each test user and aggregate metrics.

    Test interactions are (user NodeRef, item NodeRef, ts); a user's known
    items are its adjacency row, which for all users is one contiguous run
    of the graph's CSR arrays. Sampled mode scores each user's earliest
    positive (equal times in item order) against ``negatives_per_user``
    seeded draws from items the user never interacted with; users without
    enough candidates are skipped. Full-corpus mode
    (``negatives_per_user=None``) ranks every item outside the user's known
    interactions against the whole held-out set. Users whose vector has
    zero norm are unrankable and count as misses.

    Test users beyond the table's rows (events newer than the snapshot) are
    dropped by default; ``missing_users="miss"`` scores them as guaranteed
    misses instead, which is how a stale snapshot behaves in serving. Any
    other mode is a ``ValueError``. A negative user id, or a negative item
    id of a user the table holds, is a ``DataError``.
    """
    check_missing_users(missing_users)
    t0 = time.perf_counter()
    n_users, n_items = len(table.blocks[user_type]), len(table.blocks[item_type])
    refs = np.array([(u[0], u[1], i[0], i[1]) for u, i, _ in test_interactions],
                    dtype=np.int64).reshape(-1, 4)
    typed = (refs[:, 0] == user_type) & (refs[:, 2] == item_type)
    fits = typed & (refs[:, 1] < n_users) & (refs[:, 3] < n_items)
    missing = typed & ~fits
    miss = missing_users == "miss" and missing.any()
    for rows, col, what, t in ((typed, 1, "user", user_type), (fits, 3, "item", item_type)):
        bad = np.flatnonzero(rows & (refs[:, col] < 0))
        if len(bad):
            raise DataError("test interaction references unknown %s %r"
                            % (what, NodeRef(t, int(refs[bad[0], col]))))
    if not fits.any() and miss:
        zeros = {k: 0.0 for k in protocol.k_values}
        report = EvalReport(hitrate=dict(zeros), recall=dict(zeros), ndcg=dict(zeros),
                            n_users=0, n_skipped=0, n_unrankable=0, wall_ms=0.0)
    elif not fits.any():
        raise DataError("no evaluable test interactions")
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
        users = np.unique(rows[:, 1])   # users are ranked in row order
        # each user's events by time, equal times by item row
        order = np.lexsort((rows[:, 3], ts, rows[:, 1]))
        events = (np.searchsorted(users, rows[order, 1]), rows[order, 3])
        user_vectors = np.asarray(table.blocks[user_type], dtype=np.float64)
        item_vectors = np.asarray(table.blocks[item_type], dtype=np.float64)
        norms = np.linalg.norm(item_vectors, axis=1)
        known = (indptr, items[hit])
        if protocol.negatives_per_user is None:
            relevant, n_truth, n_unrankable = _full_rankings(
                user_vectors, item_vectors, norms, known, users, events, max(protocol.k_values))
            n_skipped = 0
        else:
            relevant, n_truth, n_skipped, n_unrankable = _sampled_rankings(
                user_vectors, item_vectors, norms, known, users, events, protocol, user_type)
        hitrate, recall, ndcg = _metrics(relevant, n_truth, protocol.k_values)
        report = EvalReport(hitrate=hitrate, recall=recall, ndcg=ndcg, n_users=len(relevant),
                            n_skipped=n_skipped, n_unrankable=n_unrankable, wall_ms=0.0)
    if miss:
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
