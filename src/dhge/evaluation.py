"""Top-K retrieval metrics over embedding tables.

Rankings are by cosine similarity with deterministic tie handling: equal
scores order by ascending item row, and zero-norm item vectors sort after
every real score. The sampled protocol ranks each user's earliest held-out
positive against per-user seeded negatives drawn from non-interacted items.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import DataError, NodeRef, _in_sorted, _ranges, _unique
from .seeding import seed_states, seeded_choice_rows, TAG_EVALNEG
from .tensor import NumericError

_CHUNK_FLOATS = 1 << 16   # item-vector floats gathered per stacked pool product
_BLOCK_QUERIES = 64       # query rows the ranking core scores by one product


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


@dataclass(eq=False)
class HeldOut:
    """Held-out interactions from one user type to one item type, as columns
    of user and item intra ids and times. ``evaluate_table`` takes them as
    they are; to any other caller they iterate, count and compare as the
    list of (user NodeRef, item NodeRef, ts) rows."""
    user_type: int
    item_type: int
    users: np.ndarray
    items: np.ndarray
    ts: np.ndarray

    def __len__(self):
        return len(self.users)

    def __iter__(self):
        return ((NodeRef(self.user_type, u), NodeRef(self.item_type, i), t)
                for u, i, t in zip(self.users.tolist(), self.items.tolist(), self.ts.tolist()))

    def __eq__(self, other):
        return list(self) == list(other)


def _held_out_columns(test_interactions, user_type, item_type):
    """(user ids, item ids, ts) of the test interactions from ``user_type``
    to ``item_type``, in their order; a tuple list is converted once."""
    if isinstance(test_interactions, HeldOut):
        cols = test_interactions
        typed = (cols.user_type, cols.item_type) == (user_type, item_type)
        at = slice(None) if typed else slice(0)
        return cols.users[at], cols.items[at], cols.ts[at]
    refs = np.array([(u[0], u[1], i[0], i[1]) for u, i, _ in test_interactions],
                    dtype=np.int64).reshape(-1, 4)
    ts = np.array([float(t) for _, _, t in test_interactions], dtype=np.float64)
    typed = (refs[:, 0] == user_type) & (refs[:, 2] == item_type)
    return refs[typed, 1], refs[typed, 3], ts[typed]


def cosine_topk(query, items, k, exclude=None):
    """Indices of the top-k items by cosine similarity with ``query``, and
    their scores, best first.

    Ties break toward the smaller index. Zero-norm item rows rank after all
    scored rows (in index order), and NaN scores after those; a zero-norm
    query is unrankable and raises. The item rows ``exclude`` lists are
    scored with the rest but never returned, so fewer than k may come back;
    a negative or out-of-range row raises ``ValueError``.
    """
    query = np.asarray(query, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise NumericError("unrankable query: zero-norm query vector")
    known = None
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        bad = exclude[(exclude < 0) | (exclude >= len(items))]
        if len(bad):
            raise ValueError("exclude names item %d, outside the %d items" % (bad[0], len(items)))
        known = (np.zeros(len(exclude), dtype=np.int64), exclude)
    ids, scores = _top_k(query[None, :], np.array([qn]), items, k, known)
    n = np.count_nonzero(ids[0] >= 0)
    return ids[0, :n], scores[0, :n]


def _top_k(queries, qns, items, k, known=None):
    """The ranking core: each query row's top ``min(k, len(items))`` item
    rows by cosine score, as (ids, scores) matrices, -1 and NaN past a
    row's last candidate. ``qns`` are the queries' norms, which must not be
    zero. ``known`` is an optional pair of (query, item row) arrays, sorted
    by query, of the items each query leaves out.

    Item norms are taken by ``_row_norms``. A block of up to
    ``_BLOCK_QUERIES`` queries is scored against every item row by one
    product (one query by ``items @ query``); a row whose norm is not
    positive scores -inf, and left-out items are dropped after scoring.
    One ``np.partition`` finds each query's k-th best score in the block;
    then, query by query, only the rows at or above it, every tie at the
    boundary included, are ordered by (-score, row). A query with fewer
    than k scores that are not NaN orders every row it does not leave
    out, NaN scores last."""
    n_q, k = len(queries), min(k, len(items))
    ids = np.full((n_q, k), -1, dtype=np.int64)
    scores = np.full((n_q, k), np.nan)
    if not k:
        return ids, scores
    norms = _row_norms(items)
    unscored = None if norms.min() > 0.0 else ~(norms > 0.0)
    safe = norms if unscored is None else np.where(unscored, 1.0, norms)
    for lo in range(0, n_q, _BLOCK_QUERIES):
        block = queries[lo:lo + _BLOCK_QUERIES]
        neg = items @ block[0] if len(block) == 1 else block @ items.T
        neg = neg.reshape(len(block), -1)
        neg /= -qns[lo:lo + len(block), None] * safe   # the negated scores, bit for bit
        if unscored is not None:
            neg[:, unscored] = np.inf
        if known is not None:
            kq, kc = known
            if n_q > _BLOCK_QUERIES:
                at = slice(*np.searchsorted(kq, (lo, lo + len(block))))
                kq, kc = kq[at] - lo, kc[at]
            neg[kq, kc] = np.nan
        kth = np.partition(neg, k - 1, axis=1)[:, k - 1].tolist()
        for j, row in enumerate(neg):
            if math.isnan(kth[j]):   # fewer than k scores that are not NaN
                keep = np.ones(len(row), dtype=bool)
                if known is not None:
                    keep[kc[kq == j]] = False
                rows = np.flatnonzero(keep)
            else:
                rows = np.flatnonzero(row <= kth[j])
            top = rows[np.argsort(row[rows], kind="stable")[:k]]
            ids[lo + j, :len(top)] = top
            scores[lo + j, :len(top)] = -row[top]
    return ids, scores


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


def _row_norms(rows):
    """Each row's own ``np.linalg.norm(row)``, bit for bit: the square root
    of its ``x.dot(x)``, taken by one stacked product. This is not bit for
    bit ``np.linalg.norm(rows, axis=1)``, which sums the squares pairwise:
    the two differ in the last bits of some rows of 64. Query norms and the
    ranking core's item norms use this form; sampled evaluation keeps the
    ``axis=1`` form for its item norms, because the benchmark recomputes
    its hit rate with that form and must match it exactly."""
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


def _full_rankings(user_vectors, item_vectors, known, users, events, max_k):
    """Full-corpus mode: each user's items outside its known set, ranked by
    ``_top_k`` in blocks of users; its truth is every test item. Returns the
    relevance of each user's top ``max_k``, matched against the sorted
    (user, test item) keys, each user's count of distinct test items and the
    count of zero-norm users, which rank nothing."""
    indptr, known_items = known
    e_slot, e_item = events
    n_items = len(item_vectors)
    qns = _row_norms(user_vectors[users])
    live = np.flatnonzero(qns != 0.0)
    starts = indptr[users[live]]
    n_known = indptr[users[live] + 1] - starts
    ids, _ = _top_k(user_vectors[users[live]], qns[live], item_vectors, max_k,
                    (np.repeat(np.arange(len(live)), n_known),
                     known_items[_ranges(starts, n_known)]))
    ranked = np.full((len(users), max_k), -1, dtype=np.int64)
    ranked[live, :ids.shape[1]] = ids
    truth = _unique(e_slot * n_items + e_item)
    _, relevant = _in_sorted(truth, np.arange(len(users))[:, None] * n_items + ranked)
    return (relevant & (ranked >= 0), np.bincount(truth // n_items, minlength=len(users)),
            len(users) - len(live))


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

    Test interactions are ``HeldOut`` columns or (user NodeRef, item
    NodeRef, ts) rows; only those from ``user_type`` to ``item_type``
    count. A user's known items are its adjacency row, which for all users
    is one contiguous run of the graph's CSR arrays. Sampled mode scores each user's earliest
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
    test_users, test_items, test_ts = _held_out_columns(test_interactions, user_type, item_type)
    fits = (test_users < n_users) & (test_items < n_items)
    miss = missing_users == "miss" and not fits.all()
    for ids, rows, what, t in ((test_users, True, "user", user_type),
                               (test_items, fits, "item", item_type)):
        bad = np.flatnonzero(rows & (ids < 0))
        if len(bad):
            raise DataError("test interaction references unknown %s %r"
                            % (what, NodeRef(t, int(ids[bad[0]]))))
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
        row_users, row_items, ts = test_users[fits], test_items[fits], test_ts[fits]
        users = np.unique(row_users)   # users are ranked in row order
        # each user's events by time, equal times by item row
        order = np.lexsort((row_items, ts, row_users))
        events = (np.searchsorted(users, row_users[order]), row_items[order])
        user_vectors = np.asarray(table.blocks[user_type], dtype=np.float64)
        item_vectors = np.asarray(table.blocks[item_type], dtype=np.float64)
        known = (indptr, items[hit])
        if protocol.negatives_per_user is None:
            relevant, n_truth, n_unrankable = _full_rankings(
                user_vectors, item_vectors, known, users, events, max(protocol.k_values))
            n_skipped = 0
        else:
            relevant, n_truth, n_skipped, n_unrankable = _sampled_rankings(
                user_vectors, item_vectors, np.linalg.norm(item_vectors, axis=1), known, users,
                events, protocol, user_type)
        hitrate, recall, ndcg = _metrics(relevant, n_truth, protocol.k_values)
        report = EvalReport(hitrate=hitrate, recall=recall, ndcg=ndcg, n_users=len(relevant),
                            n_skipped=n_skipped, n_unrankable=n_unrankable, wall_ms=0.0)
    if miss:
        # stale-snapshot semantics: users whose events cannot be served by
        # this table version are unrankable, diluting every metric to zero
        n_missed = np.setdiff1d(test_users[~fits], test_users[fits]).size
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
