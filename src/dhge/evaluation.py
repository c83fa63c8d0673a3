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

from .graph import DataError, NodeRef
from .seeding import derived_rng, TAG_EVALNEG
from .tensor import NumericError


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
    norms = np.linalg.norm(items, axis=1)
    scores = np.full(len(items), -np.inf)
    ok = norms > 0.0
    scores[ok] = (items[ok] @ query) / (norms[ok] * qn)
    order = np.lexsort((np.arange(len(items)), -scores))
    k = min(k, len(items))
    return order[:k], scores[order[:k]]


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
    """
    t0 = time.perf_counter()
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    user_row = {k: i for i, k in enumerate(user_keys)}
    item_row = {k: i for i, k in enumerate(item_keys)}
    if len(user_row) != len(user_vectors) or len(item_row) != len(item_vectors):
        raise DataError("duplicate or missing keys for evaluation tables")

    known_by_user = {}
    for u, i in known_interactions:
        known_by_user.setdefault(u, set()).add(i)
    tests_by_user = {}
    for u, i, ts in test_interactions:
        if u not in user_row:
            continue  # user unknown to this table version
        if i not in item_row:
            raise DataError("test interaction references unknown item %r" % (i,))
        tests_by_user.setdefault(u, []).append((float(ts), i))
    if not tests_by_user:
        raise DataError("no evaluable test interactions")

    max_k = max(protocol.k_values)
    rankings = []
    truths = []
    n_skipped = 0
    n_unrankable = 0
    all_items = list(item_keys)
    for u in sorted(tests_by_user, key=_key_ints):
        events = sorted(tests_by_user[u], key=lambda e: (e[0], _key_ints(e[1])))
        known = known_by_user.get(u, set())
        test_items = {i for _, i in events}
        if protocol.negatives_per_user is None:
            pool = [i for i in all_items if i not in known]
            truth = test_items
        else:
            positive = events[0][1]
            candidates = [i for i in all_items
                          if i not in known and i not in test_items]
            if len(candidates) < protocol.negatives_per_user:
                n_skipped += 1
                continue
            rng = derived_rng(TAG_EVALNEG, protocol.rng_seed, *_key_ints(u))
            pick = rng.choice(len(candidates), size=protocol.negatives_per_user, replace=False)
            pool = [positive] + [candidates[j] for j in sorted(pick)]
            truth = {positive}
        vec = user_vectors[user_row[u]]
        if np.linalg.norm(vec) == 0.0:
            rankings.append([])
            truths.append(truth)
            n_unrankable += 1
            continue
        rows = np.asarray([item_row[i] for i in pool], dtype=np.int64)
        idx, _ = cosine_topk(vec, item_vectors[rows], min(max_k, len(rows)))
        rankings.append([pool[j] for j in idx])
        truths.append(truth)

    hitrate = {k: hitrate_at_k(rankings, truths, k) for k in protocol.k_values}
    recall = {k: recall_at_k(rankings, truths, k) for k in protocol.k_values}
    ndcg = {k: ndcg_at_k(rankings, truths, k) for k in protocol.k_values}
    return EvalReport(hitrate=hitrate, recall=recall, ndcg=ndcg,
                      n_users=len(rankings), n_skipped=n_skipped,
                      n_unrankable=n_unrankable,
                      wall_ms=(time.perf_counter() - t0) * 1000.0)


def evaluate_table(graph, table, test_interactions, protocol, user_type, item_type,
                   missing_users="drop"):
    """Adapter from a graph + embedding table to the array-level evaluate.

    Test interactions are (user NodeRef, item NodeRef, ts); known
    interactions come from the graph's adjacency. Test users beyond the
    table's rows (events newer than the snapshot) are dropped by default;
    ``missing_users="miss"`` scores them as guaranteed misses instead, which
    is how a stale snapshot behaves in serving.
    """
    user_keys = [NodeRef(user_type, i) for i in range(len(table.blocks[user_type]))]
    item_keys = [NodeRef(item_type, i) for i in range(len(table.blocks[item_type]))]
    # the users' adjacency rows are one contiguous run of the CSR arrays
    n_users = min(graph.counts[user_type], len(user_keys))
    first = graph.offsets[user_type]
    indptr = graph._adj_indptr[first:first + n_users + 1]
    nbrs = graph._adj_indices[indptr[0]:indptr[-1]]
    users = np.repeat(np.arange(n_users), np.diff(indptr))
    items = nbrs - graph.offsets[item_type]
    hit = (graph.type_of_global(nbrs) == item_type) & (items < len(item_keys))
    known = [(user_keys[u], item_keys[i])
             for u, i in zip(users[hit].tolist(), items[hit].tolist())]
    tests = []
    n_missing = 0
    for u, i, ts in test_interactions:
        if u[0] != user_type or i[0] != item_type:
            continue
        if u[1] < len(user_keys) and i[1] < len(item_keys):
            tests.append((NodeRef(*u), NodeRef(*i), ts))
        else:
            n_missing += 1
    if not tests and missing_users == "miss" and n_missing:
        zeros = {k: 0.0 for k in protocol.k_values}
        report = EvalReport(hitrate=dict(zeros), recall=dict(zeros), ndcg=dict(zeros),
                            n_users=0, n_skipped=0, n_unrankable=0, wall_ms=0.0)
    else:
        report = evaluate(table.blocks[user_type], user_keys,
                          table.blocks[item_type], item_keys,
                          tests, protocol, known)
    if missing_users == "miss" and n_missing:
        # stale-snapshot semantics: users whose events cannot be served by
        # this table version are unrankable, diluting every metric to zero
        served = {u for u, i, ts in tests}
        missed = {NodeRef(*u) for u, i, ts in test_interactions
                  if u[0] == user_type and i[0] == item_type
                  and (u[1] >= len(user_keys) or i[1] >= len(item_keys))
                  and NodeRef(*u) not in served}
        total = report.n_users + len(missed)
        scale = report.n_users / total if total else 0.0
        report.hitrate = {k: v * scale for k, v in report.hitrate.items()}
        report.recall = {k: v * scale for k, v in report.recall.items()}
        report.ndcg = {k: v * scale for k, v in report.ndcg.items()}
        report.n_users = total
        report.n_unrankable += len(missed)
    report.table_version = table.version
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
