"""Reference computations the benchmark checks the program's outputs against.

They read only the generator's own records of which items each user
clicked, never the program's graph, so a wrong adjacency in the program
shows as a mismatch.
"""
from __future__ import annotations

import numpy as np

from dhge.seeding import TAG_EVALNEG, derived_rng

# ranking positions may swap only where scores tie this closely
TIE_TOL = 1e-12


def read_edges(path):
    """(src_type, src_id, dst_type, dst_id) integer columns of an edge TSV."""
    rows = np.loadtxt(path, dtype=np.float64, delimiter="\t", ndmin=2,
                      usecols=(0, 1, 2, 3))
    return rows.astype(np.int64)


def add_clicks(known, edges, user_type=0, item_type=1):
    """Add each user->item or item->user edge to ``known[user]`` (a set)."""
    for st, si, dt, di in edges:
        if st == user_type and dt == item_type:
            known.setdefault(int(si), set()).add(int(di))
        elif st == item_type and dt == user_type:
            known.setdefault(int(di), set()).add(int(si))


def read_tests(path, user_type=0):
    """Held-out (user, item, ts) rows of a test TSV, user-sourced rows only."""
    rows = np.loadtxt(path, dtype=np.float64, delimiter="\t", ndmin=2)
    return [(int(r[1]), int(r[3]), float(r[5])) for r in rows if int(r[0]) == user_type]


def _cosine(query, items):
    qn = np.linalg.norm(query)
    norms = np.linalg.norm(items, axis=1)
    scores = np.full(len(items), -np.inf)
    ok = norms > 0.0
    scores[ok] = (items[ok] @ query) / (norms[ok] * qn)
    return scores


def retrieve_problems(result, user_row, item_rows, known, k):
    """Compare a retrieve list with a brute-force top-k, known items excluded."""
    keep = np.setdiff1d(np.arange(len(item_rows)), np.fromiter(known, np.int64, len(known)))
    scores = _cosine(user_row, item_rows[keep])
    order = np.lexsort((keep, -scores))[:k]
    want = [int(keep[j]) for j in order]
    got = [int(r["id"]) for r in result]
    if got == want:
        return []
    if len(got) != len(want) or set(got) & set(known):
        return ["retrieve returned %s, expected %s" % (got, want)]
    by_id = dict(zip(keep.tolist(), scores.tolist()))
    got_scores = [by_id.get(i, np.nan) for i in got]
    want_scores = [by_id[i] for i in want]
    if np.allclose(got_scores, want_scores, rtol=0.0, atol=TIE_TOL):
        return []   # same scores, order differs only inside exact ties
    return ["retrieve returned %s, expected %s" % (got, want)]


def sampled_hitrate(user_rows, item_rows, known, tests, rng_seed, negatives, k,
                    user_type=0):
    """hitrate@k under the sampled-negative protocol of ``dhge.evaluation``.

    Each user's earliest held-out item is ranked against ``negatives`` draws
    from the items the user neither clicked nor holds out; draws use the
    package's per-user seed stream so the pools match the program's.
    """
    n_users, n_items = len(user_rows), len(item_rows)
    by_user = {}
    for u, i, ts in tests:
        if u < n_users and i < n_items:
            by_user.setdefault(u, []).append((ts, i))
    hits = 0
    ranked = 0
    for u in sorted(by_user):
        events = sorted(by_user[u])
        mask = np.ones(n_items, dtype=bool)
        mask[list(known.get(u, ()))] = False
        mask[[i for _, i in events]] = False
        candidates = np.flatnonzero(mask)
        if len(candidates) < negatives:
            continue
        rng = derived_rng(TAG_EVALNEG, rng_seed, user_type, u)
        pick = np.sort(rng.choice(len(candidates), size=negatives, replace=False))
        pool = np.concatenate([[events[0][1]], candidates[pick]])
        ranked += 1
        if np.linalg.norm(user_rows[u]) == 0.0:
            continue
        scores = _cosine(user_rows[u], item_rows[pool])
        top = np.lexsort((np.arange(len(pool)), -scores))[:k]
        hits += bool(np.any(top == 0))
    return hits / ranked if ranked else 0.0


def table_problems(table, counts):
    """A refreshed table must be finite and hold a row for every node."""
    out = []
    if list(table.counts) != list(counts):
        out.append("table counts %s, graph counts %s" % (table.counts, counts))
    if not all(np.all(np.isfinite(b)) for b in table.blocks):
        out.append("table holds non-finite values")
    return out
