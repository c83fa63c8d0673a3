"""Synthetic dataset generators for benchmarks and acceptance checks.

Three families: a planted-community bipartite click graph (learnability),
a swiss-roll point cloud (manifold embedding), and a drift stream (a base
bipartite graph plus timestamped increment batches of brand-new users).
All outputs are written in the package's TSV formats.
"""
from __future__ import annotations

import os

import numpy as np

from .graph import write_edges, write_features, write_schema
from .seeding import derived_rng, TAG_FIXTURE


def swiss_roll_points(n, seed=0, noise=0.0):
    """Classic swiss roll in 3-D; returns (points, unrolled 2-D coordinates)."""
    rng = derived_rng(TAG_FIXTURE, seed, 1)
    u = rng.random(n)
    t = 1.5 * np.pi * (1.0 + 2.0 * u)
    height = 21.0 * rng.random(n)
    x = np.stack([t * np.cos(t), height, t * np.sin(t)], axis=1)
    if noise > 0:
        x = x + rng.normal(0.0, noise, size=x.shape)
    return x, np.stack([t, height], axis=1)


def _community_features(rng, comm, communities, feature_dim, noise, missing_rate):
    values = np.zeros(feature_dim)
    values[comm] = 1.0
    values += rng.normal(0.0, noise, size=feature_dim)
    mask = rng.random(feature_dim) >= missing_rate
    return values, mask


def gen_planted_bipartite(out_dir, n_users=400, n_items=200, communities=4,
                          p_in=0.75, p_out=0.01, feature_dim=12, feature_noise=0.1,
                          missing_rate=0.05, seed=0):
    """Bipartite click graph with planted communities and one holdout per user.

    Users and items are assigned round-robin to communities; an edge appears
    with probability p_in inside a community and p_out across. Each user's
    latest in-community interaction is held out to ``test.tsv`` (removed from
    the training edges). Relations: 0 = user->item, 1 = the mirrored
    item->user link. Returns a stats dict with expected/actual edge counts.
    """
    if feature_dim < communities:
        raise ValueError("feature_dim must be >= communities")
    os.makedirs(os.fspath(out_dir), exist_ok=True)
    rng = derived_rng(TAG_FIXTURE, seed, 2)
    user_comm = np.arange(n_users) % communities
    item_comm = np.arange(n_items) % communities

    interactions = [[] for _ in range(n_users)]
    n_in_pairs = 0
    n_out_pairs = 0
    for u in range(n_users):
        same = item_comm == user_comm[u]
        n_in_pairs += int(same.sum())
        n_out_pairs += int((~same).sum())
        prob = np.where(same, p_in, p_out)
        hit = rng.random(n_items) < prob
        for i in np.flatnonzero(hit):
            interactions[u].append(int(i))

    # guarantee every user can both train and be tested
    for u in range(n_users):
        in_comm = [i for i in interactions[u] if item_comm[i] == user_comm[u]]
        while len(in_comm) < 2:
            extra = int(rng.choice(np.flatnonzero(item_comm == user_comm[u])))
            if extra not in interactions[u]:
                interactions[u].append(extra)
                in_comm.append(extra)

    train_rows = []
    test_rows = []
    n_train_edges = 0
    for u in range(n_users):
        stamps = {i: float(rng.integers(0, 1_000_000)) for i in interactions[u]}
        in_comm = [i for i in interactions[u] if item_comm[i] == user_comm[u]]
        held = max(in_comm, key=lambda i: (stamps[i], i))
        for i in interactions[u]:
            if i == held:
                continue
            train_rows.append((0, u, 1, i, 0, stamps[i]))
            train_rows.append((1, i, 0, u, 1, stamps[i]))
            n_train_edges += 1
        test_rows.append((0, u, 1, held, 0, stamps[held] + 1_000_000.0))

    feat_rows = []
    for u in range(n_users):
        v, m = _community_features(rng, user_comm[u], communities, feature_dim,
                                   feature_noise, missing_rate)
        feat_rows.append((0, u, v, m))
    for i in range(n_items):
        v, m = _community_features(rng, item_comm[i], communities, feature_dim,
                                   feature_noise, missing_rate)
        feat_rows.append((1, i, v, m))

    out = os.fspath(out_dir)
    write_schema(os.path.join(out, "schema.tsv"), [(0, 1), (1, 0)])
    write_features(os.path.join(out, "features.tsv"), feat_rows)
    write_edges(os.path.join(out, "edges.tsv"), train_rows)
    write_edges(os.path.join(out, "test.tsv"), test_rows)
    return {
        "n_users": n_users, "n_items": n_items, "communities": communities,
        "n_train_edges": n_train_edges, "n_test_rows": len(test_rows),
        "expected_edges_mean": n_in_pairs * p_in + n_out_pairs * p_out,
        "expected_edges_std": float(np.sqrt(n_in_pairs * p_in * (1 - p_in)
                                            + n_out_pairs * p_out * (1 - p_out))),
        "n_raw_interactions": sum(len(x) for x in interactions),
    }


def gen_swiss_roll(out_dir, n=300, seed=0, noise=0.0):
    """Edge-free single-type point cloud on the swiss roll manifold."""
    os.makedirs(os.fspath(out_dir), exist_ok=True)
    x, plane = swiss_roll_points(n, seed=seed, noise=noise)
    out = os.fspath(out_dir)
    write_schema(os.path.join(out, "schema.tsv"), [])
    write_features(os.path.join(out, "features.tsv"),
                   [(0, i, x[i], np.ones(x.shape[1], dtype=bool)) for i in range(n)])
    write_edges(os.path.join(out, "edges.tsv"), [])
    return {"n_points": n, "dim": x.shape[1]}


def gen_drift_stream(out_dir, base_users=200, base_items=100, communities=4,
                     p_in=0.75, p_out=0.01, feature_dim=12, feature_noise=0.1,
                     missing_rate=0.05, n_batches=5, users_per_batch=10,
                     edges_per_new_user=10, seed=0):
    """Base bipartite graph plus increment batches of brand-new users.

    Each batch ``j`` adds ``users_per_batch`` users with features and
    ``edges_per_new_user`` in-community click edges, all timestamped after
    every earlier event; one additional in-community item per new user is
    held out to the shared ``test.tsv``. Batch files are
    ``increments/batch_%03d.edges.tsv`` and ``...features.tsv``.
    """
    out = os.fspath(out_dir)
    stats = gen_planted_bipartite(out_dir, n_users=base_users, n_items=base_items,
                                  communities=communities, p_in=p_in, p_out=p_out,
                                  feature_dim=feature_dim, feature_noise=feature_noise,
                                  missing_rate=missing_rate, seed=seed)
    rng = derived_rng(TAG_FIXTURE, seed, 3)
    inc_dir = os.path.join(out, "increments")
    os.makedirs(inc_dir, exist_ok=True)
    test_rows = []
    with open(os.path.join(out, "test.tsv"), "r", encoding="utf-8") as fh:
        base_test = fh.read()
    next_user = base_users
    batch_files = []
    for j in range(n_batches):
        t_base = 2_000_000.0 + j * 10_000.0
        edge_rows = []
        feat_rows = []
        for _ in range(users_per_batch):
            u = next_user
            next_user += 1
            comm = int(rng.integers(communities))
            v, m = _community_features(rng, comm, communities, feature_dim,
                                       feature_noise, missing_rate)
            feat_rows.append((0, u, v, m))
            comm_items = np.flatnonzero(np.arange(base_items) % communities == comm)
            want = min(edges_per_new_user + 1, len(comm_items))
            picked = rng.choice(comm_items, size=want, replace=False)
            held = int(picked[-1])
            for i in picked[:-1]:
                ts = t_base + float(rng.integers(0, 5_000))
                edge_rows.append((0, u, 1, int(i), 0, ts))
                edge_rows.append((1, int(i), 0, u, 1, ts))
            test_rows.append((0, u, 1, held, 0, t_base + 9_000.0))
        e_path = os.path.join(inc_dir, "batch_%03d.edges.tsv" % j)
        f_path = os.path.join(inc_dir, "batch_%03d.features.tsv" % j)
        write_edges(e_path, edge_rows)
        write_features(f_path, feat_rows)
        batch_files.append((e_path, f_path))

    # the shared test file: stream holdouts only (base holdouts kept aside)
    with open(os.path.join(out, "base_test.tsv"), "w", encoding="utf-8") as fh:
        fh.write(base_test)
    write_edges(os.path.join(out, "test.tsv"), test_rows)
    stats.update({"n_batches": n_batches, "users_per_batch": users_per_batch,
                  "batch_files": batch_files, "n_stream_test_rows": len(test_rows)})
    return stats
