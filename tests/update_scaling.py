"""Time one fixed 20-node ``ille_update`` on 4k, 8k and 16k-node bases.

Run as a script, it prints one JSON list per round, each holding the three
times in seconds; ``test_acceptance.test_update_cost_flat_in_base_size``
checks their doubling ratios. A round times the three bases back to back,
so a slow stretch of a shared host hits all three of its times alike. Each
timed update follows an untimed one on the same base, as in a resident
updater whose graph stays warm in cache, and, as in ``timeit``, the
garbage collector is off while timing.
"""
import functools
import gc
import json
import os
import time

import numpy as np

from dhge.graph import HeteroGraph, IncrementBatch, NodeRef, RelationSchema
from dhge.incremental import UpdateConfig, capture_alignment, ille_update
from dhge.model import ModelConfig, ModelParams, embed_all


def scaling_graph(n, input_dim=8, seed=0):
    """Bipartite graph of n/2 users and n/2 items, three random items per user."""
    half = n // 2
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(half), 3)
    dst = rng.integers(0, half, size=3 * half)
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    s = pairs[:, 0].astype(np.int64)
    t = pairs[:, 1].astype(np.int64)
    ts = np.arange(len(pairs), dtype=np.float64)
    packed = [(s, t, ts), (t.copy(), s.copy(), ts.copy())]
    return HeteroGraph(RelationSchema([(0, 1), (1, 0)]),
                       [rng.normal(size=(half, input_dim)) for _ in range(2)],
                       [np.ones((half, input_dim), dtype=bool) for _ in range(2)],
                       packed)


def round_times(sizes=(4000, 8000, 16000), rounds=10):
    cfg = ModelConfig(input_dim=8, hidden_dim=32, rng_seed=0)
    ucfg = UpdateConfig(k=8, refine_steps=3)
    updates = []
    for n in sizes:
        g = scaling_graph(n, seed=1)
        params = ModelParams(cfg, num_types=2, num_relations=2, id_capacity=max(g.counts))
        table = embed_all(g, params, cfg)
        alignment = capture_alignment(g, table, k=8, eps=1e-3, rng_seed=0)
        rng = np.random.default_rng(5)
        new_nodes, new_edges = [], []
        for j in range(20):
            ref = NodeRef(0, n // 2 + j)
            new_nodes.append((ref, rng.normal(size=8), np.ones(8, dtype=bool)))
            for i in rng.choice(n // 2, size=5, replace=False):
                new_edges.append((ref, NodeRef(1, int(i)), 0, 1e6 + j))
                new_edges.append((NodeRef(1, int(i)), ref, 1, 1e6 + j))
        batch = IncrementBatch(new_nodes=new_nodes, new_edges=new_edges, batch_time=1e6)
        updates.append(functools.partial(ille_update, g, batch, params, table, cfg, ucfg,
                                         alignment=alignment, rng_seed=1))
    rows = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            row = []
            for update in updates:
                update()
                t0 = time.perf_counter()
                update()
                row.append(time.perf_counter() - t0)
            rows.append(row)
    finally:
        gc.enable()
    return rows


if __name__ == "__main__":
    # one CPU, as bench/run.py runs: the scheduler cannot move the run
    # between cores whose speeds differ from moment to moment
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(json.dumps(round_times()))
