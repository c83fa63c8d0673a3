"""Timed workloads for the acceptance gates, run in a pinned child process.

Run as a script, it prints one JSON line:

* with no argument, ``{"sizes", "times", "stage_ms", "minflt"}``: per
  round, the times in seconds of one fixed 20-node ``ille_update`` on 4k,
  8k and 16k-node bases, each timed update's ``report["stage_ms"]`` and
  the minor page faults it took (``getrusage`` of this process);
  ``test_acceptance.test_update_cost_flat_in_base_size`` checks the
  doubling ratios of the times;
* with ``rebuild``, per round, criterion 05's incremental embedding and
  from-scratch rebuild times; ``test_acceptance.test_05_...`` checks their
  ratio;
* with ``refresh``, ``{"sizes", "embed_all", "capture_alignment",
  "bfs_neighbors", "reconstruction_weights", "spectrum", "align_bytes",
  "save_alignment_ms", "load_alignment_ms"}``: the seconds of one
  full-coverage ``embed_all`` and one ``capture_alignment`` (hidden 32,
  k=8) on 4k, 16k and 64k-node bases, the two halves of the refresh that
  ends every retrain, then of ``capture_alignment``'s three stages run
  again one at a time: ``bfs_neighbors`` over every node,
  ``reconstruction_weights`` and the spectrum (``_grams`` of the
  reconstruction operator); then the size in bytes of that alignment's
  ``.align`` file and the milliseconds of one ``save_alignment`` and one
  ``load_alignment`` of it. No test reads it;
* with ``linear``, ``{"embed", "update", "solve"}``: per round, criterion
  09's times in seconds: one full-coverage ``embed_all`` (hidden 64) on
  10k, 20k and 40k-node bases, one ``ille_update`` of 50, 100 and 200 new
  users onto a fixed 4k-node base, and 2,000 weight solves at k = 4, 8 and
  16; ``test_acceptance.test_09_...`` checks the doubling ratios and the
  solve-size exponent;
* with ``evaluate``, ``{"sizes", "evaluate_ms", "full_corpus_ms"}``: per
  base size (4k, 16k and 64k nodes), the median milliseconds of three
  ``evaluate_table`` calls ranking 300 test users' held-out items against
  99 sampled negatives each (pools scored by the stacked pool product),
  and of three in full-corpus mode (``negatives_per_user=None``: blocks of
  users ranked against every item by the ranking core, known items left
  out), on a random hidden-32 table. No test reads it either;
* with ``retrieve``, ``{"sizes", "full_load_ms", "point_read_ms",
  "page_ms"}``: per base size (4k, 16k and 64k nodes, one static version
  with a random hidden-32 table), the median milliseconds of one top-10
  retrieve for 20 users, through ``tests/oracles.retrieve_full_load`` (the
  whole graph and table loaded, the kept rows ranked by the full-sort
  reference) and through ``cmd_retrieve`` (one adjacency row and two table
  blocks read, the item block ranked by the ranking core with the user's
  known items left out); then of one page of 10 of those users in the
  ``resident`` benchmark's shape, from the graph and table in memory: per
  user, a gather of the items it does not know and ``cosine_topk`` on
  them. No test reads it;
* with ``epoch``, ``{"n_pairs", "wall_ms", "stage_ms"}``: one
  default-config training epoch (through ``cmd_train``) on the drift base
  ``gen_drift_stream(base_users=3000, base_items=1000, communities=8,
  p_in=0.2, users_per_batch=20)``, with its wall time and the split over
  sample, forward, negatives, loss, backward and step. No test reads it;
* with ``parse``, ``{"array", "per_row"}``: for the TSV readers' array
  path and for the per-row reader alone, the median milliseconds over five
  rounds of ``load_graph`` on that drift base (``load_graph_drift``) and on
  a planted base of the benchmark's ``resident`` size, 2,000 users and
  2,000 items (``load_graph_planted``), of ``read_increment`` of the drift
  stream's first batch onto the drift base, and of
  ``read_test_interactions`` of its 3,000-row ``base_test.tsv``. No test
  reads it.

A round times its workloads back to back, so a slow stretch of a shared
host hits all of its times alike. Each timed run follows an untimed one of
the same work, as in a resident updater whose graph stays warm in cache
(except in ``linear``, which times each run cold, as criterion 09 always
has, and whose largest runs take seconds), and, as in ``timeit``, the
garbage collector is off while timing.
"""
import contextlib
import functools
import gc
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np
import scipy.spatial

from oracles import full_lle_oracle, lle_weight_matrix, retrieve_full_load

from dhge.config import RunConfig
from dhge.evaluation import EvalProtocol, cosine_topk, evaluate_table
import dhge.graph
from dhge.fixtures import gen_drift_stream, gen_planted_bipartite, swiss_roll_points
from dhge.graph import (HeteroGraph, IncrementBatch, NodeRef, RelationSchema, load_graph,
                        read_increment)
from dhge.incremental import (UpdateConfig, _grams, _reconstruction_operator, bfs_neighbors,
                              capture_alignment, embed_increment, ille_update,
                              reconstruction_weights)
from dhge.model import EmbeddingTable, ModelConfig, ModelParams, embed_all
from dhge.pipeline import cmd_retrieve, cmd_train, read_test_interactions, write_snapshot
from dhge.snapshot import load_alignment, save_alignment


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
        updates.append(functools.partial(_update_stages, g, batch, params, table, cfg, ucfg,
                                         alignment=alignment, rng_seed=1))
    times, stages, faults = _rounds(updates, rounds)
    return {"sizes": list(sizes), "times": times, "stage_ms": stages, "minflt": faults}


def refresh_times(sizes=(4000, 16000, 64000)):
    cfg = ModelConfig(input_dim=8, hidden_dim=32, rng_seed=0)
    parts = ("embed_all", "capture_alignment", "bfs_neighbors", "reconstruction_weights",
             "spectrum")
    files = ("align_bytes", "save_alignment_ms", "load_alignment_ms")
    out = {"sizes": list(sizes), **{p: [] for p in parts + files}}
    gc.collect()
    gc.disable()
    try:
        for n in sizes:
            g = scaling_graph(n, seed=1)
            params = ModelParams(cfg, num_types=2, num_relations=2, id_capacity=max(g.counts))
            ids = np.arange(g.num_nodes)
            t = [time.perf_counter()]
            table = embed_all(g, params, cfg)
            t.append(time.perf_counter())
            alignment = capture_alignment(g, table, k=8, eps=1e-3, rng_seed=0)
            t.append(time.perf_counter())
            # capture_alignment's three stages again, one at a time, after
            # an untimed copy of the table
            y = table.dense()
            t.append(time.perf_counter())
            connected, nbrs = bfs_neighbors(g, ids, 8, 0)
            t.append(time.perf_counter())
            reconstruction_weights(y, ids[connected], nbrs, 1e-3)
            t.append(time.perf_counter())
            _grams(_reconstruction_operator(g, alignment), y)
            t.append(time.perf_counter())
            for p, dt in zip(parts, np.delete(np.diff(t), 2)):
                out[p].append(float(dt))
            with tempfile.TemporaryDirectory() as d:
                path = os.path.join(d, "v.align")
                t0 = time.perf_counter()
                save_alignment(path, alignment)
                t1 = time.perf_counter()
                load_alignment(path)
                t2 = time.perf_counter()
                out["align_bytes"].append(os.path.getsize(path))
            out["save_alignment_ms"].append((t1 - t0) * 1000.0)
            out["load_alignment_ms"].append((t2 - t1) * 1000.0)
    finally:
        gc.enable()
    return out


def evaluate_times(sizes=(4000, 16000, 64000), n_users=300, repeats=3):
    sampled = EvalProtocol(k_values=(10,), negatives_per_user=99, rng_seed=0)
    full = EvalProtocol(k_values=(10,), negatives_per_user=None)
    out = {"sizes": list(sizes), "evaluate_ms": [], "full_corpus_ms": []}
    for n in sizes:
        g = scaling_graph(n, seed=1)
        rng = np.random.default_rng(2)
        table = EmbeddingTable([rng.normal(size=(c, 32)) for c in g.counts])
        users = rng.choice(g.counts[0], size=n_users, replace=False)
        tests = [(NodeRef(0, int(u)), NodeRef(1, int(i)), 1.0)
                 for u, i in zip(users, rng.integers(0, g.counts[1], size=n_users))]
        times = _rounds([functools.partial(evaluate_table, g, table, tests, protocol, 0, 1)
                         for protocol in (sampled, full)], repeats)[0]
        out["evaluate_ms"].append(float(np.median([t[0] for t in times])) * 1000.0)
        out["full_corpus_ms"].append(float(np.median([t[1] for t in times])) * 1000.0)
    return out


def linear_times(rounds=5):
    cfg = ModelConfig(input_dim=8, hidden_dim=64, rng_seed=0)
    embed_all(scaling_graph(2000), ModelParams(cfg, 2, 2, 1000), cfg)  # warm up
    work = []
    for n in (10_000, 20_000, 40_000):
        g = scaling_graph(n)
        params = ModelParams(cfg, num_types=2, num_relations=2, id_capacity=max(g.counts))
        work.append(functools.partial(_discard, embed_all, g, params, cfg))

    # batches of doubling size against one fixed base
    cfg_u = ModelConfig(input_dim=8, hidden_dim=32, rng_seed=0)
    g = scaling_graph(4000, seed=1)
    params = ModelParams(cfg_u, num_types=2, num_relations=2, id_capacity=max(g.counts))
    table = embed_all(g, params, cfg_u)
    alignment = capture_alignment(g, table, k=8, eps=1e-3, rng_seed=0)
    ucfg = UpdateConfig(k=8, refine_steps=3)
    for n_upd in (50, 100, 200):
        rng = np.random.default_rng(n_upd)
        new_nodes, new_edges = [], []
        for j in range(n_upd):
            ref = NodeRef(0, 2000 + j)
            new_nodes.append((ref, rng.normal(size=8), np.ones(8, dtype=bool)))
            for i in rng.choice(2000, size=5, replace=False):
                new_edges.append((ref, NodeRef(1, int(i)), 0, 1e6 + j))
                new_edges.append((NodeRef(1, int(i)), ref, 1, 1e6 + j))
        batch = IncrementBatch(new_nodes=new_nodes, new_edges=new_edges, batch_time=1e6)
        work.append(functools.partial(_update_stages, g, batch, params, table, cfg_u, ucfg,
                                      alignment=alignment, rng_seed=1))

    # the reconstruction weight solve as the neighborhood grows
    rng = np.random.default_rng(0)
    for k in (4, 8, 16):
        work.append(functools.partial(_solves, rng.normal(size=16), rng.normal(size=(k, 16))))
    times = _rounds(work, rounds, warm=False)[0]
    return {"embed": [t[0:3] for t in times], "update": [t[3:6] for t in times],
            "solve": [t[6:9] for t in times]}


def retrieve_times(sizes=(4000, 16000, 64000), n_users=20, rounds=3, page=10):
    out = {"sizes": list(sizes), "full_load_ms": [], "point_read_ms": [], "page_ms": []}
    for n in sizes:
        g = scaling_graph(n, seed=1)
        rng = np.random.default_rng(2)
        table = EmbeddingTable([rng.normal(size=(c, 32)) for c in g.counts])
        model_cfg = ModelConfig(input_dim=8, hidden_dim=32, rng_seed=0)
        params = ModelParams(model_cfg, num_types=2, num_relations=2, id_capacity=max(g.counts))
        with tempfile.TemporaryDirectory() as sd:
            cfg = RunConfig.defaults(snapshot_dir=sd)
            write_snapshot(sd, "static", model_cfg, params, table, None, cfg.digest(), None, [],
                           graph=g)
            users = rng.choice(g.counts[0], size=n_users, replace=False).tolist()
            work = []
            for user in users:
                work += [functools.partial(retrieve_full_load, cfg, user),
                         functools.partial(cmd_retrieve, cfg, user)]
            work += [functools.partial(_retrieve_page, g, table, users[j:j + page])
                     for j in range(0, n_users, page)]
            times = np.asarray(_rounds(work, rounds)[0]) * 1000.0
        out["full_load_ms"].append(float(np.median(times[:, 0:2 * n_users:2])))
        out["point_read_ms"].append(float(np.median(times[:, 1:2 * n_users:2])))
        out["page_ms"].append(float(np.median(times[:, 2 * n_users:])))
    return out


def _retrieve_page(graph, table, users, k=10):
    """The ``resident`` benchmark's retrieve of a page of users from a graph
    and table in memory: per user, its known items from its adjacency row, a
    gather of every other item row and ``cosine_topk`` on the gathered rows."""
    for user in users:
        nbrs = graph.neighbors_of(NodeRef(0, user))
        mask = np.ones(table.counts[1], dtype=bool)
        mask[nbrs[nbrs >= graph.offsets[1]] - graph.offsets[1]] = False
        keep = np.flatnonzero(mask)
        cosine_topk(table.row(NodeRef(0, user)), table.blocks[1][keep], k)


def epoch_times():
    with tempfile.TemporaryDirectory() as d:
        gen_drift_stream(d, base_users=3000, base_items=1000, communities=8, p_in=0.2,
                         users_per_batch=20)
        cfg = RunConfig.defaults(snapshot_dir=os.path.join(d, "snapshots"),
                                 **{k: os.path.join(d, k + ".tsv")
                                    for k in ("edges", "features", "schema")})
        cfg.train["epochs"] = 1
        m = cmd_train(cfg)[1][0]
    return {"n_pairs": m["n_pairs"], "wall_ms": m["wall_ms"], "stage_ms": m["stage_ms"]}


def parse_times(rounds=5):
    with tempfile.TemporaryDirectory() as d:
        drift, planted = os.path.join(d, "drift"), os.path.join(d, "planted")
        gen_drift_stream(drift, base_users=3000, base_items=1000, communities=8, p_in=0.2,
                         users_per_batch=20)
        gen_planted_bipartite(planted, n_users=2000, n_items=2000, communities=16, p_in=0.048,
                              p_out=0.0008, feature_dim=16, seed=1)
        base = [os.path.join(drift, n + ".tsv") for n in ("edges", "features", "schema")]
        batch = [os.path.join(drift, "increments", "batch_000.%s.tsv" % n)
                 for n in ("edges", "features")]
        work = {"load_graph_drift": functools.partial(load_graph, *base),
                "load_graph_planted": functools.partial(
                    load_graph, *(os.path.join(planted, n + ".tsv")
                                  for n in ("edges", "features", "schema"))),
                "read_increment": functools.partial(read_increment, load_graph(*base), *batch),
                "read_test_interactions": functools.partial(
                    read_test_interactions, os.path.join(drift, "base_test.tsv"), 0, 1)}
        out = {}
        for path, readers in (("array", contextlib.nullcontext()), ("per_row", _per_row())):
            with readers:
                times = np.asarray(_rounds(list(work.values()), rounds)[0]) * 1000.0
            out[path] = dict(zip(work, np.median(times, axis=0).tolist()))
    return out


@contextlib.contextmanager
def _per_row():
    """The TSV readers with their array path switched off."""
    saved = dhge.graph._edge_array, dhge.graph._feature_array
    dhge.graph._edge_array = dhge.graph._feature_array = lambda *args: None
    try:
        yield
    finally:
        dhge.graph._edge_array, dhge.graph._feature_array = saved


def _discard(fn, *args):
    fn(*args)


def _solves(center, nbrs, repeats=2000):
    """``repeats`` solves of one neighborhood, stacked in one call."""
    k = len(nbrs)
    reconstruction_weights(np.vstack([center, nbrs]), np.zeros(repeats, dtype=np.int64),
                           np.tile(np.arange(1, k + 1), (repeats, 1)), 1e-3)


def _update_stages(*args, **kwargs):
    return ille_update(*args, **kwargs)[3]["stage_ms"]


def incremental_vs_rebuild(k=8, eps=1e-3, dim=2, n_base=300, n_new=30):
    """Criterion 05's work: 30 swiss-roll points onto a 300-point LLE base.

    Returns ``(pts, incremental_once, rebuild_once)``: the first embeds the
    new points by local reconstruction and returns the total loss, the
    second re-solves full LLE on all points and returns ``(y, lam)``.
    """
    pts, _ = swiss_roll_points(n_base + n_new, seed=5, noise=0.05)
    base_x = pts[:n_base]
    y_base, _ = full_lle_oracle(base_x, k, dim, eps)
    w_base = lle_weight_matrix(base_x, k, eps)
    r = y_base - w_base @ y_base
    base_loss = float(np.sum(r * r))

    def incremental_once():
        d_new = scipy.spatial.distance.cdist(pts[n_base:], pts)
        d_new[np.arange(n_new), np.arange(n_base, n_base + n_new)] = np.inf
        nbrs = np.empty((n_new, k), dtype=np.int64)
        for j in range(n_new):
            part = np.argpartition(d_new[j], k)[:k]
            nbrs[j] = part[np.argsort(d_new[j][part], kind="stable")]
        weights = reconstruction_weights(pts, np.arange(n_base, n_base + n_new), nbrs, eps)
        _, new_loss, _, _ = embed_increment(y_base, np.arange(n_base, n_base + n_new), nbrs,
                                            weights)
        return base_loss + new_loss

    def rebuild_once():
        return full_lle_oracle(pts, k, dim, eps)

    return pts, incremental_once, rebuild_once


def rebuild_times(rounds=15):
    _, incremental_once, rebuild_once = incremental_vs_rebuild()
    return _rounds([incremental_once, rebuild_once], rounds)[0]


def _rounds(work, rounds, warm=True):
    """Per round, the seconds, the result and the minor page faults of each
    timed call; with ``warm``, each timed call follows an untimed one."""
    times, results, faults = [], [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            row, outs, flts = [], [], []
            for fn in work:
                if warm:
                    fn()
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                outs.append(fn())
                row.append(time.perf_counter() - t0)
                flts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            times.append(row)
            results.append(outs)
            faults.append(flts)
    finally:
        gc.enable()
    return times, results, faults


if __name__ == "__main__":
    # one CPU, as bench/run.py runs: the scheduler cannot move the run
    # between cores whose speeds differ from moment to moment
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    modes = {"rebuild": rebuild_times, "refresh": refresh_times, "linear": linear_times,
             "evaluate": evaluate_times, "retrieve": retrieve_times, "epoch": epoch_times,
             "parse": parse_times}
    print(json.dumps(modes[sys.argv[1]]() if sys.argv[1:] else round_times()))
