"""The benchmark's two workloads: set-up, one timed episode, checks.

Every workload runs the same four kinds of timed operation (update,
retrieve, evaluate, retrain), because every end-to-end metric is reported on
every workload; what differs is which layers carry the time:

* ``stream``: the command-line drivers in ``dhge.pipeline`` over a drift
  stream. Every call re-parses the base TSVs and replays the increment
  history, so replay, snapshot loads and evaluation dominate; the warm
  ``cmd_train`` that ends each episode is where sampling, the encoder
  branches, ``backward`` and the optimiser run.
* ``resident``: the library path on a large base graph held in memory:
  ``ille_update`` plus ``write_snapshot`` per batch, no TSV parse, no
  replay, batches with new items so the Jacobi sweeps run. Its refresh
  re-embeds and re-captures the alignment with untrained weights; update
  cost does not depend on the weight values.

An episode starts from the same state each time (a copy of the base
snapshot, or the base graph in memory), so its operations and outputs
repeat exactly; a run repeats episodes until its time is up.
"""
from __future__ import annotations

import os
import shutil
import time

import numpy as np

import dhge.evaluation
import dhge.incremental
import dhge.model
import dhge.pipeline
from dhge.config import RunConfig
from dhge.evaluation import EvalProtocol
from dhge.fixtures import gen_drift_stream, gen_planted_bipartite
from dhge.graph import IncrementBatch, NodeRef, load_graph
from dhge.incremental import UpdateConfig
from dhge.model import ModelConfig, ModelParams
from dhge.seeding import mix
from dhge.snapshot import load_table

import checks

USER, ITEM = 0, 1
TOP_K = 10
NEGATIVES = 99

# Sizes chosen so an episode takes 6-11 s on 2 cores and a 45 s run fits
# four to eight of them. A run counts whole episodes only: on the replaying
# path latencies grow with the batch position, and every position must
# weigh the same in a run's quantiles.
SIZES = {
    "stream": dict(base_users=600, base_items=200, communities=8, p_in=0.2,
                   p_out=0.002, batches=5, users_per_batch=20,
                   edges_per_new_user=10, epochs=1, retrieves_per_batch=2),
    "resident": dict(base_users=2000, base_items=2000, communities=16,
                     p_in=0.048, p_out=0.0008, batches=6, users_per_batch=20,
                     items_per_batch=4, edges_per_new_user=8,
                     pages_per_batch=4, page_size=10, base_tests=300,
                     evaluate_every=2, refresh_every=3),
}
TINY = {
    "stream": dict(SIZES["stream"], base_users=60, base_items=120, communities=4,
                   p_in=0.5, batches=2, users_per_batch=5, edges_per_new_user=4),
    "resident": dict(SIZES["resident"], base_users=200, base_items=200,
                     communities=4, p_in=0.1, p_out=0.005, batches=2,
                     users_per_batch=6, items_per_batch=2, page_size=2,
                     base_tests=40, evaluate_every=1, refresh_every=1),
}


class EpisodeFailed(Exception):
    """An operation raised; the rest of the episode is skipped."""


class Ledger:
    """Timed samples, attempted / failed operations and layer counters."""

    def __init__(self):
        self.samples = {"update": [], "retrieve": [], "evaluate": [], "retrain": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.epoch_s = []
        self.hitrate = []       # hitrate@10 at each episode's final version
        self.reports = []       # update reports from ille_update
        self.train_runs = []    # cmd_train per-epoch metric lists
        self.version_bytes = []
        self.recorder = None    # SpanRecorder during a traced episode
        self.outputs = []       # the current episode's checked outputs
        self.ops_per_episode = 0
        self.episodes = 0
        self.digest = None      # sha256 of the first episode's outputs

    def timed(self, kind, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.recorder is None:
                out = fn(*args, **kwargs)
            else:
                with self.recorder.span("op." + kind):
                    out = fn(*args, **kwargs)
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append("%s raised %s: %s" % (kind, type(exc).__name__, exc))
            raise EpisodeFailed from exc
        self.samples[kind].append(time.perf_counter() - t0)
        return out

    def verify(self, kind, problems):
        """Count the operation just timed as failed if any check failed."""
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (kind, p) for p in problems)


def _run_config(data, snap, seed, epochs):
    text = "\n".join([
        "[paths]",
        "edges = %s" % os.path.join(data, "edges.tsv"),
        "features = %s" % os.path.join(data, "features.tsv"),
        "schema = %s" % os.path.join(data, "schema.tsv"),
        "snapshot_dir = %s" % snap,
        "[train]", "epochs = %d" % epochs,
        "[eval]", "k_values = %d" % TOP_K, "negatives_per_user = %d" % NEGATIVES,
        "[pipeline]", "rng_seed = %d" % seed, ""])
    return RunConfig.from_text(text, source="bench")


def _version_bytes(snap, man):
    names = [man.model_path, man.table_path, man.alignment_path,
             os.path.basename(dhge.pipeline.manifest_path(snap, man.version))]
    return sum(os.path.getsize(os.path.join(snap, n)) for n in names if n)


# ---------------------------------------------------------------------------
# stream: the command-line drivers over a drift stream


class StreamWorkload:
    """Drift-stream data on disk, served through the ``cmd_*`` drivers."""

    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.episodes = 0

    def setup(self, tag):
        """Generate the data set and train the base snapshot."""
        s = self.sizes
        data = os.path.join(self.workdir, "setup%d" % tag)
        stats = gen_drift_stream(
            data, base_users=s["base_users"], base_items=s["base_items"],
            communities=s["communities"], p_in=s["p_in"], p_out=s["p_out"],
            n_batches=s["batches"], users_per_batch=s["users_per_batch"],
            edges_per_new_user=s["edges_per_new_user"], seed=self.seed)
        base_snap = os.path.join(data, "base_snapshot")
        dhge.pipeline.cmd_train(_run_config(data, base_snap, self.seed, s["epochs"]))
        self.data, self.stats, self.base_snap = data, stats, base_snap

    def prepare(self):
        """Outside set-up timing: the checks' own records of the data set."""
        s = self.sizes
        self.known = {}
        checks.add_clicks(self.known, checks.read_edges(os.path.join(self.data, "edges.tsv")))
        for edges_path, _ in self.stats["batch_files"]:
            checks.add_clicks(self.known, checks.read_edges(edges_path))
        # base and stream holdouts together, so hitrate10 rests on every user
        self.test_path = os.path.join(self.data, "all_test.tsv")
        with open(self.test_path, "w", encoding="utf-8") as out:
            for part in ("base_test.tsv", "test.tsv"):
                with open(os.path.join(self.data, part), encoding="utf-8") as fh:
                    out.write(fh.read())
        self.tests = checks.read_tests(self.test_path)
        rng = np.random.default_rng(mix(self.seed, 1))
        per = s["retrieves_per_batch"]
        self.queries = []
        for j in range(s["batches"]):
            lo = s["base_users"] + j * s["users_per_batch"]
            fresh = rng.choice(np.arange(lo, lo + s["users_per_batch"]), per // 2, replace=False)
            old = rng.choice(s["base_users"], per - per // 2, replace=False)
            self.queries.append([int(u) for u in np.concatenate([fresh, old])])

    def episode(self, ledger):
        s = self.sizes
        snap = os.path.join(self.workdir, "episode%d" % self.episodes)
        self.episodes += 1
        shutil.copytree(self.base_snap, snap)
        cfg = _run_config(self.data, snap, self.seed, s["epochs"])
        state = {"users": s["base_users"], "version": 1}
        try:
            for j, (edges_path, features_path) in enumerate(self.stats["batch_files"]):
                self._update(ledger, cfg, snap, state, edges_path, features_path)
                for user in self.queries[j]:
                    self._retrieve(ledger, cfg, snap, state, user)
            # the streamed version, then the periodic retrain and the
            # retrained version: both evaluations replay the same history
            self._evaluate(ledger, cfg, state)
            self._retrain(ledger, cfg, snap, state)
            self._evaluate(ledger, cfg, state, final=True)
        finally:
            shutil.rmtree(snap, ignore_errors=True)

    def _expect_version(self, ledger, kind, man, state):
        state["version"] += 1
        ledger.outputs.append([kind, man.version])
        if man.version != state["version"]:
            return ["manifest version %d, expected %d" % (man.version, state["version"])]
        return []

    def _retrain(self, ledger, cfg, snap, state):
        man, metrics = ledger.timed("retrain", dhge.pipeline.cmd_train, cfg)
        problems = self._expect_version(ledger, "retrain", man, state)
        losses = [m["mean_loss"] for m in metrics]
        if not losses or not np.all(np.isfinite(losses)):
            problems.append("training losses %s" % losses)
        table = load_table(os.path.join(snap, man.table_path))
        problems += checks.table_problems(table, [state["users"], self.sizes["base_items"]])
        ledger.verify("retrain", problems)
        if ledger.recorder is None:   # traced epochs carry the wrappers' cost
            ledger.epoch_s.extend(m["wall_ms"] / 1000.0 for m in metrics)
        ledger.train_runs.append(metrics)
        ledger.version_bytes.append(_version_bytes(snap, man))

    def _update(self, ledger, cfg, snap, state, edges_path, features_path):
        man, report = ledger.timed("update", dhge.pipeline.cmd_update, cfg,
                                   edges_path, features_path)
        state["users"] += self.sizes["users_per_batch"]
        problems = self._expect_version(ledger, "update", man, state)
        if report["n_new_nodes"] != self.sizes["users_per_batch"]:
            problems.append("n_new_nodes %d, batch has %d"
                            % (report["n_new_nodes"], self.sizes["users_per_batch"]))
        table = load_table(os.path.join(snap, man.table_path))
        problems += checks.table_problems(table, [state["users"], self.sizes["base_items"]])
        ledger.verify("update", problems)
        ledger.reports.append(report)
        ledger.version_bytes.append(_version_bytes(snap, man))
        ledger.outputs.append([report["n_updated"], report["jacobi_sweeps"]])

    def _retrieve(self, ledger, cfg, snap, state, user):
        version = state["version"]
        result = ledger.timed("retrieve", dhge.pipeline.cmd_retrieve, cfg, user,
                              k=TOP_K, version=version)
        man = dhge.pipeline.load_manifest(snap, version)
        table = load_table(os.path.join(snap, man.table_path))
        ledger.verify("retrieve", checks.retrieve_problems(
            result, table.blocks[USER][user], table.blocks[ITEM],
            self.known.get(user, set()), TOP_K))
        ledger.outputs.append([user] + [r["id"] for r in result])

    def _evaluate(self, ledger, cfg, state, final=False):
        version = state["version"]
        report = ledger.timed("evaluate", dhge.pipeline.cmd_evaluate, cfg,
                              self.test_path, version=version)
        snap = cfg.paths["snapshot_dir"]
        man = dhge.pipeline.load_manifest(snap, version)
        table = load_table(os.path.join(snap, man.table_path))
        want = checks.sampled_hitrate(table.blocks[USER], table.blocks[ITEM], self.known,
                                      self.tests, cfg.pipeline["rng_seed"], NEGATIVES, TOP_K)
        got = report.hitrate[TOP_K]
        ledger.verify("evaluate", [] if got == want else
                      ["hitrate@%d %r, recomputed %r" % (TOP_K, got, want)])
        if final:
            ledger.hitrate.append(got)
        ledger.outputs.append(["hitrate", got])


# ---------------------------------------------------------------------------
# resident: the library path on a large graph held in memory


def make_batches(seed, counts, communities, feature_dim, sizes):
    """Increment batches of new users and new items, seeded by ``seed``.

    New user ``b`` of a batch belongs to a random community and clicks
    in-community existing items; the batch's first ``items_per_batch`` users
    each bring a new item of their community, which every same-community
    user of the batch also clicks, so new placements reference each other
    and the Jacobi sweeps run. Each new user holds out one more
    in-community existing item for evaluation.
    Returns a list of (IncrementBatch, holdouts, clicks) per batch.
    """
    rng = np.random.default_rng(mix(seed, 2))
    n_users, n_items = counts
    base_items = n_items
    out = []
    for j in range(sizes["batches"]):
        ts = 3_000_000.0 + 10_000.0 * j
        comms = rng.integers(communities, size=sizes["users_per_batch"])
        new_items = {}
        nodes, edges, holdouts, clicks = [], [], [], []
        for b in range(min(sizes["items_per_batch"], len(comms))):
            item = n_items + b
            new_items.setdefault(int(comms[b]), []).append(item)
            nodes.append((NodeRef(ITEM, item), *_features(rng, comms[b], feature_dim)))
        n_items += len(nodes)
        for b, comm in enumerate(comms):
            user = n_users + b
            nodes.append((NodeRef(USER, user), *_features(rng, comm, feature_dim)))
            pool = np.arange(comm, base_items, communities)
            picked = rng.choice(pool, size=sizes["edges_per_new_user"] + 1, replace=False)
            items = [int(i) for i in picked[:-1]] + new_items.get(int(comm), [])
            for i in items:
                edges.append((NodeRef(USER, user), NodeRef(ITEM, i), 0, ts))
                edges.append((NodeRef(ITEM, i), NodeRef(USER, user), 1, ts))
            clicks.append((user, items))
            holdouts.append((NodeRef(USER, user), NodeRef(ITEM, int(picked[-1])), ts + 1.0))
        n_users += len(comms)
        out.append((IncrementBatch(new_nodes=nodes, new_edges=edges, batch_time=ts),
                    holdouts, clicks))
    return out


def _features(rng, comm, dim):
    values = rng.normal(0.0, 0.1, size=dim)
    values[int(comm)] += 1.0
    return values, rng.random(dim) >= 0.05


class ResidentWorkload:
    def __init__(self, sizes, seed, workdir):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.episodes = 0

    def setup(self, tag):
        """Generate the base graph, load it once, initialise the weights."""
        s = self.sizes
        data = os.path.join(self.workdir, "setup%d" % tag)
        gen_planted_bipartite(data, n_users=s["base_users"], n_items=s["base_items"],
                              communities=s["communities"], p_in=s["p_in"],
                              p_out=s["p_out"], feature_dim=max(12, s["communities"]),
                              seed=self.seed)
        graph = load_graph(os.path.join(data, "edges.tsv"),
                           os.path.join(data, "features.tsv"),
                           os.path.join(data, "schema.tsv"))
        self.model_config = ModelConfig(input_dim=graph.input_dim, rng_seed=self.seed)
        self.params = ModelParams(self.model_config, graph.num_types,
                                  graph.schema.num_relations,
                                  id_capacity=max(graph.counts), init_seed=self.seed)
        self.data, self.graph = data, graph

    def prepare(self):
        s = self.sizes
        self.update_config = UpdateConfig()
        self.protocol = EvalProtocol(k_values=(TOP_K,), negatives_per_user=NEGATIVES,
                                     rng_seed=self.seed)
        self.batches = make_batches(self.seed, self.graph.counts, s["communities"],
                                    self.graph.input_dim, s)
        self.known = {}
        checks.add_clicks(self.known, checks.read_edges(os.path.join(self.data, "edges.tsv")))
        for _, _, clicks in self.batches:
            for user, items in clicks:
                self.known.setdefault(user, set()).update(items)
        rng = np.random.default_rng(mix(self.seed, 3))
        tests = checks.read_tests(os.path.join(self.data, "test.tsv"))
        sample = rng.choice(len(tests), size=min(s["base_tests"], len(tests)), replace=False)
        self.base_tests = [(NodeRef(USER, tests[k][0]), NodeRef(ITEM, tests[k][1]), tests[k][2])
                           for k in np.sort(sample)]
        # each retrieve serves a page of users: half new users of the batch,
        # half base users; a single in-memory top-k takes about 2 ms, short
        # enough that scheduler noise would swamp its tail
        pages, size = s["pages_per_batch"], s["page_size"]
        self.queries = []
        for _, _, clicks in self.batches:
            fresh = rng.choice([u for u, _ in clicks], pages // 2 * size, replace=False)
            old = rng.choice(s["base_users"], (pages - pages // 2) * size, replace=False)
            users = [int(u) for u in np.concatenate([fresh, old])]
            self.queries.append([users[k:k + size] for k in range(0, len(users), size)])

    def episode(self, ledger):
        snap = os.path.join(self.workdir, "episode%d" % self.episodes)
        self.episodes += 1
        digest = "resident-%d" % self.seed
        graph, params = self.graph, self.params
        tests = list(self.base_tests)
        try:
            table, alignment, version = self._refresh(ledger, snap, graph, params, digest, 0)
            for j, (batch, holdouts, _) in enumerate(self.batches):
                graph, params, table, alignment, version = self._update(
                    ledger, snap, graph, params, table, alignment, version, batch, digest)
                for page in self.queries[j]:
                    self._retrieve(ledger, graph, table, page)
                tests.extend(holdouts)
                if (j + 1) % self.sizes["evaluate_every"] == 0:
                    self._evaluate(ledger, graph, table, tests,
                                   final=j + 1 == len(self.batches))
                # the periodic refresh again, of the grown graph, midway so
                # that refreshes are spread evenly over the run's time
                if (j + 1) % self.sizes["refresh_every"] == 0 and j + 1 < len(self.batches):
                    table, alignment, version = self._refresh(ledger, snap, graph, params,
                                                              digest, version)
        finally:
            shutil.rmtree(snap, ignore_errors=True)

    def _refresh(self, ledger, snap, graph, params, digest, parent):
        u = self.update_config

        def refresh():
            table = dhge.model.embed_all(graph, params, self.model_config, version=parent + 1)
            alignment = dhge.incremental.capture_alignment(
                graph, table, k=u.k, eps=u.eps, rng_seed=self.seed, weight_space=u.weight_space)
            man = dhge.pipeline.write_snapshot(snap, "static", self.model_config, params,
                                               table, alignment, digest, parent or None, [])
            return table, alignment, man

        table, alignment, man = ledger.timed("retrain", refresh)
        problems = checks.table_problems(table, graph.counts)
        if man.version != parent + 1:
            problems.append("manifest version %d, expected %d" % (man.version, parent + 1))
        ledger.verify("retrain", problems)
        ledger.version_bytes.append(_version_bytes(snap, man))
        ledger.outputs.append(["retrain", man.version])
        return table, alignment, man.version

    def _update(self, ledger, snap, graph, params, table, alignment, version, batch, digest):
        def absorb():
            out = dhge.incremental.ille_update(
                graph, batch, params, table, self.model_config, self.update_config,
                alignment=alignment, rng_seed=mix(self.seed, version))
            graph2, params2, table2, report, alignment2 = out
            man = dhge.pipeline.write_snapshot(snap, "incremental", self.model_config,
                                               params2, table2, alignment2, digest,
                                               version, [])
            return graph2, params2, table2, report, alignment2, man

        graph2, params2, table2, report, alignment2, man = ledger.timed("update", absorb)
        problems = checks.table_problems(table2, graph2.counts)
        if report["n_new_nodes"] != len(batch.new_nodes):
            problems.append("n_new_nodes %d, batch has %d"
                            % (report["n_new_nodes"], len(batch.new_nodes)))
        if man.version != version + 1:
            problems.append("manifest version %d, expected %d" % (man.version, version + 1))
        ledger.verify("update", problems)
        ledger.reports.append(report)
        ledger.version_bytes.append(_version_bytes(snap, man))
        ledger.outputs.append([man.version, report["n_updated"], report["jacobi_sweeps"]])
        return graph2, params2, table2, alignment2, man.version

    def _retrieve(self, ledger, graph, table, page):
        def top_k(user):
            ref = NodeRef(USER, user)
            known = [graph.ref_of(int(g)) for g in graph.neighbors_of(graph.global_index(ref))]
            mask = np.ones(table.counts[ITEM], dtype=bool)
            mask[[r.intra_id for r in known if r.node_type == ITEM]] = False
            keep = np.flatnonzero(mask)
            order, scores = dhge.evaluation.cosine_topk(
                table.row(ref), table.blocks[ITEM][keep], TOP_K)
            return [{"type": ITEM, "id": int(keep[j]), "score": float(sc)}
                    for j, sc in zip(order, scores)]

        results = ledger.timed("retrieve", lambda: [top_k(user) for user in page])
        problems = []
        for user, result in zip(page, results):
            problems += checks.retrieve_problems(
                result, table.blocks[USER][user], table.blocks[ITEM],
                self.known.get(user, set()), TOP_K)
            ledger.outputs.append([user] + [r["id"] for r in result])
        ledger.verify("retrieve", problems)

    def _evaluate(self, ledger, graph, table, tests, final=False):
        report = ledger.timed("evaluate", dhge.evaluation.evaluate_table, graph, table,
                              tests, self.protocol, user_type=USER, item_type=ITEM)
        plain = [(u.intra_id, i.intra_id, ts) for u, i, ts in tests]
        want = checks.sampled_hitrate(table.blocks[USER], table.blocks[ITEM], self.known,
                                      plain, self.seed, NEGATIVES, TOP_K)
        got = report.hitrate[TOP_K]
        ledger.verify("evaluate", [] if got == want else
                      ["hitrate@%d %r, recomputed %r" % (TOP_K, got, want)])
        if final:
            ledger.hitrate.append(got)
        ledger.outputs.append(["hitrate", got])


WORKLOADS = {"stream": StreamWorkload, "resident": ResidentWorkload}
