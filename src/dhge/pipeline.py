"""Snapshot lineage and the train / update / evaluate / stream drivers.

A snapshot directory holds numbered versions. Each version owns a model
file, an embedding-table file, optionally an alignment file, a file with
the graph it was built on (its adjacency index included), and a manifest
JSON that names them all.
The manifest is written last, with an atomic rename, so a crash mid-save
can leave stray data files but never a manifest pointing at missing or
half-written state: a version exists if and only if its manifest parses.
Commands read a version from the snapshot directory alone; only the first
``train`` into an empty directory parses the base TSVs.
"""
from __future__ import annotations

import contextlib
import json
import os
import re
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .config import ConfigError
from .graph import DataError, load_graph, read_increment, NodeRef, _edge_columns
# not called here; bench/spans.py wraps this name, so it must resolve
from .graph import apply_increment  # noqa: F401
from .model import ModelParams, train_epoch, embed_all
from .optim import AdamW
from .incremental import capture_alignment, ille_update
from .evaluation import check_missing_users, cosine_topk, evaluate_table
from .snapshot import (save_model, load_model, save_table, load_table, save_alignment,
                       load_alignment, save_graph_arrays, load_graph_arrays, ArrayFile,
                       adjacency_row, table_shapes, stored_table,
                       SnapshotFormatError, _atomic_bytes)
from .seeding import mix
from .timing import Stages

MANIFEST_RE = re.compile(r"^manifest-(\d{6})\.json$")


@dataclass
class Manifest:
    """One snapshot version: file names plus lineage metadata."""

    version: int
    kind: str                      # "static" or "incremental"
    created_ms: int
    model_path: str
    table_path: str
    config_digest: str
    alignment_path: Optional[str] = None
    parent_version: Optional[int] = None
    # provenance only: the ordered (edges_path, features_path_or_None) pairs
    # applied since the base graph; nothing reads them back
    increments: list = field(default_factory=list)
    graph_path: Optional[str] = None

    def to_json_dict(self):
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data, source="manifest"):
        """A manifest from its JSON object, each field's type checked; a fault
        is a ``SnapshotFormatError`` that starts with ``source``."""
        if not isinstance(data, dict):
            raise SnapshotFormatError("%s: not a JSON object" % source)
        for key, (required, valid, what) in _MANIFEST_FIELDS.items():
            if key not in data and required:
                raise SnapshotFormatError("%s: manifest missing field %r" % (source, key))
            if key in data and not valid(data[key]):
                raise SnapshotFormatError("%s: field %r must be %s, got %r"
                                          % (source, key, what, data[key]))
        if data["table_path"].endswith(".npz"):
            raise SnapshotFormatError(
                "%s: snapshot version %d is stored in the .npz layout, which this release"
                " does not read; train into a new snapshot directory" % (source, data["version"]))
        fields = {key: data[key] for key in _MANIFEST_FIELDS if key in data}
        fields["increments"] = [tuple(pair) for pair in data.get("increments", [])]
        return cls(**fields)


def _is_name(value):
    """A plain file name, which joined to the snapshot directory stays in it."""
    return (isinstance(value, str) and value not in ("", ".", "..") and "\0" not in value
            and os.path.basename(value) == value)


def _is_increment(pair):
    return (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
            and (pair[1] is None or isinstance(pair[1], str)))


_NAME = "a file name inside the snapshot directory"
# field: (required, valid, what a valid value is)
_MANIFEST_FIELDS = {
    "version": (True, lambda v: type(v) is int and v >= 1, "a positive integer"),
    "kind": (True, lambda v: v in ("static", "incremental"), "static or incremental"),
    "created_ms": (True, lambda v: type(v) is int, "an integer"),
    "model_path": (True, _is_name, _NAME),
    "table_path": (True, _is_name, _NAME),
    "config_digest": (True, lambda v: isinstance(v, str), "a string"),
    "alignment_path": (False, lambda v: v is None or _is_name(v), "null or " + _NAME),
    "parent_version": (False, lambda v: v is None or type(v) is int and v >= 1,
                       "null or a positive integer"),
    "increments": (False, lambda v: isinstance(v, list) and all(map(_is_increment, v)),
                   "a list of [edges path, features path or null] pairs"),
    "graph_path": (False, lambda v: v is None or _is_name(v), "null or " + _NAME),
}


def manifest_path(snapshot_dir, version):
    return os.path.join(os.fspath(snapshot_dir), "manifest-%06d.json" % version)


LOCK_NAME = "lock"


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@contextlib.contextmanager
def snapshot_lock(snapshot_dir):
    """Advisory writer lock: one mutating command per snapshot directory.

    A pid file created with O_EXCL and removed on exit. A lock whose
    owner is gone is reclaimed, a live owner is an error.
    Read-only commands (evaluate, retrieve) never take it: they resolve a
    pinned manifest version, which a concurrent writer cannot mutate.
    """
    sd = os.fspath(snapshot_dir)
    os.makedirs(sd, exist_ok=True)
    path = os.path.join(sd, LOCK_NAME)
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    owner = int(fh.read().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and owner != os.getpid() and _pid_alive(owner):
                raise DataError("snapshot directory %s is locked by running "
                                "process %d" % (sd, owner))
            # stale lock from a dead process: reclaim it
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
    try:
        os.write(fd, ("%d\n" % os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def list_versions(snapshot_dir):
    """Sorted version numbers that have a manifest present."""
    try:
        names = os.listdir(os.fspath(snapshot_dir))
    except FileNotFoundError:
        return []
    out = []
    for name in names:
        m = MANIFEST_RE.match(name)
        if m:
            out.append(int(m.group(1)))
    return sorted(out)


def load_manifest(snapshot_dir, version):
    path = manifest_path(snapshot_dir, version)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise DataError("no snapshot version %d in %s" % (version, snapshot_dir))
    except ValueError as exc:   # not JSON, or not UTF-8
        raise SnapshotFormatError("corrupt manifest %s: %s" % (path, exc))
    man = Manifest.from_json_dict(data, path)
    if man.version != version:
        raise SnapshotFormatError("manifest %s claims version %d" % (path, man.version))
    return man


def latest_manifest(snapshot_dir):
    versions = list_versions(snapshot_dir)
    if not versions:
        return None
    return load_manifest(snapshot_dir, versions[-1])


def resolve_manifest(snapshot_dir, version=None):
    if version is not None:
        return load_manifest(snapshot_dir, version)
    man = latest_manifest(snapshot_dir)
    if man is None:
        raise DataError("no snapshots in %s; run train first" % snapshot_dir)
    return man


def write_snapshot(snapshot_dir, kind, model_config, params, table,
                   alignment, config_digest, parent_version, increments, graph=None):
    """Persist all state files, then the manifest (last, atomically).

    ``graph`` is the graph the version was built on; commands read it back
    through ``graph_for_manifest``, and ``cmd_retrieve`` reads single rows of
    the adjacency index stored with it. A version written without one cannot
    be read by a command, only by a caller that holds its graph.
    """
    sd = os.fspath(snapshot_dir)
    os.makedirs(sd, exist_ok=True)
    versions = list_versions(sd)
    version = (versions[-1] + 1) if versions else 1
    name = "v%06d.%%s" % version
    paths = {"model_path": name % "model", "table_path": name % "table",
             "alignment_path": None if alignment is None else name % "align",
             "graph_path": None if graph is None else name % "graph"}
    save_model(os.path.join(sd, paths["model_path"]), params, model_config)
    save_table(os.path.join(sd, paths["table_path"]), table)
    if alignment is not None:
        save_alignment(os.path.join(sd, paths["alignment_path"]), alignment)
    if graph is not None:
        save_graph_arrays(os.path.join(sd, paths["graph_path"]), graph)
    man = Manifest(version=version, kind=kind, created_ms=int(time.time() * 1000),
                   config_digest=config_digest, parent_version=parent_version,
                   increments=list(increments), **paths)
    blob = json.dumps(man.to_json_dict(), indent=2, sort_keys=True).encode("utf-8")
    _atomic_bytes(manifest_path(sd, version), [blob])
    return man


def load_snapshot_state(snapshot_dir, man):
    """Load (model_config, params, table, alignment_or_None) for a manifest."""
    sd = os.fspath(snapshot_dir)
    model_config, params = load_model(os.path.join(sd, man.model_path))
    table = load_table(os.path.join(sd, man.table_path))
    alignment = None
    if man.alignment_path is not None:
        path = os.path.join(sd, man.alignment_path)
        alignment = load_alignment(path)
        if alignment.lam.shape != (table.dim, table.dim):
            raise SnapshotFormatError("%s: lam has shape %s, but the table is %d wide"
                                      % (path, alignment.lam.shape, table.dim))
    return model_config, params, table, alignment


def base_graph(cfg):
    cfg.require_paths("edges", "features", "schema")
    return load_graph(cfg.paths["edges"], cfg.paths["features"], cfg.paths["schema"])


def _require_graph(man):
    if man.graph_path is None:
        raise SnapshotFormatError("snapshot version %d stores no graph file (written"
                                  " without a graph); train into a new snapshot"
                                  " directory" % man.version)


def graph_for_manifest(cfg, man):
    """The graph a version was built on, rebuilt from the version's graph file
    (``load_graph_arrays``, which also checks the stored adjacency)."""
    _require_graph(man)
    return load_graph_arrays(os.path.join(cfg.paths["snapshot_dir"], man.graph_path))


def read_test_interactions(path, user_type, item_type):
    """Load held-out (user_ref, item_ref, ts) rows from an edge-format TSV.

    Rows whose source type is not user_type are skipped (mirrored link
    rows in reused files), so a training-format file works unchanged. A
    negative node id in any row is an error.
    """
    label = os.fspath(path)
    lines, (st, si, dt, di, _, ts) = _edge_columns(label, label)
    users = st == user_type
    bad = np.flatnonzero(users & (dt != item_type))
    if len(bad):
        raise DataError("%s:%d: test row destination type %d, expected %d"
                        % (label, lines[bad[0]], dt[bad[0]], item_type))
    bad = np.flatnonzero((si < 0) | (di < 0))
    if len(bad):
        raise DataError("%s:%d: negative node id" % (label, lines[bad[0]]))
    if not users.any():
        raise DataError("%s: no test interactions for user type %d" % (path, user_type))
    return [(NodeRef(user_type, u), NodeRef(item_type, i), t)
            for u, i, t in zip(si[users].tolist(), di[users].tolist(), ts[users].tolist())]


def _check_digest(cfg, man, log):
    if man.config_digest != cfg.digest():
        log({"event": "warning",
             "message": "config differs from snapshot v%d; proceeding with"
                        " current config" % man.version})


def _null_log(_record):
    return None


def cmd_train(cfg, log=_null_log):
    """Full training run; returns (manifest, per-epoch metric dicts).

    Warm-starts from the latest snapshot's weights (including its
    increment history) unless train.cold_start_retrain is set or no
    snapshot exists yet.
    """
    cfg.require_paths("edges", "features", "schema", "snapshot_dir")
    sd = cfg.paths["snapshot_dir"]
    with snapshot_lock(sd):
        return _train_locked(cfg, sd, log)


def _train_locked(cfg, sd, log):
    parent = latest_manifest(sd)
    t0 = time.perf_counter()
    stages = Stages()
    if parent is not None:
        graph = graph_for_manifest(cfg, parent)
        increments = list(parent.increments)
    else:
        graph = base_graph(cfg)
        increments = []
    stages.lap("load_graph")
    model_config = cfg.model_config(input_dim=graph.input_dim)
    id_capacity = int(max(graph.counts)) if graph.num_nodes else 1
    seed = cfg.pipeline["rng_seed"]
    warm = parent is not None and not cfg.train["cold_start_retrain"]
    if warm:
        snap_config, params = load_model(os.path.join(sd, parent.model_path))
        if snap_config.input_dim != model_config.input_dim:
            raise DataError("snapshot input dim %d does not match data dim %d"
                            % (snap_config.input_dim, model_config.input_dim))
        _check_digest(cfg, parent, log)
        params.ensure_id_capacity(id_capacity, grow_seed=seed)
    else:
        params = ModelParams(model_config, num_types=graph.num_types,
                             num_relations=graph.schema.num_relations,
                             id_capacity=id_capacity, init_seed=seed)
    stages.lap("load_model")
    log({"event": "train_start", "warm_start": warm,
         "num_nodes": graph.num_nodes, "num_edges": graph.num_edges,
         "epochs": cfg.train["epochs"]})
    opt = AdamW(lr=cfg.train["learning_rate"],
                weight_decay=cfg.train["weight_decay"])
    metrics = []
    for epoch in range(cfg.train["epochs"]):
        m = train_epoch(graph, params, model_config, opt, epoch=epoch)
        m["event"] = "epoch"
        log(m)
        metrics.append(m)
    stages.lap("train")
    versions = list_versions(sd)
    next_version = (versions[-1] + 1) if versions else 1
    table = embed_all(graph, params, model_config, version=next_version)
    stages.lap("embed")
    alignment = None
    if cfg.pipeline["capture_alignment"] and graph.num_edges > 0:
        ucfg = cfg.update_config()
        alignment = capture_alignment(graph, table, k=ucfg.k, eps=ucfg.eps,
                                      rng_seed=seed,
                                      weight_space=ucfg.weight_space)
    stages.lap("capture_alignment")
    rows = cold = None
    if alignment is not None:
        # the capture leaves a node without neighbors without a row
        rows = len(alignment.rows)
        cold = graph.num_nodes - rows
    man = write_snapshot(sd, "static", model_config, params, table, alignment,
                         cfg.digest(),
                         parent.version if parent is not None else None,
                         increments, graph)
    stages.lap("snapshot")
    refresh_ms = (time.perf_counter() - t0) * 1000.0
    log({"event": "snapshot", "version": man.version, "kind": man.kind,
         "refresh_ms": refresh_ms, "stage_ms": stages.ms, "alignment_rows": rows,
         "cold_isolated": cold})
    return man, metrics


def cmd_update(cfg, edges_path, features_path=None, version=None, log=_null_log):
    """Apply one increment batch on top of a snapshot; returns (manifest, report)."""
    cfg.require_paths("snapshot_dir")
    sd = cfg.paths["snapshot_dir"]
    with snapshot_lock(sd):
        man, report, _, _ = _update_locked(cfg, sd, edges_path, features_path, version, log)
    return man, report


def _update_locked(cfg, sd, edges_path, features_path, version, log):
    """``cmd_update`` under the lock; also returns the new version's graph and
    table, the table as readers of the version see it."""
    stages = Stages()
    parent = resolve_manifest(sd, version)
    _check_digest(cfg, parent, log)
    graph = graph_for_manifest(cfg, parent)
    stages.lap("load_graph")
    model_config, params, table, alignment = load_snapshot_state(sd, parent)
    stages.lap("load_state")
    batch = read_increment(graph, edges_path, features_path)
    stages.lap("read_increment")
    seed = mix(cfg.pipeline["rng_seed"], parent.version)
    graph2, params2, table2, report, alignment2 = ille_update(
        graph, batch, params, table, model_config, cfg.update_config(),
        alignment=alignment, rng_seed=seed)
    stages.skip()   # report["stage_ms"] already splits the update itself
    increments = list(parent.increments)
    increments.append((os.fspath(edges_path),
                       os.fspath(features_path) if features_path else None))
    man = write_snapshot(sd, "incremental", model_config, params2, table2,
                         alignment2, cfg.digest(), parent.version, increments, graph2)
    stages.lap("snapshot")
    report["stage_ms"].update(stages.ms)
    report["event"] = "update"
    report["version"] = man.version
    log(report)
    return man, report, graph2, stored_table(table2)


def cmd_evaluate(cfg, test_path, version=None, missing_users="drop", log=_null_log):
    """Rank held-out interactions against a snapshot's embedding table."""
    cfg.require_paths("snapshot_dir")
    sd = cfg.paths["snapshot_dir"]
    stages = Stages()
    man = resolve_manifest(sd, version)
    graph = graph_for_manifest(cfg, man)
    stages.lap("load_graph")
    table = load_table(os.path.join(sd, man.table_path))
    stages.lap("load_table")
    user_type = cfg.eval["user_type"]
    item_type = cfg.eval["item_type"]
    tests = read_test_interactions(test_path, user_type, item_type)
    stages.lap("read_tests")
    report = evaluate_table(graph, table, tests, cfg.protocol(),
                            user_type=user_type, item_type=item_type,
                            missing_users=missing_users)
    stages.lap("evaluate")
    out = report.to_json_dict()
    out["stage_ms"] = stages.ms
    out["event"] = "evaluate"
    out["version"] = man.version
    log(out)
    return report


def cmd_retrieve(cfg, user_intra_id, k=10, version=None, exclude_known=True,
                 log=_null_log):
    """Top-k items for one user from a snapshot's table.

    Returns a list of {type, id, score} dicts, best first, and logs a
    ``retrieve`` record with the version and ``stage_ms``.

    It builds no graph. It maps the graph file and reads the user's row of
    the stored adjacency (``load_graph``), then maps the table file and
    widens only the user row and the kept item rows (``load_table``). Every
    array it reads has its CRC-32 checked and is range-checked.
    """
    if k < 1:
        raise ConfigError("retrieve k must be >= 1, got %d" % k)
    cfg.require_paths("snapshot_dir")
    sd = cfg.paths["snapshot_dir"]
    stages = Stages()
    man = resolve_manifest(sd, version)
    _require_graph(man)
    graph_file = ArrayFile(os.path.join(sd, man.graph_path), "graph")
    counts = [shape[0] for shape in graph_file.shapes("features_", "<f8", 2)]
    user_type = cfg.eval["user_type"]
    item_type = cfg.eval["item_type"]
    for key, t in (("user_type", user_type), ("item_type", item_type)):
        if not 0 <= t < len(counts):
            raise DataError("eval.%s %d is not a node type of snapshot version %d"
                            " (%d types)" % (key, t, man.version, len(counts)))
    user = int(user_intra_id)
    if not 0 <= user < counts[user_type]:
        raise DataError("intra id %d out of range for type %d (count %d)"
                        % (user, user_type, counts[user_type]))
    nbrs = adjacency_row(graph_file, sum(counts[:user_type]) + user, sum(counts))
    stages.lap("load_graph")
    table_file = ArrayFile(os.path.join(sd, man.table_path), "table")
    table_shapes(table_file)
    user_rows = table_file.array("block_%d" % user_type, "<f4", 2)
    item_rows = table_file.array("block_%d" % item_type, "<f4", 2)
    if user >= len(user_rows):
        raise DataError("user %d not present in the table of snapshot version %d"
                        % (user, man.version))
    stages.lap("load_table")
    n_items = min(counts[item_type], len(item_rows))
    keep = np.ones(n_items, dtype=bool)
    if exclude_known:
        lo = sum(counts[:item_type])
        known = nbrs[(nbrs >= lo) & (nbrs < lo + counts[item_type])] - lo
        keep[known[known < n_items]] = False
    keep = np.flatnonzero(keep)
    hits = []
    if keep.size:
        order, scores = cosine_topk(user_rows[user].astype(np.float64),
                                    item_rows[keep].astype(np.float64), min(k, keep.size))
        hits = [{"type": item_type, "id": int(keep[j]), "score": float(s)}
                for j, s in zip(order, scores)]
    stages.lap("rank")
    log({"event": "retrieve", "version": man.version, "stage_ms": stages.ms})
    return hits


def cmd_simulate_stream(cfg, batches, test_path, compare_frozen=False,
                        missing_users="miss", log=_null_log):
    """Replay increment batches: update, then evaluate after each batch.

    batches: ordered (edges_path, features_path_or_None) pairs. When
    compare_frozen is set, each row also carries the pre-stream snapshot's
    evaluation so staleness is measurable; that snapshot and the tests do
    not change during the stream, so it is evaluated once. Uses
    missing_users="miss" by default: users absent from a table count as
    misses, which keeps the frozen and updated scores on the same
    denominator.
    """
    check_missing_users(missing_users)   # before any batch writes a version
    cfg.require_paths("snapshot_dir")
    sd = cfg.paths["snapshot_dir"]
    with snapshot_lock(sd):
        return _stream_locked(cfg, sd, batches, test_path, compare_frozen,
                              missing_users, log)


def _stream_locked(cfg, sd, batches, test_path, compare_frozen, missing_users, log):
    frozen = resolve_manifest(sd, None)
    user_type = cfg.eval["user_type"]
    item_type = cfg.eval["item_type"]
    tests = read_test_interactions(test_path, user_type, item_type)

    def evaluate(graph, table):
        return evaluate_table(graph, table, tests, cfg.protocol(),
                              user_type=user_type, item_type=item_type,
                              missing_users=missing_users)

    if compare_frozen:
        frozen_eval = evaluate(graph_for_manifest(cfg, frozen),
                               load_table(os.path.join(sd, frozen.table_path)))
    refresh_every = cfg.pipeline["static_refresh_every"]
    rows = []
    for j, (edges_path, features_path) in enumerate(batches):
        man, report, graph, table = _update_locked(cfg, sd, edges_path, features_path,
                                                   None, log)
        if refresh_every and (j + 1) % refresh_every == 0:
            # a retrain keeps the graph it reads, which is the update's
            man, _ = _train_locked(cfg, sd, log)
            table = load_table(os.path.join(sd, man.table_path))
        row = {"event": "stream_eval", "batch": j, "version": man.version,
               "update": {key: report[key] for key in
                          ("n_new_nodes", "n_new_edges", "n_updated",
                           "n_cold_isolated", "reconstruction_loss", "wall_ms")},
               "eval": evaluate(graph, table).to_json_dict()}
        if compare_frozen:
            row["frozen_eval"] = frozen_eval.to_json_dict()
        log(row)
        rows.append(row)
    return rows
