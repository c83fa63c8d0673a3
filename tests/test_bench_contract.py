"""The names the benchmark in ``bench/`` looks up in the package still exist.

``bench/spans.py`` wraps package functions where their callers look them up,
``bench/workloads.py`` reads snapshot versions through the manifest's
file names and ``load_table``, and both it and ``bench/harness.py`` read
keys of the update report. This test imports ``bench/spans.py``,
``bench/checks.py`` and ``bench/workloads.py``, so renaming a package name
they import fails here, and changes nothing under ``bench/``.
"""
import importlib
import os
import sys
from pathlib import Path

import numpy as np

import dhge.incremental
from dhge import snapshot
from dhge.config import RunConfig
from dhge.fixtures import gen_drift_stream
from dhge.graph import IncrementBatch, NodeRef
from dhge.incremental import UpdateConfig, capture_alignment, ille_update
from dhge.model import EmbeddingTable, embed_all
from dhge.pipeline import Manifest, cmd_train, cmd_update, write_snapshot
from conftest import tiny_bipartite, tiny_params

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the update report keys bench/ reads: workloads.py after every update,
# harness.py in traced runs; a missing one fails every update operation
REPORT_KEYS = {"n_new_nodes", "n_updated", "jacobi_sweeps", "n_cold_isolated",
               "refine_step_warning", "refine_J_initial", "refine_J_final"}


def _bench_module(name):
    """``bench/<name>.py``, imported with ``bench/`` on ``sys.path`` only for
    the import (``workloads`` imports ``checks`` as a top-level module)."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_checks_and_workloads_import():
    # checks.sampled_hitrate recomputes hitrate10 with
    # derived_rng(TAG_EVALNEG, seed, type, id), so evaluation's negative
    # draws must stay on that stream
    checks = _bench_module("checks")
    workloads = _bench_module("workloads")
    assert callable(checks.sampled_hitrate) and workloads.checks is checks
    assert set(workloads.WORKLOADS) == {"stream", "resident"}


def test_every_traced_site_resolves():
    for owner, attr, _ in _bench_module("spans").SITES:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def test_incremental_stage_spans_fire_once_per_call():
    # capture and update each sample neighborhoods and solve weights once,
    # under the names bench/spans.py wraps
    g = tiny_bipartite()
    cfg, params = tiny_params(g)
    table = embed_all(g, params, cfg, version=1)
    batch = IncrementBatch(new_nodes=[(NodeRef(0, 3), np.ones(5), np.ones(5, dtype=bool))],
                           new_edges=[(NodeRef(0, 3), NodeRef(1, 1), 0, 50.0)], batch_time=50.0)
    stages = ("incremental.bfs_neighbors", "incremental.reconstruction_weights")
    recorder = _bench_module("spans").SpanRecorder()
    recorder.install()
    try:
        alignment = dhge.incremental.capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
        for name in stages:
            assert recorder.child_counts("incremental.capture_alignment", name) == (1, 1), name
        dhge.incremental.ille_update(g, batch, params, table, cfg,
                                     UpdateConfig(k=2, refine_steps=1), alignment=alignment)
        for name in stages:
            assert recorder.child_counts("incremental.ille_update", name) == (1, 1), name
    finally:
        recorder.restore()


def test_a_version_reads_back_through_the_manifest_names(tmp_path):
    assert {"model_path", "table_path", "alignment_path"} <= set(Manifest.__dataclass_fields__)
    g = tiny_bipartite()
    cfg, params = tiny_params(g)
    table = EmbeddingTable([np.full((c, 4), 0.5) for c in g.counts], version=1)
    man = write_snapshot(str(tmp_path), "static", cfg, params, table, None, "d" * 64, None, [], g)
    got = snapshot.load_table(os.path.join(str(tmp_path), man.table_path))
    assert got.counts == g.counts and got.version == 1
    assert all(np.array_equal(a, b) for a, b in zip(got.blocks, table.blocks))
    for name in (man.model_path, man.table_path, man.graph_path):
        assert os.path.isfile(os.path.join(str(tmp_path), name))


def test_update_reports_carry_the_keys_bench_reads(tmp_path):
    g = tiny_bipartite()
    cfg, params = tiny_params(g)
    table = embed_all(g, params, cfg, version=1)
    batch = IncrementBatch(new_nodes=[(NodeRef(0, 3), np.ones(5), np.ones(5, dtype=bool))],
                           new_edges=[(NodeRef(0, 3), NodeRef(1, 1), 0, 50.0)], batch_time=50.0)
    alignment = capture_alignment(g, table, k=2, eps=1e-3, rng_seed=0)
    report = ille_update(g, batch, params, table, cfg, UpdateConfig(k=2, refine_steps=1),
                         alignment=alignment)[3]
    assert REPORT_KEYS <= set(report), REPORT_KEYS - set(report)

    data = tmp_path / "data"
    stats = gen_drift_stream(data, base_users=20, base_items=12, communities=2, feature_dim=6,
                             n_batches=1, users_per_batch=4, edges_per_new_user=4, seed=5)
    run = RunConfig.from_text("[model]\nhidden_dim = 8\nneg_pool_size = 8\n"
                              "[train]\nepochs = 1\n[update]\nk = 3\nrefine_steps = 1\n")
    run.paths.update(edges=str(data / "edges.tsv"), features=str(data / "features.tsv"),
                     schema=str(data / "schema.tsv"), snapshot_dir=str(tmp_path / "snaps"))
    cmd_train(run)
    _, record = cmd_update(run, *stats["batch_files"][0])
    assert REPORT_KEYS <= set(record), REPORT_KEYS - set(record)
