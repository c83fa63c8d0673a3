"""The names the benchmark in ``bench/`` looks up in the package still exist.

``bench/spans.py`` wraps package functions where their callers look them up,
and ``bench/workloads.py`` reads snapshot versions through the manifest's
file names and ``load_table``. This test imports ``bench/spans.py``,
``bench/checks.py`` and ``bench/workloads.py``, so renaming a package name
they import fails here, and changes nothing under ``bench/``.
"""
import importlib
import os
import sys
from pathlib import Path

import numpy as np

from dhge import snapshot
from dhge.model import EmbeddingTable
from dhge.pipeline import Manifest, write_snapshot
from conftest import tiny_bipartite, tiny_params

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
