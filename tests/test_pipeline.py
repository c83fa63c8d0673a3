"""Snapshot lineage, the command drivers, and crash behavior."""
import json
import os
import shutil
import stat

import numpy as np
import pytest

from dhge.config import RunConfig
from dhge.evaluation import EvalProtocol, HeldOut, evaluate_table
from dhge.fixtures import gen_drift_stream, gen_planted_bipartite
from dhge.graph import DataError, NodeRef
from dhge.pipeline import (Manifest, manifest_path, list_versions,
                           load_manifest, latest_manifest, resolve_manifest,
                           write_snapshot, load_snapshot_state, base_graph,
                           graph_for_manifest, read_test_interactions,
                           cmd_train, cmd_update, cmd_evaluate, cmd_retrieve,
                           cmd_simulate_stream)
from dhge.snapshot import SnapshotFormatError, load_alignment, load_graph_arrays, load_table
import dhge.pipeline as pipeline_mod
from oracles import assert_ranking_close, graphs_equal, replay_graph, retrieve_full_load

CFG_TEXT = """
[model]
hidden_dim = 8
degree_limit = 6
neg_pool_size = 8
batch_size = 64

[train]
epochs = 2

[update]
k = 3
refine_steps = 2

[eval]
k_values = 1, 3
negatives_per_user = 3

[pipeline]
rng_seed = 7
"""


def make_config(data_dir, snap_dir):
    cfg = RunConfig.from_text(CFG_TEXT)
    cfg.paths.update(edges=os.path.join(data_dir, "edges.tsv"),
                     features=os.path.join(data_dir, "features.tsv"),
                     schema=os.path.join(data_dir, "schema.tsv"),
                     snapshot_dir=str(snap_dir))
    return cfg


@pytest.fixture(scope="module")
def stream_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream")
    stats = gen_drift_stream(d, base_users=20, base_items=12, communities=2,
                             feature_dim=6, n_batches=2, users_per_batch=4,
                             edges_per_new_user=4, seed=5)
    return d, stats


class TestManifest:
    def _man(self):
        return Manifest(version=3, kind="incremental", created_ms=17,
                        model_path="v000003.model", table_path="v000003.table",
                        config_digest="d" * 64, alignment_path=None,
                        parent_version=2, increments=[("a.tsv", None)])

    def test_json_round_trip(self):
        man = self._man()
        again = Manifest.from_json_dict(json.loads(json.dumps(man.to_json_dict())))
        assert again == man

    def test_missing_field_rejected(self):
        data = self._man().to_json_dict()
        del data["table_path"]
        with pytest.raises(SnapshotFormatError, match="missing field"):
            Manifest.from_json_dict(data)

    def test_unknown_kind_rejected(self):
        data = self._man().to_json_dict()
        data["kind"] = "partial"
        with pytest.raises(SnapshotFormatError, match="kind"):
            Manifest.from_json_dict(data)

    def test_listing_and_resolution(self, tmp_path):
        assert list_versions(tmp_path / "nowhere") == []
        with pytest.raises(DataError, match="run train first"):
            resolve_manifest(tmp_path)
        for v in (1, 2):
            man = self._man()
            man.version = v
            blob = json.dumps(man.to_json_dict())
            (tmp_path / ("manifest-%06d.json" % v)).write_text(blob)
        assert list_versions(tmp_path) == [1, 2]
        assert latest_manifest(tmp_path).version == 2
        assert resolve_manifest(tmp_path, 1).version == 1
        with pytest.raises(DataError, match="no snapshot version 9"):
            load_manifest(tmp_path, 9)

    def test_corrupt_and_mislabeled_manifests_rejected(self, tmp_path):
        (tmp_path / "manifest-000001.json").write_text("{nope")
        with pytest.raises(SnapshotFormatError, match="corrupt"):
            load_manifest(tmp_path, 1)
        man = self._man()   # claims version 3
        (tmp_path / "manifest-000002.json").write_text(json.dumps(man.to_json_dict()))
        with pytest.raises(SnapshotFormatError, match="claims version"):
            load_manifest(tmp_path, 2)


class TestTrainUpdateLineage:
    def test_train_then_update_chain(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        man1, metrics = cmd_train(cfg)
        assert man1.version == 1
        assert man1.kind == "static"
        assert man1.parent_version is None
        assert man1.alignment_path is not None
        assert len(metrics) == 2
        assert all(np.isfinite(m["mean_loss"]) for m in metrics)

        edges0 = stats["batch_files"][0][0]
        feats0 = stats["batch_files"][0][1]
        man2, report = cmd_update(cfg, edges0, feats0)
        assert man2.version == 2
        assert man2.kind == "incremental"
        assert man2.parent_version == 1
        assert man2.increments == [(str(edges0), str(feats0))]
        assert report["n_new_nodes"] == 4

        # replayed graph for v2 has the new users; the base graph does not
        g_base = base_graph(cfg)
        g2 = graph_for_manifest(cfg, man2)
        assert g2.counts[0] == g_base.counts[0] + 4
        # and the persisted table grew to match
        _, _, table2, align2 = load_snapshot_state(cfg.paths["snapshot_dir"], man2)
        assert table2.counts == g2.counts
        assert align2 is not None

        # training again warm-starts on top of the increment history
        man3, _ = cmd_train(cfg)
        assert man3.kind == "static"
        assert man3.parent_version == 2
        assert man3.increments == man2.increments

    def test_warm_start_with_zero_epochs_keeps_weights(self, stream_data, tmp_path):
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        man1, _ = cmd_train(cfg)
        sd = cfg.paths["snapshot_dir"]
        _, params1, _, _ = load_snapshot_state(sd, man1)

        cfg.train["epochs"] = 0
        man2, metrics = cmd_train(cfg)
        assert metrics == []
        _, params2, _, _ = load_snapshot_state(sd, man2)
        for a, b in zip(params1.all_params(), params2.all_params()):
            assert np.array_equal(a.value, b.value), a.name

        cfg.train["cold_start_retrain"] = True
        man3, _ = cmd_train(cfg)
        _, params3, _, _ = load_snapshot_state(sd, man3)
        diffs = sum(not np.array_equal(a.value, b.value)
                    for a, b in zip(params1.all_params(), params3.all_params()))
        assert diffs > 0   # fresh init, not the inherited weights

    def test_config_drift_warns(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        cfg.update["alpha"] = 0.25   # behavior-affecting change
        events = []
        cmd_update(cfg, stream_data[1]["batch_files"][0][0],
                   stream_data[1]["batch_files"][0][1], log=events.append)
        assert any(e.get("event") == "warning" and "config differs" in e["message"]
                   for e in events)

    def test_crash_between_files_leaves_no_manifest(self, stream_data, tmp_path,
                                                    monkeypatch):
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        sd = cfg.paths["snapshot_dir"]
        assert list_versions(sd) == [1]

        real_save_table = pipeline_mod.save_table

        def exploding_save_table(path, table):
            real_save_table(path, table)
            raise RuntimeError("injected crash after table write")

        monkeypatch.setattr(pipeline_mod, "save_table", exploding_save_table)
        with pytest.raises(RuntimeError, match="injected"):
            cmd_train(cfg)
        # stray v2 data files may exist, but no manifest: version 2 is absent
        assert list_versions(sd) == [1]
        monkeypatch.undo()

        def exploding_save_graph(path, graph):
            with open(path, "wb") as fh:   # a torn write at the target path
                fh.write(b"DHGA")
            raise RuntimeError("injected crash during graph write")

        monkeypatch.setattr(pipeline_mod, "save_graph_arrays", exploding_save_graph)
        with pytest.raises(RuntimeError, match="injected"):
            cmd_train(cfg)
        assert list_versions(sd) == [1]
        monkeypatch.undo()

        man, _ = cmd_train(cfg)   # recovery run claims version 2 cleanly
        assert man.version == 2
        assert latest_manifest(sd).version == 2
        assert graphs_equal(graph_for_manifest(cfg, man), base_graph(cfg))


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("wall_ms", "refresh_ms", "refresh_latency_ms", "stage_ms")}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


class TestStoredGraph:
    def test_every_version_stores_the_replayed_graph(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        mans = [cmd_train(cfg)[0]]
        for edges, feats in stats["batch_files"]:
            mans.append(cmd_update(cfg, edges, feats)[0])
        mans.append(cmd_train(cfg)[0])   # warm retrain over the history
        sd = cfg.paths["snapshot_dir"]
        for man in mans:
            assert man.graph_path == "v%06d.graph" % man.version
            stored = load_graph_arrays(os.path.join(sd, man.graph_path))
            replayed = replay_graph(cfg, man)
            assert graphs_equal(stored, replayed)
            pairs = [(stored._adj_indptr, replayed._adj_indptr),
                     (stored._adj_indices, replayed._adj_indices)]
            for inc in ("_inc_src", "_inc_dst"):
                for a, b in zip(getattr(stored, inc), getattr(replayed, inc)):
                    pairs += list(zip(a, b))
            for a, b in pairs:
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert stored.counts[0] == base_graph(cfg).counts[0] + 8

    def _chain(self, data_dir, stats, snaps, after_update=None):
        """train, update, update, then every reader and a warm retrain."""
        cfg = make_config(str(data_dir), snaps)
        cfg.train["epochs"] = 1
        out = [cmd_train(cfg)[1]]
        for edges, feats in stats["batch_files"]:
            out.append(cmd_update(cfg, edges, feats)[1])
            if after_update is not None:
                after_update(edges, feats)
        out.append(cmd_retrieve(cfg, user_intra_id=21, k=5))
        out.append(cmd_evaluate(cfg, os.path.join(str(data_dir), "test.tsv"),
                                missing_users="miss").to_json_dict())
        man, metrics = cmd_train(cfg)
        out.append(metrics)
        out.append(load_table(os.path.join(cfg.paths["snapshot_dir"], man.table_path)).blocks)
        return out

    def test_commands_never_reread_increment_files(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        batches = [tuple(os.path.join(str(data), os.path.relpath(p, str(data_dir)))
                         for p in pair) for pair in stats["batch_files"]]
        local = dict(stats, batch_files=batches)
        kept = self._chain(data, local, tmp_path / "kept")

        moved = tmp_path / "moved"
        moved.mkdir()

        def move_or_delete(edges, feats):
            if edges == batches[0][0]:
                shutil.move(edges, moved / "e.tsv")
                shutil.move(feats, moved / "f.tsv")
            else:
                os.unlink(edges)
                os.unlink(feats)

        gone = self._chain(data, local, tmp_path / "gone", after_update=move_or_delete)
        assert not any(os.path.exists(p) for pair in batches for p in pair)
        for a, b in zip(kept[:-1], gone[:-1]):
            assert _strip_timing(a) == _strip_timing(b)
        for a, b in zip(kept[-1], gone[-1]):
            assert np.array_equal(a, b)

    def test_command_records_carry_stage_ms(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        # one item without edges, which the refresh leaves without a row
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        with open(data_dir / "features.tsv", "a") as f:
            f.write("1\t12\t" + ",".join(["0.5"] * 6) + "\n")
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        records = []
        cmd_train(cfg, log=records.append)
        cmd_update(cfg, *stats["batch_files"][0], log=records.append)
        cmd_evaluate(cfg, os.path.join(str(data_dir), "test.tsv"), log=records.append)
        hits = cmd_retrieve(cfg, 0, k=3, log=records.append)
        assert isinstance(hits, list) and len(hits) == 3
        stage_keys = {r["event"]: set(r["stage_ms"]) for r in records
                      if r["event"] in ("snapshot", "update", "evaluate", "retrieve")}
        assert stage_keys == {
            "snapshot": {"load_graph", "load_model", "train", "embed",
                         "capture_alignment", "snapshot"},
            "update": {"load_graph", "load_state", "read_increment", "apply", "sample",
                       "weights", "embed", "blend", "refine", "write-back", "snapshot"},
            "evaluate": {"load_graph", "load_table", "read_tests", "evaluate"},
            "retrieve": {"load_graph", "load_table", "rank"},
        }
        retrieve = records[-1]
        assert set(retrieve) == {"event", "version", "stage_ms"} and retrieve["version"] == 2
        # the refresh's health counters: rows captured, and the nodes without
        # neighbors that got none
        snap = next(r for r in records if r["event"] == "snapshot")
        sd = cfg.paths["snapshot_dir"]
        man = load_manifest(sd, 1)
        rows = load_alignment(os.path.join(sd, man.alignment_path)).rows
        graph = graph_for_manifest(cfg, man)
        degree = np.diff(graph._adj_indptr)
        assert snap["alignment_rows"] == len(rows) == graph.num_nodes - 1
        assert snap["cold_isolated"] == int((degree == 0).sum()) == 1


class TestSnapshotLock:
    def test_live_foreign_lock_blocks_writers(self, stream_data, tmp_path):
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        sd = tmp_path / "snaps"
        sd.mkdir()
        # pid 1 is always alive; a lock naming our own pid would be
        # reclaimed as stale since this process knows what it holds
        (sd / "lock").write_text("1\n")
        with pytest.raises(DataError, match="locked by running process"):
            cmd_train(cfg)
        assert (sd / "lock").exists()

    def test_stale_lock_is_reclaimed_and_released(self, stream_data, tmp_path):
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        sd = tmp_path / "snaps"
        sd.mkdir()
        (sd / "lock").write_text("999999999\n")  # no such process
        man, _ = cmd_train(cfg)
        assert man.version == 1
        assert not (sd / "lock").exists()

    def test_lock_released_after_injected_crash(self, stream_data, tmp_path,
                                                monkeypatch):
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)

        def exploding(path, table):
            raise RuntimeError("injected")

        monkeypatch.setattr(pipeline_mod, "save_table", exploding)
        with pytest.raises(RuntimeError, match="injected"):
            cmd_train(cfg)
        monkeypatch.undo()
        assert not (tmp_path / "snaps" / "lock").exists()
        man, _ = cmd_train(cfg)
        assert man.version == 2


class TestDurability:
    def test_directory_fsynced_after_state_files_and_after_manifest(self, stream_data,
                                                                    tmp_path, monkeypatch):
        """Each state file is fsynced and renamed, then the directory is
        fsynced, then the manifest is fsynced and renamed, then the
        directory again, so a version that ``write_snapshot`` returned
        survives a power loss."""
        data_dir, _ = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        events = []
        fsync, replace = os.fsync, os.replace

        def recorded_fsync(fd):
            events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        def recorded_replace(src, dst):
            events.append("rename " + os.path.basename(dst))
            replace(src, dst)
        monkeypatch.setattr(os, "fsync", recorded_fsync)
        monkeypatch.setattr(os, "replace", recorded_replace)
        cmd_train(cfg)
        state = ["v000001.%s" % ext for ext in ("model", "table", "align", "graph")]
        assert events == ([e for name in state for e in ("fsync file", "rename " + name)]
                          + ["fsync dir", "fsync file", "rename manifest-000001.json",
                             "fsync dir"])


@pytest.fixture(scope="module")
def trained(stream_data, tmp_path_factory):
    data_dir, stats = stream_data
    snaps = tmp_path_factory.mktemp("snaps")
    cfg = make_config(str(data_dir), snaps)
    cmd_train(cfg)
    return cfg, stats


class TestEvaluateRetrieve:
    def test_evaluate_reports_metrics_for_version(self, stream_data, trained):
        data_dir, stats = stream_data
        cfg, _ = trained
        rep = cmd_evaluate(cfg, os.path.join(str(data_dir), "base_test.tsv"))
        assert rep.table_version == 1
        assert set(rep.hitrate) == {1, 3}
        assert 0.0 <= rep.hitrate[3] <= 1.0
        assert rep.n_users > 0

    def test_test_file_reader_contracts(self, stream_data, tmp_path):
        data_dir, _ = stream_data
        rows = read_test_interactions(
            os.path.join(str(data_dir), "base_test.tsv"), 0, 1)
        assert all(u.node_type == 0 and i.node_type == 1 for u, i, _ in rows)
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\t0\t2\t0\t1.0\n")
        with pytest.raises(DataError, match="destination type"):
            read_test_interactions(bad, 0, 1)
        mirrors = tmp_path / "mirror.tsv"
        mirrors.write_text("1\t0\t0\t1\t1\t1.0\n")
        with pytest.raises(DataError, match="no test interactions"):
            read_test_interactions(mirrors, 0, 1)

    def test_test_file_columns_evaluate_as_their_rows(self, stream_data, trained):
        """``read_test_interactions`` returns columns; ``evaluate_table``
        reports on them exactly as on the tuple rows they iterate as, and
        columns of other types hold no row of the requested ones."""
        data_dir, _ = stream_data
        cfg, _ = trained
        held = read_test_interactions(os.path.join(str(data_dir), "base_test.tsv"), 0, 1)
        assert isinstance(held, HeldOut) and held.users.dtype == held.items.dtype == np.int64
        sd = cfg.paths["snapshot_dir"]
        man = latest_manifest(sd)
        graph, table = graph_for_manifest(cfg, man), load_table(os.path.join(sd, man.table_path))
        for proto in (cfg.protocol(), EvalProtocol(k_values=(1, 3), negatives_per_user=None)):
            for missing in ("drop", "miss"):
                reports = [evaluate_table(graph, table, tests, proto, 0, 1, missing).to_json_dict()
                           for tests in (held, list(held))]
                for report in reports:
                    report.pop("wall_ms")
                assert reports[0] == reports[1]
        for tests in (held, list(held)):
            with pytest.raises(DataError, match="no evaluable"):
                evaluate_table(graph, table, tests, cfg.protocol(), 1, 0)

    def test_retrieve_orders_and_excludes_known(self, stream_data, trained):
        cfg, _ = trained
        hits = cmd_retrieve(cfg, user_intra_id=0, k=5)
        assert 0 < len(hits) <= 5
        scores = [h["score"] for h in hits]
        assert scores == sorted(scores, reverse=True)
        assert all(h["type"] == 1 for h in hits)

        g = base_graph(cfg)
        known = {g.ref_of(int(x)).intra_id for x in g.neighbors_of(NodeRef(0, 0))
                 if g.ref_of(int(x)).node_type == 1}
        assert known.isdisjoint({h["id"] for h in hits})
        with_known = cmd_retrieve(cfg, user_intra_id=0, k=12, exclude_known=False)
        assert known <= {h["id"] for h in with_known}

    def test_retrieve_unknown_user_rejected(self, trained):
        cfg, _ = trained
        with pytest.raises(DataError):
            cmd_retrieve(cfg, user_intra_id=10_000)


def _assert_hits_close(hits, want, full=None):
    """``hits`` against ``want``, the full-load reference's, within the tie
    tolerance; ``full`` is the reference's ranking of every candidate,
    ``want`` itself by default."""
    full = want if full is None else full
    assert [h["type"] for h in hits] == [h["type"] for h in want]
    assert_ranking_close([h["id"] for h in hits], [h["score"] for h in hits],
                         [h["id"] for h in want], [h["score"] for h in want],
                         {h["id"]: h["score"] for h in full})


class TestRetrievePointRead:
    """``cmd_retrieve`` reads one adjacency row and two table blocks; its hits
    equal those of ``retrieve_full_load``, which loads the whole version,
    up to the tie tolerance."""

    def test_equals_full_load_for_every_user_and_version(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        for edges, feats in stats["batch_files"]:
            cmd_update(cfg, edges, feats)
        sd = cfg.paths["snapshot_dir"]
        assert list_versions(sd) == [1, 2, 3]
        for version in (1, 2, 3):
            man = load_manifest(sd, version)
            graph = graph_for_manifest(cfg, man)
            n_users, n_items = graph.counts
            for user in range(n_users):   # the last user row included
                n_known = int(np.count_nonzero(graph.neighbors_of(NodeRef(0, user))
                                               >= graph.offsets[1]))
                for exclude_known in (True, False):
                    full = retrieve_full_load(cfg, user, n_items, version, exclude_known)
                    # k below, and k above, the number of candidates
                    for k in (1, 5, n_items + 3):
                        args = (cfg, user, k, version, exclude_known)
                        hits = cmd_retrieve(*args)
                        _assert_hits_close(hits, retrieve_full_load(*args), full)
                    assert len(hits) == n_items - n_known * exclude_known

    def test_user_without_neighbours(self, stream_data, tmp_path):
        data_dir, _ = stream_data
        data_dir = shutil.copytree(data_dir, tmp_path / "data")
        user = 20   # the fixture's base users are 0..19: a new user with no edges
        with open(data_dir / "features.tsv", "a") as f:
            f.write("0\t%d\t" % user + ",".join(["0.5"] * 6) + "\n")
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        man, _ = cmd_train(cfg)
        graph = graph_for_manifest(cfg, man)
        assert graph.counts[0] == user + 1
        assert len(graph.neighbors_of(NodeRef(0, user))) == 0
        for exclude_known in (True, False):
            hits = cmd_retrieve(cfg, user, k=100, exclude_known=exclude_known)
            _assert_hits_close(hits, retrieve_full_load(cfg, user, 100, None, exclude_known))
            assert len(hits) == graph.counts[1]


class TestSimulateStream:
    def test_stream_rows_and_frozen_comparison(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        test_path = os.path.join(str(data_dir), "test.tsv")
        rows = cmd_simulate_stream(cfg, stats["batch_files"], test_path,
                                   compare_frozen=True)
        assert [r["batch"] for r in rows] == [0, 1]
        assert [r["version"] for r in rows] == [2, 3]
        for r in rows:
            assert r["update"]["n_new_nodes"] == 4
            assert "hitrate" in r["eval"]
            assert "hitrate" in r["frozen_eval"]
            # frozen table predates every streamed user: all misses
            assert r["frozen_eval"]["hitrate"]["3"] == 0.0
        # the updated table must serve streamed users at least as well as
        # the frozen one on the same denominator
        assert rows[-1]["eval"]["hitrate"]["3"] >= rows[-1]["frozen_eval"]["hitrate"]["3"]

    def test_update_hands_back_the_version_as_stored(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        sd = cfg.paths["snapshot_dir"]
        man, _, graph, table = pipeline_mod._update_locked(
            cfg, sd, *stats["batch_files"][0], None, lambda record: None)
        assert graphs_equal(graph, graph_for_manifest(cfg, man))
        stored = load_table(os.path.join(sd, man.table_path))
        assert (table.version, table.created_ms) == (stored.version, stored.created_ms)
        for a, b in zip(table.blocks, stored.blocks):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_stream_reads_each_graph_once_and_matches_commands(self, stream_data, tmp_path,
                                                               monkeypatch):
        data_dir, stats = stream_data
        test_path = os.path.join(str(data_dir), "test.tsv")
        cfg = make_config(str(data_dir), tmp_path / "stream")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        calls = {"load_graph_arrays": 0, "load_table": 0}

        def counted(name):
            real = getattr(pipeline_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pipeline_mod, name, counted(name))
        rows = cmd_simulate_stream(cfg, stats["batch_files"], test_path,
                                   compare_frozen=True)
        monkeypatch.undo()
        # each update reads its parent; the frozen version is read once
        assert calls == {"load_graph_arrays": 3, "load_table": 3}

        # the same stream, one command at a time, in another directory
        cfg = make_config(str(data_dir), tmp_path / "commands")
        cfg.train["epochs"] = 1
        frozen = cmd_train(cfg)[0]
        expected = []
        for j, (edges, feats) in enumerate(stats["batch_files"]):
            man, report = cmd_update(cfg, edges, feats)
            expected.append({
                "event": "stream_eval", "batch": j, "version": man.version,
                "update": {key: report[key] for key in
                           ("n_new_nodes", "n_new_edges", "n_updated",
                            "n_cold_isolated", "reconstruction_loss")},
                "eval": cmd_evaluate(cfg, test_path, missing_users="miss").to_json_dict(),
                "frozen_eval": cmd_evaluate(cfg, test_path, version=frozen.version,
                                            missing_users="miss").to_json_dict()})
        assert _strip_timing(rows) == _strip_timing(expected)

    def test_stream_evaluates_frozen_version_once(self, stream_data, tmp_path, monkeypatch):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        tables = []
        real = pipeline_mod.evaluate_table

        def counted(graph, table, *args, **kwargs):
            tables.append(table.version)
            return real(graph, table, *args, **kwargs)
        monkeypatch.setattr(pipeline_mod, "evaluate_table", counted)
        rows = cmd_simulate_stream(cfg, stats["batch_files"],
                                   os.path.join(str(data_dir), "test.tsv"),
                                   compare_frozen=True)
        assert len(stats["batch_files"]) == 2
        # the frozen version once, then each batch's own version
        assert tables == [1, 2, 3]
        assert [row["frozen_eval"] for row in rows[1:]] == [rows[0]["frozen_eval"]]
        assert rows[0]["frozen_eval"] is not rows[1]["frozen_eval"]

    def test_unknown_missing_users_mode_raises_before_any_update(self, stream_data,
                                                                 tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cmd_train(cfg)
        with pytest.raises(ValueError, match="'drop' or 'miss'"):
            cmd_simulate_stream(cfg, stats["batch_files"],
                                os.path.join(str(data_dir), "test.tsv"), missing_users="mis")
        assert list_versions(cfg.paths["snapshot_dir"]) == [1]

    def test_periodic_static_refresh(self, stream_data, tmp_path):
        data_dir, stats = stream_data
        cfg = make_config(str(data_dir), tmp_path / "snaps")
        cfg.train["epochs"] = 1
        cfg.pipeline["static_refresh_every"] = 1
        cmd_train(cfg)
        rows = cmd_simulate_stream(cfg, stats["batch_files"][:1],
                                   os.path.join(str(data_dir), "test.tsv"))
        sd = cfg.paths["snapshot_dir"]
        kinds = [load_manifest(sd, v).kind for v in list_versions(sd)]
        assert kinds == ["static", "incremental", "static"]
        assert rows[0]["version"] == 3   # eval ran against the refreshed table


class TestDeterminism:
    def test_same_seed_same_metrics_across_directories(self, stream_data,
                                                       tmp_path):
        data_dir, stats = stream_data
        reports = []
        for name in ("a", "b"):
            cfg = make_config(str(data_dir), tmp_path / name)
            cfg.train["epochs"] = 1
            cmd_train(cfg)
            cmd_update(cfg, stats["batch_files"][0][0], stats["batch_files"][0][1])
            rep = cmd_evaluate(cfg, os.path.join(str(data_dir), "test.tsv"),
                               missing_users="miss")
            d = rep.to_json_dict()
            d.pop("wall_ms")
            d.pop("refresh_latency_ms")
            reports.append(d)
        assert reports[0] == reports[1]
