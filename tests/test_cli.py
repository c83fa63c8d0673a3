"""End-to-end command line flows driven through main()."""
import json
import os

import numpy as np
import pytest

from dhge.cli import main, _features_for
from dhge.pipeline import latest_manifest, load_snapshot_state, write_snapshot


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.strip()]
    return code, records, out.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    code = main(["gen-fixture", "drift-stream", "--out", str(data),
                 "--seed", "3", "--n-users", "20", "--n-items", "12",
                 "--communities", "2", "--n-batches", "2",
                 "--users-per-batch", "3"])
    assert code == 0
    cfg = root / "run.ini"
    cfg.write_text(
        "[paths]\n"
        "edges = %s\nfeatures = %s\nschema = %s\nsnapshot_dir = %s\n"
        "[model]\nhidden_dim = 8\nneg_pool_size = 8\n"
        "[train]\nepochs = 1\n"
        "[update]\nk = 3\nrefine_steps = 2\n"
        "[eval]\nk_values = 1, 3\nnegatives_per_user = 3\n"
        "[pipeline]\nrng_seed = 5\n"
        % (data / "edges.tsv", data / "features.tsv", data / "schema.tsv",
           root / "snaps"))
    return root, data, cfg


class TestFixtureGeneration:
    def test_gen_fixture_emits_stats_json(self, workspace, capsys, tmp_path):
        code, records, _ = run(capsys, "gen-fixture", "planted-bipartite",
                               "--out", str(tmp_path / "pb"),
                               "--n-users", "8", "--n-items", "6",
                               "--communities", "2")
        assert code == 0
        assert records[-1]["event"] == "fixture"
        assert records[-1]["n_users"] == 8
        for name in ("edges.tsv", "features.tsv", "schema.tsv", "test.tsv"):
            assert (tmp_path / "pb" / name).exists()

    def test_swiss_roll_fixture(self, capsys, tmp_path):
        code, records, _ = run(capsys, "gen-fixture", "swiss-roll",
                               "--out", str(tmp_path / "sr"), "--n-points", "40")
        assert code == 0
        assert (tmp_path / "sr" / "features.tsv").exists()


class TestCommandFlow:
    def test_train_update_evaluate_retrieve(self, workspace, capsys):
        root, data, cfg = workspace
        code, records, err = run(capsys, "train", "--config", str(cfg))
        assert code == 0
        assert records[-1] == {"event": "snapshot", "version": 1, "kind": "static"}
        assert any(r["event"] == "epoch" for r in records)
        assert "train_start" in err   # progress mirrored to stderr

        inc = data / "increments" / "batch_000.edges.tsv"
        code, records, _ = run(capsys, "update", "--config", str(cfg),
                               "--increment-edges", str(inc),
                               "--increment-features", str(_features_for(str(inc))))
        assert code == 0
        assert records[-1]["event"] == "update"
        assert records[-1]["version"] == 2
        assert records[-1]["n_new_nodes"] == 3

        code, records, _ = run(capsys, "evaluate", "--config", str(cfg),
                               "--test", str(data / "base_test.tsv"))
        assert code == 0
        rep = records[-1]
        assert rep["event"] == "evaluate"
        assert rep["table_version"] == 2
        assert set(rep["hitrate"]) == {"1", "3"}

        code, records, _ = run(capsys, "evaluate", "--config", str(cfg),
                               "--test", str(data / "base_test.tsv"),
                               "--version", "1")
        assert code == 0
        assert records[-1]["table_version"] == 1

        code, records, _ = run(capsys, "retrieve", "--config", str(cfg),
                               "--user", "0", "--k", "4")
        assert code == 0
        hits = records[-1]["results"]
        assert 0 < len(hits) <= 4
        assert all(set(h) == {"type", "id", "score"} for h in hits)

    def test_simulate_stream_discovers_features(self, workspace, capsys,
                                                tmp_path):
        # fresh lineage: the shared snapshot dir already consumed batch 0
        root, data, cfg = workspace
        snaps = str(tmp_path / "snaps")
        incs = sorted(str(p) for p in (data / "increments").glob("*.edges.tsv"))
        assert len(incs) == 2
        code, _, _ = run(capsys, "train", "--config", str(cfg),
                         "--snapshot-dir", snaps)
        assert code == 0
        code, records, _ = run(capsys, "simulate-stream", "--config", str(cfg),
                               "--snapshot-dir", snaps,
                               "--increments", *incs,
                               "--test", str(data / "test.tsv"),
                               "--compare-frozen")
        assert code == 0
        rows = [r for r in records if r.get("event") == "stream_eval"]
        assert len(rows) == 2
        assert all("frozen_eval" in r for r in rows)
        # features were found by convention, so the new users embed by
        # neighbors and features rather than failing validation
        assert all(r["update"]["n_new_nodes"] == 3 for r in rows)

    def test_features_for_convention(self, tmp_path):
        e = tmp_path / "b.edges.tsv"
        f = tmp_path / "b.features.tsv"
        e.write_text("")
        assert _features_for(str(e)) is None
        f.write_text("")
        assert _features_for(str(e)) == str(f)
        assert _features_for(str(tmp_path / "plain.tsv")) is None


class TestExitCodes:
    def test_config_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[modle]\n")
        code, _, err = run(capsys, "train", "--config", str(bad))
        assert code == 2
        assert "config error" in err

    def test_missing_paths_is_2(self, capsys):
        code, _, err = run(capsys, "train")
        assert code == 2
        assert "missing required" in err

    def test_missing_input_file_is_3(self, workspace, capsys, tmp_path):
        root, data, cfg = workspace
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--edges", str(data / "absent.tsv"),
                           "--snapshot-dir", str(tmp_path / "s"))
        assert code == 3
        assert "cannot open" in err

    def test_data_error_is_3(self, workspace, capsys, tmp_path):
        root, data, cfg = workspace
        code, _, err = run(capsys, "evaluate", "--config", str(cfg),
                           "--test", str(data / "base_test.tsv"),
                           "--snapshot-dir", str(tmp_path / "empty"))
        assert code == 3
        assert "data error" in err

    def test_seed_override_changes_digest_lineage(self, workspace, capsys,
                                                  tmp_path):
        root, data, cfg = workspace
        code, records, err = run(capsys, "train", "--config", str(cfg),
                                 "--snapshot-dir", str(tmp_path / "s"),
                                 "--seed", "99")
        assert code == 0
        code, records, err = run(capsys, "update", "--config", str(cfg),
                                 "--snapshot-dir", str(tmp_path / "s"),
                                 "--increment-edges",
                                 str(data / "increments" / "batch_000.edges.tsv"))
        assert code == 0
        # config drift (seed 5 vs 99) is a warning on stderr, not a failure
        assert "config differs" in err


@pytest.fixture(scope="module")
def trained(workspace):
    root, data, cfg = workspace
    snaps = root / "snaps_malformed"
    assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
    return data, cfg, snaps


class TestMalformedCellsExit3:
    """A bad cell is a data error naming file:line, never a traceback."""

    def _update(self, capsys, trained, tmp_path, edges, features=None):
        data, cfg, snaps = trained
        argv = ["update", "--config", str(cfg), "--snapshot-dir", str(snaps)]
        inc = tmp_path / "bad.edges.tsv"
        inc.write_text(edges)
        argv += ["--increment-edges", str(inc)]
        if features is not None:
            feats = tmp_path / "bad.features.tsv"
            feats.write_text(features)
            argv += ["--increment-features", str(feats)]
        return run(capsys, *argv)

    def test_increment_timestamp(self, trained, capsys, tmp_path):
        code, _, err = self._update(capsys, trained, tmp_path, "0\t20\t1\t4\t0\tabc\n")
        assert code == 3
        assert "bad.edges.tsv:1: bad timestamp 'abc'" in err

    def test_increment_feature_cell(self, trained, capsys, tmp_path):
        data, _, _ = trained
        dim = len((data / "features.tsv").read_text().splitlines()[0].split("\t")[2].split(","))
        row = "0\t20\t" + ",".join(["x"] + ["0.5"] * (dim - 1)) + "\n"
        code, _, err = self._update(capsys, trained, tmp_path,
                                    "0\t20\t1\t4\t0\t1.0\n", features=row)
        assert code == 3
        assert "bad.features.tsv:1: bad feature value 'x'" in err

    @pytest.mark.parametrize("row, message", [
        ("0\t20\t1\t4\t7\t1.0\n", "bad.edges.tsv:1: unknown relation id 7"),
        ("0\t20\t0\t4\t0\t1.0\n", "bad.edges.tsv:1: relation 0 endpoint type mismatch"),
    ])
    def test_increment_edge_row(self, trained, capsys, tmp_path, row, message):
        code, _, err = self._update(capsys, trained, tmp_path, row)
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    def test_test_interaction_id(self, trained, capsys, tmp_path):
        _, cfg, snaps = trained
        bad = tmp_path / "bad_test.tsv"
        bad.write_text("0\t20\t1\t10\t0\t1.0\n0\tu7\t1\t1\t0\t1.0\n")
        code, _, err = run(capsys, "evaluate", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--test", str(bad))
        assert code == 3
        assert "bad_test.tsv:2: src_id is not an integer: 'u7'" in err


class TestCorruptSnapshotExit3:
    """A corrupt or non-npz snapshot file is a data error, never a traceback."""

    @pytest.mark.parametrize("target, command", [("table", "retrieve"),
                                                 ("alignment", "update"),
                                                 ("graph", "retrieve")])
    def test_garbage_npz(self, workspace, capsys, tmp_path, target, command):
        _, data, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        man = latest_manifest(str(snaps))
        path = snaps / getattr(man, target + "_path")
        path.write_bytes(b"garbage")   # 7 bytes, neither zip nor npy
        argv = [command, "--config", str(cfg), "--snapshot-dir", str(snaps)]
        if command == "retrieve":
            argv += ["--user", "0"]
        else:
            argv += ["--increment-edges", str(data / "increments" / "batch_000.edges.tsv")]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "%s: not a readable npz file" % path.name in err

    @pytest.mark.parametrize("fault, message", [
        ("missing", "graph file lacks array 'ts_0'"),
        ("dangling", "relation 0: dangling target endpoint"),
        ("duplicate", "relation 0: duplicate edge"),
    ])
    def test_bad_graph_file(self, workspace, capsys, tmp_path, fault, message):
        _, _, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        path = snaps / latest_manifest(str(snaps)).graph_path
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        if fault == "missing":
            del payload["ts_0"]
        elif fault == "dangling":
            payload["dst_0"][0] = 10_000
        else:
            payload["src_0"][1] = payload["src_0"][0]
            payload["dst_0"][1] = payload["dst_0"][0]
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        code, _, err = run(capsys, "retrieve", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--user", "0")
        assert code == 3
        assert "%s: %s" % (path.name, message) in err
        assert "Traceback" not in err

    def test_version_without_graph_file(self, workspace, capsys, tmp_path):
        _, _, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        man = latest_manifest(str(snaps))
        model_config, params, table, alignment = load_snapshot_state(str(snaps), man)
        write_snapshot(str(snaps), "static", model_config, params, table, alignment,
                       man.config_digest, man.version, [], graph=None)
        code, _, err = run(capsys, "retrieve", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--user", "0")
        assert code == 3
        assert "snapshot version 2 stores no graph file" in err
        assert "Traceback" not in err


class TestSnapshotDirectoryOnly:
    """Every command but a first train needs only the snapshot directory."""

    def test_update_evaluate_retrieve_without_tsv_paths(self, workspace, capsys, tmp_path):
        _, data, cfg = workspace
        snaps = str(tmp_path / "snaps")
        assert main(["train", "--config", str(cfg), "--snapshot-dir", snaps]) == 0
        no_paths = tmp_path / "no_paths.ini"
        no_paths.write_text("[model]" + cfg.read_text().split("[model]", 1)[1])
        common = ["--config", str(no_paths), "--snapshot-dir", snaps]
        inc = str(data / "increments" / "batch_000.edges.tsv")
        code, records, _ = run(capsys, "update", *common, "--increment-edges", inc,
                               "--increment-features", str(_features_for(inc)))
        assert code == 0 and records[-1]["version"] == 2
        code, records, _ = run(capsys, "evaluate", *common,
                               "--test", str(data / "base_test.tsv"))
        assert code == 0 and records[-1]["table_version"] == 2
        code, records, _ = run(capsys, "retrieve", *common, "--user", "0")
        assert code == 0 and records[-1]["results"]
