"""End-to-end command line flows driven through main()."""
import json
import os
import shutil
import time

import numpy as np
import pytest

from dhge.cli import main, _features_for
from dhge.pipeline import (latest_manifest, load_manifest, load_snapshot_state, manifest_path,
                           write_snapshot)
from dhge.snapshot import ArrayFile, load_model, save_arrays, save_model
from dhge.tensor import Param
from conftest import edit_header, old_layout_alignment, payload_start, stored_arrays


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
        for version in (1, 2):   # one format: every file a version names is an array file
            man = load_manifest(str(root / "snaps"), version)
            for field in ("model_path", "table_path", "alignment_path", "graph_path"):
                ArrayFile(root / "snaps" / getattr(man, field), field)

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

    def test_non_utf8_config_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[train]\nepochs = 1 # \xe9t\xe9\n")
        code, _, err = run(capsys, "train", "--config", str(bad))
        assert code == 2
        assert "bad.ini:2: not UTF-8 text: byte 0xe9" in err
        assert "Traceback" not in err

    def test_out_of_range_eval_key_is_2(self, workspace, capsys, tmp_path):
        root, data, cfg = workspace
        bad = tmp_path / "bad.ini"
        bad.write_text(cfg.read_text().replace("k_values = 1, 3", "k_values = 0"))
        code, _, err = run(capsys, "evaluate", "--config", str(bad),
                           "--test", str(data / "base_test.tsv"))
        assert code == 2
        assert "config error" in err and "k_values" in err
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("edges, features, message", [
        ("0\t20\t1\t4\t0\t1.0\n", "0\t-2\t{cells}\n",
         "bad.features.tsv:1: negative node id (0, -2)"),
        ("0\t20\t1\t4\t0\t1.0\n", "0\t20\t{cells}\n0\t20\t{cells}\n",
         "bad.features.tsv:2: node (0, 20) is listed twice"),
        ("0\t20\t1\t4\t0\t1.0\n", "0\t3\t{cells}\n",
         "bad.features.tsv:1: new node (0, 3) names an existing node"),
        ("0\t20\t1\t4\t0\t1.0\n", "0\t20\tinf,{cells}\n",
         "bad.features.tsv:1: non-finite feature values for node (0, 20)"),
        ("0\t20\t1\t4\t0\t1.0\n0\t23\t1\t4\t0\t1.0\n", None,
         "bad.edges.tsv:2: type 0: intra id gap; ids such as [21, 22] never appear"),
        ("0\t20\t1\t4\t0\t1.0\n1\t-1\t0\t20\t1\t1.0\n", None,
         "bad.edges.tsv:2: dangling endpoint in edge (1, -1) -> (0, 20)"),
        ("0\t20\t1\t4\t0\tinf\n", None, "bad.edges.tsv:1: bad timestamp 'inf'"),
    ])
    def test_increment_rule_names_its_row(self, trained, capsys, tmp_path, edges, features,
                                          message):
        data, _, _ = trained
        dim = len((data / "features.tsv").read_text().splitlines()[0].split("\t")[2].split(","))
        if features is not None:
            n_cells = dim - 1 if "inf," in features else dim
            features = features.replace("{cells}", ",".join(["0.5"] * n_cells))
        code, _, err = self._update(capsys, trained, tmp_path, edges, features)
        assert code == 3
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows, message", [
        ("0\t1\t1\t2\t0\tinf\n", "bad_test.tsv:1: bad timestamp 'inf'"),
        ("0\t0\t1\t2\t0\t1.0\n0\t-1\t1\t2\t0\tnan\n", "bad_test.tsv:2: bad timestamp 'nan'"),
        ("0\t-1\t1\t2\t0\t1.0\n0\t0\t1\t2\t0\t1.0\n", "bad_test.tsv:1: negative node id"),
        ("0\t0\t1\t-2\t0\t1.0\n", "bad_test.tsv:1: negative node id"),
    ])
    def test_test_file_rule_names_its_row(self, trained, capsys, tmp_path, rows, message):
        _, cfg, snaps = trained
        bad = tmp_path / "bad_test.tsv"
        bad.write_text(rows)
        for missing in ("drop", "miss"):
            code, _, err = run(capsys, "evaluate", "--config", str(cfg), "--snapshot-dir",
                               str(snaps), "--test", str(bad), "--missing-users", missing)
            assert code == 3
            assert message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [("update", "--increment-edges"),
                                               ("evaluate", "--test")])
    def test_non_utf8_file(self, trained, capsys, tmp_path, command, flag):
        _, cfg, snaps = trained
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"0\t20\t1\t4\t0\t1.0\n0\t21\xff\t1\t4\t0\t1.0\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--snapshot-dir", str(snaps),
                           flag, str(bad))
        assert code == 3
        assert "bad.tsv:2: not UTF-8 text: byte 0xff" in err
        assert "Traceback" not in err

    def test_test_interaction_id(self, trained, capsys, tmp_path):
        _, cfg, snaps = trained
        bad = tmp_path / "bad_test.tsv"
        bad.write_text("0\t20\t1\t10\t0\t1.0\n0\tu7\t1\t1\t0\t1.0\n")
        code, _, err = run(capsys, "evaluate", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--test", str(bad))
        assert code == 3
        assert "bad_test.tsv:2: src_id is not an integer: 'u7'" in err


class TestBaseFileRulesExit3:
    """A base graph file meets the rules an increment file meets: the first
    row that breaks one is named by file:line, with exit 3 and no traceback."""

    @pytest.mark.parametrize("name, row, schema, message", [
        ("features", "1\t12\tnan,{cells}", "",
         "features.tsv:{line}: non-finite feature values for node (1, 12)"),
        ("features", "0\t-3\t0.5,{cells}", "", "features.tsv:{line}: negative node id (0, -3)"),
        ("features", "0\t4\t0.5,{cells}", "", "features.tsv:{line}: node (0, 4) is listed twice"),
        ("features", "0\t25\t0.5,{cells}", "",
         "features.tsv:{line}: type 0: intra id gap; ids such as [20, 21, 22, 23, 24] never"
         " appear"),
        ("edges", "0\t1\t0\t2\t0\t1.0", "",
         "edges.tsv:{line}: relation 0 endpoint type mismatch: got (0, 0), schema (0, 1)"),
        ("edges", "0\t3\t0\t3\t2\t1.0", "2\t0\t0\n",
         "edges.tsv:{line}: self-loop rejected: (0, 3)"),
        ("edges", "0\t1\t1\t2\t0\t-inf", "", "edges.tsv:{line}: bad timestamp '-inf'"),
        ("edges", "0\t-1\t1\t2\t0\t1.0", "",
         "edges.tsv:{line}: dangling endpoint in edge (0, -1) -> (1, 2)"),
        ("features", "1000000000\t0\t0.5,{cells}", "",
         "features.tsv:{line}: node type 1000000000 leaves a gap: types [2, 3, 4, 5, 6] have no"
         " schema relation and no feature row"),
        ("schema", "2\t-1\t0", "", "schema.tsv:{line}: negative node type -1"),
        ("schema", "2\t1000000000\t0", "",
         "schema.tsv:{line}: node type 1000000000 leaves a gap: types [2, 3, 4, 5, 6] have no"
         " schema relation and no feature row"),
    ])
    def test_base_rule_names_its_row(self, workspace, capsys, tmp_path, name, row, schema,
                                     message):
        _, data, cfg = workspace
        text = {n: (data / ("%s.tsv" % n)).read_text() for n in ("edges", "features", "schema")}
        dim = len(text["features"].splitlines()[0].split("\t")[2].split(","))
        line = len(text[name].splitlines()) + 1
        text[name] += row.replace("{cells}", ",".join(["0.5"] * (dim - 1))) + "\n"
        text["schema"] += schema
        conf = cfg.read_text()
        for n in text:
            (tmp_path / ("%s.tsv" % n)).write_text(text[n])
            conf = conf.replace(str(data / ("%s.tsv" % n)), str(tmp_path / ("%s.tsv" % n)))
        (tmp_path / "run.ini").write_text(conf)
        start = time.perf_counter()
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "run.ini"),
                           "--snapshot-dir", str(tmp_path / "snaps"))
        # refused while reading the files: no type block is allocated for 10**9 types
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert message.format(line=line) in err
        assert "Traceback" not in err


class TestCorruptSnapshotExit3:
    """A corrupt snapshot file is a data error, never a traceback."""

    @pytest.mark.parametrize("target, command", [("table", "retrieve"),
                                                 ("alignment", "update"),
                                                 ("graph", "evaluate")])
    def test_garbage_npz(self, workspace, capsys, tmp_path, target, command):
        _, data, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        man = latest_manifest(str(snaps))
        path = snaps / getattr(man, target + "_path")
        path.write_bytes(b"garbage")   # 7 bytes, not an array file
        argv = [command, "--config", str(cfg), "--snapshot-dir", str(snaps)]
        if command == "retrieve":
            argv += ["--user", "0"]
        elif command == "evaluate":
            argv += ["--test", str(data / "base_test.tsv")]
        else:
            argv += ["--increment-edges", str(data / "increments" / "batch_000.edges.tsv")]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "%s: not an array file" % path.name in err

    @pytest.mark.parametrize("fault, message", [
        ("missing", "graph file lacks array 'ts_0'"),
        ("dangling", "relation 0: dangling target endpoint"),
        ("duplicate", "relation 0: duplicate edge"),
    ])
    def test_bad_graph_file(self, workspace, capsys, tmp_path, fault, message):
        _, data_dir, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        path = snaps / latest_manifest(str(snaps)).graph_path
        payload = stored_arrays(path)
        if fault == "missing":
            del payload["ts_0"]
        elif fault == "dangling":
            payload["dst_0"][0] = 10_000
        else:
            payload["src_0"][1] = payload["src_0"][0]
            payload["dst_0"][1] = payload["dst_0"][0]
        save_arrays(path, payload)
        code, _, err = run(capsys, "evaluate", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--test", str(data_dir / "base_test.tsv"))
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

    def test_old_layout_version_exits_3(self, workspace, capsys, tmp_path):
        # a version as written before array files: three .npz archives and an
        # adjacency .npy, which its manifest names
        _, data, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        path = manifest_path(str(snaps), 1)
        with open(path) as fh:
            man = json.load(fh)
        for key in ("table_path", "alignment_path", "graph_path"):
            with open(snaps / (man[key] + ".npz"), "wb") as fh:
                np.savez(fh, **stored_arrays(snaps / man[key]))
            os.unlink(snaps / man[key])
            man[key] += ".npz"
        man["adjacency_path"] = "v000001.adj.npy"
        with open(path, "w") as fh:
            json.dump(man, fh)
        message = ("%s: snapshot version 1 is stored in the .npz layout, which this release"
                   " does not read; train into a new snapshot directory" % path)
        for argv in (["retrieve", "--user", "0"], ["evaluate", "--test", str(data / "base_test.tsv")],
                     ["update", "--increment-edges",
                      str(data / "increments" / "batch_000.edges.tsv")]):
            code, _, err = run(capsys, *argv, "--config", str(cfg), "--snapshot-dir", str(snaps))
            assert code == 3 and message in err and "Traceback" not in err


    def test_old_layout_alignment_exits_3(self, workspace, capsys, tmp_path):
        # an alignment file keyed by (type, intra) pairs, as written before
        # the alignment stored global ids
        _, data, cfg = workspace
        snaps = tmp_path / "snaps"
        assert main(["train", "--config", str(cfg), "--snapshot-dir", str(snaps)]) == 0
        path = snaps / latest_manifest(str(snaps)).alignment_path
        old_layout_alignment(path)
        code, _, err = run(capsys, "update", "--config", str(cfg), "--snapshot-dir", str(snaps),
                           "--increment-edges", str(data / "increments" / "batch_000.edges.tsv"))
        assert code == 3
        assert ("%s: alignment file is in the (type, intra) layout, which this release does"
                " not read; train a new version" % path) in err
        assert "Traceback" not in err
        assert latest_manifest(str(snaps)).version == 1


class TestArrayFileFaultsExit3:
    """Each array file, broken in each way, fails each command that reads it
    with exit 3, the file named and no traceback. ``retrieve`` and
    ``evaluate`` do not read the alignment or model file, so they still
    succeed."""

    # where a fault is put: an array that every command reading the file reads
    ARRAY = {"table": "block_1", "alignment": "weights", "graph": "adj_indices",
             "model": "id_table"}
    MESSAGE = {"flip": "fails its CRC-32 check", "truncate": "the header's shapes account",
               "garbage": "not an array file", "missing": "cannot read",
               "header_shape": "the header's shapes"}   # account for the file, or place an array

    @pytest.mark.parametrize("command", ["retrieve", "evaluate", "update"])
    @pytest.mark.parametrize("fault", ["flip", "truncate", "garbage", "missing", "header_shape"])
    @pytest.mark.parametrize("target", ["table", "alignment", "graph", "model"])
    def test_fault(self, trained, capsys, tmp_path, target, fault, command):
        data, cfg, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        path = snaps / getattr(latest_manifest(str(snaps)), target + "_path")
        name = self.ARRAY[target]
        if fault == "flip":
            raw = bytearray(path.read_bytes())
            raw[payload_start(path, name) + 3] ^= 0x10
            path.write_bytes(bytes(raw))
        elif fault == "truncate":
            path.write_bytes(path.read_bytes()[:-5])
        elif fault == "garbage":
            path.write_bytes(b"garbage")
        elif fault == "missing":
            os.unlink(path)
        else:
            def change(entries):
                entry = next(e for e in entries if e["name"] == name)
                entry["shape"][0] += 9
            edit_header(path, change)
        argv = {"retrieve": ["--user", "0"],
                "evaluate": ["--test", str(data / "base_test.tsv")],
                "update": ["--increment-edges", str(data / "increments" / "batch_000.edges.tsv")]}
        code, _, err = run(capsys, command, "--config", str(cfg), "--snapshot-dir", str(snaps),
                           *argv[command])
        if target in ("alignment", "model") and command != "update":
            assert code == 0
            return
        assert code == 3
        assert "%s: " % path.name in err and self.MESSAGE[fault] in err
        assert "Traceback" not in err


class TestShapesFromTheHeaderExit3:
    """Table blocks of the wrong rank or of unequal widths, and an alignment
    spectrum that does not fit the table, exit 3 with the file named."""

    @pytest.mark.parametrize("fault, target, message", [
        ("rank", "table", "block_0 has shape (20, 8, 1) and dtype <f4, expected 2-D <f4"),
        ("width", "table", "table blocks have widths [7, 8], expected one width"),
        ("lam", "alignment", "lam has shape (3, 3), but the table is 8 wide"),
    ])
    def test_fault(self, trained, capsys, tmp_path, fault, target, message):
        data, cfg, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        path = snaps / getattr(latest_manifest(str(snaps)), target + "_path")
        arrays = stored_arrays(path)
        if fault == "rank":
            arrays["block_0"] = arrays["block_0"][:, :, None]
        elif fault == "width":
            arrays["block_1"] = arrays["block_1"][:, 1:]
        else:
            arrays["lam"] = np.eye(3)
        save_arrays(path, arrays)
        commands = [["update", "--increment-edges",
                     str(data / "increments" / "batch_000.edges.tsv")]]
        if target == "table":
            commands += [["retrieve", "--user", "0"],
                         ["evaluate", "--test", str(data / "base_test.tsv")]]
        for argv in commands:
            code, _, err = run(capsys, *argv, "--config", str(cfg), "--snapshot-dir", str(snaps))
            assert code == 3
            assert "%s: %s" % (path.name, message) in err
            assert "Traceback" not in err


class TestManifestFieldsExit3:
    """A manifest field of the wrong type, or a file name that leaves the
    snapshot directory, exits 3 naming the manifest, on every command."""

    @pytest.mark.parametrize("key, value, message", [
        ("version", "x", "field 'version' must be a positive integer, got 'x'"),
        ("created_ms", None, "field 'created_ms' must be an integer, got None"),
        ("increments", [["a"]], "field 'increments' must be a list of [edges path, features"
                                " path or null] pairs, got [['a']]"),
        ("model_path", 5, "field 'model_path' must be a file name inside the snapshot"
                          " directory, got 5"),
        ("parent_version", "p", "field 'parent_version' must be null or a positive integer,"
                                " got 'p'"),
        ("table_path", "../v000001.table", "field 'table_path' must be a file name inside"
                                           " the snapshot directory, got '../v000001.table'"),
        ("graph_path", "/v000001.graph", "field 'graph_path' must be null or a file name"
                                         " inside the snapshot directory"),
        ("kind", "partial", "field 'kind' must be static or incremental, got 'partial'"),
    ])
    def test_fault(self, trained, capsys, tmp_path, key, value, message):
        data, cfg, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        path = manifest_path(str(snaps), 1)
        with open(path) as fh:
            man = json.load(fh)
        man[key] = value
        with open(path, "w") as fh:
            json.dump(man, fh)
        for argv in (["retrieve", "--user", "0"], ["evaluate", "--test", str(data / "base_test.tsv")],
                     ["update", "--increment-edges",
                      str(data / "increments" / "batch_000.edges.tsv")]):
            code, _, err = run(capsys, *argv, "--config", str(cfg), "--snapshot-dir", str(snaps))
            assert code == 3
            assert "%s: %s" % (path, message) in err
            assert "Traceback" not in err


class TestAdjacencyFileExit3:
    """Retrieve reads the graph file's adjacency point by point; every fault
    it can see exits 3 without a traceback, and a full load sees the rest."""

    @pytest.fixture
    def snaps(self, trained, tmp_path):
        _, _, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        return snaps

    def _retrieve(self, capsys, trained, snaps):
        _, cfg, _ = trained
        return run(capsys, "retrieve", "--config", str(cfg), "--snapshot-dir", str(snaps),
                   "--user", "0")

    def _rewrite(self, snaps, change):
        """Edit the graph file's adjacency, with CRC-32s to match, so that
        retrieve's range checks are what is reached."""
        path = snaps / latest_manifest(str(snaps)).graph_path
        arrays = stored_arrays(path)
        change(arrays)
        save_arrays(path, arrays)
        return path

    def _garbage(self, path):
        path.write_bytes(b"garbage")

    def _truncated(self, path):
        path.write_bytes(path.read_bytes()[:-9])

    def _missing(self, path):
        os.unlink(path)

    @pytest.mark.parametrize("fault", ["_garbage", "_truncated", "_missing"])
    def test_unreadable_file(self, trained, snaps, capsys, fault):
        path = snaps / latest_manifest(str(snaps)).graph_path
        getattr(self, fault)(path)
        code, _, err = self._retrieve(capsys, trained, snaps)
        assert code == 3
        message = {"_garbage": "not an array file: no DHGA magic",
                   "_truncated": "the header's shapes account for",
                   "_missing": "cannot read graph file: No such file or directory"}[fault]
        assert "%s: %s" % (path.name, message) in err
        assert "Traceback" not in err

    def test_out_of_range_indptr(self, trained, snaps, capsys):
        def change(arrays):
            arrays["adj_indptr"][1] = len(arrays["adj_indices"]) + 1   # user 0's row ends past nnz
        path = self._rewrite(snaps, change)
        code, _, err = self._retrieve(capsys, trained, snaps)
        assert code == 3
        assert "%s: row 0 spans" % path.name in err
        assert "Traceback" not in err

    def test_out_of_range_index(self, trained, snaps, capsys):
        def change(arrays):
            indptr = arrays["adj_indptr"]
            assert indptr[1] > indptr[0]   # user 0 has neighbours
            arrays["adj_indices"][indptr[0]] = len(indptr) - 1 + 7
        path = self._rewrite(snaps, change)
        code, _, err = self._retrieve(capsys, trained, snaps)
        assert code == 3
        assert "%s: row 0 names a node outside" % path.name in err
        assert "Traceback" not in err

    def test_bad_length(self, trained, snaps, capsys):
        def change(arrays):
            arrays["adj_indptr"] = np.append(arrays["adj_indptr"], 0)
        path = self._rewrite(snaps, change)
        code, _, err = self._retrieve(capsys, trained, snaps)
        assert code == 3
        assert "%s: adj_indptr has" % path.name in err and "entries for" in err
        assert "Traceback" not in err

    def _flip_last(self, arrays):
        n_nodes = len(arrays["adj_indptr"]) - 1
        arrays["adj_indices"][-1] = (arrays["adj_indices"][-1] + 1) % n_nodes   # not user 0's row

    def test_in_range_flip_caught_by_retrieve(self, trained, snaps, capsys):
        path = snaps / latest_manifest(str(snaps)).graph_path
        arrays = stored_arrays(path)
        self._flip_last(arrays)
        raw = path.read_bytes()
        at = payload_start(path, "adj_indices") + arrays["adj_indices"][:-1].nbytes
        path.write_bytes(raw[:at] + arrays["adj_indices"][-1:].tobytes() + raw[at + 8:])
        code, _, err = self._retrieve(capsys, trained, snaps)
        assert code == 3
        assert "%s: array 'adj_indices' fails its CRC-32 check" % path.name in err
        assert "Traceback" not in err

    def test_in_range_flip_caught_by_the_next_full_load(self, trained, snaps, capsys):
        data, cfg, _ = trained
        _, before, _ = self._retrieve(capsys, trained, snaps)
        path = self._rewrite(snaps, self._flip_last)
        code, after, err = self._retrieve(capsys, trained, snaps)
        assert code == 0 and after == before
        message = "%s: adjacency index differs from the one rebuilt from the graph file" % path.name
        common = ["--config", str(cfg), "--snapshot-dir", str(snaps)]
        code, _, err = run(capsys, "evaluate", *common, "--test", str(data / "base_test.tsv"))
        assert code == 3 and message in err and "Traceback" not in err
        code, _, err = run(capsys, "update", *common, "--increment-edges",
                           str(data / "increments" / "batch_000.edges.tsv"))
        assert code == 3 and message in err and "Traceback" not in err


def _edit_config_block(path, old, new):
    """Rewrite a model file with ``old`` replaced by ``new`` in its config block."""
    arrays = stored_arrays(path)
    block = arrays["config"].tobytes()
    assert old.encode() in block
    arrays["config"] = np.frombuffer(block.replace(old.encode(), new.encode()), dtype="|u1")
    save_arrays(path, arrays)


class TestMalformedModelExit3:
    """A model file whose config block or tensors disagree with the parameter
    table fails ``update`` with exit 3 and no traceback."""

    @pytest.mark.parametrize("old, new, message", [
        ("hidden_dim=8\n", "hidden_dim=x\n",
         "bad config block: invalid literal for int() with base 10: 'x'"),
        ("hidden_dim=8\n", "", "config block lacks key 'hidden_dim'"),
        ("hidden_dim=8\n", "hidden_dim=0\n",
         "bad config block: input_dim and hidden_dim must be >= 1"),
        ("hidden_dim=8\n", "hidden_dim=9\n",
         "tensor 'input_weight' has shape ({dim}, 8), expected ({dim}, 9)"),
        (None, None, "tensor 'gcn_weight_0' has shape (8, 7), expected (8, 8)"),
    ])
    def test_update(self, trained, capsys, tmp_path, old, new, message):
        data, cfg, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        path = snaps / latest_manifest(str(snaps)).model_path
        config, params = load_model(path)
        if old is None:
            params.gcn_weight[0] = Param(params.gcn_weight[0].value[:, :7], "gcn_weight_0")
            save_model(path, params, config)
        else:
            _edit_config_block(path, old, new)
        code, _, err = run(capsys, "update", "--config", str(cfg), "--snapshot-dir", str(snaps),
                           "--increment-edges", str(data / "increments" / "batch_000.edges.tsv"))
        assert code == 3
        assert message.format(dim=config.input_dim) in err
        assert "Traceback" not in err

    def test_tensor_stored_twice(self, trained, capsys, tmp_path):
        data, cfg, trained_snaps = trained
        snaps = tmp_path / "snaps"
        shutil.copytree(trained_snaps, snaps)
        path = snaps / latest_manifest(str(snaps)).model_path

        def change(entries):
            assert [e["name"] for e in entries[:3]] == ["config", "input_weight", "input_bias"]
            entries[2]["name"] = "input_weight"
        edit_header(path, change)
        code, _, err = run(capsys, "update", "--config", str(cfg), "--snapshot-dir", str(snaps),
                           "--increment-edges", str(data / "increments" / "batch_000.edges.tsv"))
        assert code == 3
        assert "%s: header lists array 'input_weight' twice" % path.name in err
        assert "Traceback" not in err


class TestRetrieveArguments:
    """Retrieve checks its type and k arguments instead of indexing with them."""

    def _config(self, trained, tmp_path, item_type):
        _, cfg, _ = trained
        path = tmp_path / "run.ini"
        path.write_text(cfg.read_text().replace("[eval]\n", "[eval]\nitem_type = %d\n" % item_type))
        return path

    def test_item_type_beyond_the_snapshot_is_3(self, trained, capsys, tmp_path):
        _, _, snaps = trained
        cfg = self._config(trained, tmp_path, 7)
        code, _, err = run(capsys, "retrieve", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--user", "0")
        assert code == 3
        assert "eval.item_type 7 is not a node type of snapshot version 1 (2 types)" in err
        assert "Traceback" not in err

    def test_negative_item_type_is_2(self, trained, capsys, tmp_path):
        _, _, snaps = trained
        cfg = self._config(trained, tmp_path, -1)
        code, _, err = run(capsys, "retrieve", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--user", "0")
        assert code == 2
        assert "eval.item_type must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_is_2(self, trained, capsys, k):
        _, cfg, snaps = trained
        code, _, err = run(capsys, "retrieve", "--config", str(cfg),
                           "--snapshot-dir", str(snaps), "--user", "0", "--k", k)
        assert code == 2
        assert "retrieve k must be >= 1, got %s" % k in err
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
