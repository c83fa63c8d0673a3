"""Binary snapshot formats: round trips, quantization, and corruption."""
import hashlib
import json
import os
import struct
import zlib

import numpy as np
import pytest

from dhge.model import EmbeddingTable, ModelConfig, ModelParams, embed_all
from dhge.incremental import capture_alignment
from dhge.snapshot import (ARRAY_FORMAT_VERSION, SnapshotFormatError, ArrayFile,
                           save_arrays, save_model, load_model, save_table, load_table,
                           table_shapes, save_alignment, load_alignment, save_graph_arrays,
                           load_graph_arrays, adjacency_row)
from dhge.tensor import Param
from conftest import (edit_header, old_layout_alignment, payload_start, stored_arrays,
                      tiny_bipartite, tiny_params)
from oracles import graphs_equal


class TestModelSnapshot:
    def _cfg_params(self, seed=0):
        g = tiny_bipartite(seed=seed)
        return tiny_params(g, seed=seed)

    def test_round_trip_preserves_quantized_values(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "m.model"
        save_model(path, params, cfg)
        cfg2, params2 = load_model(path)
        assert cfg2.to_items() == cfg.to_items()
        for a, b in zip(params.all_params(), params2.all_params()):
            assert a.name == b.name
            want = np.asarray(a.value, dtype=np.float64)
            if want.ndim == 0:
                want = want.reshape(1, 1)
            elif want.ndim == 1:
                want = want.reshape(1, -1)
            assert np.array_equal(want.astype("<f4").astype(np.float64),
                                  np.asarray(b.value).reshape(want.shape)), a.name

    def test_second_save_is_byte_identical(self, tmp_path):
        # after one quantization pass the file is a fixed point
        cfg, params = self._cfg_params()
        p1 = tmp_path / "a.model"
        p2 = tmp_path / "b.model"
        save_model(p1, params, cfg)
        cfg2, params2 = load_model(p1)
        save_model(p2, params2, cfg2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        # a model file in the framed format of earlier releases is refused this way
        path = tmp_path / "x.model"
        path.write_bytes(b"DHGM" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="x.model: not an array file: no DHGA magic"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", ARRAY_FORMAT_VERSION + 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="x.model: unsupported array file format"
                                                      " version 10"):
            load_model(path)

    def test_truncation_rejected_at_any_point(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = path.read_bytes()
        for cut in (2, 6, 10, len(raw) // 2, len(raw) - 3):
            path.write_bytes(raw[:cut])
            with pytest.raises(SnapshotFormatError, match="x.model: "):
                load_model(path)

    def test_oversized_record_rejected_before_reading(self, tmp_path):
        # a header shape of 2**31 x 2**31 floats is refused before any payload is read
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)

        def change(entries):
            entries[1]["shape"] = [2 ** 31, 2 ** 31]
        edit_header(path, change)
        with pytest.raises(SnapshotFormatError, match="x.model: array 'input_bias' starts at"
                                                      " payload offset"):
            load_model(path)

    @pytest.mark.parametrize("field, message", [(b"hidden_dim=", "lacks key 'hidden_dim'")])
    def test_non_utf8_bytes_are_a_format_error(self, tmp_path, field, message):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        arrays = stored_arrays(path)
        block = arrays["config"].tobytes()
        at = block.index(field)
        arrays["config"] = np.frombuffer(block[:at] + b"\xff" + block[at + 1:], dtype="|u1")
        save_arrays(path, arrays)
        with pytest.raises(SnapshotFormatError, match="x.model: config block " + message):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match="x.model: the header's shapes account for"
                                                      " %d bytes, but the file holds %d"
                                                      % (size, size + 1)):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)

        def change(entries):
            next(e for e in entries if e["name"] == "id_table")["name"] = "zz_table"
        edit_header(path, change)
        with pytest.raises(SnapshotFormatError, match="x.model: model file lacks array 'id_table'"):
            load_model(path)

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        arrays = stored_arrays(path)
        arrays["config"] = np.frombuffer(arrays["config"].tobytes() + b"no equals sign\n",
                                         dtype="|u1")
        save_arrays(path, arrays)
        with pytest.raises(SnapshotFormatError, match="x.model: malformed config line"
                                                      " 'no equals sign'"):
            load_model(path)

    def test_save_model_bytes_match_golden(self, tmp_path):
        # the digest of this file as first written in the array-file layout;
        # each parameter's payload equals its float32 record in the framed
        # layout of earlier releases (digest 758c2043...)
        cfg = ModelConfig(input_dim=5, hidden_dim=6, num_gcn_layers=3, rng_seed=11,
                          fusion_weights=(1.0, 0.5, 0.25), global_mix=0.3)
        path = tmp_path / "x.model"
        save_model(path, ModelParams(cfg, num_types=3, num_relations=4, id_capacity=7), cfg)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "886d9d8b52f204c386e2ece32bbb1b770e286f5af2e02d307884227bb23adc42")

    @pytest.mark.parametrize("fault, message", [
        ("scalar", "rel_factor_0 has shape (1, 2) and dtype <f4, expected 0-D <f4"),
        ("extra", "model snapshot has unexpected tensors: ['gcn_weight_2']"),
        ("width", r"tensor 'id_table' has shape (7, 5), expected ('rows', 6)"),
    ])
    def test_records_checked_against_the_layout(self, tmp_path, fault, message):
        cfg = ModelConfig(input_dim=5, hidden_dim=6, rng_seed=11)
        params = ModelParams(cfg, num_types=2, num_relations=2, id_capacity=7)
        if fault == "scalar":
            params.rel_factor[0] = Param(np.ones((1, 2)), "rel_factor_0")
        elif fault == "extra":
            params.gcn_weight.append(Param(np.ones((6, 6)), "gcn_weight_2"))
        else:
            params.id_table = Param(np.ones((7, 5)), "id_table")
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        with pytest.raises(SnapshotFormatError) as exc:
            load_model(path)
        assert str(exc.value) == "%s: %s" % (path, message)

    def test_id_table_takes_any_row_count(self, tmp_path):
        cfg, params = self._cfg_params()
        params.ensure_id_capacity(params.id_capacity + 5, grow_seed=3)
        save_model(tmp_path / "x.model", params, cfg)
        assert load_model(tmp_path / "x.model")[1].id_capacity == params.id_capacity

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        assert os.listdir(tmp_path) == ["x.model"]

    def test_loaded_params_are_trainable(self, tmp_path):
        # the reassembled object must behave like the original in forward use
        g = tiny_bipartite(seed=1)
        cfg, params = tiny_params(g, seed=1)
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        cfg2, params2 = load_model(path)
        t1 = embed_all(g, params2, cfg2, version=1)
        assert t1.counts == g.counts
        assert all(np.all(np.isfinite(b)) for b in t1.blocks)


class TestArrayFile:
    ARRAYS = {"scalar": np.asarray(7, dtype=np.int64),
              "empty": np.zeros((0, 3), dtype="<f4"),
              "mask": np.array([[True, False, True]]),
              "values": np.arange(10, dtype=np.float64).reshape(5, 2),
              "ids": np.arange(3, dtype=np.int64)}

    def test_round_trip_and_layout(self, tmp_path):
        path = tmp_path / "a.arrays"
        save_arrays(path, self.ARRAYS)
        assert os.listdir(tmp_path) == ["a.arrays"]
        raw = path.read_bytes()
        magic, version, header_len = struct.unpack("<4sII", raw[:12])
        assert (magic, version) == (b"DHGA", 1) and (12 + header_len) % 64 == 0
        entries = json.loads(raw[12:12 + header_len])
        assert [e["name"] for e in entries] == list(self.ARRAYS)
        for e, arr in zip(entries, self.ARRAYS.values()):
            start = 12 + header_len + e["offset"]
            assert start % 64 == 0
            assert e["crc32"] == zlib.crc32(raw[start:start + arr.nbytes])
        assert len(raw) == 12 + header_len + entries[-1]["offset"] + 3 * 8   # ends at "ids"
        stored = ArrayFile(path, "test")
        for name, arr in self.ARRAYS.items():
            got = stored.array(name, arr.dtype.str, arr.ndim)
            assert got.dtype == arr.dtype and np.array_equal(got, arr)
            assert not got.flags.writeable
        save_arrays(tmp_path / "b.arrays", stored_arrays(path))
        assert (tmp_path / "b.arrays").read_bytes() == raw

    def test_each_array_checked_before_it_is_handed_out(self, tmp_path):
        path = tmp_path / "a.arrays"
        save_arrays(path, self.ARRAYS)
        raw = bytearray(path.read_bytes())
        raw[payload_start(path, "values") + 9] ^= 1
        path.write_bytes(bytes(raw))
        stored = ArrayFile(path, "test")
        assert np.array_equal(stored.array("ids", "<i8", 1), self.ARRAYS["ids"])
        assert stored.shape("values", "<f8", 2) == (5, 2)   # the header alone
        with pytest.raises(SnapshotFormatError, match="a.arrays: array 'values' fails its"
                                                      " CRC-32 check"):
            stored.array("values", "<f8", 2)

    def test_unsupported_dtype_not_written(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported dtype"):
            save_arrays(tmp_path / "a.arrays", {"x": np.zeros(2, dtype=np.complex128)})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fault, match", [
        ("empty", "cannot read test file: cannot mmap an empty file"),
        ("magic", "not an array file: no DHGA magic"),
        ("version", "unsupported array file format version 2"),
        ("header_len", "unreadable header"),
        ("json", "unreadable header"),
        ("entry", "unreadable header: 'crc32'"),
        ("dtype", r"malformed header entry \('scalar', '\|O', \(\), 0, \d+\)"),
        ("shape", "array 'ids' starts at payload offset 256, but the header's shapes place it"
                  " at 320"),
        ("offset", "array 'scalar' starts at payload offset 64, but the header's shapes place"
                   " it at 0"),
        ("trailing", "the header's shapes account for 664 bytes, but the file holds 665"),
        ("truncated", "the header's shapes account for 664 bytes, but the file holds 663"),
        ("duplicate", "header lists array 'scalar' twice"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, match):
        path = tmp_path / "a.arrays"
        save_arrays(path, self.ARRAYS)
        raw = path.read_bytes()

        def change(entries):
            if fault == "entry":
                del entries[0]["crc32"]
            elif fault == "dtype":
                entries[0]["dtype"] = "|O"
            elif fault == "shape":
                entries[3]["shape"] = [9, 2]
            elif fault == "duplicate":
                entries[1]["name"] = "scalar"
            else:
                entries[0]["offset"] = 64

        if fault == "empty":
            path.write_bytes(b"")
        elif fault == "magic":
            path.write_bytes(b"PK\x03\x04" + raw[4:])
        elif fault == "version":
            path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
        elif fault == "header_len":
            path.write_bytes(raw[:8] + struct.pack("<I", 2 ** 32 - 1) + raw[12:])
        elif fault == "json":
            path.write_bytes(raw[:12] + b"{" + raw[13:])
        elif fault == "trailing":
            path.write_bytes(raw + b"\0")
        elif fault == "truncated":
            path.write_bytes(raw[:-1])
        else:
            edit_header(path, change)
        with pytest.raises(SnapshotFormatError, match="a.arrays: " + match):
            ArrayFile(path, "test")

    def test_missing_file_and_missing_array(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="a.arrays: cannot read test file"):
            ArrayFile(tmp_path / "a.arrays", "test")
        save_arrays(tmp_path / "a.arrays", self.ARRAYS)
        stored = ArrayFile(tmp_path / "a.arrays", "test")
        with pytest.raises(SnapshotFormatError, match="test file lacks array 'other'"):
            stored.array("other", "<f8", 1)
        with pytest.raises(SnapshotFormatError, match=r"ids has shape \(3,\) and dtype <i8,"
                                                      " expected 2-D <i8"):
            stored.array("ids", "<i8", 2)


class TestTableSnapshot:
    def test_round_trip_bit_exact_at_float32(self, tmp_path, rng):
        blocks = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
        table = EmbeddingTable(blocks, version=4, created_ms=123456)
        path = tmp_path / "t.table"
        save_table(path, table)
        got = load_table(path)
        assert got.version == 4
        assert got.created_ms == 123456
        for a, b in zip(table.blocks, got.blocks):
            assert np.array_equal(a.astype("<f4").astype(np.float64), b)

    def test_second_save_is_byte_identical(self, tmp_path, rng):
        table = EmbeddingTable([rng.normal(size=(4, 3))], version=2)
        p1, p2 = tmp_path / "a.table", tmp_path / "b.table"
        save_table(p1, table)
        save_table(p2, load_table(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_tmp_left_behind(self, tmp_path, rng):
        save_table(tmp_path / "t.table", EmbeddingTable([rng.normal(size=(2, 2))]))
        assert os.listdir(tmp_path) == ["t.table"]

    def test_blocks_read_alone_equal_the_full_load(self, tmp_path, rng):
        path = tmp_path / "t.table"
        save_table(path, EmbeddingTable([rng.normal(size=(n, 3)) for n in (5, 2, 4)]))
        stored = ArrayFile(path, "table")
        assert table_shapes(stored) == [(5, 3), (2, 3), (4, 3)]
        for t in (0, 2):
            block = stored.array("block_%d" % t, "<f4", 2).astype(np.float64)
            assert np.array_equal(block, load_table(path).blocks[t])
        with pytest.raises(SnapshotFormatError, match="table file lacks array 'block_3'"):
            stored.array("block_3", "<f4", 2)

    @pytest.mark.parametrize("fault, match", [
        ("rank", r"block_0 has shape \(5, 3, 1\) and dtype <f4, expected 2-D <f4"),
        ("width", r"table blocks have widths \[2, 3\], expected one width"),
        ("dtype", r"block_1 has shape \(2, 3\) and dtype <f8, expected 2-D <f4"),
        ("none", r"table blocks have widths \[\], expected one width"),
    ])
    def test_block_shapes_checked_in_the_header(self, tmp_path, rng, fault, match):
        path = tmp_path / "t.table"
        save_table(path, EmbeddingTable([rng.normal(size=(n, 3)) for n in (5, 2)]))
        arrays = stored_arrays(path)
        if fault == "rank":
            arrays["block_0"] = arrays["block_0"][:, :, None]
        elif fault == "width":
            arrays["block_1"] = arrays["block_1"][:, :2]
        elif fault == "dtype":
            arrays["block_1"] = arrays["block_1"].astype(np.float64)
        else:
            del arrays["block_0"]
        save_arrays(path, arrays)
        with pytest.raises(SnapshotFormatError, match="t.table: " + match):
            load_table(path)


class TestAlignmentSnapshot:
    def test_round_trip_exact(self, tmp_path):
        g = tiny_bipartite(seed=2)
        cfg, params = tiny_params(g, seed=2)
        table = embed_all(g, params, cfg, version=1)
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        path = tmp_path / "a.align"
        save_alignment(path, state)
        got = load_alignment(path)
        assert got.k == state.k and got.counts == state.counts == (3, 4)
        assert np.array_equal(got.lam, state.lam)
        assert np.array_equal(got.rows, state.rows)
        assert np.array_equal(got.nbrs, state.nbrs)
        assert np.array_equal(got.weights, state.weights)

    def _state(self):
        g = tiny_bipartite(seed=2)
        cfg, params = tiny_params(g, seed=2)
        table = embed_all(g, params, cfg, version=1)
        return capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)

    def test_npz_file_refused(self, tmp_path):
        path = tmp_path / "a.npz"
        save_alignment(tmp_path / "a.align", self._state())
        with open(path, "wb") as fh:
            np.savez(fh, **stored_arrays(tmp_path / "a.align"))
        with pytest.raises(SnapshotFormatError, match="a.npz: not an array file"):
            load_alignment(path)

    def test_file_holds_five_arrays(self, tmp_path):
        path = tmp_path / "a.align"
        save_alignment(path, self._state())
        assert {name: entry[:2] for name, entry in ArrayFile(path, "alignment").entries.items()} == {
            "lam": ("<f8", (4, 4)), "counts": ("<i8", (2,)), "rows": ("<i8", (7,)),
            "nbrs": ("<i8", (7, 3)), "weights": ("<f8", (7, 3))}

    def test_old_layout_refused(self, tmp_path):
        path = tmp_path / "a.align"
        save_alignment(path, self._state())
        old_layout_alignment(path)
        with pytest.raises(SnapshotFormatError, match="a.align: alignment file is in the"
                                                      " \\(type, intra\\) layout.*train a new version"):
            load_alignment(path)

    @pytest.mark.parametrize("fault, match", [
        ("short_nbrs", r"rows, nbrs and weights have shapes \(7,\), \(6, 3\) and \(7, 3\)"),
        ("narrow_weights", r"rows, nbrs and weights have shapes \(7,\), \(7, 3\) and \(7, 2\)"),
        ("missing_key", "lacks arrays"),
        ("unsorted", "not sorted and unique"),
        ("duplicate", "not sorted and unique"),
        ("high_id", r"alignment names a node id outside \[0, 7\)"),
        ("high_row", r"alignment names a node id outside \[0, 7\)"),
        ("negative_id", r"alignment names a node id outside \[0, 7\)"),
        ("negative_count", "counts non-negative"),
        ("lam", "lam must be square"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, match):
        path = tmp_path / "bad.align"
        save_alignment(path, self._state())
        payload = stored_arrays(path)
        if fault == "short_nbrs":
            payload["nbrs"] = payload["nbrs"][:-1]
        elif fault == "narrow_weights":
            payload["weights"] = payload["weights"][:, :2]
        elif fault == "missing_key":
            del payload["weights"]
        elif fault == "duplicate":
            payload["rows"][1] = payload["rows"][0]
        elif fault == "unsorted":
            payload["rows"][[0, 1]] = payload["rows"][[1, 0]]
        elif fault == "high_id":
            payload["nbrs"][2, 1] = 7   # the counts (3, 4) describe ids 0-6
        elif fault == "high_row":
            payload["rows"][-1] = 7
        elif fault == "negative_id":
            payload["nbrs"][0, 0] = -1
        elif fault == "negative_count":
            payload["counts"][0] = -1
        else:
            payload["lam"] = payload["lam"][:, :3]
        save_arrays(path, payload)
        with pytest.raises(SnapshotFormatError, match="bad.align: .*" + match):
            load_alignment(path)


class TestGraphSnapshot:
    def test_round_trip_rebuilds_the_same_graph(self, tmp_path):
        g = tiny_bipartite(seed=1, missing_rate=0.3)
        save_graph_arrays(tmp_path / "g.graph", g)
        assert os.listdir(tmp_path) == ["g.graph"]
        got = load_graph_arrays(tmp_path / "g.graph")
        assert graphs_equal(got, g)
        for name in ("rel_src", "rel_dst", "rel_ts"):   # edge order kept too
            for a, b in zip(getattr(got, name), getattr(g, name)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got._adj_indptr, g._adj_indptr)
        assert np.array_equal(got._adj_indices, g._adj_indices)

    def test_adjacency_file_maps_every_row(self, tmp_path):
        g = tiny_bipartite(seed=1)
        path = tmp_path / "g.graph"
        save_graph_arrays(path, g)
        stored = ArrayFile(path, "graph")
        assert [shape[0] for shape in stored.shapes("features_", "<f8", 2)] == g.counts
        for node in range(g.num_nodes):
            assert np.array_equal(adjacency_row(stored, node, 7), g.neighbors_of(node))
        arrays = stored_arrays(path)
        arrays["adj_indices"][-1] = (arrays["adj_indices"][-1] + 1) % g.num_nodes
        save_arrays(path, arrays)   # in range, CRC-32 to match: only the compare sees it
        adjacency_row(ArrayFile(path, "graph"), 0, 7)
        with pytest.raises(SnapshotFormatError, match="adjacency index differs"):
            load_graph_arrays(path)

    @pytest.mark.parametrize("fault, match", [
        ("dtype", r"adj_indices has shape \(16,\) and dtype <f8, expected 1-D <i8"),
        ("length", "adj_indptr has 9 entries for 7 nodes"),
        ("span", r"row 0 spans \[0, 17\), outside the 16 neighbours"),
        ("node", r"row 0 names a node outside \[0, 7\)"),
    ])
    def test_malformed_adjacency_rejected(self, tmp_path, fault, match):
        path = tmp_path / "g.graph"
        save_graph_arrays(path, tiny_bipartite(seed=1))
        arrays = stored_arrays(path)
        if fault == "dtype":
            arrays["adj_indices"] = arrays["adj_indices"].astype(np.float64)
        elif fault == "length":
            arrays["adj_indptr"] = np.append(arrays["adj_indptr"], 16)
        elif fault == "span":
            arrays["adj_indptr"][1] = 17
        else:
            arrays["adj_indices"][0] = 7
        save_arrays(path, arrays)
        with pytest.raises(SnapshotFormatError, match="g.graph: " + match):
            adjacency_row(ArrayFile(path, "graph"), 0, 7)

    @pytest.mark.parametrize("fault, match", [
        ("missing", "lacks array 'ts_1'"),
        ("rank", "features_0 has shape"),
        ("schema", "malformed schema"),
        ("dangling", "relation 0: dangling target endpoint"),
        ("non_finite", "type 1: non-finite feature values"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, match):
        path = tmp_path / "g.graph"
        save_graph_arrays(path, tiny_bipartite(seed=1))
        payload = stored_arrays(path)
        if fault == "missing":
            del payload["ts_1"]
        elif fault == "rank":
            payload["features_0"] = payload["features_0"].ravel()
        elif fault == "schema":
            payload["schema"] = payload["schema"].reshape(1, -1)
        elif fault == "dangling":
            payload["dst_0"][0] = 4   # type 1 has 4 nodes
        else:
            payload["features_1"][0, 0] = np.nan
        save_arrays(path, payload)
        with pytest.raises(SnapshotFormatError, match=match):
            load_graph_arrays(path)
