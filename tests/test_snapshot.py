"""Binary snapshot formats: round trips, quantization, and corruption."""
import hashlib
import os
import struct

import numpy as np
import pytest

from dhge.graph import graphs_equal
from dhge.model import EmbeddingTable, ModelConfig, ModelParams, embed_all
from dhge.incremental import capture_alignment
from dhge.snapshot import (MAGIC, FORMAT_VERSION, SnapshotFormatError,
                           save_model, load_model, save_table, load_table,
                           load_table_blocks, save_alignment, load_alignment,
                           save_graph_arrays, load_graph_arrays, save_adjacency,
                           map_adjacency, check_adjacency)
from dhge.tensor import Param
from conftest import tiny_bipartite, tiny_params


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
        path = tmp_path / "x.model"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_model(path)

    def test_truncation_rejected_at_any_point(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = path.read_bytes()
        for cut in (2, 6, 10, len(raw) // 2, len(raw) - 3):
            path.write_bytes(raw[:cut])
            with pytest.raises(SnapshotFormatError, match="truncated"):
                load_model(path)

    def test_oversized_record_rejected_before_reading(self, tmp_path):
        # a shape of 2**31 x 2**31 floats would ask read() for 16 EiB
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = path.read_bytes()
        at = raw.index(b"input_weight") + len(b"input_weight")
        path.write_bytes(raw[:at] + struct.pack("<II", 2 ** 31, 2 ** 31) + raw[at + 8:])
        with pytest.raises(SnapshotFormatError, match="truncated .* payload 'input_weight'"):
            load_model(path)

    @pytest.mark.parametrize("field, message", [(b"hidden_dim=", "lacks key 'hidden_dim'"),
                                                (b"input_weight", "missing tensor 'input_weight'")])
    def test_non_utf8_bytes_are_a_format_error(self, tmp_path, field, message):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = path.read_bytes()
        at = raw.index(field)
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        with pytest.raises(SnapshotFormatError, match=message):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match="trailing"):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path):
        cfg, params = self._cfg_params()
        path = tmp_path / "x.model"
        save_model(path, params, cfg)
        raw = bytearray(path.read_bytes())
        # rename id_table -> zz_table: assembly must notice both the absence
        # and the unexpected leftover
        idx = raw.find(b"id_table")
        raw[idx:idx + 8] = b"zz_table"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="missing tensor"):
            load_model(path)

    def test_save_model_bytes_match_golden(self, tmp_path):
        # the digest of this file as written before the layout table existed
        cfg = ModelConfig(input_dim=5, hidden_dim=6, num_gcn_layers=3, rng_seed=11,
                          fusion_weights=(1.0, 0.5, 0.25), global_mix=0.3)
        path = tmp_path / "x.model"
        save_model(path, ModelParams(cfg, num_types=3, num_relations=4, id_capacity=7), cfg)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == "758c2043ab7c297f38bc9555508c56384b6c4ff57905f2eb49f37275e462b4d9")

    @pytest.mark.parametrize("fault, message", [
        ("scalar", "tensor 'rel_factor_0' expected scalar, got (1, 2)"),
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
        assert str(exc.value) == message

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


class TestTableSnapshot:
    def test_round_trip_bit_exact_at_float32(self, tmp_path, rng):
        blocks = [rng.normal(size=(5, 3)), rng.normal(size=(2, 3))]
        table = EmbeddingTable(blocks, version=4, created_ms=123456)
        path = tmp_path / "t.npz"
        save_table(path, table)
        got = load_table(path)
        assert got.version == 4
        assert got.created_ms == 123456
        for a, b in zip(table.blocks, got.blocks):
            assert np.array_equal(a.astype("<f4").astype(np.float64), b)

    def test_second_save_is_byte_identical(self, tmp_path, rng):
        table = EmbeddingTable([rng.normal(size=(4, 3))], version=2)
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_table(p1, table)
        save_table(p2, load_table(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_tmp_left_behind(self, tmp_path, rng):
        save_table(tmp_path / "t.npz", EmbeddingTable([rng.normal(size=(2, 2))]))
        assert os.listdir(tmp_path) == ["t.npz"]

    def test_blocks_read_alone_equal_the_full_load(self, tmp_path, rng):
        path = tmp_path / "t.npz"
        save_table(path, EmbeddingTable([rng.normal(size=(n, 3)) for n in (5, 2, 4)]))
        blocks = load_table_blocks(path, [2, 0])
        assert sorted(blocks) == [0, 2]
        for t in (0, 2):
            assert blocks[t].dtype == np.float64
            assert np.array_equal(blocks[t], load_table(path).blocks[t])
        with pytest.raises(SnapshotFormatError, match="missing 'block_3'"):
            load_table_blocks(path, [3])


class TestAlignmentSnapshot:
    def test_round_trip_exact(self, tmp_path):
        g = tiny_bipartite(seed=2)
        cfg, params = tiny_params(g, seed=2)
        table = embed_all(g, params, cfg, version=1)
        state = capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)
        path = tmp_path / "a.npz"
        save_alignment(path, state)
        got = load_alignment(path)
        assert got.k == state.k
        assert np.array_equal(got.lam, state.lam)
        assert np.array_equal(got.refs, state.refs)
        assert np.array_equal(got.nbrs, state.nbrs)
        assert np.array_equal(got.weights, state.weights)

    def _state(self):
        g = tiny_bipartite(seed=2)
        cfg, params = tiny_params(g, seed=2)
        table = embed_all(g, params, cfg, version=1)
        return capture_alignment(g, table, k=3, eps=1e-3, rng_seed=0)

    @staticmethod
    def _ragged_payload(state):
        """The eight arrays flattened from a {ref: (neighbor refs, weights)} map."""
        rows = {tuple(r): ([tuple(nb) for nb in nbrs], w)
                for r, nbrs, w in zip(state.refs.tolist(), state.nbrs.tolist(), state.weights)}
        refs = sorted(rows)
        nbr_types, nbr_intras, weights = [], [], []
        for r in refs:
            nbrs, w = rows[r]
            nbr_types.extend(nb[0] for nb in nbrs)
            nbr_intras.extend(nb[1] for nb in nbrs)
            weights.extend(np.asarray(w, dtype=np.float64).tolist())
        return {
            "k": np.asarray([state.k], dtype=np.int64),
            "lam": np.asarray(state.lam, dtype=np.float64),
            "row_types": np.asarray([r[0] for r in refs], dtype=np.int64),
            "row_intras": np.asarray([r[1] for r in refs], dtype=np.int64),
            "counts": np.asarray([len(rows[r][0]) for r in refs], dtype=np.int64),
            "nbr_types": np.asarray(nbr_types, dtype=np.int64),
            "nbr_intras": np.asarray(nbr_intras, dtype=np.int64),
            "weights": np.asarray(weights, dtype=np.float64),
        }

    def test_row_map_layout_loads_and_matches_saved_bytes(self, tmp_path):
        state = self._state()
        legacy = tmp_path / "legacy.npz"
        with open(legacy, "wb") as fh:
            np.savez(fh, **self._ragged_payload(state))
        got = load_alignment(legacy)
        assert got.k == state.k
        assert np.array_equal(got.lam, state.lam)
        assert np.array_equal(got.refs, state.refs)
        assert np.array_equal(got.nbrs, state.nbrs)
        assert np.array_equal(got.weights, state.weights)
        # same eight keys, dtypes and values: the files match byte for byte
        save_alignment(tmp_path / "new.npz", got)
        assert (tmp_path / "new.npz").read_bytes() == legacy.read_bytes()

    @pytest.mark.parametrize("fault, match", [
        ("counts", "every row must hold k=3"),
        ("short_nbrs", "nbr_types has shape"),
        ("missing_key", "lacks arrays"),
        ("unsorted", "not sorted and unique"),
        ("duplicate", "not sorted and unique"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, match):
        payload = self._ragged_payload(self._state())
        if fault == "counts":
            payload["counts"][0] = 2
        elif fault == "short_nbrs":
            payload["nbr_types"] = payload["nbr_types"][:-1]
        elif fault == "missing_key":
            del payload["weights"]
        elif fault == "duplicate":
            assert payload["row_types"][1] == payload["row_types"][0]
            payload["row_intras"][1] = payload["row_intras"][0]
        else:
            payload["row_intras"][[0, 1]] = payload["row_intras"][[1, 0]]
        path = tmp_path / "bad.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(SnapshotFormatError, match=match):
            load_alignment(path)


class TestGraphSnapshot:
    def test_round_trip_rebuilds_the_same_graph(self, tmp_path):
        g = tiny_bipartite(seed=1, missing_rate=0.3)
        save_graph_arrays(tmp_path / "g.npz", g)
        assert os.listdir(tmp_path) == ["g.npz"]
        got = load_graph_arrays(tmp_path / "g.npz")
        assert graphs_equal(got, g)
        for name in ("rel_src", "rel_dst", "rel_ts"):   # edge order kept too
            for a, b in zip(getattr(got, name), getattr(g, name)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(got._adj_indptr, g._adj_indptr)
        assert np.array_equal(got._adj_indices, g._adj_indices)

    def test_adjacency_file_maps_every_row(self, tmp_path):
        g = tiny_bipartite(seed=1)
        path = tmp_path / "g.adj.npy"
        save_adjacency(path, g)
        assert os.listdir(tmp_path) == ["g.adj.npy"]
        adj = map_adjacency(path)
        assert adj.counts.tolist() == g.counts
        assert np.array_equal(adj.offsets, g.offsets)
        for node in range(g.num_nodes):
            assert np.array_equal(adj.row(node), g.neighbors_of(node))
        check_adjacency(path, g)
        arr = np.load(path)
        arr[-1] = (arr[-1] + 1) % g.num_nodes   # in range: only the compare sees it
        np.save(path, arr)
        map_adjacency(path)
        with pytest.raises(SnapshotFormatError, match="adjacency index differs"):
            check_adjacency(path, g)

    @pytest.mark.parametrize("fault, match", [
        ("dtype", "not a 1-D little-endian int64 array"),
        ("types", "type count 0 does not fit"),
        ("counts", "node counts .* out of range"),
        ("length", "entries, but the header gives"),
    ])
    def test_malformed_adjacency_rejected(self, tmp_path, fault, match):
        path = tmp_path / "g.adj.npy"
        save_adjacency(path, tiny_bipartite(seed=1))
        arr = np.load(path)
        if fault == "dtype":
            arr = arr.astype(">i8")
        elif fault == "types":
            arr[0] = 0
        elif fault == "counts":
            arr[1] = -1
        else:
            arr = arr[:-1]
        np.save(path, arr)
        with pytest.raises(SnapshotFormatError, match=match):
            map_adjacency(path)

    @pytest.mark.parametrize("fault, match", [
        ("missing", "lacks array 'ts_1'"),
        ("rank", "features_0 has shape"),
        ("schema", "malformed schema"),
        ("dangling", "relation 0: dangling target endpoint"),
        ("non_finite", "type 1: non-finite feature values"),
    ])
    def test_malformed_file_rejected(self, tmp_path, fault, match):
        path = tmp_path / "g.npz"
        save_graph_arrays(path, tiny_bipartite(seed=1))
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
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
        with open(path, "wb") as fh:
            np.savez(fh, **payload)
        with pytest.raises(SnapshotFormatError, match=match):
            load_graph_arrays(path)
