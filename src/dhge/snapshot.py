"""Binary persistence for model parameters, embedding tables, alignment and graphs.

Model files are a little-endian framed format: magic ``DHGM``, a u32 format
version, a length-prefixed UTF-8 ``key=value`` config block, then a count of
tensor records (name, rows, cols, row-major float32 payload). Training math
is float64 but snapshots quantize to float32; a load/save round trip of an
existing snapshot is byte-identical. All writers are write-then-rename so a
crash never leaves a partially written file at the target path.
"""
from __future__ import annotations

import io
import os
import struct
import zipfile

import numpy as np

from .graph import DataError, HeteroGraph, RelationSchema
from .incremental import AlignmentState
from .model import EmbeddingTable, ModelConfig, ModelParams
from .tensor import Param

MAGIC = b"DHGM"
FORMAT_VERSION = 1


class SnapshotFormatError(DataError):
    """A snapshot file is malformed or has an unsupported version."""


def _atomic_bytes(path, payload):
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _atomic_npz(path, payload):
    buf = io.BytesIO()
    np.savez(buf, **payload)
    _atomic_bytes(path, buf.getvalue())


def _tensor_record(name, value):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ValueError("tensor %r has unsupported rank %d" % (name, arr.ndim))
    payload = arr.astype("<f4").tobytes(order="C")
    name_b = name.encode("utf-8")
    head = struct.pack("<I", len(name_b)) + name_b + struct.pack("<II", arr.shape[0], arr.shape[1])
    return head + payload


def save_model(path, params, config):
    """Serialize ModelParams plus its config block; atomic on completion."""
    items = config.to_items()
    config_block = "".join("%s=%s\n" % (k, items[k]) for k in sorted(items)).encode("utf-8")
    tensors = params.all_params()
    body = [MAGIC, struct.pack("<I", FORMAT_VERSION),
            struct.pack("<I", len(config_block)), config_block,
            struct.pack("<I", len(tensors))]
    for p in tensors:
        body.append(_tensor_record(p.name, p.value))
    _atomic_bytes(path, b"".join(body))


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise SnapshotFormatError("truncated snapshot while reading %s" % what)
    return buf


def load_model(path):
    """Parse a model snapshot; returns (ModelConfig, ModelParams).

    Float32 payloads are promoted to float64 in memory, so a subsequent
    ``save_model`` reproduces the file byte for byte.
    """
    with open(os.fspath(path), "rb") as fh:
        if _read_exact(fh, 4, "magic") != MAGIC:
            raise SnapshotFormatError("bad magic; not a model snapshot")
        version = struct.unpack("<I", _read_exact(fh, 4, "format version"))[0]
        if version != FORMAT_VERSION:
            raise SnapshotFormatError("unsupported snapshot format version %d" % version)
        cfg_len = struct.unpack("<I", _read_exact(fh, 4, "config length"))[0]
        cfg_text = _read_exact(fh, cfg_len, "config block").decode("utf-8")
        items = {}
        for line in cfg_text.splitlines():
            if not line.strip():
                continue
            if "=" not in line:
                raise SnapshotFormatError("malformed config line %r" % line)
            key, _, value = line.partition("=")
            items[key] = value
        n_tensors = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))[0]
        tensors = {}
        order = []
        for _ in range(n_tensors):
            name_len = struct.unpack("<I", _read_exact(fh, 4, "name length"))[0]
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            rows, cols = struct.unpack("<II", _read_exact(fh, 8, "tensor shape"))
            payload = _read_exact(fh, rows * cols * 4, "tensor payload %r" % name)
            arr = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
            tensors[name] = arr
            order.append(name)
        if fh.read(1):
            raise SnapshotFormatError("trailing bytes after final tensor record")
    config = ModelConfig.from_items(items)
    return config, _assemble_params(config, tensors)


def _assemble_params(config, tensors):
    def take(name, scalar=False, row=False):
        if name not in tensors:
            raise SnapshotFormatError("model snapshot missing tensor %r" % name)
        arr = tensors.pop(name)
        if scalar:
            if arr.shape != (1, 1):
                raise SnapshotFormatError("tensor %r expected scalar, got %s" % (name, arr.shape))
            return Param(arr.reshape(()), name)
        if row:
            return Param(arr.reshape(1, -1), name)
        return Param(arr, name)

    num_types = tensors["type_table"].shape[0] if "type_table" in tensors else 0
    num_relations = sum(1 for n in tensors if n.startswith("rel_factor_"))
    out = object.__new__(ModelParams)
    out.num_types = num_types
    out.num_relations = num_relations
    out.input_dim = config.input_dim
    out.hidden_dim = config.hidden_dim
    out.num_gcn_layers = config.num_gcn_layers
    out.input_weight = take("input_weight")
    out.input_bias = take("input_bias", row=True)
    out.imputation_token = take("imputation_token", row=True)
    out.id_table = take("id_table")
    out.type_table = take("type_table")
    out.attn_query = take("attn_query")
    out.attn_key = take("attn_key")
    out.attn_value = take("attn_value")
    out.type_query = [take("type_query_%d" % t) for t in range(num_types)]
    out.type_key = [take("type_key_%d" % t) for t in range(num_types)]
    out.type_value = [take("type_value_%d" % t) for t in range(num_types)]
    out.rel_factor = [take("rel_factor_%d" % r, scalar=True) for r in range(num_relations)]
    out.rel_attn = [take("rel_attn_%d" % r) for r in range(num_relations)]
    out.rel_msg = [take("rel_msg_%d" % r) for r in range(num_relations)]
    out.type_mix = [take("type_mix_%d" % t, scalar=True) for t in range(num_types)]
    out.gcn_weight = [take("gcn_weight_%d" % l) for l in range(config.num_gcn_layers)]
    if tensors:
        raise SnapshotFormatError("model snapshot has unexpected tensors: %s" % sorted(tensors))
    return out


def save_table(path, table):
    """Embedding table as float32 npz blocks plus version metadata."""
    payload = {"version": np.asarray([table.version], dtype=np.int64),
               "created_ms": np.asarray([table.created_ms], dtype=np.int64),
               "num_types": np.asarray([len(table.blocks)], dtype=np.int64)}
    for t, block in enumerate(table.blocks):
        payload["block_%d" % t] = block.astype("<f4")
    _atomic_npz(path, payload)


def stored_table(table):
    """``table`` as ``load_table`` reads it back from ``save_table``'s file."""
    return EmbeddingTable([b.astype("<f4").astype(np.float64) for b in table.blocks],
                          version=table.version, created_ms=table.created_ms)


def _read_npz(path):
    """Every array of an npz file; a corrupt or non-npz file is a SnapshotFormatError."""
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an npz archive")
        with data:
            return {key: data[key] for key in data.files}
    except FileNotFoundError:
        raise
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SnapshotFormatError("%s: not a readable npz file: %s" % (path, exc)) from None


def load_table(path):
    path = os.fspath(path)
    data = _read_npz(path)
    try:
        num_types = int(data["num_types"][0])
        blocks = [data["block_%d" % t].astype(np.float64) for t in range(num_types)]
        version, created_ms = int(data["version"][0]), int(data["created_ms"][0])
    except (KeyError, IndexError) as exc:
        raise SnapshotFormatError("%s: malformed table file: missing %s" % (path, exc)) from None
    return EmbeddingTable(blocks, version=version, created_ms=created_ms)


ALIGNMENT_KEYS = ("k", "lam", "row_types", "row_intras", "counts",
                  "nbr_types", "nbr_intras", "weights")


def save_alignment(path, state):
    """Alignment rows and spectrum, float64 (internal math, not serving data).

    Rows are flattened row-major, k entries each; ``counts`` is all k.
    """
    payload = {
        "k": np.asarray([state.k], dtype=np.int64),
        "lam": np.asarray(state.lam, dtype=np.float64),
        "row_types": np.asarray(state.refs[:, 0], dtype=np.int64),
        "row_intras": np.asarray(state.refs[:, 1], dtype=np.int64),
        "counts": np.full(len(state.refs), state.k, dtype=np.int64),
        "nbr_types": np.asarray(state.nbrs[:, :, 0], dtype=np.int64).ravel(),
        "nbr_intras": np.asarray(state.nbrs[:, :, 1], dtype=np.int64).ravel(),
        "weights": np.asarray(state.weights, dtype=np.float64).ravel(),
    }
    _atomic_npz(path, payload)


def load_alignment(path):
    """Parse an alignment file, rejecting missing arrays and ragged rows."""
    path = os.fspath(path)
    arrays = _read_npz(path)
    missing = [key for key in ALIGNMENT_KEYS if key not in arrays]
    if missing:
        raise SnapshotFormatError("%s: alignment file lacks arrays %s" % (path, missing))
    k_arr, lam = arrays["k"], arrays["lam"]
    if k_arr.shape != (1,) or k_arr[0] < 1:
        raise SnapshotFormatError("%s: k must be one positive integer, got %s" % (path, k_arr))
    if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
        raise SnapshotFormatError("%s: lam must be square, got shape %s" % (path, lam.shape))
    k = int(k_arr[0])
    n_rows = arrays["row_types"].size
    for key, want in (("row_types", n_rows), ("row_intras", n_rows), ("counts", n_rows),
                      ("nbr_types", n_rows * k), ("nbr_intras", n_rows * k),
                      ("weights", n_rows * k)):
        if arrays[key].shape != (want,):
            raise SnapshotFormatError("%s: %s has shape %s, expected (%d,)"
                                      % (path, key, arrays[key].shape, want))
    if np.any(arrays["counts"] != k):
        raise SnapshotFormatError("%s: every row must hold k=%d neighbors" % (path, k))
    refs = np.stack([arrays["row_types"], arrays["row_intras"]], axis=1).astype(np.int64)
    if not np.array_equal(np.unique(refs, axis=0), refs):
        raise SnapshotFormatError("%s: alignment rows are not sorted and unique" % path)
    nbrs = np.stack([arrays["nbr_types"], arrays["nbr_intras"]], axis=1).astype(np.int64)
    return AlignmentState(k=k, lam=lam.astype(np.float64), refs=refs,
                          nbrs=nbrs.reshape(n_rows, k, 2),
                          weights=arrays["weights"].astype(np.float64).reshape(n_rows, k))


def save_graph_arrays(path, graph):
    """A graph's primary arrays: schema pairs, per-type feature and mask blocks,
    and per-relation ``src``/``dst``/``ts``.

    No index is stored: ``load_graph_arrays`` rebuilds them, so a file cannot
    carry an index that disagrees with its edges.
    """
    payload = {"schema": np.asarray(graph.schema.pairs, dtype=np.int64).reshape(-1, 2),
               "num_types": np.asarray([graph.num_types], dtype=np.int64)}
    for t in range(graph.num_types):
        payload["features_%d" % t] = graph.feature_blocks[t]
        payload["mask_%d" % t] = graph.mask_blocks[t]
    for r in range(graph.schema.num_relations):
        payload["src_%d" % r] = graph.rel_src[r]
        payload["dst_%d" % r] = graph.rel_dst[r]
        payload["ts_%d" % r] = graph.rel_ts[r]
    _atomic_npz(path, payload)


def load_graph_arrays(path):
    """Rebuild a ``HeteroGraph`` from a graph file through its constructor,
    which validates endpoints, self-loops, duplicate edges, shapes and
    feature values."""
    path = os.fspath(path)
    arrays = _read_npz(path)

    def take(key, ndim, kinds):
        if key not in arrays:
            raise SnapshotFormatError("%s: graph file lacks array %r" % (path, key))
        arr = arrays[key]
        if arr.ndim != ndim or arr.dtype.kind not in kinds:
            raise SnapshotFormatError("%s: %s has shape %s and dtype %s, expected %d-D %s"
                                      % (path, key, arr.shape, arr.dtype, ndim, kinds))
        return arr

    pairs = take("schema", 2, "i")
    num_types = take("num_types", 1, "i")
    if pairs.shape[1] != 2 or num_types.shape != (1,):
        raise SnapshotFormatError("%s: malformed schema %s or type count %s"
                                  % (path, pairs.shape, num_types))
    features = [take("features_%d" % t, 2, "f") for t in range(num_types[0])]
    masks = [take("mask_%d" % t, 2, "b") for t in range(num_types[0])]
    edges = [(take("src_%d" % r, 1, "i"), take("dst_%d" % r, 1, "i"), take("ts_%d" % r, 1, "f"))
             for r in range(len(pairs))]
    try:
        return HeteroGraph(RelationSchema(pairs.tolist()), features, masks, edges)
    except DataError as exc:
        raise SnapshotFormatError("%s: %s" % (path, exc)) from None
