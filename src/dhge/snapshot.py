"""Binary persistence for model parameters, embedding tables, alignment and
graphs.

Every file of a version is an array file: magic ``DHGA``, a u32 format
version and a u32 header length, then a JSON header listing each array's
name, dtype, shape, byte offset and CRC-32, padded with spaces to a 64-byte
boundary. The payloads follow, each at a 64-byte-aligned offset counted
from the end of the header, zero-padded in between; the file ends at the
last payload. A reader maps the file and checks it array by array
(``ArrayFile``). All writers are write-then-rename so a crash never leaves
a partially written file at the target path; each file is fsynced before
its rename, and a caller that needs the rename itself to survive a power
loss fsyncs the directory (``_fsync_dir``).

A model file holds its sorted UTF-8 ``key=value`` config block as the byte
array ``config``, then each parameter in ``ModelParams.all_params`` order as
a float32 array of its own shape. Training math is float64 but snapshots
quantize to float32; a load/save round trip of an existing snapshot is
byte-identical.
"""
from __future__ import annotations

import json
import math
import mmap
import os
import struct
import zlib

import numpy as np

from .graph import DataError, HeteroGraph, RelationSchema
from .incremental import AlignmentState
from .model import EmbeddingTable, ModelConfig, ModelParams


class SnapshotFormatError(DataError):
    """A snapshot file is malformed or has an unsupported version."""


def _atomic_bytes(path, chunks):
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _fsync_dir(path):
    """Flush a directory's entries to disk, so that renames into it survive
    a power loss."""
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_model(path, params, config):
    """Serialize ModelParams plus its config block as an array file."""
    items = config.to_items()
    block = "".join("%s=%s\n" % (k, items[k]) for k in sorted(items)).encode("utf-8")
    arrays = {"config": np.frombuffer(block, dtype="|u1")}
    for p in params.all_params():
        arrays[p.name] = np.asarray(p.value, dtype="<f4")
    save_arrays(path, arrays)


def load_model(path):
    """Parse a model snapshot; returns (ModelConfig, ModelParams).

    Float32 payloads are promoted to float64 in memory, so a subsequent
    ``save_model`` reproduces the file byte for byte.
    """
    model_file = ArrayFile(path, "model")
    text = model_file.array("config", "|u1", 1).tobytes().decode("utf-8", "replace")
    items = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            model_file.fail("malformed config line %r", line)
        key, _, value = line.partition("=")
        items[key] = value
    try:
        config = ModelConfig.from_items(items)
    except KeyError as exc:
        model_file.fail("config block lacks key %s", exc)
    except ValueError as exc:
        model_file.fail("bad config block: %s", exc)
    return config, _assemble_params(config, model_file)


def _assemble_params(config, model_file):
    """``ModelParams`` from the arrays of ``PARAM_LAYOUT``, each checked
    against its rank and shape there; any other array is an error."""
    left = set(model_file.entries) - {"config"}
    num_types = model_file.shape("type_table", "<f4", 2)[0]
    num_relations = sum(1 for n in left if n.startswith("rel_factor_"))

    def take(name, shape, init):
        left.discard(name)
        arr = model_file.array(name, "<f4", len(shape)).astype(np.float64)
        if any(want not in ("rows", got) for want, got in zip(shape, arr.shape)):
            model_file.fail("tensor %r has shape %s, expected %s", name, arr.shape, shape)
        return arr

    out = object.__new__(ModelParams)
    out._fill(config, num_types, num_relations, take)
    if left:
        model_file.fail("model snapshot has unexpected tensors: %s", sorted(left))
    return out


ARRAY_MAGIC = b"DHGA"
ARRAY_FORMAT_VERSION = 1
_ARRAY_PREFIX = struct.Struct("<4sII")   # magic, format version, header bytes
_ALIGN = 64
_ARRAY_DTYPES = ("<f4", "<f8", "<i8", "|b1", "|u1")


def _aligned(n):
    return -(-n // _ALIGN) * _ALIGN


def save_arrays(path, arrays):
    """Write the named arrays of ``arrays`` (a dict) as one array file."""
    entries, chunks, end = [], [], 0
    for name, value in arrays.items():
        arr = np.asarray(value)
        arr = arr.astype(arr.dtype.newbyteorder("<"), order="C", copy=False)
        if arr.dtype.str not in _ARRAY_DTYPES:
            raise ValueError("array %r has unsupported dtype %s" % (name, arr.dtype))
        start = _aligned(end)
        entries.append({"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape),
                        "offset": start, "crc32": zlib.crc32(arr)})
        chunks += [b"\0" * (start - end), arr]
        end = start + arr.nbytes
    header = json.dumps(entries, separators=(",", ":")).encode("utf-8")
    header += b" " * (_aligned(_ARRAY_PREFIX.size + len(header)) - _ARRAY_PREFIX.size - len(header))
    _atomic_bytes(path, [_ARRAY_PREFIX.pack(ARRAY_MAGIC, ARRAY_FORMAT_VERSION, len(header)),
                         header] + chunks)


class ArrayFile:
    """An array file (``save_arrays``) mapped read-only, its header checked:
    magic, version, and that the header's shapes times itemsizes place each
    array at its offset and end the file where it ends.

    ``shape`` reads the header alone; ``array`` checks the array's CRC-32
    the first time it hands the array out. Any fault is a
    ``SnapshotFormatError`` that names the file.
    """

    def __init__(self, path, kind):
        self.path, self.kind = os.fspath(path), kind
        try:
            with open(self.path, "rb") as fh:
                self._map = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:   # ValueError: an empty file
            self.fail("cannot read %s file: %s", kind, getattr(exc, "strerror", None) or exc)
        if len(self._map) < _ARRAY_PREFIX.size or self._map[:4] != ARRAY_MAGIC:
            self.fail("not an array file: no %s magic", ARRAY_MAGIC.decode())
        _, version, header_len = _ARRAY_PREFIX.unpack_from(self._map)
        if version != ARRAY_FORMAT_VERSION:
            self.fail("unsupported array file format version %d", version)
        self._start = _ARRAY_PREFIX.size + header_len
        try:
            entries = [(e["name"], e["dtype"], tuple(e["shape"]), e["offset"], e["crc32"])
                       for e in json.loads(self._map[_ARRAY_PREFIX.size:self._start])]
        except (ValueError, TypeError, KeyError) as exc:
            self.fail("unreadable header: %s", exc)
        self.entries, end = {}, 0
        for name, dtype, shape, offset, crc in entries:
            if not (isinstance(name, str) and dtype in _ARRAY_DTYPES
                    and all(type(v) is int and v >= 0 for v in shape + (offset, crc))):
                self.fail("malformed header entry %s", (name, dtype, shape, offset, crc))
            if name in self.entries:
                self.fail("header lists array %r twice", name)
            if offset != _aligned(end):
                self.fail("array %r starts at payload offset %d, but the header's shapes"
                          " place it at %d", name, offset, _aligned(end))
            end = offset + np.dtype(dtype).itemsize * math.prod(shape)
            self.entries[name] = (dtype, shape, offset, crc)
        if self._start + end != len(self._map):
            self.fail("the header's shapes account for %d bytes, but the file holds %d",
                      self._start + end, len(self._map))
        self._checked = set()

    def fail(self, message, *args):
        raise SnapshotFormatError(("%s: " + message) % ((self.path,) + args)) from None

    def shape(self, name, dtype, ndim):
        """``name``'s shape from the header, its dtype and rank checked there."""
        if name not in self.entries:
            self.fail("%s file lacks array %r", self.kind, name)
        stored, shape = self.entries[name][:2]
        if stored != dtype or len(shape) != ndim:
            self.fail("%s has shape %s and dtype %s, expected %d-D %s",
                      name, shape, stored, ndim, dtype)
        return shape

    def array(self, name, dtype, ndim):
        """``name`` as a read-only view of the map, after ``shape``'s checks
        and, the first time, its CRC-32."""
        shape = self.shape(name, dtype, ndim)
        offset, crc = self.entries[name][2:]
        out = np.ndarray(shape, dtype, self._map, self._start + offset)
        if name not in self._checked and zlib.crc32(out) != crc:
            self.fail("array %r fails its CRC-32 check", name)
        self._checked.add(name)
        return out

    def shapes(self, prefix, dtype, ndim):
        """``shape`` of arrays ``prefix0``, ``prefix1``, ... up to the first absent."""
        out = []
        while "%s%d" % (prefix, len(out)) in self.entries:
            out.append(self.shape("%s%d" % (prefix, len(out)), dtype, ndim))
        return out


def save_table(path, table):
    """Embedding table as float32 blocks plus version metadata."""
    arrays = {"version": np.asarray(table.version, dtype=np.int64),
              "created_ms": np.asarray(table.created_ms, dtype=np.int64)}
    for t, block in enumerate(table.blocks):
        arrays["block_%d" % t] = block.astype("<f4")
    save_arrays(path, arrays)


def stored_table(table):
    """``table`` as ``load_table`` reads it back from ``save_table``'s file."""
    return EmbeddingTable([b.astype("<f4").astype(np.float64) for b in table.blocks],
                          version=table.version, created_ms=table.created_ms)


def table_shapes(table_file):
    """Each table block's header shape: float32, 2-D, one or more, one width."""
    shapes = table_file.shapes("block_", "<f4", 2)
    widths = sorted({shape[1] for shape in shapes})
    if len(widths) != 1:
        table_file.fail("table blocks have widths %s, expected one width", widths)
    return shapes


def load_table(path):
    table_file = ArrayFile(path, "table")
    blocks = [table_file.array("block_%d" % t, "<f4", 2).astype(np.float64)
              for t in range(len(table_shapes(table_file)))]
    return EmbeddingTable(blocks, version=int(table_file.array("version", "<i8", 0)),
                          created_ms=int(table_file.array("created_ms", "<i8", 0)))


ALIGNMENT_KEYS = ("lam", "counts", "rows", "nbrs", "weights")


def save_alignment(path, state):
    """Alignment rows and spectrum, float64 (internal math, not serving data):
    ``rows`` and ``nbrs`` are global ids of a graph with the per-type node
    counts ``counts``."""
    save_arrays(path, {"lam": state.lam, "counts": np.asarray(state.counts, dtype=np.int64),
                       "rows": state.rows, "nbrs": state.nbrs, "weights": state.weights})


def load_alignment(path):
    """Parse an alignment file, rejecting missing arrays, disagreeing shapes,
    rows out of order and ids outside the graph its counts describe."""
    align_file = ArrayFile(path, "alignment")
    fail, take = align_file.fail, align_file.array
    if "k" in align_file.entries:   # only the (type, intra) layout stores k
        fail("alignment file is in the (type, intra) layout, which this release does not"
             " read; train a new version")
    missing = [key for key in ALIGNMENT_KEYS if key not in align_file.entries]
    if missing:
        fail("alignment file lacks arrays %s", missing)
    lam, counts = np.array(take("lam", "<f8", 2)), take("counts", "<i8", 1)
    rows, nbrs, weights = take("rows", "<i8", 1), take("nbrs", "<i8", 2), take("weights", "<f8", 2)
    if lam.shape[0] != lam.shape[1] or np.any(counts < 0):
        fail("lam must be square and counts non-negative, got lam of shape %s and counts %s",
             lam.shape, counts.tolist())
    if nbrs.shape != weights.shape or nbrs.shape[:1] != rows.shape or nbrs.shape[1] < 1:
        fail("rows, nbrs and weights have shapes %s, %s and %s, expected (R,), (R, k) and"
             " (R, k) with k >= 1", rows.shape, nbrs.shape, weights.shape)
    if np.any(rows[1:] <= rows[:-1]):
        fail("alignment rows are not sorted and unique")
    n = int(counts.sum())
    if len(rows) and (min(rows[0], nbrs.min()) < 0 or max(rows[-1], nbrs.max()) >= n):
        fail("alignment names a node id outside [0, %d)", n)
    return AlignmentState(lam, tuple(counts.tolist()), np.array(rows), np.array(nbrs),
                          np.array(weights))


def save_graph_arrays(path, graph):
    """A graph's schema pairs, per-type feature and mask blocks, per-relation
    ``src``/``dst``/``ts``, and its CSR adjacency ``adj_indptr``/``adj_indices``,
    from which ``adjacency_row`` reads a node's row without building the graph."""
    arrays = {"schema": np.asarray(graph.schema.pairs, dtype=np.int64).reshape(-1, 2)}
    for t in range(graph.num_types):
        arrays["features_%d" % t] = graph.feature_blocks[t]
        arrays["mask_%d" % t] = graph.mask_blocks[t]
    for r in range(graph.schema.num_relations):
        arrays["src_%d" % r] = graph.rel_src[r]
        arrays["dst_%d" % r] = graph.rel_dst[r]
        arrays["ts_%d" % r] = graph.rel_ts[r]
    arrays["adj_indptr"] = graph._adj_indptr
    arrays["adj_indices"] = graph._adj_indices
    save_arrays(path, arrays)


def load_graph_arrays(path):
    """Rebuild a ``HeteroGraph`` from a graph file through its constructor,
    which validates endpoints, self-loops, duplicate edges, shapes and feature
    values; then compare the stored adjacency with the rebuilt one."""
    graph_file = ArrayFile(path, "graph")
    pairs = graph_file.array("schema", "<i8", 2)
    if pairs.shape[1] != 2:
        graph_file.fail("malformed schema %s", pairs.shape)
    take = graph_file.array
    n_types = len(graph_file.shapes("features_", "<f8", 2))
    features = [take("features_%d" % t, "<f8", 2) for t in range(n_types)]
    masks = [take("mask_%d" % t, "|b1", 2) for t in range(n_types)]
    edges = [(take("src_%d" % r, "<i8", 1), take("dst_%d" % r, "<i8", 1),
              take("ts_%d" % r, "<f8", 1)) for r in range(len(pairs))]
    try:
        graph = HeteroGraph(RelationSchema(pairs.tolist()), features, masks, edges)
    except DataError as exc:
        graph_file.fail("%s", exc)
    if not (np.array_equal(graph_file.array("adj_indptr", "<i8", 1), graph._adj_indptr)
            and np.array_equal(graph_file.array("adj_indices", "<i8", 1), graph._adj_indices)):
        graph_file.fail("adjacency index differs from the one rebuilt from the graph file")
    return graph


def adjacency_row(graph_file, g, n_nodes):
    """Node ``g``'s sorted neighbour global ids from a graph file's stored
    adjacency, read after checking that ``adj_indptr`` holds ``n_nodes`` + 1
    entries, ``0 <= indptr[g] <= indptr[g + 1] <= nnz`` and that each id is
    below ``n_nodes``."""
    indptr = graph_file.array("adj_indptr", "<i8", 1)
    indices = graph_file.array("adj_indices", "<i8", 1)
    if len(indptr) != n_nodes + 1:
        graph_file.fail("adj_indptr has %d entries for %d nodes", len(indptr), n_nodes)
    lo, hi = int(indptr[g]), int(indptr[g + 1])
    if not 0 <= lo <= hi <= len(indices):
        graph_file.fail("row %d spans [%d, %d), outside the %d neighbours",
                        g, lo, hi, len(indices))
    row = np.array(indices[lo:hi])
    if len(row) and (row.min() < 0 or row.max() >= n_nodes):
        graph_file.fail("row %d names a node outside [0, %d)", g, n_nodes)
    return row
