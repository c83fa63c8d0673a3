"""Shared builders for the test suite."""
import json
import struct

import numpy as np
import pytest

from dhge.graph import HeteroGraph, RelationSchema, Subgraph, NodeRef
from dhge.model import ModelConfig, ModelParams
from dhge.snapshot import ArrayFile, save_arrays

# one line per shipped behavior contract, printed after the run
CRITERION_LINES = []


def record_criterion(num, status, detail):
    CRITERION_LINES.append("criterion %02d %s: %s" % (num, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def build_graph(schema_pairs, counts, rel_edges, input_dim=5, seed=0,
                missing_rate=0.0):
    """HeteroGraph with random finite features and optional missing cells.

    rel_edges: per relation, list of (src_intra, dst_intra[, ts]) tuples.
    """
    rng = np.random.default_rng(seed)
    feature_blocks = [rng.normal(size=(c, input_dim)) for c in counts]
    mask_blocks = []
    for c in counts:
        if missing_rate > 0.0:
            m = rng.random((c, input_dim)) >= missing_rate
        else:
            m = np.ones((c, input_dim), dtype=bool)
        mask_blocks.append(m)
    packed = []
    for edges in rel_edges:
        if edges:
            rows = [(e[0], e[1], e[2] if len(e) > 2 else 0.0) for e in edges]
            src, dst, ts = zip(*rows)
        else:
            src, dst, ts = (), (), ()
        packed.append((np.asarray(src, dtype=np.int64),
                       np.asarray(dst, dtype=np.int64),
                       np.asarray(ts, dtype=np.float64)))
    return HeteroGraph(RelationSchema(schema_pairs), feature_blocks,
                       mask_blocks, packed)


def full_subgraph(graph):
    """Subgraph retaining every node and every edge of ``graph``."""
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    node_types = np.concatenate(
        [np.full(c, t, dtype=np.int64) for t, c in enumerate(graph.counts)])
    intra_ids = np.concatenate(
        [np.arange(c, dtype=np.int64) for c in graph.counts])
    type_slices = [(int(graph.offsets[t]), int(graph.offsets[t + 1]))
                   for t in range(graph.num_types)]
    rel_src, rel_dst = [], []
    for r in range(graph.schema.num_relations):
        s_t, d_t = graph.schema.pairs[r]
        rel_src.append(graph.rel_src[r] + graph.offsets[s_t])
        rel_dst.append(graph.rel_dst[r] + graph.offsets[d_t])
    return Subgraph(nodes=nodes, node_types=node_types, intra_ids=intra_ids,
                    type_slices=type_slices, seeds=nodes,
                    seed_locals=nodes.copy(), rel_src=rel_src, rel_dst=rel_dst)


def tiny_bipartite(seed=0, missing_rate=0.2, input_dim=5):
    """2 types (3 users, 4 items), 2 mirrored relations, 8 directed edges."""
    user_item = [(0, 0), (0, 1), (1, 1), (2, 3)]
    item_user = [(2, 1), (3, 0), (1, 2), (0, 2)]
    return build_graph([(0, 1), (1, 0)], [3, 4], [user_item, item_user],
                       input_dim=input_dim, seed=seed, missing_rate=missing_rate)


def tiny_params(graph, hidden_dim=4, num_gcn_layers=2, seed=0, **cfg_kw):
    cfg = ModelConfig(input_dim=graph.input_dim, hidden_dim=hidden_dim,
                      num_gcn_layers=num_gcn_layers, **cfg_kw)
    params = ModelParams(cfg, num_types=graph.num_types,
                         num_relations=graph.schema.num_relations,
                         id_capacity=max(graph.counts), init_seed=seed)
    return cfg, params


def stored_arrays(path):
    """Every array of an array file, as writable copies, in file order."""
    stored = ArrayFile(path, "test")
    return {name: np.array(stored.array(name, dtype, len(shape)))
            for name, (dtype, shape, _, _) in stored.entries.items()}


def old_layout_alignment(path):
    """Rewrite the alignment file at ``path`` in the layout of earlier
    releases: k, lam, then rows and neighbours as (type, intra) columns, each
    row's neighbour count, and the weights, flattened row-major."""
    arrays = stored_arrays(path)
    offsets = np.concatenate([[0], np.cumsum(arrays["counts"])])
    rows, nbrs = arrays["rows"], arrays["nbrs"].ravel()
    row_types = np.searchsorted(offsets, rows, side="right") - 1
    nbr_types = np.searchsorted(offsets, nbrs, side="right") - 1
    save_arrays(path, {
        "k": np.asarray(arrays["nbrs"].shape[1], dtype=np.int64), "lam": arrays["lam"],
        "row_types": row_types, "row_intras": rows - offsets[row_types],
        "counts": np.full(len(rows), arrays["nbrs"].shape[1], dtype=np.int64),
        "nbr_types": nbr_types, "nbr_intras": nbrs - offsets[nbr_types],
        "weights": arrays["weights"].ravel()})


def payload_start(path, name):
    """The file offset of array ``name``'s first byte in an array file."""
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[8:12])[0]
    entries = json.loads(raw[12:12 + header_len])
    return 12 + header_len + next(e["offset"] for e in entries if e["name"] == name)


def edit_header(path, change):
    """Rewrite an array file's JSON header through ``change`` (called with the
    list of entries), keeping every payload byte where it was."""
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[8:12])[0]
    entries = json.loads(raw[12:12 + header_len])
    change(entries)
    header = json.dumps(entries, separators=(",", ":")).encode()
    header = header.ljust(-(-(12 + len(header)) // 64) * 64 - 12)
    path.write_bytes(raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + header_len:])


@pytest.fixture
def bipartite_graph():
    return tiny_bipartite()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
