"""Typed multigraph storage, TSV IO, neighborhood sampling, and increments.

Nodes are addressed by ``NodeRef(node_type, intra_id)``; intra ids are dense
per type, so node data lives in per-type blocks and appending new nodes never
renumbers existing ones. A *global index* (type-major: all of type 0, then
type 1, ...) is derived per graph version for dense matrix work.
"""
from __future__ import annotations

import io
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .seeding import choice_rows, derived_rng, TAG_PARTITION, TAG_SUBGRAPH


class DataError(ValueError):
    """Input data violates the graph contract."""


class GraphFormatError(DataError):
    """A tabular input row failed to parse; the message carries file:line."""


class NodeRef(NamedTuple):
    node_type: int
    intra_id: int


class RelationSchema:
    """Directed relation table: relation id -> (source type, target type)."""

    def __init__(self, pairs):
        self.pairs = [(int(s), int(t)) for s, t in pairs]
        for r, (s, t) in enumerate(self.pairs):
            if s < 0 or t < 0:
                raise DataError("relation %d has negative endpoint type" % r)

    @property
    def num_relations(self):
        return len(self.pairs)

    @property
    def num_types(self):
        if not self.pairs:
            return 0
        return 1 + max(max(s, t) for s, t in self.pairs)

    def __eq__(self, other):
        return isinstance(other, RelationSchema) and self.pairs == other.pairs

    def __repr__(self):
        return "RelationSchema(%r)" % (self.pairs,)


@dataclass
class Subgraph:
    """Retained nodes (ascending global = type-major order) plus local edges."""

    nodes: np.ndarray              # global ids, ascending
    node_types: np.ndarray
    intra_ids: np.ndarray
    type_slices: list              # (start, stop) per type over the local order
    seeds: np.ndarray              # global ids, ascending
    seed_locals: np.ndarray
    rel_src: list                  # per relation, local source indices
    rel_dst: list

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_edges(self):
        return sum(len(s) for s in self.rel_src)

    def local_index(self, global_ids):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        pos = np.searchsorted(self.nodes, global_ids)
        bad = (pos >= len(self.nodes)) | (self.nodes[np.minimum(pos, len(self.nodes) - 1)] != global_ids)
        if np.any(bad):
            raise DataError("global index not retained in subgraph")
        return pos


@dataclass
class IncrementBatch:
    """Append-only delta: new nodes (with optional features) and new edges.

    ``new_nodes`` entries are (NodeRef, values or None, mask or None);
    ``new_edges`` entries are (src NodeRef, dst NodeRef, relation_id, ts).
    """

    new_nodes: list = field(default_factory=list)
    new_edges: list = field(default_factory=list)
    batch_time: float = 0.0


class HeteroGraph:
    """Immutable snapshot of a typed graph; increments build new instances."""

    def __init__(self, schema, feature_blocks, mask_blocks, rel_edges):
        if not feature_blocks:
            raise DataError("graph must contain at least one node type")
        self.schema = schema
        self.feature_blocks = [np.asarray(b, dtype=np.float64) for b in feature_blocks]
        self.mask_blocks = [np.asarray(b, dtype=bool) for b in mask_blocks]
        if len(self.mask_blocks) != len(self.feature_blocks):
            raise DataError("feature and mask block counts differ")
        dims = {b.shape[1] for b in self.feature_blocks}
        if len(dims) != 1:
            raise DataError("feature blocks disagree on dimensionality: %s" % sorted(dims))
        for t, (fb, mb) in enumerate(zip(self.feature_blocks, self.mask_blocks)):
            if fb.shape != mb.shape:
                raise DataError("type %d: mask shape %s != feature shape %s" % (t, mb.shape, fb.shape))
            if not np.all(np.isfinite(fb[mb])):
                raise DataError("type %d: non-finite feature values" % t)
        if schema.num_types > len(self.feature_blocks):
            raise DataError("schema references type %d but only %d types have blocks"
                            % (schema.num_types - 1, len(self.feature_blocks)))
        if len(rel_edges) != schema.num_relations:
            raise DataError("expected %d relation edge sets, got %d"
                            % (schema.num_relations, len(rel_edges)))
        self.rel_src = []
        self.rel_dst = []
        self.rel_ts = []
        self._edge_key_index = []
        for r, (src, dst, ts) in enumerate(rel_edges):
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            ts = np.asarray(ts, dtype=np.float64)
            if not (len(src) == len(dst) == len(ts)):
                raise DataError("relation %d: edge array lengths differ" % r)
            s_t, d_t = schema.pairs[r]
            if len(src):
                if src.min() < 0 or src.max() >= len(self.feature_blocks[s_t]):
                    raise DataError("relation %d: dangling source endpoint" % r)
                if dst.min() < 0 or dst.max() >= len(self.feature_blocks[d_t]):
                    raise DataError("relation %d: dangling target endpoint" % r)
                if s_t == d_t and np.any(src == dst):
                    raise DataError("relation %d: self-loop rejected" % r)
            keys = np.sort(_pair_key(src, dst))
            dup = keys[1:][keys[1:] == keys[:-1]]
            if len(dup):
                raise DataError("relation %d: duplicate edge (%d, %d)"
                                % ((r,) + divmod(int(dup[0]), int(_KEY_SHIFT))))
            self.rel_src.append(src)
            self.rel_dst.append(dst)
            self.rel_ts.append(ts)
            # apply_increment tests new edges against these keys and merges them in
            self._edge_key_index.append(keys)
        self._build_index()

    # -- derived indexes ----------------------------------------------------

    def _build_index(self, adjacency=None, incidence=None):
        """Derive counts, offsets, the type-erased CSR adjacency and incidence.

        ``adjacency`` (indptr, indices) and ``incidence`` (per-relation source
        and target groupings) are passed in when an increment has merged them
        from the parent graph; otherwise they are built from the edge arrays.
        """
        self.counts = [len(b) for b in self.feature_blocks]
        self.num_types = len(self.feature_blocks)
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)]).astype(np.int64)
        self.num_nodes = int(self.offsets[-1])
        self.num_edges = int(sum(len(s) for s in self.rel_src))
        self.input_dim = self.feature_blocks[0].shape[1]

        if adjacency is None:
            # type-erased undirected adjacency over global ids, unique + sorted
            # on the 1-D key row * N + col (row-major pair order)
            n = self.num_nodes
            keys = [np.empty(0, dtype=np.int64)]
            for r, (s_t, d_t) in enumerate(self.schema.pairs):
                gs = self.rel_src[r] + self.offsets[s_t]
                gd = self.rel_dst[r] + self.offsets[d_t]
                keys.append(gs * n + gd)
                keys.append(gd * n + gs)
            rows, cols = np.divmod(_unique(np.concatenate(keys)), max(n, 1))
            adjacency = (_indptr(rows, n), cols)
        self._adj_indptr, self._adj_indices = adjacency

        # per-relation incidence: edge ids grouped by source / by target intra id
        if incidence is None:
            incidence = ([], [])
            for r in range(self.schema.num_relations):
                s_t, d_t = self.schema.pairs[r]
                incidence[0].append(_group_edges(self.rel_src[r], self.counts[s_t]))
                incidence[1].append(_group_edges(self.rel_dst[r], self.counts[d_t]))
        self._inc_src, self._inc_dst = incidence

    # -- addressing ----------------------------------------------------------

    def check_ref(self, ref):
        t, i = int(ref[0]), int(ref[1])
        if t < 0 or t >= self.num_types:
            raise DataError("unknown node type %d" % t)
        if i < 0 or i >= self.counts[t]:
            raise DataError("intra id %d out of range for type %d (count %d)" % (i, t, self.counts[t]))
        return NodeRef(t, i)

    def global_index(self, ref):
        ref = self.check_ref(ref)
        return int(self.offsets[ref.node_type] + ref.intra_id)

    def ref_of(self, global_id):
        g = int(global_id)
        if g < 0 or g >= self.num_nodes:
            raise DataError("global index %d out of range" % g)
        t = int(np.searchsorted(self.offsets, g, side="right") - 1)
        return NodeRef(t, g - int(self.offsets[t]))

    def type_of_global(self, global_ids):
        global_ids = np.asarray(global_ids, dtype=np.int64)
        return (np.searchsorted(self.offsets, global_ids, side="right") - 1).astype(np.int64)

    # -- neighborhood --------------------------------------------------------

    def neighbors_of(self, node):
        """Type-erased neighbor global ids (both directions), sorted unique."""
        g = node if isinstance(node, (int, np.integer)) else self.global_index(node)
        if g < 0 or g >= self.num_nodes:
            raise DataError("global index %d out of range" % g)
        return self._adj_indices[self._adj_indptr[g]:self._adj_indptr[g + 1]]


def _group_edges(endpoint_intra, count):
    # CSR-style grouping of edge ids by endpoint intra id
    order = np.argsort(endpoint_intra, kind="stable").astype(np.int64)
    return _indptr(endpoint_intra, count), order


def _ranges(starts, lengths):
    """Concatenated ``arange(s, s + l)`` over the pairs of ``starts`` and
    ``lengths``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    return (np.repeat(np.asarray(starts, dtype=np.int64) - (ends - lengths), lengths)
            + np.arange(int(ends[-1]) if len(ends) else 0))


def _unique(values):
    """``np.unique`` of a 1-D integer array, by one sort: on 180k int64 keys
    NumPy 2.4's hash-based ``np.unique`` took 167 ms and this 3 ms, on one
    CPU core."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])] if len(values) else values


def _indptr(ids, count):
    """CSR row pointer over ``count`` rows holding one entry per id."""
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=count), out=indptr[1:])
    return indptr


def _in_sorted(sorted_keys, queries):
    """Insertion positions of ``queries`` in ``sorted_keys`` and which are present."""
    pos = np.searchsorted(sorted_keys, queries)
    if not len(sorted_keys):
        return pos, np.zeros(np.shape(queries), dtype=bool)
    return pos, sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == queries


_KEY_SHIFT = np.int64(1 << 32)


def _pair_key(a, b):
    """1-D int64 key that orders (a, b) pairs lexicographically, for 0 <= b < 2**32."""
    return np.asarray(a, dtype=np.int64) * _KEY_SHIFT + np.asarray(b, dtype=np.int64)


# ---------------------------------------------------------------------------
# sampling


def minibatch_partition(graph, batch_size, rng_seed):
    """Shuffle all global node ids and split into chunks of ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if graph.num_nodes == 0:
        return []
    rng = derived_rng(TAG_PARTITION, rng_seed)
    perm = rng.permutation(graph.num_nodes).astype(np.int64)
    return [perm[i:i + batch_size] for i in range(0, len(perm), batch_size)]


def sample_subgraph(graph, seeds, degree_limit, rng_seed):
    """One-hop degree-limited neighborhood expansion around ``seeds``.

    For every (seed, relation) pair the incident edges are kept in full when
    there are at most ``degree_limit`` of them, otherwise exactly
    ``degree_limit`` are drawn without replacement. Retained nodes are the
    seeds plus endpoints of retained edges; retained edges are exactly the
    sampled ones (not the full induced subgraph).

    Every pair's incident edges are gathered from the CSR incidence in
    array passes. The pairs over the limit draw by ``seeding.choice_rows``,
    one call over each pair's ascending incident edge ids, in seed-major
    then relation order, so the draws are bit-identical to a per-pair
    ``rng.choice`` visiting every pair in that order.
    """
    if degree_limit < 1:
        raise ValueError("degree_limit must be >= 1")
    seeds = _normalize_ids(graph, seeds)
    if len(seeds) == 0:
        raise DataError("sample_subgraph requires at least one seed")
    types = graph.type_of_global(seeds)
    intra = seeds - graph.offsets[types]
    n_rel = graph.schema.num_relations
    # per relation, each role's (seed positions, first edge, edge count, order)
    runs = [[] for _ in range(n_rel)]
    counts = np.zeros((len(seeds), n_rel), dtype=np.int64)
    for r, pair in enumerate(graph.schema.pairs):
        for t, (indptr, order) in zip(pair, (graph._inc_src[r], graph._inc_dst[r])):
            at = np.flatnonzero(types == t)
            first = indptr[intra[at]]
            n = indptr[intra[at] + 1] - first
            counts[at, r] += n
            runs[r].append((at, first, n, order))
    over = counts > degree_limit
    # over-limit pairs numbered row-major (seed, then relation): the draw order
    n_over = np.count_nonzero(over)
    pair_of = np.full(over.shape, -1, dtype=np.int64)
    pair_of[over] = np.arange(n_over)
    kept = [[] for _ in range(n_rel)]
    pairs, edges = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r in range(n_rel):
        for at, first, n, order in runs[r]:
            big = over[at, r]
            kept[r].append(order[_ranges(first[~big], n[~big])])
            pairs.append(np.repeat(pair_of[at[big], r], n[big]))
            edges.append(order[_ranges(first[big], n[big])])
    # each over-limit pair's edge ids, both roles merged, ascending
    width = max(graph.num_edges, 1)
    owner, incident = np.divmod(np.sort(np.concatenate(pairs) * width + np.concatenate(edges)),
                                width)
    bounds = _indptr(owner, n_over)
    picks = choice_rows(derived_rng(TAG_SUBGRAPH, rng_seed), np.diff(bounds), degree_limit)
    drawn = incident[bounds[:-1, None] + picks]
    pair_rel = np.nonzero(over)[1]
    for r in range(n_rel):
        kept[r].append(drawn[pair_rel == r].ravel())
    nodes = [seeds]
    rel_pairs = []
    for r in range(n_rel):
        s_t, d_t = graph.schema.pairs[r]
        ids = _unique(np.concatenate([np.empty(0, dtype=np.int64)] + kept[r]))
        gs = graph.rel_src[r][ids] + graph.offsets[s_t]
        gd = graph.rel_dst[r][ids] + graph.offsets[d_t]
        rel_pairs.append((gs, gd))
        nodes.append(gs)
        nodes.append(gd)
    nodes = _unique(np.concatenate(nodes))
    node_types = graph.type_of_global(nodes)
    intra_ids = nodes - graph.offsets[node_types]
    boundaries = np.searchsorted(node_types, np.arange(graph.num_types + 1))
    type_slices = [(int(boundaries[t]), int(boundaries[t + 1])) for t in range(graph.num_types)]
    rel_src, rel_dst = [], []
    for gs, gd in rel_pairs:
        rel_src.append(np.searchsorted(nodes, gs).astype(np.int64))
        rel_dst.append(np.searchsorted(nodes, gd).astype(np.int64))
    seed_locals = np.searchsorted(nodes, seeds).astype(np.int64)
    return Subgraph(nodes=nodes, node_types=node_types, intra_ids=intra_ids,
                    type_slices=type_slices, seeds=seeds, seed_locals=seed_locals,
                    rel_src=rel_src, rel_dst=rel_dst)


def _normalize_ids(graph, ids):
    """Sorted unique global ids; any id outside the graph is a ``DataError``."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= graph.num_nodes)]
    if len(bad):
        raise DataError("global index %d out of range" % bad[0])
    return _unique(ids)


# ---------------------------------------------------------------------------
# increments


def apply_increment(graph, batch):
    """Append ``batch`` to ``graph`` and return (new_graph, stats).

    The rows meet ``_check_rows``'s rules, as a graph file's do; an error
    names them "increment", and an edge to a new node the batch does not
    list is dangling. A node without values has all-missing features, values
    without a mask are all present, duplicate edges are dropped with a
    warning, and existing rows are carried over untouched.
    """
    dim = graph.input_dim
    refs, values, masks = _columns(batch.new_nodes, 3)
    all_present = np.ones(dim, dtype=bool)
    nodes = (*_ref_columns(refs),
             _stack_rows([np.zeros(dim) if v is None else v for v in values], dim, np.float64),
             _stack_rows([~all_present if v is None else all_present if m is None else m
                          for v, m in zip(values, masks)], dim, bool))
    src, dst, rel, ts = _columns(batch.new_edges, 4)
    edges = (*_ref_columns(src), *_ref_columns(dst), np.array(rel, dtype=np.int64),
             np.array(ts, dtype=np.float64))
    nodes = _check_rows(graph, nodes, edges, lambda row: "increment")
    return _merge_rows(graph, nodes, edges, "increment")


def _columns(rows, width):
    """``rows`` as ``width`` columns; no rows give ``width`` empty ones."""
    return list(zip(*rows)) or [()] * width


def _ref_columns(refs):
    """(type, id) pairs as two int64 columns, six times faster than ``np.array``."""
    return np.fromiter(itertools.chain.from_iterable(refs), dtype=np.int64).reshape(-1, 2).T


def _stack_rows(rows, dim, dtype):
    """In-memory feature rows as one (len(rows), dim) block."""
    try:
        return np.array(rows, dtype=dtype).reshape(len(rows), dim)
    except ValueError:
        raise DataError("increment: every new node's features need %d values" % dim) from None


def _check_rows(graph, nodes, edges, where, implied=False):
    """Check node rows (types, ids, values, masks) and edge rows (src types,
    src ids, dst types, dst ids, relations, timestamps) that are to extend
    ``graph``, and return its new nodes in (type, id) order as (types, ids,
    values, masks, listed).

    The rules, in order: a node's type is known, its id non-negative, the
    node new and its present values finite; an edge's relation is known,
    its endpoint types match the schema, it is no self-loop and its
    timestamp finite; a node is listed once; each type's new ids extend its
    count with no gap; an edge's endpoints exist. With ``implied``, an
    endpoint beyond its type's count is a new node, without values unless a
    node row lists it. The first row that breaks the first broken rule
    raises a ``DataError`` that starts with ``where(row)``: node row j is
    ``row`` j, edge row k is -1 - k.
    """
    types, ids, values, masks = nodes
    src_t, src_i, dst_t, dst_i, rel, ts = edges
    counts = np.asarray(graph.counts, dtype=np.int64)

    node_rows, edge_rows = np.arange(len(ids)), -1 - np.arange(len(rel))

    def rule(bad, rows, message, *columns):
        hit = np.flatnonzero(bad)
        if len(hit):
            j = hit[0]
            raise DataError("%s: %s" % (where(rows[j]), message % tuple(c[j] for c in columns)))

    rule((types < 0) | (types >= graph.num_types), node_rows, "unknown node type %d", types)
    rule(ids < 0, node_rows, "negative node id (%d, %d)", types, ids)
    rule(ids < counts[types], node_rows, "new node (%d, %d) names an existing node", types, ids)
    rule((masks & ~np.isfinite(values)).any(axis=1), node_rows,
         "non-finite feature values for node (%d, %d)", types, ids)
    rule((rel < 0) | (rel >= graph.schema.num_relations), edge_rows, "unknown relation id %d", rel)
    s_t, d_t = np.array(graph.schema.pairs, dtype=np.int64).reshape(-1, 2)[rel].T
    rule((src_t != s_t) | (dst_t != d_t), edge_rows,
         "relation %d endpoint type mismatch: got (%d, %d), schema (%d, %d)",
         rel, src_t, dst_t, s_t, d_t)
    rule((src_t == dst_t) & (src_i == dst_i), edge_rows, "self-loop rejected: (%d, %d)",
         src_t, src_i)
    rule(~np.isfinite(ts), edge_rows, "non-finite timestamp %s", ts)

    # each new node once, with the row that names it: its node row, else the
    # first edge row that mentions it (edge row k's endpoints are 2k, 2k + 1)
    end_t, end_i = (np.stack(c, axis=1).ravel() for c in ((src_t, dst_t), (src_i, dst_i)))
    mention = np.flatnonzero(end_i >= counts[end_t]) if implied else np.empty(0, np.int64)
    new_t, new_i = (np.concatenate([c, e[mention]]) for c, e in ((types, end_t), (ids, end_i)))
    row = np.concatenate([node_rows, edge_rows[mention // 2]])
    order = np.lexsort((new_i, new_t))   # stable: node rows first, edge rows in order
    new_t, new_i, row = new_t[order], new_i[order], row[order]
    once = (np.diff(new_t, prepend=-1) != 0) | (np.diff(new_i, prepend=-1) != 0)
    again = np.zeros(len(ids), dtype=bool)
    again[row[~once & (row >= 0)]] = True   # a node's later rows; its first row sorts first
    rule(again, node_rows, "node (%d, %d) is listed twice", types, ids)
    new_t, new_i, row = new_t[once], new_i[once], row[once]
    start = np.searchsorted(new_t, new_t)   # where each type's run begins
    off = np.flatnonzero(new_i != counts[new_t] + np.arange(len(new_i)) - start)
    if len(off):
        p = off[0]
        have = new_i[new_t == new_t[p]]
        gap = counts[new_t[p]] + p - start[p]
        missing = np.setdiff1d(np.arange(gap, min(have[-1], gap + len(have) + 5)), have)
        raise DataError("%s: type %d: intra id gap; ids such as %s never appear"
                        % (where(row[p]), new_t[p], missing[:5].tolist()))
    grown = counts + np.bincount(new_t, minlength=graph.num_types)
    rule((src_i < 0) | (src_i >= grown[src_t]) | (dst_i < 0) | (dst_i >= grown[dst_t]), edge_rows,
         "dangling endpoint in edge (%d, %d) -> (%d, %d)", src_t, src_i, dst_t, dst_i)
    listed = row >= 0
    pick = np.where(listed, row, len(ids))   # an unlisted node reads an all-missing row
    pad = np.zeros((1, values.shape[1]))
    return new_t, new_i, np.vstack([values, pad])[pick], np.vstack([masks, pad > 0])[pick], listed


def _merge_rows(graph, nodes, edges, label):
    """``graph`` grown by rows that passed ``_check_rows``; returns (graph, stats).

    New nodes join their type's blocks. An edge the graph or an earlier row
    has is dropped with a warning that starts with ``label``. The adjacency,
    incidence and edge keys are merged from the parent's, not rebuilt.
    """
    types, _, values, masks, _ = nodes
    bounds = np.searchsorted(types, np.arange(graph.num_types + 1))
    feature_blocks, mask_blocks = (
        [np.concatenate([old, new[a:b]]) if b > a else old
         for old, a, b in zip(blocks, bounds, bounds[1:])]
        for blocks, new in ((graph.feature_blocks, values), (graph.mask_blocks, masks)))
    counts = [len(block) for block in feature_blocks]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    _, e_src, _, e_dst, rel, e_ts = edges
    rel_src, rel_dst, rel_ts, key_index, incidence = [], [], [], [], ([], [])
    delta = [np.empty(0, dtype=np.int64)]
    for r, (s_t, d_t) in enumerate(graph.schema.pairs):
        mine = np.flatnonzero(rel == r)
        keys, first = np.unique(_pair_key(e_src[mine], e_dst[mine]), return_index=True)
        pos, present = _in_sorted(graph._edge_key_index[r], keys)
        added = mine[np.sort(first[~present])]   # each new edge's first row
        src, dst = e_src[added], e_dst[added]
        n_old = len(graph.rel_src[r])
        rel_src.append(np.concatenate([graph.rel_src[r], src]))
        rel_dst.append(np.concatenate([graph.rel_dst[r], dst]))
        rel_ts.append(np.concatenate([graph.rel_ts[r], e_ts[added]]))
        incidence[0].append(_merge_groups(graph._inc_src[r], src, counts[s_t], n_old))
        incidence[1].append(_merge_groups(graph._inc_dst[r], dst, counts[d_t], n_old))
        key_index.append(np.insert(graph._edge_key_index[r], pos[~present], keys[~present]))
        gs, gd = src + offsets[s_t], dst + offsets[d_t]
        delta += [gs * offsets[-1] + gd, gd * offsets[-1] + gs]
    adjacency = _merge_adjacency(graph, offsets, _unique(np.concatenate(delta)))
    dropped = len(rel) - sum(len(s) for s in rel_src) + graph.num_edges
    if dropped:
        warnings.warn("%s: dropped %d duplicate edges" % (label, dropped))

    out = HeteroGraph.__new__(HeteroGraph)
    out.schema = graph.schema
    out.feature_blocks, out.mask_blocks = feature_blocks, mask_blocks
    out.rel_src, out.rel_dst, out.rel_ts = rel_src, rel_dst, rel_ts
    out._build_index(adjacency, incidence)
    out._edge_key_index = key_index
    return out, {"n_new_nodes": len(types), "n_new_edges": len(rel) - dropped,
                 "n_duplicate_edges_dropped": dropped}


def _merge_adjacency(graph, offsets, delta_keys):
    """The parent's CSR adjacency re-addressed to ``offsets`` with new pairs merged in.

    ``delta_keys`` are sorted unique ``row * N + col`` keys over the grown
    global index. Growing a type shifts the global ids of every later type by
    a constant, which keeps the parent's rows and each row's columns sorted;
    the new pairs are inserted in place, with no re-sort of the old ones.
    """
    n = int(offsets[-1])
    remap = id_remap(graph.counts, offsets)
    degree = np.diff(graph._adj_indptr)
    indices = remap[graph._adj_indices]
    pos, present = _in_sorted(np.repeat(remap, degree) * n + indices, delta_keys)
    rows, cols = np.divmod(delta_keys[~present], max(n, 1))
    counts = np.bincount(rows, minlength=n)
    counts[remap] += degree
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.insert(indices, pos[~present], cols)


def id_remap(counts, offsets):
    """Each global id of a graph with per-type ``counts``, re-addressed to a
    graph grown from it whose types start at ``offsets``."""
    return np.arange(sum(counts)) + np.repeat(offsets[:-1] - np.cumsum(counts) + counts, counts)


def _merge_groups(groups, endpoints, count, first_id):
    """Incidence grouping after appending edges ``first_id, first_id + 1, ...``.

    The appended ids are the largest, so each joins the end of its endpoint's
    group, in id order, exactly where a stable argsort would put it.
    """
    indptr, order = groups
    grown = np.concatenate([indptr, np.full(count + 1 - len(indptr), indptr[-1])])
    rank = np.argsort(endpoints, kind="stable")
    order = np.insert(order, grown[endpoints[rank] + 1], first_id + rank)
    return grown + _indptr(endpoints, count), order


# ---------------------------------------------------------------------------
# tabular IO


def _read(source):
    """A path's or an open stream's content, read once, as bytes (a text
    stream's text encoded as UTF-8)."""
    if hasattr(source, "read"):   # a stream stays open
        data = source.read()
        return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data
    try:
        with open(os.fspath(source), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (source, exc.strerror or exc)) from exc


def _rows(data, expected_fields, label):
    """The per-row reader: (line number, fields) of each line of ``data``
    that is neither blank nor a comment. A line ends at LF, CRLF or CR; a
    byte that is not UTF-8 is an error at its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start] + b"?").splitlines())   # the bad byte's line
        raise GraphFormatError("%s:%d: not UTF-8 text: byte 0x%02x"
                               % (label, lineno, data[exc.start])) from None
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != expected_fields:
            raise GraphFormatError("%s:%d: expected %d tab-separated fields, got %d"
                                   % (label, lineno, expected_fields, len(fields)))
        yield lineno, fields


def _parse_int(text, label, lineno, what):
    try:
        value = int(text)
    except ValueError:
        raise GraphFormatError("%s:%d: %s is not an integer: %r" % (label, lineno, what, text)) from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise GraphFormatError("%s:%d: %s is out of range: %r" % (label, lineno, what, text))
    return value


def _parse_float(text, label, lineno, what):
    try:
        return float(text)
    except ValueError:
        raise GraphFormatError("%s:%d: bad %s %r" % (label, lineno, what, text)) from None


def _edge_rows(data, label):
    """The per-row edges reader: (line numbers, (src types, src ids, dst
    types, dst ids, relations, timestamps)); an empty timestamp is 0, a
    non-finite one an error."""
    lines, ints, ts = [], [], []
    for lineno, f in _rows(data, 6, label):
        text = f[5].strip()
        value = _parse_float(text, label, lineno, "timestamp") if text else 0.0
        if not math.isfinite(value):
            raise GraphFormatError("%s:%d: bad timestamp %r" % (label, lineno, text))
        ints += (_parse_int(f[0], label, lineno, "src_type"),
                 _parse_int(f[1], label, lineno, "src_id"),
                 _parse_int(f[2], label, lineno, "dst_type"),
                 _parse_int(f[3], label, lineno, "dst_id"),
                 _parse_int(f[4], label, lineno, "relation_id"))
        lines.append(lineno)
        ts.append(value)
    return lines, tuple(np.array(ints, dtype=np.int64).reshape(-1, 5).T) + (np.array(ts),)


def parse_feature_cells(cells, label, lineno):
    """Feature cells as (values, mask); an empty cell is a missing value."""
    values = np.zeros(len(cells))
    mask = np.zeros(len(cells), dtype=bool)
    for j, cell in enumerate(cells):
        cell = cell.strip()
        if cell:
            values[j] = _parse_float(cell, label, lineno, "feature value")
            mask[j] = True
    return values, mask


def _feature_rows(data, label, dim=None):
    """The per-row features reader: (line numbers, (types, ids, values,
    masks)); each row has ``dim`` cells, by default the first's."""
    lines, ids, cells = [], [], []
    for lineno, f in _rows(data, 3, label):
        ids += (_parse_int(f[0], label, lineno, "node_type"),
                _parse_int(f[1], label, lineno, "node_id"))
        row = f[2].split(",")
        dim = len(row) if dim is None else dim
        if len(row) != dim:
            raise GraphFormatError("%s:%d: expected %d feature values, got %d"
                                   % (label, lineno, dim, len(row)))
        lines.append(lineno)
        cells.append(parse_feature_cells(row, label, lineno))
    if dim is None:
        raise DataError("%s: no feature rows; feature dimensionality is undefined" % label)
    values, masks = _columns(cells, 2)
    return lines, (*np.array(ids, dtype=np.int64).reshape(-1, 2).T,
                   np.array(values).reshape(len(lines), dim),
                   np.array(masks, dtype=bool).reshape(len(lines), dim))


def _translation(delimiters):
    """A ``bytes.translate`` table: number bytes to 0, each of ``delimiters``
    to itself, every other byte to 1."""
    table = bytearray(b"\x01" * 256)
    for c in b"0123456789+-.eE":
        table[c] = 0
    for c in delimiters:
        table[c] = c
    return bytes(table)


_EDGE_BYTES, _FEATURE_BYTES = _translation(b"\t\n"), _translation(b"\t\n,")


def _plain_layout(data, table, row):
    """The array path's check. If ``data`` holds only the number bytes and
    delimiters of ``table``, and every line's delimiters are exactly ``row``
    (so no line is blank or a comment), returns ``data`` ending in a newline
    and each delimiter's position, as a (lines, len(row)) array; else None."""
    if not data:
        return None
    data += b"" if data.endswith(b"\n") else b"\n"
    marks = np.frombuffer(data.translate(table), dtype=np.uint8)
    pos = np.flatnonzero(marks)
    n = len(pos) // len(row)
    if len(pos) != n * len(row) or marks[pos].tobytes() != row * n:
        return None
    return data, pos.reshape(n, len(row))


def _loadtxt(text, dtype, delimiter):
    """``text`` as rows of ``dtype`` by NumPy's C reader, or None if a cell
    does not parse (an empty cell does not). A warning counts as a failure:
    older NumPy releases parse an integer cell such as ``1.0`` through a
    float, with a ``DeprecationWarning``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=delimiter,
                              comments=None, ndmin=1)
        except (ValueError, Warning):
            return None


def _edge_array(data):
    """``_edge_rows`` in array passes, for an edges file in plain form with
    every field present and every timestamp finite; else None."""
    layout = _plain_layout(data, _EDGE_BYTES, b"\t" * 5 + b"\n")
    if layout is None:
        return None
    rows = _loadtxt(layout[0].decode("ascii"), [("ints", np.int64, (5,)), ("ts", np.float64)],
                    "\t")
    if rows is None or not np.isfinite(rows["ts"]).all():
        return None
    return range(1, len(rows) + 1), (*np.ascontiguousarray(rows["ints"].T), rows["ts"])


def _feature_array(data, dim=None):
    """``_feature_rows`` in array passes, for a features file in plain form
    whose types and ids are present; an empty cell is read as a 0 and
    masked. Else None."""
    if dim is None:   # the first line's cells
        end = data.find(b"\n")
        dim = data.count(b",", 0, end if end >= 0 else len(data)) + 1
    layout = _plain_layout(data, _FEATURE_BYTES, b"\t\t" + b"," * (dim - 1) + b"\n")
    if layout is None:
        return None
    data, pos = layout
    # a cell is empty where its delimiter directly follows the one before
    missing = pos[:, 2:] - pos[:, 1:-1] == 1
    text = np.insert(np.frombuffer(data, dtype=np.uint8), pos[:, 1:-1][missing] + 1, ord("0"))
    rows = _loadtxt(text.tobytes().replace(b"\t", b",").decode("ascii"),
                    [("type", np.int64), ("id", np.int64), ("values", np.float64, (dim,))], ",")
    if rows is None:
        return None
    return range(1, len(rows) + 1), (rows["type"], rows["id"], rows["values"], ~missing)


def _edge_columns(source, label):
    """An edges file as (line numbers, (src types, src ids, dst types, dst
    ids, relations, timestamps)): by ``_edge_array`` when the text is in
    plain form, else by the per-row ``_edge_rows``."""
    data = _read(source)
    return _edge_array(data) or _edge_rows(data, label)


def _label(source):
    return getattr(source, "name", None) or str(source)


def _feature_columns(source, dim=None):
    """A features file (or None) as (label, line numbers, (types, ids,
    values, masks)), by ``_feature_array`` when the text is in plain form,
    else by the per-row ``_feature_rows``; each row has ``dim`` cells, by
    default the first's."""
    label = _label(source)
    data = b"" if source is None else _read(source)
    return (label, *(_feature_array(data, dim) or _feature_rows(data, label, dim)))


def _checked_file_rows(graph, features, edges_source):
    """``_check_rows`` on ``_feature_columns`` output and an edges file, whose
    endpoints imply new nodes; an error names its file:line. Returns (new
    nodes, edge columns, the edges file's label)."""
    f_label, f_lines, nodes = features
    e_label = _label(edges_source)
    e_lines, edges = _edge_columns(edges_source, e_label)

    def where(row):
        return "%s:%d" % ((f_label, f_lines[row]) if row >= 0 else (e_label, e_lines[-1 - row]))
    return _check_rows(graph, nodes, edges, where, implied=True), edges, e_label


def load_schema(source):
    return _schema_rows(source)[1]


def _schema_rows(source):
    """A schema file as (the file:line of each relation, ``RelationSchema``)."""
    label = _label(source)
    rows, where = {}, {}
    for lineno, f in _rows(_read(source), 3, label):
        r = _parse_int(f[0], label, lineno, "relation_id")
        s = _parse_int(f[1], label, lineno, "src_type")
        t = _parse_int(f[2], label, lineno, "dst_type")
        if min(s, t) < 0:
            raise GraphFormatError("%s:%d: negative node type %d" % (label, lineno, min(s, t)))
        if r in rows:
            raise GraphFormatError("%s:%d: duplicate relation id %d" % (label, lineno, r))
        rows[r] = (s, t)
        where[r] = "%s:%d" % (label, lineno)
    if rows and sorted(rows) != list(range(len(rows))):
        raise DataError("%s: relation ids must be dense 0..%d, got %s"
                        % (label, len(rows) - 1, sorted(rows)))
    ids = range(len(rows))
    return [where[r] for r in ids], RelationSchema([rows[r] for r in ids])


def load_graph(edges, features, schema):
    """Assemble a ``HeteroGraph`` from edges/features TSV plus a schema, a
    path/stream or a parsed ``RelationSchema``.

    The files are an increment of the empty graph with ``max(schema types,
    1 + largest feature type)`` types and the first feature row's width,
    read as ``read_increment`` reads one and merged as ``apply_increment``
    merges one: errors name file:line, duplicate edges are dropped with a
    warning, and an edge-only node has all-missing features. Every type
    below a schema or feature row type is a schema endpoint or has a feature row.
    """
    if isinstance(schema, RelationSchema):
        relation_rows = ["relation %d" % r for r in range(schema.num_relations)]
    else:
        relation_rows, schema = _schema_rows(schema)
    features = _feature_columns(features)
    label, lines, (types, _, values, masks) = features
    # every type below the largest gets blocks, so a type past a gap is refused
    # before any block is allocated
    endpoints = np.array(schema.pairs, dtype=np.int64).reshape(-1, 2)
    known = _unique(np.concatenate([endpoints.ravel(), types[types >= 0]]))
    for where, tops in ((relation_rows.__getitem__, endpoints.max(axis=1, initial=0)),
                        (lambda j: "%s:%d" % (label, lines[j]), types)):
        gap = np.flatnonzero(np.searchsorted(known, tops) < tops)
        if len(gap):
            t = tops[gap[0]]
            missing = np.setdiff1d(np.arange(min(t, len(known) + 5)), known)[:5]
            raise DataError("%s: node type %d leaves a gap: types %s have no schema relation"
                            " and no feature row" % (where(gap[0]), t, missing.tolist()))
    n_types = max(schema.num_types, 1 + int(types.max()), 1)
    no_edge = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    empty = HeteroGraph(schema, [values[:0].copy()] * n_types, [masks[:0].copy()] * n_types,
                        [no_edge] * schema.num_relations)
    nodes, edge_columns, label = _checked_file_rows(empty, features, edges)
    return _merge_rows(empty, nodes, edge_columns, label)[0]


def write_schema(path, pairs):
    """Schema rows from (source type, target type) pairs, relation ids in order."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for r, (s, t) in enumerate(pairs):
            fh.write("%d\t%d\t%d\n" % (r, s, t))


def write_features(path, rows):
    """Feature rows from (type, id, values, mask) tuples; a masked value is an empty cell."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for t, i, values, mask in rows:
            cells = [repr(float(v)) if m else "" for v, m in zip(values, mask)]
            fh.write("%d\t%d\t%s\n" % (t, i, ",".join(cells)))


def write_edges(path, rows):
    """Edge rows from (src type, src id, dst type, dst id, relation, timestamp) tuples."""
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for st, si, dt, di, r, ts in rows:
            fh.write("%d\t%d\t%d\t%d\t%d\t%s\n" % (st, si, dt, di, r, repr(float(ts))))


def save_graph(graph, edges_path, features_path, schema_path):
    """Write a graph back out in the load_graph formats (lossless round trip)."""
    write_schema(schema_path, graph.schema.pairs)
    write_features(features_path, ((t, i, graph.feature_blocks[t][i], graph.mask_blocks[t][i])
                                   for t in range(graph.num_types) for i in range(graph.counts[t])))
    write_edges(edges_path, ((s_t, si, d_t, di, r, ts)
                             for r, (s_t, d_t) in enumerate(graph.schema.pairs)
                             for si, di, ts in zip(graph.rel_src[r], graph.rel_dst[r],
                                                   graph.rel_ts[r])))


def read_increment(graph, edges_source, features_source=None):
    """Parse increment files against a base graph into an ``IncrementBatch``.

    The rows meet ``_check_rows``'s rules, as a base graph file's do, and an
    error names its file:line. Ids at or beyond the base counts are new
    nodes, so a feature row for an existing node is an error; a new node
    with no feature row is listed as ``(ref, None, None)``. Empty
    timestamps parse as 0.
    """
    (types, ids, values, masks, listed), edges, _ = _checked_file_rows(
        graph, _feature_columns(features_source, graph.input_dim), edges_source)
    new_nodes = [(NodeRef(t, i), values[j], masks[j]) if listed[j] else (NodeRef(t, i), None, None)
                 for j, (t, i) in enumerate(zip(types.tolist(), ids.tolist()))]
    src_t, src_i, dst_t, dst_i, rel, ts = (c.tolist() for c in edges)
    new_edges = list(zip(map(NodeRef, src_t, src_i), map(NodeRef, dst_t, dst_i), rel, ts))
    return IncrementBatch(new_nodes=new_nodes, new_edges=new_edges, batch_time=max([0.0] + ts))
