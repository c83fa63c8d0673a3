"""Typed multigraph storage, TSV IO, neighborhood sampling, and increments.

Nodes are addressed by ``NodeRef(node_type, intra_id)``; intra ids are dense
per type, so node data lives in per-type blocks and appending new nodes never
renumbers existing ones. A *global index* (type-major: all of type 0, then
type 1, ...) is derived per graph version for dense matrix work.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .seeding import derived_rng, TAG_PARTITION, TAG_SUBGRAPH


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

    def src_type(self, r):
        return self.pairs[r][0]

    def dst_type(self, r):
        return self.pairs[r][1]

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


def graphs_equal(a, b):
    """Structural equality: schema, blocks, and edge sets (order-insensitive)."""
    if a.schema != b.schema or a.counts != b.counts:
        return False
    for fa, fb, ma, mb in zip(a.feature_blocks, b.feature_blocks, a.mask_blocks, b.mask_blocks):
        if not (np.array_equal(fa, fb) and np.array_equal(ma, mb)):
            return False
    for r in range(a.schema.num_relations):
        ea = np.stack([a.rel_src[r], a.rel_dst[r]], axis=1)
        eb = np.stack([b.rel_src[r], b.rel_dst[r]], axis=1)
        if ea.shape != eb.shape:
            return False
        ia = np.lexsort((a.rel_dst[r], a.rel_src[r]))
        ib = np.lexsort((b.rel_dst[r], b.rel_src[r]))
        if not np.array_equal(ea[ia], eb[ib]):
            return False
        if not np.array_equal(a.rel_ts[r][ia], b.rel_ts[r][ib]):
            return False
    return True


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
    array passes. Only a pair over the limit pays per pair: one
    ``rng.choice`` over its ascending incident edge ids, in seed-major then
    relation order, so the draws are bit-identical to visiting every pair
    in that order.
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
    rng = derived_rng(TAG_SUBGRAPH, rng_seed)
    for p, r in enumerate(np.nonzero(over)[1].tolist()):
        draw = rng.choice(incident[bounds[p]:bounds[p + 1]], size=degree_limit, replace=False)
        kept[r].append(np.sort(draw))
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

    New intra ids must continue each type's range contiguously. Duplicate
    edges (against the base graph or within the batch) are dropped with a
    warning; self-loops and dangling endpoints are errors. Existing node
    indices and all existing rows are carried over untouched.
    """
    counts = list(graph.counts)
    dim = graph.input_dim
    per_type_new = [[] for _ in range(graph.num_types)]
    seen_new = set()
    for ref, values, mask in batch.new_nodes:
        t, i = int(ref[0]), int(ref[1])
        if t < 0 or t >= graph.num_types:
            raise DataError("unknown node type %d in increment" % t)
        if (t, i) in seen_new:
            raise DataError("duplicate new node (%d, %d) in increment" % (t, i))
        seen_new.add((t, i))
        if i < counts[t]:
            raise DataError("new node (%d, %d) already exists" % (t, i))
        if values is None:
            values = np.zeros(dim)
            mask = np.zeros(dim, dtype=bool)
        else:
            values = np.asarray(values, dtype=np.float64)
            if mask is None:
                mask = np.ones(dim, dtype=bool)
            else:
                mask = np.asarray(mask, dtype=bool)
            if values.shape != (dim,) or mask.shape != (dim,):
                raise DataError("new node (%d, %d): feature shape %s != (%d,)" % (t, i, values.shape, dim))
            if not np.all(np.isfinite(values[mask])):
                raise DataError("new node (%d, %d): non-finite feature values" % (t, i))
        per_type_new[t].append((i, values, mask))

    feature_blocks = []
    mask_blocks = []
    new_counts = list(counts)
    for t in range(graph.num_types):
        entries = sorted(per_type_new[t])
        ids = [e[0] for e in entries]
        if ids != list(range(counts[t], counts[t] + len(ids))):
            raise DataError("type %d: new intra ids %s do not contiguously extend count %d"
                            % (t, ids, counts[t]))
        new_counts[t] = counts[t] + len(ids)
        if entries:
            feature_blocks.append(np.concatenate(
                [graph.feature_blocks[t], np.stack([e[1] for e in entries])], axis=0))
            mask_blocks.append(np.concatenate(
                [graph.mask_blocks[t], np.stack([e[2] for e in entries])], axis=0))
        else:
            feature_blocks.append(graph.feature_blocks[t])
            mask_blocks.append(graph.mask_blocks[t])

    n_rel = graph.schema.num_relations
    # the checked edges as four columns: no tuple per edge, which would make
    # a large batch churn the garbage collector
    rel, e_src, e_dst, e_ts = [], [], [], []
    for src_ref, dst_ref, r, ts in batch.new_edges:
        r = int(r)
        if r < 0 or r >= n_rel:
            raise DataError("unknown relation id %d in increment" % r)
        s_t, d_t = graph.schema.pairs[r]
        st, si = int(src_ref[0]), int(src_ref[1])
        dt, di = int(dst_ref[0]), int(dst_ref[1])
        if st != s_t or dt != d_t:
            raise DataError("relation %d endpoint type mismatch: got (%d, %d), schema (%d, %d)"
                            % (r, st, dt, s_t, d_t))
        if si < 0 or si >= new_counts[st] or di < 0 or di >= new_counts[dt]:
            raise DataError("dangling endpoint in increment edge (%d,%d)->(%d,%d)" % (st, si, dt, di))
        if st == dt and si == di:
            raise DataError("self-loop rejected in increment: (%d, %d)" % (st, si))
        rel.append(r)
        e_src.append(si)
        e_dst.append(di)
        e_ts.append(float(ts))
    rel, e_src, e_dst = (np.asarray(c, dtype=np.int64) for c in (rel, e_src, e_dst))
    e_ts = np.asarray(e_ts, dtype=np.float64)
    # an edge is a duplicate if the base graph or an earlier batch edge has it
    mine = [np.flatnonzero(rel == r) for r in range(n_rel)]
    keep = np.zeros(len(rel), dtype=bool)
    for r in range(n_rel):
        keys = _pair_key(e_src[mine[r]], e_dst[mine[r]])
        order = np.argsort(keys, kind="stable")
        earliest = np.ones(len(keys), dtype=bool)
        earliest[order[1:]] = keys[order[1:]] != keys[order[:-1]]
        keep[mine[r]] = earliest & ~_in_sorted(graph._edge_key_index[r], keys)[1]
    dropped = len(rel) - int(keep.sum())
    if dropped:
        warnings.warn("increment: dropped %d duplicate edges" % dropped)

    offsets = np.concatenate([[0], np.cumsum(new_counts)]).astype(np.int64)
    rel_src, rel_dst, rel_ts, key_index = [], [], [], []
    incidence = ([], [])
    delta = [np.empty(0, dtype=np.int64)]
    for r in range(n_rel):
        s_t, d_t = graph.schema.pairs[r]
        added = mine[r][keep[mine[r]]]
        src, dst = e_src[added], e_dst[added]
        first = len(graph.rel_src[r])
        rel_src.append(np.concatenate([graph.rel_src[r], src]))
        rel_dst.append(np.concatenate([graph.rel_dst[r], dst]))
        rel_ts.append(np.concatenate([graph.rel_ts[r], e_ts[added]]))
        incidence[0].append(_merge_groups(graph._inc_src[r], src, new_counts[s_t], first))
        incidence[1].append(_merge_groups(graph._inc_dst[r], dst, new_counts[d_t], first))
        keys = graph._edge_key_index[r]
        if len(src):
            fresh = np.sort(_pair_key(src, dst))
            keys = np.insert(keys, np.searchsorted(keys, fresh), fresh)
        key_index.append(keys)
        gs, gd = src + offsets[s_t], dst + offsets[d_t]
        delta += [gs * offsets[-1] + gd, gd * offsets[-1] + gs]
    adjacency = _merge_adjacency(graph, offsets, _unique(np.concatenate(delta)))

    out = HeteroGraph.__new__(HeteroGraph)
    out.schema = graph.schema
    out.feature_blocks, out.mask_blocks = feature_blocks, mask_blocks
    out.rel_src, out.rel_dst, out.rel_ts = rel_src, rel_dst, rel_ts
    out._build_index(adjacency, incidence)
    out._edge_key_index = key_index
    stats = {"n_new_nodes": len(batch.new_nodes),
             "n_new_edges": len(rel) - dropped,
             "n_duplicate_edges_dropped": dropped}
    return out, stats


def _merge_adjacency(graph, offsets, delta_keys):
    """The parent's CSR adjacency re-addressed to ``offsets`` with new pairs merged in.

    ``delta_keys`` are sorted unique ``row * N + col`` keys over the grown
    global index. Growing a type shifts the global ids of every later type by
    a constant, which keeps the parent's rows and each row's columns sorted;
    the new pairs are inserted in place, with no re-sort of the old ones.
    """
    n = int(offsets[-1])
    remap = np.arange(graph.num_nodes, dtype=np.int64) + np.repeat(
        offsets[:-1] - graph.offsets[:-1], graph.counts)
    degree = np.diff(graph._adj_indptr)
    indices = remap[graph._adj_indices]
    pos, present = _in_sorted(np.repeat(remap, degree) * n + indices, delta_keys)
    rows, cols = np.divmod(delta_keys[~present], max(n, 1))
    counts = np.bincount(rows, minlength=n)
    counts[remap] += degree
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, np.insert(indices, pos[~present], cols)


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


def _open_text(source, mode="r"):
    if hasattr(source, "read") or hasattr(source, "write"):
        return source, False
    try:
        return open(os.fspath(source), mode, encoding="utf-8"), True
    except OSError as exc:
        raise DataError("cannot open %s: %s" % (source, exc.strerror or exc)) from exc


def _rows(source, expected_fields, label):
    fh, owned = _open_text(source)
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != expected_fields:
                raise GraphFormatError("%s:%d: expected %d tab-separated fields, got %d"
                                       % (label, lineno, expected_fields, len(fields)))
            yield lineno, fields
    finally:
        if owned:
            fh.close()


def _parse_int(text, label, lineno, what):
    try:
        return int(text)
    except ValueError:
        raise GraphFormatError("%s:%d: %s is not an integer: %r" % (label, lineno, what, text)) from None


def _parse_float(text, label, lineno, what):
    try:
        return float(text)
    except ValueError:
        raise GraphFormatError("%s:%d: bad %s %r" % (label, lineno, what, text)) from None


def _edge_rows(source, label):
    """Yield (lineno, (src_type, src_id, dst_type, dst_id, relation_id, ts)).

    An empty timestamp cell parses as 0.
    """
    for lineno, f in _rows(source, 6, label):
        ts_text = f[5].strip()
        yield lineno, (_parse_int(f[0], label, lineno, "src_type"),
                       _parse_int(f[1], label, lineno, "src_id"),
                       _parse_int(f[2], label, lineno, "dst_type"),
                       _parse_int(f[3], label, lineno, "dst_id"),
                       _parse_int(f[4], label, lineno, "relation_id"),
                       _parse_float(ts_text, label, lineno, "timestamp") if ts_text else 0.0)


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


def _feature_rows(source, label, dim=None):
    """Yield (lineno, node_type, node_id, values, mask) per feature row.

    Every row must have ``dim`` cells (the first row's count when ``dim`` is
    None), and a node may have only one row.
    """
    seen = set()
    for lineno, f in _rows(source, 3, label):
        t = _parse_int(f[0], label, lineno, "node_type")
        i = _parse_int(f[1], label, lineno, "node_id")
        cells = f[2].split(",")
        if dim is None:
            dim = len(cells)
        elif len(cells) != dim:
            raise GraphFormatError("%s:%d: expected %d feature values, got %d"
                                   % (label, lineno, dim, len(cells)))
        values, mask = parse_feature_cells(cells, label, lineno)
        if (t, i) in seen:
            raise DataError("%s:%d: duplicate feature row for node (%d, %d)" % (label, lineno, t, i))
        seen.add((t, i))
        yield lineno, t, i, values, mask


def _schema_edge_rows(source, label, schema):
    """The rows of ``_edge_rows``, each checked to fit ``schema``: a known
    relation with its endpoint types, no self-loop, no negative node id."""
    for lineno, row in _edge_rows(source, label):
        st, si, dt, di, r, _ = row
        if r < 0 or r >= schema.num_relations:
            raise DataError("%s:%d: unknown relation id %d" % (label, lineno, r))
        s_t, d_t = schema.pairs[r]
        if st != s_t or dt != d_t:
            raise DataError("%s:%d: relation %d endpoint type mismatch: got (%d, %d), schema (%d, %d)"
                            % (label, lineno, r, st, dt, s_t, d_t))
        if st == dt and si == di:
            raise DataError("%s:%d: self-loop rejected" % (label, lineno))
        if si < 0 or di < 0:
            raise GraphFormatError("%s:%d: negative node id" % (label, lineno))
        yield row


def load_schema(source):
    label = getattr(source, "name", None) or str(source)
    rows = {}
    for lineno, f in _rows(source, 3, label):
        r = _parse_int(f[0], label, lineno, "relation_id")
        s = _parse_int(f[1], label, lineno, "src_type")
        t = _parse_int(f[2], label, lineno, "dst_type")
        if r in rows:
            raise GraphFormatError("%s:%d: duplicate relation id %d" % (label, lineno, r))
        rows[r] = (s, t)
    if rows and sorted(rows) != list(range(len(rows))):
        raise DataError("%s: relation ids must be dense 0..%d, got %s"
                        % (label, len(rows) - 1, sorted(rows)))
    return RelationSchema([rows[r] for r in range(len(rows))])


def load_graph(edges, features, schema):
    """Assemble a ``HeteroGraph`` from edges/features TSV plus a schema.

    ``schema`` may be a path/stream or an already-parsed ``RelationSchema``.
    Node counts are inferred from the union of ids mentioned anywhere; a gap
    in any type's intra ids is an error. Duplicate edges are dropped with a
    warning. Empty timestamps parse as 0.
    """
    if not isinstance(schema, RelationSchema):
        schema = load_schema(schema)

    feat_label = getattr(features, "name", None) or str(features)
    feat_rows = {}
    for lineno, t, i, values, mask in _feature_rows(features, feat_label):
        if t < 0 or i < 0:
            raise GraphFormatError("%s:%d: negative node address" % (feat_label, lineno))
        feat_rows[(t, i)] = (values, mask)
    if not feat_rows:
        raise DataError("%s: no feature rows; feature dimensionality is undefined" % feat_label)
    dim = len(values)   # the same for every row

    edge_label = getattr(edges, "name", None) or str(edges)
    edge_rows = list(_schema_edge_rows(edges, edge_label, schema))

    # edge endpoint types are schema types, so features and schema bound the count
    num_types = max(schema.num_types, 1 + max(t for t, _ in feat_rows))
    seen = [set() for _ in range(num_types)]
    for (t, i) in feat_rows:
        seen[t].add(i)
    for st, si, dt, di, r, ts in edge_rows:
        seen[st].add(si)
        seen[dt].add(di)
    counts = []
    for t in range(num_types):
        if seen[t]:
            top = max(seen[t])
            if len(seen[t]) != top + 1:
                missing = sorted(set(range(top + 1)) - seen[t])[:5]
                raise DataError("type %d: intra id gap; ids such as %s never appear" % (t, missing))
            counts.append(top + 1)
        else:
            counts.append(0)

    feature_blocks = [np.zeros((counts[t], dim)) for t in range(num_types)]
    mask_blocks = [np.zeros((counts[t], dim), dtype=bool) for t in range(num_types)]
    for (t, i), (values, mask) in feat_rows.items():
        feature_blocks[t][i] = values
        mask_blocks[t][i] = mask

    keys = set()
    rel_edges = [([], [], []) for _ in range(schema.num_relations)]
    dropped = 0
    for st, si, dt, di, r, ts in edge_rows:
        key = (r, si, di)
        if key in keys:
            dropped += 1
            continue
        keys.add(key)
        rel_edges[r][0].append(si)
        rel_edges[r][1].append(di)
        rel_edges[r][2].append(ts)
    if dropped:
        warnings.warn("%s: dropped %d duplicate edges" % (edge_label, dropped))

    rel_arrays = [(np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64),
                   np.asarray(ts, dtype=np.float64)) for s, d, ts in rel_edges]
    return HeteroGraph(schema, feature_blocks, mask_blocks, rel_arrays)


def save_graph(graph, edges_path, features_path, schema_path):
    """Write a graph back out in the load_graph formats (lossless round trip)."""
    with open(os.fspath(schema_path), "w", encoding="utf-8") as fh:
        for r, (s, t) in enumerate(graph.schema.pairs):
            fh.write("%d\t%d\t%d\n" % (r, s, t))
    with open(os.fspath(features_path), "w", encoding="utf-8") as fh:
        for t in range(graph.num_types):
            fb, mb = graph.feature_blocks[t], graph.mask_blocks[t]
            for i in range(graph.counts[t]):
                cells = [repr(float(fb[i, j])) if mb[i, j] else "" for j in range(graph.input_dim)]
                fh.write("%d\t%d\t%s\n" % (t, i, ",".join(cells)))
    with open(os.fspath(edges_path), "w", encoding="utf-8") as fh:
        for r in range(graph.schema.num_relations):
            s_t, d_t = graph.schema.pairs[r]
            for si, di, ts in zip(graph.rel_src[r], graph.rel_dst[r], graph.rel_ts[r]):
                fh.write("%d\t%d\t%d\t%d\t%d\t%s\n" % (s_t, si, d_t, di, r, repr(float(ts))))


def read_increment(graph, edges_source, features_source=None):
    """Parse increment files against a base graph into an ``IncrementBatch``.

    Node ids at or beyond the base counts are new nodes; a feature row for an
    existing node is an error (features are immutable once loaded). New nodes
    that appear only as edge endpoints get all-missing features.
    """
    new_feats = {}
    if features_source is not None:
        label = getattr(features_source, "name", None) or str(features_source)
        for lineno, t, i, values, mask in _feature_rows(features_source, label, graph.input_dim):
            if t < 0 or t >= graph.num_types:
                raise DataError("%s:%d: unknown node type %d" % (label, lineno, t))
            if i < graph.counts[t]:
                raise DataError("%s:%d: feature row for existing node (%d, %d)" % (label, lineno, t, i))
            new_feats[(t, i)] = (values, mask)

    label = getattr(edges_source, "name", None) or str(edges_source)
    new_edges = []
    mentioned = set()
    max_ts = 0.0
    for st, si, dt, di, r, ts in _schema_edge_rows(edges_source, label, graph.schema):
        max_ts = max(max_ts, ts)
        new_edges.append((NodeRef(st, si), NodeRef(dt, di), r, ts))
        for (t, i) in ((st, si), (dt, di)):
            if i >= graph.counts[t]:
                mentioned.add((t, i))

    node_keys = sorted(mentioned | set(new_feats))
    new_nodes = []
    for (t, i) in node_keys:
        values, mask = new_feats.get((t, i), (None, None))
        new_nodes.append((NodeRef(t, i), values, mask))
    return IncrementBatch(new_nodes=new_nodes, new_edges=new_edges, batch_time=max_ts)
