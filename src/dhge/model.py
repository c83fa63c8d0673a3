"""Static heterogeneous graph encoder and its training loop.

The encoder fuses three branches computed over a sampled subgraph:

* an identity embedding (shared per-node table + per-type table),
* a stack of global linear attention (normalizer-factored, never forming
  the V x V score matrix) and per-relation softmax edge attention,
* a small symmetric-normalized graph convolution over the type-erased
  adjacency.

Training is unsupervised: observed edges score high, dynamically mined
same-type negatives score low.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import tensor as T
from .graph import DataError, NodeRef, minibatch_partition, sample_subgraph
from .seeding import (derived_rng, mix, TAG_DROPOUT, TAG_EMBED, TAG_NEGSAMPLE,
                      TAG_PARAM_INIT, TAG_SUBGRAPH)
from .tensor import Param, Tensor
from .timing import Stages


@dataclass
class ModelConfig:
    input_dim: int
    hidden_dim: int = 64
    num_gcn_layers: int = 2
    global_mix: float = 0.5             # weight on the linear-attention update vs raw features
    fusion_weights: tuple = (1.0, 1.0, 1.0)  # identity, edge-attention, gcn branches
    dropout: float = 0.0
    degree_limit: int = 10
    neg_pool_size: int = 32
    batch_size: int = 256
    input_activation: str = "identity"
    rng_seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be >= 1")
        if self.num_gcn_layers < 1:
            raise ValueError("num_gcn_layers must be >= 1")
        if not (0.0 <= self.global_mix <= 1.0):
            raise ValueError("global_mix must lie in [0, 1]")
        if len(self.fusion_weights) != 3 or not any(w != 0 for w in self.fusion_weights):
            raise ValueError("fusion_weights must be 3 values, not all zero")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.degree_limit < 1 or self.neg_pool_size < 1 or self.batch_size < 1:
            raise ValueError("degree_limit, neg_pool_size, batch_size must be >= 1")
        if self.input_activation not in ("identity", "relu"):
            raise ValueError("input_activation must be 'identity' or 'relu'")

    def to_items(self):
        return {
            "input_dim": self.input_dim, "hidden_dim": self.hidden_dim,
            "num_gcn_layers": self.num_gcn_layers, "global_mix": self.global_mix,
            "fusion_identity": self.fusion_weights[0], "fusion_edge": self.fusion_weights[1],
            "fusion_gcn": self.fusion_weights[2], "dropout": self.dropout,
            "degree_limit": self.degree_limit, "neg_pool_size": self.neg_pool_size,
            "batch_size": self.batch_size, "input_activation": self.input_activation,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_items(cls, items):
        conv = dict(items)
        return cls(
            input_dim=int(conv["input_dim"]), hidden_dim=int(conv["hidden_dim"]),
            num_gcn_layers=int(conv["num_gcn_layers"]), global_mix=float(conv["global_mix"]),
            fusion_weights=(float(conv["fusion_identity"]), float(conv["fusion_edge"]),
                            float(conv["fusion_gcn"])),
            dropout=float(conv["dropout"]), degree_limit=int(conv["degree_limit"]),
            neg_pool_size=int(conv["neg_pool_size"]), batch_size=int(conv["batch_size"]),
            input_activation=str(conv["input_activation"]), rng_seed=int(conv["rng_seed"]),
        )


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class ModelParams:
    """All trainable state, with a single shared per-node id table.

    The id table has ``id_capacity`` rows (>= max per-type node count); a node
    (t, i) embeds as ``id_table[i] + type_table[t]``, so distinct types may
    share id rows by design. ``ensure_id_capacity`` grows the table in place
    when increments add nodes.
    """

    def __init__(self, config, num_types, num_relations, id_capacity, init_seed=None):
        if num_types < 1:
            raise ValueError("num_types must be >= 1")
        if id_capacity < 1:
            raise ValueError("id_capacity must be >= 1")
        self.num_types = num_types
        self.num_relations = num_relations
        self.input_dim = config.input_dim
        self.hidden_dim = config.hidden_dim
        self.num_gcn_layers = config.num_gcn_layers
        seed = config.rng_seed if init_seed is None else init_seed
        rng = derived_rng(TAG_PARAM_INIT, seed)
        d_in, d = config.input_dim, config.hidden_dim
        self.input_weight = Param(_xavier(rng, d_in, d), "input_weight")
        self.input_bias = Param(np.zeros((1, d)), "input_bias")
        self.imputation_token = Param(np.zeros((1, d_in)), "imputation_token")
        self.id_table = Param(rng.normal(0.0, 0.1, size=(id_capacity, d)), "id_table")
        self.type_table = Param(rng.normal(0.0, 0.1, size=(num_types, d)), "type_table")
        self.attn_query = Param(_xavier(rng, d, d), "attn_query")
        self.attn_key = Param(_xavier(rng, d, d), "attn_key")
        self.attn_value = Param(_xavier(rng, d, d), "attn_value")
        self.type_query = [Param(_xavier(rng, d, d), "type_query_%d" % t) for t in range(num_types)]
        self.type_key = [Param(_xavier(rng, d, d), "type_key_%d" % t) for t in range(num_types)]
        self.type_value = [Param(_xavier(rng, d, d), "type_value_%d" % t) for t in range(num_types)]
        self.rel_factor = [Param(1.0, "rel_factor_%d" % r) for r in range(num_relations)]
        self.rel_attn = [Param(_xavier(rng, d, d), "rel_attn_%d" % r) for r in range(num_relations)]
        self.rel_msg = [Param(_xavier(rng, d, d), "rel_msg_%d" % r) for r in range(num_relations)]
        self.type_mix = [Param(0.5, "type_mix_%d" % t) for t in range(num_types)]
        self.gcn_weight = [Param(_xavier(rng, d, d), "gcn_weight_%d" % l)
                           for l in range(config.num_gcn_layers)]

    @property
    def id_capacity(self):
        return self.id_table.value.shape[0]

    def all_params(self):
        out = [self.input_weight, self.input_bias, self.imputation_token,
               self.id_table, self.type_table,
               self.attn_query, self.attn_key, self.attn_value]
        out += self.type_query + self.type_key + self.type_value
        out += self.rel_factor + self.rel_attn + self.rel_msg + self.type_mix
        out += self.gcn_weight
        return out

    def zero_grads(self):
        for p in self.all_params():
            p.zero_grad()

    def ensure_id_capacity(self, capacity, grow_seed=0):
        if capacity > self.id_capacity:
            self._set_id_rows(self.id_table.value, capacity, grow_seed)

    def _set_id_rows(self, rows, capacity, grow_seed):
        """Id table := ``rows`` then seeded draws up to ``capacity``, one array."""
        table = np.empty((capacity, self.hidden_dim))
        table[:len(rows)] = rows
        if capacity > len(rows):
            rng = derived_rng(TAG_PARAM_INIT, grow_seed, len(rows), capacity)
            table[len(rows):] = rng.normal(0.0, 0.1, size=(capacity - len(rows), self.hidden_dim))
        self.id_table.value = table
        self.id_table.grad = np.zeros(table.shape)

    def copy(self, id_capacity=0, grow_seed=0):
        """A deep copy whose id table has at least ``id_capacity`` rows, grown
        as ``ensure_id_capacity`` grows it but allocated once."""
        out = object.__new__(ModelParams)
        out.num_types = self.num_types
        out.num_relations = self.num_relations
        out.input_dim = self.input_dim
        out.hidden_dim = self.hidden_dim
        out.num_gcn_layers = self.num_gcn_layers
        for name in ("input_weight", "input_bias", "imputation_token",
                     "type_table", "attn_query", "attn_key", "attn_value"):
            setattr(out, name, _copy_param(getattr(self, name)))
        for name in ("type_query", "type_key", "type_value", "rel_factor",
                     "rel_attn", "rel_msg", "type_mix", "gcn_weight"):
            setattr(out, name, [_copy_param(p) for p in getattr(self, name)])
        out.id_table = Param(np.empty((0, self.hidden_dim)), self.id_table.name)
        out._set_id_rows(self.id_table.value, max(id_capacity, self.id_capacity), grow_seed)
        return out


def _copy_param(p):
    return Param(p.value, p.name)   # Param copies its value


class EmbeddingTable:
    """Per-node output vectors in per-type blocks, with a version tag."""

    def __init__(self, blocks, version=0, created_ms=None):
        self.blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        dims = {b.shape[1] for b in self.blocks}
        if len(dims) != 1:
            raise ValueError("embedding blocks disagree on dimensionality")
        self.version = int(version)
        self.created_ms = int(time.time() * 1000) if created_ms is None else int(created_ms)

    @property
    def dim(self):
        return self.blocks[0].shape[1]

    @property
    def counts(self):
        return [len(b) for b in self.blocks]

    def row(self, ref):
        return self.blocks[ref[0]][ref[1]]

    def dense(self):
        return np.concatenate(self.blocks, axis=0)

    def blocks_equal(self, other):
        return (len(self.blocks) == len(other.blocks) and
                all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks)))


# ---------------------------------------------------------------------------
# forward ops


def apply_dropout(t, rate, rng):
    """Inverted dropout with a fixed precomputed mask (gradient flows through)."""
    if rate <= 0.0:
        return t
    keep = (rng.random(t.value.shape) >= rate) / (1.0 - rate)
    return t * Tensor(keep)


def init_features(x_raw, mask, params, activation="identity", dropout=0.0, rng=None):
    """Impute missing coordinates with the learned token, then project.

    ``x_raw`` is (n, input_dim); ``mask`` is True where a value is present.
    Returns the projected (n, hidden_dim) tensor X_0.
    """
    x_raw = np.asarray(x_raw, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if x_raw.shape != mask.shape:
        raise DataError("feature/mask shape mismatch: %s vs %s" % (x_raw.shape, mask.shape))
    if x_raw.shape[1] != params.input_dim:
        raise DataError("feature dim %d != model input dim %d" % (x_raw.shape[1], params.input_dim))
    n = x_raw.shape[0]
    token = T.broadcast_rows(params.imputation_token, n)
    filled = T.where_mask(mask, Tensor(np.where(mask, x_raw, 0.0)), token)
    x0 = filled @ params.input_weight + params.input_bias
    if activation == "relu":
        x0 = T.relu(x0)
    elif activation != "identity":
        raise ValueError("unknown activation %r" % activation)
    if dropout > 0.0:
        x0 = apply_dropout(x0, dropout, rng)
    return x0


def identity_embed(node_types, intra_ids, params):
    """Shared id-table row plus type-table row for each node."""
    node_types = np.asarray(node_types, dtype=np.int64)
    intra_ids = np.asarray(intra_ids, dtype=np.int64)
    if len(intra_ids) and intra_ids.max() >= params.id_capacity:
        raise DataError("intra id %d beyond id table capacity %d"
                        % (int(intra_ids.max()), params.id_capacity))
    if len(node_types) and node_types.max() >= params.num_types:
        raise DataError("unknown node type %d" % int(node_types.max()))
    return T.gather_rows(params.id_table, intra_ids) + T.gather_rows(params.type_table, node_types)


def global_attention(x0, params, global_mix):
    """Linear-complexity global attention (normalizer-factored form).

    Queries and keys are Frobenius-normalized; the update is computed in the
    association order Q @ (K^T V) so cost stays O(n d^2) and the n x n score
    matrix never exists. With global_mix = 0 this is the identity on X_0.
    """
    n = x0.value.shape[0]
    q = T.fro_normalize(x0 @ params.attn_query)
    k = T.fro_normalize(x0 @ params.attn_key)
    v = x0 @ params.attn_value
    k_colsum = k.sum(axis=0, keepdims=True)            # (1, d)
    qk1 = q @ T.transpose(k_colsum)                    # (n, 1)
    denom = 1.0 + qk1 * (1.0 / n)
    if np.any(denom.value <= 0.0):
        raise T.NumericError("non-positive attention normalizer")
    ktv = T.transpose(k) @ v                           # (d, d)
    numer = v + (q @ ktv) * (1.0 / n)
    return (numer / denom) * global_mix + x0 * (1.0 - global_mix)


def edge_attention(g, sub, params, schema, dropout=0.0, rng=None):
    """Per-relation softmax attention over retained in-edges.

    Each relation r: s -> t projects sources with type-s key/value maps and
    targets with type-t query maps, bilinearly scores through the relation's
    matrix, softmax-normalizes per target, and aggregates transformed
    messages. Per-type output: beta_t * messages + (1 - beta_t) * g.
    """
    n = g.value.shape[0]
    d = params.hidden_dim
    scale = 1.0 / np.sqrt(d)
    q_parts, k_parts, v_parts = [], [], []
    for t in range(params.num_types):
        start, stop = sub.type_slices[t]
        rows = T.gather_rows(g, np.arange(start, stop))
        q_parts.append(rows @ params.type_query[t])
        k_parts.append(rows @ params.type_key[t])
        v_parts.append(rows @ params.type_value[t])
    q_all = T.concat_rows(q_parts)
    k_all = T.concat_rows(k_parts)
    v_all = T.concat_rows(v_parts)

    total = Tensor(np.zeros((n, d)))
    for r in range(schema.num_relations):
        src, dst = sub.rel_src[r], sub.rel_dst[r]
        if len(src) == 0:
            continue
        s_t, d_t = schema.pairs[r]
        if (np.any(sub.node_types[src] != s_t)) or (np.any(sub.node_types[dst] != d_t)):
            raise DataError("relation %d endpoint type mismatch in subgraph" % r)
        q_e = T.gather_rows(q_all, dst)
        k_e = T.gather_rows(k_all, src) @ params.rel_attn[r]
        logits = (q_e * k_e).sum(axis=1) * params.rel_factor[r] * scale
        attn = T.segment_softmax(logits, dst, n)
        msg = (T.gather_rows(v_all, src) @ params.rel_msg[r]) * T.reshape(attn, (len(src), 1))
        total = total + T.segment_sum(msg, dst, n)
    if dropout > 0.0:
        total = apply_dropout(total, dropout, rng)

    beta_parts = []
    for t in range(params.num_types):
        start, stop = sub.type_slices[t]
        beta_parts.append(T.broadcast_rows(T.reshape(params.type_mix[t], (1, 1)), stop - start))
    beta = T.concat_rows(beta_parts)                   # (n, 1)
    return beta * total + (1.0 - beta) * g


def normalized_adjacency(sub):
    """Symmetric-normalized type-erased adjacency with self-loops (scipy CSR)."""
    n = sub.num_nodes
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    for src, dst in zip(sub.rel_src, sub.rel_dst):
        rows.extend([src, dst])
        cols.extend([dst, src])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    a = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    a.sum_duplicates()
    a.data[:] = 1.0                                    # parallel relations collapse to one link
    dinv = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    return a.multiply(dinv[:, None]).multiply(dinv[None, :]).tocsr()


def gcn_forward(x0, sub, params):
    """Stacked graph convolution: relu between layers, final layer linear."""
    a_hat = normalized_adjacency(sub)
    h = x0
    last = params.num_gcn_layers - 1
    for l, w in enumerate(params.gcn_weight):
        h = T.spmm(a_hat, h) @ w
        if l != last:
            h = T.relu(h)
    return h


def fuse(z_id, z_edge, z_gcn, fusion_weights):
    w0, w1, w2 = fusion_weights
    return z_id * float(w0) + z_edge * float(w1) + z_gcn * float(w2)


def forward_subgraph(graph, sub, params, config, training=False, rng=None):
    """Full encoder over one sampled subgraph; returns (n, hidden_dim) tensor."""
    x_parts, m_parts = [], []
    for t in range(graph.num_types):
        start, stop = sub.type_slices[t]
        intra = sub.intra_ids[start:stop]
        x_parts.append(graph.feature_blocks[t][intra])
        m_parts.append(graph.mask_blocks[t][intra])
    x_raw = np.concatenate(x_parts, axis=0)
    mask = np.concatenate(m_parts, axis=0)
    drop = config.dropout if training else 0.0
    x0 = init_features(x_raw, mask, params, config.input_activation, drop, rng)
    g_t = global_attention(x0, params, config.global_mix)
    z_edge = edge_attention(g_t, sub, params, graph.schema, drop, rng)
    z_id = identity_embed(sub.node_types, sub.intra_ids, params)
    z_gcn = gcn_forward(x0, sub, params)
    return fuse(z_id, z_edge, z_gcn, config.fusion_weights)


# ---------------------------------------------------------------------------
# loss and negatives

# floats gathered per scoring chunk of the negative sampler (512 KiB)
_SCORE_CHUNK_FLOATS = 1 << 16


def edge_loss(z, pos_pairs, neg_pairs):
    """Negative log-likelihood of positives vs mined negatives (1:1).

    Scores are row dot products, clamped to [-30, 30] before the sigmoid for
    overflow safety. Both pair arrays hold local row indices into ``z``.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    neg_pairs = np.asarray(neg_pairs, dtype=np.int64).reshape(-1, 2)
    if len(pos_pairs) == 0:
        raise DataError("edge_loss requires at least one positive pair")
    if len(pos_pairs) != len(neg_pairs):
        raise DataError("positive/negative pair counts differ: %d vs %d"
                        % (len(pos_pairs), len(neg_pairs)))

    def _scores(pairs):
        zi = T.gather_rows(z, pairs[:, 0])
        zj = T.gather_rows(z, pairs[:, 1])
        return (zi * zj).sum(axis=1)

    pos_term = T.log_sigmoid(T.clamp(_scores(pos_pairs), -30.0, 30.0)).sum()
    neg_term = T.log_sigmoid(T.clamp(-_scores(neg_pairs), -30.0, 30.0)).sum()
    return -(pos_term + neg_term)


def dynamic_negative_sample(pos_pairs, emb, emb_ids, graph, pool_size, rng,
                            skip_exhausted=False):
    """Mine one hard negative per positive pair.

    For positive (i, j): draw up to ``pool_size`` candidates uniformly without
    replacement from nodes of j's type within ``emb_ids`` (ascending, unique)
    that are not i and share no edge with i, then keep the highest-scoring
    candidate under the current embeddings (ties broken toward the smallest
    global index). Scoring reads plain arrays, so selection never enters the
    gradient tape.

    A pair whose source already interacts with every candidate has no
    admissible negative: that raises by default, or marks the output row's
    second column -1 when ``skip_exhausted`` is set (the caller filters).

    The whole batch is handled in array passes; only the draws loop in
    Python, one ``rng.choice`` over candidate ranks per pair with more than
    ``pool_size`` candidates, in pair order, so a pair's draw is the one a
    per-pair ``rng.choice`` over its sorted candidate array would make.
    """
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    emb_ids = np.asarray(emb_ids, dtype=np.int64)
    src, dst = pos_pairs[:, 0], pos_pairs[:, 1]
    bad = (pos_pairs < 0) | (pos_pairs >= graph.num_nodes)
    if bad.any():
        raise DataError("global index %d out of range" % pos_pairs[bad][0])
    n, n_pairs = len(emb_ids), len(pos_pairs)

    # emb_ids is type-major, so each type's candidates are one slice of it
    bounds = np.searchsorted(emb_ids, graph.offsets)
    tau = graph.type_of_global(dst)
    lo, hi = bounds[tau], bounds[tau + 1]
    keys = _blocked_keys(graph, src, emb_ids, lo, hi)
    b_pair = keys // n
    n_blocked = np.bincount(b_pair, minlength=n_pairs)
    b_start = np.cumsum(n_blocked) - n_blocked
    n_cands = (hi - lo) - n_blocked
    # rank r sits at slice position r + #{blocked m: position_m - m <= r}
    gaps = b_pair * n + (keys % n - lo[b_pair]) - (np.arange(len(keys)) - b_start[b_pair])

    # candidate ranks: all of them, or a sorted draw of pool_size
    ranks = np.tile(np.arange(pool_size, dtype=np.int32), (n_pairs, 1))
    sizes = n_cands.tolist()
    for p in np.flatnonzero((n_cands > pool_size) | (n_cands == 0)).tolist():
        if sizes[p] == 0:
            if skip_exhausted:
                continue
            raise DataError("no admissible negative for pair (%d, %d): every candidate "
                            "of type %d interacts with the source" % (src[p], dst[p], tau[p]))
        ranks[p] = rng.choice(sizes[p], size=pool_size, replace=False)
    ranks.sort(axis=1)

    out = np.stack([src, np.full(n_pairs, -1, dtype=np.int64)], axis=1)
    live = np.flatnonzero(n_cands > 0)
    src_rows = np.searchsorted(emb_ids, src)
    step = max(1, _SCORE_CHUNK_FLOATS // (pool_size * emb.shape[1]))
    for c in range(0, len(live), step):
        p = live[c:c + step]
        r = ranks[p]
        valid = r < n_cands[p, None]
        shift = np.searchsorted(gaps, p[:, None] * n + r, side="right") - b_start[p, None]
        rows = np.where(valid, lo[p, None] + r + shift, lo[p, None])
        scores = np.einsum("cpd,cd->cp", emb[rows], emb[src_rows[p]])
        scores[~valid] = -np.inf
        best = rows[np.arange(len(p)), np.argmax(scores, axis=1)]   # first max = smallest id
        out[p, 1] = emb_ids[best]
    return out


def _blocked_keys(graph, src, emb_ids, lo, hi):
    """Sorted keys ``pair * len(emb_ids) + position`` of the candidates each
    pair's source blocks: its adjacency row and itself, where they fall in
    the pair's slice ``emb_ids[lo:hi]``."""
    indptr, indices = graph._adj_indptr, graph._adj_indices
    deg = indptr[src + 1] - indptr[src]
    pair = np.repeat(np.arange(len(src)), deg + 1)
    nth = np.arange(len(pair)) - np.repeat(np.cumsum(deg + 1) - (deg + 1), deg + 1)
    blocked = src[pair]
    row = nth < deg[pair]
    blocked[row] = indices[indptr[src][pair[row]] + nth[row]]
    at = np.searchsorted(emb_ids, blocked)
    keep = (at >= lo[pair]) & (at < hi[pair])
    keep[keep] = emb_ids[at[keep]] == blocked[keep]
    # adjacency rows are sorted, unique and never hold their own node, so the
    # keys are unique and each pair's run is sorted but for the source at its
    # end: a stable sort is near-linear on them
    return np.sort(pair[keep] * len(emb_ids) + at[keep], kind="stable")


# ---------------------------------------------------------------------------
# training and inference drivers


def _subgraph_positive_pairs(sub):
    parts_s = [s for s in sub.rel_src if len(s)]
    parts_d = [d for d in sub.rel_dst if len(d)]
    if not parts_s:
        return np.empty((0, 2), dtype=np.int64)
    return np.stack([np.concatenate(parts_s), np.concatenate(parts_d)], axis=1)


def train_epoch(graph, params, config, optimizer, epoch=0):
    """One pass of minibatch training; returns a metrics dict.

    Batches partition all nodes; each batch trains on the edges retained by
    its sampled subgraph. ``mean_loss`` is the summed loss divided by the
    number of scored pairs (positives plus negatives). ``stage_ms`` splits
    the wall time into sample, forward, negatives, loss, backward and step.
    """
    if graph.num_edges == 0:
        raise DataError("no training edges")
    t0 = time.perf_counter()
    stages = Stages()
    batches = minibatch_partition(graph, config.batch_size, mix(config.rng_seed, epoch))
    all_params = params.all_params()
    loss_sum = 0.0
    pair_count = 0
    skipped = 0
    saturated = 0
    for b, seed_ids in enumerate(batches):
        sub = sample_subgraph(graph, seed_ids, config.degree_limit,
                              mix(config.rng_seed, epoch, b, TAG_SUBGRAPH))
        pos_local = _subgraph_positive_pairs(sub)
        stages.lap("sample")
        if len(pos_local) == 0:
            skipped += 1
            continue
        rng = derived_rng(TAG_DROPOUT, config.rng_seed, epoch, b)
        z = forward_subgraph(graph, sub, params, config, training=True, rng=rng)
        stages.lap("forward")
        neg_rng = derived_rng(TAG_NEGSAMPLE, config.rng_seed, epoch, b)
        pos_global = sub.nodes[pos_local]
        neg_global = dynamic_negative_sample(pos_global, z.value, sub.nodes, graph,
                                             config.neg_pool_size, neg_rng,
                                             skip_exhausted=True)
        keep = neg_global[:, 1] >= 0
        saturated += int((~keep).sum())
        stages.lap("negatives")
        if not keep.any():
            skipped += 1
            continue
        pos_local = pos_local[keep]
        neg_global = neg_global[keep]
        neg_local = sub.local_index(neg_global.ravel()).reshape(-1, 2)
        loss = edge_loss(z, pos_local, neg_local)
        stages.lap("loss")
        params.zero_grads()
        T.backward(loss)
        stages.lap("backward")
        optimizer.step(all_params)
        stages.lap("step")
        loss_sum += float(loss.value)
        pair_count += 2 * len(pos_local)
    if pair_count == 0:
        raise DataError("no training edges retained in any batch")
    return {
        "epoch": int(epoch),
        "mean_loss": loss_sum / pair_count,
        "stage_ms": stages.ms,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "seed": int(config.rng_seed),
        "n_batches": len(batches),
        "n_pairs": int(pair_count),
        "n_skipped_batches": int(skipped),
        "n_saturated_pairs": int(saturated),
    }


def embed_all(graph, params, config, version=0):
    """Deterministic full-coverage inference; returns an ``EmbeddingTable``.

    Nodes are processed in fixed type-major chunks (no shuffling, dropout
    off), and each chunk writes embeddings for its seed nodes only, so two
    calls with identical inputs produce bit-identical blocks.
    """
    if graph.num_nodes == 0:
        raise DataError("cannot embed an empty graph")
    blocks = [np.zeros((graph.counts[t], config.hidden_dim)) for t in range(graph.num_types)]
    order = np.arange(graph.num_nodes, dtype=np.int64)
    for b in range(0, graph.num_nodes, config.batch_size):
        chunk = order[b:b + config.batch_size]
        sub = sample_subgraph(graph, chunk, config.degree_limit,
                              mix(config.rng_seed, b, TAG_EMBED))
        z = forward_subgraph(graph, sub, params, config, training=False)
        rows = z.value[sub.seed_locals]
        types = sub.node_types[sub.seed_locals]
        intras = sub.intra_ids[sub.seed_locals]
        for t in range(graph.num_types):
            pick = types == t
            blocks[t][intras[pick]] = rows[pick]
    return EmbeddingTable(blocks, version=version)
