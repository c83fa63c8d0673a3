"""Independent reference implementations used to verify derived values.

Everything here is written the slow, obvious way on dense arrays, using
only numpy/scipy, with no imports from the package's numeric code, so a
bug in a fast path cannot hide inside its own checker. Exceptions: the
batch LLE oracle reuses the package's weight solve, which is itself checked
against ``constrained_weights``; ``replay_graph`` rebuilds a snapshot
version's graph with the package's TSV loaders, which the graph tests check
on their own; the ``*_loop`` oracles are the per-pair and per-node
loops that batched paths replaced, kept as exact references. They read the
graph through its per-node accessors or raw edge arrays and draw from
``dhge.seeding``'s ``derived_rng`` / ``mix``, thin wrappers of NumPy's
``SeedSequence``. ``embed_all_full_rows`` runs the package's full-row
forward, which the dense oracles here check layer by layer.
``retrieve_full_load`` is the read path ``cmd_retrieve`` replaced: the
package's full graph and table loads, then the full-sort ``_cosine_topk_ref``
that ``cosine_topk``'s partial selection replaced. ``solve_ridge``,
``graphs_equal`` and ``blocks_equal`` are test helpers over the package's
weight solve, graphs and tables.
``hitrate_at_k``, ``recall_at_k`` and ``ndcg_at_k`` are the per-user
metric definitions over ranked lists and truth sets that the evaluation's
relevance-matrix core replaced; ``evaluate_loop`` scores with them.
``embed_increment_sweeps`` is the iteration that the coupled direct solve
replaced, kept as the reference for that re-baseline; ``reaching_dijkstra``
is the shortest-path search that its reachability pass replaced.
``load_graph_sets`` is the set-based loader that ``load_graph`` replaced;
it and ``apply_increment_loop`` share the package's TSV row parsers and
``HeteroGraph`` constructor, whose index build the graph tests check.
"""
import os

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.spatial.distance
import scipy.special


def fd_gradient(f, x, h=1e-5):
    """Central finite-difference gradient of scalar ``f`` at array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(np.linalg.norm(want.ravel()), 1e-12)
    return np.linalg.norm((got - want).ravel()) / denom


def dense_global_attention(x0, wq, wk, wv, mix):
    """Quadratic-cost global attention with the score matrix materialized."""
    n = x0.shape[0]
    q = x0 @ wq
    q = q / np.linalg.norm(q)
    k = x0 @ wk
    k = k / np.linalg.norm(k)
    v = x0 @ wv
    dots = q @ k.T                                    # (n, n), the part the
    numer = v + (dots @ v) / n                        # fast path never builds
    denom = 1.0 + dots.sum(axis=1, keepdims=True) / n
    out = numer / denom
    return mix * out + (1.0 - mix) * x0


def dense_edge_attention(g, node_types, edges_by_relation, schema_pairs,
                         type_query, type_key, type_value,
                         rel_attn, rel_msg, rel_factor, type_mix):
    """Masked dense softmax-attention aggregation, one score matrix per relation.

    ``edges_by_relation[r]`` is a list of (src_local, dst_local) pairs.
    Softmax is taken per (relation, target) over that relation's in-edges;
    relations aggregate additively; per-type residual gate at the end.
    """
    n, d = g.shape
    q = np.zeros((n, d))
    k = np.zeros((n, d))
    v = np.zeros((n, d))
    for i in range(n):
        t = int(node_types[i])
        q[i] = g[i] @ type_query[t]
        k[i] = g[i] @ type_key[t]
        v[i] = g[i] @ type_value[t]
    total = np.zeros((n, d))
    scale = 1.0 / np.sqrt(d)
    for r, edges in enumerate(edges_by_relation):
        if not len(edges):
            continue
        scores = np.full((n, n), -np.inf)
        for src, dst in edges:
            scores[dst, src] = (q[dst] @ (k[src] @ rel_attn[r])) * rel_factor[r] * scale
        for dst in range(n):
            row = scores[dst]
            finite = np.isfinite(row)
            if not finite.any():
                continue
            e = np.exp(row[finite] - row[finite].max())
            alpha = e / e.sum()
            srcs = np.flatnonzero(finite)
            for a, src in zip(alpha, srcs):
                total[dst] += a * (v[src] @ rel_msg[r])
    out = np.zeros((n, d))
    for i in range(n):
        beta = float(type_mix[int(node_types[i])])
        out[i] = beta * total[i] + (1.0 - beta) * g[i]
    return out


def dense_normalized_adjacency(n, edges_by_relation):
    """Self-looped, symmetrized, deduplicated D^-1/2 A D^-1/2 as a dense array."""
    a = np.eye(n)
    for edges in edges_by_relation:
        for src, dst in edges:
            a[src, dst] = 1.0
            a[dst, src] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return a * dinv[:, None] * dinv[None, :]


def dense_gcn(x0, n, edges_by_relation, weights):
    a_hat = dense_normalized_adjacency(n, edges_by_relation)
    h = x0
    for l, w in enumerate(weights):
        h = a_hat @ h @ w
        if l != len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def log_sigmoid_ref(x):
    return scipy.special.log_expit(np.asarray(x, dtype=np.float64))


def pair_loss_ref(z, pos_pairs, neg_pairs, clip=30.0):
    """Scalar link-prediction loss computed with scipy's log-expit."""
    z = np.asarray(z, dtype=np.float64)
    total = 0.0
    for i, j in np.asarray(pos_pairs).reshape(-1, 2):
        s = np.clip(z[i] @ z[j], -clip, clip)
        total -= float(log_sigmoid_ref(s))
    for i, j in np.asarray(neg_pairs).reshape(-1, 2):
        s = np.clip(z[i] @ z[j], -clip, clip)
        total -= float(log_sigmoid_ref(-s))
    return total


def dynamic_negative_sample_loop(pos_pairs, emb, emb_ids, graph, pool_size, rng,
                                 skip_exhausted=False):
    """Hard negatives mined one positive pair at a time.

    Per pair: ``setdiff1d`` of the target type's ``emb_ids`` against the
    source's neighbors and itself, a sorted ``rng.choice`` of ``pool_size``
    when more remain, one matrix-vector score, the first argmax. Exhausted
    pairs raise ``DataError`` or get -1 under ``skip_exhausted``.
    """
    from dhge.graph import DataError
    pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
    emb_ids = np.asarray(emb_ids, dtype=np.int64)
    types = graph.type_of_global(emb_ids)
    by_type = [emb_ids[types == t] for t in range(graph.num_types)]
    out = np.empty_like(pos_pairs)
    for idx, (gi, gj) in enumerate(pos_pairs):
        tau = int(graph.type_of_global(gj))
        blocked = np.append(graph.neighbors_of(int(gi)), gi)
        cands = np.setdiff1d(by_type[tau], blocked, assume_unique=False)
        if len(cands) == 0:
            if skip_exhausted:
                out[idx, 0] = gi
                out[idx, 1] = -1
                continue
            raise DataError("no admissible negative for pair (%d, %d): every candidate "
                            "of type %d interacts with the source" % (gi, gj, tau))
        if len(cands) > pool_size:
            cands = np.sort(rng.choice(cands, size=pool_size, replace=False))
        rows = np.searchsorted(emb_ids, cands)
        scores = emb[rows] @ emb[int(np.searchsorted(emb_ids, gi))]
        out[idx, 0] = gi
        out[idx, 1] = cands[int(np.argmax(scores))]   # first max = smallest id
    return out


def bfs_neighbors_loop(graph, center, k, rng_seed):
    """``bfs_neighbors`` one node at a time: 1-hop row, a sorted 2-hop set
    from the rows of its members, one ``derived_rng(TAG_BFS, rng_seed)``
    built only when a draw follows."""
    from dhge.graph import _in_sorted
    from dhge.incremental import ColdIsolatedError
    from dhge.seeding import TAG_BFS, derived_rng
    hop1 = graph.neighbors_of(center)
    if len(hop1) == 0:
        raise ColdIsolatedError(graph.ref_of(center))
    if len(hop1) >= k:
        chosen = hop1 if len(hop1) == k else np.sort(
            derived_rng(TAG_BFS, rng_seed).choice(hop1, size=k, replace=False))
        return chosen, np.ones(k, dtype=np.int64)
    hop2 = np.sort(np.concatenate([graph.neighbors_of(int(n)) for n in hop1]))
    fresh = np.append(True, hop2[1:] != hop2[:-1]) & (hop2 != center) & ~_in_sorted(hop1, hop2)[1]
    hop2 = hop2[fresh]
    need = k - len(hop1)
    rng = derived_rng(TAG_BFS, rng_seed) if len(hop2) != need else None
    if len(hop2) > need:
        hop2 = np.sort(rng.choice(hop2, size=need, replace=False))
    chosen = np.concatenate([hop1, hop2])
    hops = np.repeat([1, 2], [len(hop1), len(hop2)])
    if len(chosen) < k:
        pad = rng.choice(len(chosen), size=k - len(chosen), replace=True)
        chosen = np.concatenate([chosen, chosen[pad]])
        hops = np.concatenate([hops, hops[pad]])
    return chosen, hops


def neighborhoods_loop(graph, ids, k, rng_seed):
    """``_neighborhoods`` as one ``bfs_neighbors_loop`` per node, seeded
    ``mix(rng_seed, TAG_BFS, t, i)``."""
    from dhge.incremental import ColdIsolatedError
    from dhge.seeding import TAG_BFS, mix
    connected = np.ones(len(ids), dtype=bool)
    nbrs = np.empty((len(ids), k), dtype=np.int64)
    for j, g in enumerate(np.asarray(ids).tolist()):
        t, i = graph.ref_of(g)
        try:
            nbrs[j] = bfs_neighbors_loop(graph, g, k, mix(rng_seed, TAG_BFS, t, i))[0]
        except ColdIsolatedError:
            connected[j] = False
    return connected, nbrs[connected]


def reconstruction_weights_loop(x_center, x_neighbors, eps):
    """One center's weights, solved alone: its Gram, the ridge system
    G + eps*tr(G)/k I when that term is positive, a Cholesky factor and
    solve against ones (uniform weights where the factor fails and eps > 0),
    then normalization."""
    from dhge.tensor import NumericError, SingularMatrixError
    x_center = np.asarray(x_center, dtype=np.float64)
    x_neighbors = np.asarray(x_neighbors, dtype=np.float64)
    k = x_neighbors.shape[0]
    if k == 1:
        return np.ones(1)
    diffs = x_center[None, :] - x_neighbors
    system = diffs @ diffs.T
    lam = eps * np.trace(system) / k
    if lam > 0:
        system = system + lam * np.eye(k)
    factor, info = scipy.linalg.lapack.dpotrf(system, lower=False, clean=False)
    if info > 0:
        if eps > 0:
            return np.full(k, 1.0 / k)
        raise SingularMatrixError("singular ridge system")
    w = scipy.linalg.lapack.dpotrs(factor, np.ones(k), lower=False)[0]
    total = w.sum()
    if not np.isfinite(total) or abs(total) < 1e-300:
        raise NumericError("reconstruction weights sum to zero")
    return w / total


def incident_edges_scan(graph, ref, relation):
    """Ids of the ``relation`` edges touching ``ref`` in either role,
    ascending, by a scan of the relation's edge arrays."""
    t, i = ref
    s_t, d_t = graph.schema.pairs[relation]
    hit = np.zeros(len(graph.rel_src[relation]), dtype=bool)
    if t == s_t:
        hit |= graph.rel_src[relation] == i
    if t == d_t:
        hit |= graph.rel_dst[relation] == i
    return np.flatnonzero(hit)


def sample_subgraph_loop(graph, seeds, degree_limit, rng_seed):
    """``sample_subgraph`` one (seed, relation) pair at a time: each pair's
    ascending incident edges, a sorted ``rng.choice`` of ``degree_limit`` of
    them when more remain, in seed-major order."""
    from dhge.graph import Subgraph
    from dhge.seeding import TAG_SUBGRAPH, derived_rng
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    rng = derived_rng(TAG_SUBGRAPH, rng_seed)
    kept = [[] for _ in range(graph.schema.num_relations)]
    for g in seeds:
        ref = graph.ref_of(int(g))
        for r in range(graph.schema.num_relations):
            ids = incident_edges_scan(graph, ref, r)
            if len(ids) > degree_limit:
                ids = np.sort(rng.choice(ids, size=degree_limit, replace=False))
            if len(ids):
                kept[r].append(ids)
    nodes = [seeds]
    rel_pairs = []
    for r in range(graph.schema.num_relations):
        s_t, d_t = graph.schema.pairs[r]
        ids = np.unique(np.concatenate(kept[r])) if kept[r] else np.empty(0, dtype=np.int64)
        gs = graph.rel_src[r][ids] + graph.offsets[s_t]
        gd = graph.rel_dst[r][ids] + graph.offsets[d_t]
        rel_pairs.append((gs, gd))
        nodes += [gs, gd]
    nodes = np.unique(np.concatenate(nodes))
    node_types = graph.type_of_global(nodes)
    boundaries = np.searchsorted(node_types, np.arange(graph.num_types + 1))
    return Subgraph(nodes=nodes, node_types=node_types,
                    intra_ids=nodes - graph.offsets[node_types],
                    type_slices=[(int(boundaries[t]), int(boundaries[t + 1]))
                                 for t in range(graph.num_types)],
                    seeds=seeds, seed_locals=np.searchsorted(nodes, seeds).astype(np.int64),
                    rel_src=[np.searchsorted(nodes, gs).astype(np.int64) for gs, _ in rel_pairs],
                    rel_dst=[np.searchsorted(nodes, gd).astype(np.int64) for _, gd in rel_pairs])


def embed_all_full_rows(graph, params, config):
    """``embed_all`` with the whole encoder run on every chunk: each chunk's
    full-subgraph forward, of which only the seed rows are written."""
    from dhge.model import forward_subgraph
    from dhge.graph import sample_subgraph
    from dhge.seeding import TAG_EMBED, mix
    blocks = [np.zeros((c, config.hidden_dim)) for c in graph.counts]
    for b in range(0, graph.num_nodes, config.batch_size):
        chunk = np.arange(b, min(b + config.batch_size, graph.num_nodes))
        sub = sample_subgraph(graph, chunk, config.degree_limit, mix(config.rng_seed, b, TAG_EMBED))
        z = forward_subgraph(graph, sub, params, config).value
        for g, row in zip(sub.seeds.tolist(), z[sub.seed_locals]):
            t, i = graph.ref_of(g)
            blocks[t][i] = row
    return blocks


def scatter_add_at(index, rows, n):
    """(n, d) sums of ``rows`` into the buckets ``index`` by ``np.add.at``."""
    out = np.zeros((n,) + np.shape(rows)[1:])
    np.add.at(out, np.asarray(index, dtype=np.int64), rows)
    return out


def segment_max_at(values, segments, n):
    """Per-segment maxima of 1-D ``values`` by ``np.maximum.at``; -inf where
    a segment is empty."""
    out = np.full(n, -np.inf)
    np.maximum.at(out, np.asarray(segments, dtype=np.int64), values)
    return out


def constrained_weights(center, neighbors, ridge_scale):
    """Sum-to-one reconstruction weights through the KKT system.

    Minimizes w^T (G + ridge I) w subject to sum(w) = 1, where
    G_ij = (c - n_i) . (c - n_j) and ridge = ridge_scale * tr(G) / k.
    Solved as the (k+1) x (k+1) saddle system, a route entirely separate
    from solve-against-ones-then-normalize.
    """
    diffs = np.asarray(center, dtype=np.float64) - np.asarray(neighbors, dtype=np.float64)
    k = len(diffs)
    gram = diffs @ diffs.T
    ridge = ridge_scale * np.trace(gram) / k
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * (gram + ridge * np.eye(k))
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = scipy.linalg.solve(kkt, rhs)
    return sol[:k]


def coupled_rows_solve(n_unknown, neighbor_lists, weight_lists, known_rows):
    """Direct dense solve of mutually-referencing reconstruction equations.

    Unknown row u must equal sum_i w_ui * row(neighbor_ui), where a neighbor
    is either ("u", index) for another unknown or ("k", index) into
    ``known_rows``. Returns the (n_unknown, dim) solution from
    np.linalg.solve on the stacked system (I - W_uu) Y = W_uk Y_k.
    """
    known_rows = np.asarray(known_rows, dtype=np.float64)
    dim = known_rows.shape[1]
    a = np.eye(n_unknown)
    b = np.zeros((n_unknown, dim))
    for u, (nbrs, ws) in enumerate(zip(neighbor_lists, weight_lists)):
        for (kind, idx), w in zip(nbrs, ws):
            if kind == "u":
                a[u, idx] -= w
            else:
                b[u] += w * known_rows[idx]
    return np.linalg.solve(a, b)


def coupled_rows_dense(y, centers, nbrs, weights):
    """``coupled_rows_solve`` on ``embed_increment``'s arguments: a neighbor
    id in ``centers`` is an unknown, any other id a row of ``y``."""
    unknown = {int(c): u for u, c in enumerate(centers)}
    lists = [[("u", unknown[int(n)]) if int(n) in unknown else ("k", int(n)) for n in row]
             for row in nbrs]
    return coupled_rows_solve(len(centers), lists, weights, y)


def reaching_dijkstra(seeds, src, dst):
    """Which nodes reach a seed along the edges ``src[e] -> dst[e]``, found
    as ``embed_increment`` found its solvable rows before its frontier pass:
    one ``scipy.sparse.csgraph.dijkstra`` from every seed along the reversed
    edges, a node being reached where its distance is finite."""
    import scipy.sparse.csgraph
    n = len(seeds)
    reach = scipy.sparse.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    return np.isfinite(scipy.sparse.csgraph.dijkstra(reach, indices=np.flatnonzero(seeds),
                                                     min_only=True))


def embed_increment_sweeps(y, centers, nbrs, weights, tol=1e-8, max_sweeps=100):
    """The Gauss-Seidel sweeps that ``embed_increment``'s direct solve replaced.

    Rows are visited in order and each is written back before the next reads
    it; a coupled row starts at the closed form over its table neighbors (0
    where their weights sum to 0) and sweeps repeat until the largest row
    change in a sweep is below ``tol``. Returns (rows, loss, sweeps); raises
    ``ArithmeticError`` after ``max_sweeps`` sweeps.
    """
    y = np.asarray(y, dtype=np.float64)
    unknown = {int(c): u for u, c in enumerate(centers)}
    n_new, dim = len(centers), y.shape[1]
    known_part = np.zeros((n_new, dim))
    couplings = [None] * n_new
    rows = np.zeros((n_new, dim))
    for i in range(n_new):
        ids = [int(n) for n in nbrs[i]]
        coupled = np.array([n in unknown for n in ids], dtype=bool)
        w = np.asarray(weights[i], dtype=np.float64)
        mass = w[~coupled].sum()
        if (~coupled).any():
            known_part[i] = w[~coupled] @ y[[n for n in ids if n not in unknown]]
        if coupled.any():
            couplings[i] = ([unknown[n] for n in ids if n in unknown], w[coupled])
            if (~coupled).any() and abs(mass) > 1e-12:
                rows[i] = known_part[i] / mass
        else:
            rows[i] = known_part[i]
    sweeps = 0
    coupled_rows = [i for i in range(n_new) if couplings[i] is not None]
    if coupled_rows:
        for sweeps in range(1, max_sweeps + 1):
            delta = 0.0
            for i in coupled_rows:
                u_pos, u_w = couplings[i]
                fresh = known_part[i] + u_w @ rows[u_pos]
                delta = max(delta, float(np.abs(fresh - rows[i]).max()) if dim else 0.0)
                rows[i] = fresh
            if delta < tol:
                break
        else:
            raise ArithmeticError("coupled reconstruction did not converge in %d sweeps"
                                  % max_sweeps)
    loss = 0.0
    for i in range(n_new):
        recon = known_part[i]
        if couplings[i] is not None:
            recon = recon + couplings[i][1] @ rows[couplings[i][0]]
        loss += float((rows[i] - recon) @ (rows[i] - recon))
    return rows, loss, sweeps


def reconstruction_operator_loop(graph, rows, nbrs, weights):
    """(I - W) built one alignment row at a time from global ids.

    COO entries go in the same order as the vectorized builder's (identity
    first, then each row's neighbors in sampled order), so duplicate
    neighbors are summed in the same order and the CSR should match exactly.
    """
    n = graph.num_nodes
    ri, ci, data = list(range(n)), list(range(n)), [1.0] * n
    for g, row_nbrs, row_w in zip(rows, nbrs, weights):
        for nb, w in zip(row_nbrs, row_w):
            ri.append(int(g))
            ci.append(int(nb))
            data.append(-float(w))
    return scipy.sparse.coo_matrix(
        (np.asarray(data), (np.asarray(ri, dtype=np.int64), np.asarray(ci, dtype=np.int64))),
        shape=(n, n)).tocsr()


def all_refs(graph):
    """Every node of ``graph`` as a (type, intra id) pair, in global order."""
    from dhge.graph import NodeRef
    return [NodeRef(t, i) for t in range(graph.num_types) for i in range(graph.counts[t])]


def has_edge(graph, gi, gj):
    nbrs = graph.neighbors_of(gi)
    pos = np.searchsorted(nbrs, gj)
    return pos < len(nbrs) and nbrs[pos] == gj


def degree_of(graph, node):
    return len(graph.neighbors_of(node))


def retrieve_full_load(cfg, user_intra_id, k=10, version=None, exclude_known=True):
    """``cmd_retrieve``'s hits through a full load of the version: its whole
    graph, rebuilt from the graph file, and its whole table, ranked by the
    reference ``_cosine_topk_ref``."""
    from dhge.graph import DataError, NodeRef
    from dhge.pipeline import graph_for_manifest, resolve_manifest
    from dhge.snapshot import load_table
    sd = cfg.paths["snapshot_dir"]
    man = resolve_manifest(sd, version)
    graph = graph_for_manifest(cfg, man)
    table = load_table(os.path.join(sd, man.table_path))
    user_type = cfg.eval["user_type"]
    item_type = cfg.eval["item_type"]
    ref = NodeRef(user_type, int(user_intra_id))
    graph.check_ref(ref)
    if ref.intra_id >= table.counts[user_type]:
        raise DataError("user %d not present in table version %d"
                        % (ref.intra_id, table.version))
    query = table.row(ref)
    n_items = min(int(graph.counts[item_type]), int(table.counts[item_type]))
    items = table.blocks[item_type][:n_items]
    keep = np.ones(n_items, dtype=bool)
    if exclude_known:
        nbrs = graph.neighbors_of(ref)
        known = nbrs[graph.type_of_global(nbrs) == item_type] - graph.offsets[item_type]
        keep[known[known < n_items]] = False
    keep = np.flatnonzero(keep)
    hits = []
    if keep.size:
        order, scores = _cosine_topk_ref(query, items[keep], min(k, keep.size))
        hits = [{"type": item_type, "id": int(keep[j]), "score": float(s)}
                for j, s in zip(order, scores)]
    return hits


def adjacency_by_unique(graph):
    """Type-erased CSR adjacency of ``graph``'s edges through np.unique(axis=0)."""
    parts = [np.empty((0, 2), dtype=np.int64)]
    for r, (s_t, d_t) in enumerate(graph.schema.pairs):
        gs = graph.rel_src[r] + graph.offsets[s_t]
        gd = graph.rel_dst[r] + graph.offsets[d_t]
        parts.append(np.stack([gs, gd], axis=1))
        parts.append(np.stack([gd, gs], axis=1))
    pairs = np.unique(np.concatenate(parts, axis=0), axis=0)
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, pairs[:, 0] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, pairs[:, 1].copy()


def incidence_by_argsort(endpoint_intra, count):
    """Edge ids grouped by endpoint: (indptr, ids), ids ascending in a group."""
    order = np.argsort(endpoint_intra, kind="stable").astype(np.int64)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.add.at(indptr, endpoint_intra + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, order


def replay_graph(cfg, man):
    """A snapshot version's graph rebuilt from outside the snapshot: the base
    TSVs, with the manifest's increment files applied in order."""
    from dhge.graph import apply_increment, load_graph, read_increment
    graph = load_graph(cfg.paths["edges"], cfg.paths["features"], cfg.paths["schema"])
    for edges_path, features_path in man.increments:
        graph, _ = apply_increment(graph, read_increment(graph, edges_path, features_path))
    return graph


def load_graph_sets(edges, features, schema):
    """The set-based ``load_graph``: node counts inferred from the ids
    mentioned anywhere, a per-row schema check, a Python key set for
    duplicate edges and a block fill, then the ``HeteroGraph`` constructor."""
    import warnings
    from dhge.graph import (DataError, GraphFormatError, HeteroGraph, RelationSchema,
                            _edge_rows, _feature_rows, _label, _read, load_schema)
    if not isinstance(schema, RelationSchema):
        schema = load_schema(schema)
    feat_label = _label(features)
    lines, (types, ids, values, masks) = _feature_rows(_read(features), feat_label)
    feat_rows = {}
    for lineno, t, i, v, m in zip(lines, types.tolist(), ids.tolist(), values, masks):
        if t < 0 or i < 0:
            raise GraphFormatError("%s:%d: negative node address" % (feat_label, lineno))
        if (t, i) in feat_rows:
            raise DataError("%s:%d: duplicate feature row for node (%d, %d)"
                            % (feat_label, lineno, t, i))
        feat_rows[(t, i)] = (v, m)
    dim = values.shape[1]
    edge_label = _label(edges)
    lines, columns = _edge_rows(_read(edges), edge_label)
    edge_rows = []
    for lineno, row in zip(lines, zip(*(c.tolist() for c in columns))):
        st, si, dt, di, r, _ = row
        if r < 0 or r >= schema.num_relations:
            raise DataError("%s:%d: unknown relation id %d" % (edge_label, lineno, r))
        s_t, d_t = schema.pairs[r]
        if st != s_t or dt != d_t:
            raise DataError("%s:%d: relation %d endpoint type mismatch: got (%d, %d), schema"
                            " (%d, %d)" % (edge_label, lineno, r, st, dt, s_t, d_t))
        if st == dt and si == di:
            raise DataError("%s:%d: self-loop rejected" % (edge_label, lineno))
        if si < 0 or di < 0:
            raise GraphFormatError("%s:%d: negative node id" % (edge_label, lineno))
        edge_rows.append(row)
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
        if (r, si, di) in keys:
            dropped += 1
            continue
        keys.add((r, si, di))
        rel_edges[r][0].append(si)
        rel_edges[r][1].append(di)
        rel_edges[r][2].append(ts)
    if dropped:
        warnings.warn("%s: dropped %d duplicate edges" % (edge_label, dropped))
    return HeteroGraph(schema, feature_blocks, mask_blocks,
                       [(np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64),
                         np.asarray(ts, dtype=np.float64)) for s, d, ts in rel_edges])


def apply_increment_loop(graph, batch):
    """The per-tuple ``apply_increment``: every node and edge checked in a
    Python loop, duplicate edges found through a key set, and the grown
    graph built by the ``HeteroGraph`` constructor instead of merged."""
    import warnings
    from dhge.graph import DataError, HeteroGraph
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
            mask = np.ones(dim, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
            if values.shape != (dim,) or mask.shape != (dim,):
                raise DataError("new node (%d, %d): feature shape %s != (%d,)"
                                % (t, i, values.shape, dim))
            if not np.all(np.isfinite(values[mask])):
                raise DataError("new node (%d, %d): non-finite feature values" % (t, i))
        per_type_new[t].append((i, values, mask))
    feature_blocks, mask_blocks = [], []
    new_counts = list(counts)
    for t in range(graph.num_types):
        entries = sorted(per_type_new[t], key=lambda e: e[0])
        ids = [e[0] for e in entries]
        if ids != list(range(counts[t], counts[t] + len(ids))):
            raise DataError("type %d: new intra ids %s do not contiguously extend count %d"
                            % (t, ids, counts[t]))
        new_counts[t] = counts[t] + len(ids)
        feature_blocks.append(np.concatenate([graph.feature_blocks[t]]
                                             + [e[1][None] for e in entries]))
        mask_blocks.append(np.concatenate([graph.mask_blocks[t]] + [e[2][None] for e in entries]))
    rel_edges = [[list(graph.rel_src[r]), list(graph.rel_dst[r]), list(graph.rel_ts[r])]
                 for r in range(graph.schema.num_relations)]
    keys = {(r, s, d) for r, (src, dst, _) in enumerate(rel_edges) for s, d in zip(src, dst)}
    n_added = dropped = 0
    for src_ref, dst_ref, r, ts in batch.new_edges:
        r = int(r)
        if r < 0 or r >= graph.schema.num_relations:
            raise DataError("unknown relation id %d in increment" % r)
        s_t, d_t = graph.schema.pairs[r]
        st, si = int(src_ref[0]), int(src_ref[1])
        dt, di = int(dst_ref[0]), int(dst_ref[1])
        if st != s_t or dt != d_t:
            raise DataError("relation %d endpoint type mismatch: got (%d, %d), schema (%d, %d)"
                            % (r, st, dt, s_t, d_t))
        if si < 0 or si >= new_counts[st] or di < 0 or di >= new_counts[dt]:
            raise DataError("dangling endpoint in increment edge (%d,%d)->(%d,%d)"
                            % (st, si, dt, di))
        if st == dt and si == di:
            raise DataError("self-loop rejected in increment: (%d, %d)" % (st, si))
        if (r, si, di) in keys:
            dropped += 1
            continue
        keys.add((r, si, di))
        n_added += 1
        for column, value in zip(rel_edges[r], (si, di, float(ts))):
            column.append(value)
    if dropped:
        warnings.warn("increment: dropped %d duplicate edges" % dropped)
    out = HeteroGraph(graph.schema, feature_blocks, mask_blocks,
                      [(np.asarray(s, dtype=np.int64), np.asarray(d, dtype=np.int64),
                        np.asarray(ts, dtype=np.float64)) for s, d, ts in rel_edges])
    return out, {"n_new_nodes": len(batch.new_nodes), "n_new_edges": n_added,
                 "n_duplicate_edges_dropped": dropped}


def alignment_objectives(i_minus_w, lam, mu, y):
    """J_align, J_pen and the residual terms R, S, P at ``y``, over all rows."""
    r = i_minus_w @ y
    s = r.T @ r - lam
    p = y.T @ y - len(y) * np.eye(y.shape[1])
    j_align = float(np.sum(s * s))
    return j_align, j_align + mu * float(np.sum(p * p)), r, s, p


def refine_per_trial(i_minus_w, lam, y, update_mask, mu, steps, step_size,
                     max_halvings=20):
    """Masked backtracking descent that re-evaluates the objective per trial.

    Returns (y, trajectory, step_warning, j_pen_initial, j_pen_final,
    j_align_initial, j_align_final).
    """
    y = np.asarray(y, dtype=np.float64).copy()
    mask = np.asarray(update_mask, dtype=bool)
    iw = scipy.sparse.csr_matrix(i_minus_w)
    iwt = iw.T.tocsr()
    j_align, j_pen, r, s, p = alignment_objectives(iw, lam, mu, y)
    traj = [j_pen]
    j_align0 = j_align
    warning = False
    step = float(step_size)
    if not np.any(mask) or steps <= 0:
        return y, traj, False, j_pen, j_pen, j_align, j_align
    for _ in range(steps):
        grad = 4.0 * (iwt @ (r @ s)) + 4.0 * mu * (y @ p)
        grad[~mask] = 0.0
        if float(np.linalg.norm(grad)) == 0.0:
            break
        accepted = False
        trial = step
        for _ in range(max_halvings + 1):
            y_new = y - trial * grad
            j_align_new, j_pen_new, r_new, s_new, p_new = alignment_objectives(iw, lam, mu, y_new)
            if j_pen_new <= j_pen:
                accepted = True
                break
            trial /= 2.0
        if not accepted:
            warning = True
            break
        y, j_align, j_pen, r, s, p = y_new, j_align_new, j_pen_new, r_new, s_new, p_new
        traj.append(j_pen)
        step = min(trial * 2.0, float(step_size))
    return y, traj, warning, traj[0], j_pen, j_align0, j_align


def knn_indices(x, k):
    """Euclidean k-nearest-neighbor lists, ties broken by smaller index."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if k >= n:
        raise ValueError("k must be < number of points")
    d = scipy.spatial.distance.cdist(x, x)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        order = np.argsort(d[i], kind="stable")
        out[i] = [j for j in order if j != i][:k]
    return out


def lle_weight_matrix(x, k, eps):
    """Sparse row-stochastic reconstruction weight matrix over kNN graphs."""
    from dhge.incremental import reconstruction_weights
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    nbrs = knn_indices(x, k)
    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    vals = np.empty(n * k)
    for i in range(n):
        vals[i * k:(i + 1) * k] = reconstruction_weights(x[i], x[nbrs[i]], eps)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def full_lle_oracle(x, k, dim, eps=1e-8):
    """Dense-eigensolve locally linear embedding of a full point set.

    Builds the reconstruction matrix M = (I - W)^T (I - W), drops its
    near-zero smallest eigenvector, and returns the next ``dim``
    eigenvectors scaled by sqrt(N) together with their eigenvalues.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if dim >= n - 1:
        raise ValueError("dim must be < N - 1")
    w = lle_weight_matrix(x, k, eps)
    iw = scipy.sparse.identity(n, format="csr") - w
    m = (iw.T @ iw).toarray()
    vals, vecs = np.linalg.eigh(m)
    y = vecs[:, 1:dim + 1] * np.sqrt(n)
    lam = vals[1:dim + 1].copy()
    return y, lam


def lle_loss(y, neighbor_indices, weights):
    """Sum of squared reconstruction residuals ||y_i - sum_j w_ij y_j||^2."""
    y = np.asarray(y, dtype=np.float64)
    total = 0.0
    for i in range(len(y)):
        recon = np.zeros(y.shape[1])
        for j, w in zip(neighbor_indices[i], weights[i]):
            recon += w * y[j]
        total += float(np.sum((y[i] - recon) ** 2))
    return total


def knn_brute(x, k):
    """k nearest neighbors by exhaustive pairwise distances, ties by index."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    out = np.zeros((n, k), dtype=np.int64)
    for i in range(n):
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        order = sorted((float(d[j]), j) for j in range(n) if j != i)
        out[i] = [j for _, j in order[:k]]
    return out


def adamw_reference(values, grads_per_step, lr, weight_decay,
                    beta1=0.9, beta2=0.999, eps=1e-8):
    """Decoupled-weight-decay Adam, written as the textbook loop."""
    p = np.asarray(values, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    t = 0
    for g in grads_per_step:
        g = np.asarray(g, dtype=np.float64)
        t += 1
        p = p - lr * weight_decay * p
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def dcg_ref(ranking, truth, k):
    total = 0.0
    for pos, item in enumerate(ranking[:k], start=1):
        if item in truth:
            total += 1.0 / np.log2(pos + 1.0)
    return total


def ndcg_ref(ranking, truth, k):
    ideal = sum(1.0 / np.log2(p + 1.0) for p in range(1, min(k, len(truth)) + 1))
    if ideal == 0.0:
        return 0.0
    return dcg_ref(ranking, truth, k) / ideal


def solve_ridge(gram, rhs, eps):
    """Solve (G + eps*trace(G)/k * I) w = rhs by Cholesky factorization, with
    the package's ``ridge_systems`` and ``cholesky_solve``.

    ``gram`` must be symmetric PSD of shape (k, k). With eps = 0 the system is
    solved as-is and a singular G raises ``SingularMatrixError``. The ridge
    term vanishes when trace(G) = 0, so an all-zero Gram fails for any eps.
    """
    from dhge.tensor import cholesky_solve, ridge_systems
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be square, got %s" % (gram.shape,))
    return cholesky_solve(ridge_systems(gram, eps), rhs)


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


def blocks_equal(table, other):
    """Two embedding tables hold the same number of blocks, each equal."""
    return (len(table.blocks) == len(other.blocks) and
            all(np.array_equal(a, b) for a, b in zip(table.blocks, other.blocks)))


def _cosine_topk_ref(query, items, k):
    """``dhge.evaluation.cosine_topk`` as it was before the array core."""
    from dhge.tensor import NumericError
    query = np.asarray(query, dtype=np.float64)
    items = np.asarray(items, dtype=np.float64)
    qn = np.linalg.norm(query)
    if qn == 0.0:
        raise NumericError("unrankable query: zero-norm query vector")
    norms = np.linalg.norm(items, axis=1)
    scores = np.full(len(items), -np.inf)
    ok = norms > 0.0
    scores[ok] = (items[ok] @ query) / (norms[ok] * qn)
    order = np.lexsort((np.arange(len(items)), -scores))
    k = min(k, len(items))
    return order[:k], scores[order[:k]]


def _key_ints_ref(key):
    from dhge.graph import NodeRef
    if isinstance(key, (tuple, NodeRef)):
        return [int(x) for x in key]
    return [int(key)]


def hitrate_at_k(rankings, truths, k):
    """Fraction of queries whose top-k contains at least one relevant item."""
    hits = 0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        hits += any(item in truth for item in list(ranking)[:k])
    return hits / len(rankings) if rankings else 0.0


def recall_at_k(rankings, truths, k):
    """Mean fraction of each query's relevant set retrieved in the top-k."""
    total = 0.0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        if not truth:
            continue
        got = sum(1 for item in list(ranking)[:k] if item in truth)
        total += got / len(truth)
    return total / len(rankings) if rankings else 0.0


def ndcg_at_k(rankings, truths, k):
    """Binary-relevance NDCG: DCG normalized by the ideal ordering's DCG."""
    total = 0.0
    for ranking, truth in zip(rankings, truths):
        truth = _as_set(truth)
        dcg = 0.0
        for pos, item in enumerate(list(ranking)[:k], start=1):
            if item in truth:
                dcg += 1.0 / np.log2(pos + 1)
        ideal = sum(1.0 / np.log2(pos + 1) for pos in range(1, min(k, len(truth)) + 1))
        if ideal > 0:
            total += dcg / ideal
    return total / len(rankings) if rankings else 0.0


def _as_set(truth):
    from dhge.graph import NodeRef
    if isinstance(truth, (set, frozenset)):
        return truth
    if isinstance(truth, (list, tuple)) and not isinstance(truth, NodeRef):
        return set(truth)
    return {truth}


def evaluate_loop(user_vectors, user_keys, item_vectors, item_keys,
                  test_interactions, protocol, known_interactions=()):
    """The per-user evaluation ``evaluate_table_loop`` runs on: key sets, a
    Python candidate list and a fresh ``derived_rng`` per user, one cosine
    ranking per pool."""
    import time
    from dhge.evaluation import EvalReport
    from dhge.graph import DataError
    from dhge.seeding import TAG_EVALNEG, derived_rng
    t0 = time.perf_counter()
    user_vectors = np.asarray(user_vectors, dtype=np.float64)
    item_vectors = np.asarray(item_vectors, dtype=np.float64)
    user_row = {k: i for i, k in enumerate(user_keys)}
    item_row = {k: i for i, k in enumerate(item_keys)}
    if len(user_row) != len(user_vectors) or len(item_row) != len(item_vectors):
        raise DataError("duplicate or missing keys for evaluation tables")

    known_by_user = {}
    for u, i in known_interactions:
        known_by_user.setdefault(u, set()).add(i)
    tests_by_user = {}
    for u, i, ts in test_interactions:
        if u not in user_row:
            continue
        if i not in item_row:
            raise DataError("test interaction references unknown item %r" % (i,))
        tests_by_user.setdefault(u, []).append((float(ts), i))
    if not tests_by_user:
        raise DataError("no evaluable test interactions")

    max_k = max(protocol.k_values)
    rankings = []
    truths = []
    n_skipped = 0
    n_unrankable = 0
    all_items = list(item_keys)
    for u in sorted(tests_by_user, key=_key_ints_ref):
        events = sorted(tests_by_user[u], key=lambda e: (e[0], _key_ints_ref(e[1])))
        known = known_by_user.get(u, set())
        test_items = {i for _, i in events}
        if protocol.negatives_per_user is None:
            pool = [i for i in all_items if i not in known]
            truth = test_items
        else:
            positive = events[0][1]
            candidates = [i for i in all_items
                          if i not in known and i not in test_items]
            if len(candidates) < protocol.negatives_per_user:
                n_skipped += 1
                continue
            rng = derived_rng(TAG_EVALNEG, protocol.rng_seed, *_key_ints_ref(u))
            pick = rng.choice(len(candidates), size=protocol.negatives_per_user, replace=False)
            pool = [positive] + [candidates[j] for j in sorted(pick)]
            truth = {positive}
        vec = user_vectors[user_row[u]]
        if np.linalg.norm(vec) == 0.0:
            rankings.append([])
            truths.append(truth)
            n_unrankable += 1
            continue
        rows = np.asarray([item_row[i] for i in pool], dtype=np.int64)
        idx, _ = _cosine_topk_ref(vec, item_vectors[rows], min(max_k, len(rows)))
        rankings.append([pool[j] for j in idx])
        truths.append(truth)

    hitrate = {k: hitrate_at_k(rankings, truths, k) for k in protocol.k_values}
    recall = {k: recall_at_k(rankings, truths, k) for k in protocol.k_values}
    ndcg = {k: ndcg_at_k(rankings, truths, k) for k in protocol.k_values}
    return EvalReport(hitrate=hitrate, recall=recall, ndcg=ndcg,
                      n_users=len(rankings), n_skipped=n_skipped,
                      n_unrankable=n_unrankable,
                      wall_ms=(time.perf_counter() - t0) * 1000.0)


def evaluate_table_loop(graph, table, test_interactions, protocol, user_type, item_type,
                        missing_users="drop"):
    """The ``evaluate_table`` adapter over ``evaluate_loop``: NodeRef keys for
    every table row, known pairs from each user's ``neighbors_of``."""
    from dhge.evaluation import EvalReport
    from dhge.graph import DataError, NodeRef
    user_keys = [NodeRef(user_type, i) for i in range(len(table.blocks[user_type]))]
    item_keys = [NodeRef(item_type, i) for i in range(len(table.blocks[item_type]))]
    known = []
    for u in range(min(graph.counts[user_type], len(user_keys))):
        for g in graph.neighbors_of(NodeRef(user_type, u)).tolist():
            ref = graph.ref_of(g)
            if ref.node_type == item_type and ref.intra_id < len(item_keys):
                known.append((user_keys[u], item_keys[ref.intra_id]))
    tests = []
    n_missing = 0
    for u, i, ts in test_interactions:
        if u[0] != user_type or i[0] != item_type:
            continue
        if u[1] < 0:
            raise DataError("test interaction references unknown user %r" % (NodeRef(*u),))
        if u[1] < len(user_keys) and i[1] < len(item_keys):
            tests.append((NodeRef(*u), NodeRef(*i), ts))
        else:
            n_missing += 1
    if not tests and missing_users == "miss" and n_missing:
        zeros = {k: 0.0 for k in protocol.k_values}
        report = EvalReport(hitrate=dict(zeros), recall=dict(zeros), ndcg=dict(zeros),
                            n_users=0, n_skipped=0, n_unrankable=0, wall_ms=0.0)
    else:
        report = evaluate_loop(table.blocks[user_type], user_keys,
                               table.blocks[item_type], item_keys,
                               tests, protocol, known)
    if missing_users == "miss" and n_missing:
        served = {u for u, i, ts in tests}
        missed = {NodeRef(*u) for u, i, ts in test_interactions
                  if u[0] == user_type and i[0] == item_type
                  and (u[1] >= len(user_keys) or i[1] >= len(item_keys))
                  and NodeRef(*u) not in served}
        total = report.n_users + len(missed)
        scale = report.n_users / total if total else 0.0
        report.hitrate = {k: v * scale for k, v in report.hitrate.items()}
        report.recall = {k: v * scale for k, v in report.recall.items()}
        report.ndcg = {k: v * scale for k, v in report.ndcg.items()}
        report.n_users = total
        report.n_unrankable += len(missed)
    report.table_version = table.version
    return report
