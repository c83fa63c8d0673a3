"""Independent reference implementations used to verify derived values.

Everything here is written the slow, obvious way on dense arrays, using
only numpy/scipy, with no imports from the package's numeric code, so a
bug in a fast path cannot hide inside its own checker. Two exceptions:
the batch LLE oracle reuses the package's weight solve, which is itself
checked against ``constrained_weights``; and ``replay_graph`` rebuilds a
snapshot version's graph with the package's TSV loaders, which the graph
tests check on their own.
"""
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


def reconstruction_operator_loop(graph, refs, nbrs, weights):
    """(I - W) built one alignment row at a time, one global_index per neighbor.

    COO entries go in the same order as the vectorized builder's (identity
    first, then each row's neighbors in sampled order), so duplicate
    neighbors are summed in the same order and the CSR should match exactly.
    """
    n = graph.num_nodes
    ri, ci, data = list(range(n)), list(range(n)), [1.0] * n
    for ref, row_nbrs, row_w in zip(refs, nbrs, weights):
        g = graph.global_index(tuple(ref))
        for nb, w in zip(row_nbrs, row_w):
            ri.append(g)
            ci.append(graph.global_index(tuple(nb)))
            data.append(-float(w))
    return scipy.sparse.coo_matrix(
        (np.asarray(data), (np.asarray(ri, dtype=np.int64), np.asarray(ci, dtype=np.int64))),
        shape=(n, n)).tocsr()


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
