"""CPU-only incremental embedding maintenance between full retrains.

New or edge-touched nodes get embeddings by locally linear reconstruction:
sample a small neighborhood, solve ridge-regularized reconstruction weights,
take the weighted combination (new nodes) or a residual blend (existing
nodes), then optionally nudge the touched rows so the embedding's alignment
spectrum stays close to the one captured at the last full retrain. Model
tensors other than the affected id-table rows are never modified.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.spatial.distance

from .graph import DataError, NodeRef, apply_increment
from .model import init_features
from .seeding import derived_rng, mix, TAG_BFS, TAG_COLD
from .tensor import NumericError, SingularMatrixError, solve_ridge


class ColdIsolatedError(DataError):
    """A node has no graph neighbors at all, so local reconstruction is undefined."""

    def __init__(self, ref):
        super().__init__("node (%d, %d) is cold-isolated: no neighbors at any hop"
                         % (ref[0], ref[1]))
        self.ref = NodeRef(*ref)


class ConvergenceError(NumericError):
    """An iterative solve failed to reach tolerance."""


class NeighborSample:
    """A center node with its selected reconstruction neighborhood."""

    __slots__ = ("center", "neighbors", "hops")

    def __init__(self, center, neighbors, hops):
        self.center = NodeRef(*center)
        self.neighbors = tuple(NodeRef(*n) for n in neighbors)
        self.hops = tuple(int(h) for h in hops)

    def __repr__(self):
        return "NeighborSample(%s, k=%d)" % (self.center, len(self.neighbors))


def bfs_neighbors(graph, center, k, rng_seed):
    """Select k reconstruction neighbors: 1-hop first, then 2-hop, then pad.

    Within a hop, nodes beyond what is needed are drawn uniformly without
    replacement; if both hops together still fall short of k, the collected
    set is resampled with replacement. A node with no neighbors at all
    raises ``ColdIsolatedError``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ref = graph.check_ref(center)
    g = graph.global_index(ref)
    rng = derived_rng(TAG_BFS, rng_seed)
    hop1 = graph.neighbors_of(g)
    if len(hop1) == 0:
        raise ColdIsolatedError(ref)
    chosen = []
    hops = []
    if len(hop1) >= k:
        pick = hop1 if len(hop1) == k else np.sort(rng.choice(hop1, size=k, replace=False))
        chosen.extend(pick.tolist())
        hops.extend([1] * k)
    else:
        chosen.extend(hop1.tolist())
        hops.extend([1] * len(hop1))
        exclude = np.concatenate([hop1, [g]])
        hop2 = np.unique(np.concatenate([graph.neighbors_of(int(n)) for n in hop1]))
        hop2 = np.setdiff1d(hop2, exclude)
        need = k - len(chosen)
        if len(hop2) > need:
            hop2 = np.sort(rng.choice(hop2, size=need, replace=False))
        chosen.extend(hop2.tolist())
        hops.extend([2] * len(hop2))
        if len(chosen) < k:
            hop_of = {c: h for c, h in zip(chosen, hops)}
            pool = np.asarray(chosen, dtype=np.int64)
            pad = rng.choice(pool, size=k - len(chosen), replace=True)
            for p in pad.tolist():
                chosen.append(p)
                hops.append(hop_of[p])
    refs = [graph.ref_of(int(c)) for c in chosen]
    return NeighborSample(ref, refs, hops[:len(refs)])


def reconstruction_weights(x_center, x_neighbors, eps):
    """Affine reconstruction weights for a point from its neighbors.

    Solves the ridge-regularized Gram system of neighbor difference vectors
    and normalizes the solution to sum to one. An all-zero Gram (every
    neighbor coincides with the center) falls back to uniform weights when
    eps > 0; with eps = 0 the singular system propagates as an error.
    """
    x_center = np.asarray(x_center, dtype=np.float64)
    x_neighbors = np.asarray(x_neighbors, dtype=np.float64)
    k = x_neighbors.shape[0]
    if k == 0:
        raise ValueError("at least one neighbor required")
    if k == 1:
        return np.ones(1)
    diffs = x_center[None, :] - x_neighbors
    gram = diffs @ diffs.T
    try:
        w = solve_ridge(gram, np.ones(k), eps)
    except SingularMatrixError:
        if eps > 0:
            return np.full(k, 1.0 / k)   # degenerate neighborhood: trace(G) = 0
        raise
    total = w.sum()
    if not np.isfinite(total) or abs(total) < 1e-300:
        raise NumericError("reconstruction weights sum to zero; neighborhood is degenerate")
    return w / total


def residual_blend(x_center, x_neighbors, weights, alpha):
    """Blend the weighted neighbor reconstruction into the center vector."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    x_center = np.asarray(x_center, dtype=np.float64)
    x_neighbors = np.asarray(x_neighbors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return alpha * (weights @ x_neighbors) + (1.0 - alpha) * x_center


def embed_increment(table, samples, weights, tol=1e-8, max_sweeps=100):
    """Closed-form embeddings for new nodes from their neighbors' rows.

    Each sample's embedding is the weighted combination of its neighbors'
    embeddings. Neighbors that are themselves same-batch new nodes couple
    the system; it is then solved by Jacobi sweeps initialized at the
    closed form over the already-known neighbors, iterating until the
    largest row change drops below ``tol``. Returns (rows, loss, sweeps)
    where loss is the summed squared reconstruction residual.
    """
    n_new = len(samples)
    if n_new != len(weights):
        raise ValueError("samples and weights length mismatch")
    index = {s.center: i for i, s in enumerate(samples)}
    if len(index) != n_new:
        raise DataError("duplicate centers in embed_increment")
    dim = table.dim

    # split each neighborhood once: the known-neighbor contribution is
    # constant across sweeps, only same-batch couplings move
    known_part = np.zeros((n_new, dim))
    known_mass = np.zeros(n_new)
    has_known = np.zeros(n_new, dtype=bool)
    couplings = [None] * n_new
    for i, (s, w) in enumerate(zip(samples, weights)):
        w = np.asarray(w, dtype=np.float64)
        u_pos, u_w, k_rows, k_w = [], [], [], []
        for nb, wj in zip(s.neighbors, w):
            j = index.get(nb)
            if j is None:
                t, ii = nb
                if t >= len(table.blocks) or ii >= len(table.blocks[t]):
                    raise DataError("neighbor (%d, %d) missing from embedding table" % (t, ii))
                k_rows.append(table.blocks[t][ii])
                k_w.append(wj)
            else:
                u_pos.append(j)
                u_w.append(wj)
        if k_rows:
            k_w = np.asarray(k_w, dtype=np.float64)
            known_part[i] = k_w @ np.stack(k_rows)
            known_mass[i] = k_w.sum()
            has_known[i] = True
        if u_pos:
            couplings[i] = (np.asarray(u_pos, dtype=np.int64),
                            np.asarray(u_w, dtype=np.float64))

    rows = np.zeros((n_new, dim))
    for i in range(n_new):
        if couplings[i] is None:
            rows[i] = known_part[i]
        elif has_known[i] and abs(known_mass[i]) > 1e-12:
            # closed form over the already-known part as the sweep seed
            rows[i] = known_part[i] / known_mass[i]
        # else: stay at zero and let the sweeps move it

    sweeps = 0
    coupled_rows = [i for i in range(n_new) if couplings[i] is not None]
    if coupled_rows:
        for sweeps in range(1, max_sweeps + 1):
            delta = 0.0
            for i in coupled_rows:
                u_pos, u_w = couplings[i]
                fresh = known_part[i] + u_w @ rows[u_pos]
                change = float(np.max(np.abs(fresh - rows[i]))) if dim else 0.0
                if change > delta:
                    delta = change
                rows[i] = fresh
            if delta < tol:
                break
        else:
            raise ConvergenceError(
                "coupled reconstruction did not converge in %d sweeps; last max row "
                "change %.3e exceeds tol %.3e" % (max_sweeps, delta, tol))

    loss = 0.0
    for i in range(n_new):
        if couplings[i] is None:
            recon = known_part[i]
        else:
            u_pos, u_w = couplings[i]
            recon = known_part[i] + u_w @ rows[u_pos]
        resid = rows[i] - recon
        loss += float(resid @ resid)
    return rows, loss, sweeps


# ---------------------------------------------------------------------------
# dense batch oracle


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


# ---------------------------------------------------------------------------
# alignment capture and refinement


@dataclass
class AlignmentState:
    """Reconstruction rows and target spectrum captured at a full retrain.

    Row r reconstructs node ``refs[r]`` from the k nodes ``nbrs[r]`` with
    ``weights[r]``. Rows are keyed by sorted, unique (type, intra) pairs, not
    global ids, because a type's global offset shifts when an earlier type
    grows. ``lam`` is the D x D alignment spectrum R^T R with R = (I - W) Y
    taken over the full table at capture time.
    """

    k: int
    lam: np.ndarray
    refs: np.ndarray       # (R, 2) int64
    nbrs: np.ndarray       # (R, k, 2) int64
    weights: np.ndarray    # (R, k) float64

    def with_rows(self, refs, nbrs, weights):
        """A copy with the given rows replacing or joining the stored ones."""
        all_refs = np.concatenate([refs, self.refs])
        # sorted unique rows; on a repeated ref the first (given) row wins
        _, keep = np.unique(all_refs, axis=0, return_index=True)
        return AlignmentState(k=self.k, lam=self.lam, refs=all_refs[keep],
                              nbrs=np.concatenate([nbrs, self.nbrs])[keep],
                              weights=np.concatenate([weights, self.weights])[keep])


def _row_arrays(refs, samples, weights, k):
    """(refs, nbrs, weights) arrays for the rows of ``refs``."""
    return (np.asarray(refs, dtype=np.int64).reshape(-1, 2),
            np.asarray([samples[r].neighbors for r in refs], dtype=np.int64).reshape(-1, k, 2),
            np.asarray([weights[r] for r in refs], dtype=np.float64).reshape(-1, k))


def capture_alignment(graph, table, k, eps, rng_seed, weight_space="embedding"):
    """Record per-node reconstruction rows and the alignment spectrum."""
    samples = {}
    weights = {}
    for t in range(graph.num_types):
        for i in range(graph.counts[t]):
            ref = NodeRef(t, i)
            try:
                sample = bfs_neighbors(graph, ref, k, mix(rng_seed, TAG_BFS, t, i))
            except ColdIsolatedError:
                continue
            center, nbr_vecs = _weight_vectors(graph, table, ref, sample.neighbors, weight_space)
            samples[ref] = sample
            weights[ref] = reconstruction_weights(center, nbr_vecs, eps)
    state = AlignmentState(k, None, *_row_arrays(list(samples), samples, weights, k))
    r = _reconstruction_operator(graph, state) @ table.dense()
    state.lam = r.T @ r
    return state


def _weight_vectors(graph, table, center_ref, neighbor_refs, weight_space, provisional=None):
    if weight_space == "feature":
        def vec(ref):
            return graph.feature_blocks[ref[0]][ref[1]]
    elif weight_space == "embedding":
        provisional = provisional or {}

        def vec(ref):
            return provisional[ref] if ref in provisional else table.row(ref)
    else:
        raise ValueError("weight_space must be 'embedding' or 'feature'")
    return vec(center_ref), np.stack([vec(nb) for nb in neighbor_refs])


def _global_ids(graph, refs):
    """Global ids for an (..., 2) array of (type, intra) pairs, range-checked."""
    types, intras = refs[..., 0], refs[..., 1]
    if types.size and (types.min() < 0 or types.max() >= graph.num_types):
        raise DataError("alignment row references an unknown node type")
    if np.any((intras < 0) | (intras >= np.asarray(graph.counts)[types])):
        raise DataError("alignment row references a node missing from the graph")
    return graph.offsets[types] + intras


def _reconstruction_operator(graph, alignment):
    """(I - W) over the current global index, identity where no row exists."""
    # identity first, then neighbors in sampled order: repeats sum in a fixed order
    n = graph.num_nodes
    diag = np.arange(n, dtype=np.int64)
    rows = np.repeat(_global_ids(graph, alignment.refs), alignment.k)
    cols = _global_ids(graph, alignment.nbrs).ravel()
    mat = scipy.sparse.coo_matrix(
        (np.concatenate([np.ones(n), -alignment.weights.ravel()]),
         (np.concatenate([diag, rows]), np.concatenate([diag, cols]))), shape=(n, n))
    return mat.tocsr()


class AlignmentProblem:
    """Spectrum-matching objective restricted to an update neighborhood."""

    def __init__(self, i_minus_w, lam, y, update_mask, mu=1.0):
        self.i_minus_w = scipy.sparse.csr_matrix(i_minus_w)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.update_mask = np.asarray(update_mask, dtype=bool)
        self.mu = float(mu)

    def objectives(self, y):
        n = len(y)
        r = self.i_minus_w @ y
        s = r.T @ r - self.lam
        p = y.T @ y - n * np.eye(y.shape[1])
        j_align = float(np.sum(s * s))
        j_pen = j_align + self.mu * float(np.sum(p * p))
        return j_align, j_pen, r, s, p


@dataclass
class RefineResult:
    y: np.ndarray
    trajectory: list
    step_warning: bool
    j_pen_initial: float
    j_pen_final: float
    j_align_initial: float
    j_align_final: float


def incremental_refine(problem, steps, step_size, max_halvings=20):
    """Masked projected gradient descent on the penalized alignment objective.

    Only rows flagged in the update mask move. Each step backtracks (halving
    the step length up to ``max_halvings`` times) until the penalized
    objective does not increase; if no admissible step exists the best
    iterate so far is returned with a warning flag.
    """
    y = problem.y.copy()
    mask = problem.update_mask
    iwt = problem.i_minus_w.T.tocsr()
    j_align, j_pen, r, s, p = problem.objectives(y)
    traj = [j_pen]
    j_align0 = j_align
    warning = False
    step = float(step_size)
    if not np.any(mask) or steps <= 0:
        return RefineResult(y, traj, False, j_pen, j_pen, j_align, j_align)
    for _ in range(steps):
        grad = 4.0 * (iwt @ (r @ s)) + 4.0 * problem.mu * (y @ p)
        grad[~mask] = 0.0
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            break
        accepted = False
        trial = step
        for _ in range(max_halvings + 1):
            y_new = y - trial * grad
            j_align_new, j_pen_new, r_new, s_new, p_new = problem.objectives(y_new)
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
    return RefineResult(y, traj, warning, traj[0], j_pen, j_align0, j_align)


# ---------------------------------------------------------------------------
# top-level update


@dataclass
class UpdateConfig:
    k: int = 8
    alpha: float = 0.5
    eps: float = 1e-3
    refine_steps: int = 10
    refine_step_size: float = 1e-3
    refine_mu: float = 1.0
    weight_space: str = "embedding"
    tol: float = 1e-8
    max_sweeps: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.weight_space not in ("embedding", "feature"):
            raise ValueError("weight_space must be 'embedding' or 'feature'")

    def to_items(self):
        return {"k": self.k, "alpha": self.alpha, "eps": self.eps,
                "refine_steps": self.refine_steps, "refine_step_size": self.refine_step_size,
                "refine_mu": self.refine_mu, "weight_space": self.weight_space,
                "tol": self.tol, "max_sweeps": self.max_sweeps}


def disentangled_update(params, row_updates, grow_seed=0):
    """Write refined output rows back into id-table rows only.

    For each (ref, row): id_table[intra] = row - type_table[type], leaving
    every other tensor byte-identical. Types share id rows by design, so two
    updates at the same intra id resolve in sorted-ref order (last wins).
    Returns a fresh ``ModelParams``; the input is not modified.
    """
    out = params.copy()
    items = sorted(row_updates.items()) if isinstance(row_updates, dict) else sorted(row_updates)
    if items:
        need = 1 + max(ref[1] for ref, _ in items)
        out.ensure_id_capacity(need, grow_seed)
    for ref, row in items:
        t, i = int(ref[0]), int(ref[1])
        if t < 0 or t >= out.num_types:
            raise DataError("unknown node type %d" % t)
        out.id_table.value[i] = np.asarray(row, dtype=np.float64) - out.type_table.value[t]
    return out


def ille_update(graph, batch, params, table, model_config, update_config,
                alignment=None, rng_seed=0):
    """Apply one increment batch and refresh embeddings without training.

    Returns (new_graph, new_params, new_table, report, new_alignment).
    The update set is the batch's new nodes plus existing endpoints of its
    accepted new edges. Cold-isolated new nodes fall back to the model's
    feature pathway and are counted in the report.
    """
    t0 = time.perf_counter()
    graph2, stats = apply_increment(graph, batch)
    if table.counts != graph.counts:
        raise DataError("embedding table counts %s do not match base graph %s"
                        % (table.counts, graph.counts))

    table2 = table.copy(version=table.version + 1, created_ms=int(time.time() * 1000))
    for t in range(graph2.num_types):
        grow = graph2.counts[t] - graph.counts[t]
        if grow:
            table2.append_rows(t, grow)

    new_refs = sorted(NodeRef(*ref) for ref, _, _ in batch.new_nodes)
    new_set = set(new_refs)
    touched = set()
    for src_ref, dst_ref, _, _ in stats["accepted_edges"]:
        for ref in (src_ref, dst_ref):
            if ref not in new_set:
                touched.add(NodeRef(*ref))
    touched = sorted(touched)

    samples = {}
    cold = []
    for ref in new_refs + touched:
        try:
            samples[ref] = bfs_neighbors(graph2, ref, update_config.k,
                                         mix(rng_seed, TAG_BFS, ref[0], ref[1]))
        except ColdIsolatedError:
            cold.append(ref)

    # provisional rows for new nodes: mean of their existing neighbors' rows
    provisional = {}
    for ref in new_refs:
        if ref not in samples:
            continue
        existing_rows = [table.row(nb) for nb in samples[ref].neighbors if nb not in new_set]
        if existing_rows:
            provisional[ref] = np.mean(existing_rows, axis=0)
        else:
            provisional[ref] = np.zeros(table.dim)

    weights = {}
    for ref, sample in samples.items():
        center, nbr_vecs = _weight_vectors(graph2, table2, ref, sample.neighbors,
                                           update_config.weight_space, provisional)
        weights[ref] = reconstruction_weights(center, nbr_vecs, update_config.eps)

    new_connected = [r for r in new_refs if r in samples]
    reconstruction_loss = 0.0
    sweeps = 0
    if new_connected:
        rows, reconstruction_loss, sweeps = embed_increment(
            table2, [samples[r] for r in new_connected],
            [weights[r] for r in new_connected],
            tol=update_config.tol, max_sweeps=update_config.max_sweeps)
        for r, row in zip(new_connected, rows):
            table2.set_row(r, row)

    # blend existing touched nodes against the table holding new-node rows
    blend_source = table2.copy()
    for ref in touched:
        if ref not in samples:
            continue
        nbr_rows = np.stack([blend_source.row(nb) for nb in samples[ref].neighbors])
        table2.set_row(ref, residual_blend(blend_source.row(ref), nbr_rows,
                                           weights[ref], update_config.alpha))

    for ref in cold:
        t, i = ref
        x_raw = graph2.feature_blocks[t][i][None, :]
        mask = graph2.mask_blocks[t][i][None, :]
        x0 = init_features(x_raw, mask, params).value[0]
        rng = derived_rng(TAG_COLD, rng_seed, t, i)
        id_row = rng.normal(0.0, 0.1, size=table.dim)
        table2.set_row(ref, x0 + id_row + params.type_table.value[t])

    update_set = new_refs + touched
    refine_j_initial = None
    refine_j_final = None
    step_warning = False
    alignment2 = None
    if alignment is not None:
        if update_config.k != alignment.k:
            raise DataError("alignment was captured with k=%d but the update uses k=%d;"
                            " retrain to recapture it" % (alignment.k, update_config.k))
        rows = _row_arrays([ref for ref in update_set if ref in samples],
                           samples, weights, alignment.k)
        alignment2 = alignment.with_rows(*rows)
        if update_config.refine_steps > 0 and samples:
            iw = _reconstruction_operator(graph2, alignment2)
            mask_rows = np.zeros(graph2.num_nodes, dtype=bool)
            mask_rows[_global_ids(graph2, rows[0])] = True
            mask_rows[_global_ids(graph2, rows[1]).ravel()] = True
            problem = AlignmentProblem(iw, alignment.lam, table2.dense(), mask_rows,
                                       mu=update_config.refine_mu)
            result = incremental_refine(problem, update_config.refine_steps,
                                        update_config.refine_step_size)
            refine_j_initial = result.j_pen_initial
            refine_j_final = result.j_pen_final
            step_warning = result.step_warning
            moved = np.flatnonzero(mask_rows)
            for g in moved:
                table2.set_row(graph2.ref_of(int(g)), result.y[g])

    params2 = disentangled_update(
        params, {ref: table2.row(ref).copy() for ref in update_set},
        grow_seed=mix(rng_seed, TAG_COLD))

    report = {
        "batch_time": float(batch.batch_time),
        "n_new_nodes": int(len(new_refs)),
        "n_new_edges": int(stats["n_new_edges"]),
        "n_updated": int(len(update_set)),
        "n_cold_isolated": int(len(cold)),
        "reconstruction_loss": float(reconstruction_loss),
        "jacobi_sweeps": int(sweeps),
        "refine_J_initial": refine_j_initial,
        "refine_J_final": refine_j_final,
        "refine_step_warning": bool(step_warning),
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return graph2, params2, table2, report, alignment2
