"""CPU-only incremental embedding maintenance between full retrains.

New or edge-touched nodes get embeddings by locally linear reconstruction:
sample a small neighborhood, solve ridge-regularized reconstruction weights,
take the weighted combination (new nodes) or a residual blend (existing
nodes), then optionally nudge the touched rows so the embedding's alignment
spectrum stays close to the one captured at the last full retrain. Model
tensors other than the affected id-table rows are never modified.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .graph import DataError, NodeRef, _in_sorted, _pair_key, apply_increment
from .model import EmbeddingTable, init_features
from .seeding import derived_rng, mix, TAG_BFS, TAG_COLD
from .tensor import NumericError, SingularMatrixError, solve_ridge
from .timing import Stages


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
    hop1 = graph.neighbors_of(g)
    if len(hop1) == 0:
        raise ColdIsolatedError(ref)
    if len(hop1) >= k:
        chosen = hop1 if len(hop1) == k else np.sort(
            derived_rng(TAG_BFS, rng_seed).choice(hop1, size=k, replace=False))
        hops = np.ones(k, dtype=np.int64)
    else:
        hop2 = np.sort(np.concatenate([graph.neighbors_of(int(n)) for n in hop1]))
        fresh = np.append(True, hop2[1:] != hop2[:-1]) & (hop2 != g) & ~_in_sorted(hop1, hop2)[1]
        hop2 = hop2[fresh]
        need = k - len(hop1)
        # the generator is only built when a draw follows: exactly need
        # 2-hop nodes is neither a subsample nor short of k
        rng = derived_rng(TAG_BFS, rng_seed) if len(hop2) != need else None
        if len(hop2) > need:
            hop2 = np.sort(rng.choice(hop2, size=need, replace=False))
        chosen = np.concatenate([hop1, hop2])
        hops = np.repeat([1, 2], [len(hop1), len(hop2)])
        if len(chosen) < k:
            pad = rng.choice(len(chosen), size=k - len(chosen), replace=True)
            chosen = np.concatenate([chosen, chosen[pad]])
            hops = np.concatenate([hops, hops[pad]])
    types = graph.type_of_global(chosen)
    intra = chosen - graph.offsets[types]
    return NeighborSample(ref, zip(types.tolist(), intra.tolist()), hops.tolist())


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
            known_part[i] = k_w @ np.array(k_rows)
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
                change = float(np.abs(fresh - rows[i]).max()) if dim else 0.0
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
    # (table, R^T R, Y^T Y) for the table these rows were last applied to,
    # so the next update corrects both sums on the rows it changes instead
    # of recomputing them over the graph. Not saved. The sums go stale if
    # that table is changed in place; tables are treated as immutable.
    grams: tuple = field(default=None, repr=False, compare=False)

    def with_rows(self, refs, nbrs, weights):
        """A copy with the given rows replacing or joining the stored ones."""
        # on a ref given twice the first row wins
        keys, first = np.unique(_pair_key(refs[:, 0], refs[:, 1]), return_index=True)
        pos, present = _in_sorted(_pair_key(self.refs[:, 0], self.refs[:, 1]), keys)
        new_pos = pos[~present]
        # where a replaced row sits once the new rows are in
        old_pos = pos[present] + np.searchsorted(new_pos, pos[present], side="right")
        merged = []
        for stored, given in ((self.refs, refs), (self.nbrs, nbrs), (self.weights, weights)):
            given = given[first]
            out = np.insert(stored, new_pos, given[~present], axis=0)
            out[old_pos] = given[present]
            merged.append(out)
        return AlignmentState(self.k, self.lam, *merged)


def _row_arrays(refs, samples, weights, k):
    """(refs, nbrs, weights) arrays for the rows of ``refs``."""
    return (np.asarray(refs, dtype=np.int64).reshape(-1, 2),
            np.asarray([samples[r].neighbors for r in refs], dtype=np.int64).reshape(-1, k, 2),
            np.asarray([weights[r] for r in refs], dtype=np.float64).reshape(-1, k))


def capture_alignment(graph, table, k, eps, rng_seed, weight_space="embedding"):
    """Record per-node reconstruction rows and the alignment spectrum."""
    # rows go straight into arrays: holding a NeighborSample per node until
    # the end kept thousands of tuples alive for the garbage collector to
    # promote and traverse
    refs = np.empty((graph.num_nodes, 2), dtype=np.int64)
    nbrs = np.empty((graph.num_nodes, k, 2), dtype=np.int64)
    weights = np.empty((graph.num_nodes, k))
    rows = 0
    for t in range(graph.num_types):
        for i in range(graph.counts[t]):
            ref = NodeRef(t, i)
            try:
                sample = bfs_neighbors(graph, ref, k, mix(rng_seed, TAG_BFS, t, i))
            except ColdIsolatedError:
                continue
            center, nbr_vecs = _weight_vectors(graph, table, ref, sample.neighbors, weight_space)
            refs[rows] = ref
            nbrs[rows] = sample.neighbors
            weights[rows] = reconstruction_weights(center, nbr_vecs, eps)
            rows += 1
    state = AlignmentState(k, None, refs[:rows], nbrs[:rows], weights[:rows])
    state.lam, yty = _grams(_reconstruction_operator(graph, state), table.dense())
    state.grams = (table, state.lam, yty)
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
    # contiguous copies: every pass below then reads memory in order
    types, intras = np.ascontiguousarray(refs[..., 0]), np.ascontiguousarray(refs[..., 1])
    if types.size and (types.min() < 0 or types.max() >= graph.num_types):
        raise DataError("alignment row references an unknown node type")
    if np.any((intras < 0) | (intras >= np.asarray(graph.counts)[types])):
        raise DataError("alignment row references a node missing from the graph")
    return graph.offsets[types] + intras


def _reconstruction_operator(graph, alignment):
    """(I - W) over the current global index, identity where no row exists."""
    present = np.zeros(graph.num_nodes, dtype=bool)
    present[_global_ids(graph, alignment.refs)] = True
    return _operator_csr(graph.num_nodes, np.arange(graph.num_nodes), present,
                         _global_ids(graph, alignment.nbrs), alignment.weights)


def _operator_rows(graph, alignment, refs):
    """Rows of (I - W) for the nodes ``refs`` (m, 2), as an (m, N) matrix."""
    pos, present = _in_sorted(_pair_key(alignment.refs[:, 0], alignment.refs[:, 1]),
                              _pair_key(refs[:, 0], refs[:, 1]))
    pos = pos[present]
    return _operator_csr(graph.num_nodes, _global_ids(graph, refs), present,
                         _global_ids(graph, alignment.nbrs[pos]), alignment.weights[pos])


def _operator_csr(n, centers, present, nbrs, weights):
    """CSR rows of (I - W), built with no sort.

    Row i holds the identity entry at column ``centers[i]``, then, where
    ``present[i]``, the next row of ``nbrs`` with its negated ``weights`` in
    sampled order, else k explicit zeros on the diagonal. A neighbor
    sampled twice appears twice and products sum the repeats;
    ``sum_duplicates()`` gives the canonical form.
    """
    m, k = len(centers), weights.shape[1]
    index = np.int32 if max(n, m * (k + 1)) < 2 ** 31 else np.int64
    indices = np.repeat(np.asarray(centers, dtype=index)[:, None], k + 1, axis=1)
    indices[present, 1:] = nbrs
    data = np.zeros((m, k + 1))
    data[:, 0] = 1.0
    data[present, 1:] = -weights
    indptr = np.arange(0, m * (k + 1) + 1, k + 1, dtype=index)
    return scipy.sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(m, n))


def _grams(i_minus_w, y):
    """R^T R for R = (I - W) Y, and Y^T Y."""
    r = i_minus_w @ y
    return r.T @ r, y.T @ y


class AlignmentProblem:
    """Spectrum-matching objective restricted to an update neighborhood."""

    def __init__(self, i_minus_w, lam, y, update_mask, mu=1.0, grams=None):
        self.i_minus_w = scipy.sparse.csr_matrix(i_minus_w)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.update_mask = np.asarray(update_mask, dtype=bool)
        self.mu = float(mu)
        self.grams = grams   # (R^T R, Y^T Y) at y, when the caller holds them

    @functools.cached_property
    def moved_block(self):
        """(M, B, H): the moved rows, B = (I - W)[A, M] and H = B^T R at ``y``.

        A are the rows of I - W that read a moved row, the only rows of
        R = (I - W) Y that moving the rows M changes.
        """
        moved = np.flatnonzero(self.update_mask)
        cols = self.i_minus_w[:, moved]
        reads = np.flatnonzero(np.diff(cols.indptr))
        block = cols[reads]
        return moved, block, block.T @ (self.i_minus_w[reads] @ self.y)


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

    The line search is closed-form. Let B = (I - W)[:, M] be the operator's
    columns of the moved rows M and G the gradient on those rows. A step of
    length t moves R = (I - W) Y by t BG, so

        R(t)^T R(t) = R^T R - t (H^T G + G^T H) + t^2 G^T (B^T B) G
        Y(t)^T Y(t) = Y^T Y - t (Y_M^T G + G^T Y_M) + t^2 G^T G

    with H = B^T R. The descent keeps H (|M| x D), from which the gradient
    is 4 H S + 4 mu Y_M P, and moves it to H - t (B^T B) G. Every
    backtracking trial costs O(D^2) and a step O(|M| D^2) plus one product
    with the |M| x |M| sparse B^T B; no step touches the other rows. The
    entry sums R^T R and Y^T Y cost one pass over the graph unless the
    problem carries them (``grams``); H needs R only on the rows that read
    a moved row.
    """
    y, mu = problem.y, problem.mu
    rtr, yty = _grams(problem.i_minus_w, y) if problem.grams is None else problem.grams
    moved, block, h = problem.moved_block
    s = rtr - problem.lam
    p = yty - len(y) * np.eye(y.shape[1])
    j_align = float(np.sum(s * s))
    j_pen = j_align + mu * float(np.sum(p * p))
    traj = [j_pen]
    j_align0 = j_align
    warning = False
    step = float(step_size)
    y = y.copy()
    if not len(moved) or steps <= 0:
        return RefineResult(y, traj, False, j_pen, j_pen, j_align, j_align)
    gram = (block.T @ block).tocsr()
    y_m = y[moved]
    for _ in range(steps):
        grad = 4.0 * (h @ s) + 4.0 * mu * (y_m @ p)
        if float(np.linalg.norm(grad)) == 0.0:
            break
        h_step = gram @ grad
        cross_r, cross_y = h.T @ grad, y_m.T @ grad
        lin_r, quad_r = cross_r + cross_r.T, grad.T @ h_step
        lin_y, quad_y = cross_y + cross_y.T, grad.T @ grad
        accepted = False
        trial = step
        for _ in range(max_halvings + 1):
            s_new = s - trial * lin_r + (trial * trial) * quad_r
            p_new = p - trial * lin_y + (trial * trial) * quad_y
            j_align_new = float(np.sum(s_new * s_new))
            j_pen_new = j_align_new + mu * float(np.sum(p_new * p_new))
            if j_pen_new <= j_pen:
                accepted = True
                break
            trial /= 2.0
        if not accepted:
            warning = True
            break
        h = h - trial * h_step
        y_m = y_m - trial * grad
        j_align, j_pen, s, p = j_align_new, j_pen_new, s_new, p_new
        traj.append(j_pen)
        step = min(trial * 2.0, float(step_size))
    y[moved] = y_m
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
    items = sorted(row_updates.items()) if isinstance(row_updates, dict) else sorted(row_updates)
    need = 1 + max(ref[1] for ref, _ in items) if items else 0
    out = params.copy(id_capacity=need, grow_seed=grow_seed)
    for ref, row in items:
        t, i = int(ref[0]), int(ref[1])
        if t < 0 or t >= out.num_types:
            raise DataError("unknown node type %d" % t)
        out.id_table.value[i] = np.asarray(row, dtype=np.float64) - out.type_table.value[t]
    return out


def _entry_grams(graph, table, alignment, i_minus_w, y, update_set):
    """R^T R and Y^T Y at ``y``, corrected from the sums cached for ``table``.

    ``y`` is ``table`` grown to ``graph`` with the update set's rows
    rewritten. So Y changed on the update set U only, and R on the rows that
    are in U or read a row of U; both sums are corrected on those rows.
    Without sums cached for ``table`` they are taken over every row.
    """
    if alignment.grams is None or alignment.grams[0] is not table:
        return _grams(i_minus_w, y)
    _, rtr, yty = alignment.grams
    refs = np.asarray(update_set, dtype=np.int64).reshape(-1, 2)
    u = _global_ids(graph, refs)
    y_before = np.zeros((len(u), y.shape[1]))
    for t, block in enumerate(table.blocks):
        old = (refs[:, 0] == t) & (refs[:, 1] < len(block))
        y_before[old] = block[refs[old, 1]]
    changed = np.union1d(u, np.flatnonzero(np.diff(i_minus_w[:, u].indptr)))
    types = graph.type_of_global(changed)
    # the rows as they were: the old alignment rows over the old Y
    old_rows = _operator_rows(graph, alignment,
                              np.stack([types, changed - graph.offsets[types]], axis=1))
    r_before = old_rows @ y - old_rows[:, u] @ (y[u] - y_before)
    r_after = i_minus_w[changed] @ y
    return (rtr + r_after.T @ r_after - r_before.T @ r_before,
            yty + y[u].T @ y[u] - y_before.T @ y_before)


def _moved_grams(problem, y_after):
    """The problem's entry sums moved to ``y_after``, which differs on the moved rows.

    R moves by BC for the change C on the moved rows, so R^T R moves by
    H^T C + C^T H + (BC)^T (BC), with B and H from ``problem.moved_block``.
    """
    moved, block, h = problem.moved_block
    y_before = problem.y
    change = y_after[moved] - y_before[moved]
    cross = h.T @ change
    b_change = block @ change
    rtr, yty = problem.grams
    return (rtr + cross + cross.T + b_change.T @ b_change,
            yty + y_after[moved].T @ y_after[moved] - y_before[moved].T @ y_before[moved])


def _table_over(dense, graph, version, created_ms=None):
    """An EmbeddingTable whose per-type blocks are views of ``dense``."""
    if created_ms is None:
        created_ms = int(time.time() * 1000)
    return EmbeddingTable([dense[graph.offsets[t]:graph.offsets[t + 1]]
                           for t in range(graph.num_types)],
                          version=version, created_ms=created_ms)


def ille_update(graph, batch, params, table, model_config, update_config,
                alignment=None, rng_seed=0):
    """Apply one increment batch and refresh embeddings without training.

    Returns (new_graph, new_params, new_table, report, new_alignment).
    The update set is the batch's new nodes plus existing endpoints of its
    accepted new edges. Cold-isolated new nodes fall back to the model's
    feature pathway and are counted in the report. ``report["stage_ms"]``
    splits the wall time into apply, sample, weights, embed, blend, refine
    and write-back.
    """
    t0 = time.perf_counter()
    stages = Stages()
    graph2, stats = apply_increment(graph, batch)
    if table.counts != graph.counts:
        raise DataError("embedding table counts %s do not match base graph %s"
                        % (table.counts, graph.counts))

    # the new table's blocks are views of one dense (N, D) array, each type
    # grown by zero rows for its new nodes
    dense = np.concatenate([part for b, c in zip(table.blocks, graph2.counts)
                            for part in (b, np.zeros((c - len(b), table.dim)))])
    table2 = _table_over(dense, graph2, table.version + 1)

    new_refs = sorted(NodeRef(*ref) for ref, _, _ in batch.new_nodes)
    new_set = set(new_refs)
    touched = set()
    for src_ref, dst_ref, _, _ in stats["accepted_edges"]:
        for ref in (src_ref, dst_ref):
            if ref not in new_set:
                touched.add(NodeRef(*ref))
    touched = sorted(touched)
    stages.lap("apply")

    samples = {}
    cold = []
    for ref in new_refs + touched:
        try:
            samples[ref] = bfs_neighbors(graph2, ref, update_config.k,
                                         mix(rng_seed, TAG_BFS, ref[0], ref[1]))
        except ColdIsolatedError:
            cold.append(ref)
    stages.lap("sample")

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
    stages.lap("weights")

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

    # a cold node has no neighbors, so no other row reads it
    for ref in cold:
        t, i = ref
        x_raw = graph2.feature_blocks[t][i][None, :]
        mask = graph2.mask_blocks[t][i][None, :]
        x0 = init_features(x_raw, mask, params).value[0]
        rng = derived_rng(TAG_COLD, rng_seed, t, i)
        id_row = rng.normal(0.0, 0.1, size=table.dim)
        table2.set_row(ref, x0 + id_row + params.type_table.value[t])
    stages.lap("embed")

    # blend existing touched nodes against the table holding new-node rows:
    # every blend reads before any blended row is written
    blended = [(ref, residual_blend(table2.row(ref),
                                    np.stack([table2.row(nb) for nb in samples[ref].neighbors]),
                                    weights[ref], update_config.alpha))
               for ref in touched if ref in samples]
    for ref, row in blended:
        table2.set_row(ref, row)
    stages.lap("blend")

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
            grams = _entry_grams(graph2, table, alignment, iw, dense, update_set)
            mask_rows = np.zeros(graph2.num_nodes, dtype=bool)
            mask_rows[_global_ids(graph2, rows[0])] = True
            mask_rows[_global_ids(graph2, rows[1]).ravel()] = True
            problem = AlignmentProblem(iw, alignment.lam, dense, mask_rows,
                                       mu=update_config.refine_mu, grams=grams)
            result = incremental_refine(problem, update_config.refine_steps,
                                        update_config.refine_step_size)
            refine_j_initial = result.j_pen_initial
            refine_j_final = result.j_pen_final
            step_warning = result.step_warning
            # the refined array differs from the table only on the moved rows
            table2 = _table_over(result.y, graph2, table2.version, table2.created_ms)
            alignment2.grams = (table2, *_moved_grams(problem, result.y))
    stages.lap("refine")

    params2 = disentangled_update(
        params, {ref: table2.row(ref).copy() for ref in update_set},
        grow_seed=mix(rng_seed, TAG_COLD))
    stages.lap("write-back")

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
        "stage_ms": stages.ms,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return graph2, params2, table2, report, alignment2
