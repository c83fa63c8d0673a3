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

from .graph import DataError, _in_sorted, _ranges, _unique, apply_increment, id_remap
from .model import EmbeddingTable, init_features
from .seeding import (derived_rng, mix, mix_many, pcg64_state, seed_states, seeded_choice_rows,
                      TAG_BFS, TAG_COLD)
from .tensor import NumericError, SingularMatrixError, cholesky_solve, ridge_systems
from .timing import Stages


# 2-hop candidate entries gathered per pass of bfs_neighbors (2 MiB)
_HOP2_CHUNK = 1 << 18


def bfs_neighbors(graph, ids, k, rng_seed):
    """(connected, nbrs): which global ids of ``ids`` have neighbors, and the
    (m, k) reconstruction neighbors of those that do, in ``ids`` order.

    Each node takes its 1-hop nodes first, then 2-hop, then pads. Node
    (t, i) draws from ``derived_rng(TAG_BFS, mix(rng_seed, TAG_BFS, t, i))``,
    so its neighborhood does not depend on which other nodes are sampled
    with it. Rows with more than k 1-hop nodes, and rows whose 2-hop set
    exceeds the k - deg they still need, draw sorted ranks without
    replacement by ``seeded_choice_rows``, one call per draw size;
    adjacency rows and 2-hop runs are sorted, so rank r picks the r-th
    candidate. A row short of k with both hops pads by resampling its
    collected set with replacement, on a shared generator set to its state.
    The draws are bit-identical to one generator per node.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = np.asarray(ids, dtype=np.int64)
    bad = ids[(ids < 0) | (ids >= graph.num_nodes)]
    if len(bad):
        raise DataError("global index %d out of range" % bad[0])
    indptr, indices = graph._adj_indptr, graph._adj_indices
    start, deg = indptr[ids], indptr[ids + 1] - indptr[ids]
    nbrs = np.empty((len(ids), k), dtype=np.int64)
    exact = np.flatnonzero(deg == k)
    nbrs[exact] = indices[start[exact, None] + np.arange(k)]
    # generator states of every row that may draw, in one pass
    states = np.empty((4, len(ids)), dtype=np.uint64)
    may = np.flatnonzero((deg > 0) & (deg != k))
    refs = _refs(graph, ids[may])
    states[:, may] = seed_states(TAG_BFS, mix_many(rng_seed, TAG_BFS, refs[:, 0], refs[:, 1]))
    many = np.flatnonzero(deg > k)
    ranks = seeded_choice_rows(states[:, many], deg[many], k)
    nbrs[many] = indices[start[many, None] + ranks]
    short = np.flatnonzero((deg > 0) & (deg < k))
    pos1 = _ranges(start[short], deg[short])
    reach = np.add.reduceat(indptr[indices[pos1] + 1] - indptr[indices[pos1]],
                            np.cumsum(deg[short]) - deg[short]) if len(short) else short
    bounds = _budget_bounds(reach, _HOP2_CHUNK)
    rng = np.random.Generator(np.random.PCG64())
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = short[lo:hi]
        first, hop2 = _hop2(graph, ids[rows], start[rows], deg[rows])
        n2, d = np.diff(first), deg[rows]
        need = k - d
        # 1-hop nodes first, then the whole 2-hop run where it does not
        # exceed the need
        col = _ranges(np.zeros(len(rows), dtype=np.int64), d)
        nbrs[np.repeat(rows, d), col] = indices[_ranges(start[rows], d)]
        take = n2 <= need
        r2 = np.repeat(rows[take], n2[take])
        nbrs[r2, _ranges(d[take], n2[take])] = hop2[_ranges(first[:-1][take], n2[take])]
        draw = np.flatnonzero(~take)
        for size in np.unique(need[draw]).tolist():
            c = draw[need[draw] == size]
            ranks = seeded_choice_rows(states[:, rows[c]], n2[c], size)
            nbrs[rows[c], k - size:] = hop2[first[c, None] + ranks]
        # short of k with both hops: pad by resampling the collected set
        pad = np.flatnonzero(n2 < need)
        for j, have in zip(rows[pad].tolist(), (d + n2)[pad].tolist()):
            rng.bit_generator.state = pcg64_state(states[:, j].tolist())
            nbrs[j, have:] = nbrs[j, rng.choice(have, size=k - have, replace=True)]
    return deg > 0, nbrs[deg > 0]


def _hop2(graph, centers, start, deg):
    """Per center, its sorted unique 2-hop nodes: neighbors of its
    neighbors that are neither itself nor a neighbor. Returns (first,
    nodes): where each center's run of ``nodes`` starts, and the runs."""
    indptr, indices = graph._adj_indptr, graph._adj_indices
    n = np.int64(graph.num_nodes)
    mid = indices[_ranges(start, deg)]
    mid_row = np.repeat(np.arange(len(centers)), deg)
    mid_deg = indptr[mid + 1] - indptr[mid]
    keys = _unique(np.repeat(mid_row, mid_deg) * n + indices[_ranges(indptr[mid], mid_deg)])
    row, node = np.divmod(keys, n)
    # a 1-hop key run is sorted: rows ascend and adjacency rows are sorted
    keep = (node != centers[row]) & ~_in_sorted(mid_row * n + mid, keys)[1]
    return np.searchsorted(row[keep], np.arange(len(centers) + 1)), node[keep]


def _budget_bounds(sizes, budget):
    """Chunk bounds over items of the given sizes, each chunk at most
    ``budget`` in total unless one item alone exceeds it."""
    bounds = [0]
    total = np.cumsum(sizes)
    while bounds[-1] < len(sizes):
        base = total[bounds[-1] - 1] if bounds[-1] else 0
        bounds.append(max(bounds[-1] + 1, int(np.searchsorted(total, base + budget, side="right"))))
    return bounds


def _refs(graph, ids):
    """(type, intra) pairs of the global ids ``ids``, shape ``ids.shape + (2,)``."""
    types = graph.type_of_global(ids)
    return np.stack([types, ids - graph.offsets[types]], axis=-1)


# floats of the (rows, k, D) neighbor stack gathered per Gram chunk (512 KiB)
_GRAM_CHUNK_FLOATS = 1 << 16


def reconstruction_weights(vecs, centers, nbrs, eps):
    """(m, k) affine reconstruction weights: row j reconstructs the row
    ``vecs[centers[j]]`` from the rows ``vecs[nbrs[j]]``.

    Each row solves the ridge-regularized Gram system of its neighbor
    difference vectors, normalized to sum to one. An all-zero Gram (every
    neighbor coincides with the center) falls back to uniform weights when
    eps > 0; with eps = 0 the singular system propagates as an error.
    Grams and ridge systems are built stacked, a chunk of rows at a time;
    each row then pays one ``cholesky_solve``, a direct ``dpotrf`` /
    ``dpotrs`` pair, about 4 us at k = 8. Stacked products, traces and row
    sums round exactly as their per-row forms.
    """
    vecs = np.asarray(vecs, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int64)
    m, k = nbrs.shape
    if k == 0:
        raise ValueError("at least one neighbor required")
    if k == 1:
        return np.ones((m, 1))
    w = np.empty((m, k))
    uniform = np.zeros(m, dtype=bool)
    ones = np.ones(k)
    step = max(1, _GRAM_CHUNK_FLOATS // max(1, k * vecs.shape[1]))
    for c in range(0, m, step):
        diffs = vecs[centers[c:c + step], None, :] - vecs[nbrs[c:c + step]]
        for j, system in enumerate(ridge_systems(diffs @ diffs.transpose(0, 2, 1), eps), c):
            try:
                w[j] = cholesky_solve(system, ones)
            except SingularMatrixError:
                if eps == 0:
                    raise
                uniform[j] = True   # degenerate neighborhood: trace(G) = 0
    w[uniform] = 1.0 / k
    total = w.sum(axis=1)
    total[uniform] = 1.0   # uniform weights are returned as they are
    bad = ~np.isfinite(total) | (np.abs(total) < 1e-300)
    if bad.any():
        raise NumericError("reconstruction weights sum to zero; neighborhood is degenerate")
    return w / total[:, None]


def _weight_space(graph, y, weight_space):
    """The (N, D) rows that reconstruction weights are solved over."""
    if weight_space == "embedding":
        return y
    if weight_space == "feature":
        return np.concatenate(graph.feature_blocks)
    raise ValueError("weight_space must be 'embedding' or 'feature'")


def residual_blend(x_center, x_neighbors, weights, alpha):
    """Blend each center row with its weighted neighbor reconstruction.

    ``x_center`` is (m, D), ``x_neighbors`` (m, k, D) and ``weights`` (m, k).
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError("alpha must lie in [0, 1]")
    x_center = np.asarray(x_center, dtype=np.float64)
    x_neighbors = np.asarray(x_neighbors, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    return alpha * np.matmul(weights[:, None, :], x_neighbors)[:, 0] + (1.0 - alpha) * x_center


def embed_increment(y, centers, nbrs, weights):
    """Closed-form embeddings for new nodes from their neighbors' rows.

    Row i embeds the node ``centers[i]`` as the ``weights[i]``-weighted
    combination of the rows of its neighbors ``nbrs[i]``; ids index the rows
    of the (N, D) array ``y``. The rows U that read another new node solve
    (I - W_UU) X_U = B_U by one sparse LU factorization, B_U being their
    weighted sum of table rows and of the other new rows; a neighbor drawn
    twice counts twice. A row of U that reaches, along nonzero weights, no
    row with a nonzero weight outside U has no unique value: it is 0, and
    true in the returned ``unsolved`` mask. An exactly singular system
    raises ``SingularMatrixError``. Returns (rows, loss, |U|, unsolved),
    loss being the summed squared reconstruction residual.
    """
    centers = np.asarray(centers, dtype=np.int64)
    nbrs = np.asarray(nbrs, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n_new = len(centers)
    if nbrs.shape != weights.shape or len(nbrs) != n_new:
        raise ValueError("centers, nbrs and weights disagree in length")
    order = np.argsort(centers, kind="stable")
    if np.any(np.diff(centers[order]) == 0):
        raise DataError("duplicate centers in embed_increment")
    pos, coupled = _in_sorted(centers[order], nbrs)
    known = nbrs[~coupled]
    if known.size and (known.min() < 0 or known.max() >= len(y)):
        raise DataError("neighbor %d missing from embedding table"
                        % known[(known < 0) | (known >= len(y))][0])
    pos = order[np.minimum(pos, n_new - 1)]   # the new row a coupled entry reads

    # each row's weighted sum of its table rows, a coupled entry weighing 0
    table_part = np.matmul(np.where(coupled, 0.0, weights)[:, None, :],
                           y[np.where(coupled, 0, nbrs)])[:, 0]
    rows = table_part.copy()
    reads = coupled.any(axis=1)
    solve = np.zeros(n_new, dtype=bool)
    if reads.any():
        inner = coupled & reads[pos]   # entries that read a row of U
        live = weights != 0
        # a row of U is solved if it reaches an anchor, a row with a live
        # entry outside U, along the live entries that read a row of U
        src, _ = np.nonzero(inner & live)
        solve = reads & _reaching((live & ~inner).any(axis=1), src, pos[inner & live])
        rows[reads] = 0.0
        s, at = np.flatnonzero(solve), np.cumsum(solve) - 1
        inside = inner[s] & solve[pos[s]]
        block = _operator_csr(len(s), at[s], np.ones(len(s), dtype=bool),
                              np.where(inside, at[pos[s]], at[s, None]),
                              np.where(inside, weights[s], 0.0))
        rhs = table_part[s] + np.matmul(np.where(coupled[s] & ~inside, weights[s], 0.0)[:, None, :],
                                        rows[pos[s]])[:, 0]
        import scipy.sparse.linalg   # loaded by coupled batches only
        try:
            lu = scipy.sparse.linalg.splu(block.tocsc())
        except RuntimeError as exc:
            raise SingularMatrixError("coupled new-node rows: %s" % exc) from exc
        rows[s] = lu.solve(rhs)

    resid = rows - table_part - np.matmul(np.where(coupled, weights, 0.0)[:, None, :],
                                          rows[pos])[:, 0]
    return rows, float(np.sum(resid * resid)), int(reads.sum()), reads & ~solve


def _reaching(seeds, src, dst):
    """Which nodes reach a seed along the edges ``src[e] -> dst[e]``, as a
    boolean mask; ``seeds`` masks the seed nodes. Each array pass over the
    edges adds every node with an edge into the reached set."""
    reached = seeds.copy()
    while True:
        grow = src[reached[dst] & ~reached[src]]
        if not len(grow):
            return reached
        reached[grow] = True


# ---------------------------------------------------------------------------
# alignment capture and refinement


@dataclass
class AlignmentState:
    """Reconstruction rows and target spectrum captured at a full retrain.

    Row r reconstructs the node ``rows[r]`` from the k nodes ``nbrs[r]``
    with ``weights[r]``. Ids are global ids of a graph with the per-type
    node counts ``counts``; ``in_graph`` re-addresses them to a graph grown
    from it. ``lam`` is the D x D alignment spectrum R^T R with
    R = (I - W) Y taken over the full table at capture time.
    """

    lam: np.ndarray
    counts: tuple
    rows: np.ndarray       # (R,) int64, ascending
    nbrs: np.ndarray       # (R, k) int64
    weights: np.ndarray    # (R, k) float64
    # (table, R^T R, Y^T Y) for the table these rows were last applied to,
    # so the next update corrects both sums on the rows it changes instead
    # of recomputing them over the graph. Not saved. The sums go stale if
    # that table is changed in place; tables are treated as immutable.
    grams: tuple = field(default=None, repr=False, compare=False)

    k = property(lambda self: self.nbrs.shape[1])

    def in_graph(self, graph):
        """This state with its ids re-addressed to ``graph``, which must have
        as many types and at least as many nodes of each; the cached sums
        carry over, since new nodes have no rows."""
        counts = tuple(graph.counts)
        if counts == self.counts:
            return self
        if len(counts) != len(self.counts) or any(c < s for c, s in zip(counts, self.counts)):
            raise DataError("alignment addresses a graph with node counts %s, which the graph"
                            " with counts %s does not contain" % (self.counts, counts))
        remap = id_remap(self.counts, graph.offsets)
        return AlignmentState(self.lam, counts, remap[self.rows], remap[self.nbrs],
                              self.weights, self.grams)

    def with_rows(self, rows, nbrs, weights):
        """A copy with the given rows replacing or joining the stored ones."""
        # on an id given twice the first row wins
        keys, first = np.unique(rows, return_index=True)
        pos, present = _in_sorted(self.rows, keys)
        new_pos = pos[~present]
        # a given row lands at its stored position moved down by the new rows
        # that sort before it; each run of stored rows between two insertion
        # points is one slice copy, about 4x faster than np.insert's masked
        # copy on 16k rows
        dest = pos + np.cumsum(~present) - ~present
        bounds = [0, *new_pos.tolist(), len(self.rows)]
        merged = []
        for stored, given in ((self.rows, rows), (self.nbrs, nbrs), (self.weights, weights)):
            out = np.empty((len(stored) + len(new_pos),) + stored.shape[1:], dtype=stored.dtype)
            for j in range(len(bounds) - 1):
                out[bounds[j] + j:bounds[j + 1] + j] = stored[bounds[j]:bounds[j + 1]]
            out[dest] = given[first]
            merged.append(out)
        return AlignmentState(self.lam, self.counts, *merged)


def capture_alignment(graph, table, k, eps, rng_seed, weight_space="embedding"):
    """Record per-node reconstruction rows and the alignment spectrum.

    Every node with a neighbor gets a row, in ``graph``'s global ids: its
    neighbors from ``bfs_neighbors`` and its weights from
    ``reconstruction_weights``, both over every node in array passes.
    """
    ids = np.arange(graph.num_nodes)
    y = table.dense()
    vecs = _weight_space(graph, y, weight_space)
    connected, nbrs = bfs_neighbors(graph, ids, k, rng_seed)
    centers = ids[connected]
    state = AlignmentState(None, tuple(graph.counts), centers, nbrs,
                           reconstruction_weights(vecs, centers, nbrs, eps))
    state.lam, yty = _grams(_reconstruction_operator(graph, state), y)
    state.grams = (table, state.lam, yty)
    return state


def _reconstruction_operator(graph, alignment):
    """(I - W) over ``graph``'s global index, identity where no row exists."""
    return _operator_rows(graph, alignment, np.arange(graph.num_nodes))


def _operator_rows(graph, alignment, ids):
    """Rows of (I - W) for the global ids ``ids``, as a (len(ids), N) matrix."""
    pos, present = _in_sorted(alignment.rows, ids)
    pos = pos[present]
    return _operator_csr(graph.num_nodes, ids, present, alignment.nbrs[pos],
                         alignment.weights[pos])


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
    """Spectrum-matching objective restricted to an update neighborhood.

    R = (I - W) Y with the (I - W) of ``alignment``, re-addressed to
    ``graph``'s global index, and the target spectrum ``alignment.lam``.
    """

    def __init__(self, graph, alignment, y, update_mask, mu=1.0, grams=None):
        self.graph = graph
        self.alignment = alignment.in_graph(graph)
        self.lam = np.asarray(alignment.lam, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.update_mask = np.asarray(update_mask, dtype=bool)
        self.mu = float(mu)
        self.grams = grams   # (R^T R, Y^T Y) at y, when the caller holds them

    @functools.cached_property
    def i_minus_w(self):
        """The whole (I - W); only the entry sums of a problem without
        ``grams`` need it."""
        return _reconstruction_operator(self.graph, self.alignment)

    def rows_reading(self, ids):
        """Sorted global ids of ``ids`` and of the alignment rows that read one:
        the rows of (I - W) with an entry in a column of ``ids``."""
        hit = np.zeros(self.graph.num_nodes, dtype=bool)
        hit[ids] = True
        reads = np.flatnonzero(hit[self.alignment.nbrs.ravel()]) // self.alignment.k
        hit[self.alignment.rows[reads]] = True
        return np.flatnonzero(hit)

    @functools.cached_property
    def moved_block(self):
        """(M, B, H): the moved rows, B = (I - W)[A, M] and H = B^T R at ``y``.

        A are the rows of I - W that read a moved row, the only rows of
        R = (I - W) Y that moving the rows M changes.
        """
        moved = np.flatnonzero(self.update_mask)
        rows = _operator_rows(self.graph, self.alignment, self.rows_reading(moved))
        block = rows[:, moved]
        return moved, block, block.T @ (rows @ self.y)


@dataclass
class RefineResult:
    moved: np.ndarray     # the rows the update mask lets move
    y_moved: np.ndarray   # their values after the descent; no other row moves
    trajectory: list
    step_warning: bool
    j_pen_initial: float
    j_pen_final: float
    j_align_initial: float
    j_align_final: float


def incremental_refine(problem, steps, step_size, max_halvings=20):
    """Masked projected gradient descent on the penalized alignment objective.

    Only rows flagged in the update mask move, and the result holds just
    those rows and their new values. Each step backtracks (halving
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
    y_m = y[moved]
    if not len(moved) or steps <= 0:
        return RefineResult(moved, y_m, traj, False, j_pen, j_pen, j_align, j_align)
    gram = (block.T @ block).tocsr()
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
    return RefineResult(moved, y_m, traj, warning, traj[0], j_pen, j_align0, j_align)


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

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.refine_steps < 0:
            raise ValueError("refine_steps must be >= 0")
        if self.refine_step_size <= 0:
            raise ValueError("refine_step_size must be positive")
        if self.refine_mu < 0:
            raise ValueError("refine_mu must be non-negative")
        if self.weight_space not in ("embedding", "feature"):
            raise ValueError("weight_space must be 'embedding' or 'feature'")


def disentangled_update(params, refs, rows, grow_seed=0):
    """Write refined output rows back into id-table rows only.

    For each ref (t, i) in the (m, 2) array ``refs`` with its row of the
    (m, D) array ``rows``: id_table[i] = row - type_table[t], leaving every
    other tensor byte-identical. Types share id rows by design, so two
    updates at the same intra id resolve in sorted-ref order (last wins).
    Returns a fresh ``ModelParams``; the input is not modified.
    """
    refs = np.asarray(refs, dtype=np.int64).reshape(-1, 2)
    rows = np.asarray(rows, dtype=np.float64)
    bad = (refs[:, 0] < 0) | (refs[:, 0] >= params.num_types)
    if bad.any():
        raise DataError("unknown node type %d" % refs[bad, 0][0])
    # the first of each intra id in descending ref order is the last write
    order = np.lexsort((refs[:, 1], refs[:, 0]))[::-1]
    intra, first = np.unique(refs[order, 1], return_index=True)
    pick = order[first]
    out = params.copy(id_capacity=1 + int(intra[-1]) if len(intra) else 0, grow_seed=grow_seed)
    out.id_table.value[intra] = rows[pick] - out.type_table.value[refs[pick, 0]]
    return out


def _entry_grams(problem, table, alignment, u):
    """The problem's R^T R and Y^T Y, corrected from the sums ``alignment``
    caches for ``table``.

    ``problem.y`` is ``table`` grown to ``problem.graph`` with the rows of
    the global ids ``u`` rewritten. ``alignment`` is the parent's state
    re-addressed to ``problem.graph``, and ``problem.alignment`` is it with
    rows of ``u`` replaced or added. So Y changed on U only, and R on the
    rows that are in U or read a row of U; both sums are corrected on those
    rows. Without sums cached for ``table`` they are taken over every row.
    """
    graph, y = problem.graph, problem.y
    if alignment.grams is None or alignment.grams[0] is not table:
        return _grams(problem.i_minus_w, y)
    _, rtr, yty = alignment.grams
    refs = _refs(graph, u)
    y_before = np.zeros((len(u), y.shape[1]))
    for t, block in enumerate(table.blocks):
        old = (refs[:, 0] == t) & (refs[:, 1] < len(block))
        y_before[old] = block[refs[old, 1]]
    changed = problem.rows_reading(u)
    rows = _operator_rows(graph, problem.alignment, changed)
    r_after = rows @ y
    # the rows as they were, over the old Y: the update replaced or added
    # alignment rows on U only, so elsewhere the old rows are the new ones
    step = y[u] - y_before
    r_before = r_after - rows[:, u] @ step
    old_rows = _operator_rows(graph, alignment, u)
    r_before[np.searchsorted(changed, u)] = old_rows @ y - old_rows[:, u] @ step
    return (rtr + r_after.T @ r_after - r_before.T @ r_before,
            yty + y[u].T @ y[u] - y_before.T @ y_before)


def _moved_grams(problem, y_moved):
    """The problem's entry sums with the moved rows at ``y_moved``.

    R moves by BC for the change C on the moved rows, so R^T R moves by
    H^T C + C^T H + (BC)^T (BC), with B and H from ``problem.moved_block``.
    """
    moved, block, h = problem.moved_block
    y_before = problem.y[moved]
    change = y_moved - y_before
    cross = h.T @ change
    b_change = block @ change
    rtr, yty = problem.grams
    return (rtr + cross + cross.T + b_change.T @ b_change,
            yty + y_moved.T @ y_moved - y_before.T @ y_before)


def ille_update(graph, batch, params, table, model_config, update_config,
                alignment=None, rng_seed=0):
    """Apply one increment batch and refresh embeddings without training.

    Returns (new_graph, new_params, new_table, report, new_alignment).
    The update set is the batch's new nodes plus existing endpoints of its
    accepted new edges. New nodes are placed by ``embed_increment``, those
    that read another new node in one sparse direct solve; the report's
    ``jacobi_sweeps`` counts them. New nodes with no neighbor, and new nodes
    whose rows reach no existing node's row (``embed_increment``'s unsolved
    rows), fall back to the model's feature pathway and are counted in the
    report's ``n_cold_isolated``. ``report["stage_ms"]``
    splits the wall time into apply, sample, weights, embed, blend, refine
    and write-back.
    """
    if table.counts != graph.counts:
        raise DataError("embedding table counts %s do not match base graph %s"
                        % (table.counts, graph.counts))
    if alignment is not None and update_config.k != alignment.k:
        raise DataError("alignment was captured with k=%d but the update uses k=%d;"
                        " retrain to recapture it" % (alignment.k, update_config.k))
    t0 = time.perf_counter()
    stages = Stages()
    graph2, stats = apply_increment(graph, batch)

    # the new table's blocks are views of one dense (N, D) array, each type
    # grown by zero rows for its new nodes
    dense = np.concatenate([part for b, c in zip(table.blocks, graph2.counts)
                            for part in (b, np.zeros((c - len(b), table.dim)))])
    table2 = EmbeddingTable([dense[graph2.offsets[t]:graph2.offsets[t + 1]]
                             for t in range(graph2.num_types)], version=table.version + 1)

    # the update set in global ids of graph2: the new nodes, then the existing
    # endpoints of the accepted edges, which apply_increment appends to each
    # relation's edge arrays
    is_new = np.zeros(graph2.num_nodes, dtype=bool)
    ends = [np.empty(0, dtype=np.int64)]
    for t in range(graph.num_types):
        is_new[graph2.offsets[t] + graph.counts[t]:graph2.offsets[t + 1]] = True
    for r, (s_t, d_t) in enumerate(graph2.schema.pairs):
        first = len(graph.rel_src[r])
        ends += [graph2.rel_src[r][first:] + graph2.offsets[s_t],
                 graph2.rel_dst[r][first:] + graph2.offsets[d_t]]
    ends = np.concatenate(ends)
    new = np.flatnonzero(is_new)
    update_set = np.concatenate([new, _unique(ends[~is_new[ends]])])
    stages.lap("apply")

    connected, nbrs = bfs_neighbors(graph2, update_set, update_config.k, rng_seed)
    centers, cold = update_set[connected], update_set[~connected]
    n_new = int(connected[:len(new)].sum())   # centers[:n_new] are new nodes
    stages.lap("sample")

    if update_config.weight_space == "embedding":
        # provisional rows for new nodes: mean of their existing neighbors'
        # rows; the embed stage overwrites them
        for c, nb in zip(centers[:n_new], nbrs[:n_new]):
            nb = nb[~is_new[nb]]
            dense[c] = dense[nb].mean(axis=0) if len(nb) else 0.0
    weights = reconstruction_weights(_weight_space(graph2, dense, update_config.weight_space),
                                     centers, nbrs, update_config.eps)
    stages.lap("weights")

    rows, reconstruction_loss, n_coupled, unsolved = embed_increment(
        dense, centers[:n_new], nbrs[:n_new], weights[:n_new])
    dense[centers[:n_new]] = rows

    # a cold node has no neighbors, so no other row reads it; a new node that
    # reaches no anchor is read as 0 by the rows solved with it
    cold = np.concatenate((cold, centers[:n_new][unsolved]))
    for g, (t, i) in zip(cold.tolist(), _refs(graph2, cold).tolist()):
        x_raw = graph2.feature_blocks[t][i][None, :]
        mask = graph2.mask_blocks[t][i][None, :]
        x0 = init_features(x_raw, mask, params).value[0]
        rng = derived_rng(TAG_COLD, rng_seed, t, i)
        id_row = rng.normal(0.0, 0.1, size=table.dim)
        dense[g] = x0 + id_row + params.type_table.value[t]
    stages.lap("embed")

    # blend existing touched nodes against the table holding new-node rows:
    # every blend reads before any blended row is written
    touched = centers[n_new:]
    dense[touched] = residual_blend(dense[touched], dense[nbrs[n_new:]], weights[n_new:],
                                    update_config.alpha)
    stages.lap("blend")

    refine_j_initial = None
    refine_j_final = None
    step_warning = False
    alignment2 = None
    if alignment is not None:
        alignment = alignment.in_graph(graph2)
        alignment2 = alignment.with_rows(centers, nbrs, weights)
        if update_config.refine_steps > 0 and len(centers):
            mask_rows = np.zeros(graph2.num_nodes, dtype=bool)
            mask_rows[centers] = True
            mask_rows[nbrs.ravel()] = True
            problem = AlignmentProblem(graph2, alignment2, dense, mask_rows,
                                       mu=update_config.refine_mu)
            problem.grams = _entry_grams(problem, table, alignment, update_set)
            result = incremental_refine(problem, update_config.refine_steps,
                                        update_config.refine_step_size)
            refine_j_initial = result.j_pen_initial
            refine_j_final = result.j_pen_final
            step_warning = result.step_warning
            # the sums read the moved rows as they were before the descent
            alignment2.grams = (table2, *_moved_grams(problem, result.y_moved))
            dense[result.moved] = result.y_moved
    stages.lap("refine")

    params2 = disentangled_update(params, _refs(graph2, update_set), dense[update_set],
                                  grow_seed=mix(rng_seed, TAG_COLD))
    stages.lap("write-back")

    report = {
        "batch_time": float(batch.batch_time),
        "n_new_nodes": int(len(new)),
        "n_new_edges": int(stats["n_new_edges"]),
        "n_updated": int(len(update_set)),
        "n_cold_isolated": int(len(cold)),
        "reconstruction_loss": float(reconstruction_loss),
        # the new nodes that read another new node (embed_increment's
        # n_coupled); the key keeps its old name because bench/ reads it
        "jacobi_sweeps": int(n_coupled),
        "refine_J_initial": refine_j_initial,
        "refine_J_final": refine_j_final,
        "refine_step_warning": bool(step_warning),
        "stage_ms": stages.ms,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return graph2, params2, table2, report, alignment2
