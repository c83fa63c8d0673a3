"""The embedding-maintenance core, isolated on a synthetic manifold.

Points on a noisy swiss roll get a full locally-linear embedding (dense
eigensolve). Thirty new points then arrive and are placed by the
incremental path alone: sum-to-one reconstruction weights against their
nearest neighbors, and Gauss-Seidel sweeps for the few points whose
neighborhoods reference each other. The quality check is the summed
reconstruction residual over the union, scored against a from-scratch
rebuild of all 330 points.

The dense eigensolve is the test suite's batch LLE oracle, imported from
``tests/oracles.py``; run the demo from a source checkout.

Run: python3 demos/03_manifold_increments.py
"""
import os
import sys
import time

import numpy as np
import scipy.spatial

from dhge.fixtures import swiss_roll_points
from dhge.incremental import embed_increment, reconstruction_weights

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from oracles import full_lle_oracle, lle_weight_matrix  # noqa: E402

K, EPS, DIM = 8, 1e-3, 2
N_BASE, N_NEW = 300, 30


def residual_loss(y, w):
    r = y - w @ y
    return float(np.sum(r * r))


def main():
    pts, _ = swiss_roll_points(N_BASE + N_NEW, seed=5, noise=0.05)
    base_x = pts[:N_BASE]

    t0 = time.perf_counter()
    y_base, lam = full_lle_oracle(base_x, K, DIM, EPS)
    base_s = time.perf_counter() - t0
    base_loss = residual_loss(y_base, lle_weight_matrix(base_x, K, EPS))
    print("base embedding of %d points: %.0f ms, residual %.3e, spectrum %s"
          % (N_BASE, 1000 * base_s, base_loss,
             ["%.1e" % v for v in lam]))

    t0 = time.perf_counter()
    d_new = scipy.spatial.distance.cdist(pts[N_BASE:], pts)
    d_new[np.arange(N_NEW), np.arange(N_BASE, N_BASE + N_NEW)] = np.inf
    nbrs = np.empty((N_NEW, K), dtype=np.int64)
    weights = np.empty((N_NEW, K))
    for j in range(N_NEW):
        part = np.argpartition(d_new[j], K)[:K]
        nbrs[j] = part[np.argsort(d_new[j][part], kind="stable")]
        weights[j] = reconstruction_weights(pts[N_BASE + j], pts[nbrs[j]], EPS)
    # ids index the rows of y_base; the new points take ids N_BASE and up
    rows, new_loss, sweeps = embed_increment(y_base, np.arange(N_BASE, N_BASE + N_NEW),
                                             nbrs, weights, tol=1e-6)
    inc_s = time.perf_counter() - t0
    coupled = int(np.any(nbrs >= N_BASE, axis=1).sum())
    print("placed %d new points in %.1f ms (%d with coupled neighborhoods, "
          "%d sweeps)" % (N_NEW, 1000 * inc_s, coupled, sweeps))

    t0 = time.perf_counter()
    y_scr, _ = full_lle_oracle(pts, K, DIM, EPS)
    scr_s = time.perf_counter() - t0
    scr_loss = residual_loss(y_scr, lle_weight_matrix(pts, K, EPS))

    inc_loss = base_loss + new_loss
    print("union residual: incremental %.3e vs rebuild %.3e (ratio %.2f)"
          % (inc_loss, scr_loss, inc_loss / scr_loss))
    print("wall time:      incremental %.1f ms vs rebuild %.0f ms (%.1f%%)"
          % (1000 * inc_s, 1000 * scr_s, 100 * inc_s / scr_s))


if __name__ == "__main__":
    main()
