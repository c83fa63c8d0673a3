"""Gradient and numeric-guard tests for the tape.

Every differentiable operation is checked against central finite
differences of its own forward value (the backward pass never informs
the oracle), at 64-bit precision with h = 1e-5.
"""
import numpy as np
import pytest
import scipy.linalg
import scipy.special

import dhge.tensor as T
from dhge.tensor import (Tensor, Param, backward, NumericError,
                         SingularMatrixError)
from oracles import fd_gradient, rel_err, scatter_add_at, segment_max_at, solve_ridge

H = 1e-5
TOL = 1e-4  # relative error allowed vs finite differences


def check_grad(build, x0, tol=TOL):
    """backward() gradient vs central finite differences of the forward."""
    x0 = np.asarray(x0, dtype=np.float64)
    p = Param(x0.copy(), name="x")
    loss = build(p)
    backward(loss)
    got = p.grad.copy()

    def forward_value(arr):
        return float(build(Tensor(arr)).value)

    want = fd_gradient(forward_value, x0, h=H)
    err = rel_err(got, want)
    assert err <= tol, "gradient mismatch: rel err %.3e" % err
    return got


class TestElementwiseGrads:
    def test_add_broadcast(self, rng):
        b = rng.normal(size=(1, 3))
        check_grad(lambda x: ((x + Tensor(b)) * 2.0).sum(), rng.normal(size=(4, 3)))
        # and the broadcast side itself
        a = rng.normal(size=(4, 3))
        check_grad(lambda x: ((Tensor(a) + x) * 1.5).sum(), rng.normal(size=(1, 3)))

    def test_sub_and_neg(self, rng):
        a = rng.normal(size=(3, 2))
        check_grad(lambda x: (Tensor(a) - x).sum(), rng.normal(size=(3, 2)))
        check_grad(lambda x: (-x).sum(), rng.normal(size=(3, 2)))

    def test_mul_elementwise(self, rng):
        a = rng.normal(size=(3, 4))
        check_grad(lambda x: (x * Tensor(a) + x * x).sum(), rng.normal(size=(3, 4)))

    def test_scalar_scale_folds(self, rng):
        check_grad(lambda x: (x * 3.5 - 0.5 * x).sum(), rng.normal(size=(2, 3)))

    def test_div(self, rng):
        a = rng.normal(size=(3, 3)) + 4.0  # keep denominators away from 0
        check_grad(lambda x: (Tensor(a) / (x + 5.0)).sum(), rng.normal(size=(3, 3)))
        check_grad(lambda x: (x / Tensor(a)).sum(), rng.normal(size=(3, 3)))

    def test_relu_away_from_kink(self, rng):
        x0 = rng.normal(size=(4, 4))
        x0[np.abs(x0) < 0.05] = 0.1
        check_grad(lambda x: T.relu(x).sum(), x0)

    def test_clamp_interior_and_saturated(self, rng):
        x0 = np.array([[-3.0, -0.4], [0.7, 2.5]])
        check_grad(lambda x: (T.clamp(x, -1.0, 1.0) * Tensor(x0 + 2.0)).sum(), x0)

    def test_log_sigmoid_matches_scipy_and_fd(self, rng):
        x0 = np.array([[-400.0, -20.0, -1.0], [0.3, 25.0, 300.0]])
        y = T.log_sigmoid(Tensor(x0))
        assert np.allclose(y.value, scipy.special.log_expit(x0), rtol=0, atol=1e-12)
        assert np.all(np.isfinite(y.value))
        moderate = np.array([[-8.0, -1.0], [0.3, 6.0]])
        check_grad(lambda x: T.log_sigmoid(x).sum(), moderate)

    def test_where_mask(self, rng):
        mask = rng.random((3, 4)) < 0.5
        b = rng.normal(size=(3, 4))
        check_grad(lambda x: T.where_mask(mask, x, Tensor(b)).sum(),
                   rng.normal(size=(3, 4)))
        check_grad(lambda x: T.where_mask(mask, Tensor(b), x).sum(),
                   rng.normal(size=(3, 4)))


class TestShapeGrads:
    def test_matmul_both_sides(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grad(lambda x: (x @ Tensor(b)).sum(), a)
        check_grad(lambda x: (Tensor(a) @ x).sum(), b)

    def test_sum_axes(self, rng):
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(1, 4))
        check_grad(lambda x: (x.sum(axis=0, keepdims=True) * Tensor(w)).sum(), x0)
        check_grad(lambda x: (x.sum(axis=1, keepdims=True) * 1.7).sum(), x0)

    def test_transpose_reshape(self, rng):
        a = rng.normal(size=(2, 6))
        check_grad(lambda x: (x.T @ Tensor(a)).sum(), rng.normal(size=(2, 3)))
        check_grad(lambda x: (T.reshape(x, (6, 2)) * 2.0).sum(), rng.normal(size=(3, 4)))

    def test_gather_rows_with_duplicates(self, rng):
        idx = np.array([0, 2, 2, 1, 0])
        w = rng.normal(size=(5, 3))
        check_grad(lambda x: (T.gather_rows(x, idx) * Tensor(w)).sum(),
                   rng.normal(size=(4, 3)))

    def test_concat_rows(self, rng):
        b = rng.normal(size=(2, 3))
        w = rng.normal(size=(5, 3))
        check_grad(lambda x: (T.concat_rows([x, Tensor(b)]) * Tensor(w)).sum(),
                   rng.normal(size=(3, 3)))

    def test_broadcast_rows(self, rng):
        w = rng.normal(size=(6, 3))
        check_grad(lambda x: (T.broadcast_rows(x, 6) * Tensor(w)).sum(),
                   rng.normal(size=(1, 3)))

    def test_spmm(self, rng):
        import scipy.sparse
        a = scipy.sparse.random(5, 5, density=0.4, random_state=3, format="csr")
        w = rng.normal(size=(5, 2))
        check_grad(lambda x: (T.spmm(a, x) * Tensor(w)).sum(), rng.normal(size=(5, 2)))


class TestNormalizationGrads:
    def test_fro_normalize(self, rng):
        w = rng.normal(size=(3, 4))
        check_grad(lambda x: (T.fro_normalize(x) * Tensor(w)).sum(),
                   rng.normal(size=(3, 4)))

    def test_fro_normalize_near_zero_is_identity(self):
        x = Param(np.full((2, 2), 1e-14), name="x")
        y = T.fro_normalize(x)
        assert np.array_equal(y.value, x.value)
        backward((y * 1.0).sum())
        assert np.allclose(x.grad, np.ones((2, 2)))

    def test_segment_softmax_grad(self, rng):
        seg = np.array([0, 0, 1, 1, 1, 3])
        w = rng.normal(size=6)
        check_grad(lambda x: (T.segment_softmax(x, seg, 4) * Tensor(w)).sum(),
                   rng.normal(size=6))

    def test_segment_softmax_rows_sum_to_one(self, rng):
        logits = Tensor(rng.normal(size=10) * 8.0)
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 4])
        pr = T.segment_softmax(logits, seg, 5).value
        sums = np.bincount(seg, weights=pr, minlength=5)
        for s in (0, 1, 2, 4):
            assert abs(sums[s] - 1.0) <= 1e-12
        assert sums[3] == 0.0

    def test_segment_sum_grad(self, rng):
        seg = np.array([2, 0, 2, 1])
        w = rng.normal(size=(3, 2))
        check_grad(lambda x: (T.segment_sum(x, seg, 3) * Tensor(w)).sum(),
                   rng.normal(size=(4, 2)))


class TestScattersMatchUfuncAt:
    """The CSR scatters against ``np.add.at`` / ``np.maximum.at``, exactly."""

    CASES = [
        (np.array([2, 0, 2, 1, 2, 2, 0]), 5),        # repeats; buckets 3, 4 empty
        (np.array([4, 4, 4]), 6),                     # one bucket
        (np.arange(6)[::-1], 6),                      # a permutation
        (np.empty(0, dtype=np.int64), 3),             # zero-length input
    ]

    def test_segment_sum_and_gather_backward(self, rng):
        for idx, n in self.CASES:
            rows = rng.normal(size=(len(idx), 4)) * rng.choice([1e-9, 1.0, 1e9], size=(len(idx), 1))
            rows[::3, 1] = -0.0
            want = scatter_add_at(idx, rows, n)
            got = T.segment_sum(Tensor(rows), idx, n).value
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            p = Param(rng.normal(size=(n, 4)), name="p")
            backward((T.gather_rows(p, idx) * Tensor(rows)).sum())
            assert p.grad.tobytes() == scatter_add_at(idx, rows, n).tobytes()

    def test_segment_softmax_max(self, rng):
        for idx, n in self.CASES:
            x = rng.normal(size=len(idx)) * 30.0
            seg_max = segment_max_at(x, idx, n)
            e = np.exp(x - seg_max[idx])
            want = e / np.bincount(idx, weights=e, minlength=n)[idx]
            got = T.segment_softmax(Tensor(x), idx, n).value
            assert got.tobytes() == want.tobytes()


class TestBackwardMechanics:
    def test_shared_subexpression_accumulates(self, rng):
        x0 = rng.normal(size=(3, 3))
        p = Param(x0.copy(), name="x")
        y = p @ p.T            # p appears twice
        backward(y.sum())
        want = fd_gradient(lambda a: float((a @ a.T).sum()), x0, h=H)
        assert rel_err(p.grad, want) <= TOL

    def test_grad_accumulates_across_calls(self, rng):
        p = Param(np.ones((2, 2)), name="x")
        backward((p * 2.0).sum())
        backward((p * 3.0).sum())
        assert np.allclose(p.grad, 5.0)
        p.zero_grad()
        assert np.all(p.grad == 0.0)

    def test_params_filter(self, rng):
        a = Param(np.ones((2, 2)), name="a")
        b = Param(np.ones((2, 2)), name="b")
        backward((a * b).sum(), params=[a])
        assert np.allclose(a.grad, 1.0)
        assert np.all(b.grad == 0.0)

    def test_non_scalar_loss_rejected(self):
        p = Param(np.ones((2, 2)), name="x")
        with pytest.raises(ValueError):
            backward(p * 1.0)

    def test_loss_without_tape_rejected(self):
        with pytest.raises(NumericError):
            backward(Tensor(np.asarray(1.0)))


class TestNumericGuards:
    def test_tensor_rejects_nan_at_construction(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            Tensor(np.array([np.inf]))


class TestKernels:
    def test_solve_ridge_matches_direct_solve(self, rng):
        d = rng.normal(size=(6, 4))
        gram = d @ d.T + np.eye(6) * 0.5
        rhs = np.ones(6)
        eps = 1e-3
        got = solve_ridge(gram, rhs, eps)
        ridge = eps * np.trace(gram) / 6
        want = scipy.linalg.solve(gram + ridge * np.eye(6), rhs)
        assert np.allclose(got, want, atol=1e-10)

    def test_solve_ridge_singular_raises(self):
        gram = np.zeros((3, 3))
        with pytest.raises(SingularMatrixError):
            solve_ridge(gram, np.ones(3), 0.0)
        # trace 0 means the ridge term vanishes too
        with pytest.raises(SingularMatrixError):
            solve_ridge(gram, np.ones(3), 1e-3)
