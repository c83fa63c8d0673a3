"""Float64 matrix kernels and a taped reverse-mode gradient engine.

The engine records a DAG of array ops as a model's forward pass executes;
``backward`` then walks the tape once and accumulates gradients into every
reachable ``Param``. The op vocabulary is exactly what the embedding models
need - this is not a general autodiff library.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse


class NumericError(ArithmeticError):
    """A kernel produced or received invalid numerics."""


class SingularMatrixError(NumericError):
    """Direct factorization failed on a singular system."""


# ---------------------------------------------------------------------------
# plain ndarray kernels


def ridge_systems(grams, eps):
    """G + eps*trace(G)/k * I for a Gram or each of a (..., k, k) stack; a
    Gram whose ridge term is not positive stays as it is."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    k = grams.shape[-1]
    lam = np.asarray(eps * np.trace(grams, axis1=-2, axis2=-1) / k)
    return np.where((lam > 0)[..., None, None], grams + lam[..., None, None] * np.eye(k), grams)


def cholesky_solve(system, rhs):
    """Solve one symmetric positive definite (k, k) system; a singular one
    raises ``SingularMatrixError``."""
    # the LAPACK pair that cho_factor / cho_solve wrap, called directly: the
    # wrappers' checks cost about 30 us of a 36 us solve at k = 8
    factor, info = scipy.linalg.lapack.dpotrf(system, lower=False, clean=False)
    if info > 0:
        raise SingularMatrixError("ridge system factorization failed: %d-th leading minor "
                                  "is not positive definite" % info)
    return scipy.linalg.lapack.dpotrs(factor, rhs, lower=False)[0]


# ---------------------------------------------------------------------------
# taped tensors


class Tensor:
    """A float64 array plus the tape entry that produced it."""

    __slots__ = ("value", "parents", "_grad_rule")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(self.value)):
            raise NumericError("non-finite entries in tensor input")
        self.parents = ()
        self._grad_rule = None

    @classmethod
    def _op(cls, value, parents, grad_rule):
        out = object.__new__(Tensor)
        out.value = value
        out.parents = parents
        out._grad_rule = grad_rule
        return out

    @property
    def shape(self):
        return self.value.shape

    # arithmetic records onto the tape; python scalars are folded in directly
    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __radd__(self, other):
        return _add(_as_tensor(other), self)

    def __sub__(self, other):
        return _sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return _sub(_as_tensor(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _scale(self, float(other))
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return _scale(self, 1.0 / float(other))
        return _div(self, _as_tensor(other))

    def __neg__(self):
        return _scale(self, -1.0)

    def __matmul__(self, other):
        return _matmul(self, _as_tensor(other))

    def sum(self, axis=None, keepdims=False):
        return _sum(self, axis, keepdims)

    @property
    def T(self):
        return transpose(self)

    def __repr__(self):
        return "Tensor(shape=%s)" % (self.value.shape,)


class Param(Tensor):
    """A named trainable leaf; ``backward`` accumulates into ``grad``."""

    __slots__ = ("name", "grad")

    def __init__(self, value, name):
        super().__init__(np.array(value, dtype=np.float64))
        self.name = name
        self.grad = np.zeros(self.value.shape)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return "Param(%r, shape=%s)" % (self.name, self.value.shape)


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _unbroadcast(g, shape):
    # reduce a broadcast gradient back down to `shape`
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# taped ops


def _add(a, b):
    def rule(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Tensor._op(a.value + b.value, (a, b), rule)


def _sub(a, b):
    def rule(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Tensor._op(a.value - b.value, (a, b), rule)


def _mul(a, b):
    def rule(g):
        return (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        )

    return Tensor._op(a.value * b.value, (a, b), rule)


def _div(a, b):
    def rule(g):
        return (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        )

    return Tensor._op(a.value / b.value, (a, b), rule)


def _scale(a, c):
    def rule(g):
        return (g * c,)

    return Tensor._op(a.value * c, (a,), rule)


def _matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError("matmul shape mismatch: %s @ %s" % (a.value.shape, b.value.shape))

    def rule(g):
        return g @ b.value.T, a.value.T @ g

    return Tensor._op(a.value @ b.value, (a, b), rule)


def _sum(a, axis, keepdims):
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        g_arr = np.asarray(g)
        if axis is not None and not keepdims:
            g_arr = np.expand_dims(g_arr, axis)
        return (np.broadcast_to(g_arr, a.value.shape).copy(),)

    return Tensor._op(out, (a,), rule)


def transpose(a):
    def rule(g):
        return (g.T,)

    return Tensor._op(a.value.T.copy(), (a,), rule)


def reshape(a, shape):
    def rule(g):
        return (g.reshape(a.value.shape),)

    return Tensor._op(a.value.reshape(shape).copy(), (a,), rule)


def gather_rows(a, idx):
    """Select rows of a 2-D tensor; scatter-adds the gradient back."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.value.ndim != 2:
        raise ValueError("gather_rows expects a 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise IndexError("row index out of range [0, %d)" % a.value.shape[0])

    def rule(g):
        return (_scatter_add(idx, g, a.value.shape[0]),)

    return Tensor._op(a.value[idx], (a,), rule)


def concat_rows(tensors):
    tensors = list(tensors)
    counts = [t.value.shape[0] for t in tensors]
    splits = np.cumsum(counts)[:-1]

    def rule(g):
        return tuple(np.split(g, splits, axis=0))

    return Tensor._op(np.concatenate([t.value for t in tensors], axis=0), tuple(tensors), rule)


def broadcast_rows(a, n):
    """Tile a (1, d) tensor out to (n, d); gradient sums over the rows."""
    if a.value.ndim != 2 or a.value.shape[0] != 1:
        raise ValueError("broadcast_rows expects a (1, d) tensor")

    def rule(g):
        return (g.sum(axis=0, keepdims=True),)

    return Tensor._op(np.broadcast_to(a.value, (n, a.value.shape[1])).copy(), (a,), rule)


def relu(a):
    out = np.maximum(a.value, 0.0)

    def rule(g):
        return (g * (a.value > 0.0),)

    return Tensor._op(out, (a,), rule)


def clamp(a, lo, hi):
    out = np.clip(a.value, lo, hi)

    def rule(g):
        return (g * ((a.value >= lo) & (a.value <= hi)),)

    return Tensor._op(out, (a,), rule)


def log_sigmoid(a):
    # stable form: min(x, 0) - log1p(exp(-|x|))
    x = a.value
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))

    def rule(g):
        return (g * _sigmoid(-x),)

    return Tensor._op(out, (a,), rule)


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fro_normalize(a):
    """Scale a matrix to unit Frobenius norm; identity when the norm < 1e-12."""
    n = np.linalg.norm(a.value)
    if n < 1e-12:
        def rule_id(g):
            return (g,)

        return Tensor._op(a.value.copy(), (a,), rule_id)
    y = a.value / n

    def rule(g):
        return ((g - y * np.sum(g * y)) / n,)

    return Tensor._op(y, (a,), rule)


def segment_softmax(logits, segments, num_segments):
    """Softmax of a 1-D logit vector within each segment id.

    Entries sharing a segment id form one softmax group; every group's
    outputs sum to 1. Empty segments simply have no entries.
    """
    segments = np.asarray(segments, dtype=np.int64)
    x = logits.value
    if x.ndim != 1:
        raise ValueError("segment_softmax expects 1-D logits")
    # maxima over runs of the stably sorted entries, the order maximum.at
    # visits them in
    scatter = _scatter_matrix(segments, num_segments)
    seg_max = np.full(num_segments, -np.inf)
    filled = np.flatnonzero(np.diff(scatter.indptr))
    if len(filled):
        seg_max[filled] = np.maximum.reduceat(x[scatter.indices], scatter.indptr[filled])
    e = np.exp(x - seg_max[segments])
    denom = np.bincount(segments, weights=e, minlength=num_segments)
    p = e / denom[segments]

    def rule(g):
        dot = np.bincount(segments, weights=p * g, minlength=num_segments)
        return (p * (g - dot[segments]),)

    return Tensor._op(p, (logits,), rule)


def segment_sum(a, segments, num_segments):
    """Sum rows of a 2-D tensor into per-segment buckets."""
    segments = np.asarray(segments, dtype=np.int64)

    def rule(g):
        return (g[segments],)

    return Tensor._op(_scatter_add(segments, a.value, num_segments), (a,), rule)


def _scatter_matrix(index, n):
    """(n, len(index)) CSR matrix with a one at (index[j], j), each row's
    columns ascending."""
    index = np.asarray(index, dtype=np.int64)
    return scipy.sparse.csr_matrix(
        (np.ones(len(index)), np.argsort(index, kind="stable"),
         np.concatenate([[0], np.cumsum(np.bincount(index, minlength=n))])),
        shape=(n, len(index)))


def _scatter_add(index, rows, n):
    """(n, d) sums of ``rows`` into the buckets ``index``, bit-equal to
    ``np.add.at``: the sparse product adds each bucket's rows to zero in
    index order, as ``add.at`` does, about 5x faster on 1.7k x 64 rows."""
    if not len(index):
        return np.zeros((n,) + rows.shape[1:])
    return _scatter_matrix(index, n) @ rows


def spmm(a_csr, h):
    """Multiply by a fixed (non-learnable) scipy sparse matrix."""
    a_csr = scipy.sparse.csr_matrix(a_csr)
    at = a_csr.T.tocsr()

    def rule(g):
        return (at @ g,)

    return Tensor._op(a_csr @ h.value, (h,), rule)


def where_mask(mask, a, b):
    """Elementwise select: mask picks from ``a``, else from ``b``."""
    mask = np.asarray(mask, dtype=bool)

    def rule(g):
        return g * mask, g * ~mask

    return Tensor._op(np.where(mask, a.value, b.value), (a, b), rule)


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents precede children


def backward(loss, params=None):
    """Accumulate d(loss)/d(p) into ``p.grad`` for every reachable Param.

    ``loss`` must be a scalar produced by taped ops. Repeated calls keep
    accumulating; call ``zero_grad`` between steps. ``params`` optionally
    restricts which Params receive gradient.
    """
    if loss.value.shape != ():
        raise ValueError("backward expects a scalar loss, got shape %s" % (loss.value.shape,))
    if not loss.parents and not isinstance(loss, Param):
        raise NumericError("loss has no recorded forward pass")
    allowed = None if params is None else {id(p) for p in params}
    order = _toposort(loss)
    grads = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Param):
            if allowed is None or id(node) in allowed:
                node.grad += g
            continue
        if node._grad_rule is None:
            continue
        for parent, pg in zip(node.parents, node._grad_rule(g)):
            if pg is None:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
