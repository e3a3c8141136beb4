"""Reverse-mode automatic differentiation over float64 arrays.

A Tape records every primitive applied to tracked tensors, in execution
order. Gradients come from walking that record backwards once, so the
accumulation order is fixed and repeat runs are bit-identical. Gradients are
dense arrays, except that ``gather_rows`` and ``volume`` give their input a
``RowSparse`` gradient, which holds only the rows they read: a step that
reads a few rows of a large parameter makes no gradient of the parameter's
full size.

The primitive set is small on purpose: matrix multiply, the fused dense
layer ``dense`` (matmul, bias and optional relu as one entry, so a layer
makes one output array and one finite scan; its input may be a list of
column blocks, where a one-row block is multiplied once and broadcast over
the output's rows), broadcast arithmetic, relu and sigmoid, concatenation,
row gathering, reductions, and ``volume``, the volume regularizer as one
entry.

Ops are module-level functions taking the tape as first argument; pass
``tape=None`` for a forward-only evaluation (inference reuses the exact same
code paths without recording anything).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractViolation, EvaluationError


class Tensor:
    """Dense float64 array plus the bookkeeping the tape needs.

    ``param=True`` marks a leaf whose gradient should be reported by
    backward(). ``tracked`` is set automatically on every tensor that
    depends on a parameter. Non-finite data is a ``ContractViolation`` for a
    leaf (the caller's input) and an ``EvaluationError`` naming the op for an
    op output.

    ``version`` counts in-place writes to ``data``, like PyTorch's per-tensor
    ``_version``: a cache keyed on ``(data, version)`` sees a replaced array by
    its identity and an in-place write by the count. ``Adam.step`` and
    ``RowAdam.step`` bump it after each update; any other in-place write to
    a parameter's ``data`` must bump it too.
    """

    __slots__ = ("data", "param", "name", "tracked", "version")

    def __init__(self, data, param=False, name=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractViolation(f"non-finite values in tensor {name or '<unnamed>'}")
        self.data = arr
        self.param = bool(param)
        self.name = name
        self.tracked = self.param
        self.version = 0

    @property
    def shape(self):
        return self.data.shape

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        tag = self.name if self.name else f"t{id(self)}"
        mark = " param" if self.param else ""
        return f"<Tensor {tag} shape={tuple(self.data.shape)}{mark}>"


class RowSparse:
    """A gradient that is zero outside some rows of a ``shape`` array:
    ``values[i]`` is row ``rows[i]``, and ``rows`` is sorted and unique.
    ``dense()`` gives the full array."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape):
        self.rows = rows
        self.values = values
        self.shape = shape

    def dense(self):
        full = np.zeros(self.shape)
        full[self.rows] = self.values
        return full


def _accumulate(acc, ig):
    """``acc + ig`` with the bits of the dense sum. A row-sparse ``ig`` whose
    rows lie inside a row-sparse ``acc`` is added into ``acc`` in place; two
    row-sparse gradients otherwise merge over the union of their rows. No
    value of a row-sparse gradient is -0.0, so adding a zero row is exact."""
    if acc is None:
        return ig
    if not (isinstance(acc, RowSparse) and isinstance(ig, RowSparse)):
        return _dense(acc) + _dense(ig)
    pos = np.searchsorted(acc.rows, ig.rows)
    if np.all(pos < acc.rows.size) and np.array_equal(acc.rows[pos], ig.rows):
        acc.values[pos] += ig.values
        return acc
    rows = np.union1d(acc.rows, ig.rows)
    values = np.zeros((rows.size,) + acc.values.shape[1:])
    values[np.searchsorted(rows, acc.rows)] = acc.values
    values[np.searchsorted(rows, ig.rows)] += ig.values
    return RowSparse(rows, values, acc.shape)


def _dense(g):
    return g.dense() if isinstance(g, RowSparse) else g


class _Entry:
    __slots__ = ("op", "inputs", "out", "bwd")

    def __init__(self, op, inputs, out, bwd):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.bwd = bwd


class Tape:
    """Ordered record of primitive applications."""

    def __init__(self):
        self.entries = []

    def backward(self, output):
        """Walk the record in reverse from ``output``, seeded with ones of its
        shape, and return {param Tensor: gradient}. A gradient is an array,
        or a ``RowSparse`` when every contribution to it came from
        ``gather_rows`` or ``volume``; contributions are summed in backward
        order. Both dicts are keyed by the tensors themselves (identity hash)."""
        grads = {output: np.ones_like(output.data)}
        params = {output: None} if output.param else {}
        for entry in reversed(self.entries):
            g = grads.pop(entry.out, None)
            if g is None:
                continue
            input_grads = entry.bwd(_dense(g))
            for t, ig in zip(entry.inputs, input_grads):
                if ig is None or not t.tracked:
                    continue
                if t.param:
                    params[t] = None
                grads[t] = _accumulate(grads.get(t), ig)
        return {t: grads[t] for t in params if t in grads}


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(tape, op, inputs, out_data, bwd):
    try:
        out = Tensor(out_data)  # the one finite scan of this output
    except ContractViolation:
        raise EvaluationError(f"non-finite output of {op} on inputs of shape "
                              f"{', '.join(str(t.shape) for t in inputs)}") from None
    if tape is not None and any(t.tracked for t in inputs):
        out.tracked = True
        tape.entries.append(_Entry(op, inputs, out, bwd))
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def matmul(tape, a, b):
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractViolation(f"matmul shapes {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _record(tape, "matmul", (a, b), ad @ bd, bwd)


def dense(tape, x, w, b, relu=False):
    """``relu(x @ w + b)`` (or ``x @ w + b``) as one tape entry; ``x`` is a
    tensor or a list of column blocks in the row order of ``w``.

    A (1, c) block stands for that row on every output row and is multiplied
    once: ``row = b + x_k @ w_k`` over the one-row blocks, ``out`` the sum
    of ``x_k @ w_k`` over the others, then ``out += row`` and the relu in
    place. One block gives ``x @ w`` then ``+= b``, and the backward uses
    the expressions of ``relu``, ``add`` and ``matmul``: the bits of that
    composition. A one-row block's gradients use the layer gradient's
    column sum, taken once and also used as the bias gradient; untracked
    blocks get none.
    """
    blocks = [_wrap(t) for t in ([x] if isinstance(x, (Tensor, np.ndarray)) else x)]
    w, b = _wrap(w), _wrap(b)
    if (not blocks or any(t.data.ndim != 2 for t in blocks) or w.data.ndim != 2
            or sum(t.shape[1] for t in blocks) != w.shape[0]
            or len({t.shape[0] for t in blocks} - {1}) > 1):
        raise ContractViolation(f"dense blocks {[t.shape for t in blocks]} x {w.shape}")
    bounds = list(itertools.accumulate((t.shape[1] for t in blocks), initial=0))
    ws = [w.data[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    one_row = [t.shape[0] == 1 for t in blocks]
    row, out = b.data, None
    for t, wk, single in zip(blocks, ws, one_row):
        if single:
            row = row + t.data @ wk
        elif out is None:
            out = t.data @ wk
        else:
            out += t.data @ wk
    out = row if out is None else np.add(out, row, out=out)
    if relu:
        np.maximum(out, 0.0, out=out)

    def bwd(g):
        if relu:
            g = g * (out > 0.0)
        gs = g.sum(axis=0, keepdims=True) if any(one_row) else None
        gks = [gs if single else g for single in one_row]
        return (*(gk @ wk.T if t.tracked else None for t, wk, gk in zip(blocks, ws, gks)),
                np.concatenate([t.data.T @ gk for t, gk in zip(blocks, gks)]),
                _unbroadcast(g, b.data.shape) if gs is None else gs.reshape(b.data.shape))

    return _record(tape, "dense", (*blocks, w, b), out, bwd)


def add(tape, a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(tape, "add", (a, b), a.data + b.data, bwd)


def sub(tape, a, b):
    a, b = _wrap(a), _wrap(b)

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(tape, "sub", (a, b), a.data - b.data, bwd)


def mul(tape, a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(tape, "mul", (a, b), ad * bd, bwd)


def scale(tape, a, c):
    a = _wrap(a)
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _record(tape, "scale", (a,), a.data * c, bwd)


def relu(tape, a):
    a = _wrap(a)
    mask = a.data > 0.0

    def bwd(g):
        return (g * mask,)

    return _record(tape, "relu", (a,), np.maximum(a.data, 0.0), bwd)


def _sigmoid_of(x):
    # stable in both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(tape, a):
    a = _wrap(a)
    y = _sigmoid_of(a.data)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _record(tape, "sigmoid", (a,), y, bwd)


def square(tape, a):
    a = _wrap(a)
    ad = a.data

    def bwd(g):
        return (2.0 * ad * g,)

    return _record(tape, "square", (a,), ad * ad, bwd)


def concat(tape, tensors):
    """Join tensors side by side, along axis 1."""
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ContractViolation("concat of zero tensors")
    bounds = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, bounds, axis=1))

    return _record(tape, "concat", tensors,
                   np.concatenate([t.data for t in tensors], axis=1), bwd)


def _row_indices(op, indices):
    """``indices`` as int64; each must name one row once, in increasing order."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or np.any(indices[:1] < 0) or np.any(indices[1:] <= indices[:-1]):
        raise ContractViolation(f"{op} needs 1-D, non-negative, strictly increasing indices")
    return indices


def gather_rows(tape, a, indices):
    """Rows ``indices`` of ``a`` (entries of its first axis, checked by
    ``_row_indices``). The backward pass returns a ``RowSparse`` gradient of
    ``a``: the indices, with 0.0 + g as values, the bits ``np.add.at``
    writes into a zero array (it turns -0.0 into +0.0)."""
    a = _wrap(a)
    indices = _row_indices("gather_rows", indices)
    shape = a.data.shape

    def bwd(g):
        return (RowSparse(indices, 0.0 + g, shape),)

    return _record(tape, "gather_rows", (a,), a.data[indices], bwd)


def mean(tape, a, axis=None, keepdims=False):
    """Mean over ``axis`` (every element when None). Over an axis, the
    backward hands ``a`` a read-only broadcast view of one row of the
    gradient, not a full-size copy; no backward writes into a gradient it
    receives."""
    a = _wrap(a)
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.full(shape, g / count),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge / count, shape),)

    return _record(tape, "mean", (a,), a.data.mean(axis=axis, keepdims=keepdims), bwd)


def total(tape, a):
    """Sum of every element (named to avoid shadowing the builtin)."""
    a = _wrap(a)
    shape = a.data.shape

    def bwd(g):
        return (np.full(shape, g),)

    return _record(tape, "sum", (a,), a.data.sum(), bwd)


def volume(tape, a, rows):
    """Sum over the rows ``rows`` of the 2-D ``a`` of each row's product of
    absolute values. The backward pass returns a ``RowSparse`` gradient over
    ``rows``, ``0.0 + (g * cof) * sign(x)``, each cofactor ``cof`` a product
    of prefix and suffix ``cumprod``s of |x| (exact in a row holding zeros):
    the bits of the gather, abs, row-product and sum composition."""
    a = _wrap(a)
    rows = _row_indices("volume", rows)
    if a.data.ndim != 2:
        raise ContractViolation(f"volume expects a 2-D tensor, got shape {a.shape}")
    x, shape = a.data[rows], a.data.shape
    ax = np.abs(x)

    def bwd(g):
        cof, right = np.empty_like(ax), np.empty_like(ax)
        cof[:, :1] = right[:, -1:] = 1.0
        np.cumprod(ax[:, :-1], axis=1, out=cof[:, 1:])
        np.cumprod(ax[:, :0:-1], axis=1, out=right[:, -2::-1])
        cof *= right
        cof *= g
        cof *= np.sign(x, out=right)  # each sign is -1, 0 or +1: exact
        cof += 0.0
        return (RowSparse(rows, cof, shape),)

    return _record(tape, "volume", (a,), ax.prod(axis=1, keepdims=True).sum(), bwd)


def mse(tape, a, b):
    """Mean squared error, the workhorse reconstruction loss term."""
    return mean(tape, square(tape, sub(tape, a, b)))


def finite_difference_check(fn, point, step=1e-5):
    """Compare analytic gradients of a scalar-valued ``fn(tape, x)`` against
    central finite differences at ``point``.

    Returns the max over coordinates of
    |analytic - central| / max(|analytic|, |central|, 1e-12).
    """
    if step <= 0:
        raise ContractViolation("step must be positive")
    x0 = np.asarray(point.data if isinstance(point, Tensor) else point, dtype=np.float64)
    x = Tensor(x0.copy(), param=True)
    tape = Tape()
    out = fn(tape, x)
    if out.data.size != 1:
        raise ContractViolation("finite_difference_check needs a scalar-valued function")
    grads = tape.backward(out)
    analytic = _dense(grads[x]) if x in grads else np.zeros_like(x0)

    def eval_at(arr):
        value = fn(Tape(), Tensor(arr)).data
        if not np.all(np.isfinite(value)):
            raise EvaluationError("function value is not finite")
        return float(value)

    flat = x0.ravel()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (eval_at(hi.reshape(x0.shape)) - eval_at(lo.reshape(x0.shape))) / (2.0 * step)
    fd = fd.reshape(x0.shape)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-12)
    return float(np.max(np.abs(analytic - fd) / denom))
