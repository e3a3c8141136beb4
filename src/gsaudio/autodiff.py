"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tape records every primitive applied to tracked tensors, in execution
order. Gradients come from walking that record backwards once, so the
accumulation order is fixed and repeat runs are bit-identical. The primitive
set is small on purpose: matrix multiply, broadcast arithmetic, relu and
sigmoid, concatenation, reductions, and a row-wise product used by the
volume regularizer.

Ops are module-level functions taking the tape as first argument; pass
``tape=None`` for a forward-only evaluation (inference reuses the exact same
code paths without recording anything).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractViolation, EvaluationError

_uid_counter = itertools.count()


class Tensor:
    """Dense float64 array plus the bookkeeping the tape needs.

    ``param=True`` marks a leaf whose gradient should be reported by
    backward(). ``tracked`` is set automatically on every tensor that
    depends on a parameter.
    """

    __slots__ = ("data", "param", "name", "uid", "tracked")

    def __init__(self, data, param=False, name=None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractViolation(f"non-finite values in tensor {name or '<unnamed>'}")
        self.data = arr
        self.param = bool(param)
        self.name = name
        self.uid = next(_uid_counter)
        self.tracked = self.param

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = self.name if self.name else f"t{self.uid}"
        mark = " param" if self.param else ""
        return f"<Tensor {tag} shape={tuple(self.data.shape)}{mark}>"


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
        shape, and return {param Tensor: gradient array}."""
        grads = {output.uid: np.ones_like(output.data)}
        params = {}
        if output.param:
            params[output.uid] = output
        for entry in reversed(self.entries):
            g = grads.pop(entry.out.uid, None)
            if g is None:
                continue
            input_grads = entry.bwd(g)
            for t, ig in zip(entry.inputs, input_grads):
                if ig is None or not t.tracked:
                    continue
                if t.param and t.uid not in params:
                    params[t.uid] = t
                acc = grads.get(t.uid)
                grads[t.uid] = ig if acc is None else acc + ig
        return {params[uid]: grads[uid] for uid in params if uid in grads}


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(tape, op, inputs, out_data, bwd):
    out = Tensor(out_data)
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


def absolute(tape, a):
    a = _wrap(a)
    s = np.sign(a.data)

    def bwd(g):
        return (g * s,)

    return _record(tape, "abs", (a,), np.abs(a.data), bwd)


def concat(tape, tensors, axis=0):
    tensors = tuple(_wrap(t) for t in tensors)
    if not tensors:
        raise ContractViolation("concat of zero tensors")
    sizes = [t.data.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _record(tape, "concat", tensors,
                   np.concatenate([t.data for t in tensors], axis=axis), bwd)


def mean(tape, a, axis=None, keepdims=False):
    a = _wrap(a)
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.full(shape, g / count),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge / count, shape).copy(),)

    return _record(tape, "mean", (a,), a.data.mean(axis=axis, keepdims=keepdims), bwd)


def total(tape, a, axis=None, keepdims=False):
    """Sum reduction (named to avoid shadowing the builtin)."""
    a = _wrap(a)
    shape = a.data.shape

    def bwd(g):
        if axis is None:
            return (np.full(shape, g),)
        ge = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, shape).copy(),)

    return _record(tape, "sum", (a,), a.data.sum(axis=axis, keepdims=keepdims), bwd)


def row_prod(tape, a):
    """Product along the last axis of a 2-D tensor, shape (N, K) -> (N, 1).

    The backward pass uses prefix/suffix products so rows containing zeros
    still get exact cofactor gradients.
    """
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ContractViolation(f"row_prod expects a 2-D tensor, got shape {a.shape}")
    x = a.data
    left = np.ones_like(x)
    right = np.ones_like(x)
    np.cumprod(x[:, :-1], axis=1, out=left[:, 1:])
    np.cumprod(x[:, :0:-1], axis=1, out=right[:, -2::-1])
    cof = left * right

    def bwd(g):
        return (g * cof,)

    return _record(tape, "row_prod", (a,), x.prod(axis=1, keepdims=True), bwd)


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
    analytic = grads.get(x)
    if analytic is None:
        analytic = np.zeros_like(x0)

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
