"""Adam optimizers with bias correction, one per way a parameter is stepped
(as PyTorch splits ``Adam`` from ``SparseAdam``). ``Adam`` steps whole
parameters (the networks) on dense gradients, with one step count each.
``RowAdam`` steps rows of the (N, K) alphas on ``RowSparse`` gradients, with
one count per row: a row without gradient keeps its value, moments and count,
the lazy update the alphas need, as each step reaches only the points near
the source and the listener. Its ``reindex`` follows densify and prune.

Both share one in-place update, whose bias corrections are Python's float
powers ``1 - beta ** t``. ``BETA1``, ``BETA2`` and ``EPS`` are fixed; only the
learning rate is set per optimizer."""

from __future__ import annotations

import numpy as np

from .autodiff import RowSparse
from .errors import ContractViolation

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def reindex_rows(array, keep, n_new):
    """Rows ``keep`` of ``array``, in that order, followed by ``n_new`` zero
    rows: how per-row state follows densify and prune."""
    fresh = np.zeros((n_new,) + array.shape[1:], dtype=array.dtype)
    return np.concatenate([array[keep], fresh])


def _check(p, g, form):
    """Refuse a gradient that is not ``form`` or not of ``p``'s shape."""
    if isinstance(g, RowSparse) != (form == "row-sparse"):
        raise ContractViolation(f"{p.name}: this optimizer takes {form} gradients only")
    if g.shape != p.data.shape:
        raise ContractViolation(f"gradient shape {g.shape} differs from {p.data.shape}")


def _update(lr, data, m, v, g, c1, c2):
    """Update ``data``, ``m`` and ``v`` in place from gradient ``g`` with bias
    corrections ``c1`` and ``c2``. Each element takes the operands and order
    of ``data - lr * (m / c1) / (sqrt(v / c2) + eps)`` with ``m = b1 m +
    (1 - b1) g`` and ``v = b2 v + (1 - b2) (g g)``, so the bits are those of
    the out-of-place formula; only the temporaries are fewer."""
    scratch = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += scratch
    np.multiply(g, g, out=scratch)
    scratch *= 1.0 - BETA2
    v *= BETA2
    v += scratch
    np.divide(v, c2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += EPS
    step = np.divide(m, c1)
    step *= lr
    step /= scratch
    data -= step


class Adam:
    """Steps whole parameters; ``t[i]`` is parameter ``i``'s int step count."""

    def __init__(self, params, lr):
        self.lr = float(lr)
        self.params = list(params)
        if not all(p.param for p in self.params):
            raise ContractViolation("optimizer can only track parameter tensors")
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self.t = [0] * len(self.params)

    def step(self, grads):
        """Apply one update using ``grads``, a {Tensor: gradient} map as
        produced by Tape.backward(); parameters without an entry are left
        untouched, and each one written gets its ``version`` bumped once."""
        for i, (p, m, v) in enumerate(zip(self.params, self.m, self.v)):
            g = grads.get(p)
            if g is None:
                continue
            _check(p, g, "dense")
            self.t[i] = t = self.t[i] + 1
            _update(self.lr, p.data, m, v, g, 1.0 - BETA1 ** t, 1.0 - BETA2 ** t)
            p.version += 1


class RowAdam:
    """Steps rows of the 2-D parameter ``param``; ``t[r]`` is row ``r``'s step count."""

    def __init__(self, param, lr):
        if not param.param or param.data.ndim != 2:
            raise ContractViolation("RowAdam tracks one 2-D parameter tensor")
        self.param, self.lr = param, float(lr)
        self.m = np.zeros(param.data.shape)
        self.v = np.zeros(param.data.shape)
        self.t = np.zeros(len(param.data), dtype=np.int64)

    def step(self, grads):
        """Update the rows of ``grads[param]``, a ``RowSparse``, taking each bias
        correction once per distinct count, and bump ``param.version``."""
        p = self.param
        g = grads.get(p)
        if g is None:
            return
        _check(p, g, "row-sparse")
        rows = g.rows
        self.t[rows] += 1
        counts, at = np.unique(self.t[rows], return_inverse=True)
        c1 = np.array([1.0 - BETA1 ** int(s) for s in counts])[at, None]
        c2 = np.array([1.0 - BETA2 ** int(s) for s in counts])[at, None]
        data, m, v = p.data[rows], self.m[rows], self.v[rows]
        _update(self.lr, data, m, v, g.values, c1, c2)
        p.data[rows], self.m[rows], self.v[rows] = data, m, v
        p.version += 1

    def reindex(self, keep, n_new=0):
        """Follow a re-index of the parameter's rows: keep rows ``keep`` and
        append ``n_new`` rows whose moments and step counts start at zero."""
        self.m, self.v, self.t = (reindex_rows(a, keep, n_new)
                                  for a in (self.m, self.v, self.t))
