"""First/second-moment adaptive optimizer with bias correction.

Every parameter keeps one step count per row (per entry of its leading
axis). A dense gradient updates every row. A ``RowSparse`` gradient updates
only its rows, so a row that received no gradient keeps its value, its
moments and its step count: the lazy update of sparse Adam variants (like
PyTorch's ``SparseAdam``), which the per-point alpha matrix needs because
each step reaches only the points near the source and the listener. When
points are added or removed, ``reindex`` applies the same row selection to
the optimizer state.

The moment decay rates and the denominator guard are the fixed constants
``BETA1``, ``BETA2`` and ``EPS``; only the learning rate is set per
optimizer.
"""

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


class Adam:
    def __init__(self, params, lr):
        self.lr = float(lr)
        self.params = list(params)
        if not all(p.param for p in self.params):
            raise ContractViolation("optimizer can only track parameter tensors")
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self.t = [np.zeros(len(p), dtype=np.int64) for p in self.params]
        self._c1 = self._c2 = np.zeros(0)

    def step(self, grads):
        """Apply one update using ``grads``, a {Tensor: gradient} map as
        produced by Tape.backward(); parameters without an entry are left
        untouched, and each one written gets its ``version`` bumped once. A
        dense gradient updates every row, a ``RowSparse`` one only its rows."""
        for p, m, v, t in zip(self.params, self.m, self.v, self.t):
            g = grads.get(p)
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractViolation(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            if isinstance(g, RowSparse):
                rows = g.rows
                t[rows] += 1
                data_rows, m_rows, v_rows = p.data[rows], m[rows], v[rows]
                self._update(data_rows, m_rows, v_rows, g.values, t[rows])
                p.data[rows], m[rows], v[rows] = data_rows, m_rows, v_rows
            else:
                t += 1
                self._update(p.data, m, v, g, t)
            p.version += 1

    def _update(self, data, m, v, g, t):
        """Update ``data``, ``m`` and ``v`` in place from gradient ``g`` at
        per-row step counts ``t``. Each element takes the operands and order
        of ``data - lr * (m / c1) / (sqrt(v / c2) + eps)`` with ``m = b1 m +
        (1 - b1) g`` and ``v = b2 v + (1 - b2) (g g)``, so the bits are those
        of the out-of-place formula; only the temporaries are fewer."""
        c1, c2 = self._bias_corrections(t, data.ndim)
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
        step *= self.lr
        step /= scratch
        data -= step

    def _bias_corrections(self, t, ndim):
        """Per-row 1 - beta ** t, shaped to broadcast over a row. Each power is
        Python's float power, taken once per step count and kept in a table."""
        top = int(t.max(initial=0))
        if top >= self._c1.size:
            steps = range(self._c1.size, top + 1)
            self._c1 = np.append(self._c1, [1.0 - BETA1 ** s for s in steps])
            self._c2 = np.append(self._c2, [1.0 - BETA2 ** s for s in steps])
        shape = (-1,) + (1,) * (ndim - 1)
        return self._c1[t].reshape(shape), self._c2[t].reshape(shape)

    def reindex(self, keep, n_new=0):
        """Follow a re-index of the parameters' rows: keep rows ``keep`` and
        append ``n_new`` rows whose moments and step counts start at zero."""
        self.m = [reindex_rows(m, keep, n_new) for m in self.m]
        self.v = [reindex_rows(v, keep, n_new) for v in self.v]
        self.t = [reindex_rows(t, keep, n_new) for t in self.t]

    def state_arrays(self):
        """(m, v, per-row t) copies for each parameter, in constructor order."""
        return [(m.copy(), v.copy(), t.copy()) for m, v, t in zip(self.m, self.v, self.t)]

    def load_state_arrays(self, states):
        want = [(p.data.shape, p.data.shape, (len(p),)) for p in self.params]
        if [tuple(a.shape for a in state) for state in states] != want:
            raise ContractViolation("optimizer state does not match its parameters")
        self.m = [np.array(m, dtype=np.float64) for m, _, _ in states]
        self.v = [np.array(v, dtype=np.float64) for _, v, _ in states]
        self.t = [np.array(t, dtype=np.int64) for _, _, t in states]
