"""First/second-moment adaptive optimizer with bias correction.

Parameters can be registered and dropped at any time, which is how the
training loop keeps optimizer slots in sync with point densification and
pruning. Updates are "lazy": a registered parameter that receives no
gradient this step is left untouched, moments included.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import ContractViolation


class _Slot:
    __slots__ = ("m", "v", "t")

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0


class Adam:
    def __init__(self, params=(), lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._params = {}
        self._slots = {}
        for p in params:
            self.add_param(p)

    def add_param(self, p: Tensor):
        if not p.param:
            raise ContractViolation("optimizer can only track parameter tensors")
        if p.uid not in self._params:
            self._params[p.uid] = p
            self._slots[p.uid] = _Slot(p.data.shape)

    def drop_param(self, p: Tensor):
        self._params.pop(p.uid, None)
        self._slots.pop(p.uid, None)

    def step(self, grads):
        """Apply one update using ``grads``, a {Tensor: ndarray} map as
        produced by Tape.backward(). Unregistered entries are ignored."""
        for uid, p in self._params.items():
            g = grads.get(p)
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractViolation(
                    f"gradient shape {g.shape} does not match parameter shape {p.data.shape}"
                )
            slot = self._slots[uid]
            slot.t += 1
            slot.m = self.beta1 * slot.m + (1.0 - self.beta1) * g
            slot.v = self.beta2 * slot.v + (1.0 - self.beta2) * (g * g)
            m_hat = slot.m / (1.0 - self.beta1 ** slot.t)
            v_hat = slot.v / (1.0 - self.beta2 ** slot.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self):
        """Flat snapshot of moments and step counters, in registration order.

        Used by checkpointing; pairs with ``load_state_arrays`` after the
        parameter registry has been rebuilt in the same order.
        """
        out = []
        for uid in self._params:
            slot = self._slots[uid]
            out.append((slot.m.copy(), slot.v.copy(), slot.t))
        return out

    def load_state_arrays(self, states):
        uids = list(self._params)
        if len(states) != len(uids):
            raise ContractViolation("optimizer state count does not match registry")
        for uid, (m, v, t) in zip(uids, states):
            slot = self._slots[uid]
            if m.shape != slot.m.shape:
                raise ContractViolation("optimizer state shape mismatch")
            slot.m = m.copy()
            slot.v = v.copy()
            slot.t = int(t)
