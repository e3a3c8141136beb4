"""Acoustic field network: maps each vicinity point's (alpha, direction to
anchor) pair to a per-point context vector, then pools source- and
listener-anchored contexts into one conditioning vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_weights, save_weights
from .errors import ContractViolation
from .scene import Pose, vicinity

log = logging.getLogger("gsaudio.field")

GUIDANCE_DIM = 3
CONTEXT_WIDTH = 64
COINCIDENT_EPS = 1e-9


def guidance_rows(positions, anchor):
    """Row-wise position guidance; coincident rows become zero vectors."""
    anchor = np.asarray(anchor, dtype=np.float64).reshape(3)
    diff = positions - anchor
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    degenerate = norms[:, 0] < COINCIDENT_EPS
    if np.any(degenerate):
        log.debug("zero guidance substituted for %d coincident points", int(degenerate.sum()))
    safe = np.where(degenerate[:, None], 1.0, norms)
    rows = diff / safe
    rows[degenerate] = 0.0
    return rows


class FieldNetwork:
    """55 -> 64 -> 64 MLP (relu after the hidden layer)."""

    def __init__(self, alpha_dim=52, hidden=CONTEXT_WIDTH, context_dim=CONTEXT_WIDTH,
                 rng=None, seed=None):
        self.alpha_dim = int(alpha_dim)
        self.hidden = int(hidden)
        self.context_dim = int(context_dim)
        self.seed = seed
        in_dim = self.alpha_dim + GUIDANCE_DIM
        if rng is None:
            rng = np.random.default_rng(seed)
        self.w1 = Tensor(rng.standard_normal((in_dim, hidden)) * np.sqrt(2.0 / in_dim),
                         param=True, name="field.w1")
        self.b1 = Tensor(np.zeros(hidden), param=True, name="field.b1")
        self.w2 = Tensor(rng.standard_normal((hidden, context_dim)) * np.sqrt(1.0 / hidden),
                         param=True, name="field.w2")
        self.b2 = Tensor(np.zeros(context_dim), param=True, name="field.b2")

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, tape, x):
        """Per-point contexts for ``x`` of shape (N, alpha_dim + 3)."""
        if x.data.shape[1] != self.alpha_dim + GUIDANCE_DIM:
            raise ContractViolation(
                f"field input width {x.data.shape[1]}, expected {self.alpha_dim + GUIDANCE_DIM}"
            )
        h = ad.relu(tape, ad.add(tape, ad.matmul(tape, x, self.w1), self.b1))
        return ad.add(tape, ad.matmul(tape, h, self.w2), self.b2)

    def save(self, path):
        header = {
            "kind": "field",
            "topology": {"alpha_dim": self.alpha_dim, "hidden": self.hidden,
                         "context_dim": self.context_dim},
            "seed": self.seed,
        }
        save_weights(path, header, [(p.name, p.data) for p in self.params()])

    @classmethod
    def load(cls, path):
        header, arrays = load_weights(path)
        topo = header["topology"]
        net = cls(alpha_dim=topo["alpha_dim"], hidden=topo["hidden"],
                  context_dim=topo["context_dim"], seed=header.get("seed"))
        for p, arr in zip(net.params(), arrays):
            if p.data.shape != arr.shape:
                raise ContractViolation(f"checkpoint shape mismatch for {p.name}")
            p.data = arr
        return net


@dataclass
class SceneContext:
    """Conditioning vector C = C_source (+) C_listener, kept as a (1, 128)
    in-graph tensor, plus the vicinity index sets that produced it."""

    tensor: Tensor
    listener_indices: np.ndarray
    source_indices: np.ndarray

    @property
    def width(self):
        return self.tensor.data.shape[1]

    def vector(self):
        return self.tensor.data[0].copy()


def pooled_context(tape, net: FieldNetwork, positions, alphas, listener: Pose, source_position,
                   percentile) -> SceneContext:
    """Mean per-point context over the source vicinity and the listener
    vicinity, concatenated source-first. ``alphas`` is the (N, K) parameter
    tensor whose row i is the audio guidance of point i."""
    listener_pos = listener.position
    s_idx = vicinity(positions, source_position, percentile)
    l_idx = vicinity(positions, listener_pos, percentile)

    def anchor_mean(indices, anchor):
        if indices.size == 0:
            raise ContractViolation("empty vicinity")
        alpha_block = ad.gather_rows(tape, alphas, indices)
        guidance = Tensor(guidance_rows(positions[indices], anchor))
        x = ad.concat(tape, [alpha_block, guidance], axis=1)
        ctx = net.forward(tape, x)
        return ad.mean(tape, ctx, axis=0, keepdims=True)

    c_source = anchor_mean(s_idx, source_position)
    c_listener = anchor_mean(l_idx, listener_pos)
    combined = ad.concat(tape, [c_source, c_listener], axis=1)
    return SceneContext(tensor=combined, listener_indices=l_idx, source_indices=s_idx)
