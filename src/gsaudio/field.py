"""Acoustic field network: pools a vicinity's (alpha, direction to anchor)
rows into one context vector per anchor, then joins the source- and
listener-anchored contexts into one conditioning vector.

The anchor context is the mean per-point context, mean_i(h_i W2 + b2) with
h_i = relu(x_i W1 + b1). The second layer is affine, so it commutes with the
mean: mean_i(h_i W2 + b2) = (mean_i h_i) W2 + b2. ``FieldNetwork.forward``
takes the mean of the hidden rows first and applies W2 to that one row (the
DeepSets form rho(mean phi(x)), Zaheer et al. 2017, with an affine rho). The
two forms agree up to rounding.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation
from .kdtree import squared_distances
from .scene import Pose, vicinity

log = logging.getLogger("gsaudio.field")

GUIDANCE_DIM = 3
CONTEXT_WIDTH = 64
COINCIDENT_EPS = 1e-9


def guidance_rows(positions, anchor):
    """Unit vectors from ``anchor`` to each row of ``positions`` (N, 3);
    coincident rows (norm below ``COINCIDENT_EPS``) become zero vectors.
    The norms are the square roots of ``kdtree.squared_distances``, the bits
    of ``np.linalg.norm(positions - anchor, axis=1)``."""
    anchor = np.asarray(anchor, dtype=np.float64).reshape(3)
    diff = positions - anchor
    norms = np.sqrt(squared_distances(positions.T, anchor[:, None])[0])
    degenerate = norms < COINCIDENT_EPS
    if np.any(degenerate):
        log.debug("zero guidance substituted for %d coincident points", int(degenerate.sum()))
        norms[degenerate] = 1.0
    diff /= norms[:, None]
    diff[degenerate] = 0.0
    return diff


class FieldNetwork:
    """(alpha_dim + 3) -> 64 -> mean over rows -> 64 MLP (relu after the
    hidden layer), its weights drawn from the generator ``rng``. Both widths
    are ``CONTEXT_WIDTH``; only ``alpha_dim`` varies, with the alpha init."""

    def __init__(self, alpha_dim, rng):
        self.alpha_dim = int(alpha_dim)
        in_dim = self.alpha_dim + GUIDANCE_DIM
        width = CONTEXT_WIDTH
        self.w1 = Tensor(rng.standard_normal((in_dim, width)) * np.sqrt(2.0 / in_dim),
                         param=True, name="field.w1")
        self.b1 = Tensor(np.zeros(width), param=True, name="field.b1")
        self.w2 = Tensor(rng.standard_normal((width, width)) * np.sqrt(1.0 / width),
                         param=True, name="field.w2")
        self.b2 = Tensor(np.zeros(width), param=True, name="field.b2")

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, tape, x):
        """The pooled (1, CONTEXT_WIDTH) context of the rows of ``x``, shape
        (N, alpha_dim + 3): the hidden layer over every row, its mean over
        the rows, then the second layer on that one row. Equal, up to
        rounding, to the mean of the per-row contexts, because the second
        layer is affine."""
        if x.data.shape[1] != self.alpha_dim + GUIDANCE_DIM:
            raise ContractViolation(
                f"field input width {x.data.shape[1]}, expected {self.alpha_dim + GUIDANCE_DIM}"
            )
        h = ad.dense(tape, x, self.w1, self.b1, relu=True)
        return ad.dense(tape, ad.mean(tape, h, axis=0, keepdims=True), self.w2, self.b2)


@dataclass
class SceneContext:
    """Conditioning vector C = C_source (+) C_listener, kept as a (1, 128)
    in-graph tensor, plus the vicinity index sets that produced it. The
    ``source_indices`` of a tape-free ``SceneModel.context`` are the model's
    cached array, which is read-only."""

    tensor: Tensor
    listener_indices: np.ndarray
    source_indices: np.ndarray

    @property
    def width(self):
        return self.tensor.data.shape[1]

    def vector(self):
        return self.tensor.data[0].copy()


def anchor_context(tape, net: FieldNetwork, positions, alphas, anchor, percentile):
    """Mean per-point context over the vicinity of ``anchor``: returns the
    (1, CONTEXT_WIDTH) tensor and the vicinity indices. ``net.forward``
    pools the hidden rows before the affine second layer, which gives the
    mean context up to rounding."""
    indices = vicinity(positions, anchor, percentile)
    if indices.size == 0:
        raise ContractViolation("empty vicinity")
    alpha_block = ad.gather_rows(tape, alphas, indices)
    guidance = Tensor(guidance_rows(positions[indices], anchor))
    x = ad.concat(tape, [alpha_block, guidance])
    return net.forward(tape, x), indices


def pooled_context(tape, net: FieldNetwork, positions, alphas, listener: Pose, source_position,
                   percentile, source_half=None) -> SceneContext:
    """Mean per-point context over the source vicinity and the listener
    vicinity, concatenated source-first. ``alphas`` is the (N, K) parameter
    tensor whose row i is the audio guidance of point i. ``source_half``, an
    ``anchor_context`` result for the source taken on the same inputs, is
    used instead of computing it again."""
    if source_half is None:
        source_half = anchor_context(tape, net, positions, alphas, source_position, percentile)
    c_source, s_idx = source_half
    c_listener, l_idx = anchor_context(tape, net, positions, alphas, listener.position, percentile)
    combined = ad.concat(tape, [c_source, c_listener])
    return SceneContext(tensor=combined, listener_indices=l_idx, source_indices=s_idx)
