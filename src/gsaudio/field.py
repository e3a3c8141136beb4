"""Acoustic field network: pools a vicinity's (alpha, direction to anchor)
rows into one context vector per anchor, then joins the source- and
listener-anchored contexts into one conditioning vector.

The anchor context is the mean per-point context, mean_i(h_i W2 + b2) with
h_i = relu(alpha_i W1[:K] + g_i W1[K:] + b1): the first layer is one
``ad.dense`` over two column blocks, the gathered (n, K) alpha rows and the
(n, 3) guidance rows g_i, with no joined input array. The second layer is
affine, so it commutes with the mean: mean_i(h_i W2 + b2) =
(mean_i h_i) W2 + b2. ``FieldNetwork.forward`` takes the mean of the hidden
rows first and applies W2 to that one row (the DeepSets form
rho(mean phi(x)), Zaheer et al. 2017, with an affine rho). The two forms
agree up to rounding.

The alpha half alpha_i W1[:K] depends on the point alone. A tape-free caller
may hold it for every point (``FieldNetwork.project``, an (N, 64) array) and
pass a vicinity's rows of it instead of its alpha rows; ``forward`` then adds
the guidance product and the bias in ``dense``'s order. On OpenBLAS a row of
a product of two or more rows does not depend on the other rows, so those
rows give the bits of the dense layer. A one-row product takes another BLAS
path, so ``anchor_context`` multiplies a one-row vicinity's alpha row itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractViolation, EvaluationError
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
    are ``CONTEXT_WIDTH``; only ``alpha_dim`` varies, with the alpha init.
    Rows 0 to alpha_dim - 1 of ``w1`` take the alpha block, the last three
    the guidance block."""

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

    def project(self, alphas):
        """``alphas @ w1[:alpha_dim]``: the alpha half of the first layer for
        every row of the (N, alpha_dim) array ``alphas``, (N, CONTEXT_WIDTH)."""
        return alphas @ self.w1.data[:self.alpha_dim]

    def forward(self, tape, alpha_rows, guidance, projected=False):
        """The pooled (1, CONTEXT_WIDTH) context of a vicinity: the hidden
        layer over the (n, alpha_dim) ``alpha_rows`` and (n, 3) ``guidance``
        blocks, its mean over the rows, then the second layer on that one
        row. Equal, up to rounding, to the mean of the per-row contexts,
        because the second layer is affine.

        With ``projected`` (tape-free only), ``alpha_rows`` is the
        vicinity's (n, CONTEXT_WIDTH) rows of ``project``, owned by the
        caller, and becomes the hidden layer in place: ``+= guidance @
        w1[alpha_dim:]``, ``+= b1``, then the relu, ``dense``'s order for
        two blocks of n > 1 rows."""
        k = self.alpha_dim
        if projected:
            if tape is not None:
                raise ContractViolation("projected alpha rows carry no gradient; "
                                        "a tape needs the alpha rows")
            h = alpha_rows
            h += guidance.data @ self.w1.data[k:]
            h += self.b1.data
            try:  # the finite scan of dense's output, with its error
                h = Tensor(np.maximum(h, 0.0, out=h))
            except ContractViolation:
                raise EvaluationError("non-finite output of the projected first layer") from None
        else:
            if alpha_rows.shape[1] != k or guidance.shape[1] != GUIDANCE_DIM:
                raise ContractViolation(f"field input blocks {alpha_rows.shape[1]} + "
                                        f"{guidance.shape[1]} wide, expected {k} + {GUIDANCE_DIM}")
            h = ad.dense(tape, [alpha_rows, guidance], self.w1, self.b1, relu=True)
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


def anchor_context(tape, net: FieldNetwork, positions, alphas, anchor, percentile,
                   projection=None):
    """Mean per-point context over the vicinity of ``anchor``: returns the
    (1, CONTEXT_WIDTH) tensor and the vicinity indices. ``net.forward``
    pools the hidden rows before the affine second layer, which gives the
    mean context up to rounding. ``projection``, tape-free only, is
    ``net.project(alphas.data)``; a vicinity of two or more rows gathers its
    rows instead of multiplying its alpha rows, with the same bits."""
    indices = vicinity(positions, anchor, percentile)
    if indices.size == 0:
        raise ContractViolation("empty vicinity")
    guidance = Tensor(guidance_rows(positions[indices], anchor))
    if projection is not None and indices.size > 1:
        return net.forward(tape, projection[indices], guidance, projected=True), indices
    return net.forward(tape, ad.gather_rows(tape, alphas, indices), guidance), indices


def pooled_context(tape, net: FieldNetwork, positions, alphas, listener: Pose, source_position,
                   percentile, source_half=None, projection=None) -> SceneContext:
    """Mean per-point context over the source vicinity and the listener
    vicinity, concatenated source-first. ``alphas`` is the (N, K) parameter
    tensor whose row i is the audio guidance of point i. ``source_half``, an
    ``anchor_context`` result for the source taken on the same inputs, is
    used instead of computing it again; ``projection`` is passed to the
    listener's ``anchor_context``."""
    if source_half is None:
        source_half = anchor_context(tape, net, positions, alphas, source_position, percentile)
    c_source, s_idx = source_half
    c_listener, l_idx = anchor_context(tape, net, positions, alphas, listener.position, percentile,
                                       projection)
    combined = ad.concat(tape, [c_source, c_listener])
    return SceneContext(tensor=combined, listener_indices=l_idx, source_indices=s_idx)
