"""Mask-based binauralizer and the direct impulse-response head.

Two four-layer MLPs with an identity skip from the first layer's output to
the third layer's pre-activation. The first MLP consumes the encoded
listener position, an encoded normalized frequency (binaural mode only) and
the scene context; it emits a feature vector and, in binaural mode, a
mixture mask through a sigmoid scaled to (0, 2). The second MLP consumes the
feature plus the encoded listener direction (plus an encoded normalized time
in RIR mode) and ends in a sigmoid scaled to (-1, 1): the difference mask,
or the per-sample impulse-response amplitude.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dsp import HOP, WINDOW, Waveform, istft, stft
from .errors import ConfigError, ContractViolation
from .field import CONTEXT_WIDTH
from .settings import SETTINGS

log = logging.getLogger("gsaudio.binauralizer")

ENCODING_LEVELS = 10
WIDTH_BINAURAL = 128
WIDTH_RIR = 256
CONTEXT_DIM = 2 * CONTEXT_WIDTH  # the source half, then the listener half


def positional_encoding(values):
    """Sinusoidal encoding: per coordinate, (sin, cos) at frequencies
    2^0 pi .. 2^(L-1) pi with L = ENCODING_LEVELS. Output width =
    2 * L * len(values)."""
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    freqs = (2.0 ** np.arange(ENCODING_LEVELS)) * np.pi
    args = v[..., :, None] * freqs  # (..., len(v), L)
    enc = np.stack([np.sin(args), np.cos(args)], axis=-1)  # (..., len(v), L, 2)
    return enc.reshape(*v.shape[:-1], v.shape[-1] * ENCODING_LEVELS * 2)


def transform_direction(theta):
    """Project a yaw angle onto the unit circle before encoding."""
    if not np.isfinite(theta):
        raise ContractViolation("direction angle must be finite")
    return np.array([np.sin(theta), np.cos(theta)])


_DIRECTION_SCALE = 0.35


def _encode_direction(theta):
    """Encode the unit-circle pair scaled by 0.35 before the sinusoids.

    sin(2^l pi x) vanishes at every integer x and cos is even, so the raw
    pair would make hard-left and hard-right (components of +/-1) nearly
    indistinguishable. No power of two times 0.35 is an integer, so every
    sine level separates the two.
    """
    return positional_encoding(_DIRECTION_SCALE * transform_direction(theta))


@dataclass
class AcousticMasks:
    mixture: np.ndarray  # (F+1,), in (0, 2)
    difference: np.ndarray  # (F+1,), in [-1, 1]

    def __post_init__(self):
        self.mixture = np.asarray(self.mixture, dtype=np.float64).reshape(-1)
        self.difference = np.asarray(self.difference, dtype=np.float64).reshape(-1)
        if self.mixture.shape != self.difference.shape:
            raise ContractViolation("mask lengths differ")
        if not (np.all(np.isfinite(self.mixture)) and np.all(np.isfinite(self.difference))):
            raise ContractViolation("non-finite mask values")


def _linear_init(rng, fan_in, fan_out, name, column_scale=None, bias=0.0, gain=1.0):
    scale = gain * np.sqrt(1.0 / fan_in)
    w = rng.standard_normal((fan_in, fan_out)) * scale
    if column_scale is not None:
        w *= np.asarray(column_scale, dtype=np.float64)[:, None]
    return (
        Tensor(w, param=True, name=f"{name}.w"),
        Tensor(np.full(fan_out, float(bias)), param=True, name=f"{name}.b"),
    )


def _encoding_column_scale(falloff):
    """Per-column damping 2^(-falloff*l) for one encoded coordinate block, so
    the network starts smooth in that input and grows high-frequency terms
    only as the data demands them."""
    level_idx = np.repeat(np.arange(ENCODING_LEVELS), 2)
    return 2.0 ** (-falloff * level_idx)


class MaskNetwork:
    """The binauralizer network B, weights drawn from the generator ``rng``;
    ``mode`` ("binaural" or "rir") alone sets the width. Its context is
    (1, CONTEXT_DIM); each encoded coordinate has ``ENCODING_LEVELS`` levels.

    The first layers take column blocks (``ad.dense``). Per row vary only
    the frequency encoding (MLP-1, binaural), the features (MLP-2,
    binaural) and the time encoding (MLP-2, rir); the position, context
    and direction blocks are one row per request, multiplied once.
    """

    def __init__(self, mode, rng):
        if mode not in SETTINGS["mode"].choices:
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode
        self.width = WIDTH_BINAURAL if mode == "binaural" else WIDTH_RIR
        levels = ENCODING_LEVELS
        pos_enc = 2 * 2 * levels  # (x, y)
        scalar_enc = 2 * levels  # f/F or t/T
        dir_enc = 2 * 2 * levels  # (sin theta, cos theta)
        in1 = pos_enc + CONTEXT_DIM + (scalar_enc if mode == "binaural" else 0)
        in2 = self.width + dir_enc + (scalar_enc if mode == "rir" else 0)
        w = self.width
        # the impulse-response head regresses a band-limited waveform; a
        # steeper falloff keeps its top encoding levels quiet so the late
        # tail cannot ring
        coord = _encoding_column_scale(0.5 if mode == "binaural" else 1.0)
        blocks1 = [coord, coord] + ([coord] if mode == "binaural" else []) + [np.ones(CONTEXT_DIM)]
        blocks2 = [np.ones(w), coord, coord] + ([coord] if mode == "rir" else [])
        self.l1 = _linear_init(rng, in1, w, "mlp1.l1", column_scale=np.concatenate(blocks1))
        self.l2 = _linear_init(rng, w, w, "mlp1.l2")
        self.l3 = _linear_init(rng, w, w, "mlp1.l3")
        self.l4 = _linear_init(rng, w, w, "mlp1.l4")
        # the mixture branch starts loud (bias +2 -> mask ~1.76): training
        # then descends toward the fit instead of starting on top of it
        self.mix_proj = (_linear_init(rng, w, 1, "mlp1.mix", bias=2.0)
                         if mode == "binaural" else None)
        self.m1 = _linear_init(rng, in2, w, "mlp2.l1", column_scale=np.concatenate(blocks2))
        self.m2 = _linear_init(rng, w, w, "mlp2.l2")
        self.m3 = _linear_init(rng, w, w, "mlp2.l3")
        # the second head starts near zero output: the difference mask should
        # be symmetric until data says otherwise, and most of the
        # impulse-response target is exactly zero
        self.m4 = _linear_init(rng, w, 1, "mlp2.l4", gain=1e-3)
        self._enc_f = None  # the last frequency_encoding, a constant of n_bins

    def params(self):
        layers = [self.l1, self.l2, self.l3, self.l4]
        if self.mix_proj is not None:
            layers.append(self.mix_proj)
        layers += [self.m1, self.m2, self.m3, self.m4]
        return [t for pair in layers for t in pair]

    def _backbone(self, tape, layers, x, relu=False):
        """Four dense layers, relu activations, skip from layer 1's output to
        layer 3's pre-activation. Returns the last layer's output, through
        a relu when ``relu``."""
        l1, l2, l3, l4 = layers
        h1 = ad.dense(tape, x, *l1, relu=True)
        h2 = ad.dense(tape, h1, *l2, relu=True)
        h3 = ad.relu(tape, ad.add(tape, ad.dense(tape, h2, *l3), h1))
        return ad.dense(tape, h3, *l4, relu=relu)

    def features(self, tape, blocks):
        """MLP-1 feature rows (relu-activated) from column blocks in ``l1``'s row order."""
        return self._backbone(tape, (self.l1, self.l2, self.l3, self.l4), blocks, relu=True)

    def _head(self, tape, blocks):
        """MLP-2 terminal: sigmoid scaled to (-1, 1)."""
        z = self._backbone(tape, (self.m1, self.m2, self.m3, self.m4), blocks)
        return ad.sub(tape, ad.scale(tape, ad.sigmoid(tape, z), 2.0), Tensor(np.array(1.0)))

    def mask_tensors(self, tape, xy01, theta, context, n_bins):
        """In-graph masks for all ``n_bins`` frequency rows from the
        (1, CONTEXT_DIM) ``context`` tensor.

        Returns (mixture (n_bins, 1), difference (n_bins, 1)).
        """
        if self.mode != "binaural":
            raise ConfigError("mask query requires binaural mode")
        enc_xy = Tensor(positional_encoding(xy01)[None, :])
        feats = self.features(tape, [enc_xy, self.frequency_encoding(n_bins), context])
        mixture = ad.scale(tape, ad.sigmoid(tape, ad.dense(tape, feats, *self.mix_proj)), 2.0)
        enc_dir = Tensor(_encode_direction(theta)[None, :])
        difference = self._head(tape, [feats, enc_dir])
        return mixture, difference

    def frequency_encoding(self, n_bins):
        """The (n_bins, 2 * ENCODING_LEVELS) encoding of the normalized bin
        frequencies, an untracked tensor with read-only data. It depends on
        ``n_bins`` alone, so it is computed once and kept until another
        ``n_bins`` is asked for."""
        enc_f = self._enc_f
        if enc_f is None or enc_f.shape[0] != n_bins:
            f_norm = np.arange(n_bins) / max(n_bins - 1, 1)
            enc_f = Tensor(positional_encoding(f_norm[:, None]))
            enc_f.data.flags.writeable = False
            self._enc_f = enc_f
        return enc_f

    def rir_tensor(self, tape, xy01, theta, context, times01):
        """In-graph impulse-response amplitudes for normalized times
        ``times01`` (shape (T,)) from the (1, CONTEXT_DIM) ``context``
        tensor. Returns a (T, 1) tensor in (-1, 1)."""
        if self.mode != "rir":
            raise ConfigError("impulse-response head requires rir mode")
        enc_xy = Tensor(positional_encoding(xy01)[None, :])
        feats = self.features(tape, [enc_xy, context])  # (1, width)
        enc_dir = Tensor(_encode_direction(theta)[None, :])
        t = np.asarray(times01, dtype=np.float64).reshape(-1, 1)
        enc_t = Tensor(positional_encoding(t))
        return self._head(tape, [feats, enc_dir, enc_t])


def normalize_position(position, scene_bounds):
    """Map the listener's (x, y) into [0, 1]^2 using the scene bounds;
    idempotent for identical bounds."""
    position = np.asarray(position, dtype=np.float64).reshape(3)
    lo = np.asarray(scene_bounds[0], dtype=np.float64)[:2]
    hi = np.asarray(scene_bounds[1], dtype=np.float64)[:2]
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    return (position[:2] - lo) / span


def binauralize(mono: Waveform, masks: AcousticMasks, window=WINDOW, hop=HOP):
    """Apply mixture/difference masks to the mono spectrogram and rebuild two
    channels with the mono signal's phase.

    Both masks are per bin and |X| * X/|X| = X, so each channel is the
    complex mono STFT times one real gain per bin: max((m + d) / 2, 0) left,
    max((m - d) / 2, 0) right. The clamp counts the (bin, frame) cells whose
    channel magnitude would go negative (a negative gain on a nonzero mono
    cell); more than 10% of both channels' cells logs a warning. Outputs
    match scaling |X| and restoring the phase X/|X| to within 1e-14 on
    clips with a peak <= 1.

    The mono spectrum is the one clip-sized spectrum: each channel is one
    ``istft`` of it with that channel's gains, applied a block of frames
    at a time.
    """
    spec = stft(mono, window, hop)
    if masks.mixture.shape[0] != spec.n_bins:
        raise ContractViolation(
            f"masks sized {masks.mixture.shape[0]}, spectrogram has {spec.n_bins} bins"
        )
    gains = 0.5 * np.stack([masks.mixture + masks.difference,
                            masks.mixture - masks.difference])
    negative = gains < 0
    if negative.any():
        clamped = int(np.sum(negative * np.count_nonzero(spec.bins, axis=1)))
        if clamped > 0.1 * spec.bins.size * 2:
            log.warning("negative channel magnitudes clamped on %.1f%% of bins",
                        100.0 * clamped / (spec.bins.size * 2))
    gains = np.maximum(gains, 0.0)
    return tuple(istft(spec, length=len(mono), gain=g) for g in gains)
