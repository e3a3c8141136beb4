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
from .checkpoint import load_weights, save_weights
from .dsp import Spectrogram, Waveform, istft, stft
from .errors import ConfigError, ContractViolation
from .field import SceneContext

log = logging.getLogger("gsaudio.binauralizer")

ENCODING_LEVELS = 10
WIDTH_BINAURAL = 128
WIDTH_RIR = 256
CONTEXT_DIM = 128


def positional_encoding(values, levels=ENCODING_LEVELS):
    """Sinusoidal encoding: per coordinate, (sin, cos) at frequencies
    2^0 pi .. 2^(levels-1) pi. Output width = 2 * levels * len(values)."""
    if levels < 1:
        raise ContractViolation("levels must be >= 1")
    v = np.atleast_1d(np.asarray(values, dtype=np.float64))
    freqs = (2.0 ** np.arange(levels)) * np.pi
    args = v[..., :, None] * freqs  # (..., len(v), levels)
    enc = np.stack([np.sin(args), np.cos(args)], axis=-1)  # (..., len(v), levels, 2)
    return enc.reshape(*v.shape[:-1], v.shape[-1] * levels * 2)


def transform_direction(theta):
    """Project a yaw angle onto the unit circle before encoding."""
    if not np.isfinite(theta):
        raise ContractViolation("direction angle must be finite")
    return np.array([np.sin(theta), np.cos(theta)])


_DIRECTION_SCALE = 0.35


def _encode_direction(theta, levels):
    """Encode the unit-circle pair scaled by 0.35 before the sinusoids.

    sin(2^l pi x) vanishes at every integer x and cos is even, so the raw
    pair would make hard-left and hard-right (components of +/-1) nearly
    indistinguishable. No power of two times 0.35 is an integer, so every
    sine level separates the two.
    """
    return positional_encoding(_DIRECTION_SCALE * transform_direction(theta), levels)


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


def _encoding_column_scale(levels, falloff=0.5):
    """Per-column damping 2^(-falloff*l) for one encoded coordinate block, so
    the network starts smooth in that input and grows high-frequency terms
    only as the data demands them."""
    level_idx = np.repeat(np.arange(levels), 2)
    return 2.0 ** (-falloff * level_idx)


class MaskNetwork:
    """The binauralizer network B; ``mode`` is "binaural" or "rir"."""

    def __init__(self, mode="binaural", context_dim=CONTEXT_DIM, levels=ENCODING_LEVELS,
                 rng=None, seed=None):
        if mode not in ("binaural", "rir"):
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode
        self.context_dim = int(context_dim)
        self.levels = int(levels)
        self.seed = seed
        self.width = WIDTH_BINAURAL if mode == "binaural" else WIDTH_RIR
        if rng is None:
            rng = np.random.default_rng(seed)
        pos_enc = 2 * 2 * levels  # (x, y)
        scalar_enc = 2 * levels  # f/F or t/T
        dir_enc = 2 * 2 * levels  # (sin theta, cos theta)
        in1 = pos_enc + self.context_dim + (scalar_enc if mode == "binaural" else 0)
        in2 = self.width + dir_enc + (scalar_enc if mode == "rir" else 0)
        w = self.width
        # the impulse-response head regresses a band-limited waveform; a
        # steeper falloff keeps its top encoding levels quiet so the late
        # tail cannot ring
        coord = _encoding_column_scale(levels, falloff=0.5 if mode == "binaural" else 1.0)
        blocks1 = [coord, coord] + ([coord] if mode == "binaural" else []) + [np.ones(self.context_dim)]
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
        self.in1 = in1
        self.in2 = in2

    def params(self):
        layers = [self.l1, self.l2, self.l3, self.l4]
        if self.mix_proj is not None:
            layers.append(self.mix_proj)
        layers += [self.m1, self.m2, self.m3, self.m4]
        return [t for pair in layers for t in pair]

    @staticmethod
    def _dense(tape, layer, x):
        w, b = layer
        return ad.add(tape, ad.matmul(tape, x, w), b)

    def _backbone(self, tape, layers, x):
        """Four dense layers, relu activations, skip from layer 1's output to
        layer 3's pre-activation. Returns the last pre-activation."""
        l1, l2, l3, l4 = layers
        h1 = ad.relu(tape, self._dense(tape, l1, x))
        h2 = ad.relu(tape, self._dense(tape, l2, h1))
        h3 = ad.relu(tape, ad.add(tape, self._dense(tape, l3, h2), h1))
        return self._dense(tape, l4, h3)

    def features(self, tape, x):
        """MLP-1 feature rows (relu-activated)."""
        if x.data.shape[1] != self.in1:
            raise ContractViolation(f"mlp1 input width {x.data.shape[1]}, expected {self.in1}")
        return ad.relu(tape, self._backbone(tape, (self.l1, self.l2, self.l3, self.l4), x))

    def _head(self, tape, x):
        """MLP-2 terminal: sigmoid scaled to (-1, 1)."""
        if x.data.shape[1] != self.in2:
            raise ContractViolation(f"mlp2 input width {x.data.shape[1]}, expected {self.in2}")
        z = self._backbone(tape, (self.m1, self.m2, self.m3, self.m4), x)
        return ad.sub(tape, ad.scale(tape, ad.sigmoid(tape, z), 2.0), Tensor(np.array(1.0)))

    def mask_tensors(self, tape, xy01, theta, context, n_bins):
        """In-graph masks for all ``n_bins`` frequency rows.

        Returns (mixture (n_bins, 1), difference (n_bins, 1)).
        """
        if self.mode != "binaural":
            raise ConfigError("mask query requires binaural mode")
        ctx = context.tensor if isinstance(context, SceneContext) else context
        if ctx.data.shape[1] != self.context_dim:
            raise ContractViolation(
                f"context width {ctx.data.shape[1]}, expected {self.context_dim}"
            )
        f_norm = np.arange(n_bins) / max(n_bins - 1, 1)
        enc_xy = np.tile(positional_encoding(xy01, self.levels), (n_bins, 1))
        enc_f = positional_encoding(f_norm[:, None], self.levels)
        ctx_rows = ad.add(tape, Tensor(np.zeros((n_bins, self.context_dim))), ctx)
        x1 = ad.concat(tape, [Tensor(enc_xy), Tensor(enc_f), ctx_rows], axis=1)
        feats = self.features(tape, x1)
        mixture = ad.scale(tape, ad.sigmoid(tape, self._dense(tape, self.mix_proj, feats)), 2.0)
        enc_dir = np.tile(_encode_direction(theta, self.levels), (n_bins, 1))
        x2 = ad.concat(tape, [feats, Tensor(enc_dir)], axis=1)
        difference = self._head(tape, x2)
        return mixture, difference

    def rir_tensor(self, tape, xy01, theta, context, times01):
        """In-graph impulse-response amplitudes for normalized times
        ``times01`` (shape (T,)). Returns a (T, 1) tensor in (-1, 1)."""
        if self.mode != "rir":
            raise ConfigError("impulse-response head requires rir mode")
        ctx = context.tensor if isinstance(context, SceneContext) else context
        enc_xy = positional_encoding(xy01, self.levels)[None, :]
        x1 = ad.concat(tape, [Tensor(enc_xy), ctx], axis=1)
        feats = self.features(tape, x1)  # (1, width)
        t = np.asarray(times01, dtype=np.float64).reshape(-1, 1)
        n = t.shape[0]
        feat_rows = ad.add(tape, Tensor(np.zeros((n, self.width))), feats)
        enc_dir = np.tile(_encode_direction(theta, self.levels), (n, 1))
        enc_t = positional_encoding(t, self.levels)
        x2 = ad.concat(tape, [feat_rows, Tensor(enc_dir), Tensor(enc_t)], axis=1)
        return self._head(tape, x2)

    def save(self, path):
        header = {
            "kind": "binauralizer",
            "mode": self.mode,
            "topology": {"context_dim": self.context_dim, "levels": self.levels,
                         "width": self.width},
            "seed": self.seed,
        }
        save_weights(path, header, [(p.name, p.data) for p in self.params()])

    @classmethod
    def load(cls, path):
        header, arrays = load_weights(path)
        topo = header["topology"]
        net = cls(mode=header["mode"], context_dim=topo["context_dim"],
                  levels=topo["levels"], seed=header.get("seed"))
        params = net.params()
        if len(params) != len(arrays):
            raise ContractViolation("checkpoint tensor count mismatch")
        for p, arr in zip(params, arrays):
            if p.data.shape != arr.shape:
                raise ContractViolation(f"checkpoint shape mismatch for {p.name}")
            p.data = arr
        return net


def normalize_position(position, scene_bounds):
    """Map the listener's (x, y) into [0, 1]^2 using the scene bounds;
    idempotent for identical bounds."""
    position = np.asarray(position, dtype=np.float64).reshape(3)
    lo = np.asarray(scene_bounds[0], dtype=np.float64)[:2]
    hi = np.asarray(scene_bounds[1], dtype=np.float64)[:2]
    span = np.where(hi - lo <= 0, 1.0, hi - lo)
    return (position[:2] - lo) / span


def binauralize(mono: Waveform, masks: AcousticMasks, window=512, hop=128):
    """Apply mixture/difference masks to the mono magnitude spectrogram and
    rebuild two channels with the mono signal's phase.

    Channel magnitudes are (s_m + s_d) / 2 and (s_m - s_d) / 2, clamped at
    zero; a clamp touching more than 10% of bins logs a warning.
    """
    spec = stft(mono, window, hop)
    if masks.mixture.shape[0] != spec.n_bins:
        raise ContractViolation(
            f"masks sized {masks.mixture.shape[0]}, spectrogram has {spec.n_bins} bins"
        )
    mags = spec.magnitudes()
    phase = np.where(mags > 0, spec.bins / np.where(mags > 0, mags, 1.0), 1.0)
    s_m = masks.mixture[:, None] * mags
    s_d = masks.difference[:, None] * mags
    left = 0.5 * (s_m + s_d)
    right = 0.5 * (s_m - s_d)
    clamped = np.count_nonzero(left < 0) + np.count_nonzero(right < 0)
    if clamped > 0.1 * left.size * 2:
        log.warning("negative channel magnitudes clamped on %.1f%% of bins",
                    100.0 * clamped / (left.size * 2))
    left = np.maximum(left, 0.0)
    right = np.maximum(right, 0.0)
    out = []
    for mag in (left, right):
        channel_spec = Spectrogram(bins=mag * phase, window=window, hop=hop,
                                   sample_rate=mono.sample_rate)
        out.append(istft(channel_spec, length=len(mono)))
    return out[0], out[1]
