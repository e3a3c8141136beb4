"""The assembled engine state: audio points, acoustic field network, and
binauralizer, plus directory checkpoints.

A checkpoint directory contains points.ply, field.bin, binauralizer.bin and
config.json. Every file is written to a temp name and renamed into place.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .autodiff import Tensor
from .binauralizer import (AcousticMasks, MaskNetwork, binauralize, normalize_position)
from .dsp import ImpulseResponse, Waveform
from .errors import ConfigError
from .field import FieldNetwork, SceneContext, pooled_context
from .scene import AudioPointSet, Pose, load_audio_points, save_audio_points

CONFIG_NAME = "config.json"
POINTS_NAME = "points.ply"
FIELD_NAME = "field.bin"
BINAURALIZER_NAME = "binauralizer.bin"


class SceneModel:
    """Point set plus networks; the unit that training mutates and the CLI
    renders from."""

    def __init__(self, points: AudioPointSet, field: FieldNetwork, masknet: MaskNetwork,
                 source, bounds, percentile=15.0, window=512, hop=128,
                 sample_rate=22050, seed=None):
        if field.alpha_dim != points.alpha_dim:
            raise ConfigError(
                f"field expects alpha width {field.alpha_dim}, points have {points.alpha_dim}"
            )
        self.positions = points.positions.copy()
        self.alphas = Tensor(points.alpha.copy(), param=True, name="alphas")
        self.field = field
        self.masknet = masknet
        self.source = np.asarray(source, dtype=np.float64).reshape(3)
        self.bounds = (np.asarray(bounds[0], dtype=np.float64).reshape(3),
                       np.asarray(bounds[1], dtype=np.float64).reshape(3))
        self.percentile = float(percentile)
        self.window = int(window)
        self.hop = int(hop)
        self.sample_rate = int(sample_rate)
        self.seed = seed

    # --- point bookkeeping ---

    @property
    def mode(self):
        return self.masknet.mode

    @property
    def point_count(self):
        return self.positions.shape[0]

    def point_set(self) -> AudioPointSet:
        return AudioPointSet(positions=self.positions.copy(), alpha=self.alphas.data.copy())

    def add_points(self, positions, alphas):
        """Append points (M, 3) with their alpha rows (M, K). Both re-indexes
        keep the alpha tensor itself, so an optimizer holding it follows."""
        self.positions = np.concatenate([self.positions, positions], axis=0)
        self.alphas.data = np.concatenate([self.alphas.data, alphas], axis=0)

    def keep_points(self, keep_indices):
        self.positions = self.positions[keep_indices]
        self.alphas.data = self.alphas.data[keep_indices]

    # --- forward paths ---

    def context(self, tape, listener) -> SceneContext:
        return pooled_context(tape, self.field, self.positions, self.alphas, listener,
                              self.source, self.percentile)

    def mask_tensors(self, tape, pose: Pose, context=None):
        ctx = self.context(tape, pose) if context is None else context
        xy01 = normalize_position(pose.position, self.bounds)
        n_bins = self.window // 2 + 1
        mixture, difference = self.masknet.mask_tensors(tape, xy01, pose.heading(), ctx, n_bins)
        return mixture, difference, ctx

    def masks(self, pose: Pose, context=None) -> AcousticMasks:
        mixture, difference, _ = self.mask_tensors(None, pose, context)
        return AcousticMasks(mixture=mixture.data[:, 0], difference=difference.data[:, 0])

    def render(self, pose: Pose, mono: Waveform):
        """Binauralize ``mono`` for ``pose``; returns (left, right)."""
        if self.mode != "binaural":
            raise ConfigError("render requires a binaural-mode model")
        return binauralize(mono, self.masks(pose), self.window, self.hop)

    def rir_tensor(self, tape, pose: Pose, times01, context=None):
        ctx = self.context(tape, pose) if context is None else context
        xy01 = normalize_position(pose.position, self.bounds)
        return self.masknet.rir_tensor(tape, xy01, pose.heading(), ctx, times01), ctx

    def predict_ir(self, pose: Pose, n_samples) -> ImpulseResponse:
        if self.mode != "rir":
            raise ConfigError("impulse-response prediction requires an rir-mode model")
        times01 = np.arange(n_samples) / n_samples
        amp, _ = self.rir_tensor(None, pose, times01)
        return ImpulseResponse(samples=amp.data[:, 0], sample_rate=self.sample_rate)

    # --- persistence ---

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        # the live arrays, not point_set()'s copies: the writer only reads them
        save_audio_points(os.path.join(directory, POINTS_NAME),
                          AudioPointSet(positions=self.positions, alpha=self.alphas.data))
        self.field.save(os.path.join(directory, FIELD_NAME))
        self.masknet.save(os.path.join(directory, BINAURALIZER_NAME))
        config = {
            "schema_version": 1,
            "mode": self.mode,
            "source": [float(v) for v in self.source],
            "bounds": [[float(v) for v in self.bounds[0]],
                       [float(v) for v in self.bounds[1]]],
            "percentile": self.percentile,
            "window": self.window,
            "hop": self.hop,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "point_count": self.point_count,
        }
        tmp = os.path.join(directory, CONFIG_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(directory, CONFIG_NAME))

    @classmethod
    def load(cls, directory) -> "SceneModel":
        with open(os.path.join(directory, CONFIG_NAME), "r", encoding="utf-8") as fh:
            config = json.load(fh)
        points = load_audio_points(os.path.join(directory, POINTS_NAME))
        field = FieldNetwork.load(os.path.join(directory, FIELD_NAME))
        masknet = MaskNetwork.load(os.path.join(directory, BINAURALIZER_NAME))
        return cls(points=points, field=field, masknet=masknet,
                   source=np.asarray(config["source"]),
                   bounds=(np.asarray(config["bounds"][0]), np.asarray(config["bounds"][1])),
                   percentile=config["percentile"], window=config["window"],
                   hop=config["hop"], sample_rate=config["sample_rate"],
                   seed=config.get("seed"))

    def network_params(self):
        return self.field.params() + self.masknet.params()
