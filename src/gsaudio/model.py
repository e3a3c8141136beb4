"""The assembled engine state: audio points, acoustic field network, and
binauralizer, plus directory checkpoints.

A saved model is one file, model.bin, and ``SceneModel`` is the only code
that knows its layout. It is a ``save_weights`` file: its header holds the
model settings (mode, source, bounds, percentile, window, hop, sample rate,
seed) and its buffer the (N, 3) positions, the (N, K) alphas, then the
field's tensors and the mask network's. A trainer checkpoint appends a train
state (header key ``train_state``), which ``load`` does not read.
"""

from __future__ import annotations

import os

import numpy as np

from .autodiff import Tensor
from .binauralizer import (AcousticMasks, MaskNetwork, binauralize, normalize_position)
from .checkpoint import SKIP_INIT, load_weights, save_weights, set_weights
from .dsp import HOP, SAMPLE_RATE, WINDOW, Waveform
from .errors import ConfigError, DataError
from .field import FieldNetwork, SceneContext, anchor_context, pooled_context
from .scene import AudioPointSet, Pose

MODEL_NAME = "model.bin"
SCHEMA_VERSION = 3
TRAIN_STATE_KEY = "train_state"


def _model_tensor_count(header):
    return len(header["tensors"]) - header.get(TRAIN_STATE_KEY, {}).get("tensor_count", 0)


class SceneModel:
    """Point set plus networks; the unit that training mutates and the CLI
    renders from.

    The source does not move, so the source half of the context (its (1, C)
    mean tensor and its vicinity indices) is the same for every pose. A
    tape-free ``context`` call (render, masks, impulse responses,
    evaluation) reuses it from a cache; a call with a tape always computes
    it fresh, so training never reads the cache. The cache key holds
    ``positions``, the source coordinates, ``percentile`` and
    ``(data, version)`` of ``alphas`` and of every field parameter. Arrays
    are compared by identity (the key keeps them alive, so an id is never
    reused), everything else by value: replacing an array (``add_points``,
    ``keep_points``, loading, any ``p.data = ...``) or writing one in place
    through ``Adam.step`` (which bumps ``version``) misses the key. An
    in-place write to ``positions`` must replace the array instead.
    """

    def __init__(self, points: AudioPointSet, field: FieldNetwork, masknet: MaskNetwork,
                 source, bounds, percentile=15.0, window=WINDOW, hop=HOP,
                 sample_rate=SAMPLE_RATE, seed=None):
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
        self._source_key = ()
        self._source_half = None

    # --- point bookkeeping ---

    @property
    def mode(self):
        return self.masknet.mode

    @property
    def point_count(self):
        return self.positions.shape[0]

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
        source_half = None if tape is not None else self._cached_source_half()
        return pooled_context(tape, self.field, self.positions, self.alphas, listener,
                              self.source, self.percentile, source_half=source_half)

    def _cached_source_half(self):
        key = [self.positions, tuple(self.source), self.percentile]
        for t in [self.alphas] + self.field.params():
            key += [t.data, t.version]
        cached = self._source_key
        if len(key) != len(cached) or not all(
                a is b if isinstance(a, np.ndarray) else a == b for a, b in zip(key, cached)):
            c_source, indices = anchor_context(None, self.field, self.positions, self.alphas,
                                               self.source, self.percentile)
            indices.flags.writeable = False
            self._source_key, self._source_half = key, (c_source, indices)
        return self._source_half

    def mask_tensors(self, tape, pose: Pose, context=None):
        """(mixture, difference, context) for ``pose``; the context is
        computed on ``tape`` unless a ``SceneContext`` is given."""
        ctx = self.context(tape, pose) if context is None else context
        xy01 = normalize_position(pose.position, self.bounds)
        n_bins = self.window // 2 + 1
        mixture, difference = self.masknet.mask_tensors(tape, xy01, pose.yaw, ctx.tensor, n_bins)
        return mixture, difference, ctx

    def masks(self, pose: Pose, context=None) -> AcousticMasks:
        mixture, difference, _ = self.mask_tensors(None, pose, context)
        return AcousticMasks(mixture=mixture.data[:, 0], difference=difference.data[:, 0])

    def render(self, pose: Pose, mono: Waveform):
        """Binauralize ``mono`` for ``pose``; returns (left, right). A clip at
        another sample rate than the model's is a ``ConfigError``."""
        if self.mode != "binaural":
            raise ConfigError("render requires a binaural-mode model")
        if mono.sample_rate != self.sample_rate:
            raise ConfigError(f"clip sample rate {mono.sample_rate} Hz differs from the "
                              f"model's {self.sample_rate} Hz")
        return binauralize(mono, self.masks(pose), self.window, self.hop)

    def rir_tensor(self, tape, pose: Pose, times01):
        """(amplitudes, context) for ``pose`` at the normalized ``times01``."""
        ctx = self.context(tape, pose)
        xy01 = normalize_position(pose.position, self.bounds)
        return self.masknet.rir_tensor(tape, xy01, pose.yaw, ctx.tensor, times01), ctx

    def predict_ir(self, pose: Pose, n_samples) -> Waveform:
        if self.mode != "rir":
            raise ConfigError("impulse-response prediction requires an rir-mode model")
        times01 = np.arange(n_samples) / n_samples
        amp, _ = self.rir_tensor(None, pose, times01)
        return Waveform(samples=amp.data[:, 0], sample_rate=self.sample_rate)

    # --- persistence ---

    def save(self, directory, train_state=None):
        """Write ``directory``/model.bin; ``train_state``, a (header fields,
        list of (name, array)) pair, goes after the model's tensors."""
        os.makedirs(directory, exist_ok=True)
        header = {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "source": self.source.tolist(),
            "bounds": [self.bounds[0].tolist(), self.bounds[1].tolist()],
            "percentile": self.percentile,
            "window": self.window,
            "hop": self.hop,
            "sample_rate": self.sample_rate,
            "seed": self.seed,
        }
        named = ([("positions", self.positions), ("alphas", self.alphas.data)]
                 + [(p.name, p.data) for p in self.network_params()])
        if train_state is not None:
            state_fields, state_tensors = train_state
            header[TRAIN_STATE_KEY] = dict(state_fields, tensor_count=len(state_tensors))
            named += state_tensors
        save_weights(os.path.join(directory, MODEL_NAME), header, named)

    @classmethod
    def load(cls, directory) -> "SceneModel":
        """The model in ``directory``/model.bin; a train state after it is not read."""
        path = os.path.join(directory, MODEL_NAME)
        header, arrays = load_weights(path, leading=_model_tensor_count)
        return cls.from_weights(path, header, arrays)

    @classmethod
    def from_weights(cls, path, header, arrays) -> "SceneModel":
        """The model held by ``load_weights(path)``'s ``header`` and
        ``arrays``; arrays past the model's tensors (a train state) are left
        to the caller."""
        if header.get("schema_version") != SCHEMA_VERSION:
            raise DataError(f"{path}: schema {header.get('schema_version')} model file; "
                            f"this version reads schema {SCHEMA_VERSION} only")
        points = AudioPointSet(positions=arrays[0], alpha=arrays[1])
        field = FieldNetwork(alpha_dim=points.alpha_dim, rng=SKIP_INIT)
        masknet = MaskNetwork(mode=header["mode"], rng=SKIP_INIT)
        set_weights(field.params() + masknet.params(), arrays[2:_model_tensor_count(header)])
        return cls(points=points, field=field, masknet=masknet, source=header["source"],
                   bounds=header["bounds"], percentile=header["percentile"],
                   window=header["window"], hop=header["hop"],
                   sample_rate=header["sample_rate"], seed=header["seed"])

    def network_params(self):
        return self.field.params() + self.masknet.params()
