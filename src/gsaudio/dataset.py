"""Dataset synthesis and loading.

A dataset directory holds manifest.json plus mono/NNN.wav, binaural/NNN.wav
and, when generated for impulse-response work, rir/NNN_l.wav and
rir/NNN_r.wav. The manifest records the room, the fixed source position and
per-sample listener poses with train/val split labels. Generation is fully
deterministic per seed, so identical seeds produce byte-identical trees.
Loading checks every record and reads no waveform; ``Dataset.sample`` reads
one sample's files each time it is called.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE, Waveform
from .errors import ConfigError, DataError, GeometryError, SchemaError
from .roomsim import (HEAD_RADIUS, SPEED_OF_SOUND, ShoeboxRoom, binaural_render,
                      ear_impulse_responses)
from .scene import Pose
from .settings import SETTINGS
from .wavio import read_wav, write_wav

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
_MARGIN = HEAD_RADIUS + 0.05
TRAIN_FRACTION = 0.8
RIR_SMOOTHING_MS = 4.0
SWEEP_F0 = 80.0
SWEEP_F1 = 8000.0
BURST_STARTS = (0.05, 0.55)  # seconds
SPLITS = ("train", "val")
RECORD_FIELDS = ("id", "listener", "yaw", "split", "mono", "binaural")


@dataclass
class RenderedSample:
    sample_id: str
    pose: Pose
    mono: Waveform
    left: Waveform
    right: Waveform
    ir_left: Waveform | None = None
    ir_right: Waveform | None = None


def pink_noise_burst(n, sample_rate, rng):
    """Seeded pink noise gated into two Hann bursts."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    shaping = np.ones_like(freqs)
    shaping[1:] = 1.0 / np.sqrt(freqs[1:])
    x = np.fft.irfft(spectrum * shaping, n)
    envelope = np.zeros(n)
    burst = int(0.35 * sample_rate)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(burst) / burst)
    for start_sec in BURST_STARTS:
        start = int(start_sec * sample_rate)
        if start >= n:  # a short clip ends before this burst
            continue
        stop = min(start + burst, n)
        envelope[start:stop] += win[: stop - start]
    x = x * envelope
    peak = np.max(np.abs(x))
    return x * (0.5 / peak) if peak > 0 else x


def sine_sweep(n, sample_rate):
    """Exponential sine sweep from SWEEP_F0 to SWEEP_F1, amplitude 0.5."""
    t = np.arange(n) / sample_rate
    duration = n / sample_rate
    tau = duration / math.log(SWEEP_F1 / SWEEP_F0)
    phase = 2.0 * np.pi * SWEEP_F0 * tau * (np.exp(t / tau) - 1.0)
    return 0.5 * np.sin(phase)


def default_source(room: ShoeboxRoom):
    return room.dimensions * np.array([0.3, 0.5, 0.5])


def bandlimit_ir(samples, sample_rate):
    """Convolve with a unit-energy Hann kernel RIR_SMOOTHING_MS wide, as a
    band-limited measurement would. Stored impulse-response targets go
    through this so their content stays within the bandwidth a
    sinusoidally-encoded time query can resolve; raw image-source spike
    trains are unlearnable for such a head."""
    n = max(3, int(round(RIR_SMOOTHING_MS * sample_rate / 1000.0)) | 1)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    win = win / np.sqrt(np.sum(win**2))
    return np.convolve(np.asarray(samples, dtype=np.float64), win, mode="same")


def synth_dataset(out_dir, room: ShoeboxRoom, n_samples=100, signal="pink", seed=0,
                  sample_rate=SAMPLE_RATE, duration=1.0, max_order=3, ir_duration=0.5,
                  source=None, with_rir=False, min_source_distance=1.2):
    """Render a dataset directory; returns the manifest dict.

    Listener positions keep at least ``min_source_distance`` from the source
    so ground-truth levels stay inside the range the bounded mask heads can
    represent (direct-path amplitude scales as 1/distance).
    """
    if n_samples < 5:
        raise ConfigError(f"need at least 5 samples, got {n_samples}")
    if signal not in SETTINGS["signal"].choices:
        raise ConfigError(f"unknown signal kind {signal!r}")
    if np.any(room.dimensions <= 2 * _MARGIN):
        raise GeometryError("room too small for the head radius")
    source = default_source(room) if source is None else np.asarray(source, dtype=np.float64)
    if not room.contains(source, margin=_MARGIN):
        raise GeometryError("source too close to a wall")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise ConfigError(f"duration: {duration} s holds no sample at {sample_rate} Hz")
    # a Hann burst opens at zero, so its first sound is one sample after its start
    if signal == "pink" and n <= int(BURST_STARTS[0] * sample_rate) + 1:
        raise ConfigError(f"duration: {duration} s ends before the first pink-noise burst "
                          f"at {BURST_STARTS[0]} s")
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(out_dir, "mono"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "binaural"), exist_ok=True)
    if with_rir:
        os.makedirs(os.path.join(out_dir, "rir"), exist_ok=True)
    order = rng.permutation(n_samples)
    n_train = int(TRAIN_FRACTION * n_samples)
    split = np.empty(n_samples, dtype=object)
    split[order[:n_train]] = "train"
    split[order[n_train:]] = "val"
    width = max(3, len(str(n_samples - 1)))
    lo = np.full(3, _MARGIN)
    hi = room.dimensions - _MARGIN
    records = []
    for i in range(n_samples):
        sid = str(i).zfill(width)
        position = rng.uniform(lo, hi)
        for _ in range(1000):
            if np.linalg.norm(position - source) >= min_source_distance:
                break
            position = rng.uniform(lo, hi)
        else:
            raise GeometryError("cannot place listeners min_source_distance from the source")
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        pose = Pose.from_yaw(position, yaw)
        if signal == "pink":
            mono = Waveform(pink_noise_burst(n, sample_rate, rng), sample_rate)
        else:
            mono = Waveform(sine_sweep(n, sample_rate), sample_rate)
        left, right = binaural_render(room, source, pose, mono, max_order, ir_duration)
        rec = {
            "id": sid,
            "listener": [float(v) for v in position],
            "yaw": yaw,
            "split": str(split[i]),
            "mono": f"mono/{sid}.wav",
            "binaural": f"binaural/{sid}.wav",
        }
        write_wav(os.path.join(out_dir, rec["mono"]), mono.samples, sample_rate)
        write_wav(os.path.join(out_dir, rec["binaural"]),
                  np.column_stack([left.samples, right.samples]), sample_rate)
        if with_rir:
            ir_l, ir_r = ear_impulse_responses(room, source, pose, max_order,
                                               sample_rate, ir_duration)
            rec["rir_left"] = f"rir/{sid}_l.wav"
            rec["rir_right"] = f"rir/{sid}_r.wav"
            write_wav(os.path.join(out_dir, rec["rir_left"]),
                      bandlimit_ir(ir_l.samples, sample_rate), sample_rate)
            write_wav(os.path.join(out_dir, rec["rir_right"]),
                      bandlimit_ir(ir_r.samples, sample_rate), sample_rate)
        records.append(rec)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "room": {
            "dimensions": [float(v) for v in room.dimensions],
            "absorption": [float(v) for v in room.absorption],
            "speed_of_sound": SPEED_OF_SOUND,
        },
        "source": [float(v) for v in source],
        "sample_rate": int(sample_rate),
        "duration": float(duration),
        "ir_duration": float(ir_duration),
        "max_order": int(max_order),
        "signal": signal,
        "seed": int(seed),
        "with_rir": bool(with_rir),
        "min_source_distance": float(min_source_distance),
        "rir_smoothing_ms": RIR_SMOOTHING_MS,
        "samples": records,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _listener_poses(path, records):
    """Each record's listener ``Pose``, keyed by sample id; a record that
    misses a field raises ``SchemaError``, one whose values are unusable
    ``DataError``."""
    if not isinstance(records, list):
        raise DataError(f"{path}: samples must be a list")
    poses = {}
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise DataError(f"{path}: sample #{index} is not an object")
        name = f"sample {rec['id']}" if "id" in rec else f"sample #{index}"
        for field in RECORD_FIELDS:
            if field not in rec:
                raise SchemaError(field, f"{path}: {name}: missing required field: {field}")
        sid, listener, yaw = rec["id"], rec["listener"], rec["yaw"]
        if not isinstance(sid, str):
            raise DataError(f"{path}: {name}: id must be a string")
        if sid in poses:
            raise DataError(f"{path}: duplicate sample id {sid!r}")
        if not (isinstance(listener, list) and len(listener) == 3
                and all(_finite_number(v) for v in listener)):
            raise DataError(f"{path}: {name}: listener must be 3 finite numbers, "
                            f"got {listener!r}")
        if not _finite_number(yaw):
            raise DataError(f"{path}: {name}: yaw must be a finite number, got {yaw!r}")
        if rec["split"] not in SPLITS:
            raise DataError(f"{path}: {name}: split must be one of {', '.join(SPLITS)}, "
                            f"got {rec['split']!r}")
        poses[sid] = Pose.from_yaw(np.asarray(listener, dtype=np.float64), yaw)
    return poses


class Dataset:
    """Loaded dataset directory. The manifest is parsed, checked and each
    record's listener ``Pose`` built once, at load; ``sample`` reads the
    waveforms from disk on every call and keeps none, so a reader holds only
    the samples it keeps itself."""

    def __init__(self, root, manifest):
        self.root = root
        self.manifest = manifest
        self._poses = _listener_poses(os.path.join(root, MANIFEST_NAME), manifest["samples"])

    @classmethod
    def load(cls, root):
        path = os.path.join(root, MANIFEST_NAME)
        if not os.path.exists(path):
            raise DataError(f"{root}: no {MANIFEST_NAME}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                manifest = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise DataError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or "samples" not in manifest:
            raise DataError(f"{path}: manifest has no samples")
        return cls(root, manifest)

    @property
    def sample_rate(self):
        return int(self.manifest["sample_rate"])

    @property
    def source(self):
        return np.asarray(self.manifest["source"], dtype=np.float64)

    def bounds(self):
        dims = np.asarray(self.manifest["room"]["dimensions"], dtype=np.float64)
        return np.zeros(3), dims

    def records(self, split=None):
        recs = self.manifest["samples"]
        if split is None:
            return list(recs)
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}")
        return [r for r in recs if r["split"] == split]

    def sample(self, record) -> RenderedSample:
        """``record``'s waveforms, read from disk: each call returns new
        arrays, and the record's one ``Pose``."""
        sid = record["id"]
        sr = self.sample_rate
        mono_data, sr_mono = read_wav(os.path.join(self.root, record["mono"]))
        stereo, sr_bi = read_wav(os.path.join(self.root, record["binaural"]))
        if sr_mono != sr or sr_bi != sr:
            raise DataError(f"sample {sid}: sample-rate mismatch")
        if stereo.ndim != 2 or stereo.shape[1] != 2 or stereo.shape[0] != mono_data.size:
            raise DataError(f"sample {sid}: malformed binaural file")
        ir_left = ir_right = None
        if "rir_left" in record:
            data_l, sr_l = read_wav(os.path.join(self.root, record["rir_left"]))
            data_r, sr_r = read_wav(os.path.join(self.root, record["rir_right"]))
            if sr_l != sr or sr_r != sr:
                raise DataError(f"sample {sid}: impulse-response sample-rate mismatch")
            ir_left = Waveform(data_l, sr)
            ir_right = Waveform(data_r, sr)
        return RenderedSample(
            sample_id=sid,
            pose=self._poses[sid],
            mono=Waveform(mono_data, sr),
            left=Waveform(stereo[:, 0], sr),
            right=Waveform(stereo[:, 1], sr),
            ir_left=ir_left,
            ir_right=ir_right,
        )

    def samples(self, split=None):
        """Every sample of ``split``, read now; the caller holds them all."""
        return [self.sample(r) for r in self.records(split)]
