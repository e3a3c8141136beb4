"""Signals, time-frequency transforms and the two binaural quality metrics.

``Waveform`` is the one signal type: mono clips, rendered channels and
impulse responses alike.

STFT frames are centered (half a window of zero padding on each side) with a
periodic Hann window, so a unit impulse at sample 0 lands on the window peak
and the overlap-add inverse divides by the exact per-sample window-square
sum. ``SAMPLE_RATE``, ``WINDOW`` and ``HOP`` (22050 Hz, 512, 128) are the
engine's defaults; every other default of these three refers to them.

Neither transform loops over frames. ``stft`` frames by a strided view;
``istft`` overlap-adds by hop-sized blocks, adding block j of every frame in
one operation. Output block i receives block j of frame i - j, so going from
the last block of a frame to the first sums each sample's frames in
ascending frame order: the order, and so the bits, of a per-frame loop.

Spectra stay frame-major, the way ``np.fft.rfft`` writes them: ``stft``'s
``bins`` is the (F, T) transposed view of the (T, F) FFT output, with no
copy, and ``istft`` hands ``bins.T`` back to ``np.fft.irfft``, which then
reads contiguous rows. ``Spectrogram.magnitudes()`` alone is bin-major
(C-ordered (F, T)): the training statistics and ``mag_distance`` reduce
over it, and their sums keep their bits only in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation

SAMPLE_RATE = 22050
WINDOW = 512
HOP = 128


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise ContractViolation("waveform must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise ContractViolation("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ContractViolation("sample rate must be positive")
        self.sample_rate = int(self.sample_rate)

    def __len__(self):
        return self.samples.size

    def rms(self):
        return float(np.sqrt(np.mean(self.samples**2)))

    def energy(self):
        return float(np.sum(self.samples**2))


@dataclass
class Spectrogram:
    """Complex STFT bins, indexed (bin, frame). ``stft`` gives the
    F-ordered view of a frame-major (frames, bins) array; any layout of the
    same values inverts to the same bytes. ``magnitudes()`` is C-ordered
    (bin-major), the order the training and distance reductions rely on for
    their bits."""

    bins: np.ndarray  # complex, shape (window//2 + 1, frames)
    window: int
    hop: int
    sample_rate: int

    @property
    def n_bins(self):
        return self.bins.shape[0]

    @property
    def n_frames(self):
        return self.bins.shape[1]

    def magnitudes(self):
        # abs over the frame-major rows, then one transposing copy: faster
        # than an abs that writes bin-major through strides
        return np.abs(self.bins.T).T.copy()


def hann(n):
    """Periodic Hann window (COLA-friendly for hop = n / k, integer k >= 2)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _check_params(window, hop):
    if window < 2 or (window & (window - 1)) != 0:
        raise ConfigError(f"window must be a power of two, got {window}")
    if hop <= 0 or hop > window:
        raise ConfigError(f"hop must be in (0, window], got {hop}")
    if window % hop != 0 or window // hop < 2:
        raise ConfigError(f"window/hop pair ({window}, {hop}) does not satisfy overlap-add")


def stft(wave: Waveform, window=WINDOW, hop=HOP) -> Spectrogram:
    _check_params(window, hop)
    x = wave.samples
    if x.size == 0:
        raise ContractViolation("empty waveform")
    half = window // 2
    n_frames = int(np.ceil(x.size / hop)) + 1
    padded_len = (n_frames - 1) * hop + window
    padded = np.zeros(padded_len)
    padded[half : half + x.size] = x
    frames = np.lib.stride_tricks.sliding_window_view(padded, window)[::hop]
    spec = np.fft.rfft(frames * hann(window)[None, :], axis=1)
    return Spectrogram(bins=spec.T, window=window, hop=hop, sample_rate=wave.sample_rate)


def istft(spec: Spectrogram, length=None) -> Waveform:
    _check_params(spec.window, spec.hop)
    window, hop = spec.window, spec.hop
    win = hann(window)
    frames = np.fft.irfft(spec.bins.T, n=window, axis=1)
    frames *= win
    n_frames = frames.shape[0]
    per_frame = window // hop
    padded_len = (n_frames - 1) * hop + window
    out = np.zeros(padded_len)
    weight = np.zeros(padded_len)
    # last block first, so each sample sums its frames in ascending order
    out_blocks = out.reshape(-1, hop)
    weight_blocks = weight.reshape(-1, hop)
    frame_blocks = frames.reshape(n_frames, per_frame, hop)
    win_sq = (win * win).reshape(per_frame, hop)
    for j in range(per_frame - 1, -1, -1):
        out_blocks[j : j + n_frames] += frame_blocks[:, j]
        weight_blocks[j : j + n_frames] += win_sq[j]
    covered = weight > 1e-12
    np.divide(out, weight, out=out, where=covered)
    half = window // 2
    body = out[half : padded_len - half]
    if length is not None:
        if length > body.size:
            body = np.concatenate([body, np.zeros(length - body.size)])
        else:
            body = body[:length]
    return Waveform(samples=body, sample_rate=spec.sample_rate)


def mag_distance(pred, gt, window=WINDOW, hop=HOP):
    """Magnitude-spectrogram distance between two binaural pairs.

    Mean over channels of the squared Frobenius distance between magnitude
    spectrograms, normalized by frame count.
    """
    _check_pairs(pred, gt)
    total = 0.0
    for p, g in zip(pred, gt):
        sp = stft(p, window, hop).magnitudes()
        sg = stft(g, window, hop).magnitudes()
        total += float(((sp - sg) ** 2).sum()) / sp.shape[1]
    return total / len(pred)


def envelope(x):
    """Magnitude of the analytic signal (FFT-based Hilbert transform)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    spectrum = np.fft.fft(x)
    h = np.zeros(n)
    if n % 2 == 0:
        h[0] = h[n // 2] = 1.0
        h[1 : n // 2] = 2.0
    else:
        h[0] = 1.0
        h[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(spectrum * h))


def env_distance(pred, gt):
    """Envelope distance between two binaural pairs: mean over channels of
    the L2 distance between analytic-signal envelopes, normalized by sample
    count."""
    _check_pairs(pred, gt)
    total = 0.0
    for p, g in zip(pred, gt):
        d = envelope(p.samples) - envelope(g.samples)
        total += float(np.linalg.norm(d)) / p.samples.size
    return total / len(pred)


def _check_pairs(pred, gt):
    if len(pred) != 2 or len(gt) != 2:
        raise ContractViolation("expected (left, right) pairs")
    for p, g in zip(pred, gt):
        if len(p) != len(g):
            raise ContractViolation(f"length mismatch: {len(p)} vs {len(g)}")
        if p.sample_rate != g.sample_rate:
            raise ContractViolation("sample rate mismatch")
