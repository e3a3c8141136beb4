"""Signals, time-frequency transforms and the two binaural quality metrics.

``Waveform`` is the one signal type: mono clips, rendered channels and
impulse responses alike.

STFT frames are centered (half a window of zero padding on each side) with a
periodic Hann window, so a unit impulse at sample 0 lands on the window peak
and the overlap-add inverse divides by the exact per-sample window-square
sum. ``SAMPLE_RATE``, ``WINDOW`` and ``HOP`` (22050 Hz, 512, 128) are the
engine's defaults; every other default of these three refers to them.

Both transforms run over blocks of ``FRAME_BLOCK`` frames, so besides the
spectrum each makes one clip-sized array: the padded input or output. ``stft``
fills its (T, F) spectrum one block of frames at a time from a strided
view of the padded signal. ``istft`` turns one block of rows at a time into
windowed frames (times a per-bin ``gain`` if one is given) and overlap-adds
them by hop-sized pieces, adding piece j of every frame in the block in one
operation. Output piece i receives piece j of frame i - j; going from the
last piece of a frame to the first, block after block, sums each sample's
frames in ascending frame order: the order, and so the bits, of a
per-frame loop. ``np.fft.rfft`` and ``irfft`` give each row the same bits
whatever the batch, so the blocks change no output byte.

Spectra stay frame-major, the way ``np.fft.rfft`` writes them: ``stft``'s
``bins`` is the (F, T) transposed view of the (T, F) array its blocks fill,
with no copy, and ``istft`` hands blocks of ``bins.T`` back to
``np.fft.irfft``, which then reads contiguous rows.
``Spectrogram.magnitudes()`` alone is bin-major (C-ordered (F, T)): the
training statistics and ``mag_distance`` reduce over it, and their sums
keep their bits only in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation

SAMPLE_RATE = 22050
WINDOW = 512
HOP = 128

# frames per block of both transforms: at WINDOW each per-block array stays
# under 128 KiB, glibc's default mmap threshold, so the blocks reuse heap
# memory instead of mapping fresh pages
FRAME_BLOCK = 24


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
    win = hann(window)
    spec = np.empty((n_frames, window // 2 + 1), dtype=np.complex128)
    for a in range(0, n_frames, FRAME_BLOCK):
        spec[a : a + FRAME_BLOCK] = np.fft.rfft(frames[a : a + FRAME_BLOCK] * win, axis=1)
    return Spectrogram(bins=spec.T, window=window, hop=hop, sample_rate=wave.sample_rate)


def istft(spec: Spectrogram, length=None, gain=None) -> Waveform:
    """The overlap-add inverse of ``spec``, each frame's bins times ``gain``
    (one real value per bin) when given: the bytes of inverting
    ``gain[:, None] * spec.bins``, without making that spectrum."""
    _check_params(spec.window, spec.hop)
    window, hop = spec.window, spec.hop
    rows = spec.bins.T  # frame-major
    n_frames, n_bins = rows.shape
    if gain is not None:
        gain = np.asarray(gain, dtype=np.float64)
        if gain.shape != (n_bins,):
            raise ContractViolation(f"gain of shape {gain.shape} for {n_bins} bins")
        scaled = np.empty((min(FRAME_BLOCK, n_frames), n_bins), dtype=np.complex128)
    win = hann(window)
    per_frame = window // hop
    padded_len = (n_frames - 1) * hop + window
    out = np.zeros(padded_len)
    pieces = out.reshape(-1, hop)
    for a in range(0, n_frames, FRAME_BLOCK):
        block = rows[a : a + FRAME_BLOCK]
        n = block.shape[0]
        if gain is not None:
            block = np.multiply(block, gain, out=scaled[:n])
        frames = np.fft.irfft(block, n=window, axis=1)
        frames *= win
        frame_pieces = frames.reshape(n, per_frame, hop)
        # last piece first, so each sample sums its frames in ascending order
        for j in range(per_frame - 1, -1, -1):
            pieces[a + j : a + j + n] += frame_pieces[:, j]
    # a piece's window-square sum depends only on which window pieces land on
    # it: pieces m - 1 to n_frames - 1 get those of an m-frame clip's piece
    # m - 1, and the m - 1 pieces at each end those of its ends, so that
    # clip's sums, added in the same order, serve the whole clip
    m = min(n_frames, per_frame)
    weight = np.zeros((m + per_frame - 1, hop))
    win_sq = (win * win).reshape(per_frame, hop)
    for j in range(per_frame - 1, -1, -1):
        weight[j : j + m] += win_sq[j]
    for part, w in ((pieces[: m - 1], weight[: m - 1]), (pieces[m - 1 : n_frames], weight[m - 1]),
                    (pieces[n_frames:], weight[m:])):
        np.divide(part, w, out=part, where=w > 1e-12)
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
