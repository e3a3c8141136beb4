"""Shoebox-room geometric acoustics: image-source impulse responses and a
two-point spherical-head binaural renderer.

This is the independent oracle the learned pipeline trains against. Sound
travels at ``SPEED_OF_SOUND``. Walls carry energy absorption coefficients
in [0, 1]; pressure reflection factors are sqrt(1 - absorption). Image
amplitudes are reflection-factor products over the travel distance (no 4*pi
scaling); arrivals land on the sample grid through an 81-tap Hann sinc.

The head is fixed: ears ``HEAD_RADIUS`` to either side of the listener,
square to its yaw, a level difference of ``ILD_STRENGTH`` and a receiver
gain of ``RECEIVER_GAIN``. ``binaural_render`` and ``ear_impulse_responses``
share one per-ear path, so convolving the mono source with the stored
per-ear responses reproduces the rendered pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import SAMPLE_RATE, Waveform
from .errors import ConfigError, GeometryError
from .scene import Pose

SPEED_OF_SOUND = 343.0
HEAD_RADIUS = 0.0875
ILD_STRENGTH = 0.4
# receiver sensitivity; keeps rendered levels inside the range the bounded
# mask heads can reproduce (reverberation makes |H| exceed 1 otherwise)
RECEIVER_GAIN = 0.25
_SINC_HALF_WIDTH = 40
_UP = np.array([0.0, 0.0, 1.0])


@dataclass
class ShoeboxRoom:
    """A room from the origin to ``dimensions``; sound crosses it at ``SPEED_OF_SOUND``."""

    dimensions: np.ndarray  # (3,), meters
    absorption: np.ndarray  # (6,): x_lo, x_hi, y_lo, y_hi, z_lo, z_hi

    def __post_init__(self):
        self.dimensions = np.asarray(self.dimensions, dtype=np.float64).reshape(3)
        absorption = np.asarray(self.absorption, dtype=np.float64).reshape(-1)
        if absorption.size == 1:
            absorption = np.full(6, absorption[0])
        if absorption.size != 6:
            raise ConfigError("absorption needs 1 or 6 coefficients")
        if np.any(self.dimensions <= 0):
            raise ConfigError("room dimensions must be positive")
        if np.any((absorption < 0) | (absorption > 1)):
            raise ConfigError("absorption coefficients must lie in [0, 1]")
        self.absorption = absorption

    def contains(self, point, margin=0.0):
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(p > margin) and np.all(p < self.dimensions - margin))


def image_sources(room: ShoeboxRoom, source, max_order):
    """All image-source positions and reflection-factor products up to
    ``max_order`` reflections. Returns (positions (K, 3), factors (K,))."""
    if max_order < 0:
        raise ConfigError("max_order must be >= 0")
    source = np.asarray(source, dtype=np.float64).reshape(3)
    betas = np.sqrt(1.0 - room.absorption)
    m_span = max_order // 2 + 1
    per_axis = []
    for axis in range(3):
        length = room.dimensions[axis]
        beta_lo, beta_hi = betas[2 * axis], betas[2 * axis + 1]
        entries = []
        for u in (0, 1):
            for m in range(-m_span, m_span + 1):
                n_lo = abs(m - u)
                n_hi = abs(m)
                if n_lo + n_hi > max_order:
                    continue
                coord = (1 - 2 * u) * source[axis] + 2.0 * m * length
                entries.append((coord, n_lo + n_hi, (beta_lo ** n_lo) * (beta_hi ** n_hi)))
        per_axis.append(entries)
    positions = []
    factors = []
    for cx, nx, fx in per_axis[0]:
        for cy, ny, fy in per_axis[1]:
            if nx + ny > max_order:
                continue
            for cz, nz, fz in per_axis[2]:
                if nx + ny + nz > max_order:
                    continue
                positions.append((cx, cy, cz))
                factors.append(fx * fy * fz)
    return np.asarray(positions), np.asarray(factors)


def image_source_rir(room: ShoeboxRoom, source, receiver, max_order=3,
                     sample_rate=SAMPLE_RATE, duration=0.5) -> Waveform:
    """Impulse response between a source and a point receiver."""
    source = np.asarray(source, dtype=np.float64).reshape(3)
    receiver = np.asarray(receiver, dtype=np.float64).reshape(3)
    if not room.contains(source):
        raise GeometryError(f"source {source.tolist()} outside room")
    if not room.contains(receiver):
        raise GeometryError(f"receiver {receiver.tolist()} outside room")
    if duration <= 0:
        raise ConfigError("duration must be positive")
    positions, factors = image_sources(room, source, max_order)
    dists = np.linalg.norm(positions - receiver, axis=1)
    if np.any(dists < 1e-6):
        raise GeometryError("receiver coincides with the source")
    n = int(round(duration * sample_rate))
    delays = dists / SPEED_OF_SOUND * sample_rate
    amps = factors / dists
    # keep arrivals whose sinc support can intersect the buffer
    live = delays < n + _SINC_HALF_WIDTH
    delays, amps = delays[live], amps[live]
    ir = np.zeros(n)
    if delays.size:
        centers = np.round(delays).astype(np.int64)
        offsets = np.arange(-_SINC_HALF_WIDTH, _SINC_HALF_WIDTH + 1)
        idx = centers[:, None] + offsets[None, :]
        x = idx - delays[:, None]
        taper = 0.5 * (1.0 + np.cos(np.pi * x / (_SINC_HALF_WIDTH + 1)))
        vals = amps[:, None] * np.sinc(x) * taper
        ok = (idx >= 0) & (idx < n)
        np.add.at(ir, idx[ok], vals[ok])
    return Waveform(samples=ir, sample_rate=sample_rate)


def _lateral_axis(direction):
    """Unit vector pointing to the listener's left."""
    left = np.cross(_UP, direction)
    return left / float(np.linalg.norm(left))


def ear_positions(pose: Pose):
    left_axis = _lateral_axis(pose.direction)
    return pose.position + HEAD_RADIUS * left_axis, pose.position - HEAD_RADIUS * left_axis


def _fft_convolve(signal, kernel):
    n = signal.size + kernel.size - 1
    size = 1 << (n - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(signal, size) * np.fft.rfft(kernel, size), size)
    return out[: signal.size]


def head_shadow_gains(pose: Pose, source):
    """Frequency-independent level difference, weighted by the cosine of the
    angle between the source direction and each ear's axis."""
    to_source = np.asarray(source, dtype=np.float64) - pose.position
    norm = float(np.linalg.norm(to_source))
    if norm < 1e-9:
        raise GeometryError("source coincides with the listener")
    to_source = to_source / norm
    lateral = float(np.dot(to_source, _lateral_axis(pose.direction)))
    return 1.0 + ILD_STRENGTH * lateral, 1.0 - ILD_STRENGTH * lateral


def _ear_responses(room: ShoeboxRoom, source, pose: Pose, max_order, sample_rate,
                   ir_duration):
    """Each ear's (impulse response, scale), left then right; the scale is
    ``RECEIVER_GAIN`` times the ear's head-shadow gain."""
    ears = ear_positions(pose)
    if not all(room.contains(ear) for ear in ears):
        raise GeometryError("an ear lies outside the room")
    return [(image_source_rir(room, source, ear, max_order, sample_rate, ir_duration),
             RECEIVER_GAIN * ear_gain)
            for ear, ear_gain in zip(ears, head_shadow_gains(pose, source))]


def binaural_render(room: ShoeboxRoom, source, pose: Pose, mono: Waveform,
                    max_order=3, ir_duration=0.5):
    """Ground-truth binaural pair: per-ear image-source IR convolved with the
    mono signal, then the spherical-head level difference and receiver gain.
    Output length matches the mono input."""
    return tuple(Waveform(samples=scale * _fft_convolve(mono.samples, ir.samples),
                          sample_rate=mono.sample_rate)
                 for ir, scale in _ear_responses(room, source, pose, max_order,
                                                 mono.sample_rate, ir_duration))


def ear_impulse_responses(room: ShoeboxRoom, source, pose: Pose, max_order=3,
                          sample_rate=SAMPLE_RATE, ir_duration=0.5):
    """Per-ear impulse responses including the head-shadow and receiver
    gains, so that convolving each with the mono source reproduces
    binaural_render."""
    return tuple(Waveform(samples=scale * ir.samples, sample_rate=sample_rate)
                 for ir, scale in _ear_responses(room, source, pose, max_order,
                                                 sample_rate, ir_duration))
