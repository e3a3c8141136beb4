"""Minimal RIFF/WAVE reader and writer.

The engine writes one layout: IEEE float32, mono or 2-channel,
little-endian, canonical chunk order. It reads that layout and PCM 16-bit,
since input files come from outside the program. Unknown chunks are skipped
on read.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ContractViolation, DataError

_FMT_PCM = 1
_FMT_FLOAT = 3


def write_wav(path, samples, sample_rate):
    """Write ``samples`` (shape (n,) or (n, channels)) to ``path`` as float32."""
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[1] not in (1, 2):
        raise ContractViolation(f"expected mono or 2-channel samples, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ContractViolation("non-finite samples")
    channels = data.shape[1]
    payload = data.astype("<f4").tobytes()
    block_align = channels * 4
    byte_rate = int(sample_rate) * block_align
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        _FMT_FLOAT,
        channels,
        int(sample_rate),
        byte_rate,
        block_align,
        32,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_wav(path):
    """Read a WAV file; returns (samples float64, sample_rate).

    Mono files come back as shape (n,), stereo as (n, 2).
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise DataError(f"{path}: not a RIFF/WAVE file")
        fmt = None
        payload = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                break
            chunk_id, chunk_size = struct.unpack("<4sI", head)
            body = fh.read(chunk_size)
            if chunk_size % 2 == 1:
                fh.read(1)
            if chunk_id == b"fmt ":
                if len(body) < 16:
                    raise DataError(f"{path}: fmt chunk of {len(body)} bytes, under 16")
                fmt = struct.unpack("<HHIIHH", body[:16])
            elif chunk_id == b"data":
                payload = body
        if fmt is None:
            raise DataError(f"{path}: missing fmt chunk")
        if payload is None:
            raise DataError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if (audio_format, bits) not in ((_FMT_PCM, 16), (_FMT_FLOAT, 32)):
        raise DataError(f"{path}: unsupported format ({audio_format}, {bits}-bit)")
    if channels not in (1, 2):
        raise DataError(f"{path}: unsupported channel count {channels}")
    frame = channels * bits // 8
    if len(payload) % frame:
        raise DataError(f"{path}: data chunk of {len(payload)} bytes is not a whole "
                        f"number of {frame}-byte frames")
    if audio_format == _FMT_PCM:
        data = np.frombuffer(payload, dtype="<i2").astype(np.float64) / 32767.0
    else:
        data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if channels == 2:
        return data.reshape(-1, 2), int(sample_rate)
    return data, int(sample_rate)
