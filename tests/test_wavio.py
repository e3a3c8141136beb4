import struct

import numpy as np
import pytest

from gsaudio.errors import ContractViolation, DataError
from gsaudio.wavio import read_wav, write_wav


def test_float32_mono_round_trip(tmp_path):
    x = np.random.default_rng(0).standard_normal(1000) * 0.8
    path = tmp_path / "m.wav"
    write_wav(path, x, 22050)
    y, sr = read_wav(path)
    assert sr == 22050
    assert y.shape == (1000,)
    assert np.array_equal(y, x.astype(np.float32).astype(np.float64))


def test_float32_stereo_round_trip(tmp_path):
    x = np.random.default_rng(1).standard_normal((512, 2))
    path = tmp_path / "s.wav"
    write_wav(path, x, 44100)
    y, sr = read_wav(path)
    assert sr == 44100
    assert y.shape == (512, 2)
    assert np.array_equal(y, x.astype(np.float32).astype(np.float64))


def pcm16_file(path, codes, sample_rate):
    """A canonical mono PCM 16-bit file holding the integer ``codes``."""
    payload = np.asarray(codes, dtype="<i2").tobytes()
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, 1, 1, sample_rate, 2 * sample_rate, 2, 16,
                         b"data", len(payload))
    path.write_bytes(header + payload)


def test_pcm16_round_trip_within_quantization(tmp_path):
    # the engine writes float32 only; PCM 16-bit is read from outside files
    x = np.linspace(-0.9, 0.9, 300)
    path = tmp_path / "p.wav"
    pcm16_file(path, np.round(x * 32767.0), 8000)
    y, sr = read_wav(path)
    assert sr == 8000
    assert np.max(np.abs(y - x)) < 1.0 / 32766


def test_riff_header_layout(tmp_path):
    path = tmp_path / "h.wav"
    write_wav(path, np.zeros(4), 22050)
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF"
    assert raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt "
    assert int.from_bytes(raw[20:22], "little") == 3  # IEEE float
    assert int.from_bytes(raw[34:36], "little") == 32  # bits per sample
    assert raw[36:40] == b"data"


def test_bad_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(DataError):
        read_wav(path)


def test_non_finite_samples_rejected(tmp_path):
    with pytest.raises(ContractViolation):
        write_wav(tmp_path / "x.wav", np.array([0.0, np.inf]), 22050)
