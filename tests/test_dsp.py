import tracemalloc

import numpy as np
import pytest

from gsaudio.dsp import (Spectrogram, Waveform, env_distance, envelope, hann,
                         istft, mag_distance, stft)
from gsaudio.errors import ConfigError, ContractViolation


def wave(samples, sr=22050):
    return Waveform(np.asarray(samples, dtype=np.float64), sr)


def test_zero_waveform_gives_zero_spectrogram():
    spec = stft(wave(np.zeros(4096)))
    assert np.all(spec.bins == 0)


def test_unit_impulse_has_flat_first_frame():
    x = np.zeros(2048)
    x[0] = 1.0
    spec = stft(wave(x), window=512, hop=128)
    mags = np.abs(spec.bins[:, 0])
    # impulse lands on the centered window's peak: flat unit magnitude
    assert np.allclose(mags, 1.0, atol=1e-12)


def test_sine_peak_bin():
    t = np.arange(22050) / 22050
    spec = stft(wave(np.sin(2 * np.pi * 440 * t)), window=512, hop=128)
    peak_bin = int(np.argmax(spec.magnitudes().mean(axis=1)))
    assert peak_bin == round(440 * 512 / 22050)


def test_bin_count_is_half_window_plus_one():
    spec = stft(wave(np.ones(1000)), window=512, hop=128)
    assert spec.n_bins == 257


@pytest.mark.parametrize("signal", ["noise", "sine"])
def test_round_trip(signal):
    rng = np.random.default_rng(4)
    if signal == "noise":
        x = rng.standard_normal(22050)
    else:
        x = np.sin(2 * np.pi * 440 * np.arange(22050) / 22050)
    w = wave(x)
    back = istft(stft(w), length=len(w))
    rms = np.sqrt(np.mean((back.samples - x) ** 2))
    assert rms < 1e-6


def reference_stft_bins(x, window, hop):
    """Framing by a fancy-index gather, one row of indices per frame."""
    n_frames = int(np.ceil(x.size / hop)) + 1
    padded = np.zeros((n_frames - 1) * hop + window)
    padded[window // 2 : window // 2 + x.size] = x
    offsets = np.arange(n_frames) * hop
    frames = padded[offsets[:, None] + np.arange(window)[None, :]]
    return np.fft.rfft(frames * hann(window)[None, :], axis=1).T.copy()


def reference_istft(bins, window, hop, length):
    """Overlap-add by a per-frame loop, in ascending frame order."""
    win = hann(window)
    frames = np.fft.irfft(bins.T, n=window, axis=1) * win[None, :]
    padded_len = (frames.shape[0] - 1) * hop + window
    out = np.zeros(padded_len)
    weight = np.zeros(padded_len)
    for m in range(frames.shape[0]):
        out[m * hop : m * hop + window] += frames[m]
        weight[m * hop : m * hop + window] += win * win
    covered = weight > 1e-12
    out[covered] /= weight[covered]
    body = out[window // 2 : padded_len - window // 2]
    if length > body.size:
        return np.concatenate([body, np.zeros(length - body.size)])
    return body[:length]


@pytest.mark.parametrize("window,hop", [(512, 128), (256, 128), (64, 16)])
@pytest.mark.parametrize("length", [1, 127, 128, 129, 22050])
def test_transforms_bit_equal_to_gather_and_frame_loop(length, window, hop):
    rng = np.random.default_rng(length + window + hop)
    x = rng.standard_normal(length)
    spec = stft(wave(x), window, hop)
    assert spec.bins.tobytes() == reference_stft_bins(x, window, hop).tobytes()
    # random complex gains, so the frames no longer overlap-add back to x
    # and every sum carries rounding
    gains = rng.uniform(0.0, 2.0, spec.bins.shape) * np.exp(1j * rng.uniform(-3, 3, spec.bins.shape))
    masked = Spectrogram(bins=spec.bins * gains, window=window, hop=hop, sample_rate=22050)
    for out_len in (length, length + 300):
        out = istft(masked, length=out_len).samples
        ref = reference_istft(masked.bins, window, hop, out_len)
        assert out.tobytes() == ref.tobytes()


# --- layout: frame-major bins, bin-major magnitudes ---

def test_stft_bins_are_the_transposed_fft_output():
    x = np.random.default_rng(30).standard_normal(5000)
    spec = stft(wave(x))
    # the (F, T) view of the frame-major (T, F) FFT output, not a copy
    assert spec.bins.flags.f_contiguous and not spec.bins.flags.c_contiguous
    assert spec.bins.base is not None
    assert spec.bins.T.flags.c_contiguous
    assert spec.bins.tobytes() == reference_stft_bins(x, 512, 128).tobytes()


def test_magnitudes_are_bin_major():
    spec = stft(wave(np.random.default_rng(31).standard_normal(5000)))
    mags = spec.magnitudes()
    assert mags.flags.c_contiguous
    assert mags.tobytes() == np.abs(np.ascontiguousarray(spec.bins)).tobytes()


def test_istft_same_bytes_for_either_bin_order():
    rng = np.random.default_rng(32)
    bins = rng.standard_normal((257, 60)) + 1j * rng.standard_normal((257, 60))
    outs = [istft(Spectrogram(bins=b, window=512, hop=128, sample_rate=22050),
                  length=7000).samples.tobytes()
            for b in (np.ascontiguousarray(bins), np.asfortranarray(bins))]
    assert outs[0] == outs[1]


def test_istft_peak_memory_below_1_75_spectrograms():
    # irfft's frames are windowed in place: no second frame-sized array
    spec = stft(wave(np.random.default_rng(33).uniform(-1.0, 1.0, 22050)))
    istft(spec, length=22050)
    tracemalloc.start()
    try:
        istft(spec, length=22050)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * spec.bins.nbytes, peak / spec.bins.nbytes


def test_zero_spectrogram_gives_zero_waveform():
    spec = stft(wave(np.random.default_rng(0).standard_normal(4000)))
    spec.bins[:] = 0
    out = istft(spec, length=4000)
    assert np.all(out.samples == 0)


def test_non_cola_pair_rejected():
    with pytest.raises(ConfigError):
        stft(wave(np.ones(1024)), window=512, hop=384)
    with pytest.raises(ConfigError):
        stft(wave(np.ones(1024)), window=500, hop=125)


def test_empty_waveform_rejected():
    with pytest.raises(ContractViolation):
        Waveform(np.array([]), 22050)


def test_parseval_scaling():
    # interior-supported signal: spectrogram energy = N * sum(w^2)/hop * energy
    rng = np.random.default_rng(5)
    x = np.zeros(8192)
    x[1024:-1024] = rng.standard_normal(8192 - 2048)
    window, hop = 512, 128
    spec = stft(wave(x), window, hop)
    mags2 = spec.magnitudes() ** 2
    two_sided = mags2.sum() + mags2[1:-1].sum()  # un-fold the real FFT
    expected = window * np.sum(hann(window) ** 2) / hop * np.sum(x**2)
    assert abs(two_sided - expected) / expected < 1e-9


def test_mag_distance_identical_is_zero():
    x = wave(np.random.default_rng(6).standard_normal(8000))
    assert mag_distance((x, x), (x, x)) == 0.0


def test_mag_distance_doubling_matches_distance_to_silence():
    rng = np.random.default_rng(7)
    g = rng.standard_normal(8000)
    gt = (wave(g), wave(g))
    doubled = (wave(2 * g), wave(2 * g))
    silent = (wave(np.zeros(8000)), wave(np.zeros(8000)))
    assert mag_distance(doubled, gt) == pytest.approx(mag_distance(silent, gt), rel=1e-12)


def test_mag_distance_matches_naive_double_loop():
    rng = np.random.default_rng(8)
    pred = (wave(rng.standard_normal(4000)), wave(rng.standard_normal(4000)))
    gt = (wave(rng.standard_normal(4000)), wave(rng.standard_normal(4000)))
    fast = mag_distance(pred, gt, 512, 128)
    total = 0.0
    for p, g in zip(pred, gt):
        sp = np.abs(stft(p, 512, 128).bins)
        sg = np.abs(stft(g, 512, 128).bins)
        acc = 0.0
        for i in range(sp.shape[0]):
            for j in range(sp.shape[1]):
                acc += (sp[i, j] - sg[i, j]) ** 2
        total += acc / sp.shape[1]
    naive = total / 2
    assert abs(fast - naive) < 1e-9


def test_env_distance_matches_naive():
    rng = np.random.default_rng(9)
    pred = (wave(rng.standard_normal(4000)), wave(rng.standard_normal(4000)))
    gt = (wave(rng.standard_normal(4000)), wave(rng.standard_normal(4000)))
    fast = env_distance(pred, gt)
    total = 0.0
    for p, g in zip(pred, gt):
        d = envelope(p.samples) - envelope(g.samples)
        acc = 0.0
        for v in d:
            acc += v * v
        total += np.sqrt(acc) / len(d)
    assert abs(fast - total / 2) < 1e-9


def test_envelope_of_sine_is_amplitude():
    t = np.arange(22050) / 22050
    env = envelope(0.7 * np.sin(2 * np.pi * 300 * t))
    interior = env[2000:-2000]
    assert np.all(np.abs(interior - 0.7) < 0.7 * 0.02)


def test_env_distance_phase_invariant():
    x = np.random.default_rng(10).standard_normal(4000)
    a = (wave(x), wave(x))
    b = (wave(-x), wave(-x))
    assert env_distance(a, b) == pytest.approx(0.0, abs=1e-12)


def test_metrics_symmetric_positive():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = (wave(rng.standard_normal(3000)), wave(rng.standard_normal(3000)))
        b = (wave(rng.standard_normal(3000)), wave(rng.standard_normal(3000)))
        assert mag_distance(a, a) == 0.0
        assert env_distance(a, a) == 0.0
        assert mag_distance(a, b) >= 0.0
        assert env_distance(a, b) >= 0.0


def test_length_mismatch_rejected():
    a = (wave(np.ones(100)), wave(np.ones(100)))
    b = (wave(np.ones(101)), wave(np.ones(101)))
    with pytest.raises(ContractViolation):
        mag_distance(a, b)
    with pytest.raises(ContractViolation):
        env_distance(a, b)
