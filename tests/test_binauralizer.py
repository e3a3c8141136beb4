import tracemalloc

import numpy as np
import pytest

from gsaudio.autodiff import Tape, Tensor, finite_difference_check
from gsaudio import autodiff as ad
from gsaudio.binauralizer import (AcousticMasks, MaskNetwork, binauralize,
                                  normalize_position, positional_encoding,
                                  transform_direction)
from gsaudio.dsp import FRAME_BLOCK, Spectrogram, Waveform, istft, stft
from gsaudio.errors import ConfigError, ContractViolation
from gsaudio.field import FieldNetwork
from gsaudio.model import SceneModel
from gsaudio.scene import Pose

from conftest import rewrite_model_bin, save_model_around

N_BINS = 257


def zeroed(net):
    for p in net.params():
        p.data = np.zeros_like(p.data)
    return net


def random_context(rng, width=128):
    return Tensor(rng.standard_normal((1, width)) * 0.3)


def masks_of(net, pose, ctx):
    """Forward-only masks over all bins, with the pose's (x, y) used as is."""
    mixture, difference = net.mask_tensors(None, pose.position[:2], pose.yaw, ctx, N_BINS)
    return AcousticMasks(mixture=mixture.data[:, 0], difference=difference.data[:, 0])


def ir_of(net, pose, ctx, n_samples):
    """Forward-only impulse-response amplitudes at t/T = 0, 1/n, ..."""
    times01 = np.arange(n_samples) / n_samples
    return net.rir_tensor(None, pose.position[:2], pose.yaw, ctx, times01).data[:, 0]


# --- positional encoding ---

def test_encoding_of_zero_alternates():
    enc = positional_encoding(np.array([0.0]))
    assert enc.shape == (20,)
    assert np.array_equal(enc, np.tile([0.0, 1.0], 10))


def test_encoding_of_one_level_one():
    enc = positional_encoding(np.array([1.0]))
    assert abs(enc[0]) < 1e-12  # sin(pi), the first level
    assert enc[1] == pytest.approx(-1.0)  # cos(pi)


def test_encoding_width_for_two_vector():
    assert positional_encoding(np.array([0.3, 0.7])).shape == (40,)


# --- direction transform ---

def test_direction_at_zero():
    assert np.allclose(transform_direction(0.0), [0.0, 1.0], atol=1e-12)


def test_direction_at_quarter_turn():
    assert np.allclose(transform_direction(np.pi / 2), [1.0, 0.0], atol=1e-12)


def test_direction_periodic():
    a = transform_direction(1.234)
    b = transform_direction(1.234 + 2 * np.pi)
    assert np.max(np.abs(a - b)) < 1e-12


def test_direction_infinite_rejected():
    with pytest.raises(ContractViolation):
        transform_direction(np.inf)


# --- mask queries ---

def test_zero_network_masks():
    net = zeroed(MaskNetwork(mode="binaural", rng=np.random.default_rng(0)))
    pose = Pose.from_yaw([0.5, 0.5, 0.0], 0.2)
    masks = masks_of(net, pose, Tensor(np.zeros((1, 128))))
    assert np.allclose(masks.mixture, 1.0, atol=1e-15)
    assert np.allclose(masks.difference, 0.0, atol=1e-15)


def test_mask_lengths():
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(1))
    pose = Pose.from_yaw([0.2, 0.8, 0.0], -0.4)
    rng = np.random.default_rng(2)
    masks = masks_of(net, pose, random_context(rng))
    assert masks.mixture.shape == (N_BINS,)
    assert masks.difference.shape == (N_BINS,)


def test_mixture_ignores_yaw():
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    ctx = random_context(rng)
    m_pos = masks_of(net, Pose.from_yaw([0.4, 0.6, 0.0], 0.9), ctx)
    m_neg = masks_of(net, Pose.from_yaw([0.4, 0.6, 0.0], -0.9), ctx)
    assert np.array_equal(m_pos.mixture, m_neg.mixture)
    assert not np.array_equal(m_pos.difference, m_neg.difference)


def test_mask_ranges_on_random_inputs():
    # hard fuzzing can saturate the sigmoids to the float endpoints, so the
    # guaranteed range is the closed interval; moderate weights stay interior
    rng = np.random.default_rng(5)
    for seed in range(3):
        net = MaskNetwork(mode="binaural", rng=np.random.default_rng(seed))
        for p in net.params():
            p.data = p.data * 10.0
        pose = Pose.from_yaw(rng.uniform(0, 1, 3), rng.uniform(-6, 6))
        masks = masks_of(net, pose, Tensor(rng.standard_normal((1, 128)) * 5))
        assert np.all(masks.mixture >= 0.0) and np.all(masks.mixture <= 2.0)
        assert np.all(masks.difference >= -1.0) and np.all(masks.difference <= 1.0)
    for seed in range(3):
        net = MaskNetwork(mode="binaural", rng=np.random.default_rng(10 + seed))
        pose = Pose.from_yaw(rng.uniform(0, 1, 3), rng.uniform(-6, 6))
        masks = masks_of(net, pose, Tensor(rng.standard_normal((1, 128))))
        assert np.all(masks.mixture > 0.0) and np.all(masks.mixture < 2.0)
        assert np.all(np.abs(masks.difference) < 1.0)


def test_mirror_yaw_probes_differ_at_hard_left_right():
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(6))
    # the difference head initializes near zero; scale it to trained-like
    # magnitude so distinguishability is measured at a meaningful level
    net.m4[0].data = net.m4[0].data * 1e3
    rng = np.random.default_rng(7)
    ctx = random_context(rng)
    left = masks_of(net, Pose.from_yaw([0.5, 0.5, 0.0], np.pi / 2), ctx)
    right = masks_of(net, Pose.from_yaw([0.5, 0.5, 0.0], -np.pi / 2), ctx)
    assert np.max(np.abs(left.difference - right.difference)) > 1e-3


def test_context_width_checked():
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(8))
    pose = Pose.from_yaw([0.1, 0.1, 0.0], 0.0)
    with pytest.raises(ContractViolation):
        masks_of(net, pose, Tensor(np.zeros((1, 64))))


# --- binauralize ---

def make_masks(mixture, difference):
    return AcousticMasks(mixture=np.full(N_BINS, mixture),
                         difference=np.full(N_BINS, difference))


def test_zero_difference_gives_identical_channels():
    mono = Waveform(np.random.default_rng(9).standard_normal(8000) * 0.3, 22050)
    left, right = binauralize(mono, make_masks(1.3, 0.0))
    assert np.array_equal(left.samples, right.samples)


def test_full_mixture_recovers_mono_magnitudes():
    mono = Waveform(np.random.default_rng(10).standard_normal(8000) * 0.3, 22050)
    left, right = binauralize(mono, make_masks(2.0, 0.0))
    got = stft(left).magnitudes()
    want = stft(mono).magnitudes()
    assert np.max(np.abs(got - want)) < 1e-9


def test_unit_masks_silence_right_channel():
    mono = Waveform(np.random.default_rng(11).standard_normal(8000) * 0.3, 22050)
    left, right = binauralize(mono, make_masks(1.0, 1.0))
    assert right.rms() < 1e-12
    got = stft(left).magnitudes()
    want = stft(mono).magnitudes()
    assert np.max(np.abs(got - want)) < 1e-9


def test_channel_sum_equals_mixture_pre_clamp():
    """With no gain clamped the two channels sum to the mixture-masked mono:
    in time for any masks, and in the STFT for a flat mixture. (A mixture
    that varies over bins makes a spectrogram no signal has, so the STFT of
    its iSTFT is not the spectrogram itself.)"""
    rng = np.random.default_rng(12)
    mono = Waveform(rng.standard_normal(6000) * 0.4, 22050)
    spec = stft(mono)
    varying = AcousticMasks(mixture=rng.uniform(0.5, 1.5, N_BINS),
                            difference=rng.uniform(-0.4, 0.4, N_BINS))
    flat = AcousticMasks(mixture=np.full(N_BINS, 1.2), difference=rng.uniform(-0.4, 0.4, N_BINS))
    for masks in (varying, flat):
        assert np.all(masks.mixture - np.abs(masks.difference) > 0)
        left, right = binauralize(mono, masks)
        mixed = istft(Spectrogram(bins=masks.mixture[:, None] * spec.bins, window=512,
                                  hop=128, sample_rate=22050), length=len(mono))
        assert np.max(np.abs(left.samples + right.samples - mixed.samples)) < 1e-14
    left, right = binauralize(mono, flat)
    channel_sum = stft(left).bins + stft(right).bins
    peak = np.abs(spec.bins).max()
    assert np.max(np.abs(channel_sum - flat.mixture[:, None] * spec.bins)) < 1e-14 * peak


def test_silent_input_renders_silence():
    mono = Waveform(np.zeros(6000), 22050)
    left, right = binauralize(mono, make_masks(1.7, 0.3))
    assert left.rms() == 0.0
    assert right.rms() == 0.0


def test_heavy_negative_clamp_warns_but_renders(caplog):
    mono = Waveform(np.random.default_rng(13).standard_normal(6000) * 0.3, 22050)
    # difference far above mixture drives the right channel negative everywhere
    with caplog.at_level("WARNING", logger="gsaudio.binauralizer"):
        left, right = binauralize(mono, make_masks(0.2, 1.0))
    assert any("clamped" in rec.message for rec in caplog.records)
    # the right gain 0.5 * (0.2 - 1.0) clamps to zero in every bin
    assert right.rms() == 0.0
    assert np.all(np.isfinite(left.samples))
    assert left.rms() > 0.0


def test_mask_size_mismatch_rejected():
    mono = Waveform(np.ones(4000), 22050)
    bad = AcousticMasks(mixture=np.ones(100), difference=np.zeros(100))
    with pytest.raises(ContractViolation):
        binauralize(mono, bad)


def magnitude_phase_binauralize(mono, masks, window=512, hop=128):
    """The magnitude-and-phase formulation: scale |X| per channel, count and
    clamp the negative cells, and restore the mono phase X/|X|. Returns the
    two channels and the clamped cell count."""
    spec = stft(mono, window, hop)
    mags = spec.magnitudes()
    phase = np.where(mags > 0, spec.bins / np.where(mags > 0, mags, 1.0), 1.0)
    s_m = masks.mixture[:, None] * mags
    s_d = masks.difference[:, None] * mags
    channels = (0.5 * (s_m + s_d), 0.5 * (s_m - s_d))
    clamped = sum(np.count_nonzero(c < 0) for c in channels)
    out = [istft(Spectrogram(bins=np.maximum(c, 0.0) * phase, window=window, hop=hop,
                             sample_rate=mono.sample_rate), length=len(mono))
           for c in channels]
    return out[0], out[1], clamped


@pytest.mark.parametrize("length", [1, 127, 128, 129, 22050])
def test_complex_gains_match_magnitude_and_phase(length):
    rng = np.random.default_rng(length)
    mono = Waveform(rng.uniform(-1.0, 1.0, length), 22050)
    masks = AcousticMasks(mixture=rng.uniform(0.0, 2.0, N_BINS),
                          difference=rng.uniform(-1.0, 1.0, N_BINS))
    left, right = binauralize(mono, masks)
    want_left, want_right, _ = magnitude_phase_binauralize(mono, masks)
    assert np.max(np.abs(left.samples - want_left.samples)) <= 1e-14
    assert np.max(np.abs(right.samples - want_right.samples)) <= 1e-14


def test_clamp_count_skips_silent_frames(caplog):
    rng = np.random.default_rng(23)
    samples = rng.standard_normal(22050) * 0.3
    samples[3000:9000] = 0.0
    samples[15000:] = 0.0
    mono = Waveform(samples, 22050)
    masks = AcousticMasks(mixture=rng.uniform(0.0, 0.6, N_BINS),
                          difference=rng.uniform(-1.0, 1.0, N_BINS))
    spec = stft(mono)
    _, _, clamped = magnitude_phase_binauralize(mono, masks)
    negative_gains = np.count_nonzero(masks.mixture + masks.difference < 0) \
        + np.count_nonzero(masks.mixture - masks.difference < 0)
    # silent frames have no magnitude to clamp, so they must not count
    assert clamped < negative_gains * spec.n_frames
    with caplog.at_level("WARNING", logger="gsaudio.binauralizer"):
        binauralize(mono, masks)
    (record,) = [r for r in caplog.records if "clamped" in r.message]
    assert record.args[0] == 100.0 * clamped / (spec.bins.size * 2)


def test_binauralize_peak_memory_below_five_spectrograms():
    rng = np.random.default_rng(24)
    mono = Waveform(rng.uniform(-1.0, 1.0, 22050), 22050)
    masks = AcousticMasks(mixture=rng.uniform(0.5, 1.5, N_BINS),
                          difference=rng.uniform(-0.4, 0.4, N_BINS))
    spec_bytes = stft(mono).bins.nbytes
    binauralize(mono, masks)
    tracemalloc.start()
    try:
        binauralize(mono, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one mono spectrum, the two output channels and per-block arrays
    assert peak < 4.25 * spec_bytes, peak / spec_bytes


@pytest.mark.parametrize("length", [1, 129, 22050, 128 * (2 * FRAME_BLOCK - 1),
                                    128 * (2 * FRAME_BLOCK - 1) + 1, 220500])
def test_binauralize_matches_per_channel_scaled_spectra(length, caplog):
    # the reference scales bin-major bins into a new whole-clip spectrum per
    # channel; the masks give negative gains on over 10 % of the cells, so the
    # clamp and its warning are exercised too
    rng = np.random.default_rng(length + 7)
    mono = Waveform(rng.uniform(-1.0, 1.0, length), 22050)
    masks = AcousticMasks(mixture=rng.uniform(0.0, 1.0, N_BINS),
                          difference=rng.uniform(-1.0, 1.0, N_BINS))
    raw = 0.5 * np.stack([masks.mixture + masks.difference, masks.mixture - masks.difference])
    gains = np.maximum(raw, 0.0)
    bins = np.ascontiguousarray(stft(mono).bins)
    want = [istft(Spectrogram(bins=g[:, None] * bins, window=512, hop=128,
                              sample_rate=22050), length=length).samples.tobytes()
            for g in gains]
    clamped = sum(np.count_nonzero((g[:, None] < 0) & (bins != 0)) for g in raw)
    assert clamped > 0.1 * 2 * bins.size
    with caplog.at_level("WARNING", logger="gsaudio.binauralizer"):
        assert [c.samples.tobytes() for c in binauralize(mono, masks)] == want
    (record,) = [r for r in caplog.records if "clamped" in r.message]
    assert record.args[0] == 100.0 * clamped / (2 * bins.size)


@pytest.mark.parametrize("seconds", [10, 60])
def test_binauralize_peak_memory_below_8_input_sizes(seconds):
    # the mono spectrum, two output channels and per-block arrays: no
    # clip-sized scaled spectrum or frame array
    rng = np.random.default_rng(seconds)
    mono = Waveform(rng.uniform(-1.0, 1.0, 22050 * seconds), 22050)
    masks = AcousticMasks(mixture=rng.uniform(0.5, 1.5, N_BINS),
                          difference=rng.uniform(-0.4, 0.4, N_BINS))
    tracemalloc.start()
    try:
        binauralize(mono, masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * mono.samples.nbytes, peak / mono.samples.nbytes


# --- differentiability ---

def test_masks_differentiable_in_weights_and_context():
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(13))
    # trained-like head scale; the near-zero init leaves difference-path
    # gradients at float roundoff magnitude where central differences degrade
    net.m4[0].data = net.m4[0].data * 1e3
    rng = np.random.default_rng(14)
    mono_mag = rng.uniform(0, 1, (N_BINS, 11))
    gt = rng.uniform(0, 1, (N_BINS, 11))
    xy01 = np.array([0.3, 0.6])

    def loss_from(tape, context):
        mixture, difference = net.mask_tensors(tape, xy01, 0.7, context, N_BINS)
        pred_l = ad.scale(tape, ad.add(tape, ad.mul(tape, mixture, Tensor(mono_mag)),
                                       ad.mul(tape, difference, Tensor(mono_mag))), 0.5)
        return ad.mse(tape, pred_l, Tensor(gt))

    err = finite_difference_check(lambda t, c: loss_from(t, c),
                                  rng.standard_normal((1, 128)) * 0.3, step=1e-5)
    assert err < 1e-4

    # spot-check weight gradients against central differences on a few
    # sampled coordinates (the full matrices would need 10^4+ forward passes)
    ctx0 = rng.standard_normal((1, 128)) * 0.3
    tape = Tape()
    out = loss_from(tape, Tensor(ctx0))
    grads = tape.backward(out)
    step = 1e-5
    for weight in (net.l2[0], net.m3[0], net.mix_proj[0]):
        g = grads[weight]
        flat = weight.data.ravel()
        for idx in rng.choice(flat.size, size=4, replace=False):
            keep = flat[idx]
            flat[idx] = keep + step
            hi = float(loss_from(Tape(), Tensor(ctx0)).data)
            flat[idx] = keep - step
            lo = float(loss_from(Tape(), Tensor(ctx0)).data)
            flat[idx] = keep
            fd = (hi - lo) / (2 * step)
            analytic = g.ravel()[idx]
            denom = max(abs(analytic), abs(fd), 1e-12)
            assert abs(analytic - fd) / denom < 1e-4


# --- impulse-response head ---

def test_zero_network_rir_is_silent():
    net = zeroed(MaskNetwork(mode="rir", rng=np.random.default_rng(15)))
    pose = Pose.from_yaw([0.5, 0.5, 0.0], 0.0)
    ir = ir_of(net, pose, Tensor(np.zeros((1, 128))), 500)
    assert np.array_equal(ir, np.zeros(500))


def test_rir_length():
    net = MaskNetwork(mode="rir", rng=np.random.default_rng(16))
    pose = Pose.from_yaw([0.5, 0.5, 0.0], 0.0)
    ir = ir_of(net, pose, random_context(np.random.default_rng(17)), 777)
    assert len(ir) == 777


def test_rir_distinguishes_head_orientations():
    net = MaskNetwork(mode="rir", rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    ctx = random_context(rng)
    irs = []
    for deg in (0, 90, 180, 270):
        pose = Pose.from_yaw([0.5, 0.5, 0.0], np.deg2rad(deg))
        irs.append(ir_of(net, pose, ctx, 400))
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.max(np.abs(irs[i] - irs[j])) > 1e-8


def test_rir_mode_rejects_mask_query():
    net = MaskNetwork(mode="rir", rng=np.random.default_rng(20))
    with pytest.raises(ConfigError):
        masks_of(net, Pose.from_yaw([0, 0, 0], 0.0), Tensor(np.zeros((1, 128))))


def test_bad_mode_rejected():
    with pytest.raises(ConfigError):
        MaskNetwork(mode="stereo", rng=np.random.default_rng(0))


# --- position normalization ---

def test_normalize_position_idempotent_for_identical_bounds():
    bounds = (np.zeros(3), np.array([6.0, 4.0, 3.0]))
    xy = normalize_position(np.array([3.0, 1.0, 2.0]), bounds)
    assert np.allclose(xy, [0.5, 0.25])
    again = normalize_position(np.array([3.0, 1.0, 2.0]), bounds)
    assert np.array_equal(xy, again)


def test_mask_checkpoint_round_trip(tmp_path):
    net = MaskNetwork(mode="binaural", rng=np.random.default_rng(21))
    field = FieldNetwork(alpha_dim=52, rng=np.random.default_rng(21))
    back = SceneModel.load(save_model_around(tmp_path, field, net)).masknet
    assert back.mode == "binaural"
    pose = Pose.from_yaw([0.4, 0.4, 0.0], 1.1)
    ctx = random_context(np.random.default_rng(22))
    a = masks_of(net, pose, ctx)
    b = masks_of(back, pose, ctx)
    assert np.array_equal(a.mixture, b.mixture)
    assert np.array_equal(a.difference, b.difference)


def test_partial_mask_checkpoint_rejected(tmp_path):
    save_model_around(tmp_path, FieldNetwork(alpha_dim=52, rng=np.random.default_rng(23)),
                      MaskNetwork(mode="binaural", rng=np.random.default_rng(23)))
    rewrite_model_bin(tmp_path, lambda named: named[:-1])
    with pytest.raises(ContractViolation, match="tensors"):
        SceneModel.load(tmp_path)
