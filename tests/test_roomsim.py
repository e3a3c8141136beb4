import numpy as np
import pytest

from gsaudio.dsp import Waveform
from gsaudio.errors import ConfigError, GeometryError
from gsaudio.irmetrics import estimate_t60
from gsaudio.roomsim import (ShoeboxRoom, binaural_render, ear_positions,
                             head_shadow_gains, image_source_rir, image_sources)
from gsaudio.scene import Pose

SR = 22050
FREE = ShoeboxRoom([20.0, 20.0, 20.0], 1.0)  # fully absorptive walls


def lattice_count(order):
    """Closed-form number of image sources with at most ``order`` reflections
    in a shoebox: per axis, r reflections contribute r+1 lattice entries."""
    count = 0
    for nx in range(order + 1):
        for ny in range(order + 1 - nx):
            for nz in range(order + 1 - nx - ny):
                per_axis = lambda r: 1 if r == 0 else 2
                count += per_axis(nx) * per_axis(ny) * per_axis(nz)
    return count


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_image_count_matches_lattice_formula(order):
    room = ShoeboxRoom([6.0, 4.0, 3.0], 0.3)
    positions, factors = image_sources(room, [1.5, 2.0, 1.5], order)
    assert len(positions) == lattice_count(order)


def test_order_zero_is_single_source():
    positions, factors = image_sources(ShoeboxRoom([4, 4, 4], 0.5), [1, 2, 3], 0)
    assert positions.shape == (1, 3)
    assert np.allclose(positions[0], [1, 2, 3])
    assert factors[0] == 1.0


def test_order_one_has_seven_arrivals():
    positions, _ = image_sources(ShoeboxRoom([6.0, 4.0, 3.0], 0.3), [1.5, 2.0, 1.5], 1)
    assert len(positions) == 7


def test_direct_path_timing_and_amplitude():
    src = np.array([5.0, 5.0, 5.0])
    # integer-sample delay: d = c * k / sr
    d = 343.0 * 221 / SR
    ir = image_source_rir(FREE, src, src + [d, 0, 0], 0, SR, 0.1)
    peak = int(np.argmax(np.abs(ir.samples)))
    assert peak == 221
    assert ir.samples[peak] == pytest.approx(1.0 / d, rel=1e-9)


def test_direct_path_fractional_delay_energy():
    src = np.array([5.0, 5.0, 5.0])
    ir = image_source_rir(FREE, src, src + [3.43, 0, 0], 0, SR, 0.1)
    peak = int(np.argmax(np.abs(ir.samples)))
    assert abs(peak - 0.01 * SR) <= 1  # 10 ms within one sample
    # windowed sinc preserves the impulse energy to within the taper loss
    assert np.sum(ir.samples**2) == pytest.approx((1 / 3.43) ** 2, rel=0.02)


def test_fully_absorptive_walls_reduce_to_direct_path():
    room = ShoeboxRoom([6.0, 4.0, 3.0], 1.0)
    a = image_source_rir(room, [1.5, 2.0, 1.5], [4.0, 2.0, 1.5], 0, SR, 0.2)
    b = image_source_rir(room, [1.5, 2.0, 1.5], [4.0, 2.0, 1.5], 5, SR, 0.2)
    assert np.array_equal(a.samples, b.samples)


def test_energy_monotone_in_absorption():
    energies = []
    for absorb in (0.1, 0.3, 0.5, 0.7, 0.9):
        room = ShoeboxRoom([6.0, 4.0, 3.0], absorb)
        ir = image_source_rir(room, [1.5, 2.0, 1.5], [4.0, 2.5, 1.6], 4, SR, 0.4)
        energies.append(ir.energy())
    assert all(energies[i] > energies[i + 1] for i in range(len(energies) - 1))


def test_t60_rank_correlates_with_absorption():
    # the sweep stays where order-12 reflections can reach the -25 dB range:
    # at absorption a each bounce loses 10*log10(1-a) dB, so low absorptions
    # would need dozens of reflection orders to expose their true decay
    t60s = []
    for absorb in (0.4, 0.5, 0.6, 0.7, 0.8):
        room = ShoeboxRoom([6.0, 4.0, 3.0], absorb)
        ir = image_source_rir(room, [1.5, 2.0, 1.5], [4.0, 2.5, 1.6], 12, SR, 0.5)
        t60s.append(estimate_t60(ir))
    # less absorption, longer decay, strictly
    assert all(t60s[i] > t60s[i + 1] for i in range(len(t60s) - 1))


def test_arrival_time_matches_distance():
    src = np.array([2.0, 2.0, 1.5])
    rcv = np.array([4.5, 3.0, 1.2])
    room = ShoeboxRoom([6.0, 4.0, 3.0], 1.0)
    ir = image_source_rir(room, src, rcv, 0, SR, 0.2)
    expected = np.linalg.norm(rcv - src) / 343.0
    peak = int(np.argmax(np.abs(ir.samples)))
    assert abs(peak / SR - expected) <= 1.0 / SR


def test_positions_outside_room_rejected():
    room = ShoeboxRoom([6.0, 4.0, 3.0], 0.3)
    with pytest.raises(GeometryError):
        image_source_rir(room, [7.0, 2.0, 1.5], [3.0, 2.0, 1.5], 1, SR, 0.1)
    with pytest.raises(GeometryError):
        image_source_rir(room, [3.0, 2.0, 1.5], [3.0, 5.0, 1.5], 1, SR, 0.1)


def test_negative_order_rejected():
    with pytest.raises(ConfigError):
        image_sources(ShoeboxRoom([4, 4, 4], 0.5), [1, 1, 1], -1)


# --- binaural rendering ---

def rng_mono(seed=0, n=SR):
    return Waveform(np.random.default_rng(seed).standard_normal(n) * 0.3, SR)


def test_source_ahead_gives_equal_rms():
    pose = Pose.from_yaw([10.0, 10.0, 5.0], np.pi / 2)
    left, right = binaural_render(FREE, [10.0, 12.0, 5.0], pose, rng_mono(), 0, 0.2)
    assert abs(left.rms() - right.rms()) / max(left.rms(), right.rms()) < 0.01


def test_source_on_left_louder_on_left():
    pose = Pose.from_yaw([10.0, 10.0, 5.0], np.pi / 2)  # facing +y: left is -x
    left, right = binaural_render(FREE, [8.0, 10.0, 5.0], pose, rng_mono(1), 0, 0.2)
    assert left.rms() > right.rms()


def test_doubling_distance_halves_rms():
    mono = rng_mono(2)
    near = Pose.from_yaw([10.0, 11.0, 5.0], np.pi / 2)
    far = Pose.from_yaw([10.0, 12.0, 5.0], np.pi / 2)
    src = [10.0, 10.0, 5.0]
    l1, _ = binaural_render(FREE, src, near, mono, 0, 0.2)
    l2, _ = binaural_render(FREE, src, far, mono, 0, 0.2)
    assert l2.rms() / l1.rms() == pytest.approx(0.5, abs=0.01)


def test_ear_geometry():
    pose = Pose.from_yaw([1.0, 1.0, 1.5], 0.0)  # facing +x: left ear at +y
    left, right = ear_positions(pose)
    assert np.allclose(left, [1.0, 1.0875, 1.5])
    assert np.allclose(right, [1.0, 0.9125, 1.5])


def test_head_shadow_gains_sum_to_two():
    pose = Pose.from_yaw([1.0, 1.0, 1.5], 0.7)
    gl, gr = head_shadow_gains(pose, [3.0, 2.0, 1.5])
    assert gl + gr == pytest.approx(2.0)


def test_render_output_matches_mono_length():
    room = ShoeboxRoom([6.0, 4.0, 3.0], 0.5)
    pose = Pose.from_yaw([4.0, 2.0, 1.5], np.pi)
    mono = rng_mono(3, n=5000)
    left, right = binaural_render(room, [1.5, 2.0, 1.5], pose, mono, 2, 0.3)
    assert len(left) == 5000 and len(right) == 5000

