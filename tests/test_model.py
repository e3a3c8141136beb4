import numpy as np
import pytest

from gsaudio import scene
from gsaudio.binauralizer import MaskNetwork
from gsaudio.dsp import Waveform
from gsaudio.errors import ConfigError
from gsaudio.field import FieldNetwork
from gsaudio.model import SceneModel
from gsaudio.scene import AudioPointSet, Pose, synthetic_cloud, init_audio_points


def make_model(mode="binaural", seed=0, n_points=64):
    rng = np.random.default_rng(seed)
    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], n_points, rng)
    points = init_audio_points(cloud)
    return SceneModel(
        points=points,
        field=FieldNetwork(alpha_dim=52, rng=rng, seed=seed),
        masknet=MaskNetwork(mode=mode, rng=rng, seed=seed),
        source=np.array([1.8, 2.0, 1.5]),
        bounds=(np.zeros(3), np.array([6.0, 4.0, 3.0])),
        seed=seed,
    )


def test_checkpoint_round_trip_renders_identically(tmp_path):
    model = make_model(seed=1)
    model.save(tmp_path / "ckpt")
    back = SceneModel.load(tmp_path / "ckpt")
    pose = Pose.from_yaw([4.0, 2.0, 1.5], 2.0)
    mono = Waveform(np.random.default_rng(2).standard_normal(8000) * 0.3, 22050)
    l1, r1 = model.render(pose, mono)
    l2, r2 = back.render(pose, mono)
    assert np.array_equal(l1.samples, l2.samples)
    assert np.array_equal(r1.samples, r2.samples)
    assert back.point_count == model.point_count
    assert back.mode == "binaural"


def test_alpha_width_must_match_field(tmp_path):
    rng = np.random.default_rng(3)
    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], 16, rng)
    points = init_audio_points(cloud, ("O",))  # width 1
    with pytest.raises(ConfigError):
        SceneModel(points=points, field=FieldNetwork(alpha_dim=52, seed=0),
                   masknet=MaskNetwork(mode="binaural", seed=0),
                   source=np.zeros(3), bounds=(np.zeros(3), np.ones(3)))


def test_add_and_keep_points_track_optimizer_state():
    model = make_model(seed=4, n_points=10)
    alphas = model.alphas
    model.add_points(np.array([[1.0, 1.0, 1.0]]), np.full((1, 52), 0.5))
    assert model.point_count == 11
    assert model.alphas.shape == (11, 52)
    assert np.all(model.alphas.data[-1] == 0.5)
    keep = np.array([0, 3, 4, 7, 10])
    before = model.alphas.data.copy()
    model.keep_points(keep)
    assert model.point_count == 5
    assert model.alphas.shape == (5, 52)
    assert np.array_equal(model.alphas.data, before[keep])
    # the same parameter tensor throughout, so an optimizer holding it follows
    assert model.alphas is alphas


def test_render_rejects_rir_mode():
    model = make_model(mode="rir", seed=5)
    mono = Waveform(np.zeros(4000) + 0.1, 22050)
    with pytest.raises(ConfigError):
        model.render(Pose.from_yaw([1, 1, 1], 0.0), mono)
    ir = model.predict_ir(Pose.from_yaw([1, 1, 1], 0.0), 500)
    assert len(ir.samples) == 500
    assert ir.sample_rate == model.sample_rate


def test_predict_ir_rejects_binaural_mode():
    model = make_model(mode="binaural", seed=6)
    with pytest.raises(ConfigError):
        model.predict_ir(Pose.from_yaw([1, 1, 1], 0.0), 100)


def test_point_set_round_trips_alpha():
    model = make_model(seed=7, n_points=12)
    pts = model.point_set()
    assert isinstance(pts, AudioPointSet)
    assert np.array_equal(pts.alpha, model.alphas.data)
    assert np.array_equal(pts.positions, model.positions)


def test_failed_points_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = make_model(seed=8, n_points=20)
    model.save(tmp_path / "ckpt")
    model.add_points(np.array([[1.0, 1.0, 1.0]]), np.zeros((1, 52)))
    real_open = open

    class FailingWrite:
        """Writes half of the first buffer, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(scene, "open", lambda *a, **k: FailingWrite(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        model.save(tmp_path / "ckpt")
    monkeypatch.undo()
    back = SceneModel.load(tmp_path / "ckpt")
    assert back.point_count == 20
