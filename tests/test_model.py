import numpy as np
import pytest

from gsaudio import binauralizer as binauralizer_module
from gsaudio import field as field_module
from gsaudio import checkpoint
from gsaudio.autodiff import Tape
from gsaudio.binauralizer import MaskNetwork, binauralize
from gsaudio.checkpoint import load_weights, save_weights
from gsaudio.cli import build_model, load_run_config, train_config_from
from gsaudio.dataset import Dataset, synth_dataset
from gsaudio.dsp import Waveform
from gsaudio.errors import ConfigError, DataError
from gsaudio.field import FieldNetwork, pooled_context
from gsaudio.model import SceneModel
from gsaudio.roomsim import ShoeboxRoom
from gsaudio.scene import Pose, synthetic_cloud, init_audio_points
from gsaudio.training import Trainer

from conftest import FailingWrite


def make_model(mode="binaural", seed=0, n_points=64):
    rng = np.random.default_rng(seed)
    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], n_points, rng)
    points = init_audio_points(cloud)
    return SceneModel(
        points=points,
        field=FieldNetwork(alpha_dim=52, rng=rng),
        masknet=MaskNetwork(mode=mode, rng=rng),
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


@pytest.mark.parametrize("mode", ["binaural", "rir"])
def test_save_load_save_is_byte_identical(tmp_path, mode):
    make_model(mode=mode, seed=6).save(tmp_path / "a")
    SceneModel.load(tmp_path / "a").save(tmp_path / "b")
    a, b = (tmp_path / side / "model.bin" for side in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()


def test_model_file_leads_with_the_points(tmp_path):
    model = make_model(seed=7, n_points=20)
    model.save(tmp_path)
    header, arrays = load_weights(tmp_path / "model.bin")
    assert [t["name"] for t in header["tensors"][:2]] == ["positions", "alphas"]
    assert np.array_equal(arrays[0], model.positions)
    assert np.array_equal(arrays[1], model.alphas.data)
    assert len(arrays) == 2 + len(model.network_params())
    assert "point_count" not in header


@pytest.mark.parametrize("mode", ["binaural", "rir"])
def test_load_draws_no_random_numbers(tmp_path, monkeypatch, mode):
    model = make_model(mode=mode, seed=3, n_points=20)
    model.save(tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("SceneModel.load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    back = SceneModel.load(tmp_path)
    for p, q in zip(model.network_params(), back.network_params(), strict=True):
        assert p.name == q.name and p.data.tobytes() == q.data.tobytes()


def test_schema_2_model_file_is_refused(tmp_path):
    # the layout before the points moved into model.bin: networks only
    make_model(seed=7, n_points=20).save(tmp_path)
    header, arrays = load_weights(tmp_path / "model.bin")
    header.update(schema_version=2, point_count=20)
    save_weights(tmp_path / "model.bin", header,
                 [(t["name"], a) for t, a in zip(header["tensors"][2:], arrays[2:])])
    with pytest.raises(DataError, match="schema 2 model file"):
        SceneModel.load(tmp_path)


def test_render_runs_one_stft_and_two_istfts(monkeypatch):
    # the traced benchmark wraps these two module globals and checks
    # dsp.istft calls == 2 x renders
    calls = {"stft": 0, "istft": 0}

    def counted(name):
        inner = getattr(binauralizer_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(binauralizer_module, name, counted(name))
    mono = Waveform(np.random.default_rng(5).standard_normal(4000) * 0.3, 22050)
    make_model(seed=2).render(Pose.from_yaw([4.0, 2.0, 1.5], 0.5), mono)
    assert calls == {"stft": 1, "istft": 2}


def test_alpha_width_must_match_field(tmp_path):
    rng = np.random.default_rng(3)
    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], 16, rng)
    points = init_audio_points(cloud, ("O",))  # width 1
    with pytest.raises(ConfigError):
        SceneModel(points=points, field=FieldNetwork(alpha_dim=52, rng=np.random.default_rng(0)),
                   masknet=MaskNetwork(mode="binaural", rng=np.random.default_rng(0)),
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


def test_failed_points_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = make_model(seed=8, n_points=20)
    model.save(tmp_path / "ckpt")
    model.add_points(np.array([[1.0, 1.0, 1.0]]), np.zeros((1, 52)))
    real_open = open
    monkeypatch.setattr(checkpoint, "open", lambda *a, **k: FailingWrite(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        model.save(tmp_path / "ckpt")
    monkeypatch.undo()
    back = SceneModel.load(tmp_path / "ckpt")
    assert back.point_count == 20


# --- the cached source half of the context ---

def poses(count, seed=11):
    rng = np.random.default_rng(seed)
    return [Pose.from_yaw(rng.uniform([0.3, 0.3, 0.5], [5.7, 3.7, 2.5]), rng.uniform(-3, 3))
            for _ in range(count)]


def uncached_context(model, pose):
    return pooled_context(None, model.field, model.positions, model.alphas, pose,
                          model.source, model.percentile)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_context_uncached(model, pose):
    """The next tape-free context equals one computed without the cache, bit
    for bit, indices included; returns it."""
    got = model.context(None, pose)
    want = uncached_context(model, pose)
    assert same_bits(got.tensor.data, want.tensor.data)
    assert np.array_equal(got.source_indices, want.source_indices)
    assert np.array_equal(got.listener_indices, want.listener_indices)
    return got


def vicinity_rows(model):
    return int(np.ceil(model.percentile / 100.0 * model.point_count))


@pytest.mark.parametrize("n_points", [6, 8, 512, 4096, 32768])
def test_cached_context_and_render_bit_equal_to_uncached(n_points):
    # vicinities of 1, 2, 77, 615 and 4916 rows; from the second context on,
    # every tape-free one holds the cached alpha projection, and all but the
    # one-row vicinity read it
    model = make_model(seed=12, n_points=n_points)
    mono = Waveform(np.random.default_rng(13).standard_normal(4000) * 0.3, 22050)
    for pose in poses(12):
        got = assert_context_uncached(model, pose)
        assert got.listener_indices.size == vicinity_rows(model) == got.source_indices.size
        assert same_bits(model.context(Tape(), pose).tensor.data, got.tensor.data)
        left, right = model.render(pose, mono)
        masks = model.masks(pose, context=uncached_context(model, pose))
        want_left, want_right = binauralize(mono, masks, model.window, model.hop)
        assert same_bits(left.samples, want_left.samples)
        assert same_bits(right.samples, want_right.samples)
    assert model._projection is not None


def test_second_context_runs_one_vicinity_and_one_field_pass(monkeypatch):
    model = make_model(seed=14, n_points=256)
    calls = {"vicinity": 0, "forward": 0}
    vicinity, forward = field_module.vicinity, FieldNetwork.forward

    def counting_vicinity(*args):
        calls["vicinity"] += 1
        return vicinity(*args)

    def counting_forward(*args, **kwargs):
        calls["forward"] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(field_module, "vicinity", counting_vicinity)
    monkeypatch.setattr(FieldNetwork, "forward", counting_forward)
    first, second = poses(2)
    model.context(None, first)
    assert calls == {"vicinity": 2, "forward": 2}
    model.context(None, second)
    assert calls == {"vicinity": 3, "forward": 3}
    model.context(Tape(), second)  # a tape computes both halves
    assert calls == {"vicinity": 5, "forward": 5}


def test_cached_source_indices_are_read_only():
    model = make_model(seed=15, n_points=128)
    pose = poses(1)[0]
    ctx = model.context(None, pose)
    with pytest.raises(ValueError):
        ctx.source_indices[0] = ctx.source_indices[1]
    assert_context_uncached(model, pose)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "data"
    synth_dataset(root, ShoeboxRoom([6.0, 4.0, 3.0], 0.7), n_samples=12, seed=3)
    return Dataset.load(root)


def make_trainer(dataset, seed=16):
    cfg = load_run_config(None, {"seed": seed, "init_points": 256})
    tcfg = train_config_from(cfg, iterations=10)
    return Trainer(build_model(dataset, cfg), dataset, tcfg)


def warm_context(model, pose):
    """Two checked tape-free contexts of ``pose``, the second read through
    the alpha projection built for the model as it stands; returns the
    context and that projection."""
    assert_context_uncached(model, pose)
    ctx = assert_context_uncached(model, pose)
    projection = model._projection
    assert projection is not None
    assert same_bits(projection, model.field.project(model.alphas.data))
    return ctx, projection


def assert_both_halves_changed(before, after):
    for half in (slice(0, 64), slice(64, 128)):
        assert not same_bits(after.tensor.data[:, half], before.tensor.data[:, half])


def test_train_step_invalidates_the_cached_source_half(small_dataset):
    trainer = make_trainer(small_dataset)
    pose = poses(1)[0]
    before, old = warm_context(trainer.model, pose)
    trainer.train_step(trainer._train_cache[0])  # Adam writes alphas and weights in place
    after, new = warm_context(trainer.model, pose)
    assert new is not old
    assert_both_halves_changed(before, after)


def test_densify_invalidates_the_cached_source_half(small_dataset):
    trainer = make_trainer(small_dataset)
    pose = poses(1)[0]
    before, old = warm_context(trainer.model, pose)
    trainer.stats.counts[:] = 1
    trainer.stats.grad_sum[before.source_indices] = 1.0
    assert trainer.densify() == before.source_indices.size
    after, new = warm_context(trainer.model, pose)
    assert new is not old and new.shape[0] == old.shape[0] + before.source_indices.size
    assert not np.array_equal(after.source_indices, before.source_indices)
    assert not np.array_equal(after.listener_indices, before.listener_indices)
    assert not same_bits(after.tensor.data[:, 64:], before.tensor.data[:, 64:])


def test_keep_points_invalidates_the_cached_source_half():
    model = make_model(seed=17, n_points=300)
    pose = poses(1)[0]
    before, old = warm_context(model, pose)
    model.keep_points(np.setdiff1d(np.arange(300), before.source_indices[::2]))
    after, new = warm_context(model, pose)
    assert new is not old and new.shape[0] == model.point_count < old.shape[0]
    assert_both_halves_changed(before, after)


def test_reassigned_field_weight_invalidates_the_cached_source_half():
    model = make_model(seed=18, n_points=300)
    pose = poses(1)[0]
    before, old = warm_context(model, pose)
    model.field.w1.data = model.field.w1.data * 1.5
    after, new = warm_context(model, pose)
    assert new is not old
    assert_both_halves_changed(before, after)


def test_projection_is_built_on_the_second_use_of_an_unchanged_model(small_dataset, monkeypatch):
    builds = []
    project = FieldNetwork.project

    def counting_project(self, alphas):
        builds.append(alphas.shape[0])
        return project(self, alphas)

    monkeypatch.setattr(FieldNetwork, "project", counting_project)
    trainer = make_trainer(small_dataset)
    model = trainer.model
    first, second = poses(2)
    mono = Waveform(np.random.default_rng(21).standard_normal(4000) * 0.3, 22050)
    model.render(first, mono)
    assert builds == []  # a one-shot render pays for no N-row product
    model.render(second, mono)
    model.render(first, mono)
    assert builds == [model.point_count]
    trainer.train_step(trainer._train_cache[0])
    model.render(first, mono)
    assert len(builds) == 1
    model.render(second, mono)
    model.render(first, mono)
    assert builds == [model.point_count] * 2


def test_tape_context_after_a_cached_render_reaches_the_source_rows():
    model = make_model(seed=19, n_points=300)
    pose = poses(1)[0]
    mono = Waveform(np.random.default_rng(20).standard_normal(4000) * 0.3, 22050)
    model.render(pose, mono)
    tape = Tape()
    ctx = model.context(tape, pose)
    assert ctx.source_indices.flags.writeable  # fresh, not the cached array
    source_only = np.setdiff1d(ctx.source_indices, ctx.listener_indices)
    assert source_only.size > 0
    grads = tape.backward(ctx.tensor)
    assert np.all(np.any(grads[model.alphas].dense()[source_only] != 0.0, axis=1))
