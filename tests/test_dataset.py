import gc
import json
import os
import tracemalloc

import numpy as np
import pytest

from gsaudio.dataset import Dataset, bandlimit_ir, pink_noise_burst, sine_sweep, synth_dataset
from gsaudio.errors import ConfigError, GeometryError
from gsaudio.roomsim import ShoeboxRoom
from gsaudio.scene import Pose

ROOM = ShoeboxRoom([6.0, 4.0, 3.0], 0.5)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_same_seed_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    synth_dataset(a, ROOM, n_samples=8, seed=42)
    synth_dataset(b, ROOM, n_samples=8, seed=42)
    ta, tb = tree_bytes(a), tree_bytes(b)
    assert ta.keys() == tb.keys()
    for key in ta:
        assert ta[key] == tb[key], key


def test_split_labels_are_80_20(tmp_path):
    manifest = synth_dataset(tmp_path / "d", ROOM, n_samples=100, seed=0)
    splits = [r["split"] for r in manifest["samples"]]
    assert splits.count("train") == 80
    assert splits.count("val") == 20


def test_minimum_sample_count_enforced(tmp_path):
    with pytest.raises(ConfigError):
        synth_dataset(tmp_path / "d", ROOM, n_samples=3)


def test_listeners_inside_room_and_away_from_source(tmp_path):
    manifest = synth_dataset(tmp_path / "d", ROOM, n_samples=12, seed=1)
    margin = 0.0875 + 0.05
    source = np.asarray(manifest["source"])
    for rec in manifest["samples"]:
        pos = np.asarray(rec["listener"])
        assert np.all(pos > margin) and np.all(pos < ROOM.dimensions - margin)
        assert np.linalg.norm(pos - source) >= manifest["min_source_distance"]


def test_room_too_small_rejected(tmp_path):
    with pytest.raises(GeometryError):
        synth_dataset(tmp_path / "d", ShoeboxRoom([0.2, 0.2, 0.2], 0.5), n_samples=5)


def test_layout_and_loading(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=6, seed=2, with_rir=True,
                  ir_duration=0.2)
    ds = Dataset.load(tmp_path / "d")
    assert os.path.exists(tmp_path / "d" / "manifest.json")
    recs = ds.records()
    assert len(recs) == 6
    sample = ds.sample(recs[0])
    assert len(sample.mono) == len(sample.left) == len(sample.right) == 22050
    assert sample.ir_left is not None
    assert len(sample.ir_left.samples) == int(0.2 * 22050)
    assert sample.mono.sample_rate == 22050
    # both splits present even at n=6
    assert ds.records("train") and ds.records("val")


def test_sweep_signal(tmp_path):
    manifest = synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=3, signal="sweep")
    assert manifest["signal"] == "sweep"
    x = sine_sweep(22050, 22050)
    assert np.max(np.abs(x)) <= 0.5 + 1e-12


def test_unknown_signal_rejected(tmp_path):
    with pytest.raises(ConfigError):
        synth_dataset(tmp_path / "d", ROOM, n_samples=5, signal="chirp")


def test_pink_noise_burst_shape():
    x = pink_noise_burst(22050, 22050, np.random.default_rng(0))
    assert x.shape == (22050,)
    assert np.max(np.abs(x)) == pytest.approx(0.5)
    # gated: quiet at the very start
    assert np.max(np.abs(x[:500])) < 0.25


def test_bandlimit_preserves_energy_scale():
    rng = np.random.default_rng(1)
    h = np.zeros(4000)
    h[100] = 1.0
    h[500] = -0.4
    smooth = bandlimit_ir(h, 22050)
    assert np.sum(smooth**2) == pytest.approx(np.sum(h**2), rel=0.05)


def test_manifest_json_is_sorted_and_versioned(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=4)
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["room"]["dimensions"] == [6.0, 4.0, 3.0]


def test_sample_reads_new_waveforms_with_the_records_one_pose(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=5, duration=0.25, with_rir=True,
                  ir_duration=0.1)
    ds = Dataset.load(tmp_path / "d")
    rec = ds.records()[0]
    a, b = ds.sample(rec), ds.sample(rec)
    assert a.pose is b.pose is ds.samples()[0].pose
    expected = Pose.from_yaw(np.asarray(rec["listener"]), rec["yaw"])
    assert np.array_equal(a.pose.position, expected.position)
    assert np.array_equal(a.pose.direction, expected.direction)
    for wa, wb in ((a.mono, b.mono), (a.left, b.left), (a.right, b.right),
                   (a.ir_left, b.ir_left), (a.ir_right, b.ir_right)):
        assert not np.shares_memory(wa.samples, wb.samples)
        assert np.array_equal(wa.samples, wb.samples)


def test_a_dropped_sample_leaves_no_bytes_held(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=5, duration=0.25)
    ds = Dataset.load(tmp_path / "d")
    rec = ds.records()[0]
    waveform_bytes = 3 * 8 * round(0.25 * ds.sample_rate)  # mono, left, right in float64
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            ds.sample(rec)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < waveform_bytes / 100
