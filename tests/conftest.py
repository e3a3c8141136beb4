"""Shared fixtures: the seeded acceptance datasets and trained checkpoints,
built once per session through the CLI (single-threaded, fixed seeds)."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from gsaudio.autodiff import RowSparse
from gsaudio.checkpoint import load_weights, save_weights
from gsaudio.model import MODEL_NAME, SceneModel
from gsaudio.scene import AudioPointSet


def run_cli(args, cwd=None, env_extra=None):
    env = dict(os.environ)
    env.setdefault("GSAUDIO_LOG", "warning")
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "gsaudio"] + [str(a) for a in args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    return proc


def dense_form(grad):
    """A gradient from ``Tape.backward`` as a full array."""
    return grad.dense() if isinstance(grad, RowSparse) else grad


def save_model_around(directory, field, masknet):
    """Save a 16-point ``SceneModel`` holding ``field`` and ``masknet`` to
    ``directory``; returns the directory."""
    rng = np.random.default_rng(12)
    points = AudioPointSet(positions=rng.uniform(0.0, 3.0, (16, 3)),
                           alpha=rng.standard_normal((16, field.alpha_dim)) * 0.1)
    SceneModel(points=points, field=field, masknet=masknet, source=np.full(3, 1.5),
               bounds=(np.zeros(3), np.full(3, 3.0))).save(directory)
    return directory


class FailingWrite:
    """A file that passes its first ``skip`` writes, then writes half of the
    next buffer and fails like a full disk."""

    def __init__(self, fh, skip=0):
        self.fh = fh
        self.skip = skip

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.skip:
            self.skip -= 1
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")


def rewrite_model_bin(directory, edit):
    """Rewrite ``directory``'s model.bin with its own header, its two point
    tensors, and the (name, array) pairs that ``edit`` returns for its
    network tensors."""
    path = os.path.join(directory, MODEL_NAME)
    header, arrays = load_weights(path)
    named = [(t["name"], a) for t, a in zip(header["tensors"], arrays)]
    save_weights(path, header, named[:2] + edit(named[2:]))


@pytest.fixture(scope="session")
def accept_dataset_dir(tmp_path_factory):
    """100-sample binaural shoebox dataset, seed 7."""
    out = tmp_path_factory.mktemp("accept") / "data"
    proc = run_cli(["gen-data", "--out", out, "--n", 100, "--seed", 7,
                    "--absorption", 0.7, "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="session")
def accept_run(accept_dataset_dir, tmp_path_factory):
    """2000-iteration single-threaded training run on the acceptance dataset."""
    root = tmp_path_factory.mktemp("accept_run")
    out = root / "run"
    config = root / "config.json"
    config.write_text(json.dumps({
        "seed": 7,
        "iterations": 2000,
        "eval_interval": 200,
        "densify_interval": 500,
        "densify_threshold": 2e-3,
        "init_points": 512,
    }))
    start = time.perf_counter()
    proc = run_cli(["train", "--config", config, "--dataset", accept_dataset_dir,
                    "--out", out, "--threads", 1])
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    trace = json.loads((out / "loss_trace.json").read_text())
    return {
        "dataset": accept_dataset_dir,
        "out": out,
        "final": out / "final",
        "best": out / "best",
        "metrics": metrics,
        "loss_trace": trace["loss"],
        "point_counts": trace["points"],
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def rir_dataset_dir(tmp_path_factory):
    """60-sample impulse-response dataset: dense reverb (order 10), 0.4 s."""
    out = tmp_path_factory.mktemp("rir") / "data"
    config_path = out.parent / "gen.json"
    config_path.write_text(json.dumps({
        "n_samples": 60,
        "seed": 11,
        "absorption": 0.4,
        "max_order": 10,
        "ir_duration": 0.4,
        "with_rir": True,
    }))
    proc = run_cli(["gen-data", "--config", config_path, "--out", out, "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="session")
def rir_run(rir_dataset_dir, tmp_path_factory):
    """2000-iteration rir-mode training run."""
    root = tmp_path_factory.mktemp("rir_run")
    out = root / "run"
    config = root / "config.json"
    config.write_text(json.dumps({
        "mode": "rir",
        "seed": 11,
        "iterations": 2000,
        "eval_interval": 1000,
        "densify_interval": 0,
        "init_points": 512,
    }))
    proc = run_cli(["train", "--config", config, "--dataset", rir_dataset_dir,
                    "--out", out, "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    metrics = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    return {
        "dataset": rir_dataset_dir,
        "out": out,
        "final": out / "final",
        "metrics": metrics,
    }
