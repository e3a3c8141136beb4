"""Optimizer/statistics/RNG snapshot stored alongside a checkpoint so a
training run can resume and reproduce the continuation bit for bit. It
records the CRC-32 of the model.bin saved just before it, and a train state
whose model.bin has changed since is refused."""

from __future__ import annotations

import json
import os
import zipfile
import zlib

import numpy as np

from .errors import DataError
from .model import MODEL_NAME

STATE_NAME = "train_state.npz"


def _model_crc32(directory):
    crc = 0
    with open(os.path.join(directory, MODEL_NAME), "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):  # no whole-file copy
            crc = zlib.crc32(block, crc)
    return crc


def save_train_state(directory, trainer):
    """Call after ``SceneModel.save`` to the same directory."""
    [(alpha_m, alpha_v, alpha_t)] = trainer.opt_alpha.state_arrays()
    net_states = trainer.opt_nets.state_arrays()
    payload = {
        "iteration": np.array(trainer.iteration, dtype=np.int64),
        "model_crc32": np.array(_model_crc32(directory), dtype=np.int64),
        "best_value": np.array(trainer.best_value, dtype=np.float64),
        "rng_state": np.array(json.dumps(trainer.rng.bit_generator.state)),
        "grad_sum": trainer.stats.grad_sum,
        "grad_counts": trainer.stats.counts,
        "alpha_m": alpha_m,
        "alpha_v": alpha_v,
        "alpha_t": alpha_t,
        # a network parameter is always stepped whole: its rows share one count
        "net_t": np.array([t[0] for _, _, t in net_states], dtype=np.int64),
    }
    for i, (m, v, _) in enumerate(net_states):
        payload[f"net_m_{i}"] = m
        payload[f"net_v_{i}"] = v
    tmp = os.path.join(directory, STATE_NAME + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **payload)
    os.replace(tmp, os.path.join(directory, STATE_NAME))


def load_train_state(directory, trainer):
    path = os.path.join(directory, STATE_NAME)
    if not os.path.exists(path):
        raise DataError(f"{directory}: checkpoint has no {STATE_NAME}; cannot resume")
    try:
        with np.load(path, allow_pickle=False) as npz:
            data = dict(npz)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise DataError(f"{path}: unreadable train state: {exc}") from exc
    if data.get("model_crc32") != _model_crc32(directory):
        raise DataError(f"{path} was not saved with {os.path.join(directory, MODEL_NAME)}; "
                        "they come from different saves")
    trainer.iteration = int(data["iteration"])
    trainer.best_value = float(data["best_value"])
    trainer.rng.bit_generator.state = json.loads(str(data["rng_state"]))
    trainer.stats.grad_sum = data["grad_sum"]
    trainer.stats.counts = data["grad_counts"]
    trainer.opt_alpha.load_state_arrays([(data["alpha_m"], data["alpha_v"], data["alpha_t"])])
    net_states = []
    for i, t in enumerate(data["net_t"]):
        m = data[f"net_m_{i}"]
        net_states.append((m, data[f"net_v_{i}"], np.full(len(m), t)))
    trainer.opt_nets.load_state_arrays(net_states)
