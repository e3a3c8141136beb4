"""Weight file format, used for a checkpoint's model.bin: one JSON header
line (the caller's fields plus each tensor's name and shape) followed by the
raw little-endian float64 buffer, tensors in header order. Writes go through
a temp file and an atomic rename. A model file holds the point positions and
alphas, then the network tensors; the networks' topology is fixed by their
module constants, so ``set_weights`` rejects any network tensors that do not
match the parameters in count and shape."""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import ContractViolation, DataError

MAGIC = "gsaudio-weights"
FORMAT_VERSION = 1


def save_weights(path, header: dict, named_arrays):
    """``named_arrays`` is a list of (name, array) pairs; order is preserved."""
    named = [(name, np.ascontiguousarray(arr, dtype="<f8")) for name, arr in named_arrays]
    header = dict(header)
    header["magic"] = MAGIC
    header["format"] = FORMAT_VERSION
    header["tensors"] = [{"name": name, "shape": list(arr.shape)} for name, arr in named]
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in named:
            fh.write(arr.data)
    os.replace(tmp, path)


def load_weights(path):
    """Returns (header dict, list of float64 arrays in header order)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        if header.get("magic") != MAGIC:
            raise DataError(f"{path}: not a weight checkpoint")
        arrays = []
        for spec in header["tensors"]:
            arr = np.empty(spec["shape"], dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:
                raise DataError(f"{path}: truncated weight buffer")
            arrays.append(arr)
    return header, arrays


def set_weights(params, arrays):
    """Give each parameter tensor of ``params`` its array from ``arrays``
    (``load_weights`` order); the two must match in count and shapes."""
    if len(params) != len(arrays):
        raise ContractViolation(
            f"checkpoint holds {len(arrays)} tensors, the networks have {len(params)}")
    for p, arr in zip(params, arrays):
        if p.data.shape != arr.shape:
            raise ContractViolation(f"checkpoint shape mismatch for {p.name}")
        p.data = arr
