"""Weight file format, used for a checkpoint's model.bin: one JSON header
line (the caller's fields plus each tensor's name, shape and dtype, ``<f8``
or ``<i8``) followed by the raw little-endian buffer, tensors in header
order. Writes go through a temp file and one atomic rename. A model file
holds the point positions and alphas, the network tensors, then any train
state; the networks' topology is fixed by their module constants, so
``set_weights`` rejects network tensors that do not match the parameters in
count and shape."""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import ContractViolation, DataError

MAGIC = "gsaudio-weights"
FORMAT_VERSION = 2
DTYPES = ("<f8", "<i8")


def save_weights(path, header: dict, named_arrays):
    """``named_arrays`` is a list of (name, array) pairs; order is preserved.
    Integer arrays are stored as int64, all others as float64. If the write
    or the rename fails, the temp file is removed and the error re-raised."""
    named = [(name, np.ascontiguousarray(arr, "<i8" if arr.dtype.kind in "iu" else "<f8"))
             for name, arr in named_arrays]
    header = dict(header)
    header["magic"] = MAGIC
    header["format"] = FORMAT_VERSION
    header["tensors"] = [{"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
                         for name, arr in named]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
            fh.write(b"\n")
            for _, arr in named:
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        # the previous file at ``path`` is intact; leave no partial temp file beside it
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_weights(path, leading=None):
    """Returns (header dict, list of arrays in header order). With
    ``leading``, a function of the header, only the first ``leading(header)``
    tensors are read and the rest of the file is not."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: bad checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise DataError(f"{path}: not a weight checkpoint")
        if header.get("format") != FORMAT_VERSION:
            raise DataError(f"{path}: format {header.get('format')} weight file; "
                            f"this version reads format {FORMAT_VERSION} only")
        specs = header.get("tensors")
        if not isinstance(specs, list):
            raise DataError(f"{path}: checkpoint header has no tensor list")
        for spec in specs:
            if not (isinstance(spec, dict) and {"name", "shape", "dtype"} <= spec.keys()):
                raise DataError(f"{path}: tensor spec {spec!r} lacks a name, shape or dtype")
        if leading is not None:
            specs = specs[:leading(header)]
        arrays = []
        for spec in specs:
            if spec["dtype"] not in DTYPES:
                raise DataError(f"{path}: tensor {spec['name']} has dtype {spec['dtype']}")
            arr = np.empty(spec["shape"], dtype=spec["dtype"])
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


class _SkipInit:
    """Stands in for the ``np.random.Generator`` of a network constructor
    whose parameters ``set_weights`` replaces: each draw is zeros of the
    asked shape, so the network gets its parameters' shapes and names and no
    random number is drawn (``torch.nn.utils.skip_init`` does the same)."""

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape)


SKIP_INIT = _SkipInit()
