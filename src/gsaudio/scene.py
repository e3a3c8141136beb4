"""Scene ingestion and geometry: Gaussian-splat point clouds, the derived
audio point set, poses, covariance projection, vicinity queries, and
outlier pruning. Vicinity selection and the radius counts behind pruning
are exact queries of the one neighbour module, ``kdtree``.

Point clouds travel as binary little-endian PLY. The Gaussian cloud uses the
de-facto splatting schema (x,y,z; f_dc_0..2; f_rest_0..44; opacity;
scale_0..2; rot_0..3); readers accept float32 or float64 properties and
ignore extras such as normals, writers emit float64 so a save/load round
trip is bit-identical. Audio point sets use x,y,z plus alpha_0..K-1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation, DataError, GeometryError, SchemaError
from .kdtree import count_within, knn

SH_WIDTH = 48
ALPHA_PART_ORDER = ("S", "SH", "R", "O")
ALPHA_PART_WIDTH = {"S": 3, "SH": 48, "R": 4, "O": 1}
DEFAULT_ALPHA_SELECTION = ("SH", "R")


@dataclass
class GaussianCloud:
    positions: np.ndarray  # (N, 3)
    quaternions: np.ndarray  # (N, 4)
    scales: np.ndarray  # (N, 3), log-scale as stored by splatting tools
    opacities: np.ndarray  # (N,), pre-activation
    sh: np.ndarray  # (N, 48)

    def __post_init__(self):
        n = self.positions.shape[0]
        expect = {
            "positions": (n, 3),
            "quaternions": (n, 4),
            "scales": (n, 3),
            "opacities": (n,),
            "sh": (n, SH_WIDTH),
        }
        for name, shape in expect.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ContractViolation(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in {name}")
            setattr(self, name, arr)

    def __len__(self):
        return self.positions.shape[0]


@dataclass
class AudioPointSet:
    positions: np.ndarray  # (N, 3)
    alpha: np.ndarray  # (N, K)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ContractViolation(f"positions must be (N, 3), got {self.positions.shape}")
        if self.alpha.ndim != 2 or self.alpha.shape[0] != self.positions.shape[0]:
            raise ContractViolation("alpha rows must match point count")
        if self.positions.shape[0] < 1:
            raise ContractViolation("audio point set needs at least one point")
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.alpha))):
            raise DataError("non-finite values in audio point set")

    def __len__(self):
        return self.positions.shape[0]

    @property
    def alpha_dim(self):
        return self.alpha.shape[1]


@dataclass
class Pose:
    position: np.ndarray
    direction: np.ndarray
    yaw: float | None = None

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            raise ContractViolation("pose direction must be non-zero")
        self.direction = direction / norm
        if self.yaw is not None:
            self.yaw = float(self.yaw)

    @classmethod
    def from_yaw(cls, position, yaw):
        return cls(position=np.asarray(position, dtype=np.float64),
                   direction=np.array([math.cos(yaw), math.sin(yaw), 0.0]),
                   yaw=float(yaw))

    def heading(self):
        """Yaw angle in radians; derived from the direction when not stored."""
        if self.yaw is not None:
            return self.yaw
        return math.atan2(self.direction[1], self.direction[0])


def quaternion_rotation(q):
    """3x3 rotation matrix from a (w, x, y, z) quaternion (normalized here)."""
    q = np.asarray(q, dtype=np.float64).reshape(4)
    n = float(np.linalg.norm(q))
    if n < 1e-12:
        raise DataError("zero quaternion")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def covariance_from_gaussian(quaternion, log_scale):
    """Sigma = R S S^T R^T with S = diag(exp(log_scale))."""
    rot = quaternion_rotation(quaternion)
    s2 = np.exp(2.0 * np.asarray(log_scale, dtype=np.float64).reshape(3))
    return rot @ np.diag(s2) @ rot.T


def project_covariance(sigma, view, jacobian):
    """Project a 3x3 covariance to the 2x2 screen-space covariance
    J W Sigma W^T J^T."""
    sigma = np.asarray(sigma, dtype=np.float64)
    view = np.asarray(view, dtype=np.float64)
    jacobian = np.asarray(jacobian, dtype=np.float64)
    if sigma.shape != (3, 3) or view.shape != (3, 3) or jacobian.shape != (2, 3):
        raise ContractViolation("expected sigma (3,3), view (3,3), jacobian (2,3)")
    for name, arr in (("sigma", sigma), ("view", view), ("jacobian", jacobian)):
        if not np.all(np.isfinite(arr)):
            raise ContractViolation(f"non-finite {name}")
    if not np.allclose(sigma, sigma.T, atol=1e-8):
        raise ContractViolation("sigma must be symmetric")
    return jacobian @ view @ sigma @ view.T @ jacobian.T


def init_audio_points(cloud: GaussianCloud, selection=DEFAULT_ALPHA_SELECTION) -> AudioPointSet:
    """Build the audio point set: positions copied, alpha concatenated from
    the selected raw attributes in fixed (S, SH, R, O) order."""
    chosen = tuple(selection)
    if not chosen:
        raise ConfigError("alpha selection must be non-empty")
    invalid = set(chosen) - set(ALPHA_PART_ORDER)
    if invalid:
        raise ConfigError(f"unknown alpha attributes: {sorted(invalid)}")
    parts = []
    for key in ALPHA_PART_ORDER:
        if key not in chosen:
            continue
        if key == "S":
            parts.append(cloud.scales)
        elif key == "SH":
            parts.append(cloud.sh)
        elif key == "R":
            parts.append(cloud.quaternions)
        elif key == "O":
            parts.append(cloud.opacities[:, None])
    return AudioPointSet(positions=cloud.positions.copy(), alpha=np.concatenate(parts, axis=1))


def alpha_width(selection):
    return sum(ALPHA_PART_WIDTH[k] for k in selection)


def vicinity(positions, center, percentile):
    """Indices (ascending) of the nearest ceil(percentile% * N) of the (N, 3)
    ``positions``.

    An exact selection (``kdtree.knn``): ties break toward the lower index,
    so the result equals ``kdtree.brute_force_knn``.
    """
    if not 0.0 < percentile <= 100.0:
        raise ConfigError(f"percentile must be in (0, 100], got {percentile}")
    n = positions.shape[0]
    if n < 1:
        raise ContractViolation("vicinity needs at least one point")
    center = np.asarray(center, dtype=np.float64).reshape(3)
    k = int(math.ceil(percentile / 100.0 * n))
    return knn(positions, center, k)


def outlier_indices(positions, min_neighbors=8, radius=0.1):
    """Ascending indices of the points of ``positions`` (N, 3) with fewer
    than ``min_neighbors`` other points strictly within ``radius``; raises
    ContractViolation when that is every point."""
    if radius <= 0:
        raise ConfigError("radius must be positive")
    # count_within includes the query point itself (distance zero)
    removed = np.flatnonzero(count_within(positions, radius) - 1 < min_neighbors)
    if removed.size == positions.shape[0]:
        raise ContractViolation("pruning would remove every point")
    return removed


def prune_outliers(points: AudioPointSet, min_neighbors=8, radius=0.1):
    """Drop points with fewer than ``min_neighbors`` other points strictly
    within ``radius``. Returns (retained set, removed indices)."""
    positions = points.positions
    removed = outlier_indices(positions, min_neighbors, radius)
    keep = np.setdiff1d(np.arange(positions.shape[0]), removed, assume_unique=True)
    retained = AudioPointSet(positions=positions[keep].copy(), alpha=points.alpha[keep].copy())
    return retained, removed


def synthetic_cloud(bounds_min, bounds_max, n_points, rng) -> GaussianCloud:
    """Uniform stand-in cloud for scenes without a pretrained splat PLY."""
    lo = np.asarray(bounds_min, dtype=np.float64)
    hi = np.asarray(bounds_max, dtype=np.float64)
    if np.any(hi <= lo):
        raise GeometryError("bounds_max must exceed bounds_min")
    positions = rng.uniform(lo, hi, size=(n_points, 3))
    quats = rng.standard_normal((n_points, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    scales = np.log(rng.uniform(0.02, 0.2, size=(n_points, 3)))
    opacities = rng.standard_normal(n_points)
    sh = rng.standard_normal((n_points, SH_WIDTH)) * 0.3
    return GaussianCloud(positions=positions, quaternions=quats, scales=scales,
                         opacities=opacities, sh=sh)


# --- PLY ---

_GAUSSIAN_FIELDS = (
    ["x", "y", "z"]
    + [f"f_dc_{i}" for i in range(3)]
    + [f"f_rest_{i}" for i in range(45)]
    + ["opacity"]
    + [f"scale_{i}" for i in range(3)]
    + [f"rot_{i}" for i in range(4)]
)

_PLY_TYPES = {
    "float": "<f4",
    "float32": "<f4",
    "double": "<f8",
    "float64": "<f8",
    "int": "<i4",
    "uint": "<u4",
    "short": "<i2",
    "ushort": "<u2",
    "char": "<i1",
    "uchar": "<u1",
}


def _write_ply(path, names, columns):
    count = columns[0].shape[0]
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {count}"]
    header += [f"property double {name}" for name in names]
    header.append("end_header")
    block = np.column_stack(columns).astype("<f8", copy=False)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(block.data)
    os.replace(tmp, path)


def _read_ply(path):
    """Parse a binary little-endian PLY; returns {property name: float64 column}."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"end_header\n")
    if not raw.startswith(b"ply") or end < 0:
        raise DataError(f"{path}: not a PLY file")
    lines = raw[:end].decode("ascii", errors="replace").splitlines()
    fmt_ok = any(line.strip() == "format binary_little_endian 1.0" for line in lines)
    if not fmt_ok:
        raise DataError(f"{path}: only binary little-endian PLY is supported")
    count = None
    props = []
    in_vertex = False
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "element":
            in_vertex = parts[1] == "vertex"
            if in_vertex:
                count = int(parts[2])
            elif int(parts[2]) > 0:
                raise DataError(f"{path}: unsupported element {parts[1]}")
        elif parts[0] == "property" and in_vertex:
            if parts[1] == "list":
                raise DataError(f"{path}: list properties unsupported")
            if parts[1] not in _PLY_TYPES:
                raise DataError(f"{path}: unknown property type {parts[1]}")
            props.append((parts[2], _PLY_TYPES[parts[1]]))
    if count is None:
        raise DataError(f"{path}: no vertex element")
    dtype = np.dtype([(name, code) for name, code in props])
    rows = np.frombuffer(raw, dtype=dtype, count=count, offset=end + len(b"end_header\n"))
    return {name: rows[name].astype(np.float64) for name, _ in props}


def save_gaussian_cloud(path, cloud: GaussianCloud):
    columns = [cloud.positions[:, 0], cloud.positions[:, 1], cloud.positions[:, 2]]
    columns += [cloud.sh[:, i] for i in range(3)]
    columns += [cloud.sh[:, 3 + i] for i in range(45)]
    columns += [cloud.opacities]
    columns += [cloud.scales[:, i] for i in range(3)]
    columns += [cloud.quaternions[:, i] for i in range(4)]
    _write_ply(path, _GAUSSIAN_FIELDS, columns)


def load_gaussian_cloud(path) -> GaussianCloud:
    data = _read_ply(path)
    for name in _GAUSSIAN_FIELDS:
        if name not in data:
            raise SchemaError(name, f"{path}: missing required field: {name}")
    n = data["x"].shape[0]
    positions = np.column_stack([data["x"], data["y"], data["z"]])
    sh = np.column_stack([data[f"f_dc_{i}"] for i in range(3)]
                         + [data[f"f_rest_{i}"] for i in range(45)])
    opacities = data["opacity"]
    scales = np.column_stack([data[f"scale_{i}"] for i in range(3)])
    quats = np.column_stack([data[f"rot_{i}"] for i in range(4)])
    for name, arr in (("positions", positions), ("sh", sh), ("opacity", opacities),
                      ("scales", scales), ("quaternions", quats)):
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: NaN or infinite values in {name}")
    norms = np.linalg.norm(quats, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DataError(f"{path}: zero quaternion")
    # normalize only rows that need it, so already-unit rows reload bit-exact
    off = np.abs(norms[:, 0] - 1.0) > 1e-12
    quats = quats.copy()
    quats[off] = quats[off] / norms[off]
    if n == 0:
        raise DataError(f"{path}: empty point cloud")
    return GaussianCloud(positions=positions, quaternions=quats, scales=scales,
                         opacities=opacities, sh=sh)


def save_audio_points(path, points: AudioPointSet):
    names = ["x", "y", "z"] + [f"alpha_{i}" for i in range(points.alpha_dim)]
    columns = [points.positions[:, 0], points.positions[:, 1], points.positions[:, 2]]
    columns += [points.alpha[:, i] for i in range(points.alpha_dim)]
    _write_ply(path, names, columns)


def load_audio_points(path) -> AudioPointSet:
    data = _read_ply(path)
    for name in ("x", "y", "z"):
        if name not in data:
            raise SchemaError(name, f"{path}: missing required field: {name}")
    k = 0
    while f"alpha_{k}" in data:
        k += 1
    if k == 0:
        raise SchemaError("alpha_0", f"{path}: missing required field: alpha_0")
    positions = np.column_stack([data["x"], data["y"], data["z"]])
    alpha = np.column_stack([data[f"alpha_{i}"] for i in range(k)])
    return AudioPointSet(positions=positions, alpha=alpha)
