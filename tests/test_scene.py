import math
import tracemalloc

import numpy as np
import pytest

from gsaudio import kdtree
from gsaudio.errors import ConfigError, ContractViolation, DataError, SchemaError
from gsaudio.kdtree import brute_force_count_within, brute_force_knn
from gsaudio.scene import (AudioPointSet, Pose, alpha_width, outlier_indices,
                           covariance_from_gaussian, init_audio_points,
                           load_audio_points, load_gaussian_cloud, project_covariance,
                           prune_outliers, quaternion_rotation, save_audio_points,
                           save_gaussian_cloud, synthetic_cloud, vicinity)


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    return synthetic_cloud([0, 0, 0], [6, 4, 3], 64, rng)


# --- PLY round trips ---

def test_cloud_round_trip_bit_identical(tmp_path, cloud):
    path = tmp_path / "g.ply"
    save_gaussian_cloud(path, cloud)
    back = load_gaussian_cloud(path)
    assert np.array_equal(back.positions, cloud.positions)
    assert np.array_equal(back.sh, cloud.sh)
    assert np.array_equal(back.scales, cloud.scales)
    assert np.array_equal(back.opacities, cloud.opacities)
    # quaternions were saved normalized already, so reload is exact
    assert np.array_equal(back.quaternions, cloud.quaternions)
    assert back.sh.shape[1] == 48


def test_missing_opacity_names_the_field(tmp_path, cloud):
    path = tmp_path / "g.ply"
    save_gaussian_cloud(path, cloud)
    raw = path.read_bytes()
    header_end = raw.index(b"end_header\n")
    header = raw[:header_end].decode("ascii")
    lines = [l for l in header.splitlines() if l.strip() != "property double opacity"]
    lines.append("end_header")
    # drop the opacity column from the payload too
    names = [l.split()[-1] for l in header.splitlines() if l.startswith("property")]
    keep = [i for i, n in enumerate(names) if n != "opacity"]
    body = np.frombuffer(raw[header_end + len(b"end_header\n"):], dtype="<f8")
    body = body.reshape(-1, len(names))[:, keep]
    (tmp_path / "h.ply").write_bytes(("\n".join(lines) + "\n").encode() + body.tobytes())
    with pytest.raises(SchemaError) as exc:
        load_gaussian_cloud(tmp_path / "h.ply")
    assert exc.value.field == "opacity"


def test_nan_payload_rejected(tmp_path, cloud):
    cloud.positions[3, 1] = 0.0
    path = tmp_path / "g.ply"
    save_gaussian_cloud(path, cloud)
    raw = bytearray(path.read_bytes())
    header_end = raw.index(b"end_header\n") + len(b"end_header\n")
    nan = np.array([np.nan]).tobytes()
    raw[header_end: header_end + 8] = nan
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_gaussian_cloud(path)


def test_quaternions_normalized_on_load(tmp_path, cloud):
    cloud.quaternions *= 3.7
    path = tmp_path / "g.ply"
    save_gaussian_cloud(path, cloud)
    back = load_gaussian_cloud(path)
    assert np.allclose(np.linalg.norm(back.quaternions, axis=1), 1.0, atol=1e-12)


def test_audio_points_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    pts = AudioPointSet(positions=rng.uniform(0, 2, (20, 3)),
                        alpha=rng.standard_normal((20, 52)))
    path = tmp_path / "a.ply"
    save_audio_points(path, pts)
    back = load_audio_points(path)
    assert np.array_equal(back.positions, pts.positions)
    assert np.array_equal(back.alpha, pts.alpha)


# --- covariance projection ---

def test_project_diag_with_selector():
    sigma = np.diag([2.0, 3.0, 5.0])
    selector = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    out = project_covariance(sigma, np.eye(3), selector)
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-15)


def test_project_isotropic_rotation_invariant():
    sigma = 0.7 * np.eye(3)
    rot = quaternion_rotation([0.9, 0.1, -0.3, 0.2])
    selector = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    out = project_covariance(sigma, rot, selector)
    assert np.allclose(out, 0.7 * np.eye(2), atol=1e-12)


def test_project_matches_naive_triple_product():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T
        view = rng.standard_normal((3, 3))
        jac = rng.standard_normal((2, 3))
        fast = project_covariance(sigma, view, jac)
        naive = np.zeros((2, 2))
        m = jac @ view
        for i in range(2):
            for j in range(2):
                for p in range(3):
                    for q in range(3):
                        naive[i, j] += m[i, p] * sigma[p, q] * m[j, q]
        assert np.max(np.abs(fast - naive)) < 1e-12


def test_projected_covariance_stays_psd():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((3, 3))
        out = project_covariance(a @ a.T, rng.standard_normal((3, 3)),
                                 rng.standard_normal((2, 3)))
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


def test_thousand_point_cloud_schema_echo(tmp_path):
    rng = np.random.default_rng(1000)
    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], 1000, rng)
    save_gaussian_cloud(tmp_path / "big.ply", cloud)
    back = load_gaussian_cloud(tmp_path / "big.ply")
    assert len(back) == 1000
    assert back.sh.shape == (1000, 48)


def test_asymmetric_sigma_rejected():
    bad = np.array([[1.0, 0.5, 0], [0.2, 1.0, 0], [0, 0, 1.0]])
    with pytest.raises(ContractViolation):
        project_covariance(bad, np.eye(3), np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    # a non-finite jacobian is rejected the same way
    with pytest.raises(ContractViolation):
        project_covariance(np.eye(3), np.eye(3), np.full((2, 3), np.nan))


def test_covariance_from_gaussian_psd():
    cov = covariance_from_gaussian([0.7, 0.1, 0.2, -0.3], np.log([0.1, 0.2, 0.05]))
    assert np.allclose(cov, cov.T)
    assert np.min(np.linalg.eigvalsh(cov)) > 0


# --- alpha initialization ---

def test_default_selection_width_52(cloud):
    pts = init_audio_points(cloud)
    assert pts.alpha_dim == 52
    assert np.array_equal(pts.positions, cloud.positions)
    # fixed order: SH block first, then quaternion
    assert np.array_equal(pts.alpha[:, :48], cloud.sh)
    assert np.array_equal(pts.alpha[:, 48:], cloud.quaternions)


def test_opacity_only_width_1(cloud):
    pts = init_audio_points(cloud, ("O",))
    assert pts.alpha_dim == 1
    assert np.array_equal(pts.alpha[:, 0], cloud.opacities)


def test_full_selection_width_56(cloud):
    pts = init_audio_points(cloud, ("S", "SH", "R", "O"))
    assert pts.alpha_dim == 56
    assert np.array_equal(pts.alpha[:, :3], cloud.scales)


def test_alpha_width_helper():
    assert alpha_width(("SH", "R")) == 52
    assert alpha_width(("S",)) == 3
    assert alpha_width(("S", "O")) == 4


def test_empty_selection_rejected(cloud):
    with pytest.raises(ConfigError):
        init_audio_points(cloud, ())
    with pytest.raises(ConfigError):
        init_audio_points(cloud, ("XYZ",))


# --- vicinity ---

def test_vicinity_percentile_count():
    rng = np.random.default_rng(4)
    idx = vicinity(rng.uniform(0, 1, (100, 3)), np.array([0.5, 0.5, 0.5]), 15)
    assert len(idx) == 15


def test_vicinity_full_percentile_returns_all():
    rng = np.random.default_rng(5)
    assert len(vicinity(rng.uniform(0, 1, (37, 3)), np.zeros(3), 100)) == 37


def test_vicinity_matches_exhaustive_sort():
    rng = np.random.default_rng(6)
    positions = rng.uniform(0, 3, (200, 3))
    center = rng.uniform(0, 3, 3)
    got = vicinity(positions, center, 10)
    d2 = ((positions - center) ** 2).sum(axis=1)
    want = np.sort(np.lexsort((np.arange(200), d2))[:20])
    assert np.array_equal(got, want)


def test_vicinity_permutation_invariant():
    rng = np.random.default_rng(7)
    positions = rng.uniform(0, 3, (50, 3))
    center = np.array([1.0, 1.0, 1.0])
    base = vicinity(positions, center, 20)
    perm = rng.permutation(50)
    idx = vicinity(positions[perm], center, 20)
    assert np.array_equal(np.sort(perm[idx]), base)  # same point set


@pytest.mark.parametrize("n", [300, 4096])
def test_vicinity_exact_on_tied_distances(n):
    # positions on a 0.25 grid: squared distances to a grid centre are exact,
    # so many points share each distance and the k-th often sits in a tie
    rng = np.random.default_rng(n)
    positions = rng.integers(0, 6, (n, 3)) * 0.25
    center = np.array([0.5, 0.75, 0.5])
    d2 = np.sort(((positions - center) ** 2).sum(axis=1))
    inside_tie = np.flatnonzero((d2[1:-1] == d2[:-2]) & (d2[1:-1] == d2[2:])) + 2
    assert inside_tie.size > 0
    ks = [1, n] + list(inside_tie[:: max(1, inside_tie.size // 8)])
    for k in ks:
        # the midpoint percentile of k, so ceil(percentile% * n) == k
        got = vicinity(positions, center, 100.0 * (k - 0.5) / n)
        assert len(got) == k
        assert np.array_equal(got, brute_force_knn(positions, center, k))


def test_vicinity_bad_percentile_rejected():
    for p in (0, -5, 101):
        with pytest.raises(ConfigError):
            vicinity(np.zeros((3, 3)), np.zeros(3), p)


# --- outlier pruning ---

def test_prune_removes_far_point():
    rng = np.random.default_rng(8)
    cluster = rng.uniform(0, 0.05, (20, 3))
    far = np.array([[5.0, 5.0, 5.0]])
    pts = AudioPointSet(positions=np.vstack([cluster, far]),
                        alpha=np.zeros((21, 2)))
    retained, removed = prune_outliers(pts, min_neighbors=8, radius=0.1)
    assert np.array_equal(removed, [20])
    assert len(retained) == 20


def test_prune_keeps_coincident_points():
    pts = AudioPointSet(positions=np.zeros((12, 3)), alpha=np.zeros((12, 1)))
    retained, removed = prune_outliers(pts, min_neighbors=8, radius=0.1)
    assert removed.size == 0
    assert len(retained) == 12


@pytest.mark.parametrize("trial", range(5))
def test_prune_matches_quadratic_oracle(trial):
    rng = np.random.default_rng(20 + trial)
    # two dense blobs (survivors) plus uniform scatter (mostly outliers)
    blob_a = rng.normal([0.3, 0.3, 0.3], 0.05, (25, 3))
    blob_b = rng.normal([1.1, 1.0, 0.8], 0.05, (25, 3))
    scatter = rng.uniform(0, 1.5, (int(rng.integers(10, 40)), 3))
    positions = np.vstack([blob_a, blob_b, scatter])
    pts = AudioPointSet(positions=positions, alpha=np.zeros((len(positions), 1)))
    retained, removed = prune_outliers(pts, min_neighbors=3, radius=0.25)
    n = len(positions)
    expect = []
    for i in range(n):
        count = 0
        for j in range(n):
            if i != j and np.sum((positions[i] - positions[j]) ** 2) < 0.25**2:
                count += 1
        if count < 3:
            expect.append(i)
    assert np.array_equal(removed, expect)
    assert np.array_equal(outlier_indices(positions, min_neighbors=3, radius=0.25), expect)
    assert len(retained) == n - len(expect)


def assert_outliers_match_per_point_counts(positions, radius):
    # thresholds at every count c and c - 1: a count off by one either way
    # moves its point across one of them
    counts = np.array([brute_force_count_within(positions, p, radius) for p in positions])
    for min_neighbors in np.unique(np.concatenate([counts, counts - 1])):
        expect = np.flatnonzero(counts - 1 < min_neighbors)
        if expect.size == len(positions):
            with pytest.raises(ContractViolation):
                outlier_indices(positions, min_neighbors, radius)
        else:
            assert np.array_equal(outlier_indices(positions, min_neighbors, radius), expect)


@pytest.mark.parametrize("radius", [0.1, 0.5, 10.0])
def test_outliers_match_per_point_counts_on_uniform_points(radius):
    positions = np.random.default_rng(4096).uniform(0.0, [6.0, 4.0, 3.0], (4096, 3))
    assert_outliers_match_per_point_counts(positions, radius)


@pytest.mark.parametrize("radius", [0.25, 0.25 * math.sqrt(2), 0.5])
def test_outliers_match_per_point_counts_on_a_grid(radius):
    # 24 x 16 x 12 = 4608 points 0.25 m apart: every radius is a tie distance
    axes = [np.arange(n) * 0.25 for n in (24, 16, 12)]
    positions = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    assert_outliers_match_per_point_counts(positions, radius)


def ulp_edge_sets(rng, radius):
    """40 sets spread along x, each a centre plus points at x0 +- r and 1-3
    ulps either side, on the centre's line and just off it."""
    sets = []
    for offset in range(40):
        center = np.array([3.0 * offset, 0.0, 0.0]) + rng.uniform(0.0, 2.0, 3)
        pts = [center]
        for edge in (center[0] - radius, center[0] + radius):
            for steps in range(-3, 4):
                x = edge
                for _ in range(abs(steps)):
                    x = np.nextafter(x, np.inf if steps > 0 else -np.inf)
                for dy in (0.0, 1e-9 * radius):
                    pts.append([x, center[1] + dy, center[2]])
        sets.append(np.array(pts))
    return np.vstack(sets)


@pytest.mark.parametrize("block", [None, 1])
def test_outliers_match_per_point_counts_at_ulp_distances(monkeypatch, block):
    # block 1 takes one row per block, so each count sees only its own x window
    if block is not None:
        monkeypatch.setattr(kdtree, "_BLOCK", block)
    rng = np.random.default_rng(11)
    for radius in rng.uniform(0.01, 1.0, 15):
        assert_outliers_match_per_point_counts(ulp_edge_sets(rng, radius), radius)


def test_prune_refuses_to_empty_the_set():
    rng = np.random.default_rng(99)
    positions = rng.uniform(0, 100.0, (10, 3))  # everyone isolated
    pts = AudioPointSet(positions=positions, alpha=np.zeros((10, 1)))
    with pytest.raises(ContractViolation):
        prune_outliers(pts, min_neighbors=3, radius=0.1)
    with pytest.raises(ContractViolation):
        outlier_indices(positions, min_neighbors=3, radius=0.1)


# --- pose ---

def test_pose_direction_normalized():
    pose = Pose(position=np.zeros(3), direction=np.array([3.0, 4.0, 0.0]))
    assert np.allclose(np.linalg.norm(pose.direction), 1.0, atol=1e-12)
    assert pose.heading() == pytest.approx(np.arctan2(0.8, 0.6))


def test_pose_from_yaw():
    pose = Pose.from_yaw([1, 2, 3], np.pi / 2)
    assert np.allclose(pose.direction, [0, 1, 0], atol=1e-12)
    assert pose.heading() == pytest.approx(np.pi / 2)


def test_zero_direction_rejected():
    with pytest.raises(ContractViolation):
        Pose(position=np.zeros(3), direction=np.zeros(3))


def test_audio_point_io_memory_is_bounded(tmp_path):
    # transient peaks against the (N, 3 + K) float64 block the file holds:
    # save builds the block once; load holds the file bytes, then the
    # columns, then the returned set
    n, k = 20000, 52
    rng = np.random.default_rng(12)
    pts = AudioPointSet(positions=rng.uniform(0, 5, (n, 3)), alpha=rng.standard_normal((n, k)))
    block = n * (3 + k) * 8
    path = tmp_path / "points.ply"
    tracemalloc.start()
    try:
        save_audio_points(path, pts)
        base, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = load_audio_points(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak < 1.5 * block
    assert load_peak - base < 2.5 * block
    assert np.array_equal(back.positions, pts.positions)
    assert np.array_equal(back.alpha, pts.alpha)
