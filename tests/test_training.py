import dataclasses
import gc
import json
import logging
import os
import tracemalloc

import numpy as np
import pytest

from gsaudio import autodiff as ad
from gsaudio import checkpoint
from gsaudio.autodiff import Tape, Tensor
from gsaudio.checkpoint import load_weights
from gsaudio.cli import build_model, load_run_config, train_config_from
from gsaudio.dataset import Dataset, synth_dataset
from gsaudio.errors import ConfigError, ContractViolation, DataError, EvaluationError
from gsaudio.kdtree import KDTree, nearest_distances
from gsaudio.roomsim import ShoeboxRoom, ear_positions
from gsaudio.training import (GradStats, Trainer, _BinauralSample,
                              codec_baselines, ear_perspectives, evaluate_binaural,
                              loss_reconstruction,
                              loss_reconstruction_binned, loss_volume, mixture_magnitude,
                              save_train_state, total_loss)

from conftest import FailingWrite, dense_form

ROOM = ShoeboxRoom([6.0, 4.0, 3.0], 0.7)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "data"
    synth_dataset(root, ROOM, n_samples=20, seed=3)
    return Dataset.load(root)


def make_trainer(dataset, seed=3, iterations=50, points=128, **overrides):
    cfg = load_run_config(None, {"seed": seed, "init_points": points})
    model = build_model(dataset, cfg)
    tcfg = train_config_from(cfg, iterations=iterations)
    tcfg.densify_interval = 0
    for key, value in overrides.items():
        setattr(tcfg, key, value)
    return Trainer(model, dataset, tcfg)


def test_ear_perspectives_are_the_ears_facing_the_sample_yaw(small_dataset):
    for rec in small_dataset.records():
        sample = small_dataset.sample(rec)
        poses = ear_perspectives(sample)
        ears = ear_positions(sample.pose)
        assert len(poses) == 2
        for pose, ear in zip(poses, ears):
            assert pose.position.tobytes() == ear.tobytes()
            assert pose.yaw == sample.pose.yaw
            assert pose.direction.tobytes() == sample.pose.direction.tobytes()


# --- loss terms ---

def test_loss_reconstruction_zero_for_perfect_prediction():
    rng = np.random.default_rng(0)
    grids = [Tensor(rng.uniform(0, 1, (10, 7))) for _ in range(3)]
    tape = Tape()
    out = loss_reconstruction(tape, grids[0], grids[1], grids[2],
                              grids[0], grids[1], grids[2])
    assert float(out.data) == 0.0


def test_loss_reconstruction_constant_offset():
    rng = np.random.default_rng(1)
    gl = Tensor(rng.uniform(0, 1, (6, 5)))
    gr = Tensor(rng.uniform(0, 1, (6, 5)))
    gm = Tensor(rng.uniform(0, 1, (6, 5)))
    pm = Tensor(gm.data + 0.3)
    out = loss_reconstruction(Tape(), pm, gl, gr, gm, gl, gr)
    assert float(out.data) == pytest.approx(0.3**2, abs=1e-12)


def test_loss_reconstruction_matches_naive_triple_loop():
    rng = np.random.default_rng(2)
    pred = [rng.uniform(0, 1, (5, 4)) for _ in range(3)]
    gt = [rng.uniform(0, 1, (5, 4)) for _ in range(3)]
    out = loss_reconstruction(Tape(), *[Tensor(p) for p in pred], *[Tensor(g) for g in gt])
    naive = 0.0
    for p, g in zip(pred, gt):
        acc = 0.0
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                acc += (p[i, j] - g[i, j]) ** 2
        naive += acc / p.size
    assert abs(float(out.data) - naive) < 1e-10


def test_loss_reconstruction_shape_mismatch():
    a = Tensor(np.zeros((3, 3)))
    b = Tensor(np.zeros((3, 4)))
    with pytest.raises(ContractViolation):
        loss_reconstruction(Tape(), a, a, a, b, b, b)


def dense_reconstruction(tape, mixture, difference, mono_mag, left_mag, right_mag):
    """The dense reference: ``loss_reconstruction`` on the (F, T) grids."""
    pred_m = ad.mul(tape, mixture, mono_mag)
    pred_d = ad.mul(tape, difference, mono_mag)
    pred_l = ad.scale(tape, ad.add(tape, pred_m, pred_d), 0.5)
    pred_r = ad.scale(tape, ad.sub(tape, pred_m, pred_d), 0.5)
    return loss_reconstruction(tape, pred_m, pred_l, pred_r,
                               mixture_magnitude(left_mag, right_mag), left_mag, right_mag)


def random_grids(rng, n_bins=257, frames=24):
    mono_mag = rng.uniform(0.0, 1.0, (n_bins, frames))
    mono_mag[7] = 0.0  # a silent bin: S_f = 0, so c_f = 0
    return mono_mag, rng.uniform(0.0, 0.8, (n_bins, frames)), rng.uniform(0.0, 0.8, (n_bins, frames))


def binned_and_dense(mixture, difference, grids):
    """(value, gradients) of the binned loss and of the dense reference."""
    sample = _BinauralSample("s", None, *grids)
    out = []
    for loss in (lambda tape, m, d: loss_reconstruction_binned(tape, m, d, sample),
                 lambda tape, m, d: dense_reconstruction(tape, m, d, *grids)):
        m = Tensor(mixture, param=True)
        d = Tensor(difference, param=True)
        tape = Tape()
        value = loss(tape, m, d)
        grads = tape.backward(value)
        out.append((float(value.data), grads[m], grads[d]))
    return out


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_binned_loss_matches_dense_loss(seed):
    # pinned: 1e-14 relative on the value, 1e-13 of each gradient's max |value|
    rng = np.random.default_rng(seed)
    grids = random_grids(rng)
    mixture = rng.uniform(0.0, 2.0, (257, 1))
    difference = rng.uniform(-1.0, 1.0, (257, 1))
    (value, g_m, g_d), (ref, ref_m, ref_d) = binned_and_dense(mixture, difference, grids)
    assert abs(value - ref) <= 1e-14 * abs(ref)
    for got, want in ((g_m, ref_m), (g_d, ref_d)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the silent bin gets no gradient from either loss
    assert g_m[7, 0] == 0.0 and g_d[7, 0] == 0.0


def test_binned_loss_at_exact_fit_is_the_residual():
    rng = np.random.default_rng(8)
    grids = random_grids(rng)
    sample = _BinauralSample("s", None, *grids)
    # the gains that solve every bin's least squares: m = c_m, (m + d) / 2 = c_l,
    # (m - d) / 2 = c_r; c_m = c_l + c_r since the mixture target is left + right
    mixture = sample.c_m.data
    difference = sample.c_l.data - sample.c_r.data
    (value, _, _), (ref, _, _) = binned_and_dense(mixture, difference, grids)
    floor = sample.residual / sample.cells
    assert sample.residual > 0.0
    assert abs(value - floor) <= 1e-14 * floor
    assert abs(ref - floor) <= 1e-14 * floor


def test_train_step_loss_matches_finite_differences():
    # the loss train_step minimises, binned reconstruction plus the volume
    # term, differentiated with respect to every parameter along a random
    # direction: a central difference of L(p + h u) against grad . u
    from gsaudio.binauralizer import MaskNetwork
    from gsaudio.field import FieldNetwork, pooled_context
    from gsaudio.scene import Pose

    rng = np.random.default_rng(56)
    positions = rng.uniform(0.5, 3.0, (5, 3))
    alphas = Tensor(rng.standard_normal((5, 52)) * 0.4, param=True)
    field = FieldNetwork(alpha_dim=52, rng=rng)
    masknet = MaskNetwork(mode="binaural", rng=rng)
    # generic weights for the difference head, as in acceptance criterion 1
    masknet.m4[0].data = masknet.m4[0].data * 1e3
    sample = _BinauralSample("s", None, *random_grids(rng, frames=8))
    pose = Pose.from_yaw([2.5, 1.0, 1.0], 0.4)
    source = np.array([1.0, 2.5, 1.5])

    def step_loss(tape):
        ctx = pooled_context(tape, field, positions, alphas, pose, source, 100.0)
        mixture, difference = masknet.mask_tensors(tape, np.array([0.4, 0.3]), 0.4, ctx.tensor,
                                                   257)
        l_m = loss_reconstruction_binned(tape, mixture, difference, sample)
        return total_loss(tape, l_m, loss_volume(tape, alphas, np.arange(5)), 0.01)

    tape = Tape()
    grads = tape.backward(step_loss(tape))
    params = [alphas] + field.params() + masknet.params()
    assert set(grads) == set(params)
    for p in params:
        direction = rng.standard_normal(p.data.shape)
        analytic = float(np.sum(dense_form(grads[p]) * direction))
        keep = p.data
        best = np.inf
        for h in (1e-5, 1e-6, 1e-7):  # a step across a relu kink recovers at a smaller one
            p.data = keep + h * direction
            hi = float(step_loss(Tape()).data)
            p.data = keep - h * direction
            lo = float(step_loss(Tape()).data)
            p.data = keep
            fd = (hi - lo) / (2.0 * h)
            best = min(best, abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12))
        assert best <= 1e-5, (p.name, analytic, best)


def test_loss_volume_all_ones():
    alphas = Tensor(np.ones((5, 7)), param=True)
    out = loss_volume(Tape(), alphas, np.arange(5))
    assert float(out.data) == 5.0


def test_loss_volume_zero_entry_annihilates():
    row = np.ones((1, 6))
    row[0, 3] = 0.0
    out = loss_volume(Tape(), Tensor(row, param=True), np.array([0]))
    assert float(out.data) == 0.0


def test_loss_volume_matches_direct_products():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((5, 8))
    out = loss_volume(Tape(), Tensor(block, param=True), np.arange(5))
    want = sum(np.prod(np.abs(block[i])) for i in range(5))
    assert abs(float(out.data) - want) < 1e-12


def test_loss_volume_is_one_tape_entry():
    alphas = Tensor(np.random.default_rng(2).standard_normal((9, 4)), param=True)
    tape = Tape()
    out = loss_volume(tape, alphas, np.array([1, 4, 8]))
    assert [(e.op, e.inputs, e.out) for e in tape.entries] == [("volume", (alphas,), out)]


def test_loss_volume_empty_active_set_rejected():
    with pytest.raises(ContractViolation):
        loss_volume(Tape(), Tensor(np.ones((1, 2)), param=True), np.array([], dtype=int))


def test_total_loss_endpoints_and_midpoint():
    lm = Tensor(np.array(2.0))
    lv = Tensor(np.array(4.0))
    assert float(total_loss(Tape(), lm, lv, 0.0).data) == 2.0
    assert float(total_loss(Tape(), lm, lv, 1.0).data) == 4.0
    assert float(total_loss(Tape(), lm, lv, 0.5).data) == 3.0
    with pytest.raises(ContractViolation):
        total_loss(Tape(), lm, lv, 1.5)


def test_mixture_magnitude_is_channel_sum():
    rng = np.random.default_rng(4)
    l, r = rng.uniform(0, 1, (4, 4)), rng.uniform(0, 1, (4, 4))
    assert np.array_equal(mixture_magnitude(l, r), l + r)


def test_binauralizer_loss_alpha_gradient_on_five_point_scene():
    from gsaudio.autodiff import finite_difference_check
    from gsaudio.binauralizer import MaskNetwork
    from gsaudio.field import FieldNetwork, pooled_context
    from gsaudio.scene import Pose

    rng = np.random.default_rng(55)
    positions = rng.uniform(0.5, 3.0, (5, 3))
    field = FieldNetwork(alpha_dim=52, rng=rng)
    masknet = MaskNetwork(mode="binaural", rng=rng)
    mono_mag = Tensor(rng.uniform(0, 1, (257, 8)))
    gt = Tensor(rng.uniform(0, 1, (257, 8)))
    pose = Pose.from_yaw([2.5, 1.0, 1.0], 0.4)
    source = np.array([1.0, 2.5, 1.5])

    def loss(tape, alpha_block):
        ctx = pooled_context(tape, field, positions, alpha_block, pose, source, 100.0)
        mixture, difference = masknet.mask_tensors(tape, np.array([0.4, 0.3]), 0.4, ctx.tensor,
                                                   257)
        pred_l = ad.scale(tape, ad.add(tape, ad.mul(tape, mixture, mono_mag),
                                       ad.mul(tape, difference, mono_mag)), 0.5)
        return ad.mse(tape, pred_l, gt)

    err = finite_difference_check(loss, rng.standard_normal((5, 52)) * 0.4, step=1e-5)
    assert err < 1e-4


# --- gradient statistics ---

def test_theta_is_running_mean():
    stats = GradStats(4)
    rng = np.random.default_rng(5)
    per_point = [[] for _ in range(4)]
    for _ in range(13):
        idx = np.sort(rng.choice(4, size=2, replace=False))
        mags = rng.uniform(0, 1, size=2)
        stats.update(idx, mags)
        for i, m in zip(idx, mags):
            per_point[i].append(m)
    theta = stats.theta()
    for i in range(4):
        want = np.mean(per_point[i]) if per_point[i] else 0.0
        assert abs(theta[i] - want) < 1e-12


def test_stats_extend_and_keep():
    stats = GradStats(3)
    stats.update(np.array([0, 2]), np.array([1.0, 3.0]))
    stats.reindex(slice(None), 2)
    assert stats.grad_sum.shape == (5,)
    stats.reindex(np.array([2, 3, 4]))
    assert stats.grad_sum[0] == 3.0
    assert stats.counts[0] == 1


# --- densification ---

def test_synthetic_theta_flags_exactly_first_point(small_dataset):
    trainer = make_trainer(small_dataset)
    trainer.stats.grad_sum[:] = 0.0
    trainer.stats.counts[:] = 1
    trainer.stats.grad_sum[0] = 0.001
    trainer.stats.grad_sum[1] = 0.0002
    before = trainer.model.point_count
    added = trainer.densify()
    assert added == 1
    assert trainer.model.point_count == before + 1


def test_zero_theta_adds_nothing(small_dataset):
    trainer = make_trainer(small_dataset)
    assert trainer.densify() == 0


def test_k_significant_points_add_exactly_k(small_dataset):
    trainer = make_trainer(small_dataset)
    trainer.stats.counts[:] = 1
    trainer.stats.grad_sum[:5] = 1.0
    before = trainer.model.point_count
    assert trainer.densify() == 5
    assert trainer.model.point_count == before + 5
    # statistics reset afterwards
    assert np.all(trainer.stats.grad_sum == 0.0)
    assert np.all(trainer.stats.counts == 0)


def test_densified_alpha_in_init_range(small_dataset):
    trainer = make_trainer(small_dataset)
    trainer.stats.counts[:] = 1
    trainer.stats.grad_sum[0] = 1.0
    trainer.densify()
    new_alpha = trainer.model.alphas.data[-1]
    assert np.all(np.abs(new_alpha) <= 0.01)


def per_point_nearest(positions, indices):
    """Reference: the per-point loop densify ran before the blocked pass."""
    out = []
    for i in indices:
        d2 = ((positions - positions[i]) ** 2).sum(axis=1)
        out.append(float(np.sqrt(np.partition(d2, 1)[1])) if d2.size > 1 else 1.0)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 1100, 40000])
def test_nearest_distances_match_per_point_loop(n):
    rng = np.random.default_rng(n)
    positions = rng.uniform(0.0, 6.0, (n, 3))
    positions[0] = positions[n - 1]  # a duplicate point (itself when n = 1)
    # 1100 points take 29 rows per block, so 300 rows span 11 blocks; 40000
    # points exceed a block's distances and go one row at a time
    indices = np.union1d(rng.choice(n, size=min(n, 300), replace=False), [n - 1])
    got = nearest_distances(positions, indices)
    assert np.array_equal(got, per_point_nearest(positions, indices))
    assert got[-1] == (1.0 if n == 1 else 0.0)


# --- pruning ---

def pruned_state(trainer):
    """Every per-point array that a prune pass re-indexes."""
    [(m, v, t)] = trainer.opt_alpha.state_arrays()
    return {"positions": trainer.model.positions.copy(),
            "alphas": trainer.model.alphas.data.copy(), "m": m, "v": v, "t": t,
            "grad_sum": trainer.stats.grad_sum.copy(), "counts": trainer.stats.counts.copy()}


def test_prune_drops_exactly_the_points_no_step_reached(small_dataset, monkeypatch):
    trainer = make_trainer(small_dataset, points=512)
    contexts = []
    mask_tensors = trainer.model.mask_tensors

    def spy(*args, **kwargs):
        out = mask_tensors(*args, **kwargs)
        contexts.append(out[2])
        return out

    monkeypatch.setattr(trainer.model, "mask_tensors", spy)
    trainer.train_step()
    [ctx] = contexts
    keep = np.union1d(ctx.listener_indices, ctx.source_indices)
    before = pruned_state(trainer)
    assert trainer.prune() == 512 - keep.size > 0
    after = pruned_state(trainer)
    for name, array in before.items():
        assert np.array_equal(after[name], array[keep]), name


def test_prune_with_no_step_since_the_reset_changes_nothing(small_dataset):
    trainer = make_trainer(small_dataset)
    trainer.train_step()
    trainer.densify()  # resets the statistics
    before = pruned_state(trainer)
    assert trainer.prune() == 0
    after = pruned_state(trainer)
    for name, array in before.items():
        assert np.array_equal(after[name], array), name


def test_prune_at_32768_points_neither_raises_nor_skips(small_dataset, caplog):
    trainer = make_trainer(small_dataset, points=32768)
    trainer.train_step()
    reached = np.count_nonzero(trainer.stats.counts)
    with caplog.at_level(logging.DEBUG, logger="gsaudio"):
        assert trainer.prune() == 32768 - reached
    assert trainer.model.point_count == reached
    assert not caplog.records


# --- single steps ---

def test_descent_on_frozen_sample(small_dataset):
    passes = 0
    trials = 20
    for seed in range(trials):
        trainer = make_trainer(small_dataset, seed=seed, lr_nets=1e-4, lr_alpha=1e-4)
        sample = trainer._train_cache[0]
        loss_before = trainer.train_step(sample)  # evaluates at theta_0, then updates
        loss_after = trainer.train_step(sample)   # evaluates at theta_1
        if loss_after <= loss_before:
            passes += 1
    assert passes >= int(0.95 * trials)


def test_points_outside_vicinity_get_no_gradient(small_dataset):
    trainer = make_trainer(small_dataset)
    sample = trainer._train_cache[0]
    tape = Tape()
    model = trainer.model
    ctx = model.context(tape, sample.pose)
    mixture, difference, _ = model.mask_tensors(tape, sample.pose, context=ctx)
    loss = loss_reconstruction_binned(tape, mixture, difference, sample)
    grads = tape.backward(loss)
    active = np.union1d(ctx.listener_indices, ctx.source_indices)
    outside = np.setdiff1d(np.arange(model.point_count), active)
    assert outside.size > 0
    g = grads[model.alphas].dense()
    assert np.all(g[outside] == 0.0)
    assert np.all(np.any(g[active] != 0.0, axis=1))
    before = model.alphas.data.copy()
    trainer.opt_alpha.step(grads)
    [(m, v, t)] = trainer.opt_alpha.state_arrays()
    assert np.array_equal(model.alphas.data[outside], before[outside])
    assert np.all(m[outside] == 0.0) and np.all(v[outside] == 0.0)
    assert np.all(t[outside] == 0) and np.all(t[active] == 1)


def test_binaural_cache_holds_no_frame_grid(small_dataset):
    trainer = make_trainer(small_dataset)
    n_bins = trainer.config.window // 2 + 1
    assert trainer._train_cache
    for sample in trainer._train_cache:
        for slot in _BinauralSample.__slots__:
            value = getattr(sample, slot)
            shape = np.shape(value.data if isinstance(value, Tensor) else value)
            if shape:  # every array holds one value per bin
                assert shape == (n_bins, 1), (slot, shape)
        assert sample.cells % n_bins == 0 and sample.cells > n_bins


def test_train_step_backward_peaks_below_one_alpha_matrix(small_dataset, monkeypatch):
    # the alpha gradient holds the reached rows only, so the backward of a
    # step allocates less than one (N, K) array. What it does allocate grows
    # with the two vicinities (15 % of N each): the field's backward over
    # them and the reached alpha rows, about 0.76 of the (N, K) array, plus
    # about 1 MB of network gradients. At N = 8192 that is 1.07 arrays, at
    # N = 32768 0.83, so any dense (N, K) gradient shows.
    trainer = make_trainer(small_dataset, points=32768)
    block = trainer.model.alphas.data.nbytes
    assert block == 32768 * 52 * 8
    peaks = []
    backward = Tape.backward

    def traced(tape, output):
        tracemalloc.start()
        try:
            return backward(tape, output)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(Tape, "backward", traced)
    trainer.train_step(trainer._train_cache[0])
    assert len(peaks) == 1 and peaks[0] < block, (peaks, block)


def test_gradient_statistics_are_per_point_gradient_norms(small_dataset, monkeypatch):
    trainer = make_trainer(small_dataset)
    captured = {}
    backward = Tape.backward

    def spy(tape, output):
        captured.update(backward(tape, output))
        return captured

    monkeypatch.setattr(Tape, "backward", spy)
    trainer.train_step(trainer._train_cache[0])
    g = captured[trainer.model.alphas].dense()
    # the per-row loop is the reference; the vectorised norm sums in another order
    want = np.array([np.linalg.norm(row) for row in g])
    reached = trainer.stats.counts == 1
    assert np.all(trainer.stats.counts[~reached] == 0)
    assert np.allclose(trainer.stats.grad_sum[reached], want[reached],
                       rtol=8 * np.finfo(np.float64).eps, atol=0.0)
    assert np.all(trainer.stats.grad_sum[~reached] == 0.0)


def test_render_and_train_step_build_no_kd_tree(small_dataset, monkeypatch):
    # no engine path builds a KDTree: render, a train step, densify and a
    # prune pass that removes points all run at 512 points without one
    def refuse(self, *args, **kwargs):
        raise AssertionError("a k-d tree was built")

    monkeypatch.setattr(KDTree, "__init__", refuse)
    cfg = load_run_config(None, {"seed": 3, "init_points": 512})
    model = build_model(small_dataset, cfg)
    sample = small_dataset.samples("val")[0]
    left, right = model.render(sample.pose, sample.mono)
    assert np.all(np.isfinite(left.samples)) and np.all(np.isfinite(right.samples))
    tcfg = train_config_from(cfg, iterations=1)
    tcfg.densify_interval = 0
    trainer = Trainer(model, small_dataset, tcfg)
    assert np.isfinite(trainer.train_step())
    # prune before densify, which resets the statistics prune reads
    before = model.point_count
    removed = trainer.prune()
    assert removed > 0 and model.point_count == before - removed
    trainer.densify()


def test_identical_seeds_give_identical_traces(small_dataset):
    t1 = make_trainer(small_dataset, seed=9)
    t2 = make_trainer(small_dataset, seed=9)
    trace1 = [t1.train_step() for _ in range(30)]
    trace2 = [t2.train_step() for _ in range(30)]
    assert trace1 == trace2


def test_pure_regularizer_run_shrinks_alpha(small_dataset):
    # lambda_a = 1 with a narrow alpha init: 52-wide products underflow to
    # ~1e-30 where the optimizer's epsilon floor stalls movement, so the
    # degenerate run is exercised at width 3
    cfg = load_run_config(None, {"seed": 4, "init_points": 128, "alpha_init": ["S"]})
    model = build_model(small_dataset, cfg)
    tcfg = train_config_from(cfg, iterations=200)
    tcfg.lambda_a = 1.0
    tcfg.densify_interval = 0
    trainer = Trainer(model, small_dataset, tcfg)
    means = []
    for _ in range(200):
        trainer.train_step()
        means.append(float(np.mean(np.abs(model.alphas.data))))
    windows = [np.mean(means[i : i + 20]) for i in range(0, 200, 20)]
    assert all(windows[i] > windows[i + 1] for i in range(len(windows) - 1))


def test_rir_mode_requires_ir_files(small_dataset):
    cfg = load_run_config(None, {"seed": 0, "init_points": 64, "mode": "rir"})
    model = build_model(small_dataset, cfg)
    tcfg = train_config_from(cfg, iterations=10)
    with pytest.raises(ConfigError):
        Trainer(model, small_dataset, tcfg)


@pytest.mark.parametrize("name, value", [("window", 256), ("hop", 64)])
def test_window_and_hop_must_match_the_model(small_dataset, name, value):
    cfg = load_run_config(None, {"seed": 0, "init_points": 64})
    tcfg = train_config_from(cfg, iterations=10)
    setattr(tcfg, name, value)
    with pytest.raises(ConfigError, match=name):
        Trainer(build_model(small_dataset, cfg), small_dataset, tcfg)


def test_dataset_at_another_sample_rate_is_config_error(small_dataset, tmp_path):
    synth_dataset(tmp_path / "d44", ROOM, n_samples=5, seed=3, sample_rate=44100,
                  duration=0.7)
    other = Dataset.load(tmp_path / "d44")
    cfg = load_run_config(None, {"seed": 0, "init_points": 64})
    model = build_model(small_dataset, cfg)
    with pytest.raises(ConfigError, match="44100 Hz differs from the model's 22050 Hz"):
        Trainer(model, other, train_config_from(cfg, iterations=10))


# --- full runs ---

def test_run_training_metrics_log_shape(small_dataset, tmp_path):
    trainer = make_trainer(small_dataset, iterations=40, eval_interval=10)
    result = trainer.run(tmp_path / "run")
    assert len(result.eval_records) == 40 // 10 + 1
    assert result.eval_records[0]["iteration"] == 0
    assert result.eval_records[0]["loss"] is None
    assert result.eval_records[-1]["iteration"] == 40
    for record in result.eval_records:
        assert set(record) == {"schema_version", "iteration", "split", "loss",
                               "points", "mag", "env"}
    for sub in ("final", "best"):
        assert os.listdir(tmp_path / "run" / sub) == ["model.bin"]


def test_point_count_changes_only_on_schedule(small_dataset, tmp_path, monkeypatch):
    trainer = make_trainer(small_dataset, iterations=90, eval_interval=30,
                           densify_interval=25, densify_threshold=1e-9)
    removals = {}
    prune = trainer.prune

    def recording_prune():
        removals[trainer.iteration] = prune()
        return removals[trainer.iteration]

    monkeypatch.setattr(trainer, "prune", recording_prune)
    result = trainer.run(tmp_path / "run")
    counts = result.point_counts
    changes = {i + 2 for i in range(len(counts) - 1) if counts[i + 1] != counts[i]}
    assert set(removals) == {25, 50, 75}
    assert changes <= set(removals)
    assert changes  # densification at threshold 1e-9 must actually fire
    assert any(removals.values())  # and a pass drops points no step reached


def test_run_prunes_with_the_window_statistics(small_dataset, tmp_path, monkeypatch):
    # the counts prune reads at a pass are the tally of the steps since the
    # previous pass: not zeros (densify resets them after prune), not a
    # longer history
    trainer = make_trainer(small_dataset, iterations=12, eval_interval=12, densify_interval=4)
    window, seen = [], {}
    update, prune = trainer.stats.update, trainer.prune

    def tally(indices, magnitudes):
        window.append(np.array(indices))
        update(indices, magnitudes)

    def recording_prune():
        want = np.zeros(trainer.model.point_count, dtype=np.int64)
        for indices in window:
            want[indices] += 1
        seen[trainer.iteration] = (trainer.stats.counts.copy(), want, len(window))
        window.clear()
        return prune()

    monkeypatch.setattr(trainer.stats, "update", tally)
    monkeypatch.setattr(trainer, "prune", recording_prune)
    trainer.run(tmp_path / "run")
    assert {it: steps for it, (_, _, steps) in seen.items()} == {4: 3, 8: 4, 12: 4}
    for counts, want, _ in seen.values():
        assert counts.any() and np.array_equal(counts, want)


def test_resume_reproduces_next_eval(small_dataset, tmp_path):
    full = make_trainer(small_dataset, seed=6, iterations=40, eval_interval=20)
    full_result = full.run(tmp_path / "full")

    part = make_trainer(small_dataset, seed=6, iterations=20, eval_interval=20)
    part.run(tmp_path / "part")
    tcfg = train_config_from(load_run_config(None, {"seed": 6, "init_points": 128}),
                             iterations=40)
    tcfg.densify_interval = 0
    tcfg.eval_interval = 20
    resumed = Trainer.resume(str(tmp_path / "part" / "final"), small_dataset, tcfg)
    resumed_result = resumed.run(tmp_path / "part")
    want = [r for r in full_result.eval_records if r["iteration"] == 40][0]
    got = [r for r in resumed_result.eval_records if r["iteration"] == 40][0]
    assert want == got


def test_failed_evaluation_writes_a_diagnostic(small_dataset, tmp_path, monkeypatch):
    trainer = make_trainer(small_dataset, iterations=20, eval_interval=10)
    evaluate = trainer.evaluate

    def failing():
        if trainer.iteration == 10:
            raise EvaluationError("non-finite output of dense on inputs of shape (1, 2)")
        return evaluate()

    monkeypatch.setattr(trainer, "evaluate", failing)
    with pytest.raises(EvaluationError):
        trainer.run(tmp_path / "run")
    diagnostic = json.loads((tmp_path / "run" / "diagnostic.json").read_text())
    assert diagnostic == {"iteration": 10, "points": 128,
                          "error": "non-finite output of dense on inputs of shape (1, 2)"}


def test_train_state_layout_is_pinned(small_dataset, tmp_path):
    """The train state's header fields, and the name, dtype and shape of each
    of its tensors after the model's in model.bin, are pinned."""
    trainer = make_trainer(small_dataset, seed=6)
    for _ in range(3):
        trainer.train_step()
    trainer.stats.counts[:] = 1
    trainer.stats.grad_sum[:] = 0.0
    trainer.stats.grad_sum[:2] = 1.0
    assert trainer.densify() == 2
    trainer.train_step()
    save_train_state(str(tmp_path / "ckpt"), trainer)
    n, k = trainer.model.alphas.shape
    nets = trainer.model.network_params()
    want = [
        ("grad_sum", "<f8", [n]),
        ("grad_counts", "<i8", [n]),
        ("alpha_m", "<f8", [n, k]),
        ("alpha_v", "<f8", [n, k]),
        ("alpha_t", "<i8", [n]),
        ("net_t", "<i8", [len(nets)]),
    ]
    for i, p in enumerate(nets):
        want += [(f"net_m_{i}", "<f8", list(p.shape)), (f"net_v_{i}", "<f8", list(p.shape))]
    header, arrays = load_weights(tmp_path / "ckpt" / "model.bin")
    state = header["train_state"]
    assert set(state) == {"iteration", "best_value", "rng_state", "config", "tensor_count"}
    assert state["iteration"] == 0 and state["best_value"] == np.inf
    assert state["rng_state"] == trainer.rng.bit_generator.state
    assert state["config"] == dataclasses.asdict(trainer.config)
    assert state["tensor_count"] == len(want)
    specs = header["tensors"]
    assert len(specs) == 2 + len(nets) + len(want)
    assert [(t["name"], t["dtype"], t["shape"]) for t in specs[-len(want):]] == want
    data = dict(zip((t["name"] for t in specs), arrays))
    assert np.all(data["net_t"] == 4)
    # per-row counts: the densified rows started at zero a step ago
    assert data["alpha_t"][n - 2:].max() <= 1 < data["alpha_t"].max()
    resumed = Trainer.resume(str(tmp_path / "ckpt"), small_dataset, trainer.config)
    assert resumed.train_step() == trainer.train_step()


def test_resume_reads_the_checkpoint_once(small_dataset, tmp_path, monkeypatch):
    trainer = make_trainer(small_dataset)
    trainer.train_step()
    save_train_state(str(tmp_path), trainer)
    reads = []

    def counting_load_weights(*args, **kwargs):
        reads.append(args)
        return load_weights(*args, **kwargs)

    for module in ("gsaudio.training", "gsaudio.model"):
        monkeypatch.setattr(f"{module}.load_weights", counting_load_weights)
    resumed = Trainer.resume(str(tmp_path), small_dataset, trainer.config)
    assert len(reads) == 1
    assert resumed.train_step() == trainer.train_step()


def test_checkpoint_with_the_old_pruning_keys_resumes(small_dataset, tmp_path):
    # older checkpoints saved three pruning settings in their schedule; a
    # resume compares only the current schedule's keys
    trainer = make_trainer(small_dataset)
    trainer.train_step()
    save_train_state(str(tmp_path), trainer)
    path = tmp_path / "model.bin"
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        buffer = fh.read()
    header["train_state"]["config"].update(prune_interval=3000, prune_min_neighbors=8,
                                           prune_radius=0.1)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + buffer)
    resumed = Trainer.resume(str(tmp_path), small_dataset, trainer.config)
    assert resumed.train_step() == trainer.train_step()


def test_model_without_train_state_does_not_resume(small_dataset, tmp_path):
    trainer = make_trainer(small_dataset)
    trainer.model.save(tmp_path)
    with pytest.raises(DataError, match="no train state"):
        Trainer.resume(str(tmp_path), small_dataset, trainer.config)


def fail_mid_buffer(monkeypatch):
    real_open = open
    # the header, the points and a few network tensors reach the disk
    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: FailingWrite(real_open(*a, **k), skip=6), raising=False)


def fail_before_rename(monkeypatch):
    def failing(src, dst):
        raise OSError("rename failed")
    monkeypatch.setattr(checkpoint.os, "replace", failing)


@pytest.mark.parametrize("inject", [fail_mid_buffer, fail_before_rename])
def test_failed_checkpoint_save_keeps_the_previous_one(small_dataset, tmp_path, monkeypatch,
                                                      inject):
    full = make_trainer(small_dataset, seed=6, iterations=40, eval_interval=20)
    want = full.run(tmp_path / "full").eval_records[-1]
    part = make_trainer(small_dataset, seed=6, iterations=20, eval_interval=20)
    final = part.run(tmp_path / "part").final_dir
    for _ in range(5):
        part.train_step()
    inject(monkeypatch)
    with pytest.raises(OSError):
        save_train_state(final, part)
    monkeypatch.undo()
    assert os.listdir(final) == ["model.bin"]  # no model.bin.tmp left beside it
    resumed = Trainer.resume(final, small_dataset,
                             dataclasses.replace(part.config, iterations=40))
    assert resumed.iteration == 20
    assert resumed.run(tmp_path / "part").eval_records[-1] == want


# --- codec baselines ---

def test_mono_mono_zero_when_gt_is_duplicated_mono(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=5)
    ds = Dataset.load(tmp_path / "d")
    # overwrite the binaural files with duplicated mono
    from gsaudio.wavio import read_wav, write_wav
    for rec in ds.records():
        mono, sr = read_wav(tmp_path / "d" / rec["mono"])
        write_wav(tmp_path / "d" / rec["binaural"], np.column_stack([mono, mono]), sr)
    ds = Dataset.load(tmp_path / "d")
    base = codec_baselines(ds, "val")
    assert base["mono_mono"]["mag"] == pytest.approx(0.0, abs=1e-12)
    assert base["mono_mono"]["env"] == pytest.approx(0.0, abs=1e-12)


def test_stereo_energy_beats_mono_energy(small_dataset):
    base = codec_baselines(small_dataset, "val")
    assert base["stereo_energy"]["mag"] <= base["mono_energy"]["mag"]


def test_mono_energy_scale_is_sqrt_energy_ratio(tmp_path):
    synth_dataset(tmp_path / "d", ROOM, n_samples=5, seed=6)
    ds = Dataset.load(tmp_path / "d")
    from gsaudio.wavio import read_wav, write_wav
    for rec in ds.records():
        mono, sr = read_wav(tmp_path / "d" / rec["mono"])
        doubled = np.sqrt(2.0) * mono  # gt energy = 2x mono energy per channel
        write_wav(tmp_path / "d" / rec["binaural"], np.column_stack([doubled, doubled]), sr)
    ds = Dataset.load(tmp_path / "d")
    base = codec_baselines(ds, "val")
    # per-sample scaling matches exactly, so the baseline error vanishes
    assert base["mono_energy"]["mag"] == pytest.approx(0.0, abs=1e-9)


def test_train_config_validation():
    cfg = load_run_config()
    with pytest.raises(ConfigError, match="lambda_a"):
        train_config_from(dict(cfg, lambda_a=1.5))
    with pytest.raises(ConfigError, match="iterations"):
        train_config_from(cfg, iterations=0)


def test_train_config_refuses_unknown_attributes():
    tcfg = train_config_from(load_run_config())
    with pytest.raises(AttributeError):
        tcfg.prune_radius = 0.5


# --- memory: a run holds statistics, not waveforms ---

SHORT_CLIP = 0.25  # seconds


def waveform_bytes(sample):
    return sample.mono.samples.nbytes + sample.left.samples.nbytes + sample.right.samples.nbytes


def held_by_new_trainer(root, n_samples):
    """A trainer on a fresh ``n_samples`` dataset of short clips, and the
    bytes still allocated once its constructor returned."""
    synth_dataset(root, ROOM, n_samples=n_samples, seed=3, duration=SHORT_CLIP)
    dataset = Dataset.load(root)
    cfg = load_run_config(None, {"seed": 3, "init_points": 128})
    model = build_model(dataset, cfg)
    config = train_config_from(cfg, iterations=10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer = Trainer(model, dataset, config)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return trainer, held


def test_trainer_memory_grows_by_the_statistics_not_the_waveforms(tmp_path):
    small, held_small = held_by_new_trainer(tmp_path / "d10", 10)
    large, held_large = held_by_new_trainer(tmp_path / "d40", 40)
    added = len(large._train_cache) - len(small._train_cache)
    assert added == 24
    statistics = [sum(t.data.nbytes for t in (s.power, s.c_m, s.c_l, s.c_r))
                  for s in large._train_cache]
    per_sample_waves = waveform_bytes(large.dataset.sample(large.dataset.records("train")[0]))
    growth = held_large - held_small
    # each sample may add its statistics and up to 2 KB of object headers
    assert growth < added * (max(statistics) + 2048)
    assert growth < added * per_sample_waves / 10


def test_evaluation_holds_one_sample_at_a_time(tmp_path):
    root = tmp_path / "d"
    synth_dataset(root, ROOM, n_samples=25, seed=4, duration=SHORT_CLIP)
    cfg = load_run_config(None, {"seed": 4, "init_points": 128})
    model = build_model(Dataset.load(root), cfg)
    evaluate_binaural(model, Dataset.load(root), "val")  # warm the model's caches

    def peak(split):
        dataset = Dataset.load(root)
        assert len(dataset.records(split)) == {"train": 20, "val": 5}[split]
        gc.collect()
        tracemalloc.start()
        try:
            evaluate_binaural(model, dataset, split)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    dataset = Dataset.load(root)
    one_sample = waveform_bytes(dataset.sample(dataset.records("val")[0]))
    assert peak("train") - peak("val") < one_sample
