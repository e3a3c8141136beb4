"""Stage-two optimization: reconstruction + volume losses over auditory
perspectives, audio-aware point densification and pruning, metrics logging,
and checkpointing with bit-identical resume.

Per iteration the loop runs densify (on its cadence), then prune (on its
cadence), then one gradient step on a randomly drawn training perspective,
so pruning can never remove a point the current step is about to use. Both
passes measure point spacing with the neighbour module ``kdtree``: densify
by nearest-neighbour distances, prune by radius counts.

Both binaural masks are constant over frames, so each reconstruction term
is a quadratic in one gain per bin. With mono magnitudes M (F, T), a target
G and a gain a_f,

    sum_t (a_f M_ft - G_ft)^2 = S_f (a_f - c_f)^2 + R_f,

where S_f = sum_t M_ft^2, c_f = sum_t M_ft G_ft / S_f (0 where S_f = 0) and
R_f = sum_t (G_ft - c_f M_ft)^2. Both terms are non-negative, so the sum has
no cancellation. The training cache keeps only S, the three c and the
scalar sum of R per sample, and a step evaluates the loss on (F, 1) gains
instead of (F, T) grids.

Each setting has one owner. The ``SceneModel`` owns the mode, the vicinity
percentile and the STFT window and hop; ``TrainConfig`` holds the
optimisation schedule, and the Adam moments keep ``Adam``'s defaults.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import settings
from .autodiff import Tape, Tensor
from .dataset import Dataset
from .dsp import HOP, WINDOW, Waveform, env_distance, mag_distance, stft
from .errors import ConfigError, ContractViolation, EvaluationError, MetricUndefined
from .irmetrics import rir_metrics
from .kdtree import nearest_distances
from .model import SceneModel
from .optim import Adam, reindex_rows
from .roomsim import ear_positions
from .scene import Pose, outlier_indices
from .training_state import load_train_state, save_train_state

log = logging.getLogger("gsaudio.training")

METRICS_NAME = "metrics.jsonl"
LOSS_TRACE_NAME = "loss_trace.json"
METRICS_SCHEMA_VERSION = 1


@dataclass
class TrainConfig:
    """The optimisation schedule: run settings, checked against the settings
    table. ``window`` and ``hop`` must equal the model's (``Trainer`` checks)."""

    iterations: int
    lambda_a: float
    lr_alpha: float
    lr_nets: float
    densify_interval: int
    densify_threshold: float
    prune_interval: int
    prune_min_neighbors: int
    prune_radius: float
    eval_interval: int
    seed: int
    window: int
    hop: int
    rir_time_batch: int

    def __post_init__(self):
        for f in fields(self):
            settings.check(f.name, getattr(self, f.name))


# --- loss terms ---


def loss_reconstruction(tape, pred_m, pred_l, pred_r, gt_m, gt_l, gt_r):
    """Sum of per-grid mean squared errors between predicted and reference
    mixture / left / right magnitudes."""
    for pred, gt in ((pred_m, gt_m), (pred_l, gt_l), (pred_r, gt_r)):
        ps = pred.shape if isinstance(pred, Tensor) else np.shape(pred)
        gs = gt.shape if isinstance(gt, Tensor) else np.shape(gt)
        if tuple(ps) != tuple(gs):
            raise ContractViolation(f"magnitude shapes differ: {ps} vs {gs}")
    term_m = ad.mse(tape, pred_m, gt_m)
    term_l = ad.mse(tape, pred_l, gt_l)
    term_r = ad.mse(tape, pred_r, gt_r)
    return ad.add(tape, ad.add(tape, term_m, term_l), term_r)


def loss_reconstruction_binned(tape, mixture, difference, sample):
    """``loss_reconstruction`` of the masked mono magnitudes against the
    targets of ``sample`` (a binaural training sample), from its per-bin
    statistics: (sum_f S_f [(m - c_m)^2 + (l - c_l)^2 + (r - c_r)^2] + R)
    / (F T), with the channel gains l = (m + d) / 2 and r = (m - d) / 2."""
    left = ad.scale(tape, ad.add(tape, mixture, difference), 0.5)
    right = ad.scale(tape, ad.sub(tape, mixture, difference), 0.5)
    errors = [ad.sub(tape, gain, center) for gain, center in
              ((mixture, sample.c_m), (left, sample.c_l), (right, sample.c_r))]
    squared = ad.square(tape, ad.concat(tape, errors))
    weighted = ad.total(tape, ad.mul(tape, squared, sample.power))
    return ad.scale(tape, ad.add(tape, weighted, sample.residual), 1.0 / sample.cells)


def loss_volume(tape, alphas, active_indices):
    """Sum over the active rows of the (N, K) ``alphas`` of their |alpha| products."""
    active = np.asarray(active_indices, dtype=np.int64)
    if active.size == 0:
        raise ContractViolation("volume loss needs a non-empty active set")
    block = ad.gather_rows(tape, alphas, active)
    return ad.total(tape, ad.row_prod(tape, ad.absolute(tape, block)))


def total_loss(tape, l_m, l_v, lambda_a):
    if not 0.0 <= lambda_a <= 1.0:
        raise ContractViolation("lambda_a must lie in [0, 1]")
    return ad.add(tape, ad.scale(tape, l_m, 1.0 - lambda_a), ad.scale(tape, l_v, lambda_a))


# --- per-point gradient statistics ---


class GradStats:
    """Per-point accumulated alpha-gradient magnitudes since the last
    densification; theta() is the running mean."""

    def __init__(self, n_points):
        self.grad_sum = np.zeros(n_points)
        self.counts = np.zeros(n_points, dtype=np.int64)

    def update(self, indices, magnitudes):
        self.grad_sum[indices] += magnitudes
        self.counts[indices] += 1

    def theta(self):
        return self.grad_sum / np.maximum(self.counts, 1)

    def reset(self):
        self.grad_sum[:] = 0.0
        self.counts[:] = 0

    def reindex(self, keep, n_new=0):
        """Keep rows ``keep`` and append ``n_new`` points with no statistics."""
        self.grad_sum = reindex_rows(self.grad_sum, keep, n_new)
        self.counts = reindex_rows(self.counts, keep, n_new)


@dataclass
class TrainResult:
    loss_trace: list
    point_counts: list
    eval_records: list
    metrics_path: str
    best_dir: str
    final_dir: str


def _sum_squares(a):
    return float(np.einsum("ft,ft->", a, a))


class _BinauralSample:
    """A binaural training perspective, reduced to what the reconstruction
    loss reads: the per-bin mono power ``power`` = S (F, 1), shared by the
    three targets; the least-squares gains ``c_m``, ``c_l``, ``c_r`` (F, 1)
    of the mixture, left and right targets; ``residual``, the sum of R over
    the three targets and all bins; and ``cells`` = F T. No (F, T) grid is
    kept. R is summed from squares, not taken as sum G^2 - S c^2, so it
    carries no cancellation either."""

    __slots__ = ("sample_id", "pose", "power", "c_m", "c_l", "c_r", "residual", "cells")

    def __init__(self, sample_id, pose, mono_mag, left_mag, right_mag):
        self.sample_id = sample_id
        self.pose = pose
        power = np.einsum("ft,ft->f", mono_mag, mono_mag)[:, None]
        # a silent bin's cross sum is an exact 0, so dividing it by 1 gives c = 0
        divisor = np.where(power == 0.0, 1.0, power)
        centers, misfits = [], []
        for target in (left_mag, right_mag):
            center = np.einsum("ft,ft->f", mono_mag, target)[:, None] / divisor
            misfit = np.multiply(center, mono_mag)
            np.subtract(target, misfit, out=misfit)
            centers.append(center)
            misfits.append(misfit)
        self.power = Tensor(power)
        self.c_l, self.c_r = (Tensor(c) for c in centers)
        # the mixture target is the channels' sum, so its gain and its misfit
        # are the sums of theirs: no third pass over the grids
        self.c_m = Tensor(mixture_magnitude(*centers))
        e_l, e_r = misfits
        residual = _sum_squares(e_l) + _sum_squares(e_r)
        e_l += e_r  # now the mixture's misfit
        self.residual = residual + _sum_squares(e_l)
        self.cells = mono_mag.size


class _EarSample:
    __slots__ = ("sample_id", "pose", "gt_ir")

    def __init__(self, sample_id, pose, gt_ir):
        self.sample_id = sample_id
        self.pose = pose
        self.gt_ir = gt_ir


def mixture_magnitude(left_mag, right_mag):
    """Ground-truth mixture target: sum of channel magnitudes, so that the
    predicted identity s_l + s_r == s_m has a consistent reference."""
    return left_mag + right_mag


def ear_perspectives(sample):
    """Expand a pose into (left, right) ear-anchored poses."""
    left_pos, right_pos = ear_positions(sample.pose)
    make = lambda p: Pose(position=p, direction=sample.pose.direction, yaw=sample.pose.yaw)
    return make(left_pos), make(right_pos)


class Trainer:
    """Trains ``model`` in its own mode on ``dataset`` with the schedule ``config``."""

    def __init__(self, model: SceneModel, dataset: Dataset, config: TrainConfig):
        for name in ("window", "hop"):
            ours, theirs = getattr(config, name), getattr(model, name)
            if ours != theirs:
                raise ConfigError(f"config {name} {ours} differs from the model's {theirs}")
        self.model = model
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.stats = GradStats(model.point_count)
        self.opt_nets = Adam(model.network_params(), lr=config.lr_nets)
        self.opt_alpha = Adam([model.alphas], lr=config.lr_alpha)
        self.iteration = 0
        self.best_value = float(np.inf)
        self.loss_trace = []
        self.point_counts = []
        self._window_losses = []
        self._train_cache = self._build_cache()
        if not self._train_cache:
            raise ConfigError("dataset has no training samples")

    def _build_cache(self):
        cache = []
        records = self.dataset.records("train")
        if self.model.mode == "binaural":
            for rec in records:
                s = self.dataset.sample(rec)
                mags = [stft(w, self.model.window, self.model.hop).magnitudes()
                        for w in (s.mono, s.left, s.right)]
                cache.append(_BinauralSample(s.sample_id, s.pose, *mags))
        else:
            for rec in records:
                s = self.dataset.sample(rec)
                if s.ir_left is None or s.ir_right is None:
                    raise ConfigError(
                        f"sample {s.sample_id} has no impulse responses; "
                        "generate the dataset with rir output for rir mode"
                    )
                left_pose, right_pose = ear_perspectives(s)
                cache.append(_EarSample(f"{s.sample_id}:l", left_pose, s.ir_left.samples))
                cache.append(_EarSample(f"{s.sample_id}:r", right_pose, s.ir_right.samples))
        return cache

    # --- single step ---

    def train_step(self, sample=None):
        """One forward/backward/update on a training perspective; returns the
        scalar loss. Draws the perspective from the run RNG when not given."""
        if sample is None:
            sample = self._train_cache[int(self.rng.integers(len(self._train_cache)))]
        tape = Tape()
        model = self.model
        if model.mode == "binaural":
            mixture, difference, ctx = model.mask_tensors(tape, sample.pose)
            l_m = loss_reconstruction_binned(tape, mixture, difference, sample)
        else:
            n_full = sample.gt_ir.size
            batch = min(self.config.rir_time_batch, n_full)
            if batch == n_full:
                idx = np.arange(n_full)
            else:
                idx = np.sort(self.rng.choice(n_full, size=batch, replace=False))
            amp, ctx = model.rir_tensor(tape, sample.pose, idx / n_full)
            l_m = ad.mse(tape, amp, Tensor(sample.gt_ir[idx][:, None]))
        active = np.union1d(ctx.listener_indices, ctx.source_indices)
        l_v = loss_volume(tape, model.alphas, active)
        loss_t = total_loss(tape, l_m, l_v, self.config.lambda_a)
        loss = float(loss_t.data)
        if not np.isfinite(loss):
            raise EvaluationError(f"non-finite loss on sample {sample.sample_id}")
        grads = tape.backward(loss_t)
        self.stats.update(active, np.linalg.norm(grads[model.alphas][active], axis=1))
        self.opt_nets.step(grads)
        self.opt_alpha.step(grads, active)
        return loss

    # --- point management ---

    def densify(self):
        """Spawn one point next to every point whose mean gradient magnitude
        exceeds the threshold; resets the statistics."""
        theta = self.stats.theta()
        significant = np.flatnonzero(theta > self.config.densify_threshold)
        positions = self.model.positions
        n_new = significant.size
        new_positions = np.empty((n_new, 3))
        new_alphas = np.empty((n_new, self.model.field.alpha_dim))
        spacing = nearest_distances(positions, significant)
        for row, i in enumerate(significant):
            new_positions[row] = (positions[i]
                                  + self.rng.standard_normal(3) * max(spacing[row], 1e-6))
            new_alphas[row] = self.rng.uniform(-0.01, 0.01, size=(1, new_alphas.shape[1]))
        if n_new:
            self.model.add_points(new_positions, new_alphas)
            self.opt_alpha.reindex(slice(None), n_new)
            self.stats.reindex(slice(None), n_new)
        self.stats.reset()
        return int(n_new)

    def prune(self):
        """Drop isolated points; optimizer state and statistics follow."""
        try:
            removed = outlier_indices(self.model.positions, self.config.prune_min_neighbors,
                                      self.config.prune_radius)
        except ContractViolation:
            log.warning("every point is an outlier; skipping this pruning pass")
            return 0
        if removed.size == 0:
            return 0
        keep = np.setdiff1d(np.arange(self.model.point_count), removed, assume_unique=True)
        self.model.keep_points(keep)
        self.opt_alpha.reindex(keep)
        self.stats.reindex(keep)
        return int(removed.size)

    # --- evaluation ---

    def evaluate(self, split="val"):
        if self.model.mode == "binaural":
            return evaluate_binaural(self.model, self.dataset, split,
                                     self.model.window, self.model.hop)
        return evaluate_rir(self.model, self.dataset, split)

    # --- full loop ---

    def run(self, out_dir) -> TrainResult:
        config = self.config
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, METRICS_NAME)
        best_dir = os.path.join(out_dir, "best")
        final_dir = os.path.join(out_dir, "final")
        resuming = self.iteration > 0
        eval_records = []
        mode_metric = "mag" if self.model.mode == "binaural" else "t60_error_percent"
        handle = open(metrics_path, "a" if resuming else "w", encoding="utf-8")

        def emit(iteration):
            metrics = self.evaluate("val")
            window_loss = (float(np.mean(self._window_losses))
                           if self._window_losses else None)
            record = {
                "schema_version": METRICS_SCHEMA_VERSION,
                "iteration": iteration,
                "split": "val",
                "loss": window_loss,
                "points": self.model.point_count,
            }
            record.update(metrics)
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            eval_records.append(record)
            self._window_losses = []
            return record

        try:
            if not resuming:
                record = emit(0)
                value = record.get(mode_metric)
                self.best_value = float(value) if value is not None else float(np.inf)
                self._save_checkpoint(best_dir)
            for it in range(self.iteration + 1, config.iterations + 1):
                self.iteration = it
                if config.densify_interval and it % config.densify_interval == 0:
                    added = self.densify()
                    if added:
                        log.info("iteration %d: densified %d points", it, added)
                if config.prune_interval and it % config.prune_interval == 0:
                    dropped = self.prune()
                    if dropped:
                        log.info("iteration %d: pruned %d points", it, dropped)
                try:
                    loss = self.train_step()
                except EvaluationError as exc:
                    self._dump_diagnostic(out_dir, it, str(exc))
                    raise
                self.loss_trace.append(loss)
                self.point_counts.append(self.model.point_count)
                self._window_losses.append(loss)
                if it % config.eval_interval == 0:
                    record = emit(it)
                    value = record.get(mode_metric)
                    if value is not None and value < self.best_value:
                        self.best_value = float(value)
                        self._save_checkpoint(best_dir)
            self._save_checkpoint(final_dir)
        finally:
            handle.close()
        trace_path = os.path.join(out_dir, LOSS_TRACE_NAME)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"loss": self.loss_trace, "points": self.point_counts}, fh)
            fh.write("\n")
        return TrainResult(loss_trace=self.loss_trace, point_counts=self.point_counts,
                           eval_records=eval_records, metrics_path=metrics_path,
                           best_dir=best_dir, final_dir=final_dir)

    def _save_checkpoint(self, directory):
        self.model.save(directory)
        save_train_state(directory, self)

    def _dump_diagnostic(self, out_dir, iteration, message):
        path = os.path.join(out_dir, "diagnostic.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"iteration": iteration, "error": message}, fh, indent=2)
            fh.write("\n")
        log.error("aborted at iteration %d: %s (diagnostic: %s)", iteration, message, path)

    @classmethod
    def resume(cls, checkpoint_dir, dataset: Dataset, config: TrainConfig) -> "Trainer":
        model = SceneModel.load(checkpoint_dir)
        trainer = cls(model, dataset, config)
        load_train_state(checkpoint_dir, trainer)
        return trainer


# --- evaluation helpers ---


def evaluate_binaural(model: SceneModel, dataset: Dataset, split, window=WINDOW, hop=HOP):
    samples = dataset.samples(split)
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    mag = env = 0.0
    for s in samples:
        left, right = model.render(s.pose, s.mono)
        mag += mag_distance((left, right), (s.left, s.right), window, hop)
        env += env_distance((left, right), (s.left, s.right))
    return {"mag": mag / len(samples), "env": env / len(samples)}


def evaluate_rir(model: SceneModel, dataset: Dataset, split):
    samples = dataset.samples(split)
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    sums = {"t60_error_percent": 0.0, "c50_error_db": 0.0, "edt_error_sec": 0.0}
    valid = 0
    excluded = 0
    for s in samples:
        if s.ir_left is None or s.ir_right is None:
            raise ConfigError(f"sample {s.sample_id} has no impulse responses")
        for pose, gt in zip(ear_perspectives(s), (s.ir_left, s.ir_right)):
            pred = model.predict_ir(pose, gt.samples.size)
            try:
                errs = rir_metrics(pred, gt)
            except MetricUndefined:
                excluded += 1
                continue
            for key in sums:
                sums[key] += errs[key]
            valid += 1
    out = {key: (sums[key] / valid if valid else None) for key in sums}
    out["excluded"] = excluded
    return out


def codec_baselines(dataset: Dataset, split="val", window=WINDOW, hop=HOP):
    """Reference predictions: duplicated mono, energy-matched mono, and
    per-channel energy-matched mono; averaged MAG/ENV over the split."""
    samples = dataset.samples(split)
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    totals = {name: {"mag": 0.0, "env": 0.0} for name in
              ("mono_mono", "mono_energy", "stereo_energy")}
    for s in samples:
        gt = (s.left, s.right)
        e_mono, e_left, e_right = s.mono.energy(), s.left.energy(), s.right.energy()
        scale_mono = np.sqrt(((e_left + e_right) / 2.0) / e_mono) if e_mono > 0 else 0.0
        scale_l = np.sqrt(e_left / e_mono) if e_mono > 0 else 0.0
        scale_r = np.sqrt(e_right / e_mono) if e_mono > 0 else 0.0
        sr = s.mono.sample_rate
        preds = {
            "mono_mono": (s.mono, s.mono),
            "mono_energy": (Waveform(scale_mono * s.mono.samples, sr),
                            Waveform(scale_mono * s.mono.samples, sr)),
            "stereo_energy": (Waveform(scale_l * s.mono.samples, sr),
                              Waveform(scale_r * s.mono.samples, sr)),
        }
        for name, pred in preds.items():
            totals[name]["mag"] += mag_distance(pred, gt, window, hop)
            totals[name]["env"] += env_distance(pred, gt)
    n = len(samples)
    return {name: {"mag": vals["mag"] / n, "env": vals["env"] / n}
            for name, vals in totals.items()}
