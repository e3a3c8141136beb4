"""Stage-two optimization: reconstruction + volume losses over auditory
perspectives, audio-aware point densification and pruning, metrics logging,
and checkpointing with bit-identical resume.

Per iteration the loop runs densify (on its cadence), then prune (on its
cadence), then one gradient step on a randomly drawn training perspective,
so pruning can never remove a point the current step is about to use.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .dataset import Dataset
from .dsp import Waveform, env_distance, mag_distance, stft
from .errors import ConfigError, ContractViolation, EvaluationError, MetricUndefined
from .irmetrics import rir_metrics
from .model import SceneModel
from .optim import Adam
from .roomsim import ear_positions
from .scene import Pose, prune_outliers
from .training_state import load_train_state, save_train_state

log = logging.getLogger("gsaudio.training")

METRICS_NAME = "metrics.jsonl"
LOSS_TRACE_NAME = "loss_trace.json"
METRICS_SCHEMA_VERSION = 1


@dataclass
class TrainConfig:
    mode: str = "binaural"
    iterations: int = 2000
    lambda_a: float = 0.01
    lr_alpha: float = 1.6e-4
    lr_nets: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    densify_interval: int = 500
    densify_threshold: float = 0.0004
    prune_interval: int = 3000
    prune_min_neighbors: int = 8
    prune_radius: float = 0.1
    vicinity_percentile: float = 15.0
    eval_interval: int = 200
    seed: int = 0
    window: int = 512
    hop: int = 128
    rir_time_batch: int = 1024

    def __post_init__(self):
        if self.mode not in ("binaural", "rir"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.lambda_a <= 1.0:
            raise ConfigError("lambda_a must lie in [0, 1]")
        for name in ("iterations", "eval_interval", "prune_min_neighbors", "rir_time_batch"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lr_alpha", "lr_nets", "prune_radius", "densify_threshold"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.vicinity_percentile <= 100.0:
            raise ConfigError("vicinity_percentile must lie in (0, 100]")


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


def loss_volume(tape, alphas, active_indices):
    """Sum over active points of the product of |alpha| entries."""
    active = np.asarray(active_indices, dtype=np.int64)
    if active.size == 0:
        raise ContractViolation("volume loss needs a non-empty active set")
    block = ad.concat(tape, [alphas[i] for i in active], axis=0)
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

    def extend(self, n_new):
        self.grad_sum = np.concatenate([self.grad_sum, np.zeros(n_new)])
        self.counts = np.concatenate([self.counts, np.zeros(n_new, dtype=np.int64)])

    def keep(self, indices):
        self.grad_sum = self.grad_sum[indices].copy()
        self.counts = self.counts[indices].copy()


@dataclass
class TrainResult:
    loss_trace: list
    point_counts: list
    eval_records: list
    metrics_path: str
    best_dir: str
    final_dir: str


class _BinauralSample:
    __slots__ = ("sample_id", "pose", "mono_mag", "gt_m", "gt_l", "gt_r")

    def __init__(self, sample_id, pose, mono_mag, gt_m, gt_l, gt_r):
        self.sample_id = sample_id
        self.pose = pose
        self.mono_mag = mono_mag
        self.gt_m = gt_m
        self.gt_l = gt_l
        self.gt_r = gt_r


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
    def __init__(self, model: SceneModel, dataset: Dataset, config: TrainConfig):
        if model.mode != config.mode:
            raise ConfigError(f"model mode {model.mode!r} != config mode {config.mode!r}")
        self.model = model
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.stats = GradStats(model.point_count)
        self.opt_nets = Adam(model.network_params(), lr=config.lr_nets,
                             beta1=config.beta1, beta2=config.beta2, eps=config.eps)
        self.opt_alpha = Adam(model.alphas, lr=config.lr_alpha,
                              beta1=config.beta1, beta2=config.beta2, eps=config.eps)
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
        if self.config.mode == "binaural":
            for rec in records:
                s = self.dataset.sample(rec)
                mono_mag = stft(s.mono, self.config.window, self.config.hop).magnitudes()
                left_mag = stft(s.left, self.config.window, self.config.hop).magnitudes()
                right_mag = stft(s.right, self.config.window, self.config.hop).magnitudes()
                cache.append(_BinauralSample(
                    sample_id=s.sample_id,
                    pose=s.pose,
                    mono_mag=Tensor(mono_mag),
                    gt_m=Tensor(mixture_magnitude(left_mag, right_mag)),
                    gt_l=Tensor(left_mag),
                    gt_r=Tensor(right_mag),
                ))
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
        if self.config.mode == "binaural":
            ctx = model.context(tape, sample.pose)
            mixture, difference, _ = model.mask_tensors(tape, sample.pose, context=ctx)
            pred_m = ad.mul(tape, mixture, sample.mono_mag)
            pred_d = ad.mul(tape, difference, sample.mono_mag)
            pred_l = ad.scale(tape, ad.add(tape, pred_m, pred_d), 0.5)
            pred_r = ad.scale(tape, ad.sub(tape, pred_m, pred_d), 0.5)
            l_m = loss_reconstruction(tape, pred_m, pred_l, pred_r,
                                      sample.gt_m, sample.gt_l, sample.gt_r)
        else:
            n_full = sample.gt_ir.size
            batch = min(self.config.rir_time_batch, n_full)
            if batch == n_full:
                idx = np.arange(n_full)
            else:
                idx = np.sort(self.rng.choice(n_full, size=batch, replace=False))
            ctx = model.context(tape, sample.pose)
            amp, _ = model.rir_tensor(tape, sample.pose, idx / n_full, context=ctx)
            l_m = ad.mse(tape, amp, Tensor(sample.gt_ir[idx][:, None]))
        active = np.union1d(ctx.listener_indices, ctx.source_indices)
        l_v = loss_volume(tape, model.alphas, active)
        loss_t = total_loss(tape, l_m, l_v, self.config.lambda_a)
        loss = float(loss_t.data)
        if not np.isfinite(loss):
            raise EvaluationError(f"non-finite loss on sample {sample.sample_id}")
        grads = tape.backward(loss_t)
        magnitudes = np.array(
            [float(np.linalg.norm(grads.get(model.alphas[i], _ZERO))) for i in active]
        )
        self.stats.update(active, magnitudes)
        self.opt_nets.step(grads)
        self.opt_alpha.step(grads)
        return loss

    # --- point management ---

    def densify(self):
        """Spawn one point next to every point whose mean gradient magnitude
        exceeds the threshold; resets the statistics."""
        theta = self.stats.theta()
        significant = np.flatnonzero(theta > self.config.densify_threshold)
        model = self.model
        new_positions = []
        new_alphas = []
        alpha_dim = model.field.alpha_dim
        for i in significant:
            diff = model.positions - model.positions[i]
            d2 = np.sort((diff**2).sum(axis=1))
            nn = float(np.sqrt(d2[1])) if d2.size > 1 else 1.0
            scatter = max(nn, 1e-6)
            new_positions.append(model.positions[i] + self.rng.standard_normal(3) * scatter)
            new_alphas.append(self.rng.uniform(-0.01, 0.01, size=(1, alpha_dim)))
        if new_positions:
            before = model.point_count
            model.add_points(np.asarray(new_positions), new_alphas)
            for t in model.alphas[before:]:
                self.opt_alpha.add_param(t)
            self.stats.extend(len(new_positions))
        self.stats.reset()
        return len(new_positions)

    def prune(self):
        """Drop isolated points; optimizer slots and statistics follow."""
        removed_count = 0
        points = self.model.point_set()
        try:
            retained, removed = prune_outliers(points, self.config.prune_min_neighbors,
                                               self.config.prune_radius)
        except ContractViolation:
            log.warning("every point is an outlier; skipping this pruning pass")
            return 0
        if removed.size and len(retained) > 0:
            keep = np.setdiff1d(np.arange(self.model.point_count), removed, assume_unique=True)
            for i in removed:
                self.opt_alpha.drop_param(self.model.alphas[i])
            self.model.keep_points(keep)
            self.stats.keep(keep)
            removed_count = int(removed.size)
        return removed_count

    # --- evaluation ---

    def evaluate(self, split="val"):
        if self.config.mode == "binaural":
            return evaluate_binaural(self.model, self.dataset, split,
                                     self.config.window, self.config.hop)
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
        mode_metric = "mag" if config.mode == "binaural" else "t60_error_percent"
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


_ZERO = np.zeros(1)


# --- evaluation helpers ---


def evaluate_binaural(model: SceneModel, dataset: Dataset, split, window=512, hop=128):
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


def codec_baselines(dataset: Dataset, split="val", window=512, hop=128):
    """Reference predictions: duplicated mono, energy-matched mono, and
    per-channel energy-matched mono; averaged MAG/ENV over the split."""
    samples = dataset.samples(split)
    if not samples:
        raise ConfigError(f"no samples in split {split!r}")
    totals = {name: {"mag": 0.0, "env": 0.0} for name in
              ("mono_mono", "mono_energy", "stereo_energy")}
    for s in samples:
        gt = (s.left, s.right)
        e_mono = float(np.sum(s.mono.samples**2))
        e_left = float(np.sum(s.left.samples**2))
        e_right = float(np.sum(s.right.samples**2))
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
