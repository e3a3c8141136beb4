"""The benchmark's workloads: one training job and two closed render loops.

Each workload returns a ``Result``: operations attempted and failed, the
correctness checks run, and either the end-to-end metrics (untraced run) or
the per-layer metrics (traced run). See NOTES.md for why each was chosen.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from gsaudio import cli as gs_cli
from gsaudio import dataset as gs_dataset
from gsaudio.cli import load_run_config, train_config_from
from gsaudio.dataset import Dataset, pink_noise_burst
from gsaudio.dsp import Waveform
from gsaudio.model import SceneModel
from gsaudio.roomsim import HEAD_RADIUS, ShoeboxRoom
from gsaudio.scene import Pose
from gsaudio.training import Trainer, codec_baselines, evaluate_binaural

from tracing import Tracer

clock = time.perf_counter

# set-up is repeated, at least SETUP_REPS times and until SETUP_MIN_S have
# passed, and its median reported, so one slow repetition on a shared
# machine does not move setup_s
SETUP_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 25
# setup_s is set-up time at a fixed reference speed: each repetition's wall
# time in probe units (``Probed.ratios``), times the probe's time at that
# speed (its median on the 2-core Xeon VM the bounds were set on, 1.8-2.4 ms)
PROBE_REF_S = 0.002
# the acceptance dataset: `gen-data --n 100 --seed 7 --absorption 0.7`
ABSORPTION = 0.7
DATASET_SEED = 7
# the traced window's time outside every span may be at most this share of
# it; the harness's own work there (its loops and output checks, dropping
# each render's output, and the parts of set-up no span covers) took
# 0.2-1.4 % at full size, about 1 % at the smoke tests' sizes
MAX_UNATTRIBUTED = 0.03
# listeners keep this far from the walls, as in dataset synthesis
WALL_MARGIN = HEAD_RADIUS + 0.05


@dataclass(frozen=True)
class TrainSize:
    n_samples: int = 100
    init_points: int = 512
    # 2000 iterations would not fit the benchmark's time budget. At 800,
    # densify fires once (at 500) and a multiple of eval_interval makes the
    # last evaluation see the final model; the step-time median and p90 fall
    # inside the 512- and 1024-point phases, not on the edge between them
    iterations: int = 800
    densify_interval: int = 500
    eval_interval: int = 200


@dataclass(frozen=True)
class RenderSize:
    points: int
    check_samples: int = 60
    # p90 keeps at least ten samples beyond it
    min_requests: int = 110


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    info: dict = field(default_factory=dict)  # printed, not gated: name -> (value, unit)

    def check(self, name, ok):
        self.checks[name] = bool(ok)
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def correct(self):
        return self.failed == 0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def output_ok(left, right, mono):
    return (len(left) == len(mono) and len(right) == len(mono)
            and np.all(np.isfinite(left.samples)) and np.all(np.isfinite(right.samples)))


class RenderChecker:
    """While installed, checks the output pair of every ``SceneModel.render``
    call and keeps the latest output for one watched pose."""

    def __init__(self, watch_pose):
        self.watch_pose = watch_pose
        self.watch_output = None
        self.renders = 0
        self.failed = 0
        self._original = None

    def __enter__(self):
        self._original = original = SceneModel.render

        def checked(model, pose, mono):
            out = original(model, pose, mono)
            self.renders += 1
            self.failed += 0 if output_ok(*out, mono) else 1
            if pose is self.watch_pose:
                self.watch_output = out
            return out

        SceneModel.render = checked
        return self

    def __exit__(self, *exc):
        SceneModel.render = self._original


class Probe:
    """A fixed calibration kernel shaped like one render: the FFT and inverse
    FFT of a 1 s clip's 174 frames of 512 samples, a 257x148 by 148x128
    matmul, and a Python loop of heap operations and small-array distances
    like a k-d tree query's. About 2-2.5 ms on a 2-core Xeon VM.

    On a shared host the CPU can run at two speeds about 1.5x apart,
    switching every few seconds, so raw wall times spread by 20-30 % between
    runs. Timing the probe just before each operation and dividing the
    operation's time by it cancels most of that (see NOTES.md). The probe is
    the benchmark's own code, so no change to the engine moves it.

    With ``per_call_arrays`` its four large arrays (0.26-0.72 MB) are
    allocated on every call, as a render allocates its STFT-sized arrays;
    whether such arrays come from fresh mmap'd pages or from the heap
    depends on glibc's mmap threshold, which moves with the process's
    allocation history, and it changes a render's time by up to 40 %. A
    probe that allocates the same way moves with it. Otherwise they are
    allocated once: a train step's allocations change at densify, and a
    per-call probe then drifted by 0.3-1 ms for some training seeds only.
    """

    def __init__(self, per_call_arrays):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((174, 512))
        self._rows = rng.standard_normal((257, 148))
        self._weights = rng.standard_normal((148, 128))
        self._leaves = [rng.standard_normal((32, 3)) for _ in range(16)]
        self._keys = rng.standard_normal(512).tolist()
        self._spectrum = self._magnitude = self._frames_out = self._hidden = None
        if not per_call_arrays:
            self._spectrum = np.empty((174, 257), dtype=np.complex128)
            self._magnitude = np.empty((174, 257))
            self._frames_out = np.empty((174, 512))
            self._hidden = np.empty((257, 128))
        for _ in range(3):  # the first calls run cold
            self()

    def __call__(self):
        begin = clock()
        spectrum = np.fft.rfft(self._frames, axis=1, out=self._spectrum)
        magnitude = np.abs(spectrum, out=self._magnitude)
        parts = spectrum.view(np.float64).reshape(174, 257, 2)  # scale re and im in place
        np.multiply(parts, magnitude[:, :, None], out=parts)
        np.fft.irfft(spectrum, n=512, axis=1, out=self._frames_out)
        hidden = np.matmul(self._rows, self._weights, out=self._hidden)
        np.maximum(hidden, 0.0, out=hidden)
        heap = []
        for i, key in enumerate(self._keys):
            if len(heap) < 64:
                heapq.heappush(heap, (key, i))
            elif (key, i) > heap[0]:
                heapq.heapreplace(heap, (key, i))
        for leaf in self._leaves:
            ((leaf - 0.5) ** 2).sum(axis=1)
        return clock() - begin


class Probed:
    """``fn`` with the probe run just before each call; records the wall time
    of each call and of the probe before it."""

    def __init__(self, fn, probe):
        self.fn = fn
        self.probe = probe
        self.call_s = []
        self.probe_s = []

    def __call__(self, *args, **kwargs):
        self.probe_s.append(self.probe())
        begin = clock()
        out = self.fn(*args, **kwargs)
        self.call_s.append(clock() - begin)
        return out

    def ratios(self):
        """Each call's time over the slower of the probes just before and
        just after it (the next call's; the last call has only its own), so
        that a slowdown setting in during a call is seen by a probe too."""
        before = np.asarray(self.probe_s)
        after = np.append(before[1:], before[-1])
        return np.asarray(self.call_s) / np.maximum(before, after)

    def cost_metrics(self, total_s=None):
        """Per-operation cost in probe units: median and p90 of ``ratios``,
        and the mean over the whole job (``total_s``, net of probes; the
        calls' own total by default) over the mean probe time."""
        ratios = self.ratios()
        total_s = sum(self.call_s) if total_s is None else total_s
        return {
            "op_p50_probe": (float(np.percentile(ratios, 50)), "probe"),
            "op_p90_probe": (float(np.percentile(ratios, 90)), "probe"),
            "op_mean_probe": (total_s / (np.mean(self.probe_s) * len(self.call_s)), "probe"),
        }

    def wall_info(self, prefix):
        ms = np.asarray(self.call_s) * 1e3
        return {f"{prefix}_ms_p50": (float(np.percentile(ms, 50)), "ms"),
                f"{prefix}_ms_p90": (float(np.percentile(ms, 90)), "ms"),
                f"{prefix}_count": (len(ms), "count"),
                "probe_ms_p50": (float(np.median(self.probe_s)) * 1e3, "ms")}


def same_pair(a, b):
    return all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))


# --- counters recorded at span boundaries ---


def counter_hooks(tracer: Tracer):
    c = tracer.counters

    def backward(args, kwargs, result):
        c["tape_entries"] += len(args[0].entries)

    def field_forward(args, kwargs, result):
        c["field_rows"] += result.data.shape[0]

    def masks(args, kwargs, result):
        mix, diff = result.mixture, result.difference
        c["mask_bins"] += 2 * mix.size
        c["mask_clamped"] += np.count_nonzero(mix + diff < 0) + np.count_nonzero(mix - diff < 0)

    def densify(args, kwargs, added):
        c["points_added"] += added

    def prune(args, kwargs, removed):
        c["points_removed"] += removed

    return {"autodiff.backward": backward, "field.forward": field_forward,
            "model.masks": masks, "training.densify": densify, "training.prune": prune}


def trace_trainer(tracer: Tracer, trainer: Trainer):
    """Spans on the trainer's two optimiser instances, plus the alpha-tensor
    usefulness count: alpha tensors with a gradient over those registered."""
    net_params = trainer.model.network_params()

    def alpha_step(args, kwargs, result):
        grads = args[0]
        tracer.counters["alpha_registered"] += len(trainer.model.alphas)
        tracer.counters["alpha_useful"] += len(grads) - sum(1 for p in net_params if p in grads)

    tracer.patch(trainer.opt_nets, "step", "optim.step.nets")
    tracer.patch(trainer.opt_alpha, "step", "optim.step.alpha", alpha_step)


def layer_metrics(tracer: Tracer, points_final, overhead_ratio):
    c = tracer.counters

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out = tracer.span_metrics()
    steps = tracer.calls("optim.step.alpha")
    out.update({
        "autodiff.tape_entries_per_step": (ratio(c["tape_entries"],
                                                 tracer.calls("autodiff.backward")), "count"),
        "optim.alpha.useful_ratio": (ratio(c["alpha_useful"], c["alpha_registered"]), "ratio"),
        "optim.alpha.registered_mean": (ratio(c["alpha_registered"], steps), "count"),
        "field.rows_per_call": (ratio(c["field_rows"], tracer.calls("field.forward")), "count"),
        "training.densify.points_added": (int(c["points_added"]), "count"),
        "training.points_final": (int(points_final), "count"),
        "training.prune.points_removed": (int(c["points_removed"]), "count"),
        "binauralizer.clamp_ratio": (ratio(c["mask_clamped"], c["mask_bins"]), "ratio"),
        "trace.overhead_ratio": (float(overhead_ratio), "ratio"),
        "trace.unattributed_s": (tracer.unattributed_s, "s"),
    })
    return out


def check_trace(result: Result, tracer: Tracer, expected_calls):
    """Span counts the workload implies; the breakdown closing on the traced
    window's wall time; and the spans covering the window's work. Only the
    last can fail on a correct tracer: it catches engine work that runs
    outside every span."""
    for name, want in expected_calls.items():
        result.check(f"calls {name} == {want}", tracer.calls(name) == want)
    result.check("self times + unattributed == wall",
                 abs(tracer.closure_error_s()) <= 1e-6 * max(tracer.wall_s, 1.0))
    result.check(f"unattributed <= {MAX_UNATTRIBUTED:.0%} of wall",
                 tracer.unattributed_s <= MAX_UNATTRIBUTED * tracer.wall_s)


# --- shared set-up ---


def base_config(seed, **overrides):
    return load_run_config(overrides={"seed": seed, "absorption": ABSORPTION, **overrides})


def synthesize(cfg, out_dir, n_samples):
    """`gen-data` with the run config; called through the module so the
    traced run sees it."""
    gs_dataset.synth_dataset(
        out_dir=out_dir,
        room=ShoeboxRoom(dimensions=np.asarray(cfg["room"], dtype=np.float64),
                         absorption=np.asarray(cfg["absorption"], dtype=np.float64)),
        n_samples=n_samples, signal=cfg["signal"], seed=int(cfg["seed"]),
        sample_rate=int(cfg["sample_rate"]), duration=float(cfg["duration"]),
        max_order=int(cfg["max_order"]), ir_duration=float(cfg["ir_duration"]),
        with_rir=False, min_source_distance=float(cfg["min_source_distance"]))
    return Dataset.load(out_dir)


def repeat_setup(setup: Probed, reps):
    """Runs ``setup`` at least ``reps`` times and until SETUP_MIN_S have
    passed; each result is dropped before the next run."""
    while len(setup.call_s) < reps or (sum(setup.call_s) < SETUP_MIN_S
                                       and len(setup.call_s) < SETUP_MAX_REPS):
        setup()
        gc.collect()  # free this repetition before the next, so peak RSS holds one


def setup_metrics(setup: Probed):
    """``setup_s`` at the reference speed, and the raw wall-time median,
    which is printed but not gated."""
    return ({"setup_s": (float(np.median(setup.ratios())) * PROBE_REF_S, "s")},
            {"setup_wall_s": (statistics.median(setup.call_s), "s")})


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# --- train-512 ---


def train_setup(cfg, size: TrainSize, work):
    """The acceptance dataset, then a model and trainer seeded from the
    workload seed (point cloud, weights, order of training samples)."""
    dataset = synthesize(dict(cfg, seed=DATASET_SEED), fresh_dir(os.path.join(work, "data")),
                         size.n_samples)
    model = gs_cli.build_model(dataset, cfg)
    return dataset, Trainer(model, dataset, train_config_from(cfg))


def train_job(cfg, size, work, tracer=None, probe=None, setup=None):
    """Set-up (``setup``, by default ``train_setup``) plus one
    ``Trainer.run``; returns timings, the final eval record, the checker of
    the evaluation renders and, with ``probe``, the probed train steps."""
    if tracer is not None:
        tracer.patch_sites(counter_hooks(tracer))
        tracer.start()
    begin = clock()
    dataset, trainer = setup() if setup is not None else train_setup(cfg, size, work)
    if tracer is not None:
        trace_trainer(tracer, trainer)
    val = dataset.samples("val")
    steps = None
    if probe is not None:
        trainer.train_step = steps = Probed(trainer.train_step, probe)
    with RenderChecker(watch_pose=val[0].pose) as checker:
        run_begin = clock()
        run = trainer.run(fresh_dir(os.path.join(work, "run")))
        run_s = clock() - run_begin
    if tracer is not None:
        tracer.stop()
    return {"run_s": run_s, "wall_s": clock() - begin,
            "final": run.eval_records[-1], "checker": checker, "steps": steps,
            "trainer": trainer, "dataset": dataset, "val": val}


def train_checks(result: Result, job):
    final, dataset, val, checker = job["final"], job["dataset"], job["val"], job["checker"]
    window, hop = job["trainer"].config.window, job["trainer"].config.hop
    baseline = codec_baselines(dataset, "val", window, hop)["mono_energy"]["mag"]
    result.attempted += job["trainer"].iteration + checker.renders
    result.failed += checker.failed
    result.check("val_mag finite and below the mono_energy baseline",
                 np.isfinite(final["mag"]) and final["mag"] < baseline)
    again = job["trainer"].model.render(val[0].pose, val[0].mono)
    result.check("re-render bit-identical", checker.watch_output is not None
                 and same_pair(again, checker.watch_output))


def run_train(seed, seconds, trace, work, size=TrainSize()):
    """`seconds` does not size this job: it is a fixed number of iterations,
    so its final validation figures repeat exactly at a given seed."""
    cfg = base_config(seed, n_samples=size.n_samples, init_points=size.init_points,
                      iterations=size.iterations, densify_interval=size.densify_interval,
                      eval_interval=size.eval_interval)
    result = Result()
    if not trace:
        probe = Probe(per_call_arrays=False)
        setup = Probed(partial(train_setup, cfg, size, work), probe)
        repeat_setup(setup, SETUP_REPS - 1)
        job = train_job(cfg, size, work, probe=probe, setup=setup)
        train_checks(result, job)
        steps = job["steps"]
        run_net_s = job["run_s"] - sum(steps.probe_s)
        setup_metric, setup_info = setup_metrics(setup)
        result.info = {"train_iters_per_s": (size.iterations / run_net_s, "1/s"),
                       **steps.wall_info("step"), **setup_info}
        result.metrics = {
            **steps.cost_metrics(total_s=run_net_s),
            "val_mag": (float(job["final"]["mag"]), "1"),
            "val_env": (float(job["final"]["env"]), "1"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            **setup_metric,
        }
        return result

    reference = train_job(cfg, size, work)
    tracer = Tracer()
    job = train_job(cfg, size, work, tracer)
    train_checks(result, job)
    result.check("traced run reproduces the untraced validation figures",
                 job["final"]["mag"] == reference["final"]["mag"]
                 and job["final"]["env"] == reference["final"]["env"])
    renders = job["checker"].renders
    check_trace(result, tracer, {
        "training.train_step": size.iterations,
        "model.render": renders,
        "dsp.istft": 2 * renders,
        "model.context": size.iterations + renders,
        "cli.build_model": 1,
    })
    result.check("evaluation renders == evaluations x val samples",
                 renders == (size.iterations // size.eval_interval + 1) * len(job["val"]))
    result.metrics = layer_metrics(tracer, job["trainer"].model.point_count,
                                   tracer.wall_s / reference["wall_s"])
    return result


# --- render-512 / render-32768 ---


def requests(cfg, seed):
    """Endless stream of (pose, 1 s mono clip): a fresh random pose inside
    the room and a fresh pink-noise clip per request."""
    rng = np.random.default_rng([seed, 2])
    dims = np.asarray(cfg["room"], dtype=np.float64)
    sample_rate = int(cfg["sample_rate"])
    n = int(round(float(cfg["duration"]) * sample_rate))
    while True:
        position = rng.uniform(WALL_MARGIN, dims - WALL_MARGIN)
        pose = Pose.from_yaw(position, float(rng.uniform(0.0, 2.0 * np.pi)))
        yield pose, Waveform(pink_noise_burst(n, sample_rate, rng), sample_rate)


def render_setup(cfg, dataset, work, warmup):
    """Model build, save, load, and the first render, of request ``warmup``
    (it builds the lazy k-d tree); returns the loaded model."""
    directory = os.path.join(work, "model")  # each save overwrites the same files
    gs_cli.build_model(dataset, cfg).save(directory)
    model = SceneModel.load(directory)
    model.render(*warmup)
    return model


def render_loop(render, stream, seconds=None):
    """Closed loop with one client: serves ``stream`` until it runs out or,
    with ``seconds``, until they have passed."""
    deadline = None if seconds is None else clock() + seconds
    for pose, mono in stream:
        if deadline is not None and clock() >= deadline:
            break
        render(pose, mono)


def render_checks(result: Result, model, check_set, checker, first):
    """Every served request is an operation; ``first`` is the request the
    checker watched, rendered again here."""
    result.attempted += checker.renders
    result.failed += checker.failed
    result.check("re-render bit-identical", checker.watch_output is not None
                 and same_pair(model.render(*first), checker.watch_output))
    val = evaluate_binaural(model, check_set, None, model.window, model.hop)
    result.check("check-set MAG/ENV finite", np.isfinite(val["mag"]) and np.isfinite(val["env"]))
    return val


def run_render(seed, seconds, trace, work, size: RenderSize):
    # one served scene, like train-512's one dataset: the model and the
    # check set are fixed and the workload seed draws the requests. With a
    # model drawn from the seed, the per-request cost on render-512 fell
    # into groups about 10 % apart by model
    cfg = base_config(DATASET_SEED, init_points=size.points)
    check_set = synthesize(cfg, fresh_dir(os.path.join(work, "check")), size.check_samples)
    warmup = next(requests(cfg, seed + 1))
    result = Result()
    if not trace:
        probe = Probe(per_call_arrays=True)
        setup = Probed(partial(render_setup, cfg, check_set, work, warmup), probe)
        repeat_setup(setup, SETUP_REPS - 1)
        model = setup()
        stream = requests(cfg, seed)
        first = next(stream)
        stream = itertools.chain([first], stream)
        with RenderChecker(watch_pose=first[0]) as checker:
            render = Probed(model.render, probe)
            begin = clock()
            render_loop(render, itertools.islice(stream, size.min_requests))
            # resident memory grows with every request served (NOTES.md), so
            # it is read after the same number of requests in every run
            rss_mb = peak_rss_mb()
            render_loop(render, stream, seconds=seconds - (clock() - begin))
        val = render_checks(result, model, check_set, checker, first)
        setup_metric, setup_info = setup_metrics(setup)
        result.info = {"requests_per_s": (len(render.call_s) / sum(render.call_s), "1/s"),
                       **render.wall_info("render"), **setup_info}
        result.metrics = {
            **render.cost_metrics(),
            "val_mag": (float(val["mag"]), "1"),
            "val_env": (float(val["env"]), "1"),
            "peak_rss_mb": (rss_mb, "MB"),
            **setup_metric,
        }
        return result

    # a fixed list of requests, made before either pass so that generating
    # them is outside the traced window and the traced counts repeat exactly
    stream = list(itertools.islice(requests(cfg, seed), size.min_requests))
    begin = clock()
    model = render_setup(cfg, check_set, work, warmup)
    render_loop(model.render, stream)
    untraced_s = clock() - begin
    tracer = Tracer()
    tracer.patch_sites(counter_hooks(tracer))
    tracer.start()
    model = render_setup(cfg, check_set, work, warmup)
    with RenderChecker(watch_pose=stream[0][0]) as checker:
        render_loop(model.render, stream)
    tracer.stop()
    render_checks(result, model, check_set, checker, stream[0])
    renders = checker.renders + 1  # the set-up's first render
    check_trace(result, tracer, {
        "model.render": renders,
        "dsp.istft": 2 * renders,
        "model.context": renders,
        "model.load": 1,
        "cli.build_model": 1,
    })
    result.metrics = layer_metrics(tracer, model.point_count, tracer.wall_s / untraced_s)
    return result


WORKLOADS = {
    "train-512": run_train,
    "render-512": partial(run_render, size=RenderSize(points=512)),
    "render-32768": partial(run_render, size=RenderSize(points=32768)),
}
