"""Operator surface: dataset generation, training, rendering, evaluation,
ablations, and benchmarking.

Exit codes: 0 success, 1 usage/config, 2 numeric failure, 3 I/O. The
GSAUDIO_LOG environment variable sets the log level. ``--threads N`` pins the
BLAS thread pools (this must happen before numpy loads, which is why the
module scans argv at import time); ``--threads 1`` is the bit-determinism
contract.
"""

from __future__ import annotations

import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _pin_threads(argv):
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is not None and value.isdigit():
        for var in _THREAD_VARS:
            os.environ[var] = value


_pin_threads(sys.argv)

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from .binauralizer import MaskNetwork, binauralize  # noqa: E402
from .dataset import Dataset, synth_dataset  # noqa: E402
from .dsp import Waveform  # noqa: E402
from .errors import (ConfigError, ContractViolation, DataError, EvaluationError,  # noqa: E402
                     GeometryError, GsAudioError, SchemaError)
from .field import FieldNetwork  # noqa: E402
from .model import SceneModel  # noqa: E402
from .roomsim import ShoeboxRoom  # noqa: E402
from .scene import (Pose, alpha_width, init_audio_points, load_gaussian_cloud,  # noqa: E402
                    synthetic_cloud)
from .training import (TrainConfig, Trainer, codec_baselines, evaluate_binaural,  # noqa: E402
                       evaluate_rir)
from .wavio import read_wav, write_wav  # noqa: E402

log = logging.getLogger("gsaudio.cli")

SCHEMA_VERSION = 1

ALPHA_ABLATION_ROWS = (
    ("O",), ("S",), ("R",), ("SH",),
    ("S", "O"), ("SH", "O"), ("S", "SH"), ("SH", "R"),
    ("S", "SH", "O"), ("SH", "R", "O"),
    ("S", "SH", "R", "O"),
)
VICINITY_ABLATION_PERCENTILES = (5.0, 10.0, 15.0, 20.0, 25.0)

_DEFAULTS = {
    "mode": "binaural",
    "seed": 0,
    "threads": None,
    "out": None,
    "dataset": None,
    "point_cloud": None,
    "checkpoint": None,
    "resume": None,
    "split": "val",
    # training
    "iterations": 2000,
    "lambda_a": 0.01,
    "lr_alpha": 1.6e-4,
    "lr_nets": 5e-4,
    "densify_interval": 500,
    "densify_threshold": 0.0004,
    "prune_interval": 3000,
    "prune_min_neighbors": 8,
    "prune_radius": 0.1,
    "vicinity_percentile": 15.0,
    "eval_interval": 200,
    "window": 512,
    "hop": 128,
    "rir_time_batch": 1024,
    "init_points": 512,
    "alpha_init": ["SH", "R"],
    # data generation
    "room": [6.0, 4.0, 3.0],
    "absorption": 0.3,
    "max_order": 3,
    "n_samples": 100,
    "signal": "pink",
    "sample_rate": 22050,
    "duration": 1.0,
    "ir_duration": 0.5,
    "source": None,
    "with_rir": None,
    "min_source_distance": 1.2,
    # render
    "pose": None,
    "mono": None,
    # bench / ablate
    "n_renders": 100,
    "axis": None,
    "ablate_iterations": None,
}


def load_run_config(path=None, overrides=None):
    """Defaults, then the config file, then flags; unknown keys rejected."""
    cfg = dict(_DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
        cfg.update(loaded)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key: {key}")
        cfg[key] = value
    return cfg


def train_config_from(cfg, mode=None, percentile=None, iterations=None, seed=None):
    return TrainConfig(
        mode=mode or cfg["mode"],
        iterations=int(iterations if iterations is not None else cfg["iterations"]),
        lambda_a=float(cfg["lambda_a"]),
        lr_alpha=float(cfg["lr_alpha"]),
        lr_nets=float(cfg["lr_nets"]),
        densify_interval=int(cfg["densify_interval"]),
        densify_threshold=float(cfg["densify_threshold"]),
        prune_interval=int(cfg["prune_interval"]),
        prune_min_neighbors=int(cfg["prune_min_neighbors"]),
        prune_radius=float(cfg["prune_radius"]),
        vicinity_percentile=float(percentile if percentile is not None else cfg["vicinity_percentile"]),
        eval_interval=int(cfg["eval_interval"]),
        seed=int(seed if seed is not None else cfg["seed"]),
        window=int(cfg["window"]),
        hop=int(cfg["hop"]),
        rir_time_batch=int(cfg["rir_time_batch"]),
    )


def build_model(dataset: Dataset, cfg, alpha_selection=None, percentile=None, mode=None):
    """Fresh model for a dataset: points from the supplied splat PLY or a
    synthesized uniform cloud, networks seeded from the run seed."""
    mode = mode or cfg["mode"]
    selection = tuple(alpha_selection if alpha_selection is not None else cfg["alpha_init"])
    build_rng = np.random.default_rng([int(cfg["seed"]), 17])
    if cfg["point_cloud"]:
        cloud = load_gaussian_cloud(cfg["point_cloud"])
    else:
        lo, hi = dataset.bounds()
        cloud = synthetic_cloud(lo, hi, int(cfg["init_points"]), build_rng)
    points = init_audio_points(cloud, selection)
    field = FieldNetwork(alpha_dim=alpha_width(selection), rng=build_rng, seed=int(cfg["seed"]))
    masknet = MaskNetwork(mode=mode, rng=build_rng, seed=int(cfg["seed"]))
    lo, hi = dataset.bounds()
    return SceneModel(
        points=points, field=field, masknet=masknet, source=dataset.source,
        bounds=(lo, hi),
        percentile=float(percentile if percentile is not None else cfg["vicinity_percentile"]),
        window=int(cfg["window"]), hop=int(cfg["hop"]),
        sample_rate=dataset.sample_rate, seed=int(cfg["seed"]),
    )


def _require(cfg, key, hint):
    if not cfg[key]:
        raise ConfigError(f"missing required option: {hint}")
    return cfg[key]


def _room_from(cfg):
    return ShoeboxRoom(dimensions=np.asarray(cfg["room"], dtype=np.float64),
                       absorption=np.asarray(cfg["absorption"], dtype=np.float64))


def cmd_gen_data(cfg):
    out = _require(cfg, "out", "--out")
    with_rir = cfg["with_rir"] if cfg["with_rir"] is not None else cfg["mode"] == "rir"
    manifest = synth_dataset(
        out_dir=out, room=_room_from(cfg), n_samples=int(cfg["n_samples"]),
        signal=cfg["signal"], seed=int(cfg["seed"]), sample_rate=int(cfg["sample_rate"]),
        duration=float(cfg["duration"]), max_order=int(cfg["max_order"]),
        ir_duration=float(cfg["ir_duration"]),
        source=None if cfg["source"] is None else np.asarray(cfg["source"], dtype=np.float64),
        with_rir=bool(with_rir),
        min_source_distance=float(cfg["min_source_distance"]),
    )
    splits = [r["split"] for r in manifest["samples"]]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "out": out,
        "n_samples": len(manifest["samples"]),
        "train": splits.count("train"),
        "val": splits.count("val"),
        "with_rir": bool(with_rir),
        "signal": manifest["signal"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train(cfg):
    out = _require(cfg, "out", "--out")
    dataset = Dataset.load(_require(cfg, "dataset", "--dataset"))
    train_cfg = train_config_from(cfg)
    if cfg["resume"]:
        trainer = Trainer.resume(cfg["resume"], dataset, train_cfg)
        log.info("resuming from %s at iteration %d", cfg["resume"], trainer.iteration)
    else:
        model = build_model(dataset, cfg)
        trainer = Trainer(model, dataset, train_cfg)
    result = trainer.run(out)
    last = result.eval_records[-1] if result.eval_records else {}
    summary = {
        "schema_version": SCHEMA_VERSION,
        "out": out,
        "iterations": trainer.iteration,
        "points": trainer.model.point_count,
        "metrics": result.metrics_path,
        "final_eval": last,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _parse_pose(spec):
    try:
        values = [float(v) for v in str(spec).split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad pose {spec!r}: {exc}") from exc
    if len(values) != 4:
        raise ConfigError("pose must be x,y,z,yaw")
    return Pose.from_yaw(np.asarray(values[:3]), values[3])


def cmd_render(cfg):
    checkpoint = _require(cfg, "checkpoint", "--checkpoint")
    out = _require(cfg, "out", "--out")
    pose = _parse_pose(_require(cfg, "pose", "--pose x,y,z,yaw"))
    mono_path = _require(cfg, "mono", "--mono")
    model = SceneModel.load(checkpoint)
    lo, hi = model.bounds
    if np.any(pose.position < lo) or np.any(pose.position > hi):
        log.warning("pose %s outside scene bounds; rendering anyway", pose.position.tolist())
    data, sr = read_wav(mono_path)
    if data.ndim != 1:
        raise ContractViolation(f"{mono_path}: render needs a mono input")
    left, right = model.render(pose, Waveform(data, sr))
    write_wav(out, np.column_stack([left.samples, right.samples]), sr)
    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "out": out,
        "left_rms": left.rms(),
        "right_rms": right.rms(),
    }, sort_keys=True))
    return 0


def cmd_eval(cfg):
    checkpoint = _require(cfg, "checkpoint", "--checkpoint")
    dataset = Dataset.load(_require(cfg, "dataset", "--dataset"))
    split = cfg["split"]
    if split not in ("train", "val"):
        raise ConfigError(f"split must be train or val, got {split!r}")
    model = SceneModel.load(checkpoint)
    if model.mode == "rir" and not dataset.manifest.get("with_rir"):
        raise ConfigError("rir-mode checkpoint but the dataset has no impulse responses")
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": model.mode,
        "split": split,
        "checkpoint": checkpoint,
        "n_samples": len(dataset.records(split)),
    }
    if model.mode == "binaural":
        report["metrics"] = evaluate_binaural(model, dataset, split, model.window, model.hop)
        report["baselines"] = codec_baselines(dataset, split, model.window, model.hop)
    else:
        report["metrics"] = evaluate_rir(model, dataset, split)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    out_path = cfg["out"] or os.path.join(checkpoint, f"eval_{split}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


def cmd_ablate(cfg):
    axis = cfg["axis"]
    if axis not in ("alpha_init", "vicinity"):
        raise ConfigError("axis must be alpha_init or vicinity")
    out = _require(cfg, "out", "--out")
    dataset = Dataset.load(_require(cfg, "dataset", "--dataset"))
    iterations = cfg["ablate_iterations"] or cfg["iterations"]
    os.makedirs(out, exist_ok=True)
    rows = []
    if axis == "alpha_init":
        settings = [{"label": ",".join(sel), "selection": sel, "dim": alpha_width(sel)}
                    for sel in ALPHA_ABLATION_ROWS]
    else:
        settings = [{"label": f"{p:g}", "percentile": p} for p in VICINITY_ABLATION_PERCENTILES]
    for setting in settings:
        run_dir = os.path.join(out, f"{axis}_{setting['label'].replace(',', '_')}")
        model = build_model(dataset, cfg,
                            alpha_selection=setting.get("selection"),
                            percentile=setting.get("percentile"))
        train_cfg = train_config_from(cfg, percentile=setting.get("percentile"),
                                      iterations=iterations)
        trainer = Trainer(model, dataset, train_cfg)
        trainer.run(run_dir)
        metrics = evaluate_binaural(trainer.model, dataset, "val",
                                    train_cfg.window, train_cfg.hop)
        row = {"label": setting["label"], "mag": metrics["mag"], "env": metrics["env"]}
        if "dim" in setting:
            row["dim"] = setting["dim"]
        if "percentile" in setting:
            row["percentile"] = setting["percentile"]
        rows.append(row)
        log.info("ablation %s=%s: MAG %.4f ENV %.4f", axis, setting["label"],
                 metrics["mag"], metrics["env"])
    table = {"schema_version": SCHEMA_VERSION, "axis": axis,
             "iterations": int(iterations), "rows": rows}
    with open(os.path.join(out, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    headers = ["label"] + (["dim"] if axis == "alpha_init" else ["percentile"]) + ["mag", "env"]
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(row.get(h, "")) for h in headers))
    with open(os.path.join(out, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(json.dumps(table, sort_keys=True))
    return 0


def cmd_bench(cfg):
    checkpoint = _require(cfg, "checkpoint", "--checkpoint")
    n_renders = int(cfg["n_renders"])
    if n_renders < 10:
        raise ConfigError("bench needs at least 10 renders")
    model = SceneModel.load(checkpoint)
    rng = np.random.default_rng(int(cfg["seed"]))
    mono = Waveform(rng.standard_normal(model.sample_rate) * 0.25, model.sample_rate)
    lo, hi = model.bounds
    pose = Pose.from_yaw((lo + hi) / 2.0 + np.array([0.3, 0.2, 0.0]), 0.7)
    model.render(pose, mono)  # warm-up
    latencies = []
    breakdown = {"context_s": 0.0, "masks_s": 0.0, "reconstruct_s": 0.0}
    for _ in range(n_renders):
        t0 = time.perf_counter()
        ctx = model.context(None, pose)
        t1 = time.perf_counter()
        masks = model.masks(pose, context=ctx)
        t2 = time.perf_counter()
        binauralize(mono, masks, model.window, model.hop)
        t3 = time.perf_counter()
        latencies.append(t3 - t0)
        breakdown["context_s"] += t1 - t0
        breakdown["masks_s"] += t2 - t1
        breakdown["reconstruct_s"] += t3 - t2
    lat = np.asarray(latencies)
    report = {
        "schema_version": SCHEMA_VERSION,
        "n_renders": n_renders,
        "seconds_per_render": {
            "mean": float(lat.mean()),
            "median": float(np.median(lat)),
            "p95": float(np.percentile(lat, 95)),
        },
        "breakdown_mean_s": {k: v / n_renders for k, v in breakdown.items()},
        "latencies_s": [float(v) for v in lat],
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_common(p):
    p.add_argument("--config", help="JSON run config; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help="BLAS thread count (1 = bit-deterministic)")
    p.add_argument("--out")
    p.add_argument("--mode", choices=["binaural", "rir"])


def build_parser():
    parser = _Parser(prog="gsaudio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a shoebox dataset")
    _add_common(p)
    p.add_argument("--n", type=int, dest="n_samples")
    p.add_argument("--signal", choices=["pink", "sweep"])
    p.add_argument("--with-rir", action="store_const", const=True, dest="with_rir")
    p.add_argument("--absorption", type=float)
    p.add_argument("--ir-duration", type=float, dest="ir_duration")

    p = sub.add_parser("train", help="train a model on a dataset")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--point-cloud", dest="point_cloud")
    p.add_argument("--iterations", type=int)
    p.add_argument("--eval-interval", type=int, dest="eval_interval")
    p.add_argument("--resume", help="checkpoint directory to continue from")

    p = sub.add_parser("render", help="binauralize a mono wav at a pose")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--pose", help="x,y,z,yaw")
    p.add_argument("--mono")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--dataset")
    p.add_argument("--split", choices=["train", "val"])

    p = sub.add_parser("ablate", help="sweep alpha-init subsets or vicinity percentiles")
    _add_common(p)
    p.add_argument("--dataset")
    p.add_argument("--axis", choices=["alpha_init", "vicinity"])
    p.add_argument("--iterations", type=int, dest="ablate_iterations")

    p = sub.add_parser("bench", help="render latency report")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--n", type=int, dest="n_renders")
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "render": cmd_render,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "bench": cmd_bench,
}


def main(argv=None):
    level = os.environ.get("GSAUDIO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        cfg = load_run_config(args.config, overrides)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, SchemaError, DataError, GeometryError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EvaluationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except GsAudioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
