"""Operator surface: dataset generation, training, rendering, evaluation,
ablations, and benchmarking.

Exit codes: 0 success, 1 usage/config (a config value of the wrong type or
range is named with its key), 2 numeric failure, 3 I/O. GSAUDIO_LOG sets the
log level. ``--threads N`` (N >= 1) pins the BLAS thread pools (this must
happen before numpy loads, which is why the module scans argv at import
time, and why it is read from argv only, never from a config file);
``--threads 1`` is the bit-determinism contract.
"""

from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _thread_count(text):
    """``--threads``' type: an integer >= 1."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _pin_threads(argv):
    value = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--threads="):
            value = arg.split("=", 1)[1]
    if value is not None and value.isdecimal() and int(value) >= 1:  # else the parser errs
        for var in _THREAD_VARS:
            os.environ[var] = value


_pin_threads(sys.argv)

import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import time  # noqa: E402
from typing import get_args  # noqa: E402

import numpy as np  # noqa: E402

# what every command needs; the data, simulation and training modules are
# imported by the commands that use them, so ``render`` loads none of them
from .binauralizer import MaskNetwork, binauralize  # noqa: E402
from .dsp import Waveform  # noqa: E402
from .errors import ConfigError, ContractViolation, EvaluationError, GsAudioError  # noqa: E402
from .field import FieldNetwork  # noqa: E402
from .model import SceneModel  # noqa: E402
from .scene import (Pose, alpha_width, init_audio_points, load_gaussian_cloud,  # noqa: E402
                    synthetic_cloud)
from .settings import SETTINGS, load_run_config  # noqa: E402
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


def train_config_from(cfg, iterations=None):
    """The run config's ``TrainConfig`` fields; ``iterations`` overrides the
    config when given."""
    from .training import TrainConfig

    if iterations is not None:
        cfg = dict(cfg, iterations=iterations)
    return TrainConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(TrainConfig)})


def build_model(dataset, cfg, alpha_selection=None, percentile=None):
    """Fresh model for a dataset: points from the supplied splat PLY or a
    synthesized uniform cloud, networks seeded from the run seed. The model
    owns the run config's mode, vicinity percentile, window and hop."""
    selection = tuple(alpha_selection if alpha_selection is not None else cfg["alpha_init"])
    build_rng = np.random.default_rng([cfg["seed"], 17])
    lo, hi = dataset.bounds()
    if cfg["point_cloud"]:
        cloud = load_gaussian_cloud(cfg["point_cloud"])
    else:
        cloud = synthetic_cloud(lo, hi, cfg["init_points"], build_rng)
    points = init_audio_points(cloud, selection)
    field = FieldNetwork(alpha_dim=alpha_width(selection), rng=build_rng)
    masknet = MaskNetwork(mode=cfg["mode"], rng=build_rng)
    return SceneModel(
        points=points, field=field, masknet=masknet, source=dataset.source,
        bounds=(lo, hi),
        percentile=percentile if percentile is not None else cfg["vicinity_percentile"],
        window=cfg["window"], hop=cfg["hop"], sample_rate=dataset.sample_rate, seed=cfg["seed"],
    )


def _require(cfg, key, hint):
    if not cfg[key]:
        raise ConfigError(f"missing required option: {hint}")
    return cfg[key]


def _room_from(cfg):
    from .roomsim import ShoeboxRoom

    return ShoeboxRoom(dimensions=np.asarray(cfg["room"], dtype=np.float64),
                       absorption=np.asarray(cfg["absorption"], dtype=np.float64))


def cmd_gen_data(cfg):
    from .dataset import synth_dataset

    out = _require(cfg, "out", "--out")
    with_rir = cfg["with_rir"] if cfg["with_rir"] is not None else cfg["mode"] == "rir"
    manifest = synth_dataset(
        out_dir=out, room=_room_from(cfg), n_samples=cfg["n_samples"], signal=cfg["signal"],
        seed=cfg["seed"], sample_rate=cfg["sample_rate"], duration=cfg["duration"],
        max_order=cfg["max_order"], ir_duration=cfg["ir_duration"],
        source=cfg["source"],
        with_rir=with_rir, min_source_distance=cfg["min_source_distance"],
    )
    splits = [r["split"] for r in manifest["samples"]]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "out": out,
        "n_samples": len(manifest["samples"]),
        "train": splits.count("train"),
        "val": splits.count("val"),
        "with_rir": with_rir,
        "signal": manifest["signal"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_train(cfg):
    from .dataset import Dataset
    from .training import Trainer

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
        values = [float(v) for v in spec.split(",")]
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
    from .dataset import Dataset
    from .training import codec_baselines, evaluate_binaural, evaluate_rir

    checkpoint = _require(cfg, "checkpoint", "--checkpoint")
    dataset = Dataset.load(_require(cfg, "dataset", "--dataset"))
    split = cfg["split"]
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
    from .dataset import Dataset
    from .training import Trainer, evaluate_binaural

    axis = _require(cfg, "axis", "--axis")
    if cfg["mode"] != "binaural":
        raise ConfigError("ablate scores renders, so it needs binaural mode")
    out = _require(cfg, "out", "--out")
    dataset = Dataset.load(_require(cfg, "dataset", "--dataset"))
    iterations = (cfg["iterations"] if cfg["ablate_iterations"] is None
                  else cfg["ablate_iterations"])
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
        trainer = Trainer(model, dataset, train_config_from(cfg, iterations=iterations))
        records = trainer.run(run_dir).eval_records
        # the run's last record scored the final model when the last iteration evaluated
        metrics = (records[-1] if records and records[-1]["iteration"] == trainer.iteration
                   else evaluate_binaural(model, dataset, "val", model.window, model.hop))
        row = {"label": setting["label"], "mag": metrics["mag"], "env": metrics["env"]}
        if "dim" in setting:
            row["dim"] = setting["dim"]
        if "percentile" in setting:
            row["percentile"] = setting["percentile"]
        rows.append(row)
        log.info("ablation %s=%s: MAG %.4f ENV %.4f", axis, setting["label"],
                 metrics["mag"], metrics["env"])
    table = {"schema_version": SCHEMA_VERSION, "axis": axis,
             "iterations": iterations, "rows": rows}
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
    n_renders = cfg["n_renders"]
    model = SceneModel.load(checkpoint)
    rng = np.random.default_rng(cfg["seed"])
    mono = Waveform(rng.standard_normal(model.sample_rate) * 0.25, model.sample_rate)
    lo, hi = model.bounds
    pose = Pose.from_yaw((lo + hi) / 2.0 + np.array([0.3, 0.2, 0.0]), 0.7)
    # warm-up: the first render fills the model's cached source half, the
    # second its alpha projection, so the timed renders run in steady state
    for _ in range(2):
        model.render(pose, mono)
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
        # the warm-up filled the cache, so context_s is the listener half,
        # gathered from the alpha projection, plus the cache-key check
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


# command: (function, help, the setting flags it takes besides --config,
# --threads and --out; "--flag=key" where the key is not the flag's name)
_COMMANDS = {
    "gen-data": (cmd_gen_data, "synthesize a shoebox dataset",
                 "--seed --mode --n=n_samples --signal --with-rir --absorption --ir-duration"),
    "train": (cmd_train, "train a model on a dataset",
              "--seed --mode --dataset --point-cloud --iterations --eval-interval --resume"),
    "render": (cmd_render, "binauralize a mono wav at a pose", "--checkpoint --pose --mono"),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset split",
             "--checkpoint --dataset --split"),
    "ablate": (cmd_ablate, "sweep alpha-init subsets or vicinity percentiles",
               "--seed --dataset --axis --iterations=ablate_iterations"),
    "bench": (cmd_bench, "render latency report", "--seed --checkpoint --n=n_renders"),
}
_HELP = {"--resume": "checkpoint directory to continue from", "--pose": "x,y,z,yaw"}


def build_parser():
    """The subcommands; each setting flag takes its type and choices from the
    settings table."""
    parser = _Parser(prog="gsaudio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON run config; flags override it")
        p.add_argument("--threads", type=_thread_count,
                       help="BLAS thread count (1 = bit-deterministic)")
        for flag, _, key in (f.partition("=") for f in ["--out", *flags.split()]):
            key = key or flag[2:].replace("-", "_")
            kind, choices = SETTINGS[key].kind, SETTINGS[key].choices
            if kind is bool:  # a switch: given means true
                p.add_argument(flag, dest=key, action="store_const", const=True)
            else:  # one value: for absorption's number-or-list, a number
                p.add_argument(flag, dest=key, type=(get_args(kind) or (kind,))[0],
                               choices=choices or None, help=_HELP.get(flag))
    return parser


def main(argv=None):
    level = os.environ.get("GSAUDIO_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # --threads took effect at import (_pin_threads); it is no run setting
        overrides = {k: v for k, v in vars(args).items()
                     if k not in ("command", "config", "threads")}
        cfg = load_run_config(args.config, overrides)
        return _COMMANDS[args.command][0](cfg)
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
