import argparse
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gsaudio.scene import save_gaussian_cloud, synthetic_cloud
from gsaudio.wavio import read_wav, write_wav

from conftest import run_cli


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    proc = run_cli(["gen-data", "--out", out, "--n", 12, "--seed", 5,
                    "--absorption", 0.7])
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def tiny_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run") / "run"
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", out,
                    "--iterations", 40, "--eval-interval", 20, "--seed", 5])
    assert proc.returncode == 0, proc.stderr
    return out


def test_gen_data_summary_and_exit(tiny_dataset):
    assert (tiny_dataset / "manifest.json").exists()
    manifest = json.loads((tiny_dataset / "manifest.json").read_text())
    assert len(manifest["samples"]) == 12


def test_gen_data_validates_minimum():
    proc = run_cli(["gen-data", "--out", "/tmp/nonexistent-ignored", "--n", 3])
    assert proc.returncode == 1
    assert "5" in proc.stderr


def test_gen_data_same_seed_identical_manifest(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = run_cli(["gen-data", "--out", out, "--n", 6, "--seed", 9])
        assert proc.returncode == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_gen_data_short_clip_skips_late_burst(tmp_path):
    # the second pink-noise burst starts at 0.55 s, after a 0.5 s clip ends
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"duration": 0.5}))
    proc = run_cli(["gen-data", "--config", config, "--out", tmp_path / "d", "--n", 5])
    assert proc.returncode == 0, proc.stderr
    for kind in ("mono", "binaural"):
        for path in sorted((tmp_path / "d" / kind).iterdir()):
            assert read_wav(path)[0].shape[0] == 11025


def test_gen_data_clip_without_samples_exits_1(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"duration": 1e-9}))
    proc = run_cli(["gen-data", "--config", config, "--out", tmp_path / "d", "--n", 5])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: duration: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d").exists()


def test_gen_data_clip_before_the_first_burst_exits_1(tmp_path):
    # the first pink-noise burst starts at 0.05 s
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"duration": 0.001}))
    proc = run_cli(["gen-data", "--config", config, "--out", tmp_path / "d", "--n", 5])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: duration: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d").exists()


def test_train_metrics_line_count(tiny_run):
    lines = (tiny_run / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 40 // 20 + 1
    for line in lines:
        record = json.loads(line)
        assert record["schema_version"] == 1


def test_train_writes_checkpoints(tiny_run):
    for sub in ("final", "best"):
        assert sorted(p.name for p in (tiny_run / sub).iterdir()) == ["model.bin"]


def test_diverging_learning_rate_exits_2_with_diagnostic(tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr_nets": 1e6, "lr_alpha": 1e6, "iterations": 20,
                                  "eval_interval": 10, "init_points": 64}))
    run = tmp_path / "run"
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset, "--out", run])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    error = json.loads((run / "diagnostic.json").read_text())["error"]
    assert re.fullmatch(r"non-finite output of [a-z_]+ on inputs of shape .+", error), error
    assert f"numeric failure: {error}" in proc.stderr


def cut_inside(path, part):
    """Truncate a trainer checkpoint's model.bin halfway through the bytes
    of its model's tensors (``part`` "model") or of its train state's."""
    data = path.read_bytes()
    header_end = data.index(b"\n") + 1
    header = json.loads(data[:header_end])
    sizes = [np.dtype(t["dtype"]).itemsize * int(np.prod(t["shape"])) for t in header["tensors"]]
    model_bytes = sum(sizes[: len(sizes) - header["train_state"]["tensor_count"]])
    assert header_end + sum(sizes) == len(data)
    if part == "model":
        cut = header_end + model_bytes // 2
    else:
        cut = header_end + model_bytes + (len(data) - header_end - model_bytes) // 2
    path.write_bytes(data[:cut])


def render_checkpoint(checkpoint, tmp_path):
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.zeros(2048), 22050)
    return run_cli(["render", "--checkpoint", checkpoint, "--pose", "3.0,2.0,1.5,1.57",
                    "--mono", mono_path, "--out", tmp_path / "out.wav"])


@pytest.mark.parametrize("part", ["model", "train_state"])
def test_truncated_checkpoint_file_exits_1(tiny_run, tiny_dataset, tmp_path, part):
    # render reads the model's tensors only; a resume reads the train state too
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(tiny_run / "final", checkpoint)
    cut_inside(checkpoint / "model.bin", part)
    proc = render_checkpoint(checkpoint, tmp_path)
    if part == "train_state":
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["train", "--dataset", tiny_dataset, "--out", tmp_path / "run",
                        "--iterations", 60, "--eval-interval", 20, "--seed", 5,
                        "--resume", checkpoint])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "model.bin: truncated" in proc.stderr, \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_format_1_model_file_exits_1(tiny_run, tmp_path):
    # the layout before per-tensor dtypes: float64 model tensors only (the
    # train state was a separate train_state.npz)
    checkpoint = tmp_path / "ckpt"
    checkpoint.mkdir()
    data = (tiny_run / "final" / "model.bin").read_bytes()
    header_end = data.index(b"\n") + 1
    header = json.loads(data[:header_end])
    state = header.pop("train_state")
    del header["tensors"][len(header["tensors"]) - state["tensor_count"]:]
    for spec in header["tensors"]:
        del spec["dtype"]
    body = 8 * sum(int(np.prod(spec["shape"])) for spec in header["tensors"])
    header["format"] = 1
    (checkpoint / "model.bin").write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n" + data[header_end:header_end + body])
    proc = render_checkpoint(checkpoint, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "format 1 weight file" in proc.stderr, \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_truncated_point_cloud_exits_1(tiny_dataset, tmp_path):
    cloud = tmp_path / "cloud.ply"
    save_gaussian_cloud(cloud, synthetic_cloud([0, 0, 0], [6, 4, 3], 64,
                                               np.random.default_rng(0)))
    data = cloud.read_bytes()
    cloud.write_bytes(data[: len(data) // 2])
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", tmp_path / "run",
                    "--iterations", 2, "--point-cloud", cloud])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "cloud.ply: truncated" in proc.stderr, \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_output_exits_3(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli(["gen-data", "--out", blocker / "sub", "--n", 5])
    assert proc.returncode == 3, proc.stderr
    assert "i/o error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_render_reports_rms(tiny_run, tmp_path):
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(0).standard_normal(22050) * 0.25, 22050)
    out_path = tmp_path / "out.wav"
    proc = run_cli(["render", "--checkpoint", tiny_run / "final", "--pose",
                    "3.0,2.0,1.5,1.57", "--mono", mono_path, "--out", out_path])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["left_rms"] > 0 and report["right_rms"] > 0
    data, sr = read_wav(out_path)
    assert data.shape == (22050, 2)
    assert sr == 22050


def test_render_silent_input_silent_output(tiny_run, tmp_path):
    mono_path = tmp_path / "silent.wav"
    write_wav(mono_path, np.zeros(22050), 22050)
    out_path = tmp_path / "out.wav"
    proc = run_cli(["render", "--checkpoint", tiny_run / "final", "--pose",
                    "3.0,2.0,1.5,0.0", "--mono", mono_path, "--out", out_path])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["left_rms"] == 0.0
    assert report["right_rms"] == 0.0


def test_render_outside_bounds_warns_but_renders(tiny_run, tmp_path):
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(1).standard_normal(22050) * 0.2, 22050)
    out_path = tmp_path / "out.wav"
    proc = run_cli(["render", "--checkpoint", tiny_run / "final", "--pose",
                    "40.0,2.0,1.5,0.0", "--mono", mono_path, "--out", out_path])
    assert proc.returncode == 0
    assert out_path.exists()


def test_eval_json_schema(tiny_run, tiny_dataset, tmp_path):
    out_path = tmp_path / "eval.json"
    proc = run_cli(["eval", "--checkpoint", tiny_run / "final", "--dataset",
                    tiny_dataset, "--split", "val", "--out", out_path])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    assert report["mode"] == "binaural"
    assert set(report["metrics"]) == {"mag", "env"}
    assert set(report["baselines"]) == {"mono_mono", "mono_energy", "stereo_energy"}
    assert json.loads(out_path.read_text()) == report


def test_eval_mode_mismatch_is_config_error(tiny_dataset, tmp_path):
    out = tmp_path / "rir_run"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "rir", "iterations": 5, "eval_interval": 5,
                                  "densify_interval": 0, "init_points": 64, "seed": 0}))
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset, "--out", out])
    assert proc.returncode == 1  # dataset has no impulse responses
    assert "impulse" in proc.stderr


def test_unknown_config_key_rejected(tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"iterations": 5, "bogus_knob": 1}))
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset,
                    "--out", tmp_path / "x"])
    assert proc.returncode == 1
    assert "bogus_knob" in proc.stderr


def test_config_with_a_removed_pruning_key_is_rejected(tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"iterations": 5, "prune_radius": 0.1}))
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset,
                    "--out", tmp_path / "x"])
    assert proc.returncode == 1
    assert "unknown config keys: prune_radius" in proc.stderr
    assert not (tmp_path / "x").exists()


def test_bench_report(tiny_run, tmp_path):
    out_path = tmp_path / "bench.json"
    proc = run_cli(["bench", "--checkpoint", tiny_run / "final", "--n", 10,
                    "--out", out_path])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["n_renders"] == 10
    assert len(report["latencies_s"]) == 10
    assert set(report["seconds_per_render"]) == {"mean", "median", "p95"}
    assert set(report["breakdown_mean_s"]) == {"context_s", "masks_s", "reconstruct_s"}


def test_bench_computes_context_once_per_render(tiny_run, monkeypatch, capsys):
    from gsaudio.cli import main
    from gsaudio.field import FieldNetwork
    from gsaudio.model import SceneModel

    calls = []
    builds = []
    context, project = SceneModel.context, FieldNetwork.project

    def counted(self, tape, listener):
        calls.append(listener)
        return context(self, tape, listener)

    def counted_project(self, alphas):
        builds.append(len(calls))
        return project(self, alphas)

    monkeypatch.setattr(SceneModel, "context", counted)
    monkeypatch.setattr(FieldNetwork, "project", counted_project)
    assert main(["bench", "--checkpoint", str(tiny_run / "final"), "--n", "10"]) == 0
    capsys.readouterr()
    # two warm-up renders, then one context per timed render; the second
    # warm-up render builds the alpha projection, so no timed render does
    assert len(calls) == 12
    assert builds == [2]


def test_one_shot_render_builds_no_alpha_projection(tiny_run, tmp_path, monkeypatch):
    from gsaudio import cli
    from gsaudio.field import FieldNetwork

    builds = []
    project = FieldNetwork.project

    def counted_project(self, alphas):
        builds.append(alphas.shape)
        return project(self, alphas)

    monkeypatch.setattr(FieldNetwork, "project", counted_project)
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(4).standard_normal(4096) * 0.2, 22050)
    out_path = tmp_path / "out.wav"
    assert cli.main(["render", "--checkpoint", str(tiny_run / "final"), "--pose",
                     "3.0,2.0,1.5,0.5", "--mono", str(mono_path), "--out", str(out_path)]) == 0
    assert out_path.exists()
    assert builds == []


def test_bench_minimum_renders(tiny_run):
    proc = run_cli(["bench", "--checkpoint", tiny_run / "final", "--n", 5])
    assert proc.returncode == 1


def test_bench_identical_audio_despite_timing(tiny_run, tmp_path):
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(2).standard_normal(22050) * 0.2, 22050)
    outs = []
    for name in ("r1.wav", "r2.wav"):
        out_path = tmp_path / name
        proc = run_cli(["render", "--checkpoint", tiny_run / "final", "--pose",
                        "2.5,2.5,1.5,0.5", "--mono", mono_path, "--out", out_path])
        assert proc.returncode == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_resume_matches_one_shot(tiny_dataset, tmp_path):
    full = tmp_path / "full"
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", full,
                    "--iterations", 40, "--eval-interval", 20, "--seed", 8, "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    part = tmp_path / "part"
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", part,
                    "--iterations", 20, "--eval-interval", 20, "--seed", 8, "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", part,
                    "--iterations", 40, "--eval-interval", 20, "--seed", 8,
                    "--resume", part / "final", "--threads", 1])
    assert proc.returncode == 0, proc.stderr
    full_last = (full / "metrics.jsonl").read_text().splitlines()[-1]
    part_last = (part / "metrics.jsonl").read_text().splitlines()[-1]
    assert full_last == part_last


def test_ablate_vicinity_rows(tiny_dataset, tmp_path):
    out = tmp_path / "ablate"
    proc = run_cli(["ablate", "--dataset", tiny_dataset, "--axis", "vicinity",
                    "--iterations", 10, "--out", out, "--seed", 5])
    assert proc.returncode == 0, proc.stderr
    table = json.loads((out / "ablation.json").read_text())
    assert [row["percentile"] for row in table["rows"]] == [5, 10, 15, 20, 25]
    for row in table["rows"]:
        assert "mag" in row and "env" in row
    csv_lines = (out / "ablation.csv").read_text().splitlines()
    assert csv_lines[0] == "label,percentile,mag,env"
    assert len(csv_lines) == 6


@pytest.mark.parametrize("eval_interval,per_row", [(5, 3), (4, 4)])
def test_ablate_evaluates_each_final_model_once(tiny_dataset, tmp_path, monkeypatch,
                                                 eval_interval, per_row):
    # 10 iterations: evaluations at 0, 5 and 10 end on the final model; at
    # 0, 4 and 8 they do not, and ablate scores the final model itself
    from gsaudio import cli, training

    calls = []
    evaluate = training.evaluate_binaural

    def counting(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    # cmd_ablate imports evaluate_binaural from training when it runs
    monkeypatch.setattr(training, "evaluate_binaural", counting)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eval_interval": eval_interval}))
    out = tmp_path / "ablate"
    code = cli.main(["ablate", "--config", str(config), "--dataset", str(tiny_dataset),
                     "--axis", "vicinity", "--iterations", "10", "--out", str(out),
                     "--seed", "5"])
    assert code == 0
    assert calls == ["val"] * (5 * per_row)
    rows = json.loads((out / "ablation.json").read_text())["rows"]
    for row in rows:
        run_dir = out / f"vicinity_{row['label']}"
        last = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])
        assert (last["iteration"] == 10) == (per_row == 3)
        if last["iteration"] == 10:
            assert (row["mag"], row["env"]) == (last["mag"], last["env"])


def _drop_yaw(recs):
    del recs[1]["yaw"]


def _set(field, value):
    def edit(recs):
        recs[1][field] = value
    return edit


def _duplicate_id(recs):
    recs[1]["id"] = recs[0]["id"]


# (edit of the manifest's records, error class, words the message holds)
MALFORMED_RECORDS = {
    "listener-of-two": (_set("listener", [1.0, 2.0]), "DataError", ["listener", "3 finite"]),
    "listener-nan": (_set("listener", [1.0, float("nan"), 1.0]), "DataError", ["listener"]),
    "no-yaw": (_drop_yaw, "SchemaError", ["missing required field: yaw"]),
    "yaw-inf": (_set("yaw", float("inf")), "DataError", ["yaw", "finite"]),
    "split-test": (_set("split", "test"), "DataError", ["split", "'test'"]),
    "duplicate-id": (_duplicate_id, "DataError", ["duplicate sample id"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_malformed_manifest_record_is_a_named_error(tiny_dataset, tmp_path, capsys,
                                                    case, command):
    from gsaudio import cli, errors
    from gsaudio.dataset import Dataset

    edit, error, words = MALFORMED_RECORDS[case]
    manifest = json.loads((tiny_dataset / "manifest.json").read_text())
    edit(manifest["samples"])
    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(getattr(errors, error)):
        Dataset.load(data)
    args = (["train", "--iterations", "5"] if command == "train"
            else ["eval", "--checkpoint", str(tmp_path / "no-checkpoint")])
    capsys.readouterr()
    code = cli.main(args + ["--dataset", str(data), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    named = manifest["samples"][1]["id"]
    assert f"sample {named}" in err or f"{named!r}" in err
    for word in words:
        assert word in err
    assert not (tmp_path / "out").exists()


def test_missing_required_flag_is_usage_error(tiny_dataset):
    proc = run_cli(["train", "--dataset", tiny_dataset])
    assert proc.returncode == 1
    assert "--out" in proc.stderr


def test_default_dataset_size_is_100():
    from gsaudio.cli import load_run_config
    assert load_run_config()["n_samples"] == 100


def test_train_from_supplied_splat_ply(tiny_dataset, tmp_path):
    from gsaudio.scene import save_gaussian_cloud, synthetic_cloud

    cloud = synthetic_cloud([0, 0, 0], [6, 4, 3], 77, np.random.default_rng(6))
    ply = tmp_path / "splat.ply"
    save_gaussian_cloud(ply, cloud)
    out = tmp_path / "run"
    proc = run_cli(["train", "--dataset", tiny_dataset, "--out", out,
                    "--point-cloud", ply, "--iterations", 10,
                    "--eval-interval", 10, "--seed", 5])
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["points"] == 77


def test_ablate_alpha_init_rows(tiny_dataset, tmp_path):
    out = tmp_path / "ablate_alpha"
    proc = run_cli(["ablate", "--dataset", tiny_dataset, "--axis", "alpha_init",
                    "--iterations", 8, "--out", out, "--seed", 5])
    assert proc.returncode == 0, proc.stderr
    table = json.loads((out / "ablation.json").read_text())
    labels = [row["label"] for row in table["rows"]]
    assert len(labels) == 11
    assert "SH,R" in labels
    by_label = {row["label"]: row for row in table["rows"]}
    assert by_label["SH,R"]["dim"] == 52
    assert by_label["O"]["dim"] == 1
    assert by_label["S,SH,R,O"]["dim"] == 56
    for row in table["rows"]:
        assert "mag" in row and "env" in row


def test_resume_with_another_window_is_config_error(tiny_run, tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"window": 256, "hop": 64, "iterations": 60}))
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset,
                    "--out", tmp_path / "run", "--resume", tiny_run / "final"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "window" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_resume_with_another_schedule_is_config_error(tiny_run, tiny_dataset, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr_nets": 0.5, "iterations": 60, "eval_interval": 20,
                                  "seed": 5}))
    proc = run_cli(["train", "--config", config, "--dataset", tiny_dataset,
                    "--out", tmp_path / "run", "--resume", tiny_run / "final"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: lr_nets 0.5 differs from the checkpoint's "), \
        proc.stderr
    assert "Traceback" not in proc.stderr


def test_rir_checkpoint_resumes_without_mode(tmp_path):
    data = tmp_path / "rir_data"
    proc = run_cli(["gen-data", "--out", data, "--n", 6, "--seed", 4, "--with-rir",
                    "--absorption", 0.7, "--ir-duration", 0.1])
    assert proc.returncode == 0, proc.stderr
    schedule = {"eval_interval": 2, "densify_interval": 0, "init_points": 64,
                "rir_time_batch": 128, "seed": 0}
    config = tmp_path / "rir.json"
    config.write_text(json.dumps(dict(schedule, mode="rir", iterations=2)))
    run = tmp_path / "run"
    proc = run_cli(["train", "--config", config, "--dataset", data, "--out", run])
    assert proc.returncode == 0, proc.stderr
    config.write_text(json.dumps(dict(schedule, iterations=4)))  # no mode: binaural default
    proc = run_cli(["train", "--config", config, "--dataset", data, "--out", run,
                    "--resume", run / "final"])
    assert proc.returncode == 0, proc.stderr
    last = json.loads((run / "metrics.jsonl").read_text().splitlines()[-1])
    assert last["iteration"] == 4
    assert "t60_error_percent" in last
    with open(run / "final" / "model.bin", "rb") as fh:
        assert json.loads(fh.readline())["mode"] == "rir"


def test_threads_in_a_config_file_is_rejected(tmp_path):
    # --threads pins BLAS before numpy loads, so only argv can set it
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threads": 1}))
    proc = run_cli(["gen-data", "--config", config, "--out", tmp_path / "d", "--n", 5])
    assert proc.returncode == 1
    assert "unknown config keys: threads" in proc.stderr
    assert not (tmp_path / "d").exists()


def test_ablate_in_rir_mode_fails_before_training(tmp_path):
    data = tmp_path / "rir_data"
    proc = run_cli(["gen-data", "--out", data, "--n", 6, "--seed", 4, "--with-rir",
                    "--absorption", 0.7, "--ir-duration", 0.1])
    assert proc.returncode == 0, proc.stderr
    config = tmp_path / "rir.json"
    config.write_text(json.dumps({"mode": "rir", "init_points": 64, "rir_time_batch": 128,
                                  "densify_interval": 0, "eval_interval": 2}))
    out = tmp_path / "ablate"
    proc = run_cli(["ablate", "--config", config, "--dataset", data, "--axis", "vicinity",
                    "--iterations", 2, "--out", out])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert not list(tmp_path.glob("ablate/vicinity_*"))


def test_cli_surface():
    from gsaudio.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(opt for action in sub._actions for opt in action.option_strings)
               for name, sub in commands.choices.items()}
    common = ["--config", "--out", "--threads", "-h", "--help"]
    want = {
        "gen-data": ["--seed", "--mode", "--n", "--signal", "--with-rir", "--absorption",
                     "--ir-duration"],
        "train": ["--seed", "--mode", "--dataset", "--point-cloud", "--iterations",
                  "--eval-interval", "--resume"],
        "render": ["--checkpoint", "--pose", "--mono"],
        "eval": ["--checkpoint", "--dataset", "--split"],
        "ablate": ["--seed", "--dataset", "--axis", "--iterations"],
        "bench": ["--seed", "--checkpoint", "--n"],
    }
    assert surface == {name: sorted(common + opts) for name, opts in want.items()}


@pytest.mark.parametrize("value", [0, -1])
def test_threads_must_be_a_positive_integer(tmp_path, value):
    proc = run_cli(["gen-data", "--out", tmp_path / "d", "--n", 5, "--threads", value])
    assert proc.returncode == 1
    assert "--threads" in proc.stderr
    assert not (tmp_path / "d").exists()


TRAIN, GEN = ["train", "--dataset", "d"], ["gen-data", "--n", 5]
BENCH = ["bench", "--checkpoint", "c"]
BAD_CONFIGS = [
    ("iterations", "abc", TRAIN), ("iterations", 2.7, TRAIN), ("iterations", True, TRAIN),
    ("densify_interval", -1, TRAIN),
    ("mode", "stereo", GEN), ("mode", "stereo", BENCH),
    ("room", [6, 4], GEN), ("absorption", "hi", GEN), ("with_rir", "no", GEN), ("seed", -1, GEN),
    ("duration", -1.0, GEN), ("sample_rate", 0, GEN),
    ("split", "test", ["eval", "--checkpoint", "c", "--dataset", "d"]),
    ("n_renders", 5, BENCH),
    ("ablate_iterations", 0, ["ablate", "--dataset", "d", "--axis", "vicinity"]),
]


@pytest.mark.parametrize("key, value, command", BAD_CONFIGS,
                         ids=[f"{command[0]}-{key}={json.dumps(value)}"
                              for key, value, command in BAD_CONFIGS])
def test_bad_config_value_is_named_and_exits_1(tmp_path, key, value, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    proc = run_cli(command + ["--config", path, "--out", tmp_path / "out"])
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {key}: expected ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_settings_load_without_training():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gsaudio.settings; print('gsaudio.training' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


TRAINING_MODULES = ("training", "dataset", "roomsim", "irmetrics", "optim")


def test_render_loads_no_training_module(tiny_run, tmp_path):
    # the whole render command runs in the child, so imports made inside
    # the command count too
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(2).standard_normal(4096) * 0.2, 22050)
    args = ["render", "--checkpoint", str(tiny_run / "final"), "--pose", "3.0,2.0,1.5,0.5",
            "--mono", str(mono_path), "--out", str(tmp_path / "out.wav")]
    code = ("import json, sys\n"
            "from gsaudio.cli import main\n"
            f"code = main({args!r})\n"
            f"loaded = [m for m in {TRAINING_MODULES!r} if 'gsaudio.' + m in sys.modules]\n"
            "print(json.dumps({'code': code, 'loaded': loaded}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"code": 0, "loaded": []}
    assert (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("pose,field", [("2,2,1.5,inf", "yaw"), ("nan,2,1.5,0.3", "position")])
def test_render_with_a_non_finite_pose_exits_1(tiny_run, tmp_path, capsys, pose, field):
    from gsaudio import cli

    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.zeros(4096), 22050)
    out_path = tmp_path / "out.wav"
    capsys.readouterr()
    code = cli.main(["render", "--checkpoint", str(tiny_run / "final"), "--pose", pose,
                     "--mono", str(mono_path), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"pose {field} must be finite" in err
    assert not out_path.exists()


def test_render_of_a_clip_at_another_sample_rate_exits_1(tiny_run, tmp_path, capsys):
    from gsaudio import cli

    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.random.default_rng(3).standard_normal(4410) * 0.2, 44100)
    out_path = tmp_path / "out.wav"
    capsys.readouterr()
    code = cli.main(["render", "--checkpoint", str(tiny_run / "final"), "--pose",
                     "3.0,2.0,1.5,0.5", "--mono", str(mono_path), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "44100" in err and "22050" in err
    assert not out_path.exists()


def test_eval_on_a_dataset_at_another_sample_rate_exits_1(tiny_run, tmp_path, capsys):
    from gsaudio import cli

    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"sample_rate": 44100, "duration": 0.7}))
    data = tmp_path / "data44"
    assert cli.main(["gen-data", "--config", str(config), "--out", str(data), "--n", "5",
                     "--seed", "5"]) == 0
    out_path = tmp_path / "eval.json"
    capsys.readouterr()
    code = cli.main(["eval", "--checkpoint", str(tiny_run / "final"), "--dataset", str(data),
                     "--split", "val", "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "44100" in err and "22050" in err
    assert not out_path.exists()


def test_rir_eval_on_a_dataset_at_another_sample_rate_exits_1(tmp_path, capsys):
    from gsaudio import cli

    data, data44 = tmp_path / "rir_data", tmp_path / "rir_data44"
    assert cli.main(["gen-data", "--out", str(data), "--n", "6", "--seed", "4", "--with-rir",
                     "--absorption", "0.7", "--ir-duration", "0.1"]) == 0
    config = tmp_path / "gen44.json"
    config.write_text(json.dumps({"sample_rate": 44100, "duration": 0.7}))
    assert cli.main(["gen-data", "--config", str(config), "--out", str(data44), "--n", "5",
                     "--seed", "5", "--with-rir", "--ir-duration", "0.1"]) == 0
    config = tmp_path / "rir.json"
    config.write_text(json.dumps({"mode": "rir", "iterations": 2, "eval_interval": 2,
                                  "densify_interval": 0, "init_points": 64,
                                  "rir_time_batch": 128, "seed": 0}))
    run = tmp_path / "run"
    assert cli.main(["train", "--config", str(config), "--dataset", str(data),
                     "--out", str(run)]) == 0
    out_path = tmp_path / "eval.json"
    capsys.readouterr()
    code = cli.main(["eval", "--checkpoint", str(run / "final"), "--dataset", str(data44),
                     "--split", "val", "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "44100" in err and "22050" in err
    assert "Traceback" not in err
    assert not out_path.exists()


def _wav_cut(samples, cut):
    """A float32 WAV of ``samples`` with the last ``cut`` payload bytes gone."""
    def make(path):
        write_wav(path, samples, 22050)
        path.write_bytes(path.read_bytes()[:-cut])
    return make


def _wav_bytes(data):
    def make(path):
        path.write_bytes(data)
    return make


# each a WAV file that the reader refuses, and words its message holds
MALFORMED_WAVS = {
    "short-riff-header": (_wav_bytes(b"RIFF\x04\x00\x00\x00"), "not a RIFF/WAVE file"),
    "short-fmt-chunk": (_wav_bytes(b"RIFF\x14\x00\x00\x00WAVEfmt \x08\x00\x00\x00"
                                   b"\x03\x00\x01\x00\x22\x56\x00\x00"), "fmt chunk of 8 bytes"),
    "mono-partial-frame": (_wav_cut(np.zeros(4), 2), "14 bytes"),
    "stereo-partial-frame": (_wav_cut(np.zeros((4, 2)), 4), "28 bytes"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_render_of_a_malformed_wav_exits_1(tiny_run, tmp_path, capsys, case):
    from gsaudio import cli

    make, words = MALFORMED_WAVS[case]
    mono_path = tmp_path / "probe.wav"
    make(mono_path)
    out_path = tmp_path / "out.wav"
    capsys.readouterr()
    code = cli.main(["render", "--checkpoint", str(tiny_run / "final"), "--pose",
                     "3.0,2.0,1.5,0.5", "--mono", str(mono_path), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {mono_path}: ") and words in err, err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_eval_on_a_manifest_that_is_not_json_exits_1(tiny_run, tmp_path, capsys):
    from gsaudio import cli

    data = tmp_path / "data"
    data.mkdir()
    (data / "manifest.json").write_text('{"samples": [')
    out_path = tmp_path / "eval.json"
    capsys.readouterr()
    code = cli.main(["eval", "--checkpoint", str(tiny_run / "final"), "--dataset", str(data),
                     "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {data / 'manifest.json'}: not valid JSON"), err
    assert "Traceback" not in err
    assert not out_path.exists()


def test_train_from_a_point_cloud_with_a_bad_element_count_exits_1(tiny_dataset, tmp_path,
                                                                    capsys):
    from gsaudio import cli

    cloud = tmp_path / "cloud.ply"
    save_gaussian_cloud(cloud, synthetic_cloud([0, 0, 0], [6, 4, 3], 64,
                                               np.random.default_rng(0)))
    cloud.write_bytes(cloud.read_bytes().replace(b"element vertex 64", b"element vertex 6.4"))
    out = tmp_path / "run"
    capsys.readouterr()
    code = cli.main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                     "--iterations", "2", "--point-cloud", str(cloud)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {cloud}: bad element line 'element vertex 6.4'"), err
    assert "Traceback" not in err
    assert not out.exists()


def _edit_header(checkpoint, edit):
    """Rewrite ``checkpoint``/model.bin's header line with ``edit(header)``'s
    result, keeping the tensor bytes."""
    path = checkpoint / "model.bin"
    data = path.read_bytes()
    header_end = data.index(b"\n")
    header = edit(json.loads(data[:header_end]))
    path.write_bytes(json.dumps(header).encode() + data[header_end:])


def _drop(key):
    def edit(header):
        del header["tensors"][0][key]
        return header
    return edit


def _first_shape(shape):
    def edit(header):
        header["tensors"][0]["shape"] = shape
        return header
    return edit


# each an edit of a model.bin header, and words the error message holds
MALFORMED_HEADERS = {
    "a-list": (lambda header: [header], "not a weight checkpoint"),
    "no-tensors": (lambda header: {k: v for k, v in header.items() if k != "tensors"},
                   "no tensor list"),
    **{f"spec-without-{key}": (_drop(key), "lacks a name, shape or dtype")
       for key in ("name", "shape", "dtype")},
    **{f"shape-{case}": (_first_shape(shape), "tensor positions has shape")
       for case, shape in (("string", "ab"), ("negative", [-1, 3]), ("float", [2.0, 3]),
                           ("bool", [True, 3]), ("number", 3))},
    # a shape that parses but declares more bytes than the file holds
    "shape-past-the-end": (_first_shape([10**6, 10**6]),
                           "truncated weight buffer: tensor positions takes 8000000000000 bytes"),
    "one-tensor": (lambda header: {**{k: v for k, v in header.items() if k != "train_state"},
                                   "tensors": header["tensors"][:1]},
                   "1 model tensors, fewer than the two point tensors"),
    "train-state-a-list": (lambda header: {**header, "train_state": []},
                           "train_state is [], not an object"),
    "tensor-count-a-string": (
        lambda header: {**header, "train_state": {**header["train_state"], "tensor_count": "9"}},
        "train_state.tensor_count is '9'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_render_from_a_malformed_model_header_exits_1(tiny_run, tmp_path, capsys, case):
    from gsaudio import cli

    edit, words = MALFORMED_HEADERS[case]
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(tiny_run / "final", checkpoint)
    _edit_header(checkpoint, edit)
    mono_path = tmp_path / "probe.wav"
    write_wav(mono_path, np.zeros(2048), 22050)
    out_path = tmp_path / "out.wav"
    capsys.readouterr()
    code = cli.main(["render", "--checkpoint", str(checkpoint), "--pose", "3.0,2.0,1.5,0.5",
                     "--mono", str(mono_path), "--out", str(out_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {checkpoint / 'model.bin'}: ") and words in err, err
    assert "Traceback" not in err
    assert not out_path.exists()


def _without_train_state_field(key):
    def edit(header):
        del header["train_state"][key]
        return header
    return edit


def _train_state_field(key, value):
    def edit(header):
        header["train_state"][key] = value
        return header
    return edit


# each an edit of a train state's header fields, and the error message's words
MALFORMED_TRAIN_STATES = {
    **{f"without-{key}": (_without_train_state_field(key), f"train state has no field {key}")
       for key in ("iteration", "best_value", "rng_state", "config")},
    "iteration-a-string": (_train_state_field("iteration", "60"),
                           "train state field iteration is '60', not int"),
    "iteration-a-bool": (_train_state_field("iteration", True),
                         "train state field iteration is True, not int"),
    "iteration-negative": (_train_state_field("iteration", -5),
                           "train state field iteration is -5, not >= 0"),
    "best-value-nan": (_train_state_field("best_value", float("nan")),
                       "train state field best_value is NaN"),
    "best-value-null": (_train_state_field("best_value", None),
                        "train state field best_value is None, not int or float"),
    "config-a-list": (_train_state_field("config", []),
                      "train state field config is [], not dict"),
    "rng-state-empty": (_train_state_field("rng_state", {}),
                        "train state field rng_state is unusable"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRAIN_STATES))
def test_resume_from_a_malformed_train_state_exits_1(tiny_run, tiny_dataset, tmp_path, capsys,
                                                     case):
    from gsaudio import cli

    edit, words = MALFORMED_TRAIN_STATES[case]
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(tiny_run / "final", checkpoint)
    _edit_header(checkpoint, edit)
    out = tmp_path / "run"
    capsys.readouterr()
    code = cli.main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                     "--iterations", "60", "--eval-interval", "20", "--seed", "5",
                     "--resume", str(checkpoint)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {checkpoint / 'model.bin'}: {words}"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_resume_without_a_train_state_tensor_exits_1(tiny_run, tiny_dataset, tmp_path, capsys):
    from gsaudio import cli

    def rename_grad_sum(header):
        [spec] = [s for s in header["tensors"] if s["name"] == "grad_sum"]
        spec["name"] = "grad_total"
        return header

    checkpoint = tmp_path / "ckpt"
    shutil.copytree(tiny_run / "final", checkpoint)
    _edit_header(checkpoint, rename_grad_sum)
    out = tmp_path / "run"
    capsys.readouterr()
    code = cli.main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                     "--iterations", "60", "--eval-interval", "20", "--seed", "5",
                     "--resume", str(checkpoint)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {checkpoint / 'model.bin'}: train state has no tensor "
                          "grad_sum"), err
    assert "Traceback" not in err
    assert not out.exists()


def _respec(name, key, change):
    """An edit of a checkpoint directory: in model.bin's spec of tensor
    ``name``, ``key`` becomes ``change`` of its value; the bytes stay."""
    def edit(header):
        [spec] = [s for s in header["tensors"] if s["name"] == name]
        spec[key] = change(spec[key])
        return header
    return lambda checkpoint: _edit_header(checkpoint, edit)


def _set_first(name, value):
    """An edit of a checkpoint directory: the first element of model.bin's
    tensor ``name`` becomes ``value``; the header stays."""
    def edit(checkpoint):
        path = checkpoint / "model.bin"
        data = bytearray(path.read_bytes())
        offset = data.index(b"\n") + 1
        for spec in json.loads(data[:offset])["tensors"]:
            tensor = np.frombuffer(data, spec["dtype"], int(np.prod(spec["shape"])), offset)
            if spec["name"] == name:
                tensor[0] = value
                break
            offset += tensor.nbytes
        path.write_bytes(data)
    return edit


# each an edit of a train state's tensors, and the error message's words
MALFORMED_TRAIN_STATE_TENSORS = {
    "grad-sum-3-rows-short": (_respec("grad_sum", "shape", lambda s: [s[0] - 3]),
                              "train state tensor grad_sum is <f8 ["),
    "grad-counts-3-rows-short": (_respec("grad_counts", "shape", lambda s: [s[0] - 3]),
                                 "train state tensor grad_counts is <i8 ["),
    "net-t-2-d": (_respec("net_t", "shape", lambda s: [1, s[0]]),
                  "train state tensor net_t is <i8 [1, "),
    "alpha-t-float64": (_respec("alpha_t", "dtype", lambda d: "<f8"),
                        "train state tensor alpha_t is <f8 ["),
    "net-t-negative": (_set_first("net_t", -1), "train state tensor net_t holds a negative"),
    "grad-counts-negative": (_set_first("grad_counts", -1),
                             "train state tensor grad_counts holds a negative"),
    "alpha-t-negative": (_set_first("alpha_t", -4), "train state tensor alpha_t holds a negative"),
    "alpha-v-negative": (_set_first("alpha_v", -1e-3),
                         "train state tensor alpha_v holds a negative"),
    "net-v-negative": (_set_first("net_v_0", -1e-3),
                       "train state tensor net_v_0 holds a negative"),
    "alpha-m-nan": (_set_first("alpha_m", np.nan), "train state tensor alpha_m is not finite"),
    "net-v-nan": (_set_first("net_v_3", np.nan), "train state tensor net_v_3 is not finite"),
    "grad-sum-inf": (_set_first("grad_sum", np.inf), "train state tensor grad_sum is not finite"),
    # the resume below runs to iteration 60: a count above int64 max - 60 could wrap
    "alpha-t-int64-max": (_set_first("alpha_t", np.iinfo(np.int64).max),
                          "train state tensor alpha_t holds a count above "),
    "net-t-one-past-the-limit": (_set_first("net_t", np.iinfo(np.int64).max - 59),
                                 "train state tensor net_t holds a count above "),
    "grad-counts-int64-max": (_set_first("grad_counts", np.iinfo(np.int64).max),
                              "train state tensor grad_counts holds a count above "),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRAIN_STATE_TENSORS))
def test_resume_from_a_malformed_train_state_tensor_exits_1(tiny_run, tiny_dataset, tmp_path,
                                                            capsys, case):
    from gsaudio import cli

    edit, words = MALFORMED_TRAIN_STATE_TENSORS[case]
    checkpoint = tmp_path / "ckpt"
    shutil.copytree(tiny_run / "final", checkpoint)
    edit(checkpoint)
    out = tmp_path / "run"
    capsys.readouterr()
    code = cli.main(["train", "--dataset", str(tiny_dataset), "--out", str(out),
                     "--iterations", "60", "--eval-interval", "20", "--seed", "5",
                     "--resume", str(checkpoint)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {checkpoint / 'model.bin'}: {words}"), err
    assert "Traceback" not in err
    assert not out.exists()
