import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_train_metrics_line_count(tiny_run):
    lines = (tiny_run / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 40 // 20 + 1
    for line in lines:
        record = json.loads(line)
        assert record["schema_version"] == 1


def test_train_writes_checkpoints(tiny_run):
    for sub in ("final", "best"):
        for name in ("points.ply", "field.bin", "binauralizer.bin", "config.json"):
            assert (tiny_run / sub / name).exists()


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
    from gsaudio.model import SceneModel

    calls = []
    context = SceneModel.context

    def counted(self, tape, listener):
        calls.append(listener)
        return context(self, tape, listener)

    monkeypatch.setattr(SceneModel, "context", counted)
    assert main(["bench", "--checkpoint", str(tiny_run / "final"), "--n", "10"]) == 0
    capsys.readouterr()
    # one warm-up render, then one context per timed render
    assert len(calls) == 11


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
    assert json.loads((run / "final" / "config.json").read_text())["mode"] == "rir"


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
