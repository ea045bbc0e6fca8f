import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unlearn_forge.checkpoints import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
import unlearn_forge.cli as cli_module
from unlearn_forge.cli import cli


@pytest.fixture()
def runs_dir(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(root))
    monkeypatch.chdir(tmp_path)
    return root


def _one(pattern, runs_dir):
    hits = sorted(runs_dir.glob(pattern))
    assert hits, f"no artifact matching {pattern}"
    return hits[-1]


def test_pipeline_through_cli(runs_dir, tmp_path, capsys):
    data = tmp_path / "data.uds"
    assert cli(["gen-data", "--seed", "1", "--classes", "3", "--features", "4",
                "--n-per-class", "40", "--separation", "3", "--noise-sd", "1",
                "--out", str(data)]) == 0
    assert data.exists()

    assert cli(["train", "--seed", "1", "--data", str(data),
                "--model", "mlp:4,8,3", "--epochs", "40"]) == 0
    ckpt = _one("*/checkpoints/original.ieuc", runs_dir)
    assert load_checkpoint(ckpt).role == "original"

    assert cli(["retrain", "--seed", "1", "--data", str(data),
                "--ckpt", str(ckpt)]) == 0
    retrain = _one("*/checkpoints/retrain.ieuc", runs_dir)

    assert cli(["unlearn", "--seed", "1", "--data", str(data), "--ckpt", str(ckpt),
                "--method", "ieu", "--alpha", "0.999", "--c", "0.01",
                "--eta", "0.05", "--epochs", "10"]) == 0
    unlearned = _one("*/checkpoints/ieu.ieuc", runs_dir)

    assert cli(["rcd", "--seed", "1", "--data", str(data), "--ckpt", str(unlearned),
                "--k", "10", "--phi", "loss", "--step", "fixed:0.05"]) == 0
    rcd_json = _one("*/reports/rcd.json", runs_dir)
    payload = json.loads(rcd_json.read_text())
    assert len(payload["errors"]) == 11

    assert cli(["eval", "--data", str(data), "--ckpt", str(unlearned),
                "--against", str(retrain)]) == 0
    ev = _one("*/reports/eval.json", runs_dir)
    capsys.readouterr()
    assert cli(["compare", str(ev), str(ev), "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("report,")
    assert len(out) == 3

    # every run directory carries a manifest with the resolved config
    manifest = json.loads(_one("*/manifest.json", runs_dir).read_text())
    assert {"command", "config", "experiment_id", "seed", "artifacts"} <= set(manifest)


def test_config_file_precedence(runs_dir, tmp_path):
    data = tmp_path / "d.uds"
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"classes": 5, "features": 3,
                                    "n_per_class": 20, "out": str(data)}))
    # CLI flag overrides the config file's classes=5
    assert cli(["gen-data", "--seed", "2", "--config", str(cfg_file),
                "--classes", "4"]) == 0
    manifest = json.loads(_one("*/manifest.json", runs_dir).read_text())
    assert manifest["config"]["classes"] == 4
    assert manifest["config"]["features"] == 3

    from unlearn_forge.datasets import load_uds

    assert load_uds(data).num_classes == 4


@pytest.mark.parametrize("bad", [{"epochs": "abc"}, {"epochs": 2.5}, {"epochs": True},
                                 {"eta": "fast"}, {"eta": 10**400}, {"optimizer": "sgdx"},
                                 {"data": 5}],
                         ids=["int-str", "int-float", "int-bool", "float-str", "float-huge",
                              "choice", "str-int"])
def test_config_values_must_fit_their_flags(runs_dir, tmp_path, capsys, bad):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(bad))
    assert cli(["train", "--seed", "0", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(bad)) in err


def test_usage_errors_exit_one(runs_dir, capsys):
    assert cli(["train", "--seed", "0"]) == 1  # missing --data/--model
    assert cli(["definitely-not-a-command"]) == 1
    assert cli(["unlearn", "--seed", "0", "--data", "x.uds", "--ckpt", "y",
                "--method", "warp"]) == 1
    assert cli([]) == 1
    assert cli(["gen-data", "--seed", "0", "--separation", "nan"]) == 1  # no finite separation
    capsys.readouterr()
    # each error names the setting, not the numpy call it would break
    assert cli(["gen-data", "--seed", "0", "--split", "classwise", "--forget-fraction", "2"]) == 1
    assert "fraction must be in (0, 1)" in capsys.readouterr().err
    assert cli(["gen-data", "--seed", "0", "--n-per-class", "0"]) == 1
    assert "n_per_class must be >= 2" in capsys.readouterr().err
    assert cli(["eval", "--seed", "1", "--data", "x.uds", "--ckpt", "y"]) == 1  # draws nothing
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--noise-sd", "nan"), ("--noise-sd", "inf"),
                                         ("--noise-sd", "-1"), ("--separation", "-2")])
def test_gen_data_refuses_a_bad_scale(runs_dir, tmp_path, capsys, flag, value):
    out = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "0", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be a finite number >= 0")
    assert not out.exists()


# 160 center draws at sd 1e308 (10 classes x 16 features) hold some beyond
# the largest float; 1500 noise draws at sd 1e308 always do. At the default
# 3 classes x 5 features, separations of 1e308 and 1e160 give finite features
# whose squared norm, which every HVP sums over, overflows
@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("flags", [["--separation", "1e308", "--classes", "10",
                                    "--features", "16"],
                                   ["--noise-sd", "1e308"],
                                   ["--separation", "1e308"],
                                   ["--separation", "1e160"]],
                         ids=["separation", "noise_sd", "finite-1e308", "finite-1e160"])
def test_gen_data_refuses_overflowing_features(runs_dir, tmp_path, capsys, flags):
    out = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "0", *flags, "--out", str(out)]) == 1
    assert "overflow the features" in capsys.readouterr().err
    assert not out.exists() and not runs_dir.exists()


def test_mlp_of_one_output_is_a_usage_error(runs_dir, tmp_path, capsys):
    data = str(tmp_path / "d.uds")
    assert cli(["gen-data", "--seed", "0", "--n-per-class", "10", "--out", data]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "0", "--data", data, "--model", "mlp:5,1"]) == 1
    assert "bad model spec 'mlp:5,1'" in capsys.readouterr().err


# the commands whose arrays, at these sizes, numpy cannot allocate; each
# worker is replaced by one that raises as numpy does, so nothing large is made
@pytest.mark.parametrize("argv", [["gen-data", "--n-per-class", "100000000000"],
                                  ["train", "--data", "d.uds", "--model", "mlp:4,100000,100000,3"],
                                  ["rcd", "--data", "d.uds", "--ckpt", "c.ieuc",
                                   "--k", "100000000000"]], ids=["gen-data", "train", "rcd"])
def test_memory_error_exits_one(runs_dir, monkeypatch, capsys, argv):
    def worker(cfg, seed):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

    monkeypatch.setattr(cli_module, "_cmd_" + argv[0].replace("-", "_"), worker)
    assert cli([*argv, "--seed", "0"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array " \
                                      "with shape (10000000000,)\n"


@pytest.mark.parametrize("phi", ["loss", "one_minus_accuracy"])
def test_a_diverged_command_prints_its_error_alone(runs_dir, tmp_path, capsys, phi):
    # a step of 1e300 overflows the logits; numpy's warnings of that would
    # come before the error line, each with a source line
    data = str(tmp_path / "d.uds")
    assert cli(["gen-data", "--seed", "1", "--out", data]) == 0
    assert cli(["train", "--seed", "1", "--data", data, "--model", "mlp:5,6,3",
                "--epochs", "20"]) == 0
    ckpt = str(_one("*/checkpoints/original.ieuc", runs_dir))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
        warnings.simplefilter("always")
        assert cli(["rcd", "--seed", "1", "--data", data, "--ckpt", ckpt, "--k", "10",
                    "--phi", phi, "--step", "fixed:1e300"]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite") and "epoch 1" in err[0], err


def _run_module(tmp_path, *argv):
    """``python -m unlearn_forge.cli`` with ``argv`` in a fresh process."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, UNLEARN_FORGE_RUNS_DIR=str(tmp_path / "runs"),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "unlearn_forge.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)


def test_python_m_runs_the_cli(tmp_path):
    proc = _run_module(tmp_path)
    assert proc.returncode == 1 and proc.stderr.startswith("usage: unlearn-forge")
    proc = _run_module(tmp_path, "gen-data", "--seed", "0", "--n-per-class", "10",
                       "--out", "d.uds")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d.uds").is_file()


def test_gen_data_into_a_missing_directory_leaves_nothing(runs_dir, tmp_path, capsys):
    missing = tmp_path / "missing"
    assert cli(["gen-data", "--seed", "0", "--out", str(missing / "x.uds")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()
    assert not any(runs_dir.iterdir())


def test_gen_data_out_may_sit_beside_a_new_runs_root(tmp_path, monkeypatch):
    # the runs root is made, with its parents, before any file is written,
    # so an --out beside a runs root that does not exist yet has its directory
    base = tmp_path / "base"
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(base / "runs"))
    assert cli(["gen-data", "--seed", "0", "--out", str(base / "x.uds")]) == 0
    assert (base / "x.uds").is_file()


def test_silent_no_op_settings_exit_one(runs_dir, tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--out", str(data)]) == 0
    train = ["train", "--seed", "1", "--data", str(data), "--model", "logistic:5,3",
             "--optimizer", "sgd", "--epochs", "2"]
    assert cli(train + ["--batch-size", "-4"]) == 1
    assert "batch_size" in capsys.readouterr().err
    assert cli(train) == 0
    ckpt = str(_one("*/checkpoints/original.ieuc", runs_dir))
    unlearn = ["unlearn", "--seed", "1", "--data", str(data), "--ckpt", ckpt]
    assert cli(unlearn + ["--method", "ft", "--alpha", "0.5"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert cli(unlearn + ["--method", "rl", "--alpha", "0.5"]) == 1
    assert "alpha" in capsys.readouterr().err
    # the re-initialization noise has one law, N(0, 2/d), so there is no scope to set
    assert cli(unlearn + ["--method", "ieu", "--alpha", "0.9", "--noise-scope", "global_d"]) == 1
    assert "--noise-scope" in capsys.readouterr().err
    cfg_file = tmp_path / "scope.json"
    cfg_file.write_text(json.dumps({"alpha": 0.9, "noise_scope": "global_d"}))
    assert cli(unlearn + ["--method", "ieu", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "noise_scope" in err
    # no unlearning method reads a batch size, so unlearn has no such flag
    assert cli(unlearn + ["--method", "ieu", "--batch-size", "4"]) == 1
    capsys.readouterr()
    # gd_fixed and gd_adaptive always step on the full batch
    train_gd = train[:train.index("--optimizer")] + ["--optimizer", "gd_fixed", "--epochs", "2"]
    assert cli(train_gd + ["--batch-size", "4"]) == 1
    assert "batch_size" in capsys.readouterr().err
    rcd = ["rcd", "--seed", "1", "--data", str(data), "--ckpt", ckpt, "--k", "2",
           "--phi", "one_minus_accuracy"]
    assert cli(rcd + ["--step", "adaptive", "--batch-size", "4"]) == 1
    assert "batch_size" in capsys.readouterr().err
    # a fixed step with a batch size relearns by sgd
    assert cli(rcd + ["--step", "fixed:0.05", "--batch-size", "4"]) == 0
    report = json.loads(_one("*/reports/rcd.json", runs_dir).read_text())
    assert report["step_mode"] == "sgd"
    # an unlearned checkpoint of an older run keeps noise_scope in its config
    # snapshot; nothing reads that snapshot back, so it still audits
    assert cli(unlearn + ["--method", "ieu", "--alpha", "0.9", "--epochs", "2"]) == 0
    unlearned = load_checkpoint(_one("*/checkpoints/ieu.ieuc", runs_dir))
    older = tmp_path / "older.ieuc"
    save_checkpoint(replace(unlearned, config={**unlearned.config, "noise_scope": "global_d"}),
                    older)
    assert cli(["rcd", "--seed", "1", "--data", str(data), "--ckpt", str(older), "--k", "2"]) == 0
    assert cli(["eval", "--data", str(data), "--ckpt", str(older)]) == 0
    capsys.readouterr()


def test_corrupt_checkpoint_exits_one(runs_dir, tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--out", str(data)]) == 0
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "logistic:5,3",
                "--epochs", "2"]) == 0
    ckpt = _one("*/checkpoints/original.ieuc", runs_dir)
    blob = bytearray(ckpt.read_bytes())
    blob[-33] ^= 0x01  # one flipped bit in the last parameter, before the digest
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert cli(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_truncated_dataset_exits_one(runs_dir, tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--out", str(data)]) == 0
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "logistic:5,3",
                "--epochs", "2"]) == 0
    ckpt = _one("*/checkpoints/original.ieuc", runs_dir)
    data.write_bytes(data.read_bytes()[:-3])
    capsys.readouterr()
    assert cli(["eval", "--data", str(data), "--ckpt", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: truncated .uds file: expected ")


def test_diverged_training_exits_one(runs_dir, tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--features", "4",
                "--out", str(data)]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "logistic:4,3",
                "--optimizer", "gd_fixed", "--eta", "1e9", "--epochs", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "diverged" in err


_REQUIRED = {"train": ["--data", "--model"], "retrain": ["--data", "--ckpt"],
             "unlearn": ["--data", "--ckpt", "--method"], "rcd": ["--data", "--ckpt"],
             "eval": ["--data", "--ckpt"]}
_SET = {"--data": "d.uds", "--model": "logistic:5,3", "--ckpt": "c.ieuc", "--method": "ft"}


@pytest.mark.parametrize("command", sorted(_REQUIRED))
def test_missing_required_flags_are_named(runs_dir, tmp_path, capsys, command):
    required = _REQUIRED[command]
    seed = [] if command == "eval" else ["--seed", "1"]  # eval draws nothing, so takes no seed
    assert cli([command, *seed]) == 1
    assert capsys.readouterr().err == f"error: {command} requires {', '.join(required)}\n"
    for flag in required:
        others = {f[2:]: _SET[f] for f in required if f != flag}
        # an empty value is unset too; --method's choices refuse "" before this check
        for config in [others] + ([{**others, flag[2:]: ""}] if flag != "--method" else []):
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            assert cli([command, *seed, "--config", "cfg.json"]) == 1
            assert capsys.readouterr().err == f"error: {command} requires {flag}\n"


def test_missing_seed_is_usage_error(runs_dir, capsys):
    assert cli(["gen-data", "--classes", "3"]) == 1
    capsys.readouterr()


def test_experiment_id_is_config_hash(runs_dir, tmp_path):
    out1 = tmp_path / "a.uds"
    out2 = tmp_path / "b.uds"
    cli(["gen-data", "--seed", "3", "--out", str(out1)])
    cli(["gen-data", "--seed", "4", "--out", str(out2)])
    ids = {p.name for p in runs_dir.iterdir()}
    assert len(ids) == 2  # different seed, different experiment id


def test_verify_fast_subset(runs_dir, monkeypatch, capsys):
    # stub the suite to keep this test quick; exit-code logic is the target
    from unlearn_forge.verify import CheckResult, SuiteReport

    def fake_suite(full, reproducibility):
        return SuiteReport(results=[CheckResult(name="stub", passed=True, margin=1.0)])

    monkeypatch.setattr("unlearn_forge.verify.run_suite", fake_suite)
    assert cli(["verify", "--fast", "--no-repro"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    def failing_suite(full, reproducibility):
        return SuiteReport(results=[CheckResult(name="stub", passed=False, margin=-1.0)])

    monkeypatch.setattr("unlearn_forge.verify.run_suite", failing_suite)
    assert cli(["verify", "--fast", "--no-repro"]) == 2


def test_verify_writes_report(runs_dir, tmp_path, monkeypatch):
    from unlearn_forge.verify import CheckResult, SuiteReport

    monkeypatch.setattr(
        "unlearn_forge.verify.run_suite",
        lambda full, reproducibility: SuiteReport(
            results=[CheckResult(name="stub", passed=True, margin=0.5)]))
    out = tmp_path / "verify.json"
    assert cli(["verify", "--fast", "--no-repro", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_passed"] is True
    assert set(payload) == {"checks", "all_passed"}  # byte identity is the reproducibility entry


@pytest.mark.parametrize("argv, config, exp_id", [
    (["gen-data", "--seed", "1", "--n-per-class", "20", "--out", "d.uds"], None,
     "bb84ace10e02"),
    (["gen-data", "--seed", "2", "--config", "c.json", "--classes", "3", "--out", "e.uds"],
     {"classes": 4, "features": 3, "n_per_class": 20}, "038e8dad76d3"),
], ids=["flags", "config-file"])
def test_gen_data_experiment_ids_are_pinned(runs_dir, tmp_path, capsys, argv, config, exp_id):
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
    assert cli(argv) == 0
    assert capsys.readouterr().out.split("\t")[0] == exp_id


def test_train_experiment_id_is_pinned(runs_dir, capsys):
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "20", "--out", "d.uds"]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "1", "--data", "d.uds", "--model", "mlp:5,6,3",
                "--epochs", "5"]) == 0
    assert capsys.readouterr().out.split("\t")[0] == "c70a577d0187"


def test_config_number_gives_the_flags_experiment_id(runs_dir, tmp_path, capsys):
    data, _ = _trained(tmp_path, capsys)
    train = ["train", "--seed", "1", "--data", str(data), "--model", "logistic:5,3",
             "--epochs", "2"]
    assert cli(train + ["--eta", "1"]) == 0
    exp_id, ckpt = capsys.readouterr().out.split("\t")[:2]
    by_flag = Path(ckpt).read_bytes()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"eta": 1}))  # a JSON int for a float flag
    assert cli(train + ["--config", str(cfg_file)]) == 0
    assert capsys.readouterr().out.split("\t")[:2] == [exp_id, ckpt]
    assert Path(ckpt).read_bytes() == by_flag


def test_unlearn_has_no_scrub_length_to_set(runs_dir, tmp_path, capsys):
    # scrub ascends the forget KL for a fixed SCRUB_ASCENT_EPOCHS epochs
    unlearn = ["unlearn", "--seed", "1", "--data", "d.uds", "--ckpt", "c.ieuc", "--method", "scrub"]
    assert cli(unlearn + ["--scrub-max-epochs", "3"]) == 1
    assert "unrecognized arguments: --scrub-max-epochs 3" in capsys.readouterr().err
    cfg_file = tmp_path / "scrub.json"
    cfg_file.write_text(json.dumps({"scrub_max_epochs": 3}))
    assert cli(unlearn + ["--config", str(cfg_file)]) == 1
    assert "unknown config keys: ['scrub_max_epochs']" in capsys.readouterr().err


def test_config_file_may_not_set_the_seed(runs_dir, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 5}))
    assert cli(["gen-data", "--seed", "1", "--config", str(cfg_file)]) == 1
    assert "unknown config keys: ['seed']" in capsys.readouterr().err


def _trained(tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--out", str(data)]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "logistic:5,3",
                "--epochs", "2"]) == 0
    return data, capsys.readouterr().out.split("\t")[1]


def test_unlearn_hashes_the_settings_that_ran(runs_dir, tmp_path, capsys):
    """Typing a flag at its default names the same run as leaving it out."""
    data, ckpt = _trained(tmp_path, capsys)
    runs = set(runs_dir.iterdir())
    argv = ["unlearn", "--seed", "1", "--data", str(data), "--ckpt", ckpt,
            "--method", "ieu", "--epochs", "2"]
    ids = set()
    for extra in ([], ["--alpha", "1.0"], ["--alpha", "1", "--c", "0", "--eta", "0.01"]):
        assert cli(argv + extra) == 0
        ids.add(capsys.readouterr().out.split("\t")[0])
    assert len(ids) == 1
    assert [p.name for p in set(runs_dir.iterdir()) - runs] == list(ids)


def test_retrain_refuses_an_unlearned_checkpoint(runs_dir, tmp_path, capsys):
    """An unlearned checkpoint holds no optimizer config to retrain with."""
    data, ckpt = _trained(tmp_path, capsys)
    assert cli(["unlearn", "--seed", "1", "--data", str(data), "--ckpt", ckpt,
                "--method", "ft", "--epochs", "1"]) == 0
    unlearned = capsys.readouterr().out.split("\t")[1].strip()
    runs = sorted(runs_dir.iterdir())
    assert cli(["retrain", "--seed", "1", "--data", str(data), "--ckpt", unlearned]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {unlearned}: ") and "must hold an optimizer config" in err
    assert "retrain needs the checkpoint train wrote" in err
    assert sorted(runs_dir.iterdir()) == runs


def test_rcd_measures_every_checkpoint_against_one_forget_oracle(runs_dir, tmp_path, capsys):
    """A zero-epoch ft copy holds the original's parameters bit for bit, so
    rcd of either, with every default, writes the same errors and phi_ref."""
    data = str(tmp_path / "d.uds")
    assert cli(["gen-data", "--seed", "0", "--out", data]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "0", "--data", data, "--model", "mlp:5,8,3"]) == 0
    original = capsys.readouterr().out.split("\t")[1]
    assert cli(["unlearn", "--seed", "0", "--data", data, "--ckpt", original,
                "--method", "ft", "--epochs", "0"]) == 0
    copy = capsys.readouterr().out.split("\t")[1].strip()
    assert load_checkpoint(copy).theta.tobytes() == load_checkpoint(original).theta.tobytes()
    reports = []
    for ckpt in (original, copy):
        assert cli(["rcd", "--seed", "0", "--data", data, "--ckpt", ckpt]) == 0
        reports.append(json.loads(Path(capsys.readouterr().out.split("\t")[2].strip())
                                  .read_text()))
    for key in ("errors", "phi_ref"):
        assert json.dumps(reports[0][key]) == json.dumps(reports[1][key])


def test_checkpoint_without_optimizer_config_exits_one(runs_dir, tmp_path, capsys):
    """A trained checkpoint whose config is no optimizer config of this
    version, such as one that still holds the Adam and Lanczos constants
    as settings, is refused by name by retrain, which trains with it."""
    from unlearn_forge.checkpoints import save_checkpoint

    data, ckpt = _trained(tmp_path, capsys)
    original = load_checkpoint(ckpt)
    original.config.update(beta1=0.9, beta2=0.999, eps=1e-8, spectral_tol=1e-10,
                           spectral_max_iter=100_000)
    old = tmp_path / "old.ieuc"
    save_checkpoint(original, old)
    assert cli(["retrain", "--seed", "1", "--data", str(data), "--ckpt", str(old)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must hold an optimizer config" in err


@pytest.mark.parametrize("key, value, named", [
    ("max_epochs", 1.5, "max_epochs must be an integer"),
    ("grad_norm_tol", "x", "grad_norm_tol must be a finite number"),
    ("grad_norm_tol", float("nan"), "grad_norm_tol must be a finite number"),
    ("eta", True, "eta must be a finite number"),
    ("batch_size", True, "batch_size must be 'full' or an int >= 1"),
], ids=["epochs-float", "tol-str", "tol-nan", "eta-bool", "batch-bool"])
def test_checkpoint_config_of_a_wrong_type_exits_one(runs_dir, tmp_path, capsys, key, value,
                                                     named):
    data, ckpt = _trained(tmp_path, capsys)
    original = load_checkpoint(ckpt)
    original.config.update({key: value, "kind": "sgd"} if key == "batch_size" else {key: value})
    bad = tmp_path / "bad.ieuc"
    save_checkpoint(original, bad)
    assert cli(["retrain", "--seed", "1", "--data", str(data), "--ckpt", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("payload, named", [({"K": 1}, "'accuracies'"),
                                            ({"accuracies": {}}, "'mia_rate'"),
                                            ([1, 2], "JSON object")],
                         ids=["rcd-report", "no-mia", "list"])
def test_compare_rejects_what_is_not_an_eval_report(runs_dir, tmp_path, capsys, payload, named):
    report = tmp_path / "r.json"
    report.write_text(json.dumps(payload))
    assert cli(["compare", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("content, named", [
    (b"", "Expecting value"),
    (b"{not json", "Expecting property name"),
    (b"\x9c\xff\x00binary", "codec can't decode"),
    (json.dumps({"accuracies": {"retain": "x"}, "mia_rate": "high", "avg_gap": [1]}).encode(),
     "accuracies['retain'] must be a number or null, not 'x'"),
    (json.dumps({"accuracies": {"retain": 0.5}, "mia_rate": "high"}).encode(),
     "mia_rate must be a number, not 'high'"),
], ids=["empty", "not-json", "binary", "string-accuracy", "string-mia"])
def test_compare_names_the_report_it_refuses(runs_dir, tmp_path, capsys, content, named):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"accuracies": {"retain": 0.5}, "mia_rate": 0.25}))
    bad.write_bytes(content)
    assert cli(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and named in captured.err
    assert captured.out == ""


def test_compare_refuses_non_finite_numbers(runs_dir, tmp_path, capsys):
    # Python's json reads NaN and Infinity, which no eval report holds
    bad = tmp_path / "bad.json"
    bad.write_text('{"accuracies": {"forget": NaN}, "mia_rate": Infinity, "avg_gap": NaN}')
    assert cli(["compare", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {bad}: eval report accuracies['forget'] must be a number "
                            "or null, not nan\n")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["r.json", "a,b.json", 'say "a".json'])
def test_compare_csv_quotes_cells(runs_dir, tmp_path, capsys, name):
    report = tmp_path / name
    report.write_text(json.dumps({"accuracies": {"retain": 0.5}, "mia_rate": 0.25}))
    assert cli(["compare", str(report), "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows == [["report", "mia", "retain"], [str(report), "0.25", "0.5"]]


def test_compare_json_lists_one_object_per_report(runs_dir, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"accuracies": {"retain": 0.5}, "mia_rate": 0.25}))
    b.write_text(json.dumps({"accuracies": {"forget": 1.0, "retain": None}, "mia_rate": 0.75,
                             "gaps": {"retain": 0.5}, "avg_gap": 0.5}))
    assert cli(["compare", str(a), str(b), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == [
        {"report": str(a), "mia": 0.25, "retain": 0.5},
        {"report": str(b), "mia": 0.75, "forget": 1.0, "retain": None, "avg_gap": 0.5}]


@pytest.mark.parametrize("flag", ["--data", "--ckpt", "--config"])
def test_directory_as_input_file_exits_one(runs_dir, tmp_path, capsys, flag):
    data, ckpt = _trained(tmp_path, capsys)
    argv = {"--data": str(data), "--ckpt": ckpt}
    argv[flag] = str(tmp_path)
    assert cli(["eval", *(x for item in argv.items() for x in item)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("header, named", [({"schema_version": 1, "p": 2}, "lacks key 'n'"),
                                           ([1, 2], "must be a JSON object")],
                         ids=["no-n", "list"])
def test_bad_dataset_header_exits_one(runs_dir, tmp_path, capsys, header, named):
    _, ckpt = _trained(tmp_path, capsys)
    bad = tmp_path / "bad.uds"
    bad.write_bytes(json.dumps(header).encode() + b"\n")
    assert cli(["eval", "--data", str(bad), "--ckpt", ckpt]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("seed, code", [(2**64 - 1, 0), (2**64, 1)])
def test_seed_must_fit_the_stream_key(runs_dir, capsys, seed, code):
    assert cli(["gen-data", "--seed", str(seed), "--n-per-class", "10"]) == code
    assert ("error: root_seed must lie in [0, 2**64)" in capsys.readouterr().err) == (code == 1)


_DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("boundary", ["config", "uds-header", "ieuc-header", "compare-report"])
def test_deeply_nested_json_exits_one(runs_dir, tmp_path, capsys, boundary):
    """JSON nested past what the parser can recurse into is refused at each
    input boundary that reads JSON."""
    data, ckpt = _trained(tmp_path, capsys)
    deep = tmp_path / "deep"
    if boundary == "ieuc-header":  # with a valid hash, so the header gets parsed
        body = MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(_DEEP)) + _DEEP
        deep.write_bytes(body + hashlib.sha256(body).digest())
    else:
        deep.write_bytes(_DEEP + b"\n")
    argv = {"config": ["gen-data", "--seed", "1", "--config", str(deep)],
            "uds-header": ["eval", "--data", str(deep), "--ckpt", ckpt],
            "ieuc-header": ["eval", "--data", str(data), "--ckpt", str(deep)],
            "compare-report": ["compare", str(deep)]}[boundary]
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nests too deeply" in err


def test_checkpoint_of_no_classifier_exits_one(runs_dir, tmp_path, capsys):
    from unlearn_forge.checkpoints import Checkpoint, save_checkpoint
    from unlearn_forge.models import quadratic_spec

    data, _ = _trained(tmp_path, capsys)
    quadratic = tmp_path / "q.ieuc"
    save_checkpoint(Checkpoint("original", quadratic_spec([2.0, 1.0], [0.0, 0.0]), {}, 0,
                               np.zeros(2)), quadratic)
    assert cli(["eval", "--data", str(data), "--ckpt", str(quadratic)]) == 1
    assert "is no classifier" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_checkpoint_of_nan_losses_exits_one(runs_dir, tmp_path, capsys):
    # finite weights so large that every per-example loss is NaN
    from unlearn_forge.checkpoints import Checkpoint
    from unlearn_forge.models import mlp_spec
    from unlearn_forge.numcore import derive_stream, kaiming_sample

    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--features", "4",
                "--out", str(data)]) == 0
    spec, huge = mlp_spec([4, 6, 3]), tmp_path / "huge.ieuc"
    theta = 1e160 * kaiming_sample(spec.param_count, derive_stream(1, 11))
    save_checkpoint(Checkpoint("original", spec, {}, 0, theta), huge)
    capsys.readouterr()
    assert cli(["eval", "--data", str(data), "--ckpt", str(huge)]) == 1
    assert "losses must be non-empty and finite" in capsys.readouterr().err


def test_an_empty_runs_dir_means_the_default_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", "")
    monkeypatch.chdir(tmp_path)
    assert cli(["gen-data", "--seed", "2", "--n-per-class", "5"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["runs"]
    _one("*/dataset.uds", Path("runs"))


def test_manifest_paths_resolve_against_its_cwd(tmp_path, monkeypatch):
    """With the default relative runs root and a relative ``--data``, each
    manifest's ``cwd`` is where its relative paths resolve; the same run
    made in another directory keeps its experiment id."""
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", "runs")
    runs = []
    for name in ("a", "bb"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        assert cli(["gen-data", "--seed", "4", "--n-per-class", "10", "--out", "d.uds"]) == 0
        assert cli(["train", "--seed", "4", "--data", "d.uds", "--model", "logistic:5,3",
                    "--epochs", "2"]) == 0
        ckpt = _one("*/checkpoints/original.ieuc", Path("runs"))
        runs.append((work, ckpt.parents[1].resolve() / "manifest.json"))
    monkeypatch.chdir(tmp_path)
    for work, path in runs:
        manifest = json.loads(path.read_text())
        assert Path(manifest["cwd"]) == work.resolve()
        assert manifest["config"]["data"] == "d.uds"
        assert (Path(manifest["cwd"]) / manifest["config"]["data"]).is_file()
        for artifact in manifest["artifacts"].values():
            assert not Path(artifact).is_absolute()
            assert (Path(manifest["cwd"]) / artifact).is_file()
    assert runs[0][1].parent.name == runs[1][1].parent.name


def _is_cell(text):
    """A CSV cell is empty, an int, a float, True or False."""
    if text in ("", "True", "False"):
        return True
    try:
        float(text)  # an int parses too
    except ValueError:
        return False
    return True


def test_artifact_formats(runs_dir, tmp_path, capsys):
    """Each JSON report's keys and each CSV file's header and cells. No
    float value is pinned: those vary with the BLAS build."""
    data = tmp_path / "d.uds"
    run = ["--seed", "2", "--data", str(data)]
    assert cli(["gen-data", "--seed", "2", "--n-per-class", "10", "--features", "4",
                "--out", str(data)]) == 0
    assert cli(["gen-data", "--seed", "3", "--n-per-class", "10"]) == 0  # into its run directory
    assert cli(["train", *run, "--model", "logistic:4,3", "--epochs", "3"]) == 0
    original = str(_one("*/checkpoints/original.ieuc", runs_dir))
    assert cli(["unlearn", *run, "--ckpt", original, "--method", "scrub", "--epochs", "2"]) == 0
    unlearned = str(_one("*/checkpoints/scrub.ieuc", runs_dir))
    assert cli(["rcd", *run, "--ckpt", unlearned, "--k", "3", "--phi", "loss",
                "--step", "fixed:0.05"]) == 0
    assert cli(["eval", "--data", str(data), "--ckpt", unlearned, "--against", original]) == 0
    capsys.readouterr()

    rcd = json.loads(_one("*/reports/rcd.json", runs_dir).read_text())
    assert set(rcd) == {"K", "phi_kind", "step_mode", "errors", "rcd_value", "phi_ref",
                        "curvature_bound", "bound_diagnostic", "spectral"}
    assert set(rcd["spectral"]) == {"lambda_max", "lambda_min", "kappa", "iterations_used",
                                    "residual", "psd_flag"}
    evaluation = json.loads(_one("*/reports/eval.json", runs_dir).read_text())
    assert set(evaluation) == {"accuracies", "mia_rate", "gaps", "avg_gap"}
    # a run directory holds its manifest, the files it names and no empty directory
    keys = {"gen-data": {"dataset"}, "train": {"checkpoint", "trace"},
            "unlearn": {"checkpoint", "trace", "wall_clock"},
            "rcd": {"report", "report_csv", "oracle", "oracle_cache"}, "eval": {"report"}}
    facts = {"wall_clock", "oracle", "oracle_cache"}
    manifests = sorted(runs_dir.glob("*/manifest.json"))
    assert len(manifests) == 6
    for manifest in manifests:
        content = json.loads(manifest.read_text())
        assert set(content) == {
            "command", "experiment_id", "config", "seed", "cwd", "artifacts", "created"}
        assert (content["seed"] is None) == (content["command"] == "eval")
        artifacts = content["artifacts"]
        assert set(artifacts) == keys[content["command"]]
        named = {Path(path) for key, path in artifacts.items() if key not in facts}
        assert all(path.is_absolute() and path.is_file() for path in named)
        run_dir = manifest.parent
        inside = {path for path in run_dir.rglob("*") if path.is_file()}
        assert inside == {manifest} | {path for path in named if run_dir in path.parents}
        assert all(any(d.iterdir()) for d in run_dir.rglob("*") if d.is_dir())

    headers = {"train.csv": "epoch,loss,acc,grad_norm,lambda_max,eta",
               "scrub.csv": "epoch,retain_loss,forget_loss,retain_acc,forget_acc,"
                            "clip_active,forget_kl",
               "rcd.csv": "t,phi,e_t,cumulative"}
    for name, header in headers.items():
        lines = _one(f"*/*/{name}", runs_dir).read_text().splitlines()
        assert lines[0] == header
        cells = [cell for line in lines[1:] for cell in line.split(",")]
        assert cells and all(_is_cell(c) for c in cells), (name, lines)


def test_unlearn_refuses_a_diverged_run(runs_dir, tmp_path, capsys):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--out", str(data)]) == 0
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "mlp:5,4,3",
                "--epochs", "20"]) == 0
    ckpt = _one("*/checkpoints/original.ieuc", runs_dir)
    runs = sorted(runs_dir.iterdir())
    capsys.readouterr()
    assert cli(["unlearn", "--seed", "1", "--data", str(data), "--ckpt", str(ckpt),
                "--method", "rl", "--eta", "1e250", "--epochs", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: unlearning diverged at epoch 0: ")
    assert err.count("\n") == 1
    assert sorted(runs_dir.iterdir()) == runs


@pytest.mark.parametrize("phi", ["loss", "one_minus_accuracy"])
def test_rcd_refuses_a_diverged_relearning(runs_dir, tmp_path, capsys, phi):
    data = tmp_path / "d.uds"
    assert cli(["gen-data", "--seed", "1", "--out", str(data)]) == 0
    assert cli(["train", "--seed", "1", "--data", str(data), "--model", "mlp:5,6,3",
                "--epochs", "20"]) == 0
    ckpt = _one("*/checkpoints/original.ieuc", runs_dir)
    runs = sorted(runs_dir.iterdir())
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert cli(["rcd", "--seed", "1", "--data", str(data), "--ckpt", str(ckpt),
                    "--k", "10", "--phi", phi, "--step", "fixed:1e300"]) == 1
    assert "at epoch" in capsys.readouterr().err
    # the forget oracle is cached, but no run directory is written
    assert [p for p in sorted(runs_dir.iterdir()) if p.name != "oracles"] == runs
