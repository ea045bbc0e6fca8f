"""What a CLI process pays for: the modules it imports and the forget
oracle that ``rcd`` trains once per runs root."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import unlearn_forge
from unlearn_forge.checkpoints import load_checkpoint, save_checkpoint
from unlearn_forge.cli import cli
from unlearn_forge.datasets import load_uds, save_uds

SRC = Path(unlearn_forge.__file__).resolve().parents[1]

# Runs the README's chain of commands through cli() in one fresh process and
# prints the scipy and unlearn_forge modules it loaded; then a loss-phi rcd on
# a logistic model, whose Hessian is PSD, so the report carries a curvature
# bound.
CHAIN = r"""
import contextlib, io, json, sys
from unlearn_forge.cli import cli

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli([str(a) for a in args])
    assert code == 0, (args, code)
    return out.getvalue().split("\t")

run("gen-data", "--seed", 3, "--classes", 3, "--features", 4, "--n-per-class", 12,
    "--out", "d.uds")
original = run("train", "--seed", 3, "--data", "d.uds", "--model", "mlp:4,6,3",
               "--optimizer", "adam", "--epochs", 5)[1]
retrain = run("retrain", "--seed", 3, "--data", "d.uds", "--ckpt", original)[1].strip()
unlearned = run("unlearn", "--seed", 3, "--data", "d.uds", "--ckpt", original,
                "--method", "ieu", "--alpha", 0.999, "--epochs", 2)[1].strip()
run("rcd", "--seed", 3, "--data", "d.uds", "--ckpt", unlearned, "--k", 3,
    "--phi", "one_minus_accuracy", "--step", "fixed:0.05")
report = run("eval", "--data", "d.uds", "--ckpt", unlearned, "--against", retrain)[1]
run("compare", report.splitlines()[0])
scipy_modules = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
forge_modules = sorted(m for m in sys.modules if m.split(".")[0] == "unlearn_forge")

logistic = run("train", "--seed", 3, "--data", "d.uds", "--model", "logistic:4,3",
               "--epochs", 5)[1]
report = run("rcd", "--seed", 3, "--data", "d.uds", "--ckpt", logistic, "--k", 3,
             "--phi", "loss", "--step", "fixed:0.05")[2].strip()
with open(report) as fh:
    bound = json.load(fh)["curvature_bound"]
print(json.dumps({"scipy": scipy_modules, "modules": forge_modules, "bound": bound}))
"""


def test_cli_chain_loads_no_scipy(tmp_path):
    env = dict(os.environ, UNLEARN_FORGE_RUNS_DIR=str(tmp_path / "runs"),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHAIN], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scipy"] == []
    # only the verify command loads the verification suite
    assert "unlearn_forge.cli" in out["modules"]
    assert "unlearn_forge.verify" not in out["modules"]
    # the logistic Hessian is PSD, so the loss-phi report carries a bound
    assert out["bound"] is not None and out["bound"] > 0


# Runs every caller of the Lanczos solver in one fresh process: the library's
# estimate_spectrum, a bounded rcd and a gd_adaptive train, then a loss-phi rcd
# through cli(); prints the scipy modules loaded and the bounds.
SPECTRAL = r"""
import contextlib, io, json, sys
import numpy as np
from unlearn_forge.cli import cli
from unlearn_forge.metrics import rcd
from unlearn_forge.models import make_quadratic
from unlearn_forge.numcore import derive_stream
from unlearn_forge.spectral import estimate_spectrum
from unlearn_forge.training import OptimizerConfig, train

obj, theta = make_quadratic([4.0, 1.0], np.zeros(2), 0.0), np.ones(2)
assert estimate_spectrum(obj, theta, derive_stream(1, 0)).kappa > 0
adaptive = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)
library_bound = rcd(theta, obj, 0.0, 3, adaptive, "loss", derive_stream(1, 1),
                    attach_bound=True).curvature_bound
assert train(obj, theta, OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=3),
             derive_stream(1, 2)).records[-1].lambda_max > 0

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli([str(a) for a in args])
    assert code == 0, (args, code)
    return out.getvalue().split("\t")

run("gen-data", "--seed", 3, "--n-per-class", 12, "--features", 4, "--out", "d.uds")
ckpt = run("train", "--seed", 3, "--data", "d.uds", "--model", "logistic:4,3",
           "--epochs", 5)[1]
report = run("rcd", "--seed", 3, "--data", "d.uds", "--ckpt", ckpt, "--k", 3,
             "--phi", "loss")[2].strip()
with open(report) as fh:
    cli_bound = json.load(fh)["curvature_bound"]
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "bounds": [library_bound, cli_bound]}))
"""


def test_lanczos_callers_load_no_scipy(tmp_path):
    env = dict(os.environ, UNLEARN_FORGE_RUNS_DIR=str(tmp_path / "runs"),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SPECTRAL], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["scipy"] == []
    assert all(bound is not None and bound > 0 for bound in out["bounds"])


def _loads_numpy_ma(cwd, *argv) -> bool:
    """Whether one command, run through cli() in a fresh process, loads numpy.ma."""
    code = ("import sys\nfrom unlearn_forge.cli import cli\n"
            f"assert cli({[str(a) for a in argv]!r}) == 0\n"
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ, UNLEARN_FORGE_RUNS_DIR=str(cwd / "runs"),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_eval_loads_no_numpy_ma(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    for split in ("random", "classwise"):
        assert not _loads_numpy_ma(tmp_path, "gen-data", "--seed", 1, "--n-per-class", 10,
                                   "--features", 4, "--split", split, "--out", f"{split}.uds")
    ckpt = _run(capsys, "train", "--seed", 1, "--data", "random.uds", "--model", "logistic:4,3",
                "--epochs", 2)[1]
    assert not _loads_numpy_ma(tmp_path, "eval", "--data", "random.uds", "--ckpt", ckpt)


def _run(capsys, *argv):
    """Run one command through cli(); returns its stdout's tab-separated fields."""
    code = cli([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return [field.strip() for field in captured.out.split("\t")]


def _unlearned(capsys, data, model):
    original = _run(capsys, "train", "--seed", 1, "--data", data, "--model", model,
                    "--epochs", 2)[1]
    return _run(capsys, "unlearn", "--seed", 1, "--data", data, "--ckpt", original,
                "--method", "ft", "--epochs", 2)[1]


@pytest.fixture()
def setup(tmp_path, monkeypatch, capsys):
    """A runs root, a dataset, and an unlearned logistic checkpoint."""
    runs = tmp_path / "runs"
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(runs))
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "d.uds"
    _run(capsys, "gen-data", "--seed", 1, "--n-per-class", 15, "--features", 4, "--out", data)
    return runs, data, _unlearned(capsys, data, "logistic:4,3")


def _rcd(runs, data, ckpt, capsys, seed=1):
    """Run rcd; returns (rcd.json bytes, the manifest's oracle_cache)."""
    report = Path(_run(capsys, "rcd", "--seed", seed, "--data", data, "--ckpt", ckpt,
                       "--k", 4, "--phi", "one_minus_accuracy", "--step", "fixed:0.05")[2])
    manifest = json.loads((report.parent.parent / "manifest.json").read_text())
    assert Path(manifest["artifacts"]["oracle"]).parent == runs / "oracles"
    return report.read_bytes(), manifest["artifacts"]["oracle_cache"]


def test_oracle_cache_hit_gives_the_same_report(setup, capsys):
    runs, data, ckpt = setup
    cold, status = _rcd(runs, data, ckpt, capsys)
    assert status == "miss"
    warm, status = _rcd(runs, data, ckpt, capsys)
    assert status == "hit"
    assert warm == cold
    assert [p.suffix for p in (runs / "oracles").iterdir()] == [".ieuc"]


def test_oracle_cache_key_covers_forget_set_spec_and_seed(setup, tmp_path, capsys):
    runs, data, ckpt = setup
    assert _rcd(runs, data, ckpt, capsys)[1] == "miss"
    assert _rcd(runs, data, ckpt, capsys, seed=2)[1] == "miss"

    ds = load_uds(data)
    features = ds.features.copy()
    features[ds.forget_idx[0], 0] += 1e-9
    other = tmp_path / "other.uds"
    save_uds(replace(ds, features=features), other)
    assert _rcd(runs, other, ckpt, capsys)[1] == "miss"

    # every rcd trains its oracle with one config, so only the spec differs
    assert _rcd(runs, data, _unlearned(capsys, data, "mlp:4,3,3"), capsys)[1] == "miss"
    assert len(list((runs / "oracles").glob("*.ieuc"))) == 4
    assert _rcd(runs, data, ckpt, capsys)[1] == "hit"


def test_oracle_cache_file_name_is_pinned(setup, capsys):
    # the key hashes the forget set, spec, FORGET_ORACLE_CONFIG and seed; a change
    # to any of them names another file and leaves every cached oracle unread
    runs, data, ckpt = setup
    _rcd(runs, data, ckpt, capsys)
    assert [p.name for p in (runs / "oracles").iterdir()] == [
        "2fa7fe2c3d1862c93a49ce5c90a909117660ae8d5479b02248a8b57706b46977.ieuc"]


@pytest.mark.parametrize("damage", ["truncate", "flip", "other_key"])
def test_damaged_oracle_cache_is_recomputed(setup, capsys, damage):
    runs, data, ckpt = setup
    cold, _ = _rcd(runs, data, ckpt, capsys)
    (cached,) = (runs / "oracles").glob("*.ieuc")
    if damage == "other_key":  # a valid checkpoint filed under the wrong key
        ck = load_checkpoint(cached)
        ck.extra["oracle_key"] = "0" * 64
        save_checkpoint(ck, cached)
    else:
        blob = bytearray(cached.read_bytes())
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        else:
            blob[-40] ^= 0x01
        cached.write_bytes(bytes(blob))
    again, status = _rcd(runs, data, ckpt, capsys)
    assert status == "miss" and again == cold
    assert _rcd(runs, data, ckpt, capsys) == (cold, "hit")


@pytest.mark.parametrize("phi_ref", [{"one_minus_accuracy": 0.25}, {"loss": "0.5",
                                     "one_minus_accuracy": 0.25},
                                     {"loss": float("nan"), "one_minus_accuracy": 0.25}, [0.5]],
                         ids=["no-loss-kind", "string", "nan", "list"])
def test_oracle_cache_with_a_bad_phi_ref_is_recomputed(setup, capsys, phi_ref):
    # a file with a valid hash and key whose phi_ref rcd cannot read is damaged
    runs, data, ckpt = setup
    cold, _ = _rcd(runs, data, ckpt, capsys)
    (cached,) = (runs / "oracles").glob("*.ieuc")
    ck = load_checkpoint(cached)
    ck.extra["phi_ref"] = phi_ref
    save_checkpoint(ck, cached)
    again, status = _rcd(runs, data, ckpt, capsys)
    assert status == "miss" and again == cold
    assert set(load_checkpoint(cached).extra["phi_ref"]) == {"loss", "one_minus_accuracy"}
    assert _rcd(runs, data, ckpt, capsys) == (cold, "hit")
