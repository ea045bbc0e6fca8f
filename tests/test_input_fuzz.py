"""Property tests for four input boundaries of the CLI: ``--config`` JSON
files, ``.uds`` headers, IEUC checkpoints and the optimizer config a
checkpoint holds. Whatever a file holds, a command exits 0 or 1 and never
raises.

Integers drawn for settings stay small, so a draw that happens to be a
valid configuration runs in milliseconds; paths and model specs are fixed
on the command line, so no draw writes outside the test's directory.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from unlearn_forge.checkpoints import (Checkpoint, CheckpointError, load_checkpoint,
                                       save_checkpoint)
from unlearn_forge.cli import cli
from unlearn_forge.models import logistic_spec
from test_checkpoints import write_raw

_COUNTS = st.integers(-2, 12)
_SCALARS = (st.none() | st.booleans() | _COUNTS | st.floats() | st.text(max_size=6)
            | st.sampled_from(["random", "classwise", "adam", "sgd", "gd_fixed", "gd_adaptive",
                               "d.uds", "logistic:5,3"]))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
_NUMBERS = st.floats() | st.floats(-3, 3) | _COUNTS
# values of the right type for each setting, drawn often enough to reach the command
_WELL_TYPED = {
    "gen-data": {"n_per_class": _COUNTS, "classes": _COUNTS, "features": _COUNTS,
                 "separation": _NUMBERS, "noise_sd": _NUMBERS, "forget_fraction": _NUMBERS,
                 "split": st.sampled_from(["random", "classwise"]), "out": st.text(max_size=6)},
    "train": {"data": st.just("d.uds"), "model": st.just("logistic:5,3"),
              "optimizer": st.sampled_from(["gd_fixed", "gd_adaptive", "sgd", "adam"]),
              "eta": _NUMBERS, "epochs": _COUNTS, "batch_size": _COUNTS},
}
# flags and attributes that are no setting, and a setting of each command the other lacks
_OTHER_KEYS = ["seed", "config", "help", "fn", "command", "epochs", "classes"]


@st.composite
def _config_files(draw):
    """A command and a ``--config`` payload for it: mostly an object over
    the command's own settings with well-typed values, at times with a
    value of another type or a key it lacks, at times no object at all."""
    command = draw(st.sampled_from(sorted(_WELL_TYPED)))
    if draw(st.integers(0, 9)) == 0:
        return command, draw(_JSON)
    own = _WELL_TYPED[command]
    keys = draw(st.lists(st.sampled_from(sorted(own)), max_size=4, unique=True))
    payload = {key: draw(st.one_of(own[key], own[key], _JSON)) for key in keys}
    if draw(st.integers(0, 3)) == 0:
        payload[draw(st.sampled_from(_OTHER_KEYS))] = draw(_SCALARS)
    return command, payload


# derandomized, so every run of the suite tries the same inputs
_FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    assert cli(["gen-data", "--seed", "1", "--n-per-class", "10", "--out", "d.uds"]) == 0
    capsys.readouterr()
    assert cli(["train", "--seed", "1", "--data", "d.uds", "--model", "logistic:5,3",
                "--epochs", "2"]) == 0
    ckpt = capsys.readouterr().out.split("\t")[1]
    return tmp_path, ckpt


@_FUZZ
@given(drawn=_config_files())
def test_any_config_file_exits_zero_or_one(workdir, capsys, drawn):
    tmp_path, _ = workdir
    command, payload = drawn
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(payload))
    fixed = (["--out", str(tmp_path / "fuzz.uds")] if command == "gen-data"
             else ["--data", "d.uds", "--model", "logistic:5,3"])
    assert cli([command, "--seed", "3", "--config", str(cfg_file), *fixed]) in (0, 1)
    capsys.readouterr()


def _valid_header(n, p):
    idx = list(range(n))
    return {"schema_version": 1, "n": n, "p": p, "dtype": "f64le", "label_dtype": "i64le",
            "retain_idx": idx[: n // 2], "forget_idx": idx[n // 2 : n - 2],
            "test_idx": idx[n - 2 :], "forgotten_classes": [], "provenance": {}}


@st.composite
def _uds_files(draw):
    """A header that is valid for small (n, p) but for a few replaced or
    deleted keys, and a payload that fits it or has a drawn length."""
    n, p = draw(st.integers(4, 8)), draw(st.sampled_from([5, 2]))
    header = _valid_header(n, p)
    keys = sorted(header)
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        if draw(st.booleans()):
            header.pop(key, None)
        else:
            header[key] = draw(_JSON | st.lists(st.integers(-3, 2**64), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        header = draw(_JSON)
    features = draw(st.lists(st.floats(-1e3, 1e3), min_size=n * p, max_size=n * p)
                    | st.lists(st.floats(), min_size=n * p, max_size=n * p))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                  | st.lists(st.integers(-2, 4), min_size=n, max_size=n))
    payload = (np.array(features, dtype="<f8").tobytes()
               + np.array(labels, dtype="<i8").tobytes())
    if draw(st.integers(0, 3)) == 0:
        payload = payload[: draw(st.integers(0, len(payload) + 8))]
    return json.dumps(header).encode() + b"\n" + payload


@_FUZZ
@given(blob=_uds_files())
def test_any_dataset_header_exits_zero_or_one(workdir, capsys, blob):
    tmp_path, ckpt = workdir
    data = tmp_path / "fuzz.uds"
    data.write_bytes(blob)
    assert cli(["eval", "--data", str(data), "--ckpt", ckpt]) in (0, 1)
    capsys.readouterr()


_SPEC = logistic_spec(5, 3)  # the model the workdir's data fits


@st.composite
def _checkpoint_files(draw):
    """Header bytes and a payload for an IEUC file: mostly a valid header
    of a small logistic model with a few keys, or model spec keys, replaced
    or deleted, at times any JSON or any bytes; the payload fits ``dim`` or
    has a drawn length."""
    spec = _SPEC.to_dict()
    header = {"role": draw(st.sampled_from(["original", "unlearned", "retrain"])),
              "model_spec": spec, "config": {}, "root_seed": 1,
              "dim": _SPEC.param_count, "extra": {}}
    for part in (spec, header):  # the spec first, while the header still holds it
        for key in draw(st.lists(st.sampled_from(sorted(part)), max_size=1)):
            if draw(st.booleans()):
                part.pop(key, None)
            else:
                part[key] = draw(_JSON | st.lists(st.integers(-3, 2**64), max_size=4))
    head = json.dumps(header).encode()
    form = draw(st.integers(0, 9))
    if form == 0:
        head = json.dumps(draw(_JSON)).encode()
    elif form == 1:
        head = draw(st.binary(max_size=12))
    count = _SPEC.param_count
    values = draw(st.lists(st.floats(-10, 10), min_size=count, max_size=count)
                  | st.lists(st.floats(), min_size=count, max_size=count))
    payload = np.array(values, dtype="<f8").tobytes()
    if draw(st.integers(0, 3)) == 0:
        payload = payload[: draw(st.integers(0, len(payload) + 8))]
    return head, payload


@_FUZZ
@given(drawn=_checkpoint_files())
def test_any_checkpoint_loads_or_is_refused(workdir, capsys, drawn):
    tmp_path, _ = workdir
    path = tmp_path / "fuzz.ieuc"
    write_raw(path, *drawn)
    try:
        assert isinstance(load_checkpoint(path), Checkpoint)
        refused = False
    except CheckpointError:
        refused = True
    code = cli(["eval", "--data", "d.uds", "--ckpt", str(path)])
    assert code == 1 if refused else code in (0, 1)
    capsys.readouterr()


@st.composite
def _optimizer_config_values(draw):
    """A key of a trained checkpoint's optimizer config and a JSON scalar
    to put there; ints beyond float range for the real keys only, since a
    valid max_epochs that large would run without end."""
    key = draw(st.sampled_from(["kind", "eta", "batch_size", "max_epochs", "grad_norm_tol"]))
    huge = st.integers(2**1023, 2**1100) if key in ("eta", "grad_norm_tol") else st.nothing()
    return key, draw(_SCALARS | st.sampled_from([float("nan"), float("inf"), -float("inf")])
                     | st.sampled_from(["full", 0.0, 1e-3]) | huge)


@_FUZZ
@given(drawn=_optimizer_config_values())
def test_any_optimizer_config_value_exits_zero_or_one(workdir, capsys, drawn):
    tmp_path, ckpt = workdir
    key, value = drawn
    original = load_checkpoint(ckpt)
    original.config[key] = value
    path = tmp_path / "fuzz.ieuc"
    save_checkpoint(original, path)  # with a valid content hash: the config is the input
    for argv in (["retrain"], ["rcd", "--k", "2"]):
        assert cli([*argv, "--seed", "3", "--data", "d.uds", "--ckpt", str(path)]) in (0, 1)
    capsys.readouterr()
