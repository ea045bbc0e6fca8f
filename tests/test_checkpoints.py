import hashlib
import json
import re
import struct

import numpy as np
import pytest

from unlearn_forge.checkpoints import (
    Checkpoint,
    CheckpointError,
    save_checkpoint,
    load_checkpoint,
    MAGIC,
)
from unlearn_forge.cli import cli
from unlearn_forge.datasets import gen_blobs, split_random, save_uds
from unlearn_forge.models import mlp_spec


def _toy_ckpt(seed=0):
    spec = mlp_spec([3, 4, 2])
    theta = np.linspace(-1.0, 1.0, spec.param_count)
    return Checkpoint(role="original", spec=spec, config={"eta": 0.1},
                      root_seed=seed, theta=theta, extra={"note": "toy"})


def test_roundtrip(tmp_path):
    ckpt = _toy_ckpt()
    path = tmp_path / "model.ieuc"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.role == ckpt.role
    assert back.spec == ckpt.spec
    assert back.config == ckpt.config
    assert back.extra == ckpt.extra
    assert np.array_equal(back.theta, ckpt.theta)


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ieuc", tmp_path / "b.ieuc"
    save_checkpoint(_toy_ckpt(), p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_check(tmp_path):
    path = tmp_path / "bogus.ieuc"
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(CheckpointError, match="not an IEUC"):
        load_checkpoint(path)


def test_corruption_detected(tmp_path):
    path = tmp_path / "model.ieuc"
    save_checkpoint(_toy_ckpt(), path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "model.ieuc"
    save_checkpoint(_toy_ckpt(), path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    path.write_bytes(blob[:10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_role_and_shape_validation():
    spec = mlp_spec([3, 4, 2])
    with pytest.raises(ValueError):
        Checkpoint(role="mystery", spec=spec, config={}, root_seed=0,
                   theta=np.zeros(spec.param_count))
    with pytest.raises(ValueError):
        Checkpoint(role="original", spec=spec, config={}, root_seed=0,
                   theta=np.zeros(3))


def write_raw(path, head: bytes, payload: bytes):
    """An IEUC file with a valid hash over header bytes ``head`` and
    parameter bytes ``payload``, whatever they hold."""
    body = MAGIC + struct.pack("<IQ", 1, len(head)) + head + payload
    path.write_bytes(body + hashlib.sha256(body).digest())


def _toy_header(theta, **fields):
    """The toy checkpoint's header for ``theta``, with ``fields`` replaced."""
    ckpt = _toy_ckpt()
    return {"role": ckpt.role, "model_spec": ckpt.spec.to_dict(), "config": ckpt.config,
            "root_seed": ckpt.root_seed, "dim": int(theta.size), "extra": ckpt.extra, **fields}


def _write_by_hand(path, drop=None, theta=None, spec=None):
    """The toy checkpoint in the IEUC layout with a valid hash, written
    without ``save_checkpoint``: header key ``drop`` left out, parameters
    replaced by ``theta``, model spec fields replaced by those in ``spec``."""
    ckpt = _toy_ckpt()
    theta = ckpt.theta if theta is None else np.asarray(theta)
    header = _toy_header(theta, model_spec={**ckpt.spec.to_dict(), **(spec or {})})
    header.pop(drop, None)
    write_raw(path, json.dumps(header, sort_keys=True).encode("utf-8"),
              np.asarray(theta, dtype="<f8").tobytes())


def _nonfinite_theta(value):
    theta = _toy_ckpt().theta.copy()
    theta[3] = value
    return theta


def test_hand_written_file_loads(tmp_path):
    path = tmp_path / "model.ieuc"
    _write_by_hand(path)
    assert np.array_equal(load_checkpoint(path).theta, _toy_ckpt().theta)


@pytest.mark.parametrize("key", ["role", "model_spec", "config", "root_seed", "dim"])
def test_header_missing_key_detected(tmp_path, key):
    path = tmp_path / "model.ieuc"
    _write_by_hand(path, drop=key)
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)


# an mlp without layers, which mlp_spec refuses; a logistic spec with a hidden
# layer; an mlp that states its class count beside its last layer, which no
# spec can hold; a float size; an mlp spec written before MLPs were ReLU only,
# which still names its activation
_BAD_SPECS = [({"layer_dims": []}, 0),
              ({"kind": "logistic"}, 4),
              ({"num_classes": 3}, None),
              ({"kind": "logistic", "layer_dims": [3.0, 2]}, 4),
              ({"activation": "relu"}, None)]


@pytest.mark.parametrize("spec, dim", _BAD_SPECS, ids=["no-layers", "logistic-with-layers",
                                                        "class-count", "float-count",
                                                        "named-activation"])
def test_spec_its_factory_refuses_is_rejected(tmp_path, spec, dim):
    path = tmp_path / "model.ieuc"
    _write_by_hand(path, spec=spec, theta=None if dim is None else np.zeros(dim))
    with pytest.raises(CheckpointError, match="model.ieuc"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameters_detected(tmp_path, value):
    path = tmp_path / "model.ieuc"
    _write_by_hand(path, theta=_nonfinite_theta(value))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)


def _toy_data(tmp_path):
    """A dataset the toy model reads: 3 features, 2 classes."""
    data = tmp_path / "d.uds"
    save_uds(split_random(gen_blobs(10, 2, 3, separation=3.0, noise_sd=1.0, seed=1), 0.3, 1),
             data)
    return data


def test_eval_of_malformed_checkpoint_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    data = _toy_data(tmp_path)
    path = tmp_path / "model.ieuc"
    for kw in ({"drop": "config"}, {"theta": _nonfinite_theta(np.nan)},
               {"spec": {"layer_dims": []}, "theta": np.zeros(0)}):
        _write_by_hand(path, **kw)
        assert cli(["eval", "--data", str(data), "--ckpt", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


# the toy model's spec as checkpoints wrote it when a classifier's spec also
# held n_features and num_classes, and a logistic model's layer_dims was empty,
# or, before MLPs were ReLU only, when an MLP's spec named its activation
_OLD_LAYOUT = {"mlp": ({"layer_dims": [3, 4, 2], "n_features": 3, "num_classes": 2}, None),
               "logistic": ({"kind": "logistic", "layer_dims": [], "n_features": 3,
                             "num_classes": 2}, 4),
               "activation": ({"activation": "relu"}, None)}


@pytest.mark.parametrize("kind", sorted(_OLD_LAYOUT))
def test_old_spec_layout_is_refused(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    spec, dim = _OLD_LAYOUT[kind]
    keys = sorted(set(spec) - {"kind", "layer_dims"})
    why = re.escape(f"{keys} of an older layout; retrain the model")
    path = tmp_path / "model.ieuc"
    _write_by_hand(path, spec=spec, theta=None if dim is None else np.zeros(dim))
    with pytest.raises(CheckpointError, match=f"model.ieuc.*{why}"):
        load_checkpoint(path)
    assert cli(["eval", "--data", str(_toy_data(tmp_path)), "--ckpt", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(why, err)


_THETA = _toy_ckpt().theta
_PAYLOAD = _THETA.astype("<f8").tobytes()
# (header bytes, payload bytes), each with a valid hash
_MALFORMED = {
    "list-header": (b"[]", _PAYLOAD),
    "number-header": (b"3", _PAYLOAD),
    "not-utf8": (b"\xff\xfe{}", _PAYLOAD),
    "not-json": (b'{"role": ', _PAYLOAD),
    "deep-header": (b"[" * 200_000 + b"]" * 200_000, _PAYLOAD),
    "ragged-payload": (json.dumps(_toy_header(_THETA)).encode(), _PAYLOAD[:-3]),
    "float-dim": (json.dumps(_toy_header(_THETA, dim=float(_THETA.size))).encode(), _PAYLOAD),
    "list-extra": (json.dumps(_toy_header(_THETA, extra=[])).encode(), _PAYLOAD),
    "list-config": (json.dumps(_toy_header(_THETA, config=[1])).encode(), _PAYLOAD),
    "infinite-dims": (json.dumps(_toy_header(_THETA, model_spec={
        **_toy_ckpt().spec.to_dict(), "layer_dims": [float("inf"), 2]})).encode(), _PAYLOAD),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_file_is_a_checkpoint_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    path = tmp_path / "model.ieuc"
    write_raw(path, *_MALFORMED[name])
    with pytest.raises(CheckpointError, match="model.ieuc"):
        load_checkpoint(path)
    assert cli(["eval", "--data", str(_toy_data(tmp_path)), "--ckpt", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
