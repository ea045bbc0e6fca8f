"""Input refusals, one parametrized table per module: each call raises the
named exception type with a message that names the bad value, and where a
CLI command reaches the same refusal, that command exits 1 and prints it."""

import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

import unlearn_forge.cli as cli_module
from unlearn_forge.checkpoints import (FORMAT_VERSION, Checkpoint, CheckpointError,
                                       load_checkpoint, save_checkpoint)
from unlearn_forge.cli import cli
from unlearn_forge.datasets import (SplitDataset, gen_blobs, load_uds, save_uds, split_classwise,
                                    split_random)
from unlearn_forge.metrics import EvalReport, rcd
from unlearn_forge.models import (Objective, logistic_spec, make_classifier, make_quadratic,
                                  mlp_spec, quadratic_spec)
from unlearn_forge.numcore import derive_stream
from unlearn_forge.training import OptimizerConfig
from unlearn_forge.unlearning import UnlearnConfig, irp_run


@pytest.fixture()
def world(tmp_path, monkeypatch):
    """A directory holding ``d.uds`` (3 classes, 5 features, 30 rows) and
    ``m.ieuc`` (a logistic model of it); the runs root lies inside it."""
    monkeypatch.setenv("UNLEARN_FORGE_RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    save_uds(split_random(gen_blobs(10, 3, 5, 3.0, 1.0, seed=0), 0.3, 0), tmp_path / "d.uds")
    spec = logistic_spec(5, 3)
    save_checkpoint(Checkpoint(role="original", spec=spec, config=OptimizerConfig().to_dict(),
                               root_seed=0, theta=np.zeros(spec.param_count)),
                    tmp_path / "m.ieuc")
    return tmp_path


def _refused(world, capsys, call, exc, named, argv):
    with pytest.raises(exc) as info:
        call(world)
    assert named in str(info.value)
    if argv is not None:
        capsys.readouterr()
        assert cli([arg.format(world) for arg in argv]) == 1
        assert named in capsys.readouterr().err


def _case(id, call, exc, named, argv=None):
    return pytest.param(call, exc, named, argv, id=id)


# --- checkpoints --------------------------------------------------------------


def _other_version(world):
    """``m.ieuc`` stamped with the next format version, its hash kept valid."""
    body = bytearray((world / "m.ieuc").read_bytes()[:-32])
    body[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    (world / "v.ieuc").write_bytes(bytes(body) + hashlib.sha256(body).digest())
    return load_checkpoint(world / "v.ieuc")


def _root_seed(value):
    """A call that loads ``m.ieuc`` with header ``root_seed`` set to
    ``value``, its hash kept valid, from ``s.ieuc``."""
    def call(world):
        body = (world / "m.ieuc").read_bytes()[:-32]
        (hlen,) = struct.unpack("<Q", body[8:16])
        header = dict(json.loads(body[16 : 16 + hlen]), root_seed=value)
        head = json.dumps(header, sort_keys=True).encode()
        body = body[:8] + struct.pack("<Q", len(head)) + head + body[16 + hlen :]
        (world / "s.ieuc").write_bytes(body + hashlib.sha256(body).digest())
        return load_checkpoint(world / "s.ieuc")
    return call


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("unsupported-version", _other_version, CheckpointError,
          f"unsupported checkpoint version {FORMAT_VERSION + 1}",
          ["eval", "--data", "{}/d.uds", "--ckpt", "{}/v.ieuc"]),
    *(_case(f"root-seed-{id}", _root_seed(value), CheckpointError,
            f"root_seed must be an integer, not {value!r}",
            ["eval", "--data", "{}/d.uds", "--ckpt", "{}/s.ieuc"])
      for id, value in [("str", "x"), ("float", 1.5), ("bool", True), ("null", None),
                        ("list", [1])]),
])
def test_checkpoints_refuse(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- cli ------------------------------------------------------------------------

_RCD = ["rcd", "--seed", "0", "--data", "{}/d.uds", "--ckpt", "{}/m.ieuc", "--step"]


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("unknown-model-kind", lambda w: cli_module._parse_model("conv:5,3"),
          cli_module.UsageError, "unknown model kind 'conv'",
          ["train", "--seed", "0", "--data", "{}/d.uds", "--model", "conv:5,3"]),
    _case("step-size-no-number", lambda w: cli_module._parse_step("fixed:fast"),
          cli_module.UsageError, "bad step size in 'fixed:fast'", _RCD + ["fixed:fast"]),
    _case("step-mode-unknown", lambda w: cli_module._parse_step("slow"),
          cli_module.UsageError, "bad --step 'slow'", _RCD + ["slow"]),
])
def test_cli_refuses(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- datasets -------------------------------------------------------------------


def _uds_with(world, edit):
    """``d.uds`` with the header entries ``edit(header)`` replaced, loaded from ``bad.uds``."""
    head, _, payload = (world / "d.uds").read_bytes().partition(b"\n")
    header = json.loads(head)
    header.update(edit(header))
    (world / "bad.uds").write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return load_uds(world / "bad.uds")


def _one_class(world):
    ds = load_uds(world / "d.uds")
    return split_classwise(replace(ds, labels=np.zeros_like(ds.labels)), 0.5, 0)


_TRAIN_BAD = ["train", "--seed", "0", "--data", "{}/bad.uds", "--model", "logistic:5,3"]
_GEN = ["gen-data", "--seed", "0", "--out", "{}/g.uds"]


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("split-length-mismatch", lambda w: SplitDataset(
        features=np.zeros((4, 2)), labels=np.zeros(3, dtype=np.int64),
        retain_idx=np.arange(3), forget_idx=np.arange(0), test_idx=np.arange(0)),
        ValueError, "features/labels length mismatch"),
    _case("test-halves-of-a-random-split",
          lambda w: load_uds(w / "d.uds").indices("test_retain"),
          ValueError, "test split halves need class-wise forgetting metadata"),
    _case("uds-index-out-of-range",
          lambda w: _uds_with(w, lambda h: {"retain_idx": h["retain_idx"] + [30]}),
          ValueError, "split index out of range", _TRAIN_BAD),
    _case("uds-index-sets-overlap",
          lambda w: _uds_with(w, lambda h: {"forget_idx": h["retain_idx"][:1]
                                                          + h["forget_idx"][1:]}),
          ValueError, "retain/forget/test index sets must be disjoint", _TRAIN_BAD),
    _case("uds-rows-left-out",
          lambda w: _uds_with(w, lambda h: {"retain_idx": h["retain_idx"][1:]}),
          ValueError, "splits must cover the dataset", _TRAIN_BAD),
    _case("blobs-fractional-size", lambda w: gen_blobs(10.5, 3, 5, 3.0, 1.0, seed=0),
          ValueError, "n_per_class must be an integer, not 10.5"),
    _case("blobs-text-size", lambda w: gen_blobs("10", 3, 5, 3.0, 1.0, seed=0),
          ValueError, "n_per_class must be an integer, not '10'"),
    _case("blobs-fractional-classes", lambda w: gen_blobs(10, 3.0, 5, 3.0, 1.0, seed=0),
          ValueError, "C must be an integer, not 3.0"),
    _case("blobs-bool-features", lambda w: gen_blobs(10, 3, True, 3.0, 1.0, seed=0),
          ValueError, "p must be an integer, not True"),
    _case("blobs-one-class", lambda w: gen_blobs(10, 1, 5, 3.0, 1.0, seed=0),
          ValueError, "need at least 2 classes", _GEN + ["--classes", "1"]),
    _case("blobs-one-feature", lambda w: gen_blobs(10, 3, 1, 3.0, 1.0, seed=0),
          ValueError, "need at least 2 features", _GEN + ["--features", "1"]),
    _case("blobs-centers-unplaceable", lambda w: gen_blobs(10, 50, 2, 3.0, 1.0, seed=0),
          ValueError, "could not place 50 centers with pairwise separation 3.0 in 2-d",
          _GEN + ["--classes", "50", "--features", "2"]),
    _case("random-split-empty-forget",
          lambda w: split_random(gen_blobs(10, 3, 5, 3.0, 1.0, seed=0), 0.01, 0),
          ValueError, "fraction 0.01 yields an empty retain or forget set",
          _GEN + ["--n-per-class", "10", "--forget-fraction", "0.01"]),
    _case("classwise-split-one-class", _one_class,
          ValueError, "class-wise forgetting needs at least 2 classes"),
    *(_case(f"{split.__name__}-fraction-{id}",
            lambda w, split=split, value=value: split(gen_blobs(10, 3, 5, 3.0, 1.0, seed=0),
                                                      value, 0),
            ValueError, f"fraction must be in (0, 1), not {value!r}")
      for split in (split_random, split_classwise)
      for id, value in [("str", "0.3"), ("null", None), ("list", [0.3]), ("nan", float("nan"))]),
    _case("classwise-split-no-class",
          lambda w: split_classwise(gen_blobs(10, 3, 5, 3.0, 1.0, seed=0), 0.1, 0),
          ValueError, "fraction 0.1 selects 0 of 3 classes",
          _GEN + ["--split", "classwise", "--forget-fraction", "0.1"]),
])
def test_datasets_refuse(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- metrics --------------------------------------------------------------------


def _accuracies_not_an_object(world):
    (world / "r.json").write_text(json.dumps({"accuracies": [0.5], "mia_rate": 0.5}))
    return EvalReport.from_dict(json.loads((world / "r.json").read_text()))


def _rcd(phi_ref=0.0, K=1):
    """A call of ``rcd`` on a 2-d quadratic with ``phi_ref`` and ``K``."""
    return lambda w: rcd(np.zeros(2), make_quadratic([2.0, 1.0], [0.0, 0.0]), phi_ref, K,
                         OptimizerConfig(max_epochs=1), "loss", derive_stream(0, 0))


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("eval-report-accuracies", _accuracies_not_an_object, ValueError,
          "eval report 'accuracies' must be a JSON object", ["compare", "{}/r.json"]),
    *(_case(f"rcd-K-{id}", _rcd(K=value), ValueError, f"K must be an integer >= 0, not {value!r}")
      for id, value in [("float", 2.0), ("bool", True), ("negative", -1), ("str", "3")]),
    *(_case(f"rcd-phi-ref-{id}", _rcd(phi_ref=value), ValueError,
            f"phi_ref must be a finite number, not {value!r}")
      for id, value in [("nan", float("nan")), ("str", "0"), ("inf", float("inf")),
                        ("null", None)]),
])
def test_metrics_refuse(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- models ---------------------------------------------------------------------

_TRAIN = ["train", "--seed", "0", "--data", "{}/d.uds", "--model"]
_LOGISTIC = logistic_spec(2, 2)


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("spectrum-empty", lambda w: quadratic_spec([], []),
          ValueError, "spectrum must be a non-empty 1-D sequence"),
    _case("theta-star-length", lambda w: quadratic_spec([2.0, 1.0], [0.0]),
          ValueError, "theta_star length must match spectrum length"),
    _case("logistic-one-class", lambda w: logistic_spec(5, 1),
          ValueError, "num_classes >= 2", _TRAIN + ["logistic:5,1"]),
    _case("logistic-no-feature", lambda w: logistic_spec(0, 3),
          ValueError, "n_features >= 1", _TRAIN + ["logistic:0,3"]),
    _case("logistic-bool-features", lambda w: logistic_spec(True, 3),
          ValueError, "n_features must be an integer, not True"),
    _case("logistic-fractional-classes", lambda w: logistic_spec(5, 2.5),
          ValueError, "num_classes must be an integer, not 2.5"),
    _case("mlp-fractional-width", lambda w: mlp_spec([4, 2.5, 3]),
          ValueError, "layer_dims must be integers, not 2.5"),
    _case("mlp-text-width", lambda w: mlp_spec([4, "8", 3]),
          ValueError, "layer_dims must be integers, not '8'"),
    _case("mlp-int-dims", lambda w: mlp_spec(5),
          ValueError, "layer_dims must be a sequence of sizes, not 5"),
    _case("mlp-null-dims", lambda w: mlp_spec(None),
          ValueError, "layer_dims must be a sequence of sizes, not None"),
    _case("objective-empty-view", lambda w: Objective(_LOGISTIC, np.empty((0, 2)), np.empty(0)),
          ValueError, "empty dataset view"),
    _case("objective-length-mismatch",
          lambda w: Objective(_LOGISTIC, np.zeros((3, 2)), np.zeros(2, dtype=np.int64)),
          ValueError, "features/labels length mismatch"),
    _case("theta-shape", lambda w: make_quadratic([2.0, 1.0], [0.0, 0.0]).evaluate(np.zeros(3)),
          ValueError, "theta has shape (3,), model needs (2,)"),
    _case("hvp-direction-shape",
          lambda w: make_quadratic([2.0, 1.0], [0.0, 0.0]).evaluate(np.zeros(2)).hvp(np.ones(3)),
          ValueError, "direction vector dimension mismatch"),
    _case("objective-labels-out-of-range",
          lambda w: Objective(_LOGISTIC, np.zeros((3, 2)), np.array([2, 0, 1])),
          ValueError, "labels must lie in [0, 2) for this model, not [0, 2]"),
    _case("objective-negative-label",
          lambda w: Objective(_LOGISTIC, np.zeros((2, 2)), np.array([1, -1])),
          ValueError, "labels must lie in [0, 2) for this model, not [-1, 1]"),
    _case("objective-quadratic-with-data",
          lambda w: Objective(quadratic_spec([2.0, 1.0], [0.0, 0.0]), np.zeros((2, 2)),
                              np.array([0, 1])),
          ValueError, "a 'quadratic' model of sizes () is no classifier"),
    _case("objective-quadratic-with-labels",
          lambda w: Objective(quadratic_spec([2.0, 1.0], [0.0, 0.0]), y=np.array([0, 1])),
          ValueError, "a 'quadratic' model of sizes () is no classifier"),
    _case("classifier-of-a-quadratic",
          lambda w: make_classifier(quadratic_spec([2.0, 1.0], [0.0, 0.0]), np.zeros((2, 2)),
                                    np.array([0, 1])),
          ValueError, "a 'quadratic' model of sizes () is no classifier"),
    _case("labels-out-of-range",
          lambda w: make_classifier(_LOGISTIC, np.zeros((2, 2)), np.array([0, 2])),
          ValueError, "labels must lie in [0, 2) for this model, not [0, 2]",
          _TRAIN + ["logistic:5,2"]),
])
def test_models_refuse(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- training -------------------------------------------------------------------


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("unknown-phi", lambda w: rcd(np.zeros(2), make_quadratic([2.0, 1.0], [0.0, 0.0]), 0.0,
                                       1, OptimizerConfig(max_epochs=1), "bogus",
                                       derive_stream(0, 0)),
          ValueError, "unknown phi kind 'bogus'"),
    _case("bound-without-loss-phi",
          lambda w: rcd(np.zeros(_LOGISTIC.param_count),
                        make_classifier(_LOGISTIC, np.zeros((2, 2)), np.array([0, 1])), 0.0, 1,
                        OptimizerConfig(max_epochs=1), "one_minus_accuracy", derive_stream(0, 0)),
          ValueError, "attach_bound needs phi 'loss'"),
])
def test_training_refuses(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)


# --- unlearning -----------------------------------------------------------------

_UNLEARN = ["unlearn", "--seed", "0", "--data", "{}/d.uds", "--ckpt", "{}/m.ieuc", "--method"]


@pytest.mark.parametrize("call, exc, named, argv", [
    _case("ascent-weight", lambda w: UnlearnConfig(c=2.0),
          ValueError, "c must lie in [0, 1]", _UNLEARN + ["ieu", "--c", "2"]),
    _case("eta-zero", lambda w: UnlearnConfig(eta=0.0),
          ValueError, "eta must be positive", _UNLEARN + ["ft", "--eta", "0"]),
    _case("epochs-negative", lambda w: UnlearnConfig(epochs=-1),
          ValueError, "epochs must be >= 0", _UNLEARN + ["ft", "--epochs", "-1"]),
    _case("irp-steps-negative", lambda w: irp_run(np.zeros(3), 0.5, -1, derive_stream(0, 0)),
          ValueError, "steps must be >= 0"),
    *(_case(f"irp-steps-{id}", lambda w, value=value: irp_run(np.zeros(3), 0.5, value,
                                                            derive_stream(0, 0)),
            ValueError, f"steps must be an integer, not {value!r}")
      for id, value in [("float", 2.0), ("bool", True), ("str", "2")]),
    _case("irp-theta-2d", lambda w: irp_run(np.zeros((2, 3)), 0.5, 2, derive_stream(0, 0)),
          ValueError, "theta must be a 1-D parameter vector, not of shape (2, 3)"),
    _case("irp-alpha-null", lambda w: irp_run(np.zeros(3), None, 2, derive_stream(0, 0)),
          ValueError, "alpha must lie in [0, 1], not None"),
    _case("irp-alpha-above-one", lambda w: irp_run(np.zeros(3), 1.5, 4, derive_stream(0, 0)),
          ValueError, "alpha must lie in [0, 1]"),
])
def test_unlearning_refuses(world, capsys, call, exc, named, argv):
    _refused(world, capsys, call, exc, named, argv)
