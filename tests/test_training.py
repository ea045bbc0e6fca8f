from dataclasses import replace

import numpy as np
import pytest

from unlearn_forge import spectral
from unlearn_forge.checkpoints import Checkpoint
from unlearn_forge.datasets import gen_blobs, split_objective, split_random
from unlearn_forge.metrics import rcd
from unlearn_forge.models import make_quadratic, logistic_spec, mlp_spec
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.training import (
    OptimizerConfig,
    DivergenceError,
    train,
    retrain_oracle,
    forget_oracle,
    trace_to_csv,
    _descend,
    _fit,
)
from unlearn_forge.unlearning import UnlearnConfig, unlearn


def test_gd_worked_loss_sequence():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_fixed", eta=0.25, max_epochs=2)
    trace = train(obj, np.array([1.0, 1.0]), cfg, derive_stream(0, 0))
    losses = [r.loss for r in trace.records]
    assert losses == pytest.approx([2.5, 0.28125, 0.158203125])


def test_adaptive_step_one_shot_on_isotropic():
    obj = make_quadratic([3.0, 3.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=5,
                          grad_norm_tol=1e-10)
    trace = train(obj, np.array([1.0, -2.0]), cfg, derive_stream(1, 0))
    assert trace.stop_reason == "converged"
    assert trace.records[-1].epoch <= 1


def _adaptive_quadratic():
    return make_quadratic(np.linspace(8.0, 1.0, 6), np.ones(6), 0.0), np.zeros(6)


def _blob_objective(spec):
    obj = split_objective(gen_blobs(10, 3, 4, separation=0.5, noise_sd=1.0, seed=3), spec, "train")
    return obj, kaiming_sample(spec.param_count, derive_stream(3, 1))


def _adaptive_logistic():
    return _blob_objective(logistic_spec(4, 3))


def _adaptive_train(obj, theta0, epochs):
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=epochs, grad_norm_tol=0.0)
    return train(obj, theta0, cfg, derive_stream(3, 2)).records


def _adaptive_rcd(obj, theta0, epochs):
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)
    rcd(theta0, obj, 0.0, epochs, cfg, "loss", derive_stream(3, 2), attach_bound=False)


@pytest.mark.parametrize("loop", [_adaptive_train, _adaptive_rcd], ids=["train", "rcd"])
@pytest.mark.parametrize("make,runs", [(_adaptive_quadratic, 1), (_adaptive_logistic, 7)],
                         ids=["quadratic", "logistic"])
def test_adaptive_lanczos_runs_per_epoch_unless_the_hessian_is_constant(monkeypatch, loop,
                                                                       make, runs):
    calls = []
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda *a: calls.append(1) or lanczos(*a))
    loop(*make(), 7)
    assert len(calls) == runs


def test_adaptive_records_on_a_quadratic_share_one_lambda_max():
    records = _adaptive_train(*_adaptive_quadratic(), 7)
    assert records[0].lambda_max is None and records[0].eta is None
    lams = {r.lambda_max for r in records[1:]}
    assert len(records) == 8 and len(lams) == 1
    assert lams.pop() == pytest.approx(8.0, rel=1e-9)
    assert {r.eta for r in records[1:]} == {1.0 / records[1].lambda_max}


@pytest.mark.parametrize("make", [_adaptive_quadratic, _adaptive_logistic,
                                  lambda: _blob_objective(mlp_spec([4, 6, 3]))],
                         ids=["quadratic", "logistic", "mlp"])
def test_records_are_bitwise_the_numpy_reductions(make):
    """Each record's loss, accuracy and gradient norm are those of the
    epoch's point as ``np.mean``, ``np.argmax`` and ``np.linalg.norm`` take
    them."""
    obj, theta0 = make()
    batch = 7 if obj.spec.is_classifier else "full"  # a quadratic has no examples to batch
    cfg = OptimizerConfig(kind="adam", eta=0.05, batch_size=batch, max_epochs=6, grad_norm_tol=0.0)
    records = train(obj, theta0, cfg, derive_stream(3, 2)).records
    for rec, (point, _, _) in zip(records, _descend(obj, theta0, cfg, derive_stream(3, 2))):
        assert rec.grad_norm == float(np.linalg.norm(point.gradient))
        if obj.spec.is_classifier:
            assert rec.loss == float(np.mean(point.per_example_loss))
            assert rec.accuracy == float(np.mean(np.argmax(point.logits, axis=1) == obj.y))
    assert len(records) == cfg.max_epochs + 1


def test_convergence_stop_reason():
    obj = make_quadratic([2.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_fixed", eta=0.4, max_epochs=5000,
                          grad_norm_tol=1e-9)
    trace = train(obj, np.array([1.0, 1.0]), cfg, derive_stream(2, 0))
    assert trace.stop_reason == "converged"
    assert np.linalg.norm(obj.gradient(trace.theta)) <= 1e-9


def test_divergence_raises():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_fixed", eta=10.0, max_epochs=100)
    with pytest.raises(DivergenceError):
        train(obj, np.array([1.0, 1.0]), cfg, derive_stream(3, 0))


def test_every_diverged_run_is_a_floating_point_error():
    # one exception class for one event, whichever loop diverged; the messages stay as they were
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    ds = split_random(gen_blobs(30, 4, 4, 3.0, 1.0, seed=3), 0.25, seed=3)
    spec = mlp_spec([4, 8, 4])
    ckpt = Checkpoint(role="original", spec=spec, config={}, root_seed=3,
                      theta=kaiming_sample(spec.param_count, derive_stream(3, 91)))
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=r"^loss \S+ diverged at epoch 2$"):
            train(obj, np.ones(2), OptimizerConfig(eta=10.0), derive_stream(3, 0))
        with pytest.raises(FloatingPointError,
                           match="^non-finite relearning error at epoch 1: phi=inf$"):
            rcd(np.ones(2), obj, 0.0, 3, OptimizerConfig(eta=1e300, max_epochs=1), "loss",
                derive_stream(3, 1), attach_bound=False)
        with pytest.raises(FloatingPointError, match="^unlearning diverged at epoch 0: "
                                                     "retain loss nan, forget loss nan$"):
            unlearn(ckpt, ds, UnlearnConfig(method="ft", eta=1e250, epochs=3))


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_minibatch_on_an_objective_with_no_examples_is_refused(kind):
    # a quadratic has no examples, so a batch of 4 would step as the full batch does
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind=kind, eta=0.1, batch_size=4, max_epochs=1)
    with pytest.raises(ValueError, match="batch_size=4"):
        train(obj, np.ones(2), cfg, derive_stream(4, 0))
    with pytest.raises(ValueError, match="batch_size=4"):
        rcd(np.ones(2), obj, 0.0, 3, cfg, "loss", derive_stream(4, 1), attach_bound=False)


def test_sgd_shuffle_is_seeded():
    ds = split_random(gen_blobs(30, 3, 4, 2.0, 1.0, seed=4), 0.3, seed=4)
    from unlearn_forge.datasets import split_objective

    obj = split_objective(ds, logistic_spec(4, 3), "train")
    cfg = OptimizerConfig(kind="sgd", eta=0.1, batch_size=16, max_epochs=5)
    theta0 = derive_stream(5, 0).normal(0.0, 0.1, obj.spec.param_count)
    a = train(obj, theta0, cfg, derive_stream(6, 0)).theta
    b = train(obj, theta0, cfg, derive_stream(6, 0)).theta
    c = train(obj, theta0, cfg, derive_stream(7, 0)).theta
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_adam_reduces_loss():
    ds = split_random(gen_blobs(40, 3, 4, 3.0, 1.0, seed=8), 0.3, seed=8)
    from unlearn_forge.datasets import split_objective

    obj = split_objective(ds, logistic_spec(4, 3), "train")
    cfg = OptimizerConfig(kind="adam", eta=0.05, max_epochs=50)
    theta0 = derive_stream(9, 0).normal(0.0, 0.1, obj.spec.param_count)
    trace = train(obj, theta0, cfg, derive_stream(10, 0))
    assert trace.records[-1].loss < 0.5 * trace.records[0].loss


def test_oracles_are_deterministic_and_fresh():
    ds = split_random(gen_blobs(30, 3, 4, 2.0, 1.0, seed=11), 0.3, seed=11)
    spec = logistic_spec(4, 3)
    cfg = OptimizerConfig(kind="adam", eta=0.05, max_epochs=40)
    a = retrain_oracle(ds, spec, cfg, seed=11)
    b = retrain_oracle(ds, spec, cfg, seed=11)
    assert np.array_equal(a.theta, b.theta)
    assert a.role == "retrain"
    ck, phi_ref = forget_oracle(ds, spec, cfg, seed=11)
    assert ck.role == "forget_oracle"
    assert set(phi_ref) == {"loss", "one_minus_accuracy"}
    assert phi_ref["loss"] >= 0.0
    assert 0.0 <= phi_ref["one_minus_accuracy"] <= 1.0


def test_fit_is_the_draw_train_wrap_it_replaces():
    ds = split_random(gen_blobs(30, 3, 4, 2.0, 1.0, seed=11), 0.3, seed=11)
    spec = logistic_spec(4, 3)
    cfg = OptimizerConfig(kind="adam", eta=0.05, max_epochs=20)
    ckpt, trace = _fit(ds, spec, cfg, 11, "train", (11, 12))
    by_hand = train(split_objective(ds, spec, "train"),
                    kaiming_sample(spec.param_count, derive_stream(11, 11)), cfg,
                    derive_stream(11, 12))
    assert ckpt.theta.tobytes() == by_hand.theta.tobytes() == trace.theta.tobytes()
    assert ckpt.role == "original" and ckpt.config == cfg.to_dict() and ckpt.root_seed == 11
    assert ckpt.extra == {"stop_reason": by_hand.stop_reason,
                          "epochs_run": by_hand.records[-1].epoch}
    assert _fit(ds, spec, cfg, 11, "retain", (11, 12))[0].role == "retrain"
    assert _fit(ds, spec, cfg, 11, "forget", (11, 12))[0].role == "forget_oracle"


@pytest.mark.parametrize("oracle,which", [(retrain_oracle, "retain"), (forget_oracle, "forget")])
def test_oracle_on_an_empty_split_names_it(oracle, which):
    ds = gen_blobs(10, 3, 4, 2.0, 1.0, seed=12)  # no split yet: every training row is retained
    if which == "retain":
        ds = replace(ds, retain_idx=ds.forget_idx, forget_idx=ds.retain_idx)
    with pytest.raises(ValueError, match=f"split '{which}' is empty"):
        oracle(ds, logistic_spec(4, 3), OptimizerConfig(max_epochs=1), seed=12)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(kind="newton")
    with pytest.raises(ValueError):
        OptimizerConfig(eta=-0.1)
    with pytest.raises(ValueError):
        OptimizerConfig(max_epochs=0)


def test_grad_norm_tol_not_negative():
    # a negative tolerance could never be met, so the stop rule would never fire
    with pytest.raises(ValueError, match="grad_norm_tol must be >= 0"):
        OptimizerConfig(grad_norm_tol=-1e-8)
    assert OptimizerConfig(grad_norm_tol=0).grad_norm_tol == 0


@pytest.mark.parametrize("value", [1.5, np.float64(3.0), True, "3", None],
                         ids=["float", "numpy-float", "bool", "str", "none"])
def test_int_fields_take_integers_only(value):
    # a checkpoint's JSON config can hold any of these for max_epochs
    with pytest.raises(ValueError, match="max_epochs must be an integer"):
        OptimizerConfig(max_epochs=value)
    assert OptimizerConfig(max_epochs=np.int64(3)).max_epochs == 3


@pytest.mark.parametrize("field", ["eta", "grad_norm_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float32("inf"),
                                   10**400, True, "x", None],
                         ids=["nan", "inf", "-inf", "numpy-inf", "int-beyond-float", "bool",
                              "str", "none"])
def test_real_fields_take_finite_numbers_only(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        OptimizerConfig(**{field: value})
    for number in (1, np.int64(1), np.float32(0.5), 0.5):
        assert getattr(OptimizerConfig(**{field: number}), field) == number


@pytest.mark.parametrize("batch_size", [-4, 0, 2.5, "half", True],
                         ids=["-4", "0", "2.5", "half", "bool"])
def test_batch_size_must_be_full_or_positive_int(batch_size):
    # with -4, range(0, n, -4) is empty and an epoch would make no update
    with pytest.raises(ValueError, match="batch_size"):
        OptimizerConfig(kind="sgd", batch_size=batch_size)
    assert OptimizerConfig(kind="sgd", batch_size=np.int64(4)).batch_size == 4


@pytest.mark.parametrize("kind", ["gd_fixed", "gd_adaptive"])
def test_full_batch_kinds_reject_a_batch_size(kind):
    # both always step on the full batch; the value would only change run ids
    with pytest.raises(ValueError, match=f"batch_size=4 .*{kind}"):
        OptimizerConfig(kind=kind, batch_size=4)
    assert OptimizerConfig(kind=kind).batch_size == "full"


def test_trace_csv(tmp_path):
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    cfg = OptimizerConfig(kind="gd_fixed", eta=0.25, max_epochs=3)
    trace = train(obj, np.array([1.0, 1.0]), cfg, derive_stream(12, 0))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("epoch,")
    assert len(lines) == len(trace.records) + 1
