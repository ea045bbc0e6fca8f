"""Every setting has an effect: for each field of ``UnlearnConfig`` and
``OptimizerConfig``, a value that validation accepts, away from the
default, changes the result of a run that reads the field."""

from dataclasses import fields

import numpy as np
import pytest

from unlearn_forge.checkpoints import Checkpoint
from unlearn_forge.datasets import gen_blobs, split_random, split_objective
from unlearn_forge.metrics import rcd
from unlearn_forge.models import logistic_spec, make_quadratic, mlp_spec
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.training import OptimizerConfig, train
from unlearn_forge.unlearning import UnlearnConfig, retain_bound_monitor, unlearn

# field -> (the settings both runs share, the value away from the default)
UNLEARN_CASES = {
    "method": ({}, "rl"),
    "alpha": ({}, 0.9),
    "c": ({}, 0.1),
    "eta": ({}, 0.05),
    "epochs": ({}, 3),
    "seed": ({"alpha": 0.9}, 1),
    "salun_fraction": ({"method": "salun"}, 0.2),
}

OPTIMIZER_CASES = {
    "kind": ({}, "adam"),
    "eta": ({}, 0.5),
    "batch_size": ({"kind": "sgd"}, 8),
    "max_epochs": ({}, 5),
    "grad_norm_tol": ({}, 1.0),
}


@pytest.fixture(scope="module")
def world():
    ds = split_random(gen_blobs(20, 3, 4, separation=3.0, noise_sd=1.0, seed=2), 0.25, seed=2)
    spec = mlp_spec([4, 6, 3])
    ckpt = Checkpoint(role="original", spec=spec, config=OptimizerConfig().to_dict(),
                      root_seed=2, theta=kaiming_sample(spec.param_count, derive_stream(2, 1)))
    return ckpt, ds


def test_every_field_has_a_case():
    assert set(UNLEARN_CASES) == {f.name for f in fields(UnlearnConfig)}
    assert set(OPTIMIZER_CASES) == {f.name for f in fields(OptimizerConfig)}


@pytest.mark.parametrize("name", sorted(UNLEARN_CASES))
def test_unlearn_setting_changes_the_run(world, name):
    ckpt, ds = world
    base, value = UNLEARN_CASES[name]
    default = unlearn(ckpt, ds, UnlearnConfig(**base))
    moved = unlearn(ckpt, ds, UnlearnConfig(**base, **{name: value}))
    assert not np.array_equal(default.theta, moved.theta)


def test_retain_bound_monitor_draws_from_the_config_seed():
    retain = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    forget = make_quadratic([4.0, 1.0], np.ones(2), 0.0)
    theta0 = np.array([0.5, 0.5])
    gaps = [retain_bound_monitor(retain, forget, theta0,
                                 UnlearnConfig(alpha=0.9, eta=0.25, epochs=5, seed=seed)).gaps
            for seed in (0, 99)]
    assert not np.array_equal(*gaps)


@pytest.fixture(scope="module")
def logistic():
    # convex, so gd_adaptive's lambda_max is positive
    ds = gen_blobs(20, 3, 4, separation=3.0, noise_sd=1.0, seed=5)
    spec = logistic_spec(4, 3)
    return split_objective(ds, spec, "train"), kaiming_sample(spec.param_count, derive_stream(5, 1))


def _train(logistic, **kw):
    obj, theta0 = logistic
    return train(obj, theta0, OptimizerConfig(**kw), derive_stream(5, 2)).theta


@pytest.mark.parametrize("name", sorted(OPTIMIZER_CASES))
def test_optimizer_setting_changes_the_run(logistic, name):
    base, value = OPTIMIZER_CASES[name]
    assert not np.array_equal(_train(logistic, **base), _train(logistic, **base, **{name: value}))


@pytest.mark.parametrize("kind", ["gd_fixed", "gd_adaptive", "sgd", "adam"])
def test_eta_changes_every_optimizer(logistic, kind):
    # gd_adaptive steps by eta / lambda_max
    assert not np.array_equal(_train(logistic, kind=kind, eta=0.5, max_epochs=3),
                              _train(logistic, kind=kind, eta=1.0, max_epochs=3))


@pytest.mark.parametrize("name", ["max_epochs", "grad_norm_tol"])
def test_rcd_refuses_relearn_settings_it_does_not_read(logistic, name):
    # K sets the relearning epochs, and relearning has no stop rule; theta0
    # has the wrong shape, so the refusal comes before any evaluation
    obj, theta0 = logistic
    cfg = OptimizerConfig(**{"max_epochs": 1, name: OPTIMIZER_CASES[name][1]})
    with pytest.raises(ValueError, match=name):
        rcd(theta0[:1], obj, 0.0, 3, cfg, "loss", derive_stream(5, 2))
