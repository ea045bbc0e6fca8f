"""MLP forward and backward passes per epoch of each loop: every quantity a
loop reads at one parameter point comes from one evaluation there."""

from dataclasses import replace

import pytest

from unlearn_forge import models
from unlearn_forge.checkpoints import Checkpoint
from unlearn_forge.datasets import gen_blobs, split_random, split_objective
from unlearn_forge.metrics import rcd, eval_report
from unlearn_forge.models import mlp_spec
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.spectral import estimate_spectrum
from unlearn_forge.training import OptimizerConfig, train
from unlearn_forge.unlearning import UnlearnConfig, unlearn


@pytest.fixture()
def passes(monkeypatch):
    """``passes(fn)`` calls ``fn`` and returns its (forward, backward) count."""
    counts = {"forward": 0, "backward": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    point = models._MlpPoint
    monkeypatch.setattr(point, "_forward", counted("forward", point._forward))
    monkeypatch.setattr(point, "backprop", counted("backward", point.backprop))

    def count(fn):
        before = dict(counts)
        fn()
        return counts["forward"] - before["forward"], counts["backward"] - before["backward"]

    return count


@pytest.fixture(scope="module")
def world():
    ds = split_random(gen_blobs(20, 3, 4, separation=3.0, noise_sd=1.0, seed=4), 0.3, seed=4)
    spec = mlp_spec([4, 6, 3])
    ckpt = Checkpoint(role="original", spec=spec, config={}, root_seed=4,
                      theta=kaiming_sample(spec.param_count, derive_stream(4, 1)))
    return ds, ckpt


def _one_epoch(passes, run):
    """The passes one more epoch adds: ``run(3)`` minus ``run(2)``."""
    (f2, b2), (f3, b3) = passes(lambda: run(2)), passes(lambda: run(3))
    return f3 - f2, b3 - b2


def test_full_batch_train_epoch(world, passes):
    ds, ckpt = world
    obj = split_objective(ds, ckpt.spec, "train")

    def run(epochs):
        cfg = OptimizerConfig(kind="gd_fixed", eta=0.1, max_epochs=epochs, grad_norm_tol=0.0)
        train(obj, ckpt.theta, cfg, derive_stream(0, 1))

    assert _one_epoch(passes, run) == (1, 1)


def test_ieu_epoch(world, passes):
    ds, ckpt = world

    def run(epochs):
        unlearn(ckpt, ds, UnlearnConfig(method="ieu", alpha=0.99, c=0.1, eta=0.05,
                                        epochs=epochs, seed=0))

    assert _one_epoch(passes, run) == (2, 2)


@pytest.mark.parametrize("method,alpha", [("ft", 1.0), ("ieu", 0.99)], ids=["ft", "ieu"])
def test_epoch_without_ascent_takes_no_forget_backward(world, passes, method, alpha):
    # at c = 0 the forget point serves only the trace row's loss and accuracy
    ds, ckpt = world

    def run(epochs):
        unlearn(ckpt, ds, UnlearnConfig(method=method, alpha=alpha, c=0.0, eta=0.05,
                                        epochs=epochs, seed=0))

    assert _one_epoch(passes, run) == (2, 1)


def _unlearn(world, method):
    ds, ckpt = world
    return lambda epochs: unlearn(ckpt, ds, UnlearnConfig(method=method, eta=0.05,
                                                          epochs=epochs, seed=0))


@pytest.mark.parametrize("method,epoch", [("rl", (2, 2)), ("salun", (2, 2)), ("scrub", (2, 1))],
                         ids=["rl", "salun", "scrub"])
def test_baseline_epoch(world, passes, method, epoch):
    # rl and salun step on the loop's points with fake forget labels; scrub's
    # epoch 3 is past its KL-ascent phase, a retain step on the loop's point
    assert _one_epoch(passes, _unlearn(world, method)) == epoch


@pytest.mark.parametrize("method,start", [("scrub", (2, 0)), ("salun", (2, 1))],
                         ids=["scrub", "salun"])
def test_baseline_start_reads_the_loops_first_points(world, passes, method, start):
    # scrub's teacher and salun's saliency mask come from the points at theta0
    assert passes(lambda: _unlearn(world, method)(0)) == start


def test_loss_rcd_epoch(world, passes):
    ds, ckpt = world
    forget = split_objective(ds, ckpt.spec, "forget")
    cfg = OptimizerConfig(kind="gd_fixed", eta=0.05, max_epochs=1)

    def run(K):
        rcd(ckpt.theta, forget, 0.0, K, cfg, "loss", derive_stream(0, 2), attach_bound=False)

    assert _one_epoch(passes, run) == (1, 1)


def test_loss_rcd_bound_runs_on_the_first_point(world, passes):
    # K = 2 walks three points and takes two steps; Lanczos for the bound
    # runs its HVPs on the point at theta0, so it adds no pass
    ds, ckpt = world
    forget = split_objective(ds, ckpt.spec, "forget")
    cfg = OptimizerConfig(kind="gd_fixed", eta=0.05, max_epochs=1)
    assert passes(lambda: rcd(ckpt.theta, forget, 0.0, 2, cfg, "loss", derive_stream(0, 2),
                              attach_bound=True)) == (3, 2)


def _rcd_run(world, cfg):
    ds, ckpt = world
    forget = split_objective(ds, ckpt.spec, "forget")
    return lambda K: rcd(ckpt.theta, forget, 0.0, K, cfg, "loss", derive_stream(0, 2),
                         attach_bound=False)


def _train_run(world, cfg):
    ds, ckpt = world
    obj = split_objective(ds, ckpt.spec, "train")
    return lambda epochs: train(obj, ckpt.theta,
                                replace(cfg, max_epochs=epochs, grad_norm_tol=0.0),
                                derive_stream(0, 1))


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("loop,epoch", [(_rcd_run, (5, 4)), (_train_run, (13, 13))],
                         ids=["rcd", "train"])
def test_minibatch_epoch(world, passes, kind, loop, epoch):
    # one forward and one backward pass per batch of 4 (14 forget rows, 48
    # train rows), then the forward at the new point; only train takes the
    # full-batch gradient there, for the gradient norm it records
    cfg = OptimizerConfig(kind=kind, eta=0.05, batch_size=4, max_epochs=1)
    assert _one_epoch(passes, loop(world, cfg)) == epoch


@pytest.mark.parametrize("loop", [_rcd_run, _train_run], ids=["rcd", "train"])
def test_adaptive_epoch(world, passes, loop):
    # Lanczos runs its HVPs on the point the epoch starts from, then the step
    # takes that point's gradient
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)
    assert _one_epoch(passes, loop(world, cfg)) == (1, 1)


def test_spectrum_estimate_is_one_forward(world, passes):
    ds, ckpt = world
    obj = split_objective(ds, ckpt.spec, "forget")
    assert passes(lambda: estimate_spectrum(obj, ckpt.theta, rng=derive_stream(0, 3))) == (1, 0)


def test_eval_report_is_one_forward_per_split(world, passes):
    ds, ckpt = world
    assert passes(lambda: eval_report(ckpt, ds)) == (3, 0)  # retain, forget, test
