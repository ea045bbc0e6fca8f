from dataclasses import fields

import numpy as np
import pytest

from unlearn_forge.checkpoints import Checkpoint
from unlearn_forge.datasets import gen_blobs, split_random, split_objective
from unlearn_forge.models import Objective, make_quadratic, mlp_spec
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.training import OptimizerConfig, train
from unlearn_forge import unlearning
from unlearn_forge.unlearning import (
    EpochRow,
    UnlearnConfig,
    _unlearn_points,
    irp_run,
    unlearn,
    retain_bound_monitor,
)


@pytest.fixture(scope="module")
def blob_ckpt():
    ds = split_random(gen_blobs(30, 4, 4, separation=3.0, noise_sd=1.0, seed=3),
                      0.25, seed=3)
    spec = mlp_spec([4, 8, 4])
    cfg = OptimizerConfig(kind="adam", eta=0.01, max_epochs=40)
    obj = split_objective(ds, spec, "train")
    trace = train(obj, kaiming_sample(spec.param_count, derive_stream(3, 91)),
                  cfg, derive_stream(3, 92))
    ckpt = Checkpoint(role="original", spec=spec, config=cfg.to_dict(),
                      root_seed=3, theta=trace.theta)
    return ckpt, ds


def test_ieu_epoch_algebra():
    # with alpha=1 the fresh draw is multiplied by zero: pure descent+ascent
    retain = make_quadratic([2.0, 1.0], np.zeros(2), 0.0)
    forget = make_quadratic([2.0, 1.0], np.array([0.5, -0.5]), 0.0)
    theta = np.array([1.0, 2.0])
    cfg = UnlearnConfig(method="ieu", alpha=1.0, c=0.1, eta=0.2, epochs=1, seed=0)
    (r0, f0, start), (r1, _, epoch) = _unlearn_points(retain, forget, theta, cfg)
    gr, gf = r0.gradient, f0.gradient
    assert np.array_equal(r0.theta, theta) and start == {}
    assert np.allclose(r1.theta, theta - 0.2 * gr + 0.1 * 0.2 * gf)
    assert epoch == {"clip_active": False}


def test_ieu_epoch_rejects_nonfinite_gradient():
    # the retain optimum is NaN, so its gradient is too
    retain = make_quadratic([1.0, 1.0], np.array([np.nan, 0.0]), 0.0)
    forget = make_quadratic([1.0, 1.0], np.zeros(2), 0.0)
    cfg = UnlearnConfig(method="ieu", alpha=1.0, c=0.0, eta=0.1, epochs=1, seed=2)
    with pytest.raises(FloatingPointError, match="retain gradient"):
        list(_unlearn_points(retain, forget, np.zeros(2), cfg))


@pytest.mark.parametrize("method", ["ft", "rl", "scrub", "salun", "ieu"])
def test_every_method_refuses_a_diverged_epoch(blob_ckpt, method):
    # the step leaves theta finite, but the logits it gives overflow
    ckpt, ds = blob_ckpt
    extra = {"c": 0.5} if method == "ieu" else {}
    cfg = UnlearnConfig(method=method, eta=1e250, epochs=3, seed=5, **extra)
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"unlearning diverged at epoch 0: retain loss (nan|inf)"):
        unlearn(ckpt, ds, cfg)


def _scaling_rule(scales):
    """An update rule that multiplies theta by ``scales[epoch]``."""
    def rule(cfg, rng, retain0, forget0):
        return lambda epoch, theta, retain, forget: (theta * scales[epoch], {})
    return rule


def test_a_diverged_epoch_is_named_as_the_trace_numbers_it(blob_ckpt, monkeypatch):
    ckpt, ds = blob_ckpt
    monkeypatch.setitem(unlearning._RULES, "ft", _scaling_rule([1.0, 1.0, 1e200]))
    cfg = UnlearnConfig(method="ft", epochs=3)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
        unlearn(ckpt, ds, cfg)
    assert str(info.value).startswith("unlearning diverged at epoch 2: ")
    monkeypatch.setitem(unlearning._RULES, "ft", _scaling_rule([1.0, 1.0, 1.0]))
    assert [row.epoch for row in unlearn(ckpt, ds, cfg).trace] == [0, 1, 2]


def test_non_finite_parameters_are_refused_where_the_losses_stay_finite(blob_ckpt, monkeypatch):
    # a hidden bias of -inf switches its ReLU unit off: every loss stays finite
    ckpt, ds = blob_ckpt
    scales = np.ones(ckpt.spec.param_count)
    scales[4 * 8] = -np.inf  # the first hidden bias, positive in the trained model
    assert ckpt.theta[4 * 8] > 0
    retain = split_objective(ds, ckpt.spec, "retain")
    assert np.isfinite(retain.value(ckpt.theta * scales))
    monkeypatch.setitem(unlearning._RULES, "ft", _scaling_rule([1.0, scales]))
    with pytest.raises(FloatingPointError, match="the unlearned parameters at epoch 1"):
        unlearn(ckpt, ds, UnlearnConfig(method="ft", epochs=2))


def test_config_validation():
    with pytest.raises(ValueError):
        UnlearnConfig(method="magic")
    with pytest.raises(ValueError):
        UnlearnConfig(alpha=1.5)
    with pytest.raises(ValueError):
        UnlearnConfig(salun_fraction=0.0)


@pytest.mark.parametrize("kw, named", [
    ({"epochs": 2.5}, "epochs must be an integer"), ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"alpha": "x"}, "alpha must be a finite number"), ({"c": None}, "c must be a finite number"),
    ({"eta": float("nan")}, "eta must be a finite number"),
    ({"method": "salun", "salun_fraction": True}, "salun_fraction must be a finite number"),
], ids=["epochs-float", "seed-float", "seed-bool", "alpha-str", "c-none",
        "eta-nan", "salun-bool"])
def test_config_fields_take_their_types_only(kw, named):
    # epochs=2.5 would fail only later in range(); seed=1.5 would run seed 1
    with pytest.raises(ValueError, match=named):
        UnlearnConfig(**kw)
    assert UnlearnConfig(epochs=np.int64(2), seed=np.uint64(1), eta=np.float32(0.5)).epochs == 2


@pytest.mark.parametrize("kw", [{"alpha": 0.5}, {"c": 0.1}])
def test_ft_rejects_alpha_and_c(kw):
    # ft is the alpha=1, c=0 limit; it would ignore other values
    with pytest.raises(ValueError, match="ft"):
        UnlearnConfig(method="ft", **kw)


_IEU_SETTINGS = [{"alpha": 0.5}, {"c": 0.1}, {"alpha": 0.0}, {"alpha": 0.5, "c": 0.1}]


@pytest.mark.parametrize("method,kw", [(m, kw) for m in ("ft", "rl", "scrub", "salun")
                                       for kw in _IEU_SETTINGS])
def test_methods_reject_ieu_settings_they_ignore(method, kw):
    # only ieu draws re-initialization noise and ascends the forget set;
    # the error names every setting the method would ignore
    with pytest.raises(ValueError, match=", ".join(kw)):
        UnlearnConfig(method=method, **kw)


@pytest.mark.parametrize("method", ["ft", "rl", "scrub", "ieu"])
def test_salun_fraction_only_for_salun(method):
    with pytest.raises(ValueError, match="salun_fraction"):
        UnlearnConfig(method=method, salun_fraction=0.2)


@pytest.mark.parametrize("method", ["rl", "salun", "scrub"])
def test_retain_bound_monitor_refuses_other_methods(method):
    # the bound is that of the ieu update; the baselines need classifiers
    obj = make_quadratic([1.0], np.zeros(1), 0.0)
    with pytest.raises(ValueError, match=f"not '{method}'"):
        retain_bound_monitor(obj, obj, np.ones(1), UnlearnConfig(method=method))


@pytest.mark.parametrize("method", ["ft", "rl", "scrub", "salun", "ieu"])
def test_every_method_runs_on_the_shared_loop(blob_ckpt, method):
    ckpt, ds = blob_ckpt
    extra = {"alpha": 0.999, "c": 0.01} if method == "ieu" else {}
    cfg = UnlearnConfig(method=method, eta=0.05, epochs=4, seed=5, **extra)
    run = unlearn(ckpt, ds, cfg)
    assert len(run.trace) == cfg.epochs
    last = run.trace[-1]
    retain = split_objective(ds, ckpt.spec, "retain")
    forget = split_objective(ds, ckpt.spec, "forget")
    assert last.retain_loss == retain.value(run.theta)
    assert last.forget_loss == forget.value(run.theta)
    assert last.retain_acc == retain.accuracy(run.theta)
    assert last.forget_acc == forget.accuracy(run.theta)
    assert all((row.forget_kl is not None) == (method == "scrub") for row in run.trace)


@pytest.mark.parametrize("method", ["ft", "rl", "scrub", "salun", "ieu"])
def test_every_rule_returns_epoch_row_fields_only(blob_ckpt, method):
    ckpt, ds = blob_ckpt
    extra = {"alpha": 0.999, "c": 0.01} if method == "ieu" else {}
    cfg = UnlearnConfig(method=method, eta=0.05, epochs=3, seed=5, **extra)
    names = {f.name for f in fields(EpochRow)}
    points = _unlearn_points(split_objective(ds, ckpt.spec, "retain"),
                             split_objective(ds, ckpt.spec, "forget"), ckpt.theta, cfg)
    assert all(set(extra) <= names for _, _, extra in points)


def test_ft_is_alpha_one_limit(blob_ckpt):
    ckpt, ds = blob_ckpt
    a = unlearn(ckpt, ds, UnlearnConfig(method="ieu", alpha=1.0, c=0.0, eta=0.05,
                                        epochs=8, seed=5))
    b = unlearn(ckpt, ds, UnlearnConfig(method="ft", eta=0.05, epochs=8, seed=5))
    assert np.array_equal(a.theta, b.theta)


def test_salun_full_mask_is_rl(blob_ckpt):
    ckpt, ds = blob_ckpt
    a = unlearn(ckpt, ds, UnlearnConfig(method="salun", salun_fraction=1.0,
                                        eta=0.05, epochs=8, seed=5))
    b = unlearn(ckpt, ds, UnlearnConfig(method="rl", eta=0.05, epochs=8, seed=5))
    assert np.array_equal(a.theta, b.theta)


def test_rl_descends_one_objective_over_retain_and_relabeled_forget_rows(blob_ckpt):
    # the reference builds that objective each epoch; the loop's two points
    # sum the same mean cross-entropy in another order
    ckpt, ds = blob_ckpt
    retain = split_objective(ds, ckpt.spec, "retain")
    forget = split_objective(ds, ckpt.spec, "forget")
    C, rng, theta = ckpt.spec.layer_dims[-1], derive_stream(5, 301), ckpt.theta
    for _ in range(3):
        fake = (forget.y + 1 + rng.integers(C - 1, size=len(forget.y))) % C
        combined = Objective(spec=ckpt.spec, X=np.vstack([retain.X, forget.X]),
                             y=np.concatenate([retain.y, fake]))
        theta = theta - 0.05 * combined.gradient(theta)
    run = unlearn(ckpt, ds, UnlearnConfig(method="rl", eta=0.05, epochs=3, seed=5))
    assert np.max(np.abs(run.theta - theta)) <= 1e-12 * np.max(np.abs(theta))


def test_salun_small_mask_freezes_coordinates(blob_ckpt):
    ckpt, ds = blob_ckpt
    run = unlearn(ckpt, ds, UnlearnConfig(method="salun", salun_fraction=0.1,
                                          eta=0.05, epochs=6, seed=5))
    changed = run.theta != ckpt.theta
    d = ckpt.theta.size
    assert changed.sum() <= int(round(0.1 * d))
    assert changed.sum() >= 1


def test_scrub_kl_phase_increases_forget_kl(blob_ckpt):
    ckpt, ds = blob_ckpt
    run = unlearn(ckpt, ds, UnlearnConfig(method="scrub", eta=0.05, epochs=6, seed=5))
    kls = [row.forget_kl for row in run.trace]
    assert kls[1] > kls[0] * 0.0  # defined throughout
    assert kls[1] >= kls[0] or kls[0] > 0.0
    # the maximization phase pushes the student away from the teacher
    assert max(kls[:2]) > 1e-6


def test_gradient_ascent_term_raises_forget_loss_vs_plain_ft(blob_ckpt):
    ckpt, ds = blob_ckpt
    ascent = unlearn(ckpt, ds, UnlearnConfig(method="ieu", alpha=1.0, c=0.1,
                                             eta=0.05, epochs=10, seed=5))
    plain = unlearn(ckpt, ds, UnlearnConfig(method="ft", eta=0.05, epochs=10,
                                            seed=5))
    forget = split_objective(ds, ckpt.spec, "forget")
    assert forget.value(ascent.theta) > forget.value(plain.theta)


def test_clip_recorded_in_trace():
    # engineered so the forget gradient dwarfs the retain gradient
    retain = make_quadratic([1.0], np.zeros(1), 0.0)
    forget = make_quadratic([1.0], np.full(1, 1e6), 0.0)
    cfg = UnlearnConfig(method="ieu", alpha=1.0, c=0.5, eta=0.1, epochs=1, seed=0)
    _, (_, _, fields) = _unlearn_points(retain, forget, np.array([1e-3]), cfg)
    assert fields["clip_active"]


def test_irp_run_shape_and_mixing():
    rng = derive_stream(6, 0)
    traj = irp_run(np.full(50, 5.0), alpha=0.5, steps=200, rng=rng)
    assert traj.shape == (201, 50)
    # the heavy initial offset washes out
    assert abs(traj[-1].mean()) < 1.0


@pytest.mark.parametrize("steps", [0, 1, 257])
@pytest.mark.parametrize("d", [1, 3, 100, 700])
def test_irp_run_is_bitwise_the_per_step_loop(d, steps):
    theta = derive_stream(8, d).normal(0.0, 1.0, d)
    rng, ref_rng = derive_stream(8, 0), derive_stream(8, 0)
    traj = irp_run(theta, 0.9, steps, rng)
    ref = [theta]
    for _ in range(steps):
        ref.append(0.9 * ref[-1] + (1 - 0.9) * kaiming_sample(d, ref_rng))
    assert traj.tobytes() == np.array(ref).tobytes()
    assert rng.standard_normal(4).tobytes() == ref_rng.standard_normal(4).tobytes()


@pytest.mark.parametrize("steps", [0, 1])
def test_irp_run_refuses_an_empty_theta(steps):
    with pytest.raises(ValueError, match="d >= 1"):
        irp_run(np.empty(0), 0.5, steps, derive_stream(0, 0))


def test_retain_bound_monitor_quadratic():
    retain = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    forget = make_quadratic([4.0, 1.0], np.ones(2), 0.0)
    cfg = UnlearnConfig(method="ieu", alpha=0.999, c=0.01, eta=0.25, epochs=100,
                        seed=0)
    theta0 = kaiming_sample(2, derive_stream(0, 2)) + 0.5
    rep = retain_bound_monitor(retain, forget, theta0, cfg)
    assert rep.holds
    assert rep.worst_slack <= 0.0
    assert len(rep.gaps) == cfg.epochs + 1
    assert rep.mu == 1.0 and rep.beta == 4.0


@pytest.mark.parametrize("spectrum", [[4.0, 1.0], list(np.linspace(10.0, 0.5, 12))])
def test_retain_bound_half_diameter_is_pdists(spectrum):
    # the numpy pairwise maximum sums in pdist's order, so it is bitwise pdist's
    from scipy.spatial.distance import pdist

    d = len(spectrum)
    retain = make_quadratic(spectrum, np.zeros(d), 0.0)
    forget = make_quadratic(spectrum, np.ones(d), 0.0)
    cfg = UnlearnConfig(alpha=0.99, c=0.05, eta=0.1, epochs=60, seed=2)
    theta0 = kaiming_sample(d, derive_stream(1, 2)) + 0.5
    thetas = np.array([r.theta for r, _, _ in _unlearn_points(retain, forget, theta0, cfg)])
    rep = retain_bound_monitor(retain, forget, theta0, cfg)
    assert rep.half_diameter == pdist(thetas).max() / 2.0


def test_retain_bound_monitor_needs_constants_for_nonquadratic(blob_ckpt):
    # mu and beta come from a quadratic's spectrum; no other model kind has them
    ckpt, ds = blob_ckpt
    retain = split_objective(ds, ckpt.spec, "retain")
    forget = split_objective(ds, ckpt.spec, "forget")
    cfg = UnlearnConfig(method="ieu", alpha=1.0, c=0.0, eta=0.05, epochs=2, seed=0)
    with pytest.raises(ValueError):
        retain_bound_monitor(retain, forget, ckpt.theta, cfg)


class _SignedZeroDraws:
    """A generator stand-in whose standard normal draws include -0.0, which
    ``normal(0.0, scale)`` turns into +0.0."""

    def __init__(self):
        self.z, self.used = np.tile([-0.0, 1.5, -0.0, -0.25], 8), 0

    def _take(self, k):
        self.used += k
        return self.z[self.used - k : self.used]

    def normal(self, loc, scale, size):
        return loc + scale * self._take(int(np.prod(size))).reshape(size)

    def standard_normal(self, out):
        out[...] = self._take(out.size).reshape(out.shape)
        return out


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_irp_run_draws_as_normal_does_for_a_draw_of_minus_zero(alpha):
    theta = np.array([-1.0, -0.0, 2.0, 0.5])
    traj = irp_run(theta, alpha, 6, _SignedZeroDraws())
    ref, rng = [theta], _SignedZeroDraws()
    for _ in range(6):
        ref.append(alpha * ref[-1] + (1 - alpha) * kaiming_sample(theta.size, rng))
    assert traj.tobytes() == np.array(ref).tobytes()
