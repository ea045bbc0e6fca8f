import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unlearn_forge.checkpoints import Checkpoint
from unlearn_forge.datasets import (SplitDataset, gen_blobs, split_classwise, split_random,
                                    split_objective)
from unlearn_forge.metrics import (
    EvalReport,
    rcd,
    mia_threshold_attack,
    eval_report,
)
from unlearn_forge.models import make_quadratic, logistic_spec, mlp_spec
from unlearn_forge.numcore import derive_stream, jsonable, kaiming_sample, read_json, write_json
from unlearn_forge.training import OptimizerConfig, train, retrain_oracle
from unlearn_forge.verify import _mia_brute_force


def _adaptive_cfg():
    return OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)


def test_rcd_geometric_series_value():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    rep = rcd(np.array([1.0, 1.0]), obj, 0.0, 200, _adaptive_cfg(), "loss",
              derive_stream(0, 0))
    assert rep.rcd_value == pytest.approx(22.0 / 7.0, abs=1e-9)
    assert rep.curvature_bound == pytest.approx(10.0, rel=1e-6)
    assert len(rep.errors) == 201
    assert rep.step_mode == "gd_adaptive"


def test_rcd_zero_at_optimum():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    rep = rcd(np.zeros(2), obj, 0.0, 10, _adaptive_cfg(), "loss",
              derive_stream(1, 0))
    assert rep.rcd_value == 0.0


def test_rcd_finite_tail_formula():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    rep = rcd(np.array([1.0, 1.0]), obj, 0.0, 10, _adaptive_cfg(), "loss",
              derive_stream(2, 0))
    tail = 22.0 / 7.0 - rep.rcd_value
    assert tail == pytest.approx(0.5 * 0.5625 ** 11 / 0.4375, rel=1e-9)


def test_adaptive_rcd_on_a_d12_quadratic_is_the_finite_geometric_sum():
    # eta = 1/lambda_max scales coordinate i by rho_i = 1 - s_i/s_max each
    # epoch, so e_t = 0.5 sum_i s_i rho_i^(2t) r_i^2 and the K + 1 terms sum
    # in closed form
    spectrum = np.linspace(10.0, 0.5, 12)
    r0 = np.linspace(-1.0, 2.0, 12)
    K = 40
    rep = rcd(r0, make_quadratic(spectrum, np.zeros(12), 0.0), 0.0, K, _adaptive_cfg(), "loss",
              derive_stream(4, 0), attach_bound=False)
    ratio = (1.0 - spectrum / spectrum[0]) ** 2
    closed = 0.5 * np.sum(spectrum * r0 ** 2 * (1.0 - ratio ** (K + 1)) / (1.0 - ratio))
    assert rep.rcd_value == pytest.approx(closed, rel=1e-9, abs=0.0)


def test_rcd_negative_k_rejected():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        rcd(np.zeros(2), obj, 0.0, -1, _adaptive_cfg(), "loss", derive_stream(3, 0))


def test_rcd_refuses_accuracy_phi_on_a_quadratic(monkeypatch):
    import unlearn_forge.metrics as metrics

    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    monkeypatch.setattr(metrics, "_descend", lambda *a: pytest.fail("relearned"))
    with pytest.raises(ValueError, match="'one_minus_accuracy'.*'quadratic'"):
        rcd(np.ones(2), obj, 0.0, 3, _adaptive_cfg(), "one_minus_accuracy", derive_stream(3, 0))


@pytest.mark.parametrize("spec", [logistic_spec(4, 3), mlp_spec([4, 6, 3])],
                         ids=["logistic", "mlp"])
@pytest.mark.parametrize("kind", ["gd_fixed", "gd_adaptive", "sgd", "adam"])
def test_rcd_relearns_on_the_trajectory_train_walks(spec, kind):
    obj = split_objective(gen_blobs(10, 3, 4, separation=3.0, noise_sd=1.0, seed=6), spec, "train")
    theta0 = kaiming_sample(spec.param_count, derive_stream(6, 1))
    cfg = OptimizerConfig(kind=kind, eta=0.05, max_epochs=1,
                          batch_size=4 if kind in ("sgd", "adam") else "full")
    K = 6
    errors = rcd(theta0, obj, 0.0, K, cfg, "loss", derive_stream(0, 2)).errors
    trace = train(obj, theta0, replace(cfg, max_epochs=K, grad_norm_tol=0.0), derive_stream(0, 2))
    assert np.array_equal(errors, [r.loss for r in trace.records])


def test_rcd_report_serialization(tmp_path):
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    rep = rcd(np.array([1.0, 1.0]), obj, 0.0, 5, _adaptive_cfg(), "loss",
              derive_stream(4, 0))
    payload = jsonable(rep)
    assert json.dumps(payload, sort_keys=True)  # JSON-safe
    assert payload["rcd_value"] == pytest.approx(sum(payload["errors"]))
    path = tmp_path / "rcd.csv"
    rep.to_csv(path)
    assert len(path.read_text().strip().splitlines()) == 7


def _curvature_bound(obj, theta, rng):
    return rcd(theta, obj, 0.0, 0, _adaptive_cfg(), "loss", rng).curvature_bound


def test_rcd_bound_forms():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    theta = np.array([1.0, 1.0])
    assert _curvature_bound(obj, theta, derive_stream(5, 0)) == pytest.approx(10.0, rel=1e-6)
    # isotropic: bound collapses to the gap itself
    iso = make_quadratic([2.0, 2.0], np.zeros(2), 0.0)
    gap = iso.value(theta)
    assert _curvature_bound(iso, theta, derive_stream(6, 0)) == pytest.approx(gap, rel=1e-6)


def test_rcd_attaches_no_bound_to_a_negative_loss_gap():
    # theta0 starts below phi_ref, as a model can beat a forget oracle that has
    # not converged; kappa * e_0 < 0 would be an "upper bound" below the delay
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    theta = np.array([1.0, 1.0])  # loss 2.5
    rep = rcd(theta, obj, 3.0, 10, _adaptive_cfg(), "loss", derive_stream(5, 0))
    assert rep.errors[0] == -0.5 and rep.rcd_value < 0.0
    assert rep.curvature_bound is None
    assert rep.bound_diagnostic == "negative loss gap -5.000e-01 at theta0; bound not applicable"
    # Lanczos still runs on the same draws as a report that carries a bound
    bounded = rcd(theta, obj, 0.0, 10, _adaptive_cfg(), "loss", derive_stream(5, 0))
    assert bounded.curvature_bound > 0.0 and bounded.bound_diagnostic is None
    assert rep.spectral == bounded.spectral
    assert rep.spectral.kappa == pytest.approx(4.0, rel=1e-9)


def test_mia_separable_losses():
    member = np.array([0.1, 0.2, 0.3])
    nonmember = np.array([1.0, 2.0, 3.0])
    res = mia_threshold_attack(member, nonmember, np.array([0.15, 2.5]))
    assert res.balanced_accuracy == 1.0
    assert res.forget_member_rate == 0.5


def test_mia_tie_breaks_to_smallest_threshold():
    member = np.array([1.0, 1.0])
    nonmember = np.array([1.0, 1.0])
    res = mia_threshold_attack(member, nonmember, member)
    # indistinguishable: accuracy 0.5 everywhere, smallest candidate wins
    assert res.balanced_accuracy == 0.5
    assert res.threshold == 0.0


# quarter-step losses from a few values force ties within and across the views
_LOSS_VIEW = st.lists(st.integers(0, 6).map(lambda k: k / 4.0)
                      | st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_LOSS_VIEW, _LOSS_VIEW, _LOSS_VIEW)
def test_mia_matches_the_brute_force_sweep(member, nonmember, audit):
    fast = mia_threshold_attack(np.array(member), np.array(nonmember), np.array(audit))
    slow = _mia_brute_force(member, nonmember, audit)
    assert (fast.threshold, fast.balanced_accuracy, fast.forget_member_rate) == (
        slow.threshold, slow.balanced_accuracy, slow.forget_member_rate)


def test_mia_empty_view_rejected():
    with pytest.raises(ValueError):
        mia_threshold_attack(np.array([]), np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("view", [0, 1, 2])
def test_mia_nonfinite_view_rejected(view, bad):
    views = [np.array([0.5, 1.0]) for _ in range(3)]
    views[view] = np.array([0.5, bad])
    name = ("member", "non-member", "audit")[view]
    with pytest.raises(ValueError, match=f"the {name} losses must be non-empty and finite"):
        mia_threshold_attack(*views)


@pytest.fixture(scope="module")
def trained_world():
    ds = split_random(gen_blobs(40, 3, 4, separation=3.0, noise_sd=1.0, seed=21),
                      0.3, seed=21)
    spec = logistic_spec(4, 3)
    cfg = OptimizerConfig(kind="adam", eta=0.05, max_epochs=60)
    obj = split_objective(ds, spec, "train")
    trace = train(obj, kaiming_sample(spec.param_count, derive_stream(21, 5)),
                  cfg, derive_stream(21, 6))
    ckpt = Checkpoint(role="original", spec=spec, config=cfg.to_dict(),
                      root_seed=21, theta=trace.theta)
    return ckpt, ds, cfg


def test_mia_score_rate_in_unit_interval(trained_world):
    # eval_report attacks with retain = members, test = non-members, forget audited
    ckpt, ds, _ = trained_world
    res = mia_threshold_attack(*(split_objective(ds, ckpt.spec, which).per_example_loss(ckpt.theta)
                                 for which in ("retain", "test", "forget")))
    assert 0.0 <= res.forget_member_rate <= 1.0
    assert 0.5 <= res.balanced_accuracy <= 1.0
    assert eval_report(ckpt, ds).mia_rate == res.forget_member_rate


def test_eval_report_and_gaps(trained_world):
    ckpt, ds, cfg = trained_world
    ref_ck = retrain_oracle(ds, ckpt.spec, cfg, seed=21)
    ref = eval_report(ref_ck, ds)
    rep = eval_report(ckpt, ds, ref)
    for v in rep.accuracies.values():
        assert 0.0 <= v <= 1.0
    assert rep.avg_gap == pytest.approx(np.mean(list(rep.gaps.values())))
    # reference against itself has zero gaps
    self_rep = eval_report(ref_ck, ds, ref)
    assert self_rep.avg_gap == 0.0


def test_eval_report_roundtrip(tmp_path, trained_world):
    ckpt, ds, _ = trained_world
    rep = eval_report(ckpt, ds)
    path = tmp_path / "eval.json"
    write_json(path, rep)
    back = EvalReport.from_dict(read_json(path.read_text()))
    assert back.accuracies == rep.accuracies
    assert back.mia_rate == rep.mia_rate


_GOOD_REPORT = {"accuracies": {"retain": 0.5, "test_forget": None, "forget": 1}, "mia_rate": 0,
                "avg_gap": None}


@pytest.mark.parametrize("change, named", [
    ({"accuracies": {"retain": "x"}}, "accuracies['retain'] must be a number or null"),
    ({"accuracies": {"retain": True}}, "accuracies['retain']"),
    ({"accuracies": {"retain": [0.5]}}, "accuracies['retain']"),
    ({"mia_rate": "high"}, "mia_rate must be a number, not 'high'"),
    ({"mia_rate": None}, "mia_rate must be a number"),
    ({"mia_rate": False}, "mia_rate"),
    ({"avg_gap": [1]}, "avg_gap must be a number or null, not [1]"),
    ({"avg_gap": True}, "avg_gap"),
    ({"accuracies": {"forget": float("nan")}}, "accuracies['forget'] must be a number or null"),
    ({"accuracies": {"retain": 10**400}}, "accuracies['retain'] must be a number or null"),
    ({"mia_rate": float("inf")}, "mia_rate must be a number, not inf"),
    ({"mia_rate": -float("inf")}, "mia_rate must be a number, not -inf"),
    ({"avg_gap": float("nan")}, "avg_gap must be a number or null, not nan"),
    ({"gaps": 7}, "eval report 'gaps' must be a JSON object"),
    ({"gaps": {"mia": float("nan")}}, "gaps['mia'] must be a number, not nan"),
    ({"gaps": {"mia": None}}, "gaps['mia'] must be a number, not None"),
    ({"gaps": {"mia": "x"}}, "gaps['mia'] must be a number, not 'x'"),
], ids=["acc-str", "acc-bool", "acc-list", "mia-str", "mia-null", "mia-bool", "gap-list",
        "gap-bool", "acc-nan", "acc-huge-int", "mia-inf", "mia-minus-inf", "gap-nan",
        "gaps-int", "gaps-nan", "gaps-null", "gaps-str"])
def test_eval_report_values_must_be_numbers(change, named):
    assert EvalReport.from_dict(_GOOD_REPORT).accuracies == _GOOD_REPORT["accuracies"]
    with pytest.raises(ValueError) as info:
        EvalReport.from_dict({**_GOOD_REPORT, **change})
    assert named in str(info.value)


@pytest.mark.parametrize("phi, named", [
    ("loss", "non-finite relearning error at epoch 1"),
    ("one_minus_accuracy", "non-finite values in the relearned logits at epoch 1"),
])
def test_rcd_refuses_a_diverged_relearning(trained_world, phi, named):
    # a step of 1e300 overflows the MLP's logits at epoch 1; NaN logits still
    # have an argmax, so under phi one_minus_accuracy the logits themselves
    # are checked
    _, ds, _ = trained_world
    spec = mlp_spec([4, 6, 3])
    theta0 = kaiming_sample(spec.param_count, derive_stream(21, 7))
    relearn = OptimizerConfig(kind="gd_fixed", eta=1e300, max_epochs=1)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=named):
        rcd(theta0, split_objective(ds, spec, "forget"), 0.0, 10, relearn, phi,
            derive_stream(0, 0), attach_bound=False)


@pytest.fixture(scope="module")
def classwise_world():
    ds = split_classwise(gen_blobs(30, 4, 4, separation=2.0, noise_sd=1.5, seed=8), 0.5, seed=8)
    spec = logistic_spec(4, 4)
    cfg = OptimizerConfig(kind="adam", eta=0.05, max_epochs=30)
    trace = train(split_objective(ds, spec, "train"),
                  kaiming_sample(spec.param_count, derive_stream(8, 5)), cfg, derive_stream(8, 6))
    ckpt = Checkpoint(role="original", spec=spec, config=cfg.to_dict(), root_seed=8,
                      theta=trace.theta)
    return ckpt, ds, cfg


def test_eval_report_test_halves_are_the_accuracies_on_each_half(classwise_world):
    ckpt, ds, _ = classwise_world
    pred = split_objective(ds, ckpt.spec, "test").evaluate(ckpt.theta).logits.argmax(axis=1)
    labels = ds.labels[ds.test_idx]
    forgotten = np.isin(labels, ds.forgotten_classes)
    assert forgotten.any() and not forgotten.all()
    accs = eval_report(ckpt, ds).accuracies
    assert accs["test_forget"] == np.mean(pred[forgotten] == labels[forgotten])
    assert accs["test_retain"] == np.mean(pred[~forgotten] == labels[~forgotten])


def test_eval_report_classwise_gap_is_the_mean_over_six_metrics(classwise_world):
    ckpt, ds, cfg = classwise_world
    ref = eval_report(retrain_oracle(ds, ckpt.spec, cfg, seed=8), ds)
    rep = eval_report(ckpt, ds, ref)
    mine, theirs = rep.metrics(), ref.metrics()
    names = {"retain", "forget", "test", "test_retain", "test_forget", "mia"}
    assert set(rep.gaps) == names
    gaps = [abs(mine[k] - theirs[k]) for k in sorted(names)]
    assert rep.avg_gap == pytest.approx(sum(gaps) / 6, rel=1e-12)


def test_eval_report_leaves_out_an_empty_test_half(classwise_world):
    # class 3 is forgotten and has no test example, so test_forget is empty
    ckpt, _, _ = classwise_world
    ds0 = gen_blobs(10, 4, 4, separation=2.0, noise_sd=1.5, seed=9)
    idx = np.arange(len(ds0.labels))
    test = idx[(ds0.labels < 3) & (idx % 4 == 0)]
    train_ = np.setdiff1d(idx, test)
    ds = SplitDataset(features=ds0.features, labels=ds0.labels,
                      retain_idx=train_[ds0.labels[train_] < 3],
                      forget_idx=train_[ds0.labels[train_] == 3], test_idx=test,
                      forgotten_classes=(3,))
    ref = eval_report(ckpt, ds)
    rep = eval_report(ckpt, ds, ref)
    assert rep.accuracies["test_forget"] is None
    assert rep.accuracies["test_retain"] == rep.accuracies["test"]
    assert "test_forget" not in rep.gaps
    assert set(rep.gaps) == {"retain", "forget", "test", "test_retain", "mia"}
