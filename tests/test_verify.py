import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from unlearn_forge import verify
from unlearn_forge.training import FORGET_ORACLE_CONFIG
from unlearn_forge.verify import (
    CheckResult,
    SuiteReport,
    _random_quadratics,
    _rcd_closed_form,
    _mia_brute_force,
)


def test_random_quadratics_respect_construction_limits():
    tasks = _random_quadratics()
    assert len(tasks) == 50
    for t in tasks:
        assert 2 <= t["spectrum"].size <= 32
        assert t["kappa"] <= 1e3 + 1e-9
        assert np.all(np.diff(t["spectrum"]) <= 0)
        assert t["spectrum"][0] == t["beta"]
        assert t["spectrum"][-1] == t["mu"]


def test_random_quadratics_are_seeded():
    a = _random_quadratics()
    b = _random_quadratics()
    assert np.array_equal(a[7]["theta0"], b[7]["theta0"])


def test_closed_form_matches_worked_example():
    # spectrum (4,1), residual (1,1), eta = 1/4: 2.5 + 0.5/(1-0.5625) = 22/7
    val = _rcd_closed_form(np.array([4.0, 1.0]), np.array([1.0, 1.0]), 0.25)
    assert abs(val - 22.0 / 7.0) < 1e-12


def test_brute_force_mia_on_tiny_case():
    res = _mia_brute_force([0.1, 0.2], [0.9, 1.1], [0.15, 1.0])
    assert res.balanced_accuracy == 1.0
    assert res.forget_member_rate == 0.5


def test_canonical_bytes_exclude_runtime():
    a = SuiteReport(results=[CheckResult(name="x", passed=True, margin=1.0,
                                         runtime=1.23)])
    b = SuiteReport(results=[CheckResult(name="x", passed=True, margin=1.0,
                                         runtime=9.87)])
    assert a.canonical_bytes() == b.canonical_bytes()
    payload = json.loads(a.canonical_bytes())
    assert "runtime" not in payload[0]


def test_all_passed_accounts_for_byte_identity():
    check = CheckResult(name="x", passed=True, margin=1.0)
    assert SuiteReport(results=[check]).all_passed
    rerun = CheckResult(name="reproducibility", passed=False, margin=-1.0,
                        details={"reruns": 1, "byte_identical": False, "checks_compared": 1})
    assert not SuiteReport(results=[check, rerun]).all_passed


def _failing(margin):
    """Whether ``margin`` is a failing one: a finite number of at most 0."""
    return np.isfinite(margin) and margin <= 0.0


def test_geometric_decay_audits_the_library_descent(monkeypatch):
    """The check reads its points from ``_descend``: stepping at 2.5 times
    the configured eta, past the stable 2/beta, breaks the decay it audits."""
    assert verify.check_geometric_decay_and_pl().passed
    descend = verify._descend

    def overstep(obj, theta0, cfg, rng):
        return descend(obj, theta0, replace(cfg, eta=2.5 * cfg.eta), rng)

    monkeypatch.setattr(verify, "_descend", overstep)
    result = verify.check_geometric_decay_and_pl()
    assert not result.passed and _failing(result.margin)


def test_rcd_curvature_bound_relearns_under_gd_adaptive(monkeypatch):
    """Every relearning runs the library's adaptive rule at eta 1, so the
    check audits that rule and its one Lanczos run per quadratic."""
    relearners, rcd = [], verify.rcd

    def record(theta0, obj, phi_ref, K, cfg, *args, **kwargs):
        relearners.append(cfg)
        return rcd(theta0, obj, phi_ref, K, cfg, *args, **kwargs)

    monkeypatch.setattr(verify, "rcd", record)
    assert verify.check_rcd_curvature_bound().passed
    assert len(relearners) == 50
    assert all(cfg.kind == "gd_adaptive" and cfg.eta == 1.0 for cfg in relearners)


def test_desk_scale_comparison_trains_its_forget_oracle_with_the_shared_recipe(monkeypatch):
    class Recorded(Exception):
        pass

    def record(data, spec, cfg, seed):
        raise Recorded(cfg)

    monkeypatch.setattr(verify, "forget_oracle", record)
    with pytest.raises(Recorded) as info:
        verify.desk_scale_comparison(0, {})
    assert info.value.args[0] == FORGET_ORACLE_CONFIG


def _fake_check(name, details=dict):
    return lambda: CheckResult(name=name, passed=True, margin=1.0, details=details())


def test_run_suite_runs_the_heavy_checks_only_when_full(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", [_fake_check("a"), _fake_check("b")])
    monkeypatch.setattr(verify, "HEAVY_CHECKS", [_fake_check("heavy")])
    names = lambda report: [r.name for r in report.results]
    assert names(verify.run_suite(full=False, reproducibility=False)) == ["a", "b"]
    assert names(verify.run_suite(full=True, reproducibility=False)) == ["a", "b", "heavy"]
    report = verify.run_suite(full=False)
    assert names(report) == ["a", "b", "reproducibility"] and report.all_passed
    assert report.results[-1].details == {"reruns": 1, "byte_identical": True,
                                          "checks_compared": 2}


def test_run_suite_fails_a_rerun_whose_details_change(monkeypatch):
    passes = iter(range(2))
    monkeypatch.setattr(verify, "CHECKS", [_fake_check("steady"),
                                           _fake_check("drifting", lambda: {"pass": next(passes)})])
    monkeypatch.setattr(verify, "HEAVY_CHECKS", [_fake_check("heavy")])
    report = verify.run_suite()
    rerun = report.results[-1]
    assert rerun.name == "reproducibility" and not rerun.passed
    assert _failing(rerun.margin) and rerun.margin == -1.0
    assert rerun.details == {"reruns": 1, "byte_identical": False, "checks_compared": 3}
    assert all(r.passed for r in report.results[:-1]) and not report.all_passed


def _nth_call(fn, n, then):
    """``fn`` whose ``n``-th call (from 1) returns ``then(args, kwargs)`` instead."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        return then(args, kwargs) if next(calls) == n else fn(*args, **kwargs)
    return wrapper


def test_rcd_tail_decay_skips_a_flat_tail(monkeypatch):
    # a delay sum of 0 leaves the first task's tail below the floor throughout
    monkeypatch.setattr(verify, "_rcd_closed_form",
                        _nth_call(verify._rcd_closed_form, 1, lambda args, kwargs: 0.0))
    result = verify.check_rcd_tail_decay()
    assert result.passed and result.margin > 0.0
    assert result.details["skipped_flat"] == 1 and result.details["count"] == 49


def test_rcd_tail_decay_fails_a_rising_tail(monkeypatch):
    # the first task skips; the second relearns at negated errors, so its tail rises
    rcd = verify.rcd

    def negated(args, kwargs):
        report = rcd(*args, **kwargs)
        return replace(report, errors=-report.errors)

    monkeypatch.setattr(verify, "_rcd_closed_form",
                        _nth_call(verify._rcd_closed_form, 1, lambda args, kwargs: 0.0))
    monkeypatch.setattr(verify, "rcd", _nth_call(rcd, 2, negated))
    result = verify.check_rcd_tail_decay()
    # a rising tail's slope ratio is at most 0, so its margin is at most -0.9
    assert not result.passed and _failing(result.margin) and result.margin <= -0.9
    assert result.details["count"] == 49 and result.details["skipped_flat"] == 1
    assert result.margin == result.details["worst_slope_ratio"] - 0.9


def test_rcd_tail_decay_fails_a_run_that_fits_nothing(monkeypatch):
    monkeypatch.setattr(verify, "_rcd_closed_form", lambda *args, **kwargs: 0.0)
    result = verify.check_rcd_tail_decay()
    assert not result.passed and _failing(result.margin)
    assert result.details == {"count": 0, "skipped_flat": 50, "worst_slope_ratio": None}
    assert b"Infinity" not in SuiteReport(results=[result]).canonical_bytes()


def test_spectral_accuracy_fails_an_inexact_kappa(monkeypatch):
    estimate = verify.estimate_spectrum

    def nudged(*args, **kwargs):
        est = estimate(*args, **kwargs)
        return replace(est, kappa=np.nextafter(est.kappa, np.inf))

    monkeypatch.setattr(verify, "estimate_spectrum", nudged)
    result = verify.check_spectral_accuracy()
    assert not result.passed and _failing(result.margin) and result.margin == -1.0
    assert result.details["kappa_is_exact_ratio"] is False and result.details["cases"] == 7
    assert result.details["worst_relative_error"] < 1e-6  # the eigenvalues stay exact


def test_mia_brute_force_equivalence_fails_a_mismatch(monkeypatch):
    attack = verify.mia_threshold_attack
    monkeypatch.setattr(verify, "mia_threshold_attack", _nth_call(
        attack, 3, lambda args, kwargs: replace(attack(*args), threshold=np.inf)))
    result = verify.check_mia_brute_force_equivalence()
    assert not result.passed and _failing(result.margin) and result.margin == -1.0
    assert result.details == {"instances": 25, "mismatches": 1}


@pytest.mark.parametrize("nan_at", [0, 1], ids=["train", "irp"])
def test_condition_number_trends_fails_a_nan_statistic(monkeypatch, nan_at):
    """A flat kappa curve gives a NaN Spearman statistic, which fails the
    check with a finite negative margin, whichever trend it is."""
    import scipy.stats  # the check imports spearmanr from it when it runs

    stats = [(-1.0, 0.0), (1.0, 0.0)]  # both trends hold, but for the NaN one
    stats[nan_at] = (np.nan, np.nan)
    calls = iter(stats)
    monkeypatch.setattr(scipy.stats, "spearmanr", lambda x, y: next(calls))
    # the curves no longer count: skip the trainings to the optimum and the dense Hessians
    monkeypatch.setattr(verify, "train", lambda obj, theta0, cfg, rng: SimpleNamespace(theta=theta0))
    monkeypatch.setattr(verify, "_explicit_kappa", lambda point: 1.0)
    result = verify.check_condition_number_trends()
    assert not result.passed and _failing(result.margin) and result.margin < 0.0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    # the report parses as strict JSON, the NaN statistic reading None
    details = json.loads(SuiteReport([result]).canonical_bytes(), parse_constant=refuse)[0]["details"]
    nan_trend, other = ("train", "irp") if nan_at == 0 else ("irp", "train")
    assert details[f"{nan_trend}_spearman"] is None and details[f"{nan_trend}_p"] is None
    assert details[f"{other}_spearman"] == stats[1 - nan_at][0] and details[f"{other}_p"] == 0.0
