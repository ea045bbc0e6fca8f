import json

import numpy as np

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
