"""Acceptance gate: runs the full analytic verification suite once and
asserts every check individually, so a failure names the exact guarantee
that broke. The suite itself reruns every check with identical seeds to
confirm the serialized report is byte-identical (test 12), and the first
pass's canonical bytes equal the committed ``data/canonical_report.json``
(test 13).
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from unlearn_forge.verify import CheckResult, SuiteReport, run_suite

# the canonical bytes of one pass without the rerun; a change that moves them
# rewrites this file and names the moved values in CHANGES.md
PINNED_REPORT = Path(__file__).parent / "data" / "canonical_report.json"


@pytest.fixture(scope="module")
def suite():
    report = run_suite(full=True, reproducibility=True)
    by_name = {r.name: r for r in report.results}
    return report, by_name


def _assert_check(by_name, name):
    res = by_name[name]
    assert res.passed, (
        f"{name} failed with margin {res.margin:.3e}: {res.details}")
    print(f"{name}: PASS (margin {res.margin:+.3e})")


def test_01_quadratic_rcd_exactness(suite):
    _, by_name = suite
    res = by_name["rcd_exact_quadratic"]
    assert abs(res.details["rcd_value"] - 22.0 / 7.0) < 1e-6
    _assert_check(by_name, "rcd_exact_quadratic")


def test_02_curvature_bound_on_random_quadratics(suite):
    _, by_name = suite
    res = by_name["rcd_curvature_bound"]
    assert res.details["count"] == 50
    _assert_check(by_name, "rcd_curvature_bound")


def test_03_exponential_tail_rate(suite):
    _, by_name = suite
    _assert_check(by_name, "rcd_tail_decay")


def test_04_geometric_decay_and_gradient_dominance(suite):
    _, by_name = suite
    _assert_check(by_name, "geometric_decay_and_pl")


def test_05_spectral_accuracy(suite):
    _, by_name = suite
    res = by_name["spectral_accuracy"]
    assert res.details["kappa_is_exact_ratio"]
    _assert_check(by_name, "spectral_accuracy")


def test_06_reinit_process_stationary_law(suite):
    _, by_name = suite
    _assert_check(by_name, "irp_stationary_law")


def test_07_condition_number_trends(suite):
    _, by_name = suite
    res = by_name["condition_number_trends"]
    assert res.details["seeds"] >= 100
    assert res.details["train_p"] < 0.05
    assert res.details["irp_p"] < 0.05
    _assert_check(by_name, "condition_number_trends")


def test_08_method_limit_identities(suite):
    _, by_name = suite
    res = by_name["method_limit_identities"]
    assert res.details["ft_equals_full_update_limit"]
    assert res.details["rl_equals_full_mask_saliency"]
    _assert_check(by_name, "method_limit_identities")


def test_09_desk_scale_ordering(suite):
    _, by_name = suite
    res = by_name["desk_scale_ordering"]
    rcd = res.details["mean_rcd"]
    gap = res.details["mean_avg_gap"]
    assert rcd["retrain"] > rcd["rl"] > rcd["ft"]
    assert gap["ieu"] <= gap["rl"]
    _assert_check(by_name, "desk_scale_ordering")


def test_10_mia_brute_force_equivalence(suite):
    _, by_name = suite
    res = by_name["mia_brute_force_equivalence"]
    assert res.details["mismatches"] == 0
    _assert_check(by_name, "mia_brute_force_equivalence")


def test_11_retain_loss_bound_monitor(suite):
    _, by_name = suite
    _assert_check(by_name, "retain_bound_monitor")


def test_12_byte_identical_reruns(suite):
    _, by_name = suite
    assert by_name["reproducibility"].details["byte_identical"] is True
    _assert_check(by_name, "reproducibility")


# each check's pass rule for its margin, as CheckResult's docstring states it
MARGIN_RULES = {
    **dict.fromkeys(["rcd_curvature_bound", "rcd_tail_decay", "geometric_decay_and_pl",
                     "irp_stationary_law", "retain_bound_monitor"], ">= 0"),
    **dict.fromkeys(["rcd_exact_quadratic", "spectral_accuracy", "condition_number_trends",
                     "desk_scale_ordering"], "> 0"),
    **dict.fromkeys(["method_limit_identities", "mia_brute_force_equivalence",
                     "reproducibility"], "== 0"),
}


def test_each_check_passes_by_its_stated_margin_rule(suite):
    report, _ = suite
    assert sorted(r.name for r in report.results) == sorted(MARGIN_RULES)
    assert all(name in CheckResult.__doc__ for name in MARGIN_RULES)
    for r in report.results:
        holds = {">= 0": r.margin >= 0.0, "> 0": r.margin > 0.0, "== 0": r.margin == 0.0}
        assert r.passed == holds[MARGIN_RULES[r.name]], (r.name, r.margin)


def _leaves(value, path=()):
    """``(path, leaf)`` for each number, string, bool or null in a JSON value,
    with ``path`` the keys and indices that lead to it."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]
    return [(path, value)]


def _moved_values(pinned: bytes, canonical: bytes) -> list:
    """One line per ``(check, key)`` whose value differs between two canonical
    reports, with the pinned and the new value; a missing value reads <absent>."""
    old, new = ({r["name"]: dict(_leaves(r)) for r in json.loads(b)} for b in (pinned, canonical))
    moved = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, {}), new.get(name, {})
        for path in sorted(a.keys() | b.keys(), key=repr):
            was, now = (repr(v[path]) if path in v else "<absent>" for v in (a, b))
            if was != now:
                moved.append(f"{name} {_key(path)}: {was} -> {now}")
    return moved


def _key(path) -> str:
    """A leaf's path as its first key and then each step in brackets, so a
    key holding a dot (the IRP law's "0.5") stays one step."""
    return path[0] + "".join(f"[{p!r}]" for p in path[1:])


def _assert_pinned(pinned: bytes, canonical: bytes):
    assert canonical == pinned, "canonical bytes moved:\n" + "\n".join(
        _moved_values(pinned, canonical) or ["no value moved; the checks' order or layout did"])


def test_13_canonical_bytes_are_pinned(suite):
    report, _ = suite
    first_pass = [r for r in report.results if r.name != "reproducibility"]
    _assert_pinned(PINNED_REPORT.read_bytes(), SuiteReport(results=first_pass).canonical_bytes())


def test_pinned_comparison_names_a_float_moved_by_one_ulp():
    pinned = PINNED_REPORT.read_bytes()
    results = json.loads(pinned)
    assert json.dumps(results, sort_keys=True, separators=(",", ":")).encode() == pinned
    floats = [(r, path, v) for r in results for path, v in _leaves(r) if isinstance(v, float)]
    assert len(floats) > 20
    for result, path, value in floats:
        *parents, last = path
        holder = result
        for part in parents:
            holder = holder[part]
        holder[last] = moved = float(np.nextafter(value, np.inf))
        planted = json.dumps(results, sort_keys=True, separators=(",", ":")).encode()
        holder[last] = value
        named = f"{result['name']} {_key(path)}: {value!r} -> {moved!r}"
        with pytest.raises(AssertionError, match=re.escape(named)):
            _assert_pinned(pinned, planted)
        assert _moved_values(pinned, planted) == [named]
