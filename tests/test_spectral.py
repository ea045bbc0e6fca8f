import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unlearn_forge.metrics import rcd
from unlearn_forge.models import logistic_spec, make_quadratic, make_classifier, mlp_spec
from unlearn_forge import spectral
from unlearn_forge.numcore import derive_stream, jsonable
from unlearn_forge.spectral import (
    KAPPA_FLOOR,
    LANCZOS_TOL,
    _lanczos,
    lambda_max,
    condition_number,
    estimate_spectrum,
    NON_PSD_DIAGNOSTIC,
)
from unlearn_forge.training import OptimizerConfig, DivergenceError, train


class _NegativeDominant:
    """A test-local objective ``0.5 theta^T H theta`` whose Hessian ``H`` is
    fixed, seeded, symmetric and indefinite with eigenvalues ``EIGS``: the
    most negative one has the largest magnitude. No library objective has
    such a Hessian (a ReLU MLP with one hidden layer cannot), yet the
    spectral code must keep the extremes in order and ``gd_adaptive`` must
    refuse the negative ``lambda_max``."""

    EIGS = np.array([-3.0, -1.0, 0.5, 1.0, 2.0])
    spec = SimpleNamespace(is_classifier=False)
    n_examples = 0

    def __init__(self):
        d = self.EIGS.size
        basis, _ = np.linalg.qr(derive_stream(3, 1).standard_normal(d * d).reshape(d, d))
        H = (basis * self.EIGS) @ basis.T
        self.H = (H + H.T) / 2.0

    def evaluate(self, theta):
        grad = self.H @ theta
        return SimpleNamespace(theta=theta, loss=0.5 * float(theta @ grad),
                               gradient=grad, hvp=lambda v: self.H @ v)


def _negative_dominant():
    obj = _NegativeDominant()
    return obj, derive_stream(3, 2).normal(0.0, 1.0, obj.EIGS.size)


def _relu_mlp(seed=1):
    """A small ReLU MLP objective at a random point."""
    spec = mlp_spec([2, 4, 2])
    rng = derive_stream(3, seed)
    X = rng.normal(0.0, 1.0, 40).reshape(20, 2)
    y = rng.integers(2, size=20)
    obj = make_classifier(spec, X, y)
    return obj, rng.normal(0.0, 2.0, spec.param_count)


def test_known_spectrum_extremes():
    obj = make_quadratic([4.0, 2.0, 1.0], np.zeros(3), 0.0)
    est = estimate_spectrum(obj, np.zeros(3), rng=derive_stream(0, 0))
    assert est.lambda_max == pytest.approx(4.0, rel=1e-8)
    assert est.lambda_min == pytest.approx(1.0, rel=1e-8)
    assert est.psd_flag


def test_negative_dominant_extremes_keep_their_order():
    obj, theta = _negative_dominant()
    assert np.allclose(np.linalg.eigvalsh(obj.H), obj.EIGS, atol=1e-12)
    est = estimate_spectrum(obj, theta, rng=derive_stream(9, 1))
    assert est.lambda_max == pytest.approx(obj.EIGS[-1], abs=1e-8)
    assert est.lambda_min == pytest.approx(obj.EIGS[0], abs=1e-8)
    assert not est.psd_flag
    assert est.kappa is None
    report = rcd(theta, obj, 0.0, 2, OptimizerConfig(kind="gd_fixed", eta=0.01, max_epochs=1),
                 "loss", derive_stream(9, 1))
    assert report.curvature_bound is None
    assert report.bound_diagnostic == NON_PSD_DIAGNOSTIC


def test_lambda_max_is_largest_magnitude():
    # the adaptive step 1/lambda_max must refuse a negative-dominant Hessian
    obj, theta = _negative_dominant()
    lam, diag = lambda_max(obj, theta, rng=derive_stream(9, 1))
    assert lam == pytest.approx(obj.EIGS[0], abs=1e-8)
    assert lam < 0
    assert diag["converged"]
    with pytest.raises(DivergenceError):
        train(obj, theta, OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=3),
              derive_stream(9, 2))


@pytest.mark.parametrize("spectrum", [[4.0, 2.0, 1.0], [3.0, 3.0, 3.0], [5.0],
                                      list(np.geomspace(50.0, 0.5, 40)), "mlp"])
def test_lanczos_steps_at_most_d(spectrum):
    if spectrum == "mlp":
        obj, theta = _relu_mlp()
    else:
        obj = make_quadratic(spectrum, np.zeros(len(spectrum)), 0.0)
        theta = np.ones(len(spectrum))
    est = estimate_spectrum(obj, theta, rng=derive_stream(6, 0))
    assert 1 <= est.iterations_used <= theta.size


def _list_lanczos(point, rng, steps=None):
    """The Lanczos loop with its tridiagonal matrix kept in Python lists,
    rebuilt in full and solved by ``np.linalg.eigh`` at every step, and the
    norms from ``np.linalg.norm``. Runs ``steps`` steps, by default ``d``, or
    to breakdown, and returns each step's ``(lambda_min, lambda_max, steps,
    residual)``."""
    d = point.theta.size
    q = rng.standard_normal(d)
    Q = [q / np.linalg.norm(q)]
    alphas, betas, rows = [], [], []
    for k in range(steps or d):
        w = point.hvp(Q[k])
        alphas.append(Q[k] @ w)
        for _ in range(2):
            B = np.array(Q)
            w -= B.T @ (B @ w)
        betas.append(np.linalg.norm(w))
        T = np.diag(alphas) + np.diag(betas[:k], 1) + np.diag(betas[:k], -1)
        ritz, S = np.linalg.eigh(T)
        residual = betas[k] * max(abs(S[-1, 0]), abs(S[-1, -1]))
        rows.append((float(ritz[0]), float(ritz[-1]), k + 1, float(residual)))
        if betas[k] == 0.0:
            break
        Q.append(w / betas[k])
    return rows


def _bits(*values):
    return [(type(x), None if x is None else np.float64(x).tobytes()) for x in values]


def _assert_is_the_list_loop(point, seed):
    """``_lanczos`` stops at the first of its scheduled stop tests that the
    list loop's residual passes, or at ``d``, and there equals the list loop
    bit for bit; returns the estimate."""
    est = _lanczos(point, derive_stream(seed, 2))
    rows = _list_lanczos(point, derive_stream(seed, 2), steps=est.iterations_used)
    low, high, steps, residual = rows[-1]
    psd = low > -LANCZOS_TOL
    kappa = high / low if psd and low > KAPPA_FLOOR else None
    assert (_bits(est.lambda_min, est.lambda_max, est.iterations_used, est.residual, est.kappa,
                  est.psd_flag) == _bits(low, high, steps, residual, kappa, psd))
    check, last = 1, None
    for _, _, m, r in rows[:-1]:  # every stop test before the last one fails
        if m == check:
            assert r > LANCZOS_TOL
            check, last = spectral._next_check(m, r, last), (m, r)
    # so it stops no earlier than the list loop's first converged step
    assert steps == check and residual <= LANCZOS_TOL or steps == point.theta.size
    return est


def _binary_logistic():
    rng = derive_stream(9, 1)
    obj = make_classifier(logistic_spec(5, 2), rng.normal(0.0, 1.0, (40, 5)),
                          rng.integers(2, size=40))
    return obj, rng.normal(0.0, 1.0, 6)


@pytest.mark.parametrize("make", [
    lambda: (make_quadratic(np.linspace(9.0, 0.5, 24), np.ones(24), 0.0), np.zeros(24)),
    _binary_logistic,
    lambda: _relu_mlp(seed=0),
], ids=["quadratic", "binary-logistic", "relu-mlp"])
def test_lanczos_is_bitwise_the_list_loop(make):
    obj, theta = make()
    est = _assert_is_the_list_loop(obj.evaluate(theta), 9)
    assert est.iterations_used > 3  # more steps than the start-up ones
    if obj.spec.kind == "mlp":
        assert est.lambda_min < 0.0 < est.lambda_max  # an indefinite Hessian


@pytest.mark.parametrize("make", [_binary_logistic, lambda: _relu_mlp(seed=0)],
                         ids=["binary-logistic", "relu-mlp"])
def test_lanczos_extremes_lie_within_the_residual_of_the_explicit_hessian(make):
    # an independent route: the Hessian built column by column from HVPs, solved densely
    obj, theta = make()
    point = obj.evaluate(theta)
    H = np.column_stack([point.hvp(e) for e in np.eye(theta.size)])
    eig = np.linalg.eigvalsh(H)
    est = _lanczos(point, derive_stream(9, 2))
    assert est.residual <= LANCZOS_TOL
    rounding = theta.size * np.finfo(float).eps * abs(eig).max()  # of two dense solves
    assert abs(est.lambda_min - eig[0]) <= est.residual + rounding
    assert abs(est.lambda_max - eig[-1]) <= est.residual + rounding


def _test_spectrum(kind, d, rng):
    """A non-increasing positive spectrum of ``kind``; curvature-audit's has at least 4
    entries, with the second at beta / 2 and the second smallest at mu + 0.2 (beta - mu)."""
    if kind == "uniform":
        spectrum = rng.uniform(0.5, 10.0, d)
    elif kind == "log-uniform":
        spectrum = 10.0 ** rng.uniform(-3.0, 2.0, d)
    elif kind == "repeated":  # a few distinct values, so the Krylov space runs out early
        spectrum = rng.choice(rng.uniform(0.5, 10.0, 3), d)
    elif kind == "geometric":
        spectrum = 10.0 * 1.01 ** -np.arange(d)
    else:
        beta = rng.uniform(1.0, 10.0)
        mu = beta / 10.0 ** rng.uniform(1.0, 3.0)
        interior = rng.uniform(mu + 0.2 * (beta - mu), 0.5 * beta, max(d - 4, 0))
        spectrum = np.concatenate([[beta, 0.5 * beta], interior, [mu + 0.2 * (beta - mu), mu]])
    return np.sort(spectrum)[::-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1),
       st.sampled_from(["uniform", "log-uniform", "repeated", "geometric", "curvature-audit"]))
def test_lanczos_estimate_is_bitwise_the_list_loop_on_random_quadratics(d, seed, kind):
    """The list loop solves T at every step, so it checks that solving it only
    at the scheduled stop tests changes no bit of the step where the run stops."""
    rng = derive_stream(seed, 0)
    spectrum = _test_spectrum(kind, d, rng)
    obj = make_quadratic(spectrum, rng.normal(0.0, 1.0, spectrum.size), 0.0)
    _assert_is_the_list_loop(obj.evaluate(rng.normal(0.0, 1.0, spectrum.size)), seed)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 10_000), st.floats(0.01, 10.0), st.integers(1, 10_000),
       st.floats(0.01, 12.0))
def test_next_stop_test_is_the_extrapolated_step_clamped_to_m_plus_one_to_2m(
        m, log_residual, back, log_last):
    # both tests failed: each residual is above the tolerance
    residual = LANCZOS_TOL * 10.0 ** log_residual
    last = None if back >= m else (m - back, LANCZOS_TOL * 10.0 ** log_last)
    got = spectral._next_check(m, residual, last)
    assert m + 1 <= got <= 2 * m
    if last is not None and last[1] > residual:  # geometric decay reaches the tolerance here
        rate = (math.log(residual) - math.log(last[1])) / back
        reach = m + math.ceil((math.log(LANCZOS_TOL) - math.log(residual)) / rate)
        if m + 1 <= reach <= 2 * m:
            assert got == reach
    else:  # no decay to extrapolate
        assert got == 2 * m


@pytest.mark.parametrize("m, residual, last, want", [
    (1, 1.0, None, 2),  # the first test
    (2, 1e-3, (1, 1.0), 4),  # no more than 2m
    (10, 1e-4, (5, 1.0), 18),  # 7.5 more steps at 10^-0.8 a step
    (10, 2e-10, (9, 1.0), 11),  # at least m + 1
    (10, 1e-4, (5, 1e-4), 20),  # no decay
    (10, 1e-4, (5, 1e-6), 20),  # a rising residual
])
def test_next_stop_test_examples(m, residual, last, want):
    assert spectral._next_check(m, residual, last) == want


def test_lanczos_solves_t_only_at_scheduled_stop_tests(monkeypatch):
    # step 1 reads its 1x1 T without eigh; every later stop test solves T once
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda T: calls.append(len(T)) or eigh(T))
    point = make_quadratic(np.linspace(9.0, 0.5, 24), np.ones(24), 0.0).evaluate(np.zeros(24))
    est = _lanczos(point, derive_stream(9, 2))
    monkeypatch.undo()
    want, check, last = [], 1, None
    for _, _, m, r in _list_lanczos(point, derive_stream(9, 2), steps=est.iterations_used):
        if m == check or m == est.iterations_used:
            want += [m] if m > 1 else []
            check, last = spectral._next_check(m, r, last), (m, r)
    assert calls == want
    assert len(calls) < est.iterations_used // 2  # not a solve per step


def test_lanczos_step_limit_solves_both_ends(monkeypatch):
    # a run the step limit ends, with its residual above the tolerance
    monkeypatch.setattr(spectral, "LANCZOS_MAX_ITER", 5)
    point = make_quadratic(np.linspace(9.0, 0.5, 24), np.ones(24), 0.0).evaluate(np.zeros(24))
    est = _lanczos(point, derive_stream(9, 2))
    got = est.lambda_min, est.lambda_max, est.iterations_used, est.residual
    want = _list_lanczos(point, derive_stream(9, 2), steps=5)[-1]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[2] == 5 and got[3] > LANCZOS_TOL


@pytest.mark.parametrize("spectrum", [[np.pi], [1e300], [5e-324], [3.0, 3.0], [4.0, 0.25]])
def test_lanczos_first_step_is_lapacks(spectrum):
    # _lanczos reads a 1x1 tridiagonal without LAPACK; the list loop calls eigh.
    # [3.0, 3.0] stops after one step, [4.0, 0.25] goes on to a 2x2 one
    d = len(spectrum)
    point = make_quadratic(spectrum, np.ones(d), 0.0).evaluate(np.zeros(d))
    est = _lanczos(point, derive_stream(9, 2))
    got = est.lambda_min, est.lambda_max, est.iterations_used, est.residual
    want = _list_lanczos(point, derive_stream(9, 2), steps=got[2])[-1]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert got[2] == (2 if spectrum == [4.0, 0.25] else 1)


def test_lanczos_memory_follows_steps_taken():
    # two distinct eigenvalues exhaust the Krylov space in two steps; the
    # basis must not be sized for min(d, max_iter) steps up front
    d = 200_000
    obj = make_quadratic(np.repeat([3.0, 1.0], d // 2), np.zeros(d), 0.0)
    tracemalloc.start()
    try:
        est = estimate_spectrum(obj, np.zeros(d), rng=derive_stream(7, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.iterations_used <= 3
    assert est.lambda_max == pytest.approx(3.0, rel=1e-10)
    assert est.lambda_min == pytest.approx(1.0, rel=1e-10)
    assert peak < 32 * d * 8  # a few basis rows, not thousands


def test_isotropic_degenerate_case():
    obj = make_quadratic([3.0, 3.0, 3.0], np.zeros(3), 0.0)
    est = estimate_spectrum(obj, np.zeros(3), rng=derive_stream(1, 0))
    assert est.lambda_max == pytest.approx(3.0, rel=1e-10)
    assert est.lambda_min == pytest.approx(3.0, rel=1e-10)
    assert est.kappa == pytest.approx(1.0, rel=1e-9)


def test_estimate_full_report():
    obj = make_quadratic([10.0, 5.0, 2.0, 1.0], np.zeros(4), 0.0)
    est = estimate_spectrum(obj, np.zeros(4), rng=derive_stream(2, 0))
    assert est.psd_flag
    assert est.kappa == est.lambda_max / est.lambda_min
    assert est.residual < 1e-8
    d = jsonable(est)
    assert set(d) >= {"lambda_max", "lambda_min", "kappa", "psd_flag"}


def test_condition_number_of_a_psd_estimate_is_its_kappa():
    obj = make_quadratic([10.0, 5.0, 2.0, 1.0], np.zeros(4), 0.0)
    est = estimate_spectrum(obj, np.zeros(4), rng=derive_stream(2, 0))
    assert est.psd_flag and est.kappa is not None
    assert condition_number(est) == est.kappa == est.lambda_max / est.lambda_min


def test_non_psd_diagnostic():
    # a relu network at a random point routinely has an indefinite Hessian
    obj, theta = _relu_mlp(seed=0)
    est = estimate_spectrum(obj, theta, rng=derive_stream(3, 3))
    if not est.psd_flag:
        assert condition_number(est) == NON_PSD_DIAGNOSTIC
    else:  # fall back: the diagnostic path must still trigger on a forged estimate
        forged = type(est)(lambda_max=est.lambda_max, lambda_min=-1.0, kappa=None,
                           iterations_used=1, residual=0.0, psd_flag=False)
        assert condition_number(forged) == NON_PSD_DIAGNOSTIC


def test_tiny_lambda_min_floor():
    obj = make_quadratic([1.0, 1e-15], np.zeros(2), 0.0)
    est = estimate_spectrum(obj, np.zeros(2), rng=derive_stream(4, 0))
    assert isinstance(condition_number(est), str)


def test_power_iteration_rayleigh_accuracy():
    rng = derive_stream(5, 0)
    spectrum = np.sort(rng.uniform(0.5, 20.0, 16))[::-1]
    spectrum[0] = spectrum[1] * 1.5  # clear top gap
    obj = make_quadratic(spectrum, np.zeros(16), 0.0)
    est = estimate_spectrum(obj, np.zeros(16), rng=rng)
    assert est.lambda_max == pytest.approx(spectrum[0], rel=1e-7)
    assert est.lambda_min == pytest.approx(spectrum[-1], rel=1e-7)
