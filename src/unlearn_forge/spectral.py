"""Matrix-free estimation of extreme Hessian eigenvalues via Lanczos
iteration on Hessian-vector products.

Only the two extreme eigenvalues are needed (they feed the adaptive
relearning step-size and the condition-number bound). Both are the extreme
Ritz values of one Lanczos run with full reorthogonalization: one
Hessian-vector product per step, at most ``d`` steps.

The stop test solves the tridiagonal T with numpy's ``eigh``, so no scipy
is loaded. It runs on a schedule that at most doubles the steps run, not at
every step: a solve per step costs more than the few steps a run may take
past its first converged one.

For non-convex models the Hessian can be indefinite; ``psd_flag`` records
whether the estimate is consistent with positive semidefiniteness, and the
condition number is only reported when it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numcore import check_finite, norm

__all__ = [
    "SpectralEstimate",
    "lambda_max",
    "condition_number",
    "estimate_spectrum",
    "NON_PSD_DIAGNOSTIC",
]

NON_PSD_DIAGNOSTIC = "non-PSD Hessian; bound not applicable"
KAPPA_FLOOR = 1e-12
LANCZOS_TOL = 1e-10  # stop once both extreme Ritz residuals are at most this
LANCZOS_MAX_ITER = 100_000


@dataclass
class SpectralEstimate:
    lambda_max: float
    lambda_min: float
    kappa: float | None
    iterations_used: int  # Lanczos steps, one Hessian-vector product each
    residual: float  # the larger of the two extreme Ritz residuals
    psd_flag: bool

    @property
    def largest_magnitude(self) -> float:
        """The extreme eigenvalue of larger absolute value, so negative when
        the most negative eigenvalue dominates."""
        high, low = self.lambda_max, self.lambda_min
        return high if abs(high) >= abs(low) else low


def _next_check(m: int, residual: float, last) -> int:
    """The step of the next stop test after one failed at step ``m`` with
    ``residual``: where geometric decay from ``last``, the test before as
    ``(step, residual)`` or None, reaches ``LANCZOS_TOL``, within [m + 1, 2m]."""
    rate = 0.0 if last is None else (math.log(residual) - math.log(last[1])) / (m - last[0])
    ahead = math.ceil((math.log(LANCZOS_TOL) - math.log(residual)) / rate) if rate < 0.0 else m
    return m + min(max(ahead, 1), m)


def _lanczos(point, rng: np.random.Generator):
    """Extreme Ritz values of the Hessian at an evaluated ``point``, whose
    HVPs reuse its forward pass.

    Stops at a test where both extreme Ritz residuals ``beta_k * |s_k|`` are
    at most ``LANCZOS_TOL``, on breakdown, or after ``min(d, LANCZOS_MAX_ITER)``
    steps. Tests run at step 1, at that last step and at the steps
    ``_next_check`` extrapolates; each solves T with ``np.linalg.eigh``.
    Returns the run's ``SpectralEstimate``; its ``kappa`` is ``lambda_max /
    lambda_min`` when the estimate is PSD and ``lambda_min`` exceeds
    ``KAPPA_FLOOR``, else None.
    """
    d = point.theta.size
    steps = min(d, LANCZOS_MAX_ITER)
    q = rng.standard_normal(d)
    Q = (q / norm(q))[None]  # the Lanczos basis, one row per step, grown by doubling
    alpha, beta = np.empty(steps), np.empty(steps)  # T's diagonal and off-diagonal
    check, last = 1, None  # the step of the next stop test; the last test's (step, residual)
    for k in range(steps):
        basis = Q[: k + 1]
        w = point.hvp(basis[k])
        check_finite(w, "Hessian-vector product in Lanczos")
        alpha[k] = basis[k] @ w
        for _ in range(2):  # full reorthogonalization; twice is enough
            w -= basis.T @ (basis @ w)
        beta[k] = b = norm(w)
        forced = b == 0.0 or k + 1 == steps  # the run stops here whatever the residuals
        if k + 1 == check or forced:
            if k == 0:  # a 1x1 T is its own eigenvalue, with a unit eigenvector
                (low, high), residual = (float(alpha[0]),) * 2, b
            else:  # eigh reads T's lower triangle only
                ritz, S = np.linalg.eigh(np.diag(alpha[: k + 1]) + np.diag(beta[:k], -1))
                low, high = float(ritz[0]), float(ritz[-1])
                residual = b * float(max(abs(S[-1, 0]), abs(S[-1, -1])))
            if residual <= LANCZOS_TOL or forced:
                break
            check, last = _next_check(k + 1, residual, last), (k + 1, residual)
        if k + 1 == len(Q):
            Q = np.concatenate([Q, np.empty_like(Q)])
        Q[k + 1] = w / b
    psd = low > -LANCZOS_TOL
    return SpectralEstimate(lambda_max=high, lambda_min=low,
                            kappa=high / low if psd and low > KAPPA_FLOOR else None,
                            iterations_used=k + 1, residual=residual, psd_flag=psd)


def lambda_max(obj, theta: np.ndarray, rng: np.random.Generator):
    """Largest-magnitude Hessian eigenvalue of ``obj`` at ``theta``, the
    ``largest_magnitude`` of one Lanczos run.

    Returns ``(eigenvalue, diagnostics)`` where diagnostics is a dict with
    the final residual, the number of Lanczos steps and whether it met
    ``LANCZOS_TOL``.
    """
    est = _lanczos(obj.evaluate(theta), rng)
    return est.largest_magnitude, {"residual": est.residual, "iterations": est.iterations_used,
                                   "converged": est.residual <= LANCZOS_TOL}


def condition_number(est: SpectralEstimate):
    """``est.kappa`` when the estimate has one, else a diagnostic saying why not."""
    if est.kappa is not None:
        return est.kappa
    if not est.psd_flag:
        return NON_PSD_DIAGNOSTIC
    return (f"lambda_min {est.lambda_min:.3e} at or below floor {KAPPA_FLOOR:.1e}; "
            "kappa undefined")


def estimate_spectrum(obj, theta: np.ndarray, rng: np.random.Generator) -> SpectralEstimate:
    """Estimate both algebraic extreme eigenvalues and the condition number."""
    return _lanczos(obj.evaluate(theta), rng)
