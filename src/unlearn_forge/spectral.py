"""Matrix-free estimation of extreme Hessian eigenvalues via Lanczos
iteration on Hessian-vector products.

Only the two extreme eigenvalues are needed (they feed the adaptive
relearning step-size and the condition-number bound). Both are the extreme
Ritz values of one Lanczos run with full reorthogonalization: one
Hessian-vector product per step, at most ``d`` steps.

For non-convex models the Hessian can be indefinite; ``psd_flag`` records
whether the estimate is consistent with positive semidefiniteness, and the
condition number is only reported when it is.
"""

from __future__ import annotations

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


def _lanczos(point, rng: np.random.Generator):
    """Extreme Ritz values of the Hessian at an evaluated ``point``, whose
    HVPs reuse its forward pass.

    Stops when both extreme Ritz residuals ``beta_k * |s_k|`` are at most
    ``LANCZOS_TOL``, on breakdown, or after ``min(d, LANCZOS_MAX_ITER)``
    steps. Returns the run's ``SpectralEstimate``; its ``kappa`` is
    ``lambda_max / lambda_min`` when the estimate is PSD and ``lambda_min``
    exceeds ``KAPPA_FLOOR``, else None.
    """
    from scipy.linalg.lapack import dstebz, dstein  # deferred: scipy.linalg is slow to import

    d = point.theta.size
    steps = min(d, LANCZOS_MAX_ITER)
    q = rng.standard_normal(d)
    Q = (q / norm(q))[None]  # the Lanczos basis, one row per step, grown by doubling
    alpha, beta = np.empty(steps), np.empty(steps)  # T's diagonal and off-diagonal
    for k in range(steps):
        w = point.hvp(Q[k])
        check_finite(w, "Hessian-vector product in Lanczos")
        alpha[k] = Q[k] @ w
        for _ in range(2):  # full reorthogonalization; twice is enough
            w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
        beta[k] = b = norm(w)
        T = alpha[: k + 1], beta[: max(k, 1)]  # LAPACK reads k off-diagonals
        ends, last = [], []  # the two extreme Ritz values and their eigenvectors' last entries
        for i in (1, k + 1):
            _, ritz, block, split, info = dstebz(*T, 2, 0.0, 0.0, i, i, 0.0, "E")
            s, info_s = dstein(*T, ritz[:1], block, split)
            if info or info_s:
                raise np.linalg.LinAlgError("tridiagonal eigensolver failed in Lanczos")
            ends.append(float(ritz[0]))
            last.append(abs(float(s[-1, 0])))
        residual = b * max(last)
        if residual <= LANCZOS_TOL or b == 0.0 or k + 1 == steps:
            break
        if k + 1 == len(Q):
            Q = np.concatenate([Q, np.empty_like(Q)])
        Q[k + 1] = w / b
    low, high = ends
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
