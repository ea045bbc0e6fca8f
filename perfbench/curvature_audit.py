"""curvature-audit: small-dimension curvature work, where Hessian-vector
products, power iteration and per-call overhead dominate.

* Seeded random quadratics, three operations each: ``estimate_spectrum``,
  a 500-epoch loss-phi ``rcd`` with its curvature bound, and an
  adaptive-step ``rcd`` that re-estimates lambda_max every epoch.
* Binary logistic tasks, two operations each: condition numbers along a
  gradient-descent training trajectory, and along an ``irp_run``
  re-initialization trajectory from the trained optimum.
* One loss-phi audit on a small ReLU MLP whose Hessian is indefinite.

The spectra are built with fixed relative gaps at both ends, so the number
of power-iteration steps, and with it the cost, does not depend on the
seed.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from unlearn_forge import datasets, metrics, models, numcore, spectral, training, unlearning

import reference as ref
from base import Workload

SIZES = {
    "full": dict(quad_dims=(8, 12, 16, 24, 32, 48) * 2, quad_epochs=500, adaptive_epochs=100,
                 logistic_tasks=4, logistic_n=400, trajectory=30, optimum_epochs=300),
    "tiny": dict(quad_dims=(4, 6), quad_epochs=20, adaptive_epochs=5,
                 logistic_tasks=1, logistic_n=60, trajectory=3, optimum_epochs=20),
}
# Feature variances of the logistic tasks. The bias column adds 1.0 between
# them, so power iteration converges at a rate near 1/2 at both ends.
FEATURE_VARIANCES = np.array([2.0, 0.1])
IRP_ALPHA = 0.9
SPECTRAL_RTOL = 1e-6


@dataclass
class Quadratic:
    spectrum: np.ndarray
    theta_star: np.ndarray
    theta0: np.ndarray
    obj: models.Objective


@dataclass
class Logistic:
    X: np.ndarray
    obj: models.Objective
    theta0: np.ndarray
    optimum: np.ndarray


def _quadratic(rng, d):
    beta = rng.uniform(1.0, 10.0)
    mu = beta / 10.0 ** rng.uniform(1.0, 3.0)
    second, second_last = 0.5 * beta, mu + 0.2 * (beta - mu)
    interior = np.sort(rng.uniform(second_last, second, d - 4))[::-1]
    spectrum = np.concatenate([[beta, second], interior, [second_last, mu]])
    theta_star = rng.normal(0.0, 1.0, d)
    theta0 = theta_star + rng.normal(0.0, 1.0, d)
    return Quadratic(spectrum, theta_star, theta0,
                     models.make_quadratic(spectrum, theta_star, 0.0))


def _logistic_data(rng, n):
    """Features with a fixed covariance spectrum in a random basis, labels
    from a planted weak logistic model."""
    p = FEATURE_VARIANCES.size
    basis, _ = np.linalg.qr(rng.normal(size=(p, p)))
    X = (rng.normal(size=(n, p)) * np.sqrt(FEATURE_VARIANCES)) @ basis.T
    logit = X @ rng.normal(0.0, 0.3, p) + rng.normal(0.0, 0.3)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return X, y


class CurvatureAudit(Workload):
    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.size = SIZES[scale]
        self.results = {}

    def setup_steps(self):
        # a set-up takes under half a second, so take the median of many
        return [self._set_up] * 9

    def _set_up(self):
        size, rng = self.size, np.random.default_rng([self.seed, 17])
        self.quadratics = [_quadratic(rng, d) for d in size["quad_dims"]]
        spec = models.logistic_spec(FEATURE_VARIANCES.size, 2)
        self.logistics = []
        for i in range(size["logistic_tasks"]):
            X, y = _logistic_data(rng, size["logistic_n"])
            obj = models.make_classifier(spec, X, y)
            theta0 = numcore.kaiming_sample(spec.param_count, numcore.derive_stream(self.seed, i))
            optimum = training.train(obj, theta0, self._gd(size["optimum_epochs"]),
                                     numcore.derive_stream(self.seed, 100 + i)).theta
            self.logistics.append(Logistic(X, obj, theta0, optimum))
        self._set_up_mlp()

    @staticmethod
    def _gd(epochs):
        # grad_norm_tol 0 runs every epoch, so the work does not depend on the draw
        return training.OptimizerConfig(kind="gd_fixed", eta=1.0, max_epochs=epochs,
                                        grad_norm_tol=0.0)

    def _set_up_mlp(self):
        """A fixed input, the same for every seed: power iteration on an
        indefinite Hessian takes from 1.5k to 100k steps across draws."""
        data = datasets.split_random(datasets.gen_blobs(20, 3, 3, separation=2.0, noise_sd=1.0,
                                                        seed=0), 0.5, 0)
        spec = models.mlp_spec([3, 4, 3])
        cfg = training.OptimizerConfig(kind="adam", eta=0.01, max_epochs=100)
        theta0 = numcore.kaiming_sample(spec.param_count, numcore.derive_stream(0, 1))
        trace = training.train(datasets.split_objective(data, spec, "train"), theta0, cfg,
                               numcore.derive_stream(0, 2))
        _, phi_ref = training.forget_oracle(data, spec, cfg, 0)
        self.mlp = (datasets.split_objective(data, spec, "forget"), trace.theta, phi_ref["loss"])

    def operations(self):
        ops = []
        for i in range(len(self.quadratics)):
            ops += [(f"spectrum/{i}", partial(self._spectrum, i)),
                    (f"rcd-bound/{i}", partial(self._rcd_bound, i)),
                    (f"rcd-adaptive/{i}", partial(self._rcd_adaptive, i))]
        for i in range(len(self.logistics)):
            ops += [(f"logistic-train/{i}", partial(self._logistic_train, i)),
                    (f"logistic-irp/{i}", partial(self._logistic_irp, i))]
        ops.append(("mlp-audit", self._mlp_audit))
        return ops

    def _stream(self, kind, i):
        return numcore.derive_stream(self.seed, 1000 * kind + i)

    def _spectrum(self, i):
        q = self.quadratics[i]
        self.results["spectrum", i] = spectral.estimate_spectrum(q.obj, q.theta0,
                                                                 rng=self._stream(1, i))

    def _rcd_bound(self, i):
        q = self.quadratics[i]
        cfg = training.OptimizerConfig(kind="gd_fixed", eta=1.0 / q.spectrum[0], max_epochs=1)
        self.results["rcd-bound", i] = metrics.rcd(q.theta0, q.obj, 0.0, self.size["quad_epochs"],
                                                   cfg, "loss", self._stream(2, i))

    def _rcd_adaptive(self, i):
        q = self.quadratics[i]
        cfg = training.OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)
        self.results["rcd-adaptive", i] = metrics.rcd(
            q.theta0, q.obj, 0.0, self.size["adaptive_epochs"], cfg, "loss", self._stream(3, i),
            attach_bound=False)

    def _logistic_train(self, i):
        task, epochs = self.logistics[i], self.size["trajectory"]
        trace = training.train(task.obj, task.theta0, self._gd(epochs), self._stream(4, i))
        thetas = [task.theta0]
        for _ in range(epochs):  # replay the trajectory that train() ran
            thetas.append(thetas[-1] - 1.0 * task.obj.gradient(thetas[-1]))
        estimates = [spectral.estimate_spectrum(task.obj, theta, rng=self._stream(5, i))
                     for theta in thetas]
        self.results["logistic-train", i] = (trace.theta, thetas, estimates)

    def _logistic_irp(self, i):
        task = self.logistics[i]
        thetas = unlearning.irp_run(task.optimum, IRP_ALPHA, self.size["trajectory"],
                                    self._stream(6, i))
        estimates = [spectral.estimate_spectrum(task.obj, theta, rng=self._stream(7, i))
                     for theta in thetas]
        self.results["logistic-irp", i] = (None, thetas, estimates)

    def _mlp_audit(self):
        forget_obj, theta, phi_ref = self.mlp
        cfg = training.OptimizerConfig(kind="gd_fixed", eta=0.05, max_epochs=1)
        self.results["mlp"] = metrics.rcd(theta, forget_obj, phi_ref, 20, cfg, "loss",
                                          numcore.derive_stream(0, 3))

    def check(self):
        failures = []
        for i, q in enumerate(self.quadratics):
            failures += [f"quadratic {i} (d={q.spectrum.size}): {m}"
                         for m in self._check_quadratic(i, q)]
        for i, task in enumerate(self.logistics):
            for kind in ("logistic-train", "logistic-irp"):
                failures += [f"{kind} {i}: {m}" for m in self._check_logistic(kind, i, task)]
        failures += [f"mlp audit: {m}" for m in self._check_mlp()]
        return failures

    def _check_quadratic(self, i, q):
        failures = []
        est = self.results["spectrum", i]
        beta, mu = q.spectrum[0], q.spectrum[-1]
        if not (np.isclose(est.lambda_max, beta, rtol=SPECTRAL_RTOL, atol=0.0)
                and np.isclose(est.lambda_min, mu, rtol=SPECTRAL_RTOL, atol=0.0)):
            failures.append(f"estimated ({est.lambda_max}, {est.lambda_min}) "
                            f"vs built ({beta}, {mu})")
        if est.kappa != est.lambda_max / est.lambda_min:
            failures.append("kappa is not the ratio of the extreme estimates")
        residual = q.theta0 - q.theta_star
        gap = 0.5 * float(np.sum(q.spectrum * residual ** 2))
        kappa_gap = beta / mu * gap
        for kind, epochs in (("rcd-bound", self.size["quad_epochs"]),
                             ("rcd-adaptive", self.size["adaptive_epochs"])):
            report = self.results[kind, i]
            closed = ref.quadratic_gd_sum(q.spectrum, residual, 1.0 / beta, epochs)
            if not np.isclose(report.rcd_value, closed, rtol=1e-9, atol=0.0):
                failures.append(f"{kind} value {report.rcd_value} vs closed form {closed}")
            partial_sums = np.cumsum(report.errors)
            if partial_sums.min() < -1e-12 or partial_sums.max() > kappa_gap * (1 + 1e-9):
                failures.append(f"{kind} partial sums leave [0, kappa * gap]")
        bound = self.results["rcd-bound", i].curvature_bound
        if bound is None or not np.isclose(bound, kappa_gap, rtol=SPECTRAL_RTOL, atol=0.0):
            failures.append(f"curvature bound {bound} vs kappa * gap {kappa_gap}")
        return failures

    def _check_logistic(self, kind, i, task):
        failures = []
        end, thetas, estimates = self.results[kind, i]
        if end is not None and not np.array_equal(end, thetas[-1]):
            failures.append("train() ended away from the replayed trajectory")
        for t, (theta, est) in enumerate(zip(thetas, estimates)):
            eig = np.linalg.eigvalsh(ref.logistic_hessian(task.X, theta, 2))
            if not (np.isclose(est.lambda_max, eig[-1], rtol=SPECTRAL_RTOL, atol=0.0)
                    and np.isclose(est.lambda_min, eig[0], rtol=SPECTRAL_RTOL, atol=0.0)):
                failures.append(f"point {t}: estimated ({est.lambda_max}, {est.lambda_min}) "
                                f"vs eigvalsh ({eig[-1]}, {eig[0]})")
            if est.kappa is None or not np.isclose(est.kappa, eig[-1] / eig[0], rtol=1e-5):
                failures.append(f"point {t}: kappa {est.kappa} vs {eig[-1] / eig[0]}")
        return failures

    def _check_mlp(self):
        failures = []
        forget_obj, theta, _ = self.mlp
        report = self.results["mlp"]
        if (report.curvature_bound is not None
                or report.bound_diagnostic != spectral.NON_PSD_DIAGNOSTIC):
            failures.append(f"bound {report.curvature_bound}, "
                            f"diagnostic {report.bound_diagnostic!r}")
        eig = np.linalg.eigvalsh(ref.mlp_hessian_fd(forget_obj.spec.layer_dims, theta,
                                                    forget_obj.X, forget_obj.y))
        if not eig[0] < -1e-3:
            failures.append(f"finite-difference Hessian is not indefinite: lambda_min {eig[0]}")
        est = report.spectral
        if est is None or not (abs(est.lambda_max - eig[-1]) < 1e-4 * eig[-1]
                               and abs(est.lambda_min - eig[0]) < 1e-4 * eig[-1]):
            failures.append(f"estimate {est} vs finite differences ({eig[-1]}, {eig[0]})")
        return failures
