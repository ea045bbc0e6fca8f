"""The iterative re-initialization process and what it does to curvature.

Part 1 simulates theta <- alpha * theta + (1 - alpha) * fresh_init and
compares the tail per-coordinate variance with the stationary law
(1-alpha)/(1+alpha) * (2/d). Note this is smaller than the 2/d of a
single fresh draw: consecutive draws average out.

Part 2 trains logistic regression on heavily overlapping blobs and tracks
the Hessian condition number: it falls while training, then climbs again
when the optimum is pushed through the re-initialization process.

Run:  python3 demos/reinit_spectrum.py   (about ten seconds)
"""

import numpy as np

from unlearn_forge import gen_blobs, logistic_spec, split_objective
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.training import OptimizerConfig, train
from unlearn_forge.unlearning import irp_run
from unlearn_forge.verify import _explicit_kappa


def stationary_variance():
    d, steps = 100, 50_000
    print("== stationary variance of the re-initialization process ==")
    print(f"{'alpha':>6s} {'measured':>12s} {'theory':>12s}")
    for alpha in (0.5, 0.9, 0.99):
        rng = derive_stream(0, 1)
        traj = irp_run(kaiming_sample(d, rng), alpha, steps, rng)
        measured = traj[steps // 2 :].var()
        theory = (1 - alpha) / (1 + alpha) * (2 / d)
        print(f"{alpha:6.2f} {measured:12.3e} {theory:12.3e}")


def kappa_trends(n_seeds=20):
    print("\n== condition number while training vs under re-initialization ==")
    epochs, irp_steps = 30, 30
    train_k = np.zeros(epochs + 1)
    irp_k = np.zeros(irp_steps + 1)
    for seed in range(n_seeds):
        ds = gen_blobs(100, 3, 5, separation=1.0, noise_sd=3.0, seed=seed)
        spec = logistic_spec(5, 3)
        obj = split_objective(ds, spec, "train")
        theta = kaiming_sample(spec.param_count, derive_stream(seed, 2))
        for t in range(epochs + 1):
            point = obj.evaluate(theta)
            train_k[t] += _explicit_kappa(point) / n_seeds
            theta = theta - point.gradient()
        opt = train(obj, theta,
                    OptimizerConfig(kind="gd_fixed", eta=1.0, max_epochs=800,
                                    grad_norm_tol=1e-7),
                    derive_stream(seed, 3)).theta
        traj = irp_run(opt, 0.9, irp_steps, derive_stream(seed, 4))
        for t in range(irp_steps + 1):
            irp_k[t] += _explicit_kappa(obj.evaluate(traj[t])) / n_seeds
    print(f"training:        kappa {train_k[0]:.1f} -> {train_k[-1]:.1f} (falls)")
    print(f"re-init process: kappa {irp_k[0]:.1f} -> {irp_k[-1]:.1f} (climbs)")


if __name__ == "__main__":
    stationary_variance()
    kappa_trends()
