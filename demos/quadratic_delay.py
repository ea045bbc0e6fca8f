"""Relearning convergence delay on an analytic quadratic.

Walks through the fully solvable 2-D case: spectrum (4, 1), start at
(1, 1), optimum at the origin. With the adaptive step 1/lambda_max the
per-coordinate residuals decay geometrically and the infinite-horizon
delay has the closed form 22/7. The curvature bound kappa * initial gap
gives 4 * 2.5 = 10.

Run:  python3 demos/quadratic_delay.py
"""

import numpy as np

from unlearn_forge.metrics import rcd
from unlearn_forge.models import make_quadratic
from unlearn_forge.numcore import derive_stream
from unlearn_forge.training import OptimizerConfig


def main():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    theta0 = np.array([1.0, 1.0])
    cfg = OptimizerConfig(kind="gd_adaptive", eta=1.0, max_epochs=1)

    print("== closed-form target ==")
    print(f"RCD_inf = 22/7 = {22/7:.12f}")

    for K in (5, 10, 50, 200):
        rep = rcd(theta0, obj, 0.0, K, cfg, "loss", derive_stream(0, 1))
        tail = 22.0 / 7.0 - rep.rcd_value
        print(f"K={K:4d}  RCD^K={rep.rcd_value:.12f}  tail={tail:.3e}")

    print("\n== curvature bound ==")
    # every loss-phi report carries it: kappa at theta0 times the loss gap there
    print(f"kappa * gap = {rep.curvature_bound:.6f}  (delay {22/7:.6f} sits below it)")

    print("\n== first relearning epochs ==")
    rep = rcd(theta0, obj, 0.0, 3, cfg, "loss", derive_stream(0, 3))
    for t, e in enumerate(rep.errors):
        print(f"t={t}  loss={e:.9f}")


if __name__ == "__main__":
    main()
