"""The iterative re-initialization process and what it does to curvature.

Runs the verification suite's two checks of the process and prints what
each measured:

* ``irp_stationary_law`` simulates theta <- alpha * theta + (1 - alpha) *
  fresh_init and compares the tail per-coordinate variance with the
  stationary law (1-alpha)/(1+alpha) * (2/d). Note this is smaller than the
  2/d of a single fresh draw: consecutive draws average out.
* ``condition_number_trends`` trains logistic regression on heavily
  overlapping blobs and tracks the mean Hessian condition number: it falls
  while training, then climbs again when the point where training stopped
  is pushed through the re-initialization process.

Run:  python3 demos/reinit_spectrum.py   (about fifteen seconds)
"""

from unlearn_forge.verify import check_condition_number_trends, check_irp_stationary_law

if __name__ == "__main__":
    for check in (check_irp_stationary_law, check_condition_number_trends):
        result = check()
        print(f"== {result.name}: {'PASS' if result.passed else 'FAIL'}, "
              f"margin {result.margin:+.3e} ==")
        for key, value in result.details.items():
            print(f"  {key}: {value}")
