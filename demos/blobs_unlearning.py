"""End-to-end unlearning comparison on synthetic blobs.

Runs the verification suite's desk-scale comparison for one seed: a small
MLP trained on a 10-class Gaussian-blob task forgets a random 30% of its
training set with several methods, which are compared on two axes:

* relearning convergence delay on the forgotten examples (higher means
  the influence is more thoroughly gone; retraining from scratch is the
  gold standard), and
* average performance gap against the retrained reference (lower means
  the model still behaves like the reference on everything we care about).

The ``original`` row is the trained model itself: fine-tuning for zero
epochs returns the checkpoint's own parameters.

Run:  python3 demos/blobs_unlearning.py   (a few seconds)
"""

from unlearn_forge.unlearning import UnlearnConfig
from unlearn_forge.verify import desk_scale_comparison

SEED = 0

METHODS = {
    "original": UnlearnConfig(method="ft", epochs=0),
    "ft": UnlearnConfig(method="ft", eta=0.05, epochs=50, seed=SEED),
    "rl": UnlearnConfig(method="rl", eta=0.05, epochs=50, seed=SEED),
    "scrub": UnlearnConfig(method="scrub", eta=0.05, epochs=50, seed=SEED),
    "salun": UnlearnConfig(method="salun", eta=0.05, epochs=50, seed=SEED),
    "ieu-noisy": UnlearnConfig(method="ieu", alpha=0.999, c=0.0, eta=0.05, epochs=50, seed=SEED),
    "ieu-ga": UnlearnConfig(method="ieu", alpha=1.0, c=0.01, eta=0.05, epochs=50, seed=SEED),
}

if __name__ == "__main__":
    print(f"{'method':10s} {'RCD^50':>8s} {'avg gap':>8s} {'forget acc':>10s}")
    for name, (rep, ev) in desk_scale_comparison(SEED, METHODS).items():
        gap = "---" if name == "retrain" else f"{ev.avg_gap:8.4f}"
        print(f"{name:10s} {rep.rcd_value:8.3f} {gap:>8s} {ev.accuracies['forget']:10.3f}")
