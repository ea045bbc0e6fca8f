"""desk-unlearn: the README's 10-class blobs task on an MLP [8, 32, 32, 10]
with 30% random forgetting, over a few data seeds.

Set-up, once per data seed: data, the original model (Adam, 200 epochs),
the retrain and forget oracles, and the retrain reference report. One
operation is one method unlearning (50 epochs), its relearning delay audit
(one minus accuracy, SGD relearning, K = 50) and its evaluation report
against the retrain reference. MLP forward and backward passes dominate.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
from unlearn_forge import checkpoints, datasets, metrics, models, numcore, training, unlearning

import reference as ref
from base import Workload

SIZES = {
    "full": dict(data_seeds=3, n_per_class=200, classes=10, features=8, hidden=(32, 32),
                 train_epochs=200, unlearn_epochs=50, relearn_epochs=50, fd_coords=16),
    "tiny": dict(data_seeds=2, n_per_class=10, classes=3, features=4, hidden=(6,),
                 train_epochs=10, unlearn_epochs=3, relearn_epochs=3, fd_coords=8),
}
METHODS = ("ft", "rl", "ieu", "scrub", "salun")
ETA = 0.05
PHI = "one_minus_accuracy"
RELEARN = training.OptimizerConfig(kind="sgd", eta=0.05, batch_size=128, max_epochs=1)


@dataclass
class Task:
    seed: int
    data: datasets.SplitDataset
    spec: models.ModelSpec
    original: checkpoints.Checkpoint
    retrain: checkpoints.Checkpoint
    forget_theta: np.ndarray
    phi_ref: float
    forget_obj: models.Objective
    reference: metrics.EvalReport


class DeskUnlearn(Workload):
    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.size = SIZES[scale]
        self.tasks = []
        self.results = {}  # (task index, method) -> (UnlearnRun, RcdReport, EvalReport)

    def _config(self, task, method):
        extra = {"alpha": 0.999} if method == "ieu" else {}
        return unlearning.UnlearnConfig(method=method, eta=ETA, epochs=self.size["unlearn_epochs"],
                                        seed=task.seed, **extra)

    def setup_steps(self):
        self.tasks = [None] * self.size["data_seeds"]
        return [partial(self._set_up_task, i) for i in range(len(self.tasks))]

    def _set_up_task(self, index):
        size, seed = self.size, 100 * self.seed + index
        blobs = datasets.gen_blobs(size["n_per_class"], size["classes"], size["features"],
                                   separation=3.0, noise_sd=2.0, seed=seed)
        data = datasets.split_random(blobs, 0.3, seed + 1000)
        spec = models.mlp_spec([size["features"], *size["hidden"], size["classes"]])
        tcfg = training.OptimizerConfig(kind="adam", eta=0.01, max_epochs=size["train_epochs"],
                                        grad_norm_tol=1e-6)
        theta0 = numcore.kaiming_sample(spec.param_count, numcore.derive_stream(seed, 51))
        trace = training.train(datasets.split_objective(data, spec, "train"), theta0, tcfg,
                               numcore.derive_stream(seed, 52))
        original = checkpoints.Checkpoint("original", spec, tcfg.to_dict(), seed, trace.theta)
        retrain = training.retrain_oracle(data, spec, tcfg, seed)
        forget_ckpt, phi_ref = training.forget_oracle(data, spec, tcfg, seed)
        self.tasks[index] = Task(
            seed=seed, data=data, spec=spec, original=original, retrain=retrain,
            forget_theta=forget_ckpt.theta, phi_ref=phi_ref[PHI],
            forget_obj=datasets.split_objective(data, spec, "forget"),
            reference=metrics.eval_report(retrain, data))

    def operations(self):
        return [(f"{method}/seed{task.seed}", partial(self._unlearn_audit, i, method))
                for i, task in enumerate(self.tasks) for method in METHODS]

    def _audit(self, task, theta):
        return metrics.rcd(theta, task.forget_obj, task.phi_ref, self.size["relearn_epochs"],
                           RELEARN, PHI, numcore.derive_stream(task.seed, 53), attach_bound=False)

    def _unlearn_audit(self, index, method):
        task = self.tasks[index]
        cfg = self._config(task, method)
        run = unlearning.unlearn(task.original, task.data, cfg)
        report = self._audit(task, run.theta)
        ckpt = checkpoints.Checkpoint("unlearned", task.spec, cfg.to_dict(), task.seed, run.theta)
        self.results[(index, method)] = (run, report,
                                         metrics.eval_report(ckpt, task.data, task.reference))

    def check(self):
        failures = []
        mean_rcd = {"retrain": 0.0, "rl": 0.0, "ft": 0.0}
        for index, task in enumerate(self.tasks):
            failures += self._check_task(index, task)
            mean_rcd["retrain"] += self._audit(task, task.retrain.theta).rcd_value / len(self.tasks)
            for method in ("rl", "ft"):
                mean_rcd[method] += self.results[(index, method)][1].rcd_value / len(self.tasks)
        # a statistical property of the method at desk scale; tiny sizes do not show it
        if self.scale == "full" and not mean_rcd["retrain"] > mean_rcd["rl"] > mean_rcd["ft"]:
            failures.append(f"mean delay does not order retrain > rl > ft: {mean_rcd}")
        return failures

    def _check_task(self, index, task):
        failures = []
        data, dims = task.data, task.spec.layer_dims
        views = {which: (data.features[data.indices(which)], data.labels[data.indices(which)])
                 for which in ("train", "retain", "forget", "test")}

        def harness_accuracy(theta, which):
            X, y = views[which]
            return ref.accuracy(ref.mlp_logits(dims, theta, X)[0], y)

        def harness_loss(theta, which):
            return ref.mlp_loss(dims, theta, *views[which])

        if task.phi_ref != 1.0 - harness_accuracy(task.forget_theta, "forget"):
            failures.append(f"seed {task.seed}: forget-oracle phi_ref {task.phi_ref} disagrees")
        for method in METHODS:
            run, report, evaluation = self.results[(index, method)]
            where = f"seed {task.seed} {method}"
            for which in ("retain", "forget", "test"):
                if evaluation.accuracies[which] != harness_accuracy(run.theta, which):
                    failures.append(f"{where}: eval accuracy on {which} disagrees")
            last = run.trace[-1]
            for which, loss, acc in (("retain", last.retain_loss, last.retain_acc),
                                     ("forget", last.forget_loss, last.forget_acc)):
                if not np.isclose(loss, harness_loss(run.theta, which), rtol=1e-10, atol=0.0):
                    failures.append(f"{where}: trace {which} loss disagrees")
                if acc != harness_accuracy(run.theta, which):
                    failures.append(f"{where}: trace {which} accuracy disagrees")
            e0 = 1.0 - harness_accuracy(run.theta, "forget") - task.phi_ref
            if abs(report.errors[0] - e0) > 1e-12:
                failures.append(f"{where}: errors[0] {report.errors[0]} != {e0}")
            if not np.isclose(report.rcd_value, report.errors.sum(), rtol=1e-12, atol=1e-12):
                failures.append(f"{where}: rcd_value is not the sum of its errors")

        theta = task.original.theta
        gradient = datasets.split_objective(data, task.spec, "train").gradient(theta)
        coords = np.random.default_rng(task.seed).choice(theta.size, self.size["fd_coords"],
                                                         replace=False)
        checked, worst = ref.gradient_fd_errors(dims, theta, *views["train"], gradient, coords)
        if checked < len(coords) // 2 or worst > 1.0:
            failures.append(f"seed {task.seed}: gradient vs finite differences: "
                            f"{checked} coordinates checked, worst scaled error {worst:.3g}")

        limit = unlearning.unlearn(task.original, data, unlearning.UnlearnConfig(
            method="ieu", alpha=1.0, c=0.0, eta=ETA, epochs=self.size["unlearn_epochs"],
            seed=task.seed))
        if not np.array_equal(limit.theta, self.results[(index, "ft")][0].theta):
            failures.append(f"seed {task.seed}: ft is not bitwise the alpha=1, c=0 update")
        return failures
