"""Relearning convergence delay, its curvature-based upper bound, the
loss-threshold membership inference attack, and per-split evaluation
reports.

The delay metric relearns a model on the forgetting set for K epochs and
sums the per-epoch excess error above the forget-oracle reference:

    rcd_value = sum_{t=0}^{K} [ phi(theta_t) - phi_ref ]

with phi either the mean loss or 1 - accuracy. The reference value comes
from a model trained to convergence on the forgetting set alone and is
independent of the model under audit. The curvature bound
``kappa * (loss_0 - loss_ref)`` is attached only for loss-phi reports and
only when the Hessian estimate is consistent with convexity; for
indefinite Hessians the report carries a diagnostic instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import Checkpoint
from .datasets import SplitDataset, split_objective
from .models import Objective
from .numcore import check_finite, is_int, is_real, write_csv
from .spectral import SpectralEstimate, _lanczos, condition_number
from .training import OptimizerConfig, _descend, _phi

__all__ = [
    "RcdReport",
    "EvalReport",
    "MiaResult",
    "rcd",
    "mia_threshold_attack",
    "eval_report",
]

@dataclass
class RcdReport:
    K: int
    phi_kind: str
    step_mode: str
    errors: np.ndarray  # e_t for t = 0..K
    rcd_value: float
    phi_ref: float
    curvature_bound: float | None
    bound_diagnostic: str | None
    spectral: SpectralEstimate | None

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "phi", "e_t", "cumulative"],
                  zip(range(self.K + 1), self.errors + self.phi_ref, self.errors,
                      np.cumsum(self.errors)))


def rcd(theta0: np.ndarray, forget_obj: Objective, phi_ref: float, K: int,
        relearn_cfg: OptimizerConfig, phi_kind: str, rng: np.random.Generator,
        attach_bound: bool = True) -> RcdReport:
    """Relearn on the forgetting set for K epochs and sum the excess error.

    Each of the K epochs is one epoch of ``relearn_cfg``'s rule, the one
    ``train`` runs: ``gd_fixed`` / ``sgd`` for a fixed step, ``gd_adaptive``
    for the eta/lambda_max schedule, ``adam`` for the Adam-labeled variant.
    K sets the epochs and relearning has no stop rule, so
    ``relearn_cfg.max_epochs`` must be 1 and ``grad_norm_tol`` its default.
    A diverged relearning raises a ``FloatingPointError`` naming the epoch.
    The curvature bound bounds the loss, so ``attach_bound`` needs phi ``loss``.
    """
    if not (is_int(K) and K >= 0):
        raise ValueError(f"K must be an integer >= 0, not {K!r}")
    if not is_real(phi_ref):
        raise ValueError(f"phi_ref must be a finite number, not {phi_ref!r}")
    if relearn_cfg.max_epochs != 1:
        raise ValueError("K sets the relearning epochs; relearn_cfg.max_epochs must be 1")
    if relearn_cfg.grad_norm_tol != OptimizerConfig.grad_norm_tol:
        raise ValueError("relearning has no stop rule; "
                         "relearn_cfg.grad_norm_tol must keep its default")
    phi = _phi(phi_kind)
    if phi_kind == "one_minus_accuracy" and not forget_obj.spec.is_classifier:
        raise ValueError(f"phi kind {phi_kind!r} needs an accuracy, which a "
                         f"{forget_obj.spec.kind!r} model does not have")
    if attach_bound and phi_kind != "loss":
        raise ValueError("the curvature bound is on the loss; attach_bound needs phi 'loss'")
    errors = np.empty(K + 1)
    descent = _descend(forget_obj, theta0, relearn_cfg, rng)
    for t in range(K + 1):  # K + 1 points, so K epochs and no more draws from rng
        point = next(descent)[0]
        errors[t] = e = phi(point) - phi_ref
        if not math.isfinite(e):
            raise FloatingPointError(f"non-finite relearning error at epoch {t}: phi={phi(point)}")
        if phi_kind != "loss":  # a NaN logit still has an argmax, so the accuracy stays finite
            check_finite(point.logits, f"the relearned logits at epoch {t}")
        if t == 0:
            point0 = point
    bound = diag = est = None
    if attach_bound:  # kappa at theta0 times the loss gap there
        est = _lanczos(point0, rng)
        if est.kappa is None:
            diag = condition_number(est)
        else:
            bound = float(est.kappa * errors[0])
    step_mode = relearn_cfg.kind if relearn_cfg.kind != "gd_adaptive" else "adaptive_inv_lambda_max"
    return RcdReport(K=K, phi_kind=phi_kind, step_mode=step_mode, errors=errors,
                     rcd_value=float(errors.sum()), phi_ref=phi_ref, curvature_bound=bound,
                     bound_diagnostic=diag, spectral=est)


# ---------------------------------------------------------------------------
# membership inference


@dataclass
class MiaResult:
    threshold: float
    balanced_accuracy: float
    forget_member_rate: float


def mia_threshold_attack(member_losses: np.ndarray, nonmember_losses: np.ndarray,
                         audit_losses: np.ndarray) -> MiaResult:
    """Loss-threshold attack: pick the threshold maximizing balanced
    accuracy at separating members from non-members (rule: member iff loss
    <= threshold), then report the audited examples' member rate.

    Candidate thresholds are the midpoints of the sorted pooled losses plus
    both extremes; ties in balanced accuracy resolve to the smallest
    threshold. Each candidate's member and non-member counts come from a
    binary search in the sorted losses, so the sweep is O(n log n).
    """
    for view, losses in (("member", member_losses), ("non-member", nonmember_losses),
                         ("audit", audit_losses)):
        if len(losses) == 0 or not np.isfinite(losses).all():
            raise ValueError(f"the {view} losses must be non-empty and finite")
    members, nonmembers = np.sort(member_losses), np.sort(nonmember_losses)
    pooled = np.sort(np.concatenate([members, nonmembers]))
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    candidates = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    m, nm = len(members), len(nonmembers)
    tpr = np.searchsorted(members, candidates, side="right") / m  # share with loss <= tau
    tnr = (nm - np.searchsorted(nonmembers, candidates, side="right")) / nm
    acc = 0.5 * (tpr + tnr)
    best = np.argmax(acc)  # the first maximum: the smallest threshold among ties
    return MiaResult(
        threshold=float(candidates[best]),
        balanced_accuracy=float(acc[best]),
        forget_member_rate=float(np.mean(audit_losses <= candidates[best])),
    )


# ---------------------------------------------------------------------------
# evaluation reports


@dataclass
class EvalReport:
    accuracies: dict  # split name -> accuracy
    mia_rate: float
    gaps: dict = field(default_factory=dict)  # metric -> |this - reference|
    avg_gap: float | None = None

    def metrics(self) -> dict:
        out = dict(self.accuracies)
        out["mia"] = self.mia_rate
        return out

    @staticmethod
    def from_dict(d) -> "EvalReport":
        """The report in ``d``; a ``ValueError`` names what an eval report
        needs and ``d`` lacks, or the key whose value is no ``is_real`` number:
        each accuracy and ``avg_gap`` one or null, ``mia_rate`` and each gap one."""
        if not isinstance(d, dict):
            raise ValueError(f"an eval report is a JSON object, not {type(d).__name__}")
        for key in ("accuracies", "mia_rate"):
            if key not in d:
                raise ValueError(f"not an eval report: no key {key!r}")
        for key in ("accuracies", "gaps"):
            if not isinstance(d.get(key, {}), dict):
                raise ValueError(f"eval report {key!r} must be a JSON object")
        for key, value in [*((f"accuracies[{k!r}]", v) for k, v in d["accuracies"].items()),
                           ("avg_gap", d.get("avg_gap"))]:
            if value is not None and not is_real(value):
                raise ValueError(f"eval report {key} must be a number or null, not {value!r}")
        for key, value in [("mia_rate", d["mia_rate"]),
                           *((f"gaps[{k!r}]", v) for k, v in d.get("gaps", {}).items())]:
            if not is_real(value):
                raise ValueError(f"eval report {key} must be a number, not {value!r}")
        return EvalReport(accuracies=d["accuracies"], mia_rate=d["mia_rate"],
                          gaps=d.get("gaps", {}), avg_gap=d.get("avg_gap"))


def eval_report(ckpt: Checkpoint, data: SplitDataset,
                reference: EvalReport | None = None) -> EvalReport:
    """Per-split accuracies plus the membership-inference rate; when a
    retrain reference is given, absolute per-metric gaps and their mean."""
    splits = ["retain", "forget", "test"]
    if data.forgotten_classes:
        splits += ["test_retain", "test_forget"]
    accs, losses = {}, {}
    for which in splits:
        if len(data.indices(which)) == 0:
            accs[which] = None  # empty split half
            continue
        point = split_objective(data, ckpt.spec, which).evaluate(ckpt.theta)
        accs[which], losses[which] = point.accuracy, point.per_example_loss
    # the attack rejects an empty view
    mia = mia_threshold_attack(*(losses.get(w, np.empty(0)) for w in ("retain", "test", "forget")))
    report = EvalReport(accuracies=accs, mia_rate=mia.forget_member_rate)
    if reference is not None:
        mine, ref = report.metrics(), reference.metrics()
        gaps = {
            k: abs(mine[k] - ref[k])
            for k in sorted(mine)
            if mine.get(k) is not None and ref.get(k) is not None
        }
        report.gaps = gaps
        report.avg_gap = float(np.mean(list(gaps.values())))
    return report
