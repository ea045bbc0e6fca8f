"""Optimizers and training loops, plus the retrain / forget-oracle
reference models.

Four update rules are provided: fixed-step gradient descent, gradient
descent with the adaptive step eta/lambda_max re-estimated each epoch,
minibatch SGD with a seeded epoch shuffle, and Adam. Convergence is
declared when the full-batch gradient norm drops below ``grad_norm_tol``;
the finite criterion is recorded in every checkpoint because downstream
metrics treat these models as converged references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoints import Checkpoint
from .datasets import SplitDataset, split_objective
from .models import ModelSpec, Objective
from .numcore import RngStream, derive_stream, jsonable, kaiming_sample, write_csv
from .spectral import lambda_max

__all__ = [
    "OptimizerConfig",
    "EpochRecord",
    "TrainTrace",
    "DivergenceError",
    "train",
    "retrain_oracle",
    "forget_oracle",
    "trace_to_csv",
]

DIVERGENCE_FACTOR = 1e6
# Adam's moment decay rates and denominator guard (Kingma and Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# stream ids reserved for oracle runs
_STREAM_ORACLE_INIT = 201
_STREAM_ORACLE_TRAIN = 202


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "gd_fixed"  # gd_fixed | gd_adaptive | sgd | adam
    eta: float = 0.1
    batch_size: int | str = "full"
    max_epochs: int = 100
    grad_norm_tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("gd_fixed", "gd_adaptive", "sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        bs = self.batch_size
        if bs != "full" and not (isinstance(bs, (int, np.integer)) and bs >= 1):
            raise ValueError(f"batch_size must be 'full' or an int >= 1, not {bs!r}")
        if bs != "full" and self.kind in ("gd_fixed", "gd_adaptive"):
            raise ValueError(f"batch_size={bs!r} does nothing for kind={self.kind!r}, "
                             "which always steps on the full batch; use sgd or adam")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")

    def to_dict(self) -> dict:
        return jsonable(self)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    grad_norm: float
    accuracy: float | None = None
    lambda_max: float | None = None
    eta: float | None = None


@dataclass
class TrainTrace:
    records: list
    theta: np.ndarray
    stop_reason: str  # converged | max_epochs


class _Stepper:
    """Applies one epoch of the configured optimizer; owns any state."""

    def __init__(self, obj: Objective, cfg: OptimizerConfig, rng: RngStream):
        self.obj = obj
        self.cfg = cfg
        self.rng = rng
        self.last_eta = None
        self.last_lambda_max = None
        self._adam_m = None
        self._adam_v = None
        self._adam_t = 0

    def _batches(self):
        n = self.obj.n_examples
        bs = self.cfg.batch_size
        if bs == "full" or bs >= n:  # so always for a quadratic, which has n = 0
            yield self.obj  # the one batch; step_epoch takes its gradient from the point
            return
        order = self.rng.permutation(n)
        for start in range(0, n, bs):
            yield self.obj.subset(order[start : start + bs])

    def step_epoch(self, point) -> np.ndarray:
        """One epoch from ``point``, the objective at the current parameters."""
        cfg, theta = self.cfg, point.theta
        if cfg.kind == "gd_fixed":
            self.last_eta = cfg.eta
            return theta - cfg.eta * point.gradient()
        if cfg.kind == "gd_adaptive":
            lam, _ = lambda_max(self.obj, theta, rng=self.rng)
            if lam <= 0:
                raise DivergenceError("adaptive step-size needs a positive lambda_max")
            self.last_lambda_max = lam
            self.last_eta = cfg.eta / lam
            return theta - self.last_eta * point.gradient()
        if cfg.kind == "sgd":
            self.last_eta = cfg.eta
            for batch in self._batches():
                g = point.gradient() if batch is self.obj else batch.gradient(theta)
                theta = theta - cfg.eta * g
            return theta
        # adam
        if self._adam_m is None:
            self._adam_m = np.zeros_like(theta)
            self._adam_v = np.zeros_like(theta)
        self.last_eta = cfg.eta
        for batch in self._batches():
            g = point.gradient() if batch is self.obj else batch.gradient(theta)
            self._adam_t += 1
            self._adam_m = ADAM_BETA1 * self._adam_m + (1 - ADAM_BETA1) * g
            self._adam_v = ADAM_BETA2 * self._adam_v + (1 - ADAM_BETA2) * g * g
            mhat = self._adam_m / (1 - ADAM_BETA1 ** self._adam_t)
            vhat = self._adam_v / (1 - ADAM_BETA2 ** self._adam_t)
            theta = theta - cfg.eta * mhat / (np.sqrt(vhat) + ADAM_EPS)
        return theta


def train(obj: Objective, theta0: np.ndarray, cfg: OptimizerConfig, rng: RngStream) -> TrainTrace:
    """Run the configured optimizer until the gradient norm drops below
    tolerance or the epoch budget runs out. Deterministic given
    ``(theta0, cfg, rng)``."""
    theta = np.array(theta0, dtype=np.float64)
    stepper = _Stepper(obj, cfg, rng)
    records = []
    initial_loss = None
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs + 1):
        point = obj.evaluate(theta)
        loss = point.loss
        if initial_loss is None:
            initial_loss = loss
        if not np.isfinite(loss) or abs(loss) > DIVERGENCE_FACTOR * max(abs(initial_loss), 1e-300):
            raise DivergenceError(f"loss {loss} diverged at epoch {epoch}")
        gn = float(np.linalg.norm(point.gradient()))
        acc = point.accuracy if obj.spec.is_classifier else None
        records.append(EpochRecord(epoch=epoch, loss=loss, grad_norm=gn, accuracy=acc,
                                   lambda_max=stepper.last_lambda_max, eta=stepper.last_eta))
        if gn <= cfg.grad_norm_tol:
            stop_reason = "converged"
            break
        if epoch == cfg.max_epochs:
            break
        theta = stepper.step_epoch(point)
    return TrainTrace(records=records, theta=theta, stop_reason=stop_reason)


def _train_oracle(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig, seed: int,
                  which: str, role: str, extra) -> Checkpoint:
    """A fresh Kaiming init trained on split ``which`` alone; ``extra(last)``
    adds the entries read off the last epoch record, which is evaluated at
    the returned theta, to its stop reason."""
    trace = train(split_objective(data, spec, which),
                  kaiming_sample(spec.param_count, derive_stream(seed, _STREAM_ORACLE_INIT)),
                  cfg, derive_stream(seed, _STREAM_ORACLE_TRAIN))
    return Checkpoint(role=role, spec=spec, config=cfg.to_dict(), root_seed=seed,
                      theta=trace.theta,
                      extra={"stop_reason": trace.stop_reason, **extra(trace.records[-1])})


def retrain_oracle(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig,
                   seed: int) -> Checkpoint:
    """Exact-unlearning reference: fresh Kaiming init trained on the retain
    set only."""
    return _train_oracle(data, spec, cfg, seed, "retain", "retrain",
                         lambda last: {"epochs_run": last.epoch})


def forget_oracle(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig, seed: int):
    """Model trained to convergence on the forget set alone, plus the
    reference error value for each supported error-evaluation kind.

    The reference values depend only on (forget set, spec, cfg, seed), never
    on the model under audit. This function trains the oracle on every call;
    the CLI's ``rcd`` caches it under ``<runs-root>/oracles/``."""
    ckpt = _train_oracle(data, spec, cfg, seed, "forget", "forget_oracle", lambda last: {
        "phi_ref": {"loss": last.loss, "one_minus_accuracy": 1.0 - last.accuracy}})
    return ckpt, ckpt.extra["phi_ref"]


def trace_to_csv(trace: TrainTrace, path) -> None:
    write_csv(path, ["epoch", "loss", "acc", "grad_norm", "lambda_max", "eta"],
              ([r.epoch, r.loss, r.accuracy, r.grad_norm, r.lambda_max, r.eta]
               for r in trace.records))
