"""Optimizers and training loops, plus the retrain / forget-oracle
reference models.

Four update rules are provided: fixed-step gradient descent, gradient
descent with the adaptive step eta/lambda_max (re-estimated each epoch, or
estimated once per run when the Hessian does not depend on the
parameters), minibatch SGD with a seeded epoch shuffle, and Adam. One
descent driver yields the objective evaluated at the start and after each
epoch of the configured rule; ``train`` and the relearning of
``metrics.rcd`` both read their points from it, so they walk one
trajectory. ``train`` declares convergence when the full-batch gradient
norm drops below ``grad_norm_tol``; the finite criterion is recorded in
every checkpoint because downstream metrics treat these models as
converged references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoints import Checkpoint
from .datasets import SplitDataset, split_objective
from .models import ModelSpec, Objective
from .numcore import (check_field_types, derive_stream, is_int, jsonable, kaiming_sample, norm,
                      write_csv)
from . import spectral

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

OPTIMIZER_KINDS = ("gd_fixed", "gd_adaptive", "sgd", "adam")
PHI_KINDS = ("loss", "one_minus_accuracy")
DIVERGENCE_FACTOR = 1e6
# Adam's moment decay rates and denominator guard (Kingma and Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# stream ids reserved for oracle runs: the init's, then the training's
_STREAMS_ORACLE = (201, 202)


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "gd_fixed"  # one of OPTIMIZER_KINDS
    eta: float = 0.1
    batch_size: int | str = "full"
    max_epochs: int = 100
    grad_norm_tol: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.grad_norm_tol < 0:
            raise ValueError("grad_norm_tol must be >= 0")
        bs = self.batch_size
        if bs != "full" and not (is_int(bs) and bs >= 1):
            raise ValueError(f"batch_size must be 'full' or an int >= 1, not {bs!r}")
        if bs != "full" and self.kind in ("gd_fixed", "gd_adaptive"):
            raise ValueError(f"batch_size={bs!r} does nothing for kind={self.kind!r}, "
                             "which always steps on the full batch; use sgd or adam")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")

    def to_dict(self) -> dict:
        return jsonable(self)


# every forget oracle's recipe, whatever model is audited, so one forget set, spec and seed
# give one phi_ref; it is in the CLI's oracle cache key, so changing it retrains the cache
FORGET_ORACLE_CONFIG = OptimizerConfig(kind="adam", eta=0.01, max_epochs=200)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    grad_norm: float
    accuracy: float | None
    lambda_max: float | None
    eta: float | None


@dataclass
class TrainTrace:
    records: list
    theta: np.ndarray
    stop_reason: str  # converged | max_epochs


def _phi(phi_kind: str):
    """The error for ``phi_kind`` of an evaluated point or an epoch record."""
    if phi_kind == "loss":
        return lambda point: point.loss
    if phi_kind == "one_minus_accuracy":
        return lambda point: 1.0 - point.accuracy
    raise ValueError(f"unknown phi kind {phi_kind!r}; use one of {PHI_KINDS}")


def _descend(obj: Objective, theta0: np.ndarray, cfg: OptimizerConfig, rng: np.random.Generator):
    """Yield ``(point, eta, lambda_max)`` without end: ``obj`` evaluated at
    ``theta0`` (with ``eta`` and ``lambda_max`` None), then at the parameters
    after each epoch of ``cfg``'s rule, with the step size and the
    ``gd_adaptive`` curvature that epoch used. An epoch is taken only when
    the next point is asked for, so a caller that stops draws no more.

    ``gd_adaptive`` runs Lanczos at the point each epoch starts from, or
    only at the first on a quadratic, whose Hessian diag(spectrum) and so
    lambda_max are the same at every theta. So on a quadratic ``rng`` gives
    one Lanczos start vector per run, not one per epoch, and a later draw
    from it (``rcd``'s bound) sees the stream in that state."""
    n, bs = obj.n_examples, cfg.batch_size
    full_batch = bs == "full" or bs >= n  # so always for a quadratic, which has n = 0
    point, eta, lam = obj.evaluate(np.array(theta0, dtype=np.float64)), None, None
    m, v, t = 0.0, 0.0, 0  # Adam's moments and step count
    while True:
        yield point, eta, lam
        theta, eta = point.theta, cfg.eta
        if cfg.kind == "gd_adaptive":
            if lam is None or obj.spec.kind != "quadratic":
                lam = spectral._lanczos(point, rng).largest_magnitude
                if lam <= 0:
                    raise DivergenceError("adaptive step-size needs a positive lambda_max")
            eta = cfg.eta / lam
        if full_batch:
            batches = (None,)  # the one batch; its gradient comes from the point
        else:
            order = rng.permutation(n)
            X, y = obj.X[order], obj.y[order]  # one shuffled copy; batches are row slices of it
            batches = (Objective(obj.spec, X[start : start + bs], y[start : start + bs])
                       for start in range(0, n, bs))
        for batch in batches:
            g = point.gradient() if batch is None else batch.gradient(theta)
            if cfg.kind != "adam":
                theta = theta - eta * g
            else:
                t += 1
                m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
                v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
                mhat = m / (1 - ADAM_BETA1 ** t)
                vhat = v / (1 - ADAM_BETA2 ** t)
                theta = theta - eta * mhat / (np.sqrt(vhat) + ADAM_EPS)
        point = obj.evaluate(theta)


def train(obj: Objective, theta0: np.ndarray, cfg: OptimizerConfig,
          rng: np.random.Generator) -> TrainTrace:
    """Run the configured optimizer until the gradient norm drops below
    tolerance or the epoch budget runs out. Deterministic given
    ``(theta0, cfg, rng)``."""
    records = []
    stop_reason = "max_epochs"
    classifier = obj.spec.is_classifier
    for epoch, (point, eta, lam) in zip(range(cfg.max_epochs + 1),
                                        _descend(obj, theta0, cfg, rng)):
        loss = point.loss
        if epoch == 0:
            limit = DIVERGENCE_FACTOR * max(abs(loss), 1e-300)
        if not math.isfinite(loss) or abs(loss) > limit:
            raise DivergenceError(f"loss {loss} diverged at epoch {epoch}")
        gn = norm(point.gradient())
        acc = point.accuracy if classifier else None
        records.append(EpochRecord(epoch=epoch, loss=loss, grad_norm=gn, accuracy=acc,
                                   lambda_max=lam, eta=eta))
        if gn <= cfg.grad_norm_tol:
            stop_reason = "converged"
            break
    return TrainTrace(records=records, theta=point.theta, stop_reason=stop_reason)


def _fit(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig, seed: int, which: str,
         streams: tuple) -> tuple[Checkpoint, TrainTrace]:
    """``(checkpoint, trace)`` of a Kaiming init from stream ``(seed, streams[0])`` trained
    on split ``which`` alone with stream ``(seed, streams[1])``. The checkpoint's role
    follows from the split, and it records the run's stop reason."""
    trace = train(split_objective(data, spec, which),
                  kaiming_sample(spec.param_count, derive_stream(seed, streams[0])),
                  cfg, derive_stream(seed, streams[1]))
    role = {"train": "original", "retain": "retrain", "forget": "forget_oracle"}[which]
    return Checkpoint(role=role, spec=spec, config=cfg.to_dict(), root_seed=seed,
                      theta=trace.theta, extra={"stop_reason": trace.stop_reason}), trace


def retrain_oracle(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig,
                   seed: int) -> Checkpoint:
    """Exact-unlearning reference: fresh Kaiming init trained on the retain
    set only."""
    ckpt, trace = _fit(data, spec, cfg, seed, "retain", _STREAMS_ORACLE)
    ckpt.extra["epochs_run"] = trace.records[-1].epoch
    return ckpt


def forget_oracle(data: SplitDataset, spec: ModelSpec, cfg: OptimizerConfig, seed: int):
    """Model trained on the forget set alone, plus the reference error value
    for each supported error-evaluation kind, read off the last epoch.

    The reference values depend only on (forget set, spec, cfg, seed), never
    on the model under audit. This function trains the oracle on every call;
    every delay the lab computes passes ``FORGET_ORACLE_CONFIG``: the CLI's
    ``rcd``, which caches the oracle under ``<runs-root>/oracles/``, and
    ``verify.desk_scale_comparison``."""
    ckpt, trace = _fit(data, spec, cfg, seed, "forget", _STREAMS_ORACLE)
    ckpt.extra["phi_ref"] = phi_ref = {kind: _phi(kind)(trace.records[-1]) for kind in PHI_KINDS}
    return ckpt, phi_ref


def trace_to_csv(trace: TrainTrace, path) -> None:
    write_csv(path, ["epoch", "loss", "acc", "grad_norm", "lambda_max", "eta"],
              ([r.epoch, r.loss, r.accuracy, r.grad_norm, r.lambda_max, r.eta]
               for r in trace.records))
