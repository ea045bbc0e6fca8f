"""Influence-eliminating unlearning and its baselines.

The core update per iteration is

    theta_t = alpha * theta_{t-1} + (1 - alpha) * theta_init
              - eta * grad_retain + c * eta * grad_forget

with a *fresh* Kaiming draw for ``theta_init`` every iteration. Fine-tuning
is exactly the ``alpha=1, c=0`` limit, and the iterative re-initialization
process is the ``eta=0`` limit.

Baselines: random labeling (resample forget labels each epoch), a
distillation-style scrub (maximize forget-set KL from the original model
for the first few epochs, regularize toward it on the retain set
throughout), and a saliency-masked variant of random labeling.

Every method, ``ieu`` and ``ft`` included, is an update rule of one epoch
loop, run as ``unlearn(ckpt, data, UnlearnConfig(method=...))``. A rule
steps on the retain and forget points the loop has already evaluated; the
loop owns the evaluations and the finiteness check, and ``unlearn`` (the
timer and the trace rows) and ``retain_bound_monitor`` (the retain-loss
audit) read its points. The baselines' start-up (scrub's teacher, salun's
mask) reads the loop's points at the input checkpoint, so no method
evaluates a point the loop has.

Stabilization: the forget gradient is norm-clipped at ``CLIP_RATIO`` times
the retain gradient before the ascent term is applied; activations of the
clip are recorded in the trace. The stationary per-coordinate variance of
the re-initialization process alone is ``(1-alpha)/(1+alpha) * (2/d)``,
not ``2/d``; see the README discussion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .checkpoints import Checkpoint
from .datasets import SplitDataset, split_objective
from .models import Objective
from .numcore import (derive_stream, kaiming_sample, kaiming_scale, check_finite,
                      check_field_types, is_int, is_real, jsonable, norm)

__all__ = [
    "UnlearnConfig",
    "UnlearnRun",
    "irp_run",
    "unlearn",
    "RetainBoundReport",
    "retain_bound_monitor",
]

_STREAM_UNLEARN = 301

CLIP_RATIO = 10.0  # the forget gradient's norm is clipped at this multiple of the retain one
SCRUB_ASCENT_EPOCHS = 2  # scrub ascends the forget KL for this many first epochs

# the methods that read each setting beyond eta, epochs and seed; for any
# other method a value away from the default would silently do nothing (ft
# is the alpha=1, c=0 limit of ieu, so it reads none of the ieu settings)
_READ_BY = {"alpha": ("ieu",), "c": ("ieu",), "salun_fraction": ("salun",)}


@dataclass(frozen=True)
class UnlearnConfig:
    method: str = "ieu"
    alpha: float = 1.0  # noisy ratio; 1 disables re-initialization noise
    c: float = 0.0  # forgetting-set ascent weight
    eta: float = 0.01
    epochs: int = 10
    seed: int = 0
    salun_fraction: float = 0.5  # top fraction of coordinates by |grad_f|

    def __post_init__(self):
        check_field_types(self)
        if self.method not in METHODS:
            raise ValueError(f"unknown unlearning method {self.method!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("c must lie in [0, 1]")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 < self.salun_fraction <= 1.0:
            raise ValueError("salun saliency fraction must lie in (0, 1]")
        ignored = [f.name for f in fields(self) if f.name in _READ_BY
                   and self.method not in _READ_BY[f.name] and getattr(self, f.name) != f.default]
        if ignored:
            raise ValueError(f"method {self.method!r} does not read {', '.join(ignored)}; "
                             "leave each at its default")

    def to_dict(self) -> dict:
        return jsonable(self)


@dataclass
class EpochRow:
    epoch: int
    retain_loss: float
    forget_loss: float
    retain_acc: float
    forget_acc: float
    clip_active: bool
    forget_kl: float | None  # scrub only


@dataclass
class UnlearnRun:
    trace: list
    theta: np.ndarray
    wall_clock: float


def _unlearn_points(retain_obj: Objective, forget_obj: Objective, theta0: np.ndarray,
                    cfg: UnlearnConfig):
    """Yield ``(retain, forget, fields)``: the two objectives evaluated at
    ``theta0`` (with ``fields`` empty), then after each of ``cfg.epochs``
    epochs, with the extra ``EpochRow`` fields of that epoch. The method's
    rule ``_RULES[cfg.method](cfg, rng, retain0, forget0)`` gets the points
    at ``theta0`` and returns ``step(epoch, theta, retain, forget)``, which
    steps on the points of the previous yield and returns the new parameters
    and the fields. No step is taken after the last point. The first epoch
    that ends at non-finite parameters, or at a non-finite retain or forget
    loss, raises a ``FloatingPointError`` naming it as the trace numbers it."""
    theta = np.array(theta0, dtype=np.float64)
    retain, forget, extra = retain_obj.evaluate(theta), forget_obj.evaluate(theta), {}
    step = _RULES[cfg.method](cfg, derive_stream(cfg.seed, _STREAM_UNLEARN), retain, forget)
    for epoch in range(cfg.epochs):
        yield retain, forget, extra
        theta, extra = step(epoch, theta, retain, forget)
        check_finite(theta, f"the unlearned parameters at epoch {epoch}")
        retain, forget = retain_obj.evaluate(theta), forget_obj.evaluate(theta)
        if not (math.isfinite(retain.loss) and math.isfinite(forget.loss)):
            raise FloatingPointError(f"unlearning diverged at epoch {epoch}: retain loss "
                                     f"{retain.loss}, forget loss {forget.loss}")
    yield retain, forget, extra


def irp_run(theta: np.ndarray, alpha: float, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Iterative re-initialization trajectory, shape (steps + 1, d): row t + 1
    is ``alpha * row_t + (1 - alpha) * xi`` with xi a fresh Normal(0, 2/d)
    draw. One ``standard_normal`` call draws the z of every row, the numbers
    and end state of one ``kaiming_sample`` per row; each is scaled in place
    to ``(1 - alpha) * (0.0 + sqrt(2/d) * z)``, as ``normal`` adds its loc
    0.0, which turns a -0.0 draw into +0.0. Then ``alpha * row_t`` is added."""
    if not is_int(steps):
        raise ValueError(f"steps must be an integer, not {steps!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (is_real(alpha) and 0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], not {alpha!r}")
    if np.ndim(theta) != 1:
        raise ValueError(f"theta must be a 1-D parameter vector, not of shape {np.shape(theta)}")
    traj = np.empty((steps + 1, theta.size))
    traj[0] = theta
    noise = rng.standard_normal(out=traj[1:])
    noise *= kaiming_scale(theta.size)
    noise += 0.0
    noise *= 1.0 - alpha
    for prev, row in zip(traj, noise):
        row += alpha * prev
    return traj


# ---------------------------------------------------------------------------
# update rules: rule(cfg, rng, retain0, forget0) -> step(epoch, theta, retain, forget)


def _ieu_rule(cfg: UnlearnConfig, rng: np.random.Generator, retain0, forget0):
    """The influence-eliminating update. It draws a fresh init every epoch,
    at alpha = 1 too, so ``ft`` (alpha = 1, c = 0) walks ieu's trajectory,
    and clips the forget gradient at ``CLIP_RATIO`` times the retain
    gradient's norm before the ascent term. At c = 0 there is no ascent
    term, so the forget gradient is never taken."""
    alpha, c, eta = cfg.alpha, cfg.c, cfg.eta

    def step(epoch, theta, retain, forget):
        grad_r = retain.gradient
        check_finite(grad_r, "retain gradient")
        clipped = False
        theta_init = kaiming_sample(theta.size, rng)
        theta = alpha * theta + (1.0 - alpha) * theta_init - eta * grad_r
        if c > 0:
            grad_f = forget.gradient
            check_finite(grad_f, "forget gradient")
            gr, gf = norm(grad_r), norm(grad_f)
            if gr > 0 and gf > CLIP_RATIO * gr:
                grad_f, clipped = grad_f * (CLIP_RATIO * gr / gf), True
            theta = theta + c * eta * grad_f
        return theta, {"clip_active": clipped}

    return step


def _relabel_rule(cfg: UnlearnConfig, rng: np.random.Generator, retain0, forget0):
    """Random labeling: descend the retain set plus the forget set with its
    labels resampled uniformly over the other C-1 classes each epoch; salun
    restricts the update to the coordinates salient at the start."""
    mask = _saliency_mask(forget0, cfg.salun_fraction) if cfg.method == "salun" else None
    C = forget0.obj.spec.layer_dims[-1]
    y_f = forget0.obj.y
    n = len(retain0.obj.y) + len(y_f)

    def step(epoch, theta, retain, forget):
        fake = (y_f + 1 + rng.integers(C - 1, size=len(y_f))) % C
        # the mean cross-entropy over all n rows, split into its two sums
        grad = (retain.backprop(retain.dlogits(retain.obj.y, n))
                + forget.backprop(forget.dlogits(fake, n)))
        update = cfg.eta * grad
        if mask is not None:
            update = update * mask
        return theta - update, {}

    return step


def _saliency_mask(forget, fraction: float) -> np.ndarray:
    """Indicator of the top ``fraction`` of coordinates by the gradient
    magnitude of the forget point; ties resolve by stable index order."""
    saliency = np.abs(forget.gradient)
    k = max(1, int(round(fraction * saliency.size)))
    mask = np.zeros(saliency.size)
    mask[np.argsort(-saliency, kind="stable")[:k]] = 1.0
    return mask


def _scrub_rule(cfg: UnlearnConfig, rng: np.random.Generator, retain0, forget0):
    """Distillation with the input checkpoint as teacher: ascend the forget
    KL for the first ``SCRUB_ASCENT_EPOCHS`` epochs, descend cross-entropy
    plus the retain KL throughout."""
    p_teacher_f, p_teacher_r = forget0.probs, retain0.probs

    def step(epoch, theta, retain, forget):
        if epoch < SCRUB_ASCENT_EPOCHS:
            # ascend KL(teacher || student) on the forget set
            dlog = (forget.probs - p_teacher_f) / len(p_teacher_f)
            theta = theta + cfg.eta * forget.backprop(dlog)
            retain = retain.obj.evaluate(theta)
        # descend cross-entropy + KL(teacher || student) on the retain set
        dlog = retain.delta + (retain.probs - p_teacher_r) / len(p_teacher_r)
        theta = theta - cfg.eta * retain.backprop(dlog)
        return theta, {}

    return step


def _kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    eps = 1e-12
    return float(np.mean(np.sum(p * (np.log(p + eps) - np.log(q + eps)), axis=1)))


_RULES = {"ft": _ieu_rule, "rl": _relabel_rule, "scrub": _scrub_rule, "salun": _relabel_rule,
          "ieu": _ieu_rule}
METHODS = tuple(_RULES)


@dataclass
class RetainBoundReport:
    """Per-step retain-loss gaps against the exponential-plus-constant bound.

    The bound at step t is

        L_max * D * exp(-(mu/beta) t)
        + 2 beta (D (1-alpha)/2 + L_max c / (2 beta) + L_max / beta)^2
        + beta (1-alpha)^2

    with L_max the largest retain-gradient norm and D the largest pairwise
    half-distance over the recorded trajectory. Both constants are
    trajectory-empirical estimates, so the report is an audit of observed
    behaviour, not a certificate.
    """

    gaps: np.ndarray
    bounds: np.ndarray
    grad_norm_max: float
    half_diameter: float
    mu: float
    beta: float
    holds: bool
    worst_slack: float  # max(gap - bound); negative when the bound holds


def retain_bound_monitor(retain_obj: Objective, forget_obj: Objective,
                         theta0: np.ndarray, cfg: UnlearnConfig) -> RetainBoundReport:
    """Run ``ieu`` or its ``ft`` limit on a quadratic retain objective and
    audit the retain-loss gap against its decay bound at every retain point
    the loop evaluated; ``mu`` and ``beta`` are the extreme eigenvalues of
    its spectrum."""
    if cfg.method not in ("ieu", "ft"):
        raise ValueError(f"retain_bound_monitor audits methods 'ieu' and 'ft', "
                         f"not {cfg.method!r}")
    spec = retain_obj.spec
    if spec.kind != "quadratic":
        raise ValueError("mu and beta are only derivable for quadratic objectives")
    mu, beta = float(min(spec.spectrum)), float(max(spec.spectrum))
    points = [retain for retain, _, _ in _unlearn_points(retain_obj, forget_obj, theta0, cfg)]
    thetas = np.array([p.theta for p in points])
    grad_norm_max = max(norm(p.gradient) for p in points)
    sq_dists = np.zeros((len(thetas), len(thetas)))
    for col in thetas.T:  # summed coordinate by coordinate, as scipy's pdist sums
        sq_dists += (col[:, None] - col[None, :]) ** 2
    half_diameter = float(np.sqrt(sq_dists.max()) / 2.0)
    gaps = np.array([p.loss - spec.l_star for p in points])
    ts = np.arange(len(thetas))
    const = (2.0 * beta * (half_diameter * (1.0 - cfg.alpha) / 2.0
                           + grad_norm_max * cfg.c / (2.0 * beta)
                           + grad_norm_max / beta) ** 2
             + beta * (1.0 - cfg.alpha) ** 2)
    bounds = grad_norm_max * half_diameter * np.exp(-(mu / beta) * ts) + const
    slack = gaps - bounds
    return RetainBoundReport(
        gaps=gaps,
        bounds=bounds,
        grad_norm_max=grad_norm_max,
        half_diameter=half_diameter,
        mu=mu,
        beta=beta,
        holds=bool(np.all(slack <= 0.0)),
        worst_slack=float(slack.max()),
    )


def unlearn(ckpt: Checkpoint, data: SplitDataset, cfg: UnlearnConfig) -> UnlearnRun:
    """Run ``cfg.method`` from ``ckpt``; the trace has one row per epoch,
    read off the points the epoch ends at."""
    retain_obj = split_objective(data, ckpt.spec, "retain")
    forget_obj = split_objective(data, ckpt.spec, "forget")
    start = time.perf_counter()
    points = _unlearn_points(retain_obj, forget_obj, ckpt.theta, cfg)
    retain, teacher, _ = next(points)  # scrub's teacher: the forget point at the checkpoint
    trace = []
    for epoch, (retain, forget, extra) in enumerate(points):
        trace.append(EpochRow(
            epoch=epoch, retain_loss=retain.loss, forget_loss=forget.loss,
            retain_acc=retain.accuracy, forget_acc=forget.accuracy,
            clip_active=extra.get("clip_active", False),
            forget_kl=_kl_divergence(teacher.probs, forget.probs)
            if cfg.method == "scrub" else None))
    return UnlearnRun(trace=trace, theta=retain.theta, wall_clock=time.perf_counter() - start)
