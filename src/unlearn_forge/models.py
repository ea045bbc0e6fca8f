"""Differentiable objectives: quadratic oracle, multinomial logistic
regression, and small MLPs with analytic gradients and exact
Hessian-vector products.

``Objective.evaluate(theta)`` is the one evaluation path: a point, one
class per model kind, runs the forward pass once and serves the loss, the
gradient (at most once), HVPs that reuse its activations and, for the
classifiers, logits, accuracy, per-example losses and logit-space backprop.

Conventions
-----------
* Parameters are flat float64 vectors (see :mod:`unlearn_forge.numcore`).
* Losses are means over the dataset view, so gradients scale like a
  per-example average.
* The quadratic oracle is ``0.5 (theta - theta*)^T diag(spectrum)
  (theta - theta*) + l_star`` with the spectrum sorted non-increasing, so
  its smoothness/strong-convexity constants are ``max(spectrum)`` and
  ``min(spectrum)`` by construction.
* Logistic regression uses the identifiable C-1 parameterization (the last
  class logit is pinned to 0), which removes the softmax gauge direction and
  keeps the Hessian positive definite on generic data.
* An MLP is a ReLU network, with the subgradient convention derivative 0
  at exactly 0, so Hessian-vector products near kinks are deterministic.
  Its ReLU masks are boolean (True where a unit's output is positive) and
  are built from the stored activations when a gradient, backprop or HVP
  first needs them.
* Cross-entropy goes through log-sum-exp with max subtraction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .numcore import check_finite, jsonable

__all__ = [
    "ModelSpec",
    "Objective",
    "quadratic_spec",
    "logistic_spec",
    "mlp_spec",
    "make_quadratic",
    "make_classifier",
]


class _once:
    """A lazily computed attribute: the first read stores the value in the
    instance's ``__dict__``, which later reads find before this descriptor.
    This is ``functools.cached_property`` without the lock Python 3.10 and
    3.11 take on each first read; two threads that race compute the same
    value twice."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; payload fields depend on ``kind``."""

    kind: str  # quadratic | logistic | mlp
    layer_dims: tuple = ()  # classifiers: (p, C) for logistic, (p, h1, ..., C) for mlp
    spectrum: tuple = ()  # quadratic only, non-increasing positive
    theta_star: tuple = ()  # quadratic only
    l_star: float = 0.0  # quadratic only

    @_once
    def param_count(self) -> int:
        if self.kind == "quadratic":
            return len(self.spectrum)
        if self.kind == "logistic":
            p, C = self.layer_dims
            return (p + 1) * (C - 1)
        if self.kind == "mlp":
            dims = self.layer_dims
            return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
        raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def is_classifier(self) -> bool:
        return self.kind != "quadratic"

    @_once
    def _quadratic_arrays(self):
        """``spectrum`` and ``theta_star`` as read-only float64 arrays,
        built once per spec for the quadratic points."""
        arrays = np.array(self.spectrum), np.array(self.theta_star)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @_once
    def _mlp_layout(self):
        """Per layer, the weight's slice of theta, its shape and the bias's
        slice, built once per spec for ``_mlp_unpack``."""
        layout, off = [], 0
        for din, dout in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            end = off + din * dout
            layout.append((slice(off, end), (din, dout), slice(end, end + dout)))
            off = end + dout
        return tuple(layout)

    def to_dict(self) -> dict:
        return jsonable(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        """The spec in ``d``, rebuilt by its kind's factory. A ``ValueError``
        when the factory refuses it or when ``d`` is not the dict of the spec
        it builds."""
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in ("quadratic", "logistic", "mlp"):
            raise ValueError(f"not a model spec of a known kind: {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(ModelSpec)})
        if unknown:
            raise ValueError(f"{kind} spec has keys {unknown} of an older layout; "
                             "retrain the model")
        try:
            if kind == "quadratic":
                spec = quadratic_spec(d["spectrum"], d["theta_star"], d["l_star"])
            elif kind == "logistic":
                spec = logistic_spec(*d["layer_dims"])
            else:
                spec = mlp_spec(d["layer_dims"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"bad {kind} spec {d!r}: {exc!r}") from exc
        if json.dumps(spec.to_dict(), sort_keys=True) != json.dumps(d, sort_keys=True):
            raise ValueError(f"{kind} spec {d!r} is not the spec its factory builds "
                             f"from it, {spec.to_dict()!r}")
        return spec


def quadratic_spec(spectrum, theta_star, l_star: float = 0.0) -> ModelSpec:
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise ValueError("spectrum must be a non-empty 1-D sequence")
    if np.any(spectrum <= 0):
        raise ValueError("spectrum entries must be strictly positive")
    if np.any(np.diff(spectrum) > 0):
        raise ValueError("spectrum must be sorted non-increasing")
    theta_star = np.asarray(theta_star, dtype=np.float64).ravel()
    if theta_star.size != spectrum.size:
        raise ValueError("theta_star length must match spectrum length")
    return ModelSpec(
        kind="quadratic",
        spectrum=tuple(spectrum.tolist()),
        theta_star=tuple(theta_star.tolist()),
        l_star=float(l_star),
    )


def logistic_spec(n_features: int, num_classes: int) -> ModelSpec:
    n_features, num_classes = int(n_features), int(num_classes)
    if num_classes < 2:
        raise ValueError("logistic regression needs num_classes >= 2")
    if n_features < 1:
        raise ValueError("need n_features >= 1")
    return ModelSpec(kind="logistic", layer_dims=(n_features, num_classes))


def mlp_spec(layer_dims) -> ModelSpec:
    """A ReLU network with the sizes ``(p, h1, ..., C)``."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims must list at least input and output sizes, all >= 1")
    if dims[-1] < 2:
        raise ValueError("an MLP classifier needs an output layer of >= 2 classes")
    return ModelSpec(kind="mlp", layer_dims=dims)


# ---------------------------------------------------------------------------
# objective


@dataclass(frozen=True)
class Objective:
    """A pure differentiable map: model + dataset view. The loss follows
    from ``spec.kind``: the quadratic form for the quadratic oracle, mean
    cross-entropy for the classifiers.

    ``evaluate(theta)`` runs the forward pass once and returns the point
    that serves every quantity at ``theta``. Points cache nothing across
    thetas; a logistic objective keeps one thing, its bias-augmented design
    matrix, built on the first evaluation from ``X`` (which must not change
    after it) and shared by every point. Identical inputs always give
    identical outputs, so objectives may be shared across tasks.
    """

    spec: ModelSpec
    X: np.ndarray | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        if self.spec.kind != "quadratic":
            if self.X is None or self.y is None or len(self.X) == 0:
                raise ValueError("empty dataset view")
            if len(self.X) != len(self.y):
                raise ValueError("features/labels length mismatch")

    # -- dataset plumbing ---------------------------------------------------

    @property
    def n_examples(self) -> int:
        return 0 if self.X is None else len(self.X)

    @_once
    def _design(self) -> np.ndarray:
        """``[X, 1]``, logistic regression's bias-augmented design matrix."""
        return np.concatenate([self.X, np.ones((len(self.X), 1))], axis=1)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, theta: np.ndarray) -> "_Point":
        if theta.shape != (self.spec.param_count,):
            raise ValueError(
                f"theta has shape {theta.shape}, model needs ({self.spec.param_count},)"
            )
        return _POINTS[self.spec.kind](self, theta)

    # shortcuts that evaluate once per call (perfbench/tracer.py patches them by name)
    def value(self, theta): return self.evaluate(theta).loss
    def gradient(self, theta): return self.evaluate(theta).gradient()
    def hvp(self, theta, v): return self.evaluate(theta).hvp(v)
    def accuracy(self, theta): return self.evaluate(theta).accuracy
    def per_example_loss(self, theta): return self.evaluate(theta).per_example_loss
    def logits(self, theta): return self.evaluate(theta).logits
    def grad_from_logit_delta(self, theta, dlogits): return self.evaluate(theta).backprop(dlogits)


# ---------------------------------------------------------------------------
# evaluated points: one forward pass each, one class per model kind


class _Point:
    def __init__(self, obj: Objective, theta: np.ndarray):
        self.obj, self.theta = obj, theta

    def gradient(self) -> np.ndarray:
        """The loss gradient, computed at most once per point."""
        return self._gradient

    def hvp(self, v: np.ndarray) -> np.ndarray:
        if v.shape != self.theta.shape:
            raise ValueError("direction vector dimension mismatch")
        return self._hvp(v)


class _QuadraticPoint(_Point):
    def __init__(self, obj, theta):
        super().__init__(obj, theta)
        self.spectrum, theta_star = obj.spec._quadratic_arrays
        r = theta - theta_star
        self._gradient = g = self.spectrum * r
        self.loss = 0.5 * float(g.dot(r)) + obj.spec.l_star

    def _hvp(self, v):
        return self.spectrum * v


class _ClassifierPoint(_Point):
    """Mean cross-entropy; a subclass supplies ``_forward`` and ``backprop``."""

    def __init__(self, obj, theta):
        super().__init__(obj, theta)
        self.logits = self._forward()

    @_once
    def _exp_rows(self):
        """The logits' row max, exp(logits - max) and its row sums, for both
        the log-sum-exp and the softmax."""
        zmax = _row_max(self.logits)
        e = self.logits - zmax
        np.exp(e, out=e)
        return zmax, e, _row_sum(e)

    @_once
    def per_example_loss(self) -> np.ndarray:
        zmax, _, sums = self._exp_rows
        lse = np.log(sums[:, 0]) + zmax[:, 0]
        return lse - self.logits[np.arange(len(lse)), self.obj.y]

    @property
    def loss(self) -> float:
        losses = self.per_example_loss  # the mean, as np.mean takes it: a sum over a count
        return float(losses.sum()) / len(losses)

    @property
    def accuracy(self) -> float:
        pred = self.logits.argmax(axis=1)  # argmax ties break toward lowest index
        return np.count_nonzero(pred == self.obj.y) / len(pred)

    @_once
    def probs(self) -> np.ndarray:
        _, e, sums = self._exp_rows
        return e / sums

    def dlogits(self, labels: np.ndarray, n: int) -> np.ndarray:
        """d(sum of the cross-entropies with ``labels``)/d(logits), over n:
        the softmax minus the one-hot labels."""
        _, e, sums = self._exp_rows
        d = e / sums
        d[np.arange(len(d)), labels] -= 1.0
        d /= n
        return d

    @_once
    def delta(self) -> np.ndarray:
        """d(loss)/d(logits)."""
        return self.dlogits(self.obj.y, len(self.logits))

    @_once
    def _gradient(self):
        return self.backprop(self.delta)


class _LogisticPoint(_ClassifierPoint):
    def _forward(self):
        p, C = self.obj.spec.layer_dims
        self.xt = self.obj._design
        part = self.xt @ self.theta.reshape(p + 1, C - 1)
        return np.concatenate([part, np.zeros((len(part), 1))], axis=1)

    def backprop(self, dlogits):
        return (self.xt.T @ dlogits[:, : self.obj.spec.layer_dims[-1] - 1]).ravel()

    def _hvp(self, v):
        n, cm1 = len(self.xt), self.obj.spec.layer_dims[-1] - 1
        rz = np.concatenate([self.xt @ v.reshape(-1, cm1), np.zeros((n, 1))], axis=1)
        p = self.probs
        rp = p * (rz - _row_sum(p * rz))
        return (self.xt.T @ (rp[:, :cm1] / n)).ravel()


class _MlpPoint(_ClassifierPoint):
    def _forward(self):
        z, self.acts = _mlp_forward(self.obj.spec, self.theta, self.obj.X)
        return z

    @_once
    def masks(self):
        """Each hidden layer's boolean ReLU mask, True where its output is
        positive: exactly where the pre-activation is, as ReLU keeps NaN."""
        return [a > 0 for a in self.acts[1:]]

    def backprop(self, dlogits):
        return _mlp_backward(self.obj.spec, self.theta, self.acts, self.masks, dlogits)

    def _hvp(self, v):
        """Pearlmutter's R-op on the point's activations, ReLU masks and loss
        delta; ReLU's second derivative is 0, so it adds no term."""
        spec, acts, masks = self.obj.spec, self.acts, self.masks
        wb = _mlp_unpack(spec, self.theta)
        vb = _mlp_unpack(spec, v)
        n = len(self.logits)

        # forward tangent pass; rz ends as the logits' tangent
        ras = [np.zeros_like(self.obj.X)]
        for layer, ((W, b), (Vw, Vb)) in enumerate(zip(wb, vb)):
            rz = ras[-1] @ W + acts[layer] @ Vw + Vb
            if layer < len(masks):
                ras.append(rz * masks[layer])

        p, delta = self.probs, self.delta
        rdelta = p * (rz - _row_sum(p * rz)) / n

        # reverse pass carrying both the gradient and its tangent
        out = np.zeros_like(self.theta)
        grads = _mlp_unpack(spec, out)  # views into out
        for layer in reversed(range(len(wb))):
            (W, _), (Vw, _), (gw, gb) = wb[layer], vb[layer], grads[layer]
            gw += ras[layer].T @ delta + acts[layer].T @ rdelta
            gb += rdelta.sum(axis=0)
            if layer > 0:
                rdelta = (rdelta @ W.T + delta @ Vw.T) * masks[layer - 1]
                delta = (delta @ W.T) * masks[layer - 1]
        return out


_POINTS = {"quadratic": _QuadraticPoint, "logistic": _LogisticPoint, "mlp": _MlpPoint}


# ---------------------------------------------------------------------------
# numerics helpers

# Below this many columns the row reductions run one column at a time: numpy
# runs one inner loop per row of a reduction along axis 1, which costs more
# than the arithmetic on a few columns. From 8 columns on numpy sums a row
# in pairwise blocks of 8, so only its own reduction gives its bits.
_COLUMN_LOOP_LIMIT = 8


def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=1, keepdims=True)`` bit for bit, signed zeros included,
    save a NaN's sign and payload: where a row starts with a NaN, numpy
    returns its own canonical NaN and this returns the row's first NaN."""
    if z.shape[1] >= _COLUMN_LOOP_LIMIT:
        return z.max(axis=1, keepdims=True)
    out = z[:, :1].copy()
    for k in range(1, z.shape[1]):
        np.maximum(out, z[:, k : k + 1], out=out)
    return out


def _row_sum(z: np.ndarray) -> np.ndarray:
    """``z.sum(axis=1, keepdims=True)`` bit for bit. Below 8 columns numpy
    adds a row in order onto +0.0, so a row of -0.0 sums to +0.0; the
    ``+ 0.0`` start keeps that."""
    if z.shape[1] >= _COLUMN_LOOP_LIMIT:
        return z.sum(axis=1, keepdims=True)
    out = z[:, :1] + 0.0
    for k in range(1, z.shape[1]):
        out += z[:, k : k + 1]
    return out


def _mlp_unpack(spec: ModelSpec, theta: np.ndarray):
    """Each layer's ``(W, b)`` as views into ``theta``."""
    return [(theta[w].reshape(shape), theta[b]) for w, shape, b in spec._mlp_layout]


def _mlp_forward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """The logits and the input of each layer. No ReLU mask is built here:
    a hidden layer's boolean mask is ``acts[layer + 1] > 0``, True where the
    pre-activation is positive and False at and below the kink."""
    wb = _mlp_unpack(spec, theta)
    acts = [X]
    a = X
    for layer, (W, b) in enumerate(wb):
        z = a @ W
        z += b
        if layer < len(wb) - 1:
            a = np.maximum(z, 0.0, out=z)
            acts.append(a)
    return z, acts


def _mlp_backward(spec: ModelSpec, theta: np.ndarray, acts, masks,
                  dlogits: np.ndarray) -> np.ndarray:
    wb = _mlp_unpack(spec, theta)
    out = np.zeros_like(theta)
    grads = _mlp_unpack(spec, out)  # views into out
    delta = dlogits
    for layer in reversed(range(len(wb))):
        W, _ = wb[layer]
        gw, gb = grads[layer]
        gw += acts[layer].T @ delta
        gb += delta.sum(axis=0)
        if layer > 0:
            delta = delta @ W.T
            delta *= masks[layer - 1]
    return out


# ---------------------------------------------------------------------------
# factories


def make_quadratic(spectrum, theta_star, l_star: float = 0.0) -> Objective:
    """Analytic strongly-convex/smooth oracle with known extreme curvature."""
    return Objective(spec=quadratic_spec(spectrum, theta_star, l_star))


def make_classifier(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> Objective:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    check_finite(X, "features")
    if not spec.is_classifier:
        raise ValueError(f"a {spec.kind!r} model of sizes {spec.layer_dims} is no classifier")
    p, C = spec.layer_dims[0], spec.layer_dims[-1]
    if X.ndim != 2 or X.shape[1] != p:
        raise ValueError(f"features have shape {X.shape}; this model reads {p} per example")
    if y.size and not 0 <= y.min() <= y.max() < C:
        raise ValueError(f"labels must lie in [0, {C}) for this model, "
                         f"not [{y.min()}, {y.max()}]")
    return Objective(spec=spec, X=X, y=y)
