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
  Its point slices theta into layer views once, for its forward pass,
  backprop and R-op, and builds its boolean ReLU masks (True where a unit's
  output is positive) when a gradient, backprop or HVP first needs them.
* Cross-entropy goes through log-sum-exp with max subtraction, on a
  class-major head: the logits are copied once into a (C, n) array, so the
  row max, ``exp`` and the row sums (the class rows added in order) run
  over rows of length n. The softmax and ``dlogits`` come back as
  C-contiguous (n, C) arrays, the operands everything downstream reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .numcore import check_finite, is_int, jsonable

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
    for name, value in (("n_features", n_features), ("num_classes", num_classes)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    n_features, num_classes = int(n_features), int(num_classes)
    if num_classes < 2:
        raise ValueError("logistic regression needs num_classes >= 2")
    if n_features < 1:
        raise ValueError("need n_features >= 1")
    return ModelSpec(kind="logistic", layer_dims=(n_features, num_classes))


def mlp_spec(layer_dims) -> ModelSpec:
    """A ReLU network with the sizes ``(p, h1, ..., C)``."""
    try:
        dims = tuple(layer_dims)
    except TypeError:
        raise ValueError(f"layer_dims must be a sequence of sizes, not {layer_dims!r}") from None
    for d in dims:
        if not is_int(d):
            raise ValueError(f"layer_dims must be integers, not {d!r}")
    dims = tuple(int(d) for d in dims)
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
        spec = self.spec
        if not spec.is_classifier:  # the quadratic oracle reads no data
            if self.X is None and self.y is None:
                return
            raise ValueError(f"a {spec.kind!r} model of sizes {spec.layer_dims} is no classifier")
        if self.X is None or self.y is None or len(self.X) == 0:
            raise ValueError("empty dataset view")
        if len(self.X) != len(self.y):
            raise ValueError("features/labels length mismatch")
        # the label picks read flat indices, which no other check keeps in their row
        C, low, high = spec.layer_dims[-1], np.min(self.y), np.max(self.y)
        if not 0 <= low <= high < C:
            raise ValueError(f"labels must lie in [0, {C}) for this model, not [{low}, {high}]")

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
        spec = self.spec
        if theta.shape != (spec.param_count,):
            raise ValueError(f"theta has shape {theta.shape}, model needs ({spec.param_count},)")
        return _POINTS[spec.kind](self, theta)

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
    """A parameter point; each subclass sets ``obj`` and ``theta`` itself."""

    def gradient(self) -> np.ndarray:
        """The loss gradient, computed at most once per point."""
        return self._gradient

    def hvp(self, v: np.ndarray) -> np.ndarray:
        if v.shape != self.theta.shape:
            raise ValueError("direction vector dimension mismatch")
        return self._hvp(v)


class _QuadraticPoint(_Point):
    def __init__(self, obj, theta):
        spec = obj.spec
        self.obj, self.theta = obj, theta
        self.spectrum, theta_star = spec._quadratic_arrays
        r = theta - theta_star
        self._gradient = g = self.spectrum * r
        self.loss = 0.5 * float(g.dot(r)) + spec.l_star

    def _hvp(self, v):
        return self.spectrum * v


class _ClassifierPoint(_Point):
    """Mean cross-entropy; a subclass supplies ``_forward`` and ``backprop``."""

    def __init__(self, obj, theta):
        self.obj, self.theta = obj, theta
        self.logits = self._forward()

    @_once
    def _exp_rows(self):
        """The logits' row max, exp(logits - max) and its row sums, for both
        the log-sum-exp and the softmax. The exponentials are class-major,
        one contiguous row of n per class, so no step runs one short numpy
        loop per example. The max over the class rows equals numpy's row
        max save the sign of a zero, which neither ``logits - max`` nor
        ``log(sums) + max`` sees. numpy sums the class rows in order onto
        +0.0; a single example's classes, one contiguous column, it sums
        pairwise."""
        e = self.logits.T.copy()
        zmax = e.max(axis=0)
        e -= zmax
        np.exp(e, out=e)
        return zmax, e, e.sum(axis=0)

    def _softmax(self) -> np.ndarray:
        """A fresh C-contiguous (n, C) softmax, divided straight out of the
        class-major exponentials."""
        _, e, sums = self._exp_rows
        p = np.empty(self.logits.shape)
        np.divide(e, sums, out=p.T)
        return p

    @_once
    def per_example_loss(self) -> np.ndarray:
        zmax, _, sums = self._exp_rows
        lse = np.log(sums) + zmax
        lse -= self.logits.take(_label_index(self.obj.y, self.logits.shape[1]))
        return lse

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
        return self._softmax()

    def dlogits(self, labels: np.ndarray, n: int) -> np.ndarray:
        """d(sum of the cross-entropies with ``labels``)/d(logits), over n:
        the softmax minus the one-hot labels."""
        d = self._softmax()
        d.reshape(-1)[_label_index(labels, d.shape[1])] -= 1.0
        d /= n
        return d

    @_once
    def delta(self) -> np.ndarray:
        """d(loss)/d(logits)."""
        return self.dlogits(self.obj.y, len(self.logits))

    @_once
    def _gradient(self):
        return self.backprop(self.delta)

    def _softmax_tangent(self, rz):
        """The softmax's tangent along the logits' tangent ``rz``, its row
        sums taken over class rows as ``_exp_rows`` takes them."""
        p = self.probs
        return p * (rz - (p * rz).T.copy().sum(axis=0)[:, None])


class _LogisticPoint(_ClassifierPoint):
    def _forward(self):
        self.xt = self.obj._design
        return self._linear(self.theta)

    def _linear(self, w):
        """The logits ``[X, 1] @ w`` of parameters ``w``, the last one pinned at 0."""
        part = self.xt @ w.reshape(-1, self.obj.spec.layer_dims[-1] - 1)
        return np.concatenate([part, np.zeros((len(part), 1))], axis=1)

    def backprop(self, dlogits):
        return (self.xt.T @ dlogits[:, : self.obj.spec.layer_dims[-1] - 1]).ravel()

    def _hvp(self, v):
        rp = self._softmax_tangent(self._linear(v))
        return (self.xt.T @ (rp[:, :-1] / len(rp))).ravel()


class _MlpPoint(_ClassifierPoint):
    def _forward(self):
        """The logits; keeps the layers' ``(W, b)`` views into theta as ``wb``
        and their inputs as ``acts``, which ``masks`` reads when first needed."""
        self.wb = wb = _mlp_unpack(self.obj.spec, self.theta)
        self.acts = [a := self.obj.X]
        for layer, (W, b) in enumerate(wb):
            z = a @ W
            z += b
            if layer < len(wb) - 1:
                a = np.maximum(z, 0.0, out=z)
                self.acts.append(a)
        return z

    @_once
    def masks(self):
        """Each hidden layer's boolean ReLU mask, True where its output is
        positive: exactly where the pre-activation is, as ReLU keeps NaN."""
        return [a > 0 for a in self.acts[1:]]

    def backprop(self, dlogits):
        wb, acts, masks = self.wb, self.acts, self.masks
        out = np.zeros_like(self.theta)
        grads, delta = _mlp_unpack(self.obj.spec, out), dlogits  # grads: views into out
        for layer in reversed(range(len(wb))):
            (W, _), (gw, gb) = wb[layer], grads[layer]
            gw += acts[layer].T @ delta
            gb += _column_sum(delta)
            if layer > 0:
                delta = delta @ W.T
                delta *= masks[layer - 1]
        return out

    def _hvp(self, v):
        """Pearlmutter's R-op on the point's ``wb``, activations, ReLU masks
        and loss delta; ReLU's second derivative is 0, so it adds no term."""
        wb, acts, masks = self.wb, self.acts, self.masks
        vb = _mlp_unpack(self.obj.spec, v)

        # forward tangent pass; rz ends as the logits' tangent
        ras = [np.zeros_like(self.obj.X)]
        for layer, ((W, b), (Vw, Vb)) in enumerate(zip(wb, vb)):
            rz = ras[-1] @ W + acts[layer] @ Vw + Vb
            if layer < len(masks):
                ras.append(rz * masks[layer])

        delta, rdelta = self.delta, self._softmax_tangent(rz) / len(rz)

        # reverse pass carrying both the gradient and its tangent
        out = np.zeros_like(self.theta)
        grads = _mlp_unpack(self.obj.spec, out)  # views into out
        for layer in reversed(range(len(wb))):
            (W, _), (Vw, _), (gw, gb) = wb[layer], vb[layer], grads[layer]
            gw += ras[layer].T @ delta + acts[layer].T @ rdelta
            gb += _column_sum(rdelta)
            if layer > 0:
                rdelta = (rdelta @ W.T + delta @ Vw.T) * masks[layer - 1]
                delta = (delta @ W.T) * masks[layer - 1]
        return out


_POINTS = {"quadratic": _QuadraticPoint, "logistic": _LogisticPoint, "mlp": _MlpPoint}


# ---------------------------------------------------------------------------
# numerics helpers

def _column_sum(d: np.ndarray) -> np.ndarray:
    """``d.sum(axis=0)`` bit for bit, save a NaN's sign and payload. On a
    C-contiguous array of two or more columns numpy adds the rows in order,
    and so does einsum, at about twice the speed. A single column numpy
    sums pairwise, so that, and any other layout, keeps numpy's own sum."""
    if d.shape[1] > 1 and d.flags.c_contiguous:
        return np.einsum("ij->j", d)
    return d.sum(axis=0)


def _label_index(labels: np.ndarray, C: int) -> np.ndarray:
    """The flat indices of each example's ``labels`` entry in an (n, C)
    C-contiguous array; the labels must lie in [0, C), as ``Objective``
    checks of its own."""
    return np.arange(0, len(labels) * C, C) + labels


def _mlp_unpack(spec: ModelSpec, theta: np.ndarray):
    """Each layer's ``(W, b)`` as views into ``theta``."""
    return [(theta[w].reshape(shape), theta[b]) for w, shape, b in spec._mlp_layout]


# ---------------------------------------------------------------------------
# factories


def make_quadratic(spectrum, theta_star, l_star: float = 0.0) -> Objective:
    """Analytic strongly-convex/smooth oracle with known extreme curvature."""
    return Objective(spec=quadratic_spec(spectrum, theta_star, l_star))


def make_classifier(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> Objective:
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.int64)
    check_finite(X, "features")
    p = spec.layer_dims[:1]  # a quadratic spec has none, and Objective refuses it
    if spec.is_classifier and X.shape[1:] != p:
        raise ValueError(f"features have shape {X.shape}; this model reads {p[0]} per example")
    return Objective(spec=spec, X=X, y=y)
