"""Differentiable objectives: quadratic oracle, multinomial logistic
regression, and small MLPs with analytic gradients and exact
Hessian-vector products.

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
* ReLU uses the subgradient convention derivative 0 at exactly 0, so
  Hessian-vector products near kinks are deterministic.
* Cross-entropy goes through log-sum-exp with max subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numcore import check_finite

__all__ = [
    "ModelSpec",
    "Objective",
    "quadratic_spec",
    "logistic_spec",
    "mlp_spec",
    "make_quadratic",
    "make_classifier",
]


# ---------------------------------------------------------------------------
# model specs


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; payload fields depend on ``kind``."""

    kind: str  # quadratic | logistic | mlp
    layer_dims: tuple = ()  # mlp only, (p, h1, ..., C)
    activation: str = "relu"  # mlp only
    num_classes: int = 0  # classification kinds
    n_features: int = 0  # logistic only
    spectrum: tuple = ()  # quadratic only, non-increasing positive
    theta_star: tuple = ()  # quadratic only
    l_star: float = 0.0  # quadratic only

    @property
    def param_count(self) -> int:
        if self.kind == "quadratic":
            return len(self.spectrum)
        if self.kind == "logistic":
            return (self.n_features + 1) * (self.num_classes - 1)
        if self.kind == "mlp":
            dims = self.layer_dims
            return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))
        raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def is_classifier(self) -> bool:
        return self.kind in ("logistic", "mlp") and self.num_classes >= 2

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "layer_dims": list(self.layer_dims),
            "activation": self.activation,
            "num_classes": self.num_classes,
            "n_features": self.n_features,
            "spectrum": list(self.spectrum),
            "theta_star": list(self.theta_star),
            "l_star": self.l_star,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelSpec":
        return ModelSpec(
            kind=d["kind"],
            layer_dims=tuple(d.get("layer_dims", ())),
            activation=d.get("activation", "relu"),
            num_classes=d.get("num_classes", 0),
            n_features=d.get("n_features", 0),
            spectrum=tuple(d.get("spectrum", ())),
            theta_star=tuple(d.get("theta_star", ())),
            l_star=d.get("l_star", 0.0),
        )


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
    if num_classes < 2:
        raise ValueError("logistic regression needs num_classes >= 2")
    if n_features < 1:
        raise ValueError("need n_features >= 1")
    return ModelSpec(kind="logistic", n_features=n_features, num_classes=num_classes)


def mlp_spec(layer_dims, activation: str = "relu") -> ModelSpec:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims must list at least input and output sizes, all >= 1")
    if activation not in ("relu", "tanh"):
        raise ValueError(f"unsupported activation {activation!r}")
    return ModelSpec(kind="mlp", layer_dims=dims, activation=activation,
                     num_classes=dims[-1], n_features=dims[0])


# ---------------------------------------------------------------------------
# objective


@dataclass(frozen=True)
class Objective:
    """A pure differentiable map: model + dataset view. The loss follows
    from ``spec.kind``: the quadratic form for the quadratic oracle, mean
    cross-entropy for the classifiers.

    ``value``/``gradient``/``hvp`` are stateless; identical inputs always
    give identical outputs, so objectives may be shared across tasks.
    """

    spec: ModelSpec
    X: np.ndarray | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        if self.spec.kind != "quadratic":
            if self.X is None or self.y is None:
                raise ValueError("empty dataset view")
            if len(self.X) == 0:
                raise ValueError("empty dataset view")
            if len(self.X) != len(self.y):
                raise ValueError("features/labels length mismatch")

    # -- dataset plumbing ---------------------------------------------------

    @property
    def n_examples(self) -> int:
        return 0 if self.X is None else len(self.X)

    def subset(self, idx: np.ndarray) -> "Objective":
        if self.spec.kind == "quadratic":
            return self
        return replace(self, X=self.X[idx], y=self.y[idx])

    def _check_theta(self, theta: np.ndarray) -> None:
        if theta.shape != (self.spec.param_count,):
            raise ValueError(
                f"theta has shape {theta.shape}, model needs ({self.spec.param_count},)"
            )

    # -- evaluation ---------------------------------------------------------

    def value(self, theta: np.ndarray) -> float:
        self._check_theta(theta)
        if self.spec.kind == "quadratic":
            r = theta - np.asarray(self.spec.theta_star)
            return float(0.5 * np.dot(np.asarray(self.spec.spectrum) * r, r) + self.spec.l_star)
        return float(np.mean(_ce_per_example(self.logits(theta), self.y)))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        self._check_theta(theta)
        if self.spec.kind == "quadratic":
            return np.asarray(self.spec.spectrum) * (theta - np.asarray(self.spec.theta_star))
        z = self.logits(theta)
        return self.grad_from_logit_delta(theta, self._loss_delta(z))

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        self._check_theta(theta)
        if v.shape != theta.shape:
            raise ValueError("direction vector dimension mismatch")
        if self.spec.kind == "quadratic":
            return np.asarray(self.spec.spectrum) * v
        if self.spec.kind == "logistic":
            return self._logistic_hvp(theta, v)
        return self._mlp_hvp(theta, v)

    def accuracy(self, theta: np.ndarray) -> float:
        if not self.spec.is_classifier:
            raise TypeError("accuracy is only defined for classification objectives")
        self._check_theta(theta)
        z = self.logits(theta)
        pred = np.argmax(z, axis=1)  # argmax ties break toward lowest index
        return float(np.mean(pred == self.y))

    def per_example_loss(self, theta: np.ndarray) -> np.ndarray:
        """Per-example cross-entropy, used by the membership inference score."""
        if not self.spec.is_classifier:
            raise TypeError("per-example loss requires a classification objective")
        self._check_theta(theta)
        return _ce_per_example(self.logits(theta), self.y)

    # -- logit machinery (shared by the unlearning baselines) ---------------

    def logits(self, theta: np.ndarray) -> np.ndarray:
        if self.spec.kind == "logistic":
            part = self._xtilde() @ _logistic_weights(self.spec, theta)
            return np.hstack([part, np.zeros((len(part), 1))])
        if self.spec.kind == "mlp":
            z, _, _ = _mlp_forward(self.spec, theta, self.X)
            return z
        raise TypeError("logits are only defined for classification models")

    def grad_from_logit_delta(self, theta: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
        """Backpropagate an arbitrary d(loss)/d(logits) to a flat gradient."""
        if self.spec.kind == "logistic":
            g = self._xtilde().T @ dlogits[:, : self.spec.num_classes - 1]
            return g.ravel()
        if self.spec.kind == "mlp":
            _, acts, zs = _mlp_forward(self.spec, theta, self.X)
            return _mlp_backward(self.spec, theta, acts, zs, dlogits)
        raise TypeError("logit-space backprop requires a classification model")

    # -- internals ----------------------------------------------------------

    def _loss_delta(self, z: np.ndarray) -> np.ndarray:
        n = len(z)
        p = _softmax(z)
        p[np.arange(n), self.y] -= 1.0
        return p / n

    def _xtilde(self) -> np.ndarray:
        return np.hstack([self.X, np.ones((len(self.X), 1))])

    def _logistic_hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        xt = self._xtilde()
        n, cm1 = len(xt), self.spec.num_classes - 1
        z = np.hstack([xt @ _logistic_weights(self.spec, theta), np.zeros((n, 1))])
        rz = np.hstack([xt @ v.reshape(self.spec.n_features + 1, cm1), np.zeros((n, 1))])
        p = _softmax(z)
        rp = p * (rz - np.sum(p * rz, axis=1, keepdims=True))
        return (xt.T @ (rp[:, :cm1] / n)).ravel()

    def _mlp_hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        spec = self.spec
        z, acts, zs = _mlp_forward(spec, theta, self.X)
        wb = _mlp_unpack(spec, theta)
        vb = _mlp_unpack(spec, v)
        n = len(z)

        # forward tangent pass
        ra = np.zeros_like(self.X)
        ras = [ra]
        rzs = []
        for layer, ((W, b), (Vw, Vb)) in enumerate(zip(wb, vb)):
            rz = ras[-1] @ W + acts[layer] @ Vw + Vb
            rzs.append(rz)
            if layer < len(wb) - 1:
                ra = _act_deriv(spec.activation, zs[layer]) * rz
                ras.append(ra)
        rlogits = rzs[-1]

        p = _softmax(z)
        delta = p.copy()
        delta[np.arange(n), self.y] -= 1.0
        delta /= n
        rdelta = p * (rlogits - np.sum(p * rlogits, axis=1, keepdims=True)) / n

        # reverse pass carrying both the gradient and its tangent
        out = np.zeros_like(theta)
        grads = _mlp_unpack(spec, out)  # views into out
        for layer in reversed(range(len(wb))):
            W, _ = wb[layer]
            Vw, _ = vb[layer]
            a_prev, ra_prev = acts[layer], ras[layer]
            gw, gb = grads[layer]
            gw += ra_prev.T @ delta + a_prev.T @ rdelta
            gb += rdelta.sum(axis=0)
            if layer > 0:
                sp = _act_deriv(spec.activation, zs[layer - 1])
                back = delta @ W.T
                rback = rdelta @ W.T + delta @ Vw.T
                rdelta = sp * rback + _act_second_deriv(spec.activation, zs[layer - 1]) * rzs[
                    layer - 1
                ] * back
                delta = sp * back
        return out


# ---------------------------------------------------------------------------
# numerics helpers


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ce_per_example(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + z.max(axis=1)
    return lse - z[np.arange(len(z)), y]


def _logistic_weights(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    return theta.reshape(spec.n_features + 1, spec.num_classes - 1)


def _act(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _act_deriv(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(np.float64)  # derivative 0 at the kink
    t = np.tanh(z)
    return 1.0 - t * t


def _act_second_deriv(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.zeros_like(z)
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _mlp_unpack(spec: ModelSpec, theta: np.ndarray):
    out, off = [], 0
    dims = spec.layer_dims
    for i in range(len(dims) - 1):
        din, dout = dims[i], dims[i + 1]
        W = theta[off : off + din * dout].reshape(din, dout)
        off += din * dout
        b = theta[off : off + dout]
        off += dout
        out.append((W, b))
    return out


def _mlp_forward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    wb = _mlp_unpack(spec, theta)
    acts = [X]
    zs = []
    a = X
    for layer, (W, b) in enumerate(wb):
        z = a @ W + b
        zs.append(z)
        if layer < len(wb) - 1:
            a = _act(spec.activation, z)
            acts.append(a)
    return zs[-1], acts, zs


def _mlp_backward(spec: ModelSpec, theta: np.ndarray, acts, zs, dlogits: np.ndarray) -> np.ndarray:
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
            delta = (delta @ W.T) * _act_deriv(spec.activation, zs[layer - 1])
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
    return Objective(spec=spec, X=X, y=y)
