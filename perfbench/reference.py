"""Routes the benchmark computes apart from ``unlearn_forge``: its own MLP
forward pass and cross-entropy, the closed-form logistic Hessian, the
finite geometric sum of gradient descent on a quadratic, and readers of
the ``.uds`` and IEUC file layouts. The correctness checks compare the
program's outputs against these.
"""

import hashlib
import json
import struct

import numpy as np


def mlp_layers(dims, theta):
    """Split a flat parameter vector into ``(W, b)`` per layer, ``W`` stored
    row-major as (fan_in, fan_out) and followed by its bias."""
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((W, theta[offset:offset + fan_out]))
        offset += fan_out
    if offset != theta.size:
        raise ValueError(f"theta has {theta.size} entries, layers need {offset}")
    return layers


def mlp_logits(dims, theta, X):
    """ReLU MLP forward pass; also returns the hidden activation pattern."""
    a, pattern = X, []
    layers = mlp_layers(dims, theta)
    for index, (W, b) in enumerate(layers):
        z = a @ W + b
        if index < len(layers) - 1:
            pattern.append(z > 0)
            a = np.maximum(z, 0.0)
    return z, pattern


def cross_entropy(z, y):
    shift = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - shift).sum(axis=1)) + shift[:, 0]
    return float(np.mean(lse - z[np.arange(len(y)), y]))


def accuracy(z, y):
    return float(np.mean(np.argmax(z, axis=1) == y))


def mlp_loss(dims, theta, X, y):
    return cross_entropy(mlp_logits(dims, theta, X)[0], y)


def gradient_fd_errors(dims, theta, X, y, gradient, coords, h=1e-5):
    """Central differences of :func:`mlp_loss` on ``coords``.

    A coordinate is skipped when a step of ``h`` flips any ReLU, since the
    loss has a kink there. Returns ``(checked, worst)`` where ``worst`` is the
    largest ``|fd - g| / (1e-7 + 1e-5 |g|)``; the gradient passes when it is
    at most 1.
    """
    _, pattern = mlp_logits(dims, theta, X)
    checked, worst = 0, 0.0
    for j in coords:
        step = np.zeros_like(theta)
        step[j] = h
        (zp, pp), (zm, pm) = mlp_logits(dims, theta + step, X), mlp_logits(dims, theta - step, X)
        if any((a != b).any() or (a != c).any() for a, b, c in zip(pattern, pp, pm)):
            continue
        fd = (cross_entropy(zp, y) - cross_entropy(zm, y)) / (2 * h)
        worst = max(worst, abs(fd - gradient[j]) / (1e-7 + 1e-5 * abs(gradient[j])))
        checked += 1
    return checked, worst


def mlp_hessian_fd(dims, theta, X, y, h=1e-4):
    """Dense Hessian of :func:`mlp_loss` from four-point second differences."""
    d = theta.size
    eye = np.eye(d) * h
    H = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            H[i, j] = H[j, i] = (
                mlp_loss(dims, theta + eye[i] + eye[j], X, y)
                - mlp_loss(dims, theta + eye[i] - eye[j], X, y)
                - mlp_loss(dims, theta - eye[i] + eye[j], X, y)
                + mlp_loss(dims, theta - eye[i] - eye[j], X, y)) / (4 * h * h)
    return H


def logistic_hessian(X, theta, num_classes):
    """Hessian of mean cross-entropy for the C-1 parameterization (last
    logit pinned to 0): sum_i kron(x~_i x~_i^T, diag p_i - p_i p_i^T) / n
    over the first C-1 class probabilities, with x~ = [x, 1]."""
    n = len(X)
    Xt = np.hstack([X, np.ones((n, 1))])
    z = np.hstack([Xt @ theta.reshape(Xt.shape[1], num_classes - 1), np.zeros((n, 1))])
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p = (p / p.sum(axis=1, keepdims=True))[:, :-1]
    A = np.einsum("ik,kl->ikl", p, np.eye(num_classes - 1)) - np.einsum("ik,il->ikl", p, p)
    H = np.einsum("ia,ib,ikl->akbl", Xt, Xt, A) / n
    d = Xt.shape[1] * (num_classes - 1)
    return H.reshape(d, d)


def quadratic_gd_sum(spectrum, residual, eta, K):
    """Delay of fixed-step gradient descent on ``0.5 r^T diag(spectrum) r``
    over epochs 0..K, as the finite geometric sum
    sum_i 0.5 lambda_i r_i^2 (1 - rho_i^(2(K+1))) / (1 - rho_i^2), rho_i = 1 - eta lambda_i."""
    rho2 = (1.0 - eta * np.asarray(spectrum)) ** 2
    per_coord = 0.5 * np.asarray(spectrum) * np.asarray(residual) ** 2
    return float(np.sum(per_coord * (1.0 - rho2 ** (K + 1)) / (1.0 - rho2)))


def read_uds(path):
    """Parse a ``.uds`` dataset: ``(header, features, labels)``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n, p = header["n"], header["p"]
        features = np.frombuffer(fh.read(n * p * 8), dtype="<f8").reshape(n, p)
        labels = np.frombuffer(fh.read(n * 8), dtype="<i8")
    return header, features, labels


def read_ieuc(path):
    """Parse an IEUC checkpoint: ``(header, theta, hash_ok)``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"IEUC":
        raise ValueError(f"{path}: bad magic")
    body, digest = blob[:-32], blob[-32:]
    (header_len,) = struct.unpack("<Q", body[8:16])
    header = json.loads(body[16:16 + header_len])
    theta = np.frombuffer(body[16 + header_len:], dtype="<f8").astype(np.float64)
    return header, theta, hashlib.sha256(body).digest() == digest
