import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unlearn_forge.models import (
    ModelSpec,
    _mlp_unpack,
    _row_max,
    _row_sum,
    make_quadratic,
    make_classifier,
    quadratic_spec,
    logistic_spec,
    mlp_spec,
)
from unlearn_forge.numcore import derive_stream
from unlearn_forge.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, OptimizerConfig, train


def _fd_gradient(obj, theta, h=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (obj.value(theta + e) - obj.value(theta - e)) / (2 * h)
    return g


def _fd_hvp(obj, theta, v, h=1e-6):
    return (obj.gradient(theta + h * v) - obj.gradient(theta - h * v)) / (2 * h)


def _random_task(spec, n, seed):
    rng = derive_stream(seed, 0)
    p, C = spec.layer_dims[0], spec.layer_dims[-1]
    X = rng.normal(0.0, 1.0, n * p).reshape(n, p)
    y = rng.integers(C, size=n)
    return make_classifier(spec, X, y)


# ---------------------------------------------------------------------------
# quadratic oracle


def test_quadratic_worked_example():
    obj = make_quadratic([4.0, 1.0], np.zeros(2), 0.0)
    theta = np.array([1.0, 1.0])
    assert obj.value(theta) == pytest.approx(2.5)
    assert np.allclose(obj.gradient(theta), [4.0, 1.0])
    assert np.allclose(obj.hvp(theta, np.array([1.0, 0.0])), [4.0, 0.0])


def test_quadratic_offset_and_floor():
    obj = make_quadratic([2.0, 1.0], np.array([1.0, -1.0]), 0.5)
    assert obj.value(np.array([1.0, -1.0])) == pytest.approx(0.5)


def test_quadratic_spectrum_validation():
    with pytest.raises(ValueError):
        quadratic_spec([1.0, 4.0], np.zeros(2))  # not non-increasing
    with pytest.raises(ValueError):
        quadratic_spec([4.0, 0.0], np.zeros(2))  # not positive


# ---------------------------------------------------------------------------
# logistic regression (pinned last-class logit)


def test_logistic_gradient_matches_finite_differences():
    spec = logistic_spec(4, 3)
    obj = _random_task(spec, 40, 1)
    theta = derive_stream(2, 0).normal(0.0, 0.5, spec.param_count)
    g = obj.gradient(theta)
    assert np.allclose(g, _fd_gradient(obj, theta), rtol=1e-5, atol=1e-8)


def test_logistic_hvp_matches_finite_differences():
    spec = logistic_spec(3, 4)
    obj = _random_task(spec, 30, 3)
    theta = derive_stream(4, 0).normal(0.0, 0.5, spec.param_count)
    v = derive_stream(5, 0).normal(0.0, 1.0, spec.param_count)
    assert np.allclose(obj.hvp(theta, v), _fd_hvp(obj, theta, v), rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("classes", [2, 3, 9])
def test_logistic_point_is_bitwise_the_numpy_reference(classes):
    spec = logistic_spec(4, classes)
    obj = _random_task(spec, 50, 31)
    obj.X[0] = 0.0  # with the zero biases below, exact zeros among its logits
    theta = derive_stream(32, 0).normal(0.0, 0.7, spec.param_count)
    theta.reshape(5, classes - 1)[-1, ::2] = 0.0
    rng = derive_stream(33, 0)
    d = rng.normal(0.0, 1.0, (50, classes))
    v = rng.normal(0.0, 1.0, spec.param_count)
    point = obj.evaluate(theta)

    n, cm1, rows = 50, classes - 1, np.arange(50)
    xt = np.concatenate([obj.X, np.ones((n, 1))], axis=1)
    z = np.concatenate([xt @ theta.reshape(-1, cm1), np.zeros((n, 1))], axis=1)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    sums = e.sum(axis=1, keepdims=True)
    losses = np.log(sums[:, 0]) + zmax[:, 0] - z[rows, obj.y]
    probs = e / sums
    delta = probs.copy()
    delta[rows, obj.y] -= 1.0
    delta /= n
    rz = np.concatenate([xt @ v.reshape(-1, cm1), np.zeros((n, 1))], axis=1)
    rp = probs * (rz - np.sum(probs * rz, axis=1, keepdims=True))

    assert np.all(z[0, ::2] == 0.0)
    assert point.logits.tobytes() == z.tobytes()
    assert point.per_example_loss.tobytes() == losses.tobytes()
    assert point.loss == losses.mean()
    assert point.probs.tobytes() == probs.tobytes()
    assert point.gradient().tobytes() == (xt.T @ delta[:, :cm1]).ravel().tobytes()
    assert point.backprop(d).tobytes() == (xt.T @ d[:, :cm1]).ravel().tobytes()
    assert point.hvp(v).tobytes() == (xt.T @ (rp[:, :cm1] / n)).ravel().tobytes()
    # every point of one objective reads one design matrix
    assert obj.evaluate(v).xt is point.xt


# numpy's own NaN only: a row that starts with another NaN is the one case
# where _row_max and numpy may return NaNs of different bits
_EDGES = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 1120), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.1, 0.6]), st.sampled_from(["any", "cancel", "nonpositive"]))
def test_row_reductions_are_bitwise_numpy(rows, cols, seed, edge_share, sign):
    """On either side of the 8-column line, with exact zeros, rows of -0.0
    only, NaN, infinities and magnitudes from 2**-60 to 2**60. ``cancel``
    makes the last column the first one negated, so sums cancel exactly;
    ``nonpositive`` makes many rows' maximum a zero of either sign."""
    rng = derive_stream(seed, 0)
    z = rng.normal(0.0, 1.0, (rows, cols)) * np.exp2(rng.integers(-60, 61, (rows, cols)))
    if sign == "cancel" and cols > 1:
        z[:, -1] = -z[:, 0]
    elif sign == "nonpositive":
        z = -np.abs(z)
    edge = rng.random((rows, cols)) < edge_share
    z[edge] = rng.choice(_EDGES, np.count_nonzero(edge))
    z[rng.random(rows) < 0.2] = -0.0
    with np.errstate(all="ignore"):
        assert _row_max(z).tobytes() == z.max(axis=1, keepdims=True).tobytes()
        assert _row_sum(z).tobytes() == z.sum(axis=1, keepdims=True).tobytes()


def test_logistic_binary_param_count():
    # C-1 columns over p features plus bias
    assert logistic_spec(5, 2).param_count == 6


def _task_of_kind(kind):
    if kind == "quadratic":
        return make_quadratic([5.0, 3.0, 2.0, 0.5], np.arange(4.0), 0.25)
    spec = logistic_spec(3, 3) if kind == "logistic" else mlp_spec([3, 5, 3])
    return _random_task(spec, 25, 6)


@pytest.mark.parametrize("kind", ["quadratic", "logistic", "mlp"])
def test_hvp_linearity_and_symmetry(kind):
    obj = _task_of_kind(kind)
    d = obj.spec.param_count
    theta = derive_stream(7, 0).normal(0.0, 0.5, d)
    u = derive_stream(8, 0).normal(0.0, 1.0, d)
    v = derive_stream(9, 0).normal(0.0, 1.0, d)
    assert np.allclose(obj.hvp(theta, 2 * u + v),
                       2 * obj.hvp(theta, u) + obj.hvp(theta, v))
    assert np.dot(u, obj.hvp(theta, v)) == pytest.approx(np.dot(v, obj.hvp(theta, u)))
    # one evaluated point serves, bit for bit, what each shortcut computes on its own
    point = obj.evaluate(theta)
    assert point.loss == obj.value(theta)
    assert np.array_equal(point.gradient(), obj.gradient(theta))
    assert np.array_equal(point.hvp(v), obj.hvp(theta, v))
    if kind != "quadratic":
        assert point.accuracy == obj.accuracy(theta)
        assert np.array_equal(point.per_example_loss, obj.per_example_loss(theta))


# ---------------------------------------------------------------------------
# mlp


def test_mlp_gradient_matches_finite_differences():
    spec = mlp_spec([4, 6, 3])
    obj = _random_task(spec, 30, 11)
    theta = derive_stream(12, 0).normal(0.0, 0.5, spec.param_count)
    assert np.allclose(obj.gradient(theta), _fd_gradient(obj, theta),
                       rtol=1e-5, atol=1e-7)


def test_mlp_hvp_matches_finite_differences():
    spec = mlp_spec([3, 5, 5, 3])
    obj = _random_task(spec, 20, 13)
    theta = derive_stream(14, 0).normal(0.0, 0.5, spec.param_count)
    v = derive_stream(15, 0).normal(0.0, 1.0, spec.param_count)
    assert np.allclose(obj.hvp(theta, v), _fd_hvp(obj, theta, v), rtol=1e-4, atol=1e-6)


def test_mlp_param_count():
    spec = mlp_spec([4, 8, 3])
    assert spec.param_count == 4 * 8 + 8 + 8 * 3 + 3


def _ref_unpack(dims, theta):
    """``(W, b)`` views into theta, by a running offset."""
    out, off = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        W = theta[off : off + din * dout].reshape(din, dout)
        off += din * dout
        out.append((W, theta[off : off + dout]))
        off += dout
    return out


def _ref_forward(wb, X):
    """Logits, layer inputs and float64 ReLU masks (1.0 where z > 0)."""
    acts, masks, a = [X], [], X
    for layer, (W, b) in enumerate(wb):
        z = a @ W
        z += b
        if layer < len(wb) - 1:
            masks.append((z > 0).astype(np.float64))
            a = np.maximum(z, 0.0, out=z)
            acts.append(a)
    return z, acts, masks


def _ref_backward(dims, wb, acts, masks, dlogits):
    out = np.zeros(sum(W.size + b.size for W, b in wb))
    grads, delta = _ref_unpack(dims, out), dlogits
    for layer in reversed(range(len(wb))):
        gw, gb = grads[layer]
        gw += acts[layer].T @ delta
        gb += delta.sum(axis=0)
        if layer > 0:
            delta = delta @ wb[layer][0].T
            delta *= masks[layer - 1]
    return out


def _ref_hvp(dims, wb, X, acts, masks, probs, delta, v):
    vb, n = _ref_unpack(dims, v), len(X)
    ras = [np.zeros_like(X)]
    for layer, ((W, b), (Vw, Vb)) in enumerate(zip(wb, vb)):
        rz = ras[-1] @ W + acts[layer] @ Vw + Vb
        if layer < len(masks):
            ras.append(rz * masks[layer])
    rdelta = probs * (rz - np.sum(probs * rz, axis=1, keepdims=True)) / n
    out = np.zeros_like(v)
    grads = _ref_unpack(dims, out)
    for layer in reversed(range(len(wb))):
        (W, _), (Vw, _), (gw, gb) = wb[layer], vb[layer], grads[layer]
        gw += ras[layer].T @ delta + acts[layer].T @ rdelta
        gb += rdelta.sum(axis=0)
        if layer > 0:
            rdelta = (rdelta @ W.T + delta @ Vw.T) * masks[layer - 1]
            delta = (delta @ W.T) * masks[layer - 1]
    return out


@pytest.mark.parametrize("dims", [(4, 6, 3), (3, 5, 4, 6, 3), (4, 6, 9)],
                         ids=["1-hidden", "3-hidden", "9-classes"])
def test_mlp_point_is_bitwise_the_float_mask_reference(dims):
    spec = mlp_spec(dims)
    obj = _random_task(spec, 24, 21)
    obj.X[0] = 0.0  # a zero row: with the zero biases below, pre-activations exactly at the kink
    theta = derive_stream(22, 0).normal(0.0, 0.7, spec.param_count)
    wb = _ref_unpack(dims, theta)
    for layer, (_, b) in enumerate(wb[:-1]):
        b[layer % 2 :: 2] = 0.0
    point = obj.evaluate(theta)
    rng = derive_stream(23, 0)
    d = rng.normal(0.0, 1.0, point.logits.shape)
    v = rng.normal(0.0, 1.0, spec.param_count)

    z, acts, masks = _ref_forward(wb, obj.X)
    assert np.any(obj.X[0] @ wb[0][0] + wb[0][1] == 0.0)  # a pre-activation exactly at 0
    # negative deltas reach masked units of the last hidden layer, where the mask makes -0.0
    assert np.any((d @ wb[-1][0].T)[masks[-1] == 0] < 0)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    probs = e / e.sum(axis=1, keepdims=True)
    delta = probs.copy()
    delta[np.arange(len(delta)), obj.y] -= 1.0
    delta /= len(delta)

    assert point.logits.tobytes() == z.tobytes()
    assert point.gradient().tobytes() == _ref_backward(dims, wb, acts, masks, delta).tobytes()
    assert point.backprop(d).tobytes() == _ref_backward(dims, wb, acts, masks, d).tobytes()
    assert point.hvp(v).tobytes() == _ref_hvp(dims, wb, obj.X, acts, masks, probs, delta,
                                              v).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(2, 7))
def test_mlp_layout_tiles_theta_and_unpacks_to_views(sizes, classes):
    dims = [*sizes, classes]  # an MLP's output layer has at least two classes
    spec = mlp_spec(dims)
    end = 0
    for (w, shape, b), din, dout in zip(spec._mlp_layout, dims[:-1], dims[1:]):
        assert (w.start, w.stop, shape) == (end, end + din * dout, (din, dout))
        assert (b.start, b.stop) == (w.stop, w.stop + dout)
        end = b.stop
    assert end == spec.param_count and len(spec._mlp_layout) == len(dims) - 1

    out = np.zeros(spec.param_count)
    expect = []
    for layer, (gw, gb) in enumerate(_mlp_unpack(spec, out)):
        gw += 2 * layer + 1
        gb += 2 * layer + 2
        expect += [2 * layer + 1] * gw.size + [2 * layer + 2] * gb.size
    assert np.array_equal(out, expect)


# ---------------------------------------------------------------------------
# shared objective surface


def test_per_example_loss_mean_equals_value():
    spec = logistic_spec(4, 3)
    obj = _random_task(spec, 37, 16)
    theta = derive_stream(17, 0).normal(0.0, 0.5, spec.param_count)
    assert obj.per_example_loss(theta).mean() == pytest.approx(obj.value(theta))


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_minibatch_epoch_is_the_written_out_loop(kind):
    # batches of 4 over 18 rows, the last one short, in the epoch's permutation order
    spec = mlp_spec([4, 6, 3])
    obj = _random_task(spec, 18, 18)
    theta0 = derive_stream(19, 0).normal(0.0, 0.5, spec.param_count)
    cfg = OptimizerConfig(kind=kind, eta=0.05, batch_size=4, max_epochs=1, grad_norm_tol=0.0)
    got = train(obj, theta0, cfg, derive_stream(19, 1)).theta

    order = derive_stream(19, 1).permutation(18)
    theta, m, v = theta0.copy(), 0.0, 0.0
    for t, start in enumerate(range(0, 18, 4), start=1):
        idx = order[start : start + 4]
        g = make_classifier(spec, obj.X[idx], obj.y[idx]).gradient(theta)
        if kind == "sgd":
            theta = theta - cfg.eta * g
        else:
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            mhat, vhat = m / (1 - ADAM_BETA1 ** t), v / (1 - ADAM_BETA2 ** t)
            theta = theta - cfg.eta * mhat / (np.sqrt(vhat) + ADAM_EPS)
    assert got.tobytes() == theta.tobytes()


def test_accuracy_bounds():
    spec = mlp_spec([4, 6, 3])
    obj = _random_task(spec, 30, 19)
    theta = derive_stream(20, 0).normal(0.0, 0.5, spec.param_count)
    assert 0.0 <= obj.accuracy(theta) <= 1.0


def test_mlp_spec_refuses_fewer_than_two_outputs():
    with pytest.raises(ValueError, match="output layer of >= 2 classes"):
        mlp_spec([4, 1])
    with pytest.raises(ValueError, match="output layer of >= 2 classes"):
        ModelSpec.from_dict({"kind": "mlp", "layer_dims": [4, 8, 1], "spectrum": [],
                             "theta_star": [], "l_star": 0.0})


def test_spec_roundtrip_through_dict():
    for spec in (quadratic_spec([4.0, 1.0], np.zeros(2)),
                 logistic_spec(5, 3),
                 mlp_spec([4, 8, 3])):
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec
