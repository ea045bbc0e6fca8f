import numpy as np
import pytest

from unlearn_forge.models import (
    make_quadratic,
    make_classifier,
    quadratic_spec,
    logistic_spec,
    mlp_spec,
)
from unlearn_forge.numcore import derive_stream


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
    X = rng.normal(0.0, 1.0, n * spec.n_features).reshape(n, spec.n_features)
    y = rng.integers(spec.num_classes, size=n)
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


# ---------------------------------------------------------------------------
# shared objective surface


def test_per_example_loss_mean_equals_value():
    spec = logistic_spec(4, 3)
    obj = _random_task(spec, 37, 16)
    theta = derive_stream(17, 0).normal(0.0, 0.5, spec.param_count)
    assert obj.per_example_loss(theta).mean() == pytest.approx(obj.value(theta))


def test_subset_view():
    spec = logistic_spec(4, 3)
    obj = _random_task(spec, 30, 18)
    sub = obj.subset(np.arange(10))
    assert sub.n_examples == 10
    assert np.array_equal(sub.X, obj.X[:10])


def test_accuracy_bounds():
    spec = mlp_spec([4, 6, 3])
    obj = _random_task(spec, 30, 19)
    theta = derive_stream(20, 0).normal(0.0, 0.5, spec.param_count)
    assert 0.0 <= obj.accuracy(theta) <= 1.0


def test_spec_roundtrip_through_dict():
    for spec in (quadratic_spec([4.0, 1.0], np.zeros(2)),
                 logistic_spec(5, 3),
                 mlp_spec([4, 8, 3])):
        clone = type(spec).from_dict(spec.to_dict())
        assert clone == spec
