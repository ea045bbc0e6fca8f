import numpy as np
import pytest

from unlearn_forge.numcore import (
    RngStream,
    derive_stream,
    kaiming_sample,
    check_finite,
)


def test_same_key_same_bits():
    a = derive_stream(42, 7).standard_normal(1000)
    b = derive_stream(42, 7).standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = derive_stream(42, 7).standard_normal(1000)
    b = derive_stream(42, 8).standard_normal(1000)
    assert not np.array_equal(a, b)


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, -3)


def test_kaiming_variance():
    d = 400
    draws = np.stack([kaiming_sample(d, derive_stream(s, 0)) for s in range(200)])
    assert abs(draws.var() - 2.0 / d) < 0.05 * (2.0 / d)
    assert abs(draws.mean()) < 3.0 * np.sqrt(2.0 / d / draws.size)


def test_kaiming_bad_dim():
    with pytest.raises(ValueError):
        kaiming_sample(0, derive_stream(0, 0))


def test_check_finite_message():
    with pytest.raises(FloatingPointError, match="gradient"):
        check_finite(np.array([np.inf]), "gradient")


def test_uniform_range():
    u = derive_stream(0, 1).uniform(2.0, 5.0, size=1000)
    assert u.min() >= 2.0 and u.max() < 5.0
