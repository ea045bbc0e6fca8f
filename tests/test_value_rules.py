"""``numcore.is_int`` and ``numcore.is_real`` against the tests they
replaced, one copy of each below as it stood. Every site keeps its old
verdict on every drawn scalar, except where the old test admitted a
non-finite number, an integer beyond the float range or a bool.

Four of the old tests read only parsed JSON (``.uds`` indices and IEUC
``dim``, ``--config`` values, eval reports), which holds no numpy
scalar, so they are pinned on the scalars JSON can hold.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unlearn_forge.datasets import gen_blobs
from unlearn_forge.numcore import is_int, is_real

FLOAT_MAX = sys.float_info.max
_INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
_FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.longdouble]


def _numpy_float(dtype, value):
    with np.errstate(over="ignore"):  # a float16 or float32 overflows to inf
        return dtype(value)


_PY_INTS = st.integers(-2**1100, 2**1100) | st.integers(-2**70, 2**70) | st.sampled_from(
    [int(FLOAT_MAX), int(FLOAT_MAX) + 1, -int(FLOAT_MAX) - 1, 2**1024 - 2**970 - 1, 2**1024,
     2**63, 2**64])
_PY_FLOATS = st.floats() | st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300) \
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, FLOAT_MAX])
_NUMPY = (st.sampled_from(_INT_DTYPES).flatmap(
              lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t))
          | st.builds(_numpy_float, st.sampled_from(_FLOAT_DTYPES), _PY_FLOATS)
          | st.sampled_from([np.longdouble("1e400"), -np.longdouble("1e400")])
          | st.booleans().map(np.bool_))
_OTHER = st.text(max_size=4) | st.none() | st.lists(st.integers(), max_size=2) \
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
JSON_SCALARS = _PY_INTS | st.booleans() | _PY_FLOATS | _OTHER
SCALARS = JSON_SCALARS | _NUMPY

_RULES = settings(max_examples=400, deadline=None, derandomize=True)


# --- the old tests, each as it stood --------------------------------------------


def old_exact_int(value):
    """``checkpoints`` ``dim`` and ``.uds`` indices."""
    return type(value) is int


def old_numpy_int(value):
    """``derive_stream``, ``check_field_types`` for ``int`` and, with its
    own ``is True`` case, ``OptimizerConfig.batch_size``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def old_field_real(value):
    """``check_field_types`` for ``float``."""
    with np.errstate(over="ignore"):  # abs of the least int64
        ok = (isinstance(value, (int, np.integer)) and abs(value) <= sys.float_info.max
              or isinstance(value, (float, np.floating)) and np.isfinite(value))
    return bool(ok) and not isinstance(value, bool)


def old_config_value(flag_type, value):
    """``cli._config_value`` for an int or a float flag: whether the value
    was taken, its type check passed and its conversion did not overflow."""
    kinds = {int: (int,), float: (int, float)}[flag_type]
    if not isinstance(value, kinds) or isinstance(value, bool):
        return False
    try:
        flag_type(value)
    except OverflowError:
        return False
    return True


def old_is_number(value):
    """``metrics._is_number``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def old_batch_size_ok(bs):
    return not (bs is True or (bs != "full" and not (isinstance(bs, (int, np.integer))
                                                       and bs >= 1)))


def old_blobs_scale_ok(value):
    """``gen_blobs``' ``separation`` and ``noise_sd`` test, which raised on
    what ``math.isfinite`` cannot read."""
    try:
        with np.errstate(over="ignore"):  # a longdouble beyond the float range
            return bool(math.isfinite(value) and value >= 0)
    except (TypeError, OverflowError):
        return False


def _non_finite(value):
    return isinstance(value, (float, np.floating)) and not np.isfinite(value)


def _beyond_float(value):
    return is_int(value) and abs(int(value)) > FLOAT_MAX


# --- the pins ---------------------------------------------------------------------


@_RULES
@given(value=SCALARS)
def test_numpy_integer_sites_keep_their_verdicts(value):
    assert is_int(value) == old_numpy_int(value)
    for high in (2**64, 2**63):  # derive_stream's key, the .uds index range
        assert (is_int(value) and 0 <= value < high) == (old_numpy_int(value)
                                                         and 0 <= value < high)
    assert (value == "full" or is_int(value) and value >= 1) == old_batch_size_ok(value)


@_RULES
@given(value=SCALARS)
def test_field_types_keep_their_verdicts(value):
    assert is_real(value) == old_field_real(value)


@_RULES
@given(value=JSON_SCALARS)
def test_json_sites_keep_their_verdicts_but_for_non_finite_and_huge_numbers(value):
    assert is_int(value) == old_exact_int(value) == old_config_value(int, value)
    for old in (old_config_value(float, value), old_is_number(value)):
        if is_real(value) != old:
            assert old and (_non_finite(value) or _beyond_float(value))


@_RULES
@given(value=SCALARS)
def test_blobs_scales_keep_their_verdicts_but_for_bools_and_huge_numbers(value):
    new = is_real(value) and value >= 0
    if new != old_blobs_scale_ok(value):
        if new:  # a longdouble beyond the float range, refused further on
            assert isinstance(value, np.longdouble) and abs(value) > FLOAT_MAX
        else:
            assert isinstance(value, (bool, np.bool_)) or _beyond_float(value)


@pytest.mark.parametrize("key", ["separation", "noise_sd"])
def test_blobs_refuse_a_longdouble_beyond_the_float_range(key):
    scales = {"separation": 3.0, "noise_sd": 1.0, key: np.longdouble("1e400")}
    with pytest.raises(ValueError):
        gen_blobs(10, 3, 5, seed=0, **scales)


@pytest.mark.parametrize("value, integer, real", [
    (True, False, False), (np.True_, False, False), (3, True, True),
    (np.uint64(2**64 - 1), True, True), (2**1100, True, False), (1.5, False, True),
    (np.float32("inf"), False, False), (math.nan, False, False), ("1", False, False),
    (None, False, False)])
def test_rules_on_named_values(value, integer, real):
    assert (is_int(value), is_real(value)) == (integer, real)
