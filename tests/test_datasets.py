import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unlearn_forge.datasets import (
    UDS_SCHEMA_VERSION,
    _check_uds_header,
    gen_blobs,
    split_random,
    split_classwise,
    split_objective,
    save_uds,
    load_uds,
)
from unlearn_forge.models import logistic_spec
from unlearn_forge.numcore import is_int


def test_blobs_shapes_and_determinism():
    a = gen_blobs(50, 3, 4, separation=2.0, noise_sd=1.0, seed=9)
    b = gen_blobs(50, 3, 4, separation=2.0, noise_sd=1.0, seed=9)
    assert a.features.shape == (150, 4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert set(np.unique(a.labels)) == {0, 1, 2}


@pytest.mark.parametrize("name", ["separation", "noise_sd"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_blobs_refuse_a_scale_that_is_not_finite_and_non_negative(name, value):
    kwargs = {"separation": 2.0, "noise_sd": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a finite number >= 0"):
        gen_blobs(10, 3, 4, seed=0, **kwargs)


@pytest.mark.parametrize("separation", [1e160, 1e200, 1e308])
def test_blobs_refuse_overflowing_features_without_a_warning(separation):
    # the centers and features overflow on the way; the refusal names it, no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow the features"):
            gen_blobs(100, 3, 5, separation, 1.0, 0)


def test_blobs_test_split_is_stratified():
    ds = gen_blobs(50, 4, 3, separation=2.0, noise_sd=1.0, seed=1)
    test_labels = ds.labels[ds.test_idx]
    counts = np.bincount(test_labels, minlength=4)
    assert np.all(counts == 10)  # 20% of 50 per class


def test_random_split_disjoint_and_sized():
    ds = split_random(gen_blobs(50, 3, 4, 2.0, 1.0, seed=2), 0.3, seed=2)
    retain, forget = set(ds.retain_idx), set(ds.forget_idx)
    assert not retain & forget
    n_train = len(retain) + len(forget)
    assert len(forget) == int(0.3 * n_train)


def test_classwise_split_hits_whole_classes():
    ds = split_classwise(gen_blobs(40, 4, 3, 2.0, 1.0, seed=3), 0.25, seed=3)
    assert len(ds.forgotten_classes) == 1
    cls = ds.forgotten_classes[0]
    assert set(ds.labels[ds.forget_idx]) == {cls}
    assert cls not in set(ds.labels[ds.retain_idx])


def test_split_objective_views():
    ds = split_random(gen_blobs(30, 3, 4, 2.0, 1.0, seed=4), 0.3, seed=4)
    spec = logistic_spec(4, 3)
    for which in ("retain", "forget", "train", "test"):
        obj = split_objective(ds, spec, which)
        assert obj.n_examples == len(ds.indices(which))
    with pytest.raises(ValueError):
        split_objective(ds, spec, "nope")


def test_classwise_test_halves():
    ds = split_classwise(gen_blobs(40, 4, 3, 2.0, 1.0, seed=5), 0.25, seed=5)
    tr = ds.indices("test_retain")
    tf = ds.indices("test_forget")
    assert len(tr) + len(tf) == len(ds.test_idx)
    assert set(ds.labels[tf]) <= set(ds.forgotten_classes)


def test_uds_roundtrip(tmp_path):
    ds = split_random(gen_blobs(25, 3, 4, 2.0, 1.0, seed=6), 0.3, seed=6)
    path = tmp_path / "toy.uds"
    save_uds(ds, path)
    back = load_uds(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.retain_idx, ds.retain_idx)
    assert np.array_equal(back.forget_idx, ds.forget_idx)
    assert np.array_equal(back.test_idx, ds.test_idx)
    # byte-stable: saving the loaded dataset reproduces the file exactly
    path2 = tmp_path / "toy2.uds"
    save_uds(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_uds_header_names_no_dtype_and_files_that_do_still_load(tmp_path):
    ds = split_random(gen_blobs(25, 3, 4, 2.0, 1.0, seed=6), 0.3, seed=6)
    path = tmp_path / "toy.uds"
    save_uds(ds, path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    assert "dtype" not in header and "label_dtype" not in header
    # schema version 1 as written when the header also named both dtypes
    old = tmp_path / "old.uds"
    old.write_bytes(json.dumps(dict(header, dtype="f64le", label_dtype="i64le"),
                               sort_keys=True).encode() + b"\n" + payload)
    back = load_uds(old)
    for name in ("features", "labels", "retain_idx", "forget_idx", "test_idx"):
        assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
    assert back.provenance == ds.provenance
    save_uds(back, tmp_path / "again.uds")
    assert (tmp_path / "again.uds").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("cut, message", [(-3, "truncated"), (-8 * 80, "truncated"),
                                          (5, "trailing bytes")],
                         ids=["labels-short", "features-short", "trailing"])
def test_uds_wrong_payload_length_is_named(tmp_path, cut, message):
    ds = split_random(gen_blobs(25, 3, 4, 2.0, 1.0, seed=6), 0.3, seed=6)
    path = tmp_path / "toy.uds"
    save_uds(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:cut] if cut < 0 else blob + b"\0" * cut)
    expected = 75 * 4 * 8 + 75 * 8
    with pytest.raises(ValueError, match=f"^{message}.* .uds file: expected {expected} bytes"):
        load_uds(path)


def test_empty_forget_rejected():
    ds = gen_blobs(10, 2, 3, 2.0, 1.0, seed=7)
    with pytest.raises(ValueError):
        split_random(ds, 0.0, seed=7)


_INDEX_ITEMS = (st.integers(-3, 3) | st.integers(2**63 - 2, 2**63 + 1) | st.booleans()
                | st.floats(-1, 4) | st.none() | st.text(max_size=2) | st.lists(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(value=st.lists(_INDEX_ITEMS, max_size=5))
@example(value=[0, 2**63 - 1])
@example(value=[2**63])
@example(value=[-1])
@example(value=[True])
@example(value=[1.0])
def test_uds_header_check_refuses_the_values_is_int_refuses(value):
    """The one-pass index check against the per-element rule it replaced,
    on the values JSON parses to (integers of any size among them)."""
    header = json.loads(json.dumps({
        "schema_version": UDS_SCHEMA_VERSION, "n": 4, "p": 2, "retain_idx": [0],
        "forget_idx": [], "test_idx": value, "forgotten_classes": [], "provenance": {}}))
    try:
        _check_uds_header(header)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == all(is_int(i) and 0 <= i < 2**63 for i in header["test_idx"])
