"""Synthetic classification data, forgetting splits, and the ``.uds``
dataset file format.

A :class:`SplitDataset` carries the full feature/label arrays plus three
index sets: retain and forget (disjoint, together covering the train
partition) and test. Class-wise forgetting additionally records which
class ids were forgotten, so the test set can be partitioned the same way.

The ``.uds`` file is a single-line JSON header (schema version, shapes,
split indices, provenance) followed by raw little-endian float64 feature
bytes and int64 label bytes, which makes round-trips bit-exact; schema
version 1 fixes both dtypes, so the header names neither.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .models import Objective, ModelSpec, make_classifier
from .numcore import derive_stream, is_int, is_real, read_json

__all__ = [
    "SplitDataset",
    "gen_blobs",
    "split_random",
    "split_classwise",
    "split_objective",
    "save_uds",
    "load_uds",
]

UDS_SCHEMA_VERSION = 1

# fixed stream ids so the same seed never reuses draws across stages
_STREAM_CENTERS = 101
_STREAM_POINTS = 102
_STREAM_TESTSPLIT = 103
_STREAM_FORGET = 104


@dataclass(frozen=True)
class SplitDataset:
    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int64
    retain_idx: np.ndarray
    forget_idx: np.ndarray
    test_idx: np.ndarray
    forgotten_classes: tuple = ()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.features)
        if len(self.labels) != n:
            raise ValueError("features/labels length mismatch")
        all_idx = np.concatenate([self.retain_idx, self.forget_idx, self.test_idx])
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= n):
            raise ValueError("split index out of range")
        ordered = np.sort(all_idx)  # not np.unique, which imports numpy.ma
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("retain/forget/test index sets must be disjoint")
        if len(all_idx) != n:
            raise ValueError("splits must cover the dataset")

    @property
    def train_idx(self) -> np.ndarray:
        return np.sort(np.concatenate([self.retain_idx, self.forget_idx]))

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def indices(self, which: str) -> np.ndarray:
        if which == "retain":
            return self.retain_idx
        if which == "forget":
            return self.forget_idx
        if which == "train":
            return self.train_idx
        if which == "test":
            return self.test_idx
        if which in ("test_retain", "test_forget"):
            if not self.forgotten_classes:
                raise ValueError("test split halves need class-wise forgetting metadata")
            mask = np.isin(self.labels[self.test_idx], self.forgotten_classes)
            return self.test_idx[mask] if which == "test_forget" else self.test_idx[~mask]
        raise ValueError(f"unknown split {which!r}")


def gen_blobs(n_per_class: int, C: int, p: int, separation: float, noise_sd: float,
              seed: int) -> SplitDataset:
    """Gaussian clusters at seed-deterministic centers, stratified 80/20
    train/test, with the whole train partition initially retained."""
    for name, value in (("n_per_class", n_per_class), ("C", C), ("p", p)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if n_per_class < 2:  # the test split takes at least one point of each class
        raise ValueError(f"n_per_class must be >= 2, not {n_per_class}")
    if C < 2:
        raise ValueError("need at least 2 classes")
    if p < 2:
        raise ValueError("need at least 2 features")
    for name, value in (("separation", separation), ("noise_sd", noise_sd)):
        if not (is_real(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, not {value!r}")
    center_rng = derive_stream(seed, _STREAM_CENTERS)
    centers = None
    # a huge scale overflows the distances or X; the vdot rule below refuses it by name
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(200):
            cand = center_rng.normal(0.0, separation, C * p).reshape(C, p)
            dists = np.linalg.norm(cand[:, None, :] - cand[None, :, :], axis=-1)
            np.fill_diagonal(dists, np.inf)
            if dists.min() >= separation:
                centers = cand
                break
        if centers is None:
            raise ValueError(
                f"could not place {C} centers with pairwise separation {separation} in {p}-d"
            )

        point_rng = derive_stream(seed, _STREAM_POINTS)
        noise = point_rng.normal(0.0, noise_sd, C * n_per_class * p).reshape(C * n_per_class, p)
        X = np.repeat(centers, n_per_class, axis=0) + noise
    # ||X||_F^2, which every HVP sums over, can overflow while each feature is finite
    if not math.isfinite(np.vdot(X, X)):
        raise ValueError(f"separation {separation} and noise_sd {noise_sd} overflow the features")
    y = np.repeat(np.arange(C, dtype=np.int64), n_per_class)

    split_rng = derive_stream(seed, _STREAM_TESTSPLIT)
    n_test_per_class = max(1, n_per_class // 5)
    test_parts = []
    for c in range(C):
        cls_idx = np.arange(c * n_per_class, (c + 1) * n_per_class)
        test_parts.append(cls_idx[split_rng.permutation(n_per_class)[:n_test_per_class]])
    test_idx = np.sort(np.concatenate(test_parts))
    in_test = np.zeros(C * n_per_class, dtype=bool)  # not np.setdiff1d, which imports numpy.ma
    in_test[test_idx] = True
    train_idx = np.flatnonzero(~in_test)

    return SplitDataset(
        features=X,
        labels=y,
        retain_idx=train_idx,
        forget_idx=np.array([], dtype=np.int64),
        test_idx=test_idx,
        provenance={
            "generator": "blobs",
            "n_per_class": n_per_class,
            "classes": C,
            "features": p,
            "separation": separation,
            "noise_sd": noise_sd,
            "seed": seed,
        },
    )


def _check_fraction(fraction) -> None:
    """Both splits' refusal of a forget fraction that is no ``is_real`` in (0, 1)."""
    if not (is_real(fraction) and 0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0, 1), not {fraction!r}")


def split_random(ds: SplitDataset, fraction: float, seed: int) -> SplitDataset:
    """Mark a seeded uniform sample of floor(fraction * |train|) train
    examples as the forgetting set."""
    _check_fraction(fraction)
    train = ds.train_idx
    k = int(np.floor(fraction * len(train)))
    if k == 0 or k == len(train):
        raise ValueError(f"fraction {fraction} yields an empty retain or forget set")
    rng = derive_stream(seed, _STREAM_FORGET)
    forgotten = np.zeros(len(train), dtype=bool)
    forgotten[rng.choice(len(train), k, replace=False)] = True
    forget, retain = train[forgotten], train[~forgotten]  # train_idx is sorted
    prov = dict(ds.provenance, split="random", forget_fraction=fraction, split_seed=seed)
    return replace(ds, retain_idx=retain, forget_idx=forget, forgotten_classes=(),
                   provenance=prov)


def split_classwise(ds: SplitDataset, fraction: float, seed: int) -> SplitDataset:
    """Forget all train examples of round(fraction * C) seeded-random classes."""
    _check_fraction(fraction)
    C = ds.num_classes
    if C < 2:
        raise ValueError("class-wise forgetting needs at least 2 classes")
    k = int(round(fraction * C))
    if k == 0 or k == C:
        raise ValueError(f"fraction {fraction} selects {k} of {C} classes")
    rng = derive_stream(seed, _STREAM_FORGET)
    classes = tuple(sorted(int(c) for c in rng.choice(C, k, replace=False)))
    train = ds.train_idx
    mask = np.isin(ds.labels[train], classes)
    prov = dict(ds.provenance, split="classwise", forget_fraction=fraction, split_seed=seed,
                forgotten_classes=list(classes))
    return replace(ds, retain_idx=train[~mask], forget_idx=train[mask],
                   forgotten_classes=classes, provenance=prov)


def split_objective(ds: SplitDataset, spec: ModelSpec, which: str) -> Objective:
    """Classification objective over one split view of the dataset."""
    idx = ds.indices(which)
    if len(idx) == 0:
        raise ValueError(f"split {which!r} is empty")
    return make_classifier(spec, ds.features[idx], ds.labels[idx])


# ---------------------------------------------------------------------------
# .uds serialization


def save_uds(ds: SplitDataset, path) -> None:
    header = {
        "schema_version": UDS_SCHEMA_VERSION,
        "n": len(ds.features),
        "p": ds.features.shape[1],
        "retain_idx": ds.retain_idx.tolist(),
        "forget_idx": ds.forget_idx.tolist(),
        "test_idx": ds.test_idx.tolist(),
        "forgotten_classes": list(ds.forgotten_classes),
        "provenance": ds.provenance,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(ds.features, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())


def _check_uds_header(header) -> None:
    """Raise a ``ValueError`` naming the first key a ``.uds`` header lacks
    or holds a bad value for."""
    if not isinstance(header, dict):
        raise ValueError(f".uds header must be a JSON object, not {type(header).__name__}")
    if header.get("schema_version") != UDS_SCHEMA_VERSION:
        raise ValueError(f"unsupported .uds schema version {header.get('schema_version')}")
    for key in ("n", "p", "retain_idx", "forget_idx", "test_idx", "forgotten_classes",
                "provenance"):
        if key not in header:
            raise ValueError(f".uds header lacks key {key!r}")
        value = [header[key]] if key in ("n", "p") else header[key]
        if not (isinstance(value, dict) if key == "provenance" else (isinstance(value, list)
                and {type(i) for i in value} <= {int}
                and 0 <= min(value, default=0) <= max(value, default=0) < 2**63)):
            raise ValueError(f".uds header key {key!r} holds a bad value: {header[key]!r}")


def load_uds(path) -> SplitDataset:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = read_json(header_line.decode("utf-8"))
        _check_uds_header(header)
        n, p = header["n"], header["p"]
        payload = fh.read()
    expected = n * p * 8 + n * 8
    if len(payload) != expected:
        problem = "truncated" if len(payload) < expected else "trailing bytes in"
        raise ValueError(f"{problem} .uds file: expected {expected} bytes of features and "
                         f"labels after the header, found {len(payload)}")
    feat = np.frombuffer(payload, dtype="<f8", count=n * p).reshape(n, p).copy()
    labels = np.frombuffer(payload, dtype="<i8", offset=n * p * 8).copy()
    return SplitDataset(
        features=feat,
        labels=labels,
        retain_idx=np.asarray(header["retain_idx"], dtype=np.int64),
        forget_idx=np.asarray(header["forget_idx"], dtype=np.int64),
        test_idx=np.asarray(header["test_idx"], dtype=np.int64),
        forgotten_classes=tuple(header["forgotten_classes"]),
        provenance=header["provenance"],
    )
