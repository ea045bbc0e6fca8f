"""Deterministic numeric foundation: flat float64 parameter vectors and
splittable counter-based random streams.

All randomness in the library flows through :class:`RngStream`, which wraps
numpy's Philox 4x64 counter-based generator keyed by ``(root_seed,
stream_id)``. The same key reproduces the same draw sequence bit-for-bit on
any platform; distinct stream ids give statistically independent streams and
can be used concurrently without coordination.

Parameter vectors are plain 1-D ``float64`` numpy arrays;
:func:`check_finite` guards them at the boundaries.

Every report, trace and manifest the library writes becomes bytes here:
:func:`jsonable` turns results into plain JSON values, :func:`write_json`
and :func:`write_csv` write the one JSON and the one CSV layout.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = [
    "RngStream",
    "derive_stream",
    "kaiming_sample",
    "check_finite",
    "jsonable",
    "write_json",
    "write_csv",
]


class RngStream:
    """A seeded, splittable random stream (Philox 4x64).

    Owned by exactly one logical task; derive separate streams for
    concurrent work instead of sharing one.
    """

    def __init__(self, root_seed: int, stream_id: int):
        if root_seed < 0 or stream_id < 0:
            raise ValueError("root_seed and stream_id must be non-negative")
        self.root_seed = int(root_seed)
        self.stream_id = int(stream_id)
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def normal(self, scale: float, size: int) -> np.ndarray:
        return self.gen.normal(0.0, scale, size=size)

    def standard_normal(self, size: int) -> np.ndarray:
        return self.gen.standard_normal(size)

    def uniform(self, low: float, high: float, size=None):
        return self.gen.uniform(low, high, size=size)

    def integers(self, high: int, size=None) -> np.ndarray:
        return self.gen.integers(0, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def choice(self, n: int, size: int) -> np.ndarray:
        return self.gen.choice(n, size=size, replace=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(root_seed={self.root_seed}, stream_id={self.stream_id})"


def derive_stream(root_seed: int, stream_id: int) -> RngStream:
    """Create a deterministic stream for ``(root_seed, stream_id)``."""
    return RngStream(root_seed, stream_id)


def kaiming_sample(d: int, rng: RngStream) -> np.ndarray:
    """Draw a fresh parameter vector with i.i.d. Normal(0, 2/d) entries."""
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    theta = rng.normal(np.sqrt(2.0 / d), d)
    return theta


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {what}")


def jsonable(value):
    """``value`` as plain JSON values: dataclasses become dicts of their
    fields, tuples and arrays lists, numpy scalars Python ones."""
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def write_json(path, value) -> None:
    """The one JSON layout of every report and manifest: sorted keys,
    indent 2, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(jsonable(value), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_csv(dest, header, rows) -> None:
    """The one CSV layout of every table: ``None`` is an empty cell, a
    float, numpy or not, its shortest repr, and a cell holding a comma, a
    quote or a line break is quoted. ``dest`` is a path or an open text
    stream such as ``sys.stdout``."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as fh:
            return write_csv(fh, header, rows)
    writer = csv.writer(dest)
    writer.writerow(header)
    writer.writerows(rows)
