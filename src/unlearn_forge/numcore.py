"""Deterministic numeric foundation: flat float64 parameter vectors and
splittable counter-based random streams.

All randomness in the library flows through :func:`derive_stream`, which
returns a numpy ``Generator`` over the Philox 4x64 counter-based bit
generator keyed by ``(root_seed, stream_id)``; callers use numpy's own
method signatures (``normal(loc, scale, size)``, ``choice(n, k,
replace=False)``, ...). The same key reproduces the same draw sequence
bit-for-bit on any platform; distinct stream ids give statistically
independent streams and can be used concurrently without coordination.

Parameter vectors are plain 1-D ``float64`` numpy arrays;
:func:`check_finite` guards them at the boundaries. :func:`is_int` and
:func:`is_real` judge every integer and number the library reads, the
config dataclasses' fields through :func:`check_field_types`.

Every report, trace and manifest the library writes becomes bytes here:
:func:`jsonable` turns results into plain JSON values, :func:`write_json`
and :func:`write_csv` write the one JSON and the one CSV layout, and
:func:`read_json` reads back every JSON input the library takes.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

__all__ = [
    "is_int",
    "is_real",
    "derive_stream",
    "kaiming_scale",
    "kaiming_sample",
    "check_finite",
    "norm",
    "check_field_types",
    "jsonable",
    "read_json",
    "write_json",
    "write_csv",
]


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is none."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a finite float or an integer that fits one, Python or numpy."""
    if isinstance(value, (float, np.floating)):
        return bool(np.isfinite(value))
    return bool(is_int(value) and -sys.float_info.max <= value <= sys.float_info.max)


def derive_stream(root_seed: int, stream_id: int) -> np.random.Generator:
    """The Philox 4x64 generator keyed by ``(root_seed, stream_id)``, each
    an integer in [0, 2**64). Owned by exactly one logical task; derive separate
    streams for concurrent work instead of sharing one."""
    for name, value in (("root_seed", root_seed), ("stream_id", stream_id)):
        if not (is_int(value) and 0 <= value < 2**64):
            raise ValueError(f"{name} must lie in [0, 2**64) and be an integer, not {value!r}")
    key = np.array([root_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def kaiming_scale(d: int) -> float:
    """The standard deviation sqrt(2/d) of the Kaiming law Normal(0, 2/d)
    for a parameter vector of size ``d``; a ``ValueError`` unless d >= 1."""
    if d < 1:
        raise ValueError(f"invalid dimension d={d}; need d >= 1")
    return math.sqrt(2.0 / d)


def kaiming_sample(d: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh parameter vector with i.i.d. Normal(0, 2/d) entries."""
    return rng.normal(0.0, kaiming_scale(d), d)


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")


def norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` of a contiguous 1-D float64 array, bit
    for bit: that is ``sqrt(v.dot(v))``, here without its dispatch."""
    return math.sqrt(v.dot(v))


def check_field_types(config) -> None:
    """A ``ValueError`` naming the first field of dataclass ``config``
    annotated ``int`` that holds no :func:`is_int` value, or ``float`` no
    :func:`is_real` one."""
    for f in fields(config):
        rule, want = {"int": (is_int, "an integer"),
                      "float": (is_real, "a finite number")}.get(f.type, (None, None))
        if rule and not rule(value := getattr(config, f.name)):
            raise ValueError(f"{f.name} must be {want}, not {value!r}")


def jsonable(value):
    """``value`` as plain JSON values: dataclasses become dicts of their
    fields, tuples and arrays lists, numpy scalars Python ones."""
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def read_json(text):
    """The value of JSON ``text``; a ``ValueError`` if it is no JSON or
    nests too deeply to parse."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nests too deeply to parse") from exc


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
