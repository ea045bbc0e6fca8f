"""Binary model checkpoints with content hashing.

Layout: magic ``IEUC`` | u32 format version | u64 header length | JSON
header (role, model spec, config snapshot, root seed, dim) | ``d`` raw
little-endian float64 parameter values | 32-byte SHA-256 over everything
preceding it. Save -> load -> save is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec
from .numcore import read_json

__all__ = ["Checkpoint", "CheckpointError", "save_checkpoint", "load_checkpoint"]

MAGIC = b"IEUC"
FORMAT_VERSION = 1

ROLES = ("original", "retrain", "forget_oracle", "unlearned")


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    role: str
    spec: ModelSpec
    config: dict
    root_seed: int
    theta: np.ndarray
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown checkpoint role {self.role!r}")
        if not isinstance(self.config, dict) or not isinstance(self.extra, dict):
            raise ValueError("a checkpoint's config and extra must be dicts")
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        if self.theta.size != self.spec.param_count:
            raise ValueError("theta length does not match the model spec")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    header = json.dumps(
        {
            "role": ckpt.role,
            "model_spec": ckpt.spec.to_dict(),
            "config": ckpt.config,
            "root_seed": ckpt.root_seed,
            "dim": int(ckpt.theta.size),
            "extra": ckpt.extra,
        },
        sort_keys=True,
    ).encode("utf-8")
    body = (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<Q", len(header))
        + header
        + np.ascontiguousarray(ckpt.theta, dtype="<f8").tobytes()
    )
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; a ``CheckpointError`` for any file that
    is not one this module writes (an ``OSError`` if it cannot be read)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 48 or blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not an IEUC checkpoint")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: content hash mismatch")
    (version,) = struct.unpack("<I", body[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<Q", body[8:16])
    payload = body[16 + hlen :]
    try:
        header = read_json(body[16 : 16 + hlen].decode("utf-8"))
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        dim = header["dim"]
        if type(dim) is not int or len(payload) != 8 * dim:
            raise CheckpointError(f"{path}: parameter payload of {len(payload)} bytes does "
                                  f"not hold dim = {dim!r} float64 values")
        theta = np.frombuffer(payload, dtype="<f8").copy()
        ckpt = Checkpoint(
            role=header["role"],
            spec=ModelSpec.from_dict(header["model_spec"]),
            config=header["config"],
            root_seed=header["root_seed"],
            theta=theta,
            extra=header.get("extra", {}),
        )
    except KeyError as exc:
        raise CheckpointError(f"{path}: header lacks key {exc}") from exc
    except (ValueError, TypeError) as exc:  # not JSON, a value of a wrong type or a bad spec
        raise CheckpointError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(theta)):
        raise CheckpointError(f"{path}: non-finite parameters")
    return ckpt
