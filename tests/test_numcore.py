import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unlearn_forge.numcore import (
    derive_stream,
    kaiming_sample,
    check_finite,
    norm,
)


def test_same_key_same_bits():
    a = derive_stream(42, 7).standard_normal(1000)
    b = derive_stream(42, 7).standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = derive_stream(42, 7).standard_normal(1000)
    b = derive_stream(42, 8).standard_normal(1000)
    assert not np.array_equal(a, b)


def test_key_layout_is_pinned():
    """Philox keyed by ``[root_seed, stream_id]``: these draws fix the layout."""
    assert derive_stream(42, 7).standard_normal(3).tolist() == [
        -0.3485299519982578, 0.26246809786092623, 0.14432400086552669]


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        derive_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_stream(0, -3)


@pytest.mark.parametrize("key", [(2**64, 0), (0, 2**64)])
def test_key_of_2_to_the_64_rejected(key):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        derive_stream(*key)


@pytest.mark.parametrize("key", [(1.5, 3), (0, 2.0), (True, 3), (1, np.float64(3.0)), ("1", 3)],
                         ids=["float-seed", "float-id", "bool", "numpy-float", "str"])
def test_non_integer_key_rejected(key):
    # numpy would truncate 1.5 to 1 and run another seed's stream
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\) and be an integer"):
        derive_stream(*key)


def test_numpy_integer_key_is_the_int_key():
    a = derive_stream(np.uint64(1), np.int64(3)).standard_normal(4)
    assert np.array_equal(a, derive_stream(1, 3).standard_normal(4))


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


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e200], ids=["tiny", "unit", "overflowing"])
def test_norm_is_bitwise_linalg_norm(scale):
    rng = derive_stream(5, 5)
    for d in (1, 2, 7, 64, 1000):
        v = rng.normal(0.0, scale, d)
        with np.errstate(over="ignore"):  # both square-sums overflow to inf at 1e200
            assert repr(norm(v)) == repr(float(np.linalg.norm(v)))


SRC = Path(__file__).resolve().parents[1] / "src"

# Trains the README's desk MLP for argv[1] epochs in a fresh process and
# prints the process's minor page faults.
TRAIN_DESK_MLP = r"""
import resource, sys
from unlearn_forge.datasets import gen_blobs, split_random, split_objective
from unlearn_forge.models import mlp_spec
from unlearn_forge.numcore import derive_stream, kaiming_sample
from unlearn_forge.training import OptimizerConfig, train

ds = split_random(gen_blobs(200, 10, 8, 3.0, 2.0, 0), 0.3, 0)
spec = mlp_spec([8, 32, 32, 10])
train(split_objective(ds, spec, "train"), kaiming_sample(spec.param_count, derive_stream(0, 1)),
      OptimizerConfig(kind="adam", eta=0.01, max_epochs=int(sys.argv[1])), derive_stream(0, 2))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
"""

needs_glibc = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                 reason="numcore sets the heap thresholds on glibc only")


def _child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return {**env, **extra}


def _training_faults(epochs: int, **extra_env) -> int:
    proc = subprocess.run([sys.executable, "-c", TRAIN_DESK_MLP, str(epochs)],
                          env=_child_env(**extra_env), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@needs_glibc
def test_training_epochs_fault_no_memory_in_again():
    """99 more epochs reuse the heap the first one freed: under glibc's
    default trim policy they faulted about 120 pages in per epoch."""
    assert abs(_training_faults(100) - _training_faults(1)) < 1_000


@needs_glibc
def test_a_malloc_variable_leaves_glibc_alone():
    """With the user's ``MALLOC_TRIM_THRESHOLD_=0`` glibc trims after every
    epoch, so the same 99 epochs fault thousands of pages in again."""
    faults = [_training_faults(epochs, MALLOC_TRIM_THRESHOLD_="0") for epochs in (1, 100)]
    assert faults[1] - faults[0] > 5_000


@pytest.mark.parametrize("platform_patch", [
    "del os.confstr_names",  # Windows
    "os.confstr_names = {}",  # macOS
    "def confstr(name):\n    raise OSError(22, 'Invalid argument')\nos.confstr = confstr",  # musl
], ids=["windows", "macos", "musl"])
def test_import_calls_no_mallopt_off_glibc(platform_patch):
    code = f"import ctypes, os\n{platform_patch}\nctypes.CDLL = None\nimport unlearn_forge\n"
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
