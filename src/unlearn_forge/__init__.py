"""Desk-scale machine unlearning laboratory.

Building blocks: deterministic numerics (:mod:`numcore`), differentiable
objectives (:mod:`models`), matrix-free extreme-eigenvalue estimation
(:mod:`spectral`), optimizers and reference oracles (:mod:`training`),
synthetic data and forgetting splits (:mod:`datasets`), the
influence-eliminating unlearning framework and baselines
(:mod:`unlearning`), the relearning convergence delay metric and
evaluation reports (:mod:`metrics`), and the analytic verification suite
(:mod:`verify`) behind the ``unlearn-forge`` CLI (:mod:`cli`).
"""

from .numcore import derive_stream, kaiming_sample
from .models import (
    ModelSpec,
    Objective,
    make_quadratic,
    make_classifier,
    quadratic_spec,
    logistic_spec,
    mlp_spec,
)
from .spectral import SpectralEstimate, lambda_max, condition_number, estimate_spectrum
from .datasets import (
    SplitDataset,
    gen_blobs,
    split_random,
    split_classwise,
    split_objective,
    save_uds,
    load_uds,
)
from .training import (
    OptimizerConfig,
    TrainTrace,
    DivergenceError,
    train,
    retrain_oracle,
    forget_oracle,
)
from .checkpoints import Checkpoint, CheckpointError, save_checkpoint, load_checkpoint
from .unlearning import (
    UnlearnConfig,
    UnlearnRun,
    irp_run,
    unlearn,
)
from .metrics import RcdReport, EvalReport, MiaResult, rcd, eval_report
from .unlearning import RetainBoundReport, retain_bound_monitor
from .verify import CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"
