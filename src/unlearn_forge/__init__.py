"""Desk-scale machine unlearning laboratory.

Building blocks: deterministic numerics (:mod:`numcore`), differentiable
objectives (:mod:`models`), matrix-free extreme-eigenvalue estimation
(:mod:`spectral`), optimizers and reference oracles (:mod:`training`),
synthetic data and forgetting splits (:mod:`datasets`), the
influence-eliminating unlearning framework and baselines
(:mod:`unlearning`), the relearning convergence delay metric and
evaluation reports (:mod:`metrics`), and the analytic verification suite
(:mod:`verify`) behind the ``unlearn-forge`` CLI (:mod:`cli`).

Each public name lives in its module's ``__all__`` and is imported from
there (``from unlearn_forge.metrics import rcd``). ``import unlearn_forge``
loads only :mod:`numcore`.
"""

from . import numcore  # noqa: F401  so that ``import unlearn_forge`` tunes glibc's heap

__version__ = "0.1.0"
