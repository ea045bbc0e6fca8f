"""Span tracer that wraps the public functions of ``unlearn_forge`` from
outside the package.

``install()`` replaces each traced function in every ``unlearn_forge``
module namespace that holds it (a name imported with ``from .x import f``
is a separate binding, so ``metrics.estimate_spectrum`` and
``spectral.estimate_spectrum`` are both patched) and each traced method on
``models.Objective``. Spans stay in memory until the run writes them out;
:class:`Totals` turns them into per-layer totals, with a span's self time
equal to its duration minus the durations of its direct children.
"""

import functools
import json
import os
import sys
import time

# Objective methods traced as ``models.<name>``.
MODEL_METHODS = ("value", "gradient", "hvp", "accuracy", "per_example_loss", "logits",
                 "grad_from_logit_delta")


def _size_of_path(args, kwargs, index):
    return {"bytes": os.path.getsize(args[index] if len(args) > index else kwargs["path"])}


# (module, function, extractor of span attributes from (result, args, kwargs))
FUNCTIONS = (
    ("spectral", "estimate_spectrum", lambda r, a, k: {"iterations": r.iterations_used}),
    ("spectral", "lambda_max", lambda r, a, k: {"iterations": r[1]["iterations"]}),
    ("numcore", "kaiming_sample", None),
    ("training", "train", lambda r, a, k: {"epochs": len(r.records) - 1}),
    ("unlearning", "unlearn", lambda r, a, k: {"epochs": len(r.trace)}),
    ("unlearning", "irp_run", None),
    ("metrics", "rcd", lambda r, a, k: {"epochs": r.K}),
    ("metrics", "eval_report", None),
    ("datasets", "gen_blobs", None),
    ("datasets", "save_uds", lambda r, a, k: _size_of_path(a, k, 1)),
    ("datasets", "load_uds", lambda r, a, k: _size_of_path(a, k, 0)),
    ("checkpoints", "save_checkpoint", lambda r, a, k: _size_of_path(a, k, 1)),
    ("checkpoints", "load_checkpoint", lambda r, a, k: _size_of_path(a, k, 0)),
    ("cli", "cli", None),
)

# Spans whose epochs are the denominator of ``models.evals_per_epoch``.
EPOCH_LOOPS = ("training.train", "unlearning.unlearn", "metrics.rcd")
SPECTRAL = ("spectral.estimate_spectrum", "spectral.lambda_max")


class Tracer:
    """In-memory spans: ``[name, start, end, parent_index, attrs]``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if extract is not None:
                spans[index][4] = extract(result, args, kwargs)
            return result
        return traced

    def install(self):
        """Patch every traced name; call after importing ``unlearn_forge.cli``."""
        import unlearn_forge.cli  # noqa: F401  loads every submodule
        from unlearn_forge import models

        for method in MODEL_METHODS:
            original = getattr(models.Objective, method)
            setattr(models.Objective, method, self.wrap(f"models.{method}", original))
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "unlearn_forge" or n.startswith("unlearn_forge."))]
        for module_name, func_name, extract in FUNCTIONS:
            original = getattr(sys.modules[f"unlearn_forge.{module_name}"], func_name)
            wrapped = self.wrap(f"{module_name}.{func_name}", original, extract)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        return self


def write_traces(path, groups):
    """Write ``(header, spans)`` groups as JSON lines: a header object
    followed by one ``[name, start, end, parent, attrs]`` list per span."""
    with open(path, "w") as fh:
        for header, spans in groups:
            fh.write(json.dumps(header) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def read_traces(path):
    groups = []
    with open(path) as fh:
        for line in fh:
            item = json.loads(line)
            if isinstance(item, dict):
                groups.append((item, []))
            else:
                groups[-1][1].append(item)
    return groups


def _self_times(spans):
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    return self_s


def _has_ancestor(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


class Totals:
    """Per-layer sums over the spans of one or more processes."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.attrs = {}
        self.loop_evals = 0  # value/gradient/accuracy/logits inside an epoch loop
        self.spectral_hvps = 0  # hvp calls inside a spectral estimate
        self.spectral_outer = 0  # spectral calls not nested in another spectral call
        self.spectral_iterations = 0
        self.rcd_commands = 0
        self.rcd_command_trains = 0

    def add(self, spans, command=None):
        """Add the spans of one process; ``command`` names the CLI command
        that process ran, if any."""
        if command == "rcd":
            self.rcd_commands += 1
            self.rcd_command_trains += sum(s[0] == "training.train" for s in spans)
        for index, (span, self_s) in enumerate(zip(spans, _self_times(spans))):
            name, attrs = span[0], span[4] or {}
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_s
            for key, value in attrs.items():
                self.attrs[(name, key)] = self.attrs.get((name, key), 0) + value
            if name in ("models.value", "models.gradient", "models.accuracy", "models.logits"):
                if _has_ancestor(spans, index, EPOCH_LOOPS):
                    self.loop_evals += 1
            elif name == "models.hvp" and _has_ancestor(spans, index, SPECTRAL):
                self.spectral_hvps += 1
            elif name in SPECTRAL and not _has_ancestor(spans, index, SPECTRAL):
                self.spectral_outer += 1
                self.spectral_iterations += attrs["iterations"]

    def metrics(self):
        """Flat ``{name: (value, unit)}`` for every per-layer metric."""
        out = {}

        def calls(name):
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")

        def self_time(name):
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")

        def attr(name, key, metric, unit):
            out[metric] = (self.attrs.get((name, key), 0), unit)

        for method in MODEL_METHODS:
            calls(f"models.{method}")
            self_time(f"models.{method}")
        epochs = sum(self.attrs.get((loop, "epochs"), 0) for loop in EPOCH_LOOPS)
        out["models.evals_per_epoch"] = (self.loop_evals / epochs if epochs else 0.0,
                                         "evals/epoch")
        for name in SPECTRAL:
            calls(name)
            self_time(name)
        out["spectral.iterations"] = (self.spectral_iterations, "count")
        out["spectral.hvp_per_call"] = (
            self.spectral_hvps / self.spectral_outer if self.spectral_outer else 0.0, "hvp/call")
        calls("numcore.kaiming_sample")
        self_time("numcore.kaiming_sample")
        self_time("unlearning.irp_run")
        for loop in EPOCH_LOOPS:
            calls(loop)
            self_time(loop)
            attr(loop, "epochs", f"{loop}.epochs", "count")
        calls("metrics.eval_report")
        self_time("metrics.eval_report")
        for name in ("gen_blobs", "save_uds", "load_uds"):
            self_time(f"datasets.{name}")
        calls("datasets.load_uds")
        out["datasets.uds_bytes"] = (self.attrs.get(("datasets.save_uds", "bytes"), 0)
                                     + self.attrs.get(("datasets.load_uds", "bytes"), 0), "bytes")
        for name in ("save_checkpoint", "load_checkpoint"):
            self_time(f"checkpoints.{name}")
        calls("checkpoints.load_checkpoint")
        out["checkpoints.ieuc_bytes"] = (
            self.attrs.get(("checkpoints.save_checkpoint", "bytes"), 0)
            + self.attrs.get(("checkpoints.load_checkpoint", "bytes"), 0), "bytes")
        out["cli.command.self_s"] = (self.self_s.get("cli.cli", 0.0), "s")
        out["cli.train_per_rcd"] = (
            self.rcd_command_trains / self.rcd_commands if self.rcd_commands else 0.0, "train/rcd")
        return out
