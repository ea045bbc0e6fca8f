"""Command-line front end.

Each setting of a command is declared once, as a flag of its subparser
with its default. A ``--config`` JSON file becomes that subparser's
defaults, so argparse resolves CLI flags > ``--config`` file > defaults.
Every artifact-producing command hashes its resolved settings plus seed
(None for ``eval``, which draws nothing and takes no ``--seed``) into an
experiment id, and writes

    <runs-root>/<experiment-id>/
        manifest.json  config, seed, working directory and the path of every
                       file the run wrote
        checkpoints/   binary model checkpoints
        reports/       JSON and CSV metric reports
        traces/        per-epoch CSV traces
    <runs-root>/oracles/<key>.ieuc   forget oracles cached by ``rcd``

with only those subdirectories that the command's files go in. ``rcd``
trains every forget oracle with ``training.FORGET_ORACLE_CONFIG``, and
``retrain`` with the optimizer config held by the checkpoint that ``train``
wrote.

The runs root defaults to ``./runs`` and can be overridden with the
``UNLEARN_FORGE_RUNS_DIR`` environment variable; set empty, it means the
default. Exit codes: 0 on success, 1 on usage errors, bad inputs, corrupt
files and diverged runs, 2 when the verification suite fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checkpoints import Checkpoint, CheckpointError, save_checkpoint, load_checkpoint
from .datasets import gen_blobs, split_random, split_classwise, split_objective, save_uds, load_uds
from .models import ModelSpec, logistic_spec, mlp_spec
from .metrics import rcd, eval_report, EvalReport
from .numcore import derive_stream, is_int, is_real, read_json, write_csv, write_json
from .training import (FORGET_ORACLE_CONFIG, OPTIMIZER_KINDS, PHI_KINDS, OptimizerConfig,
                       DivergenceError, _fit, retrain_oracle, forget_oracle, trace_to_csv)
from .unlearning import METHODS, EpochRow, UnlearnConfig, unlearn
from . import verify as verify_mod

__all__ = ["main", "cli"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# run directories


def _runs_root() -> Path:
    return Path(os.environ.get("UNLEARN_FORGE_RUNS_DIR") or "runs")  # empty means unset


def _settings(parser: argparse.ArgumentParser) -> dict:
    """A command's settings: its flags but ``--help``, ``--seed`` and ``--config``."""
    return {a.dest: a for a in parser._actions if a.dest not in ("help", "seed", "config")}


def _read_config(path, parser: argparse.ArgumentParser) -> dict:
    """The values of a ``--config`` file as their flags would give them: one
    of a flag's choices, an ``is_int`` for an int flag, an ``is_real`` for a
    float flag, else a string, converted by the flag's type (``1`` to ``1.0``)."""
    from_file = read_json(Path(path).read_text())
    if not isinstance(from_file, dict):
        raise UsageError("--config must hold a JSON object")
    flags = _settings(parser)
    unknown = set(from_file) - set(flags)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in from_file.items():
        rule, want = {int: (is_int, "an integer"), float: (is_real, "a finite number")}.get(
            flags[key].type, (lambda v: isinstance(v, str), "a string"))
        if flags[key].choices is not None:
            rule, want = flags[key].choices.__contains__, f"one of {flags[key].choices}"
        if not rule(value):
            raise UsageError(f"config key {key!r} must be {want}, not {value!r}")
    return {key: value if flags[key].type is None else flags[key].type(value)
            for key, value in from_file.items()}


def _write_run(command: str, cfg: dict, seed, files: dict, **facts):
    """Write one run: each of ``files``, ``{artifact: (path, write)}`` with
    ``path`` relative to the run directory and ``write(path)`` writing it,
    then ``manifest.json``, whose ``artifacts`` are the paths written plus
    ``facts`` and whose ``cwd``, the working directory, is what relative
    paths in ``cfg`` and ``artifacts`` resolve against. The runs root is
    made first, then only the directories of the run that those files go
    in; a file bound outside the run whose directory is missing fails with
    nothing written under the runs root.
    Returns the experiment id and the paths written, by artifact."""
    blob = json.dumps({"command": command, "config": cfg, "seed": seed},
                      sort_keys=True).encode()
    exp_id = hashlib.sha256(blob).hexdigest()[:12]
    run_dir = _runs_root() / exp_id
    run_dir.parent.mkdir(parents=True, exist_ok=True)
    paths = {}
    for artifact, (path, write) in files.items():
        paths[artifact] = path = run_dir / path
        if run_dir in path.parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
    run_dir.mkdir(exist_ok=True)
    write_json(run_dir / "manifest.json", {
        "command": command,
        "experiment_id": exp_id,
        "config": cfg,
        "seed": seed,
        "cwd": os.getcwd(),
        "artifacts": {**{k: str(path) for k, path in paths.items()}, **facts},
        "created": datetime.now(timezone.utc).isoformat(),
    })
    return exp_id, paths


# ---------------------------------------------------------------------------
# shared argument parsing helpers


def _parse_model(text: str) -> ModelSpec:
    kind, _, rest = text.partition(":")
    try:
        if kind == "logistic":
            p, C = (int(x) for x in rest.split(","))
            return logistic_spec(p, C)
        if kind == "mlp":
            dims = [int(x) for x in rest.split(",")]
            return mlp_spec(dims)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad model spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown model kind {kind!r}; use logistic:p,C or mlp:d0,d1,...")


def _parse_step(text: str):
    """``fixed:<eta>`` or ``adaptive`` -> relearning OptimizerConfig kwargs."""
    if text == "adaptive":
        return {"kind": "gd_adaptive", "eta": 1.0}
    mode, _, eta = text.partition(":")
    if mode == "fixed" and eta:
        try:
            return {"kind": "gd_fixed", "eta": float(eta)}
        except ValueError as exc:
            raise UsageError(f"bad step size in {text!r}") from exc
    raise UsageError(f"bad --step {text!r}; use fixed:<eta> or adaptive")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(cfg: dict, seed) -> int:
    ds = gen_blobs(cfg["n_per_class"], cfg["classes"], cfg["features"],
                   cfg["separation"], cfg["noise_sd"], seed)
    split = split_random if cfg["split"] == "random" else split_classwise
    ds = split(ds, cfg["forget_fraction"], seed)
    out = Path(cfg["out"]) if cfg["out"] else None  # recorded absolute, printed as given
    exp_id, paths = _write_run("gen-data", cfg, seed, {
        "dataset": (out.absolute() if out else "dataset.uds", lambda path: save_uds(ds, path))})
    print(f"{exp_id}\t{out or paths['dataset']}")
    return 0


def _cmd_train(cfg: dict, seed) -> int:
    ds = load_uds(cfg["data"])
    spec = _parse_model(cfg["model"])
    ocfg = OptimizerConfig(kind=cfg["optimizer"], eta=cfg["eta"], max_epochs=cfg["epochs"],
                           batch_size="full" if cfg["batch_size"] is None else cfg["batch_size"])
    ckpt, trace = _fit(ds, spec, ocfg, seed, "train", (11, 12))
    exp_id, paths = _write_run("train", cfg, seed, {
        "checkpoint": ("checkpoints/original.ieuc", lambda path: save_checkpoint(ckpt, path)),
        "trace": ("traces/train.csv", lambda path: trace_to_csv(trace, path))})
    final = trace.records[-1]
    print(f"{exp_id}\t{paths['checkpoint']}\tloss={final.loss:.6g}\tacc={final.accuracy}")
    return 0


def _cmd_retrain(cfg: dict, seed) -> int:
    ds = load_uds(cfg["data"])
    original = load_checkpoint(cfg["ckpt"])
    try:  # the retrain reference repeats the training that produced the original
        ocfg = OptimizerConfig(**original.config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{cfg['ckpt']}: retrain needs the checkpoint train wrote, which "
                              f"must hold an optimizer config of this version ({exc})") from exc
    ck = retrain_oracle(ds, original.spec, ocfg, seed)
    exp_id, paths = _write_run("retrain", cfg, seed, {
        "checkpoint": ("checkpoints/retrain.ieuc", lambda path: save_checkpoint(ck, path))})
    print(f"{exp_id}\t{paths['checkpoint']}")
    return 0


def _cmd_unlearn(cfg: dict, seed) -> int:
    ucfg = UnlearnConfig(seed=seed, **{k: v for k, v in cfg.items() if k not in ("data", "ckpt")})
    ds = load_uds(cfg["data"])
    original = load_checkpoint(cfg["ckpt"])
    run = unlearn(original, ds, ucfg)
    ck = Checkpoint(role="unlearned", spec=original.spec, config=ucfg.to_dict(),
                    root_seed=seed, theta=run.theta)
    exp_id, paths = _write_run("unlearn", cfg, seed, {
        "checkpoint": (f"checkpoints/{ucfg.method}.ieuc", lambda path: save_checkpoint(ck, path)),
        "trace": (f"traces/{ucfg.method}.csv", lambda path: write_csv(
            path, [f.name for f in fields(EpochRow)], (astuple(row) for row in run.trace)))},
        wall_clock=run.wall_clock)
    print(f"{exp_id}\t{paths['checkpoint']}")
    return 0


def _cmd_rcd(cfg: dict, seed) -> int:
    ds = load_uds(cfg["data"])
    ckpt = load_checkpoint(cfg["ckpt"])
    step = _parse_step(cfg["step"])
    batch = cfg["batch_size"]
    if step["kind"] == "gd_fixed" and batch is not None:
        step = {"kind": "sgd", "eta": step["eta"]}
    relearn = OptimizerConfig(batch_size="full" if batch is None else batch, max_epochs=1, **step)
    phi_ref, oracle_path, oracle_cache = _cached_forget_oracle(ds, ckpt.spec, seed)
    forget_obj = split_objective(ds, ckpt.spec, "forget")
    report = rcd(ckpt.theta, forget_obj, phi_ref[cfg["phi"]], cfg["k"], relearn,
                 cfg["phi"], derive_stream(seed, 13), attach_bound=cfg["phi"] == "loss")
    exp_id, paths = _write_run("rcd", cfg, seed, {
        "report": ("reports/rcd.json", lambda path: write_json(path, report)),
        "report_csv": ("reports/rcd.csv", report.to_csv)},
        oracle=str(oracle_path), oracle_cache=oracle_cache)
    print(f"{exp_id}\trcd={report.rcd_value:.6g}\t{paths['report']}")
    return 0


def _cached_forget_oracle(ds, spec: ModelSpec, seed: int):
    """The forget oracle's reference errors, trained once per runs root.

    The oracle depends only on (forget set, spec, config, seed), so it is
    kept at ``<runs-root>/oracles/<key>.ieuc``, ``<key>`` being the sha256
    of those four. A file that fails to load, names another key or lacks an
    ``is_real`` ``phi_ref`` of a phi kind is recomputed and replaced.
    Returns ``(phi_ref, path, "hit" | "miss")``.
    """
    idx = ds.forget_idx
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(ds.features[idx], dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(ds.labels[idx], dtype="<i8").tobytes())
    digest.update(json.dumps({"spec": spec.to_dict(), "config": FORGET_ORACLE_CONFIG.to_dict(),
                             "seed": seed}, sort_keys=True).encode())
    key = digest.hexdigest()
    path = _runs_root() / "oracles" / f"{key}.ieuc"
    try:
        cached = load_checkpoint(path)
        phi_ref = cached.extra.get("phi_ref") if cached.extra.get("oracle_key") == key else None
        if isinstance(phi_ref, dict) and all(is_real(phi_ref.get(k)) for k in PHI_KINDS):
            return phi_ref, path, "hit"
    except (OSError, CheckpointError):
        pass  # absent or damaged: retrain and replace it
    ck, phi_ref = forget_oracle(ds, spec, FORGET_ORACLE_CONFIG, seed)
    ck.extra["oracle_key"] = key
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    save_checkpoint(ck, tmp)
    os.replace(tmp, path)
    return phi_ref, path, "miss"


def _cmd_eval(cfg: dict, seed) -> int:
    ds = load_uds(cfg["data"])
    ckpt = load_checkpoint(cfg["ckpt"])
    reference = None
    if cfg["against"]:
        reference = eval_report(load_checkpoint(cfg["against"]), ds)
    report = eval_report(ckpt, ds, reference)
    exp_id, paths = _write_run("eval", cfg, seed, {
        "report": ("reports/eval.json", lambda path: write_json(path, report))})
    print(f"{exp_id}\t{paths['report']}")
    for k, v in sorted(report.metrics().items()):
        print(f"  {k}: {v}")
    if report.avg_gap is not None:
        print(f"  avg_gap: {report.avg_gap}")
    return 0


def _cmd_compare(cfg: dict, seed) -> int:
    rows = []
    for path in cfg["reports"]:
        try:
            report = EvalReport.from_dict(read_json(Path(path).read_text()))
        except ValueError as exc:  # not UTF-8, not JSON or not an eval report
            raise ValueError(f"{path}: {exc}") from exc
        row = {"report": str(path), **report.metrics()}
        if report.avg_gap is not None:
            row["avg_gap"] = report.avg_gap
        rows.append(row)
    columns = ["report"] + sorted({k for row in rows for k in row} - {"report"})
    if cfg["format"] == "json":
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        write_csv(sys.stdout, columns, ([row.get(c) for c in columns] for row in rows))
    return 0


def _cmd_verify(cfg: dict, seed) -> int:
    report = verify_mod.run_suite(full=not cfg["fast"], reproducibility=not cfg["no_repro"])
    width = max(len(r.name) for r in report.results)
    print(f"{'check':{width}}  status  margin")
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:{width}}  {status}    {r.margin:+.3e}  ({r.runtime:.1f}s)")
    if cfg["out"]:
        write_json(cfg["out"], report.to_dict())
    return 0 if report.all_passed else 2


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> tuple[_Parser, dict]:
    """The parser and its subparsers by command name."""
    parser = _Parser(prog="unlearn-forge",
                     description="desk-scale machine unlearning laboratory")
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, *required, seed=True, **kwargs):
        # cli() refuses a required flag left unset or empty once --config is
        # resolved; --data and --ckpt are added here, other flags by the caller
        p = sub.add_parser(name, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           **kwargs)
        p.set_defaults(fn=fn, required=required)
        if seed:  # a command that draws nothing takes no seed
            p.add_argument("--seed", type=int, required=True, help="root seed")
        p.add_argument("--config", help="JSON file whose values replace this command's "
                       "defaults; flags given on the command line still win")
        for flag, text in (("--data", ".uds dataset"), ("--ckpt", "checkpoint")):
            if flag in required:
                p.add_argument(flag, help=text)
        return p

    p = add("gen-data", _cmd_gen_data)
    p.add_argument("--n-per-class", dest="n_per_class", type=int, default=100,
                   help="points per class")
    p.add_argument("--classes", type=int, default=3, help="Gaussian blobs, one per class")
    p.add_argument("--features", type=int, default=5, help="dimensions")
    p.add_argument("--separation", type=float, default=3.0, help="least center distance")
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0, help="blob spread")
    p.add_argument("--split", choices=["random", "classwise"], default="random",
                   help="forget random train points or whole classes")
    p.add_argument("--forget-fraction", dest="forget_fraction", type=float, default=0.3,
                   help="share of train points, or of classes, to forget")
    p.add_argument("--out", help="dataset path; None writes it into the run directory")

    p = add("train", _cmd_train, "--data", "--model")
    p.add_argument("--model", help="logistic:p,C or mlp:d0,d1,...,C")
    p.add_argument("--optimizer", choices=list(OPTIMIZER_KINDS),
                   default="adam", help="update rule")
    p.add_argument("--eta", type=float, default=0.01,
                   help="step size; for gd_adaptive, the multiple of 1/lambda_max")
    p.add_argument("--epochs", type=int, default=100, help="most epochs to train")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="None is the full batch")

    add("retrain", _cmd_retrain, "--data", "--ckpt")

    p = add("unlearn", _cmd_unlearn, "--data", "--ckpt", "--method")
    p.add_argument("--method", choices=list(METHODS), help="method")
    default = {f.name: f.default for f in fields(UnlearnConfig)}  # each stated once, there
    p.add_argument("--alpha", type=float, default=default["alpha"],
                   help="noisy ratio; 1 draws no noise")
    p.add_argument("--c", type=float, default=default["c"], help="forget-set ascent weight")
    p.add_argument("--eta", type=float, default=default["eta"], help="step size")
    p.add_argument("--epochs", type=int, default=default["epochs"], help="unlearning epochs")
    p.add_argument("--salun-fraction", dest="salun_fraction", type=float,
                   default=default["salun_fraction"], help="salun's share of salient coordinates")

    p = add("rcd", _cmd_rcd, "--data", "--ckpt")
    p.add_argument("--k", type=int, default=100, help="relearning epochs K")
    p.add_argument("--phi", choices=list(PHI_KINDS), default="loss",
                   help="error measured each epoch")
    p.add_argument("--step", default="fixed:0.0001", help="fixed:<eta> or adaptive")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="None is the full batch")

    p = add("eval", _cmd_eval, "--data", "--ckpt", seed=False)
    p.add_argument("--against", help="retrain reference checkpoint for gap metrics")

    p = sub.add_parser("compare")
    p.set_defaults(fn=_cmd_compare)
    p.add_argument("reports", nargs="+")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("verify")
    p.set_defaults(fn=_cmd_verify)
    p.add_argument("--fast", action="store_true",
                   help="skip the two heavy statistical checks")
    p.add_argument("--no-repro", action="store_true",
                   help="skip the byte-identical rerun")
    p.add_argument("--out", help="write the structured report to this JSON file")
    return parser, sub.choices


def cli(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "fn"):
            parser.print_usage(sys.stderr)
            return 1
        command = commands[args.command]
        if getattr(args, "config", None):  # file values become defaults; flags still win
            command.set_defaults(**_read_config(args.config, command))
            args = parser.parse_args(argv)
        cfg = {dest: getattr(args, dest) for dest in _settings(command)}
        missing = [flag for flag in getattr(args, "required", ()) if not cfg[flag[2:]]]
        if missing:
            raise UsageError(f"{args.command} requires {', '.join(missing)}")
        with np.errstate(all="ignore"):  # a diverged run is refused by name, not warned of
            return args.fn(cfg, getattr(args, "seed", None))
    except (UsageError, OSError, ValueError, CheckpointError, DivergenceError,
            FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
