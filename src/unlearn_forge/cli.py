"""Command-line front end.

Every artifact-producing command resolves its configuration with the
precedence CLI flags > ``--config`` JSON file > built-in defaults, hashes
the resolved configuration plus seed into an experiment id, and writes

    <runs-root>/<experiment-id>/
        manifest.json
        checkpoints/   binary model checkpoints
        reports/       JSON metric reports
        traces/        per-epoch CSV traces
    <runs-root>/oracles/<key>.ieuc   forget oracles cached by ``rcd``

The runs root defaults to ``./runs`` and can be overridden with the
``UNLEARN_FORGE_RUNS_DIR`` environment variable. Exit codes: 0 on
success, 1 on usage errors, bad inputs, corrupt files and diverged runs,
2 when the verification suite fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .checkpoints import Checkpoint, CheckpointError, save_checkpoint, load_checkpoint
from .datasets import gen_blobs, split_random, split_classwise, split_objective, save_uds, load_uds
from .models import ModelSpec, logistic_spec, mlp_spec
from .metrics import rcd, eval_report, EvalReport
from .numcore import derive_stream, kaiming_sample
from .training import (OptimizerConfig, DivergenceError, train, retrain_oracle, forget_oracle,
                       trace_to_csv)
from .unlearning import UnlearnConfig, unlearn
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
    return Path(os.environ.get("UNLEARN_FORGE_RUNS_DIR", "runs"))


def _resolve_config(args, keys) -> dict:
    """CLI flags override config-file values override parser defaults."""
    from_file = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = set(from_file) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in from_file.items():
            _check_config_value(args.flags[key], key, value)
    resolved = {}
    for key in keys:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = None
    return resolved


def _check_config_value(flag: argparse.Action, key: str, value) -> None:
    """A ``--config`` value must be one its flag would give: one of its
    choices, an integer for an int flag, a number for a float flag, else a
    string. JSON true and false are none of these."""
    if flag.choices is not None:
        ok, want = value in flag.choices, f"one of {flag.choices}"
    else:
        kinds = {int: (int,), float: (int, float)}.get(flag.type, (str,))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
        want = {int: "an integer", float: "a number"}.get(flag.type, "a string")
    if not ok:
        raise UsageError(f"config key {key!r} must be {want}, not {value!r}")


def _new_run(command: str, config: dict, seed) -> tuple[Path, str]:
    blob = json.dumps({"command": command, "config": config, "seed": seed},
                      sort_keys=True).encode()
    exp_id = hashlib.sha256(blob).hexdigest()[:12]
    run_dir = _runs_root() / exp_id
    for sub in ("checkpoints", "reports", "traces"):
        (run_dir / sub).mkdir(parents=True, exist_ok=True)
    return run_dir, exp_id


def _write_manifest(run_dir: Path, command: str, exp_id: str, config: dict,
                    seed, artifacts: dict) -> None:
    manifest = {
        "command": command,
        "experiment_id": exp_id,
        "config": config,
        "seed": seed,
        "artifacts": artifacts,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


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


def _opt_config(cfg: dict) -> OptimizerConfig:
    return OptimizerConfig(
        kind=cfg["optimizer"],
        eta=cfg["eta"],
        batch_size="full" if cfg["batch_size"] is None else cfg["batch_size"],
        max_epochs=cfg["epochs"],
    )


def _add_config_flag(p):
    p.add_argument("--config", help="JSON file with default values for this command")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    keys = ["n_per_class", "classes", "features", "separation", "noise_sd",
            "split", "forget_fraction", "out"]
    cfg = _resolve_config(args, keys)
    defaults = {"n_per_class": 100, "classes": 3, "features": 5, "separation": 3.0,
                "noise_sd": 1.0, "split": "random", "forget_fraction": 0.3, "out": None}
    cfg = {k: defaults[k] if cfg[k] is None else cfg[k] for k in keys}
    ds = gen_blobs(cfg["n_per_class"], cfg["classes"], cfg["features"],
                   cfg["separation"], cfg["noise_sd"], args.seed)
    if cfg["split"] == "random":
        ds = split_random(ds, cfg["forget_fraction"], args.seed)
    elif cfg["split"] == "classwise":
        ds = split_classwise(ds, cfg["forget_fraction"], args.seed)
    else:
        raise UsageError(f"unknown split mode {cfg['split']!r}")
    run_dir, exp_id = _new_run("gen-data", cfg, args.seed)
    out = Path(cfg["out"]) if cfg["out"] else run_dir / "dataset.uds"
    save_uds(ds, out)
    _write_manifest(run_dir, "gen-data", exp_id, cfg, args.seed,
                    {"dataset": str(out)})
    print(f"{exp_id}\t{out}")
    return 0


def _cmd_train(args) -> int:
    keys = ["data", "model", "optimizer", "eta", "epochs", "batch_size"]
    cfg = _resolve_config(args, keys)
    defaults = {"optimizer": "adam", "eta": 0.01, "epochs": 100, "batch_size": None}
    cfg = {k: defaults.get(k) if cfg[k] is None else cfg[k] for k in keys}
    if not cfg["data"] or not cfg["model"]:
        raise UsageError("train requires --data and --model")
    ds = load_uds(cfg["data"])
    spec = _parse_model(cfg["model"])
    ocfg = _opt_config(cfg)
    obj = split_objective(ds, spec, "train")
    theta0 = kaiming_sample(spec.param_count, derive_stream(args.seed, 11))
    trace = train(obj, theta0, ocfg, derive_stream(args.seed, 12))
    run_dir, exp_id = _new_run("train", cfg, args.seed)
    ckpt = Checkpoint(role="original", spec=spec, config=ocfg.to_dict(),
                      root_seed=args.seed, theta=trace.theta,
                      extra={"stop_reason": trace.stop_reason})
    ckpt_path = run_dir / "checkpoints" / "original.ieuc"
    save_checkpoint(ckpt, ckpt_path)
    trace_to_csv(trace, run_dir / "traces" / "train.csv")
    _write_manifest(run_dir, "train", exp_id, cfg, args.seed,
                    {"checkpoint": str(ckpt_path)})
    final = trace.records[-1]
    print(f"{exp_id}\t{ckpt_path}\tloss={final.loss:.6g}\tacc={final.accuracy}")
    return 0


def _cmd_retrain(args) -> int:
    keys = ["data", "ckpt"]
    cfg = _resolve_config(args, keys)
    if not cfg["data"] or not cfg["ckpt"]:
        raise UsageError("retrain requires --data and --ckpt")
    ds = load_uds(cfg["data"])
    original = load_checkpoint(cfg["ckpt"])
    ocfg = OptimizerConfig(**original.config)
    ck = retrain_oracle(ds, original.spec, ocfg, args.seed)
    run_dir, exp_id = _new_run("retrain", cfg, args.seed)
    out = run_dir / "checkpoints" / "retrain.ieuc"
    save_checkpoint(ck, out)
    _write_manifest(run_dir, "retrain", exp_id, cfg, args.seed, {"checkpoint": str(out)})
    print(f"{exp_id}\t{out}")
    return 0


def _cmd_unlearn(args) -> int:
    keys = ["data", "ckpt", "method", "alpha", "c", "eta", "epochs",
            "scrub_max_epochs", "salun_fraction", "noise_scope"]
    cfg = _resolve_config(args, keys)
    if not cfg["data"] or not cfg["ckpt"] or not cfg["method"]:
        raise UsageError("unlearn requires --data, --ckpt and --method")
    ukw = {k: v for k, v in cfg.items()
           if k not in ("data", "ckpt") and v is not None}
    ucfg = UnlearnConfig(seed=args.seed, **ukw)
    ds = load_uds(cfg["data"])
    original = load_checkpoint(cfg["ckpt"])
    run = unlearn(original, ds, ucfg)
    run_dir, exp_id = _new_run("unlearn", cfg, args.seed)
    ck = Checkpoint(role="unlearned", spec=original.spec, config=ucfg.to_dict(),
                    root_seed=args.seed, theta=run.theta,
                    extra={"method": run.method})
    out = run_dir / "checkpoints" / f"{run.method}.ieuc"
    save_checkpoint(ck, out)
    _trace_csv(run, run_dir / "traces" / f"{run.method}.csv")
    _write_manifest(run_dir, "unlearn", exp_id, cfg, args.seed,
                    {"checkpoint": str(out), "wall_clock": run.wall_clock})
    print(f"{exp_id}\t{out}")
    return 0


def _trace_csv(run, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "retain_loss", "forget_loss", "retain_acc",
                         "forget_acc", "clip_active", "forget_kl"])
        for row in run.trace:
            writer.writerow([row.epoch, row.retain_loss, row.forget_loss,
                             row.retain_acc, row.forget_acc, row.clip_active,
                             row.forget_kl])


def _cmd_rcd(args) -> int:
    keys = ["data", "ckpt", "k", "phi", "step", "batch_size"]
    cfg = _resolve_config(args, keys)
    defaults = {"k": 100, "phi": "loss", "step": "fixed:0.0001"}
    cfg = {k: defaults.get(k) if cfg[k] is None else cfg[k] for k in keys}
    if not cfg["data"] or not cfg["ckpt"]:
        raise UsageError("rcd requires --data and --ckpt")
    ds = load_uds(cfg["data"])
    ckpt = load_checkpoint(cfg["ckpt"])
    step = _parse_step(cfg["step"])
    batch = cfg["batch_size"]
    if step["kind"] == "gd_fixed" and batch is not None:
        step = {"kind": "sgd", "eta": step["eta"]}
    relearn = OptimizerConfig(batch_size="full" if batch is None else batch, max_epochs=1, **step)
    oracle_cfg = OptimizerConfig(**ckpt.config) if _is_opt_config(ckpt.config) else (
        OptimizerConfig(kind="adam", eta=0.01, max_epochs=200))
    phi_ref, oracle_path, oracle_cache = _cached_forget_oracle(ds, ckpt.spec, oracle_cfg, args.seed)
    forget_obj = split_objective(ds, ckpt.spec, "forget")
    report = rcd(ckpt.theta, forget_obj, phi_ref[cfg["phi"]], int(cfg["k"]), relearn,
                 cfg["phi"], derive_stream(args.seed, 13))
    run_dir, exp_id = _new_run("rcd", cfg, args.seed)
    out = run_dir / "reports" / "rcd.json"
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    report.to_csv(run_dir / "reports" / "rcd.csv")
    _write_manifest(run_dir, "rcd", exp_id, cfg, args.seed,
                    {"report": str(out), "oracle": str(oracle_path), "oracle_cache": oracle_cache})
    print(f"{exp_id}\trcd={report.rcd_value:.6g}\t{out}")
    return 0


def _cached_forget_oracle(ds, spec: ModelSpec, cfg: OptimizerConfig, seed: int):
    """The forget oracle's reference errors, trained once per runs root.

    The oracle depends only on (forget set, spec, config, seed), so it is
    kept at ``<runs-root>/oracles/<key>.ieuc``, ``<key>`` being the sha256
    of those four. A file that fails to load or names another key is
    recomputed and replaced. Returns ``(phi_ref, path, "hit" | "miss")``.
    """
    idx = ds.forget_idx
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(ds.features[idx], dtype="<f8").tobytes())
    digest.update(np.ascontiguousarray(ds.labels[idx], dtype="<i8").tobytes())
    digest.update(json.dumps({"spec": spec.to_dict(), "config": cfg.to_dict(), "seed": seed},
                             sort_keys=True).encode())
    key = digest.hexdigest()
    path = _runs_root() / "oracles" / f"{key}.ieuc"
    try:
        cached = load_checkpoint(path)
        if cached.extra.get("oracle_key") == key:
            return cached.extra["phi_ref"], path, "hit"
    except (OSError, ValueError, CheckpointError):
        pass  # absent or damaged: retrain and replace it
    ck, phi_ref = forget_oracle(ds, spec, cfg, seed)
    ck.extra["oracle_key"] = key
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    save_checkpoint(ck, tmp)
    os.replace(tmp, path)
    return phi_ref, path, "miss"


def _is_opt_config(config: dict) -> bool:
    try:
        OptimizerConfig(**config)
        return True
    except (TypeError, ValueError):
        return False


def _cmd_eval(args) -> int:
    keys = ["data", "ckpt", "against"]
    cfg = _resolve_config(args, keys)
    if not cfg["data"] or not cfg["ckpt"]:
        raise UsageError("eval requires --data and --ckpt")
    ds = load_uds(cfg["data"])
    ckpt = load_checkpoint(cfg["ckpt"])
    reference = None
    if cfg["against"]:
        reference = eval_report(load_checkpoint(cfg["against"]), ds)
    report = eval_report(ckpt, ds, reference)
    run_dir, exp_id = _new_run("eval", cfg, args.seed)
    out = run_dir / "reports" / "eval.json"
    report.save(out)
    _write_manifest(run_dir, "eval", exp_id, cfg, args.seed, {"report": str(out)})
    print(f"{exp_id}\t{out}")
    for k, v in sorted(report.metrics().items()):
        print(f"  {k}: {v}")
    if report.avg_gap is not None:
        print(f"  avg_gap: {report.avg_gap}")
    return 0


def _cmd_compare(args) -> int:
    rows = []
    for path in args.reports:
        with open(path) as fh:
            payload = json.load(fh)
        report = EvalReport.from_dict(payload)
        row = {"report": str(path), **report.metrics()}
        if report.avg_gap is not None:
            row["avg_gap"] = report.avg_gap
        rows.append(row)
    columns = ["report"] + sorted({k for row in rows for k in row} - {"report"})
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True, indent=2))
    else:
        print(",".join(columns))
        for row in rows:
            print(",".join("" if row.get(c) is None else str(row.get(c, ""))
                           for c in columns))
    return 0


def _cmd_verify(args) -> int:
    report = verify_mod.run_suite(full=not args.fast,
                                  reproducibility=not args.no_repro)
    width = max(len(r.name) for r in report.results)
    print(f"{'check':{width}}  status  margin")
    for r in report.results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:{width}}  {status}    {r.margin:+.3e}  ({r.runtime:.1f}s)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if report.all_passed else 2


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    parser = _Parser(prog="unlearn-forge",
                     description="desk-scale machine unlearning laboratory")
    sub = parser.add_subparsers(dest="command")

    def add(name, fn, seed_required=True):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if seed_required is not None:
            p.add_argument("--seed", type=int, required=seed_required, default=0)
        _add_config_flag(p)
        return p

    p = add("gen-data", _cmd_gen_data)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--noise-sd", dest="noise_sd", type=float)
    p.add_argument("--split", choices=["random", "classwise"])
    p.add_argument("--forget-fraction", dest="forget_fraction", type=float)
    p.add_argument("--out")

    p = add("train", _cmd_train)
    p.add_argument("--data")
    p.add_argument("--model", help="logistic:p,C or mlp:d0,d1,...,C")
    p.add_argument("--optimizer", choices=["gd_fixed", "gd_adaptive", "sgd", "adam"])
    p.add_argument("--eta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)

    p = add("retrain", _cmd_retrain)
    p.add_argument("--data")
    p.add_argument("--ckpt")

    p = add("unlearn", _cmd_unlearn)
    p.add_argument("--data")
    p.add_argument("--ckpt")
    p.add_argument("--method", choices=["ft", "rl", "scrub", "salun", "ieu"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--scrub-max-epochs", dest="scrub_max_epochs", type=int)
    p.add_argument("--salun-fraction", dest="salun_fraction", type=float)
    p.add_argument("--noise-scope", dest="noise_scope",
                   choices=["global_d", "per_layer_fan_in"])

    p = add("rcd", _cmd_rcd)
    p.add_argument("--data")
    p.add_argument("--ckpt")
    p.add_argument("--k", type=int)
    p.add_argument("--phi", choices=["loss", "one_minus_accuracy"])
    p.add_argument("--step", help="fixed:<eta> or adaptive")
    p.add_argument("--batch-size", dest="batch_size", type=int)

    p = add("eval", _cmd_eval, seed_required=False)
    p.add_argument("--data")
    p.add_argument("--ckpt")
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

    for p in sub.choices.values():  # lets _resolve_config check --config values
        p.set_defaults(flags={action.dest: action for action in p._actions})
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None) or not hasattr(args, "fn"):
            parser.print_usage(sys.stderr)
            return 1
        return args.fn(args)
    except (UsageError, FileNotFoundError, ValueError, CheckpointError, DivergenceError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
