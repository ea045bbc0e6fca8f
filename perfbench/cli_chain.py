"""cli-chain: the README's CLI walk on the desk-unlearn blobs data, one
fresh Python process per command.

Set-up: ``gen-data``, ``train`` and ``retrain``. One round: ``unlearn``
with each of the five methods, ``rcd`` on each result, ``eval --against``
the retrain reference for each, then ``compare`` over the five reports.
Every command pays package import, config resolution, ``.uds`` and IEUC
reads and writes and a manifest, and each ``rcd`` retrains the forget
oracle.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from base import Workload
from tracer import read_traces

CHILD = Path(__file__).resolve().parent / "cli_child.py"
METHODS = ("ft", "rl", "ieu", "scrub", "salun")
SIZES = {
    "full": dict(methods=METHODS, setups=3, n_per_class=200, classes=10, features=8,
                 hidden=(32, 32), train_epochs=200, epochs=50, k=50),
    "tiny": dict(methods=("ft", "ieu"), setups=1, n_per_class=10, classes=3, features=4,
                 hidden=(6,), train_epochs=10, epochs=3, k=3),
}


class CliChain(Workload):
    peak_rss_of_children = True

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.size = SIZES[scale]
        self.workdir.mkdir(parents=True)
        self.trace_files = []
        self.setups = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, runs, *args):
        """Run one command to completion; returns its stdout lines."""
        env = dict(os.environ, UNLEARN_FORGE_RUNS_DIR=str(runs))
        if self.traced:
            path = self.workdir / f"trace-{len(self.trace_files)}.jsonl"
            self.trace_files.append(path)
            env["PERFBENCH_TRACE"] = str(path)
        proc = subprocess.run([sys.executable, str(CHILD), *map(str, args)], env=env,
                              cwd=self.workdir, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{args[0]} exited with {proc.returncode}: {proc.stderr}")
        return proc.stdout.splitlines()

    def setup_steps(self):
        return [self._set_up] * self.size["setups"]

    def _set_up(self):
        size, seed = self.size, self.seed
        base = self.workdir / f"setup-{self.setups}"
        self.setups += 1
        self.runs, self.data = base / "runs", base / "data.uds"
        self._run(self.runs, "gen-data", "--seed", seed, "--classes", size["classes"],
                  "--features", size["features"], "--n-per-class", size["n_per_class"],
                  "--separation", 3, "--noise-sd", 2, "--forget-fraction", 0.3, "--out", self.data)
        dims = ",".join(map(str, (size["features"], *size["hidden"], size["classes"])))
        out = self._run(self.runs, "train", "--seed", seed, "--data", self.data,
                        "--model", f"mlp:{dims}", "--epochs", size["train_epochs"])
        self.original = out[0].split("\t")[1]
        out = self._run(self.runs, "retrain", "--seed", seed, "--data", self.data,
                        "--ckpt", self.original)
        self.retrain = out[0].split("\t")[1]
        self.unlearned, self.rcd_reports, self.evals, self.compare_rows = {}, {}, {}, None

    def _unlearn_args(self, method):
        extra = ("--alpha", 0.999) if method == "ieu" else ()
        return ("unlearn", "--seed", self.seed, "--data", self.data, "--ckpt", self.original,
                "--method", method, "--eta", 0.05, "--epochs", self.size["epochs"], *extra)

    def operations(self):
        methods = self.size["methods"]
        return ([(f"unlearn/{m}", lambda m=m: self._unlearn(m)) for m in methods]
                + [(f"rcd/{m}", lambda m=m: self._rcd(m)) for m in methods]
                + [(f"eval/{m}", lambda m=m: self._eval(m)) for m in methods]
                + [("compare", self._compare)])

    def _unlearn(self, method):
        self.unlearned[method] = self._run(self.runs, *self._unlearn_args(method))[0].split("\t")[1]

    def _rcd(self, method):
        out = self._run(self.runs, "rcd", "--seed", self.seed, "--data", self.data,
                        "--ckpt", self.unlearned[method], "--k", self.size["k"],
                        "--phi", "one_minus_accuracy", "--step", "fixed:0.05")
        self.rcd_reports[method] = out[0].split("\t")[2]

    def _eval(self, method):
        out = self._run(self.runs, "eval", "--data", self.data, "--ckpt", self.unlearned[method],
                        "--against", self.retrain)
        self.evals[method] = out[0].split("\t")[1]

    def _compare(self):
        out = self._run(self.runs, "compare", *self.evals.values(), "--format", "json")
        self.compare_rows = json.loads("\n".join(out))

    def child_traces(self):
        return [group for path in self.trace_files for group in read_traces(path)]

    def check(self):
        from unlearn_forge.checkpoints import load_checkpoint

        failures = []
        methods = self.size["methods"]
        if len(self.unlearned) + len(self.rcd_reports) + len(self.evals) != 3 * len(methods) \
                or self.compare_rows is None:
            return ["some commands produced no output"]
        header, features, labels = ref.read_uds(self.data)
        dims = None
        for name, path in [("original", self.original), ("retrain", self.retrain),
                           *self.unlearned.items()]:
            ieuc_header, theta, hash_ok = ref.read_ieuc(path)
            if not hash_ok:
                failures.append(f"{name}: checkpoint hash does not match its content")
            if not np.array_equal(load_checkpoint(path).theta, theta):
                failures.append(f"{name}: load_checkpoint disagrees with the file layout")
            dims = ieuc_header["model_spec"]["layer_dims"]

        def accuracy(theta, split):
            idx = np.asarray(header[f"{split}_idx"], dtype=np.int64)
            return ref.accuracy(ref.mlp_logits(dims, theta, features[idx])[0], labels[idx])

        reports = {}
        for method in methods:
            theta = ref.read_ieuc(self.unlearned[method])[1]
            with open(self.evals[method]) as fh:
                reports[self.evals[method]] = report = json.load(fh)
            for split in ("retain", "forget", "test"):
                if report["accuracies"][split] != accuracy(theta, split):
                    failures.append(f"eval {method}: {split} accuracy disagrees")
            with open(self.rcd_reports[method]) as fh:
                rcd = json.load(fh)
            if not np.isclose(rcd["rcd_value"], sum(rcd["errors"]), rtol=1e-12, atol=1e-12):
                failures.append(f"rcd {method}: rcd_value is not the sum of its errors")
        for row in self.compare_rows:
            report = reports.get(row.pop("report"))
            if report is None or row != dict(report["accuracies"], mia=report["mia_rate"],
                                             avg_gap=report["avg_gap"]):
                failures.append(f"a compare row does not match its eval report: {row}")

        method = methods[-1]
        rerun = self._run(self.workdir / "rerun", *self._unlearn_args(method))[0].split("\t")[1]
        if Path(rerun).read_bytes() != Path(self.unlearned[method]).read_bytes():
            failures.append(f"rerunning unlearn {method} changed the checkpoint bytes")
        return failures
