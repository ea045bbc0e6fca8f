"""Benchmark of unlearn_forge: three workloads driven through the public
library API and the CLI, with their outputs checked in every run.

    python3 perfbench/run.py --workload desk-unlearn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics (set-up time, operation-phase time, median operation
time, peak resident memory), the timings scaled to the reference speed of
the machine by the probe in speed.py; with ``--trace 1`` it holds the
per-layer metrics of one traced set-up and round, unscaled. See
perfbench/README.md.
"""

import os

# One BLAS thread in this process and in every command it starts: the
# matrices are tiny, and on a machine with few cores a thread pool only adds
# scheduling noise. Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("desk-unlearn", "curvature-audit", "cli-chain")
IMPORT_SAMPLES = 5


def _load_workload(name, seed, scale, workdir):
    if name == "desk-unlearn":
        from desk_unlearn import DeskUnlearn as cls
    elif name == "curvature-audit":
        from curvature_audit import CurvatureAudit as cls
    else:
        from cli_chain import CliChain as cls
    return cls(seed, scale, workdir)


def run_setup(workload, probe):
    """Time each set-up step between two probe points; returns (scaled,
    raw) seconds per step."""
    scaled, raw = [], []
    for step in workload.setup_steps():
        probe.measure()
        start = time.perf_counter()
        step()
        raw.append(time.perf_counter() - start)
        probe.measure()
        scaled.append(raw[-1] * probe.take_scale()[0])
    return scaled, raw


def run_round(workload, op_times, probe):
    """Run every operation once, with probe points between them; appends the
    scaled operation times to op_times and returns (scaled round seconds,
    raw round seconds, failures). A round's time is the sum of its
    operations' times, probes left out."""
    failed, raw = 0, []
    probe.measure()
    for label, op in workload.operations():
        probe.between_operations()
        t0 = time.perf_counter()
        try:
            op()
        except Exception:
            failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        raw.append(time.perf_counter() - t0)
    probe.measure()
    scale = probe.take_scale()[0]
    op_times.extend(t * scale for t in raw)
    return sum(raw) * scale, sum(raw), failed


def measure_import_s():
    """Fresh-process ``import unlearn_forge.cli`` minus a bare interpreter
    start, medians of IMPORT_SAMPLES each."""

    def median_run(code):
        times = []
        for _ in range(IMPORT_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    return median_run("import unlearn_forge.cli") - median_run("pass")


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.peak_rss_of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "unlearn_forge" / "__init__.py").is_file():
        print(f"error: no unlearn_forge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import unlearn_forge

    if Path(unlearn_forge.__file__).resolve().parent != SRC / "unlearn_forge":
        print(f"error: imported unlearn_forge from {unlearn_forge.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = _load_workload(args.workload, args.seed, args.scale, workdir)
    try:
        return _measure(args, workload)
    finally:
        workload.close()


def _measure(args, workload):
    from speed import SpeedProbe

    probe = SpeedProbe()
    op_times, round_times, raw_round_times, failed = [], [], [], 0
    setup_times, raw_setup_times = run_setup(workload, probe)
    if args.trace:
        from tracer import Totals, Tracer, write_traces

        _, wall, failed = run_round(workload, op_times, probe)
        raw_round_times.append(wall)
        tracer = Tracer().install()
        workload.traced = True
        run_setup(workload, probe)
        _, traced_wall, traced_failed = run_round(workload, op_times, probe)
        traced_spans = len(tracer.spans)
        workload.traced = False
        failed += traced_failed
        rounds = 2
    else:
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            wall, raw_wall, round_failed = run_round(workload, op_times, probe)
            round_times.append(wall)
            raw_round_times.append(raw_wall)
            failed += round_failed
            rounds += 1

    failures = workload.check()
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    if args.trace:
        del tracer.spans[traced_spans:]  # leave out the checks' own calls
        groups = [({"process": "harness", "workload": args.workload, "seed": args.seed},
                   tracer.spans)] + workload.child_traces()
        write_traces(OUT / f"trace-{args.workload}-{args.seed}.jsonl", groups)
        totals = Totals()
        for header, spans in groups:
            totals.add(spans, header.get("command"))
        metrics = totals.metrics()
        metrics["cli.import_s"] = (measure_import_s(), "s")
        metrics["trace.untraced_wall_s"] = (raw_round_times[0], "s")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall / raw_round_times[0] - 1.0), "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(round_times), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        }

    print(f"# workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} setups={len(setup_times)} rounds={rounds} "
          f"ops_per_round={len(op_times) // rounds} op_samples={len(op_times)} "
          f"blas_threads={BLAS_THREADS} cpus={os.cpu_count()} python={sys.version.split()[0]} "
          f"raw_setup_s={statistics.median(raw_setup_times):.4f} "
          f"raw_wall_s={statistics.median(raw_round_times):.4f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
