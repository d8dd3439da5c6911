"""fockpulse benchmark: run one workload in a closed loop for a fixed time.

Run from the repository root:

    python3 bench/run.py --workload design-weak-c3 --seed 450 --seconds 25 --trace 0

Ops run one after another in this one process, each checked for correctness
right after it returns (checks are not timed).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, taken by running
every op once untraced and once traced.  A full record (machine facts, every
op's time, failures) goes to ``bench/out/``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SCRIPT = Path(__file__).resolve()
BENCH_DIR = SCRIPT.parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("design-weak-c3", "design-strong-c6", "readout-c100", "sweep-c10")

# BLAS threads, fixed before numpy loads (so numpy is imported lazily here).
# One thread never competes with itself for the cores of a small machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# setup_s is the median over this many fresh processes.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
READY = "setup-done"

E2E_UNITS = {"op_cost_p50": "kernels", "peak_rss_mb": "MB", "setup_s": "s"}
# Per-layer units by name suffix; calls, evaluations and work are per op.
LAYER_UNITS = (
    (".self_s", "s/op"),
    (".errors", "count"),
    (".nonfinite_losses", "count"),
    (".evals_per_s", "1/s"),
    ("_frac", "ratio"),
    ("_share", "ratio"),
)


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    units = (unit for suffix, unit in LAYER_UNITS if metric.endswith(suffix))
    return next(units, "1/op")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, help="design seed of op 0 (default: per workload)"
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help=argparse.SUPPRESS,  # one setup_s sample: set up, report the time, exit
    )
    return parser.parse_args(argv)


def set_up(name: str):
    """Import the package, load fixtures and warm up: everything before op 0."""
    import workloads

    workload = workloads.build(name)
    workload.warm_up()
    return workload


def measure_setup(name: str) -> list[float]:
    """Wall seconds from launching a fresh process to the end of its set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        launched = time.time()
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name, "--setup-only"],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
            check=False,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != READY:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        samples.append(float(lines[1]) - launched)
    return samples


def execute(workload, op, tracer=None) -> tuple[float, str | None, dict | None]:
    """Run one op; return (wall seconds, failure or None, facts of a good result)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(op)
        else:
            tracer.begin_op()
            with tracer.installed():
                out = workload.run(op)
        wall = time.perf_counter() - start
        failure = workload.check(op, out)
    except Exception as exc:  # a failed op is counted and the run goes on
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None
    return wall, failure, None if failure else workload.facts(out)


def run_loop(workload, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: start the next op only if it should end within ``seconds``.

    Every untraced op is bracketed by runs of the calibration kernel.
    """
    from calibration import kernel_seconds

    records = []
    begin = time.perf_counter()
    kernel = kernel_seconds()
    i = 0
    while True:
        op = workload.op(seed, i)
        rec = {"label": op.label}
        rec["wall"], rec["failure"], rec["facts"] = execute(workload, op)
        # Machine speed during the op: the kernel timed right before and after.
        kernel_after = kernel_seconds()
        rec["kernel"] = (kernel + kernel_after) / 2
        kernel = kernel_after
        if tracer is not None:
            rec["traced_wall"], rec["traced_failure"], _ = execute(workload, op, tracer)
        records.append(rec)
        for key in ("failure", "traced_failure"):
            if rec.get(key):
                print(
                    f"FAILED {workload.name} op {i} ({op.label}): {rec[key]}",
                    file=sys.stderr,
                )
        i += 1
        elapsed = time.perf_counter() - begin
        if elapsed * (i + 1) / i > seconds:
            return records


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1] for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu).strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(records: list[dict], setup: list[float]) -> dict[str, float]:
    """End-to-end metrics; op cost is wall time in calibration-kernel units."""
    ok = [r for r in records if not r["failure"]] or records
    return {
        "op_cost_p50": statistics.median(r["wall"] / r["kernel"] for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def wall_figures(records: list[dict]) -> dict[str, float]:
    """Uncalibrated op times, recorded beside the metrics."""
    walls = [r["wall"] for r in records]
    ok_walls = [r["wall"] for r in records if not r["failure"]]
    return {
        "op_s_p50": statistics.median(ok_walls or walls),
        "ops_per_s": len(ok_walls) / sum(walls),
        "kernel_s_p50": statistics.median(r["kernel"] for r in records),
    }


def per_layer(records: list[dict], tracer) -> tuple[dict[str, float], bool]:
    """Layer metrics of the traced run, and whether span self times add up.

    On every op the self times of its spans must sum to the op's traced wall
    time, short of it by no more than the tracing overhead (or 1%).
    """
    import numpy as np

    untraced = np.array([r["wall"] for r in records])
    traced = np.array([r["traced_wall"] for r in records])
    metrics = tracer.layer_metrics(ops=len(records))
    evals = metrics["optimizer.pso_search.evals"] + metrics["optimizer.refine.evals"]
    metrics["optimizer.evals_per_s"] = evals * len(records) / untraced.sum()
    metrics["trace.overhead_frac"] = traced.sum() / untraced.sum() - 1.0
    unattributed = traced - tracer.op_self_sums()
    metrics["trace.unattributed_frac"] = unattributed.sum() / traced.sum()
    allowed = np.maximum(traced - untraced, 0.01 * traced)
    return metrics, bool(np.all(np.abs(unattributed) <= allowed))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fockpulse" / "__init__.py").is_file():
        print(f"error: no fockpulse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_only:
        set_up(args.workload)
        print(READY, repr(time.time()), flush=True)
        return 0

    setup = [] if args.trace else measure_setup(args.workload)
    workload = set_up(args.workload)
    seed = workload.default_seed if args.seed is None else args.seed
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records = run_loop(workload, seed, args.seconds, tracer)

    failures = [
        r[k] for r in records for k in ("failure", "traced_failure") if r.get(k)
    ]
    attempted = len(records) * (2 if tracer else 1)
    correct = not failures
    if tracer is None:
        metrics = end_to_end(records, setup)
    else:
        metrics, spans_add_up = per_layer(records, tracer)
        correct = correct and spans_add_up
    tag = f"{workload.name}-seed{seed}-trace{args.trace}"
    extra = {"fail_frac": len(failures) / attempted, "samples": len(records)}
    extra.update(wall_figures(records))
    facts = [r["facts"] for r in records if r["facts"] is not None]
    if facts:
        extra.update(workload.summarize(facts))

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "metrics": metrics,
        "extra": extra,
        "setup_samples_s": setup,
        "ops": records,
        "failures": failures,
    }
    if tracer is not None:
        record["missing_call_sites"] = tracer.missing
        tracer.write(OUT_DIR / f"{tag}.spans.npz")
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {tag}: machine {json.dumps(record['machine'])}")
    print(f"# {tag}: {json.dumps(extra)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
