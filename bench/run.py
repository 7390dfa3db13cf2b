"""dgareduce benchmark runner.

Run from the repository root:

    python3 bench/run.py --workload matrix-c9 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --seconds 30        # every workload in turn

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced passes over the same inputs and reports the
per-layer metrics.  Each run checks the program's outputs and exits non-zero,
naming the failed check, when one fails.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("matrix-c9", "nets-readme", "reduce-40k")
# One BLAS thread: the program is one thread of Python whose matrices are at
# most a few thousand by ten, and one thread keeps timings steady.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import dgareduce; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "report_train_s": "s",
    "accuracy_mean_pct": "%",
    "accuracy_min_pct": "%",
    "rss_peak_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".epoch_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_min")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
    }


def timed_setup(workload, seed: int, workdir: str):
    """Package import (timed in a fresh interpreter) plus building the
    workload's inputs, repeated; returns the median and the last inputs."""
    totals = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        started = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        totals.append(float(probe.stdout) + time.perf_counter() - started)
    return statistics.median(totals), inputs


def measure(workload, inputs, seconds: float, traced: bool):
    """Passes over `inputs` in turn until `seconds` would be exceeded, after
    at least one pass over every input.  With `traced`, each untraced pass is
    followed by a traced pass over the same input."""
    from layers import CLASSES, MODULES, Layers
    from spans import Tracer, leftover_wrappers
    from workloads import require

    plain, first, traced_runs, layer_rows = [], {}, [], []
    started = time.perf_counter()
    while True:
        index = len(plain) % len(inputs)
        result = workload.result(*workload.timed(inputs[index]))
        plain.append(result)
        first.setdefault(index, result)
        require(
            result.signature == first[index].signature,
            "rerun-determinism",
            f"input {index} gave different accuracy columns or kept sets on a rerun",
        )
        step = statistics.median(p.seconds for p in plain)
        if traced:
            layers, tracer = Layers(), Tracer()
            with tracer.installed(layers.install):
                timed = workload.timed(inputs[index])
            leftover = leftover_wrappers(MODULES + CLASSES)
            require(not leftover, "wrappers-removed", ", ".join(leftover))
            shadow = workload.result(*timed)
            require(
                shadow.signature == result.signature,
                "trace-determinism",
                f"input {index}: traced and untraced passes differ",
            )
            bad = layers.kkt_failures()
            require(not bad, "svm-kkt", "; ".join(bad))
            traced_runs.append(shadow)
            layer_rows.append(Layers.metrics(tracer))
            step += statistics.median(p.seconds for p in traced_runs)
        if len(plain) >= len(inputs) and time.perf_counter() - started + step > seconds:
            break
    return plain, [first[i] for i in sorted(first)], traced_runs, layer_rows


def run_one(args) -> int:
    # BLAS reads its thread count when numpy loads, so set it before any import.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    from layers import PER_LAYER
    from workloads import WORKLOADS, CheckFailed, check_accuracy_floor, pooled_accuracy

    print("machine " + json.dumps(machine_facts()), flush=True)
    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as workdir:
        try:
            setup_s, inputs = timed_setup(workload, args.seed, workdir)
            plain, firsts, traced_runs, layer_rows = measure(
                workload, inputs, args.seconds, bool(args.trace)
            )
            pooled = pooled_accuracy(firsts)
            check_accuracy_floor(workload.accuracy_floor, pooled)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1

    passes = plain + traced_runs
    if args.trace:
        values = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = statistics.median(
            p.seconds for p in traced_runs
        ) - statistics.median(p.seconds for p in plain)
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        values = {
            "setup_s": setup_s,
            "run_s": statistics.median(p.seconds for p in plain),
            "report_train_s": statistics.median(p.train_seconds for p in plain),
            "accuracy_mean_pct": statistics.fmean(
                acc for p in firsts for acc in p.accuracy.values()
            ),
            "accuracy_min_pct": min(pooled.values()),
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(
        f"workload {args.workload}: {len(plain)} untraced passes, median "
        f"{statistics.median(p.seconds for p in plain):.3f} s; {len(traced_runs)} traced passes"
    )
    for name, value in values.items():
        print(f"  {name:<30} {value:14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": sum(p.attempted for p in passes),
                "failed": 0,  # any failed cell or fit fails a check before this point
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(command).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
