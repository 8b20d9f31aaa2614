"""Time ``harness.compute_metrics`` on source trees and write BENCH_evaluate.json.

    python3 scripts/bench_evaluate.py --tree before=PATH --tree after=. \
        [--repeats 3] [--seed 1] [--out BENCH_evaluate.json]

Each ``--tree LABEL=PATH`` names a checkout whose ``src/`` is imported.
For every size (the ``evaluate`` workload's 32x130x11 and the default
trace's 32x6000x11) and every repeat, each tree runs in its own process
with BLAS pinned to one thread; the trees alternate which goes first.  A
run builds a seeded AR(1) trace like perfbench's ``evaluate`` workload,
times one ``compute_metrics`` call and splits it into ``fit_cop``,
``KdeModel.log_density`` and ``aggregate_ess`` by wrapping them.  Only
the labels, never the paths, go into the output file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"workload": (32, 130, 11), "default": (32, 6000, 11)}
PHI = 0.9
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def ar1_trace(k: int, s: int, d: int, seed: int):
    """(samples, potentials): K scaled AR(1) chains of S steps in D dims."""
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
    scale = np.exp(rng.uniform(-1.0, 1.0, d))
    x = np.empty((k, s, d))
    x[:, 0] = rng.standard_normal((k, d))
    noise = rng.standard_normal((k, s, d))
    for t in range(1, s):
        x[:, t] = PHI * x[:, t - 1] + np.sqrt(1.0 - PHI**2) * noise[:, t]
    return x * scale, 0.5 * (x**2).sum(axis=2)


def _timed(owner, name: str, totals: dict, last: dict) -> None:
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            last[name] = fn(*args, **kwargs)
            return last[name]
        finally:
            totals[name] += time.perf_counter() - start

    setattr(owner, name, wrapper)


def measure(src: str, size: str, seed: int) -> dict:
    """One compute_metrics call on the tree at ``src``, in this process."""
    sys.path.insert(0, src)
    from amsghmc import evaluation, harness, samplers

    samples, potentials = ar1_trace(*SIZES[size], seed)
    trace = samplers.Trace(samples, potentials, {"sampler": "synthetic-ar1"})
    totals = {"fit_cop": 0.0, "log_density": 0.0, "aggregate_ess": 0.0}
    last = {}
    _timed(evaluation, "fit_cop", totals, last)
    _timed(evaluation.KdeModel, "log_density", totals, last)
    _timed(evaluation, "aggregate_ess", totals, last)
    start = time.perf_counter()
    metrics = harness.compute_metrics(trace, None)
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "compute_metrics_s": wall,
        "fit_cop_s": totals["fit_cop"],
        "log_density_s": totals["log_density"],
        "aggregate_ess_s": totals["aggregate_ess"],
        "peak_rss_mb": rss_kb / 1024.0,
        "c_op": last["fit_cop"].c_op,
        "naive_loss": metrics["naive_loss"],
        "ess_aggregate": metrics["ess_aggregate"],
    }


def run_tree(path: Path, size: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure",
         str(path / "src"), "--size", size, "--seed", str(seed)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=PATH of a checkout to measure")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_evaluate.json"))
    parser.add_argument("--measure", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=SIZES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Before numpy is imported here or in a measuring process.
    os.environ.update({var: "1" for var in BLAS_VARS})
    if args.measure:
        print(json.dumps(measure(args.measure, args.size, args.seed)))
        return 0
    if not args.tree:
        parser.error("give at least one --tree LABEL=PATH")
    trees = [spec.split("=", 1) for spec in args.tree]
    runs = {label: {size: [] for size in SIZES} for label, _ in trees}
    for size in SIZES:
        for rep in range(args.repeats):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, path in order:
                result = run_tree(Path(path).resolve(), size, args.seed)
                runs[label][size].append(result)
                print(f"{size} {label} run {rep}: "
                      f"{result['compute_metrics_s']:.2f} s", file=sys.stderr)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import environment

    doc = {
        "what": "harness.compute_metrics on a seeded AR(1) trace, one call "
                "per process, BLAS pinned to one thread; medians over repeats",
        "command": "python3 scripts/bench_evaluate.py " + " ".join(
            f"--tree {label}=..." for label, _ in trees)
            + f" --repeats {args.repeats} --seed {args.seed}",
        "environment": environment(),
        "sizes": {size: list(shape) for size, shape in SIZES.items()},
        "trees": {label: {size: {"median": summarize(rs), "runs": rs}
                          for size, rs in by_size.items()}
                  for label, by_size in runs.items()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
