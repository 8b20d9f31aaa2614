"""Time the evaluate stage's steps on source trees and write BENCH_evaluate.json.

    python3 scripts/bench_evaluate.py --tree before=PATH --tree after=. \
        [--repeats 3] [--seed 1] [--out BENCH_evaluate.json]

For every size (the ``evaluate`` workload's 32x130x11 and the default
trace's 32x6000x11) and every repeat, each tree runs in its own process
(``trees.per_process``).  A run builds a seeded AR(1) trace like
perfbench's ``evaluate`` workload, times one ``compute_metrics`` call
and splits it into ``fit_cop``, ``KdeModel.log_density`` and
``aggregate_ess`` by wrapping them, then times the plot step
(``harness._emit_plot_data`` into a temporary folder) with
``conditional_mean_surface`` and the CSV writes (``evaluation._write_table``)
split out, records the sha256 of the two plot files, and records how many
threads share the KDE's row blocks (1 for a tree without the pool).  After the
peak RSS is read, one more ``fit_cop`` call on the same samples, untimed,
gives ``fit_peak_mb``: the largest memory that tracemalloc saw it hold.
Last, the trace is stored with ``samplers.save_trace`` and read back with
``samplers.load_trace`` into a fresh temporary folder, each call timed,
and ``trace_sha256`` is the digest of the samples' then the potentials'
bytes read back.
"""

from __future__ import annotations

import hashlib
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import trees

SIZES = {"workload": (32, 130, 11), "default": (32, 6000, 11)}
PHI = 0.9


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


def measure(size: str, seed: int) -> dict:
    """One compute_metrics call on the imported tree, in this process."""
    from amsghmc import evaluation, harness, samplers

    samples, potentials = ar1_trace(*SIZES[size], seed)
    meta = {"sampler": "synthetic-ar1", "steps": list(range(1, samples.shape[1] + 1))}
    trace = samplers.Trace(samples, potentials, meta)
    totals = {"fit_cop": 0.0, "log_density": 0.0, "aggregate_ess": 0.0,
              "conditional_mean_surface": 0.0, "_write_table": 0.0}
    last = {}
    fit_cop = evaluation.fit_cop
    trees.wrap_timed(evaluation, "fit_cop", totals, last=last)
    trees.wrap_timed(evaluation.KdeModel, "log_density", totals, last=last)
    trees.wrap_timed(evaluation, "aggregate_ess", totals, last=last)
    trees.wrap_timed(evaluation, "conditional_mean_surface", totals)
    trees.wrap_timed(evaluation, "_write_table", totals)
    start = time.perf_counter()
    metrics = harness.compute_metrics(trace, None)
    wall = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        harness._emit_plot_data(trace, Path(out), [])
        plot = time.perf_counter() - start
        digest = hashlib.sha256()
        for name in ("projection.csv", "surface.csv"):
            digest.update((Path(out) / name).read_bytes())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    try:
        fit_cop(trace.flat())
        _, fit_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with tempfile.TemporaryDirectory() as folder:
        start = time.perf_counter()
        samplers.save_trace(trace, folder)
        save = time.perf_counter() - start
        start = time.perf_counter()
        back = samplers.load_trace(folder)
        load = time.perf_counter() - start
    trace_digest = hashlib.sha256(back.samples.tobytes())
    trace_digest.update(back.potentials.tobytes())
    return {
        "compute_metrics_s": wall,
        "fit_cop_s": totals["fit_cop"],
        "log_density_s": totals["log_density"],
        "aggregate_ess_s": totals["aggregate_ess"],
        "plot_s": plot,
        "surface_s": totals["conditional_mean_surface"],
        "write_s": totals["_write_table"],
        "plot_sha256": digest.hexdigest(),
        "peak_rss_mb": rss_kb / 1024.0,
        "fit_peak_mb": fit_peak / 2**20,
        "workers": getattr(evaluation, "_WORKERS", 1),
        "c_op": last["fit_cop"].c_op,
        "naive_loss": metrics["naive_loss"],
        "ess_aggregate": metrics["ess_aggregate"],
        "save_trace_s": save,
        "load_trace_s": load,
        "trace_sha256": trace_digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = trees.argument_parser(__doc__, SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(trees.ROOT / "BENCH_evaluate.json"))
    args = parser.parse_args(argv)
    if args.measure:
        return trees.answer(measure, args.measure, args.size, args.seed)
    pairs = trees.parse_trees(parser, args.tree)
    trees.pin_blas()
    runs = trees.per_process(__file__, pairs, SIZES, args.repeats,
                             ["--seed", args.seed],
                             lambda result: f"{result['compute_metrics_s']:.2f} s, "
                                            f"plot {result['plot_s']:.3f} s")
    trees.write(
        args, __file__, pairs,
        "harness.compute_metrics, then harness._emit_plot_data, on a "
        "seeded AR(1) trace, one call each per process, BLAS pinned to "
        "one thread, 'workers' threads sharing the KDE's row blocks; "
        "peak_rss_mb after both; fit_peak_mb the tracemalloc peak of one "
        "more, untimed fit_cop call; plot_sha256 the digest of "
        "projection.csv then surface.csv; then save_trace_s and "
        "load_trace_s of one samplers.save_trace and load_trace call into "
        "a fresh folder, trace_sha256 the digest of the samples then the "
        "potentials read back; medians over repeats",
        sizes={size: list(shape) for size, shape in SIZES.items()},
        trees={label: {size: {"median": trees.medians(rs), "runs": rs}
                       for size, rs in by_size.items()}
               for label, by_size in runs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
