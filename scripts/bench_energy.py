"""Time the posterior energy and gradient on source trees and write BENCH_energy.json.

    python3 scripts/bench_energy.py --tree before=PATH --tree after=. \
        [--repeats 3] [--calls 40] [--seed 1] [--out BENCH_energy.json]

For every size (stories, chains) and every repeat, each tree runs in its
own process (``trees.per_process``).  A run generates a default-settings
dataset (3 s record, dt 0.01, observed dofs (0, n-1)) for the size's
building, draws the chain states from the prior, makes one untimed
warm-up call of ``target.potential_energy_batch`` and then times
``--calls`` more.  Each call is split into ``structural.discretize_batch``,
``run_batch`` (the march and readout) and ``response_vjp`` (the adjoint)
by wrapping them; the rest of the call is the prior, transform and
residual.  ``structural._march``, the adjoint's step-by-step loop, is
timed as well; it runs inside ``response_vjp``, so its time is also part
of that layer's.  Next to each time, the minor page faults the process
took in that span (``ru_minflt`` deltas) are recorded: a record-sized
array that is freed and allocated anew every call shows up there.
Per-call figures are medians over the calls.  The host's speed drifts
from one process to the next, so for every tree after the first the file
also gives ``total_ms_ratio``: the median over repeats of its total time
over the first tree's in the same repeat, which run back to back.  Each
tree also gets ``energy_max_rel_diff`` and ``grad_max_rel_diff``:
against the first tree's first run on the same states, the largest over
repeats and chains of |u - u_first| / |u_first|, and of a chain's
largest |grad - grad_first| over its largest |grad_first|.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import trees

SIZES = {"5x32": (5, 32), "2x64": (2, 64), "10x32": (10, 32), "5x1": (5, 1)}
LAYERS = ("discretize_batch", "run_batch", "response_vjp", "_march")


def measure(size: str, seed: int, calls: int) -> dict:
    """Time energy-and-gradient calls on the imported tree, in this process."""
    import numpy as np
    from amsghmc import structural, target

    n_stories, k = SIZES[size]
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_stories, k]))
    cfg = structural.DatasetConfig(n_stories=n_stories)
    dataset, _ = structural.generate_dataset(cfg, rng)
    problem = target.default_problem(cfg.building, dataset)
    w = target.sample_prior_ratios(problem.priors, rng, k)
    thetas = target.map_params_to_state(w, problem.transform)
    u, grad = target.potential_energy_batch(thetas, problem)

    spent = dict.fromkeys(LAYERS, 0.0)
    faults = dict.fromkeys(LAYERS, 0)
    for name in LAYERS:
        trees.wrap_timed(structural, name, spent, faults)
    names = ("total",) + LAYERS
    per_call = {name: [] for name in names}
    faults_per_call = {name: [] for name in names}
    for _ in range(calls):
        before, faults_before = dict(spent), dict(faults)
        first = trees.minflt()
        start = time.perf_counter()
        target.potential_energy_batch(thetas, problem)
        per_call["total"].append(time.perf_counter() - start)
        faults_per_call["total"].append(trees.minflt() - first)
        for name in LAYERS:
            per_call[name].append(spent[name] - before[name])
            faults_per_call[name].append(faults[name] - faults_before[name])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {}
    for name in names:
        result[f"{name}_ms"] = 1e3 * statistics.median(per_call[name])
        result[f"{name}_minflt"] = statistics.median(faults_per_call[name])
    result["peak_rss_mb"] = rss_kb / 1024.0
    result["energy_sum"] = float(np.sum(u))
    result["grad_norm"] = float(np.linalg.norm(grad))
    result["energies"] = u.tolist()
    result["grads"] = grad.tolist()
    return result


def max_rel_diffs(result: dict, first: dict) -> dict:
    """Largest relative departures of one run's energies and gradients from
    another run's on the same states (see the module docstring)."""
    import numpy as np

    u, u0 = np.array(result["energies"]), np.array(first["energies"])
    g, g0 = np.array(result["grads"]), np.array(first["grads"])
    return {
        "energy_max_rel_diff": float(np.max(np.abs(u - u0) / np.abs(u0))),
        "grad_max_rel_diff": float(np.max(np.abs(g - g0).max(axis=1)
                                          / np.abs(g0).max(axis=1))),
    }


def summarize(runs: list, first: list) -> dict:
    diffs = [max_rel_diffs(r, first[0]) for r in runs]
    kept = [{key: val for key, val in r.items() if key not in ("energies", "grads")}
            for r in runs]
    doc = {"median": trees.medians(kept)}
    for key in diffs[0]:
        doc[key] = max(d[key] for d in diffs)
    if runs is not first:
        doc["total_ms_ratio"] = statistics.median(trees.ratios(
            [r["total_ms"] for r in runs], [f["total_ms"] for f in first]))
    doc["runs"] = kept
    return doc


def main(argv=None) -> int:
    parser = trees.argument_parser(__doc__, SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--calls", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(trees.ROOT / "BENCH_energy.json"))
    args = parser.parse_args(argv)
    if args.measure:
        return trees.answer(measure, args.measure, args.size, args.seed, args.calls)
    pairs = trees.parse_trees(parser, args.tree)
    trees.pin_blas()
    runs = trees.per_process(__file__, pairs, SIZES, args.repeats,
                             ["--seed", args.seed, "--calls", args.calls],
                             lambda result: f"{result['total_ms']:.2f} ms")
    first = runs[pairs[0][0]]
    trees.write(
        args, __file__, pairs,
        "target.potential_energy_batch (energy and gradient) at the "
        "default 3 s record, one process per tree, size and repeat, "
        "BLAS pinned to one thread; per-call medians over --calls "
        "calls, then medians over repeats; *_minflt are minor page "
        "faults per call",
        sizes={size: {"n_stories": n, "chains": k} for size, (n, k) in SIZES.items()},
        trees={label: {size: summarize(rs, first[size]) for size, rs in by_size.items()}
               for label, by_size in runs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
