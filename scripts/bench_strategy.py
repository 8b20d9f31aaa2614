"""Time the AM-SGHMC update and its training VJP on source trees; write BENCH_strategy.json.

    python3 scripts/bench_strategy.py --tree before=PATH --tree after=. \
        [--pairs 15] [--calls 100] [--seed 1] [--out BENCH_strategy.json]

Each ``--tree LABEL=PATH`` names a checkout whose ``src/amsghmc`` is
imported into this one process under a name of its own, with BLAS
pinned to one thread; the host's speed drifts between processes, so the
trees' calls alternate within one process instead.  For each size
(stories x chains) the script generates a default-settings problem of
that building, draws the chains' positions from the prior and their
momenta, noise and cotangents from a normal, and computes their
energies and gradients once.  Each tree then gets statistics seeded
from those states and networks built by its own ``init_strategy`` from
the same seed, with normal biases added so that no bias is zero.

Two layers are timed on the same rows:

* ``am_update``: ``samplers.am_update``, one step of every chain;
* ``am_update_vjp``: ``training.am_update_vjp`` on those rows followed
  by its pullback, the training gradient of one step.

A pair is one block of ``--calls`` calls per tree, run back to back, and
which tree goes first alternates between pairs.  Per tree and layer the
file gives the median and quartiles over pairs of the time per call,
and for every tree after the first the median and quartiles of its
paired time ratio to the first tree, the number of pairs it won, and
whether its outputs (theta1, p1 and the pullback) are bit-identical to
the first tree's.  Only the labels, never the paths, go into the file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"5x32": (5, 32), "2x64": (2, 64)}
LAYERS = ("am_update", "am_update_vjp")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ETA = 1e-4


def load_tree(label: str, path: Path):
    """The ``amsghmc`` package of the checkout at ``path``, imported as
    ``amsghmc_<label>`` so that several trees live in one process."""
    name = f"amsghmc_{label}"
    init = path / "src" / "amsghmc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def inputs(pkg, n_stories: int, k: int, seed: int) -> dict:
    """Chain rows shared by every tree (see the module docstring)."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, n_stories, k]))
    cfg = pkg.structural.DatasetConfig(n_stories=n_stories)
    dataset, _ = pkg.structural.generate_dataset(cfg, rng)
    problem = pkg.target.default_problem(cfg.building, dataset)
    w = pkg.target.sample_prior_ratios(problem.priors, rng, k)
    theta = pkg.target.map_params_to_state(w, problem.transform)
    u, grad = pkg.target.potential_energy_batch(theta, problem)
    d = theta.shape[1]
    return {"theta": theta, "u": u, "grad": grad,
            "p": rng.normal(size=(k, d)), "xi": rng.normal(size=(k, d)),
            "cot": rng.normal(size=(k, d)), "categories": problem.categories,
            "bias_seed": int(rng.integers(2**31))}


def tree_case(pkg, rows: dict, seed: int):
    """The two timed calls of one tree, as closures over its own objects,
    and its outputs."""
    import numpy as np

    sn, sp, tr = pkg.strategy, pkg.samplers, pkg.training
    nets = sn.init_strategy(sn.StrategyConfig(), np.random.default_rng(seed))
    bias_rng = np.random.default_rng(rows["bias_seed"])
    for layers in (nets.q_layers, nets.d_layers):
        for _, b in layers:
            b[:] = bias_rng.normal(scale=0.1, size=b.shape)
    theta, p, u, grad, xi = (rows[key] for key in ("theta", "p", "u", "grad", "xi"))
    stats = sp.AdaptiveStats(theta.shape[1])
    stats.update(theta, u)
    oh = sn.one_hot(rows["categories"], nets.cfg.n_categories)
    u_hat, du_star = sp.normalize_inputs(u, grad, stats)
    sig = np.broadcast_to(stats.sigma_i, theta.shape)

    def update():
        return sp.am_update(theta, p, u, grad, xi, ETA, nets, stats, oh)

    def vjp():
        _, _, pullback = tr.am_update_vjp(nets, theta, p, grad, u_hat,
                                          du_star, sig, xi, ETA, oh)
        return pullback(rows["cot"])

    theta1, p1 = update()
    return {"am_update": update, "am_update_vjp": vjp}, [theta1, p1, vjp()]


def block_ms(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return 1e3 * (time.perf_counter() - start) / calls


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def measure(trees: list, size: str, pairs: int, calls: int, seed: int) -> dict:
    import numpy as np

    n_stories, k = SIZES[size]
    rows = inputs(trees[0][1], n_stories, k, seed)
    cases, outputs = {}, {}
    for label, pkg in trees:
        cases[label], outputs[label] = tree_case(pkg, rows, seed)
    first = trees[0][0]
    times = {label: {layer: [] for layer in LAYERS} for label, _ in trees}
    for layer in LAYERS:
        for label, _ in trees:
            block_ms(cases[label][layer], max(1, calls // 5))  # warm-up
        for rep in range(pairs):
            order = trees if rep % 2 == 0 else trees[::-1]
            for label, _ in order:
                times[label][layer].append(block_ms(cases[label][layer], calls))
    doc = {}
    for label, _ in trees:
        entry = {layer: {"ms_per_call": quartiles(times[label][layer])}
                 for layer in LAYERS}
        if label != first:
            for layer in LAYERS:
                ratios = [a / b for a, b in zip(times[label][layer],
                                                times[first][layer])]
                entry[layer]["ratio_to_" + first] = quartiles(ratios)
                entry[layer]["pairs_won"] = sum(r < 1.0 for r in ratios)
            entry["bit_identical_to_" + first] = all(
                np.array_equal(a, b) for a, b in zip(outputs[label], outputs[first]))
        doc[label] = entry
        print(f"{size} {label}: " + ", ".join(
            f"{layer} {entry[layer]['ms_per_call']['median']:.3f} ms"
            for layer in LAYERS), file=sys.stderr)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=PATH of a checkout to measure")
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--calls", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_strategy.json"))
    args = parser.parse_args(argv)
    if not args.tree:
        parser.error("give at least one --tree LABEL=PATH")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    # Before numpy is imported.
    os.environ.update({var: "1" for var in BLAS_VARS})
    trees = []
    for spec in args.tree:
        label, path = spec.split("=", 1)
        trees.append((label, load_tree(label, Path(path).resolve())))

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import environment

    doc = {
        "what": "samplers.am_update (one AM-SGHMC step of every chain) and "
                "training.am_update_vjp plus its pullback on the same rows, "
                "all trees in one process with BLAS pinned to one thread; "
                "per pair one block of --calls calls per tree, trees "
                "alternating which goes first; times are per call",
        "command": "python3 scripts/bench_strategy.py " + " ".join(
            f"--tree {label}=..." for label, _ in trees)
            + f" --pairs {args.pairs} --calls {args.calls} --seed {args.seed}",
        "environment": environment(),
        "sizes": {size: {"n_stories": n, "chains": k}
                  for size, (n, k) in SIZES.items()},
        "results": {size: measure(trees, size, args.pairs, args.calls, args.seed)
                    for size in SIZES},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
