"""Time the AM-SGHMC update and its training VJP on source trees; write BENCH_strategy.json.

    python3 scripts/bench_strategy.py --tree before=PATH --tree after=. \
        [--pairs 15] [--calls 100] [--seed 1] [--out BENCH_strategy.json]

Every tree is imported into this one process (``trees.load_tree``); the
host's speed drifts between processes, so the trees' calls alternate
within one process instead.  For each size (stories x chains) the script
generates a default-settings problem of that building, draws the
chains' positions from the prior and their momenta, noise and
cotangents from a normal, and computes their energies and gradients
once.  Each tree then gets statistics seeded
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
the first tree's.
"""

from __future__ import annotations

import sys
import time

import trees

SIZES = {"5x32": (5, 32), "2x64": (2, 64)}
LAYERS = ("am_update", "am_update_vjp")
ETA = 1e-4


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


def measure(pkgs: list, size: str, pairs: int, calls: int, seed: int) -> dict:
    import numpy as np

    n_stories, k = SIZES[size]
    rows = inputs(pkgs[0][1], n_stories, k, seed)
    cases, outputs = {}, {}
    for label, pkg in pkgs:
        cases[label], outputs[label] = tree_case(pkg, rows, seed)
    first = pkgs[0][0]
    times = {label: {layer: [] for layer in LAYERS} for label, _ in pkgs}
    for layer in LAYERS:
        for label, _ in pkgs:
            block_ms(cases[label][layer], max(1, calls // 5))  # warm-up
        for rep in range(pairs):
            for label, _ in trees.alternate(pkgs, rep):
                times[label][layer].append(block_ms(cases[label][layer], calls))
    doc = {}
    for label, _ in pkgs:
        entry = {layer: {"ms_per_call": trees.quartiles(times[label][layer])}
                 for layer in LAYERS}
        if label != first:
            for layer in LAYERS:
                ratios = trees.ratios(times[label][layer], times[first][layer])
                entry[layer]["ratio_to_" + first] = trees.quartiles(ratios)
                entry[layer]["pairs_won"] = sum(r < 1.0 for r in ratios)
            entry["bit_identical_to_" + first] = all(
                np.array_equal(a, b) for a, b in zip(outputs[label], outputs[first]))
        doc[label] = entry
        print(f"{size} {label}: " + ", ".join(
            f"{layer} {entry[layer]['ms_per_call']['median']:.3f} ms"
            for layer in LAYERS), file=sys.stderr)
    return doc


def main(argv=None) -> int:
    parser = trees.argument_parser(__doc__)
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--calls", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(trees.ROOT / "BENCH_strategy.json"))
    args = parser.parse_args(argv)
    specs = trees.parse_trees(parser, args.tree)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    trees.pin_blas()
    pkgs = [(label, trees.load_tree(label, path)) for label, path in specs]
    trees.write(
        args, __file__, specs,
        "samplers.am_update (one AM-SGHMC step of every chain) and "
        "training.am_update_vjp plus its pullback on the same rows, "
        "all trees in one process with BLAS pinned to one thread; "
        "per pair one block of --calls calls per tree, trees "
        "alternating which goes first; times are per call",
        sizes={size: {"n_stories": n, "chains": k} for size, (n, k) in SIZES.items()},
        results={size: measure(pkgs, size, args.pairs, args.calls, args.seed)
                 for size in SIZES})
    return 0


if __name__ == "__main__":
    sys.exit(main())
