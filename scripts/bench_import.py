"""Time `import amsghmc` in fresh processes on source trees; write BENCH_import.json.

    python3 scripts/bench_import.py --tree before=PATH --tree after=. \
        [--repeats 10] [--out BENCH_import.json]

Every stage process pays for importing the package before it does any
work, so each repeat runs each tree in a new child process of its own
(``trees.per_process``), trees alternating which goes first.  A child
puts the tree's ``src/`` first on the import path and then, with nothing
but the standard library loaded, times ``import amsghmc`` and reads:

* ``import_s``: the wall time of that import;
* ``rss_mb``: the process's peak resident set size right after it;
* ``modules``: how many modules are loaded, and ``scipy_modules`` how
  many of them belong to scipy;
* ``openblas_libs``: how many distinct OpenBLAS libraries are mapped into
  the process (numpy brings one; scipy brings its own).

BLAS is pinned to one thread through the environment the children
inherit; a child runs ``trees.pin_blas``' check only after it has
measured, as the check itself loads numpy.  Per tree the file gives the
median of each figure over the repeats and every run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import trees

SIZES = {"package": "import amsghmc"}


def measure(tree: str) -> dict:
    """One import of the tree's package, in this fresh process."""
    sys.path.insert(0, str(Path(tree) / "src"))
    start = time.perf_counter()
    import amsghmc  # noqa: F401
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    modules = list(sys.modules)
    with open("/proc/self/maps") as maps:
        blas = {line.split()[-1] for line in maps if "openblas" in line}
    trees.pin_blas()  # only checks: the variables came from the parent
    return {
        "import_s": wall,
        "rss_mb": rss_kb / 1024.0,
        "modules": len(modules),
        "scipy_modules": sum(m.split(".")[0] == "scipy" for m in modules),
        "openblas_libs": len(blas),
    }


def main(argv=None) -> int:
    parser = trees.argument_parser(__doc__, SIZES)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", default=str(trees.ROOT / "BENCH_import.json"))
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    pairs = trees.parse_trees(parser, args.tree)
    trees.pin_blas()
    runs = trees.per_process(__file__, pairs, SIZES, args.repeats, [],
                             lambda result: f"{result['import_s']:.3f} s, "
                                            f"{result['rss_mb']:.1f} MB")
    trees.write(
        args, __file__, pairs,
        "import amsghmc in a fresh process per tree and repeat, trees "
        "alternating, BLAS pinned to one thread: wall time, peak RSS right "
        "after the import, modules loaded (scipy's among them) and OpenBLAS "
        "libraries mapped; medians over repeats",
        trees={label: {"median": trees.medians(by_size["package"]),
                       "runs": by_size["package"]}
               for label, by_size in runs.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
