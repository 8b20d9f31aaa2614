"""Shared parts of the before/after scripts: name, run and summarize source trees.

Each ``--tree LABEL=PATH`` names a checkout.  A tree runs either in a
child process of its own (``per_process``, ``run_child``, ``answer``), so
that its memory and page faults are its own, or with every other tree in
one process (``load_tree``), so that their calls can alternate while the
host's speed drifts between processes.  Either way BLAS runs one thread
in the process that measures, and only labels, never paths, are written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def argument_parser(doc: str, sizes=()) -> argparse.ArgumentParser:
    """A parser described by ``doc``'s first line, with ``--tree LABEL=PATH``
    and, given ``sizes``, the hidden flags of ``per_process``'s children."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="LABEL=PATH of a checkout")
    if sizes:
        parser.add_argument("--measure", metavar="TREE", help=argparse.SUPPRESS)
        parser.add_argument("--size", choices=sizes, help=argparse.SUPPRESS)
    return parser


def parse_trees(parser, specs: list, least: int = 1) -> list:
    """``(label, resolved path)`` per spec; a bad spec, or fewer than
    ``least``, is a usage error."""
    if len(specs) < least:
        parser.error(f"give at least {least} --tree LABEL=PATH")
    pairs = {}
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not (sep and label) or label in pairs:
            parser.error(f"--tree {spec!r}: need LABEL=PATH with a new, nonempty label")
        pairs[label] = Path(path).resolve()
        if not (pairs[label] / "src" / "amsghmc" / "__init__.py").is_file():
            parser.error(f"--tree {spec!r}: no src/amsghmc/__init__.py there")
    return list(pairs.items())


def alternate(items: list, rep: int) -> list:
    return items if rep % 2 == 0 else items[::-1]


def pin_blas() -> None:
    """Pin BLAS to one thread in this process and the children it starts,
    then stop unless perfbench's reader finds one.  Call before numpy loads."""
    os.environ.update({var: "1" for var in BLAS_VARS})
    threads = perfbench()._blas_threads()
    if threads is None:
        print("BLAS thread count unreadable; the pin is unchecked", file=sys.stderr)
    elif threads != 1:
        raise SystemExit(f"BLAS runs {threads} threads, not 1: set "
                         f"{', '.join(BLAS_VARS)} before numpy is imported")


def perfbench():
    """This checkout's ``perfbench/run.py``, imported as ``perfbench_run``
    so that it never stands in for a tree's own ``run`` module."""
    return _import("perfbench_run", ROOT / "perfbench" / "run.py")


def load_tree(label: str, path: Path):
    """The ``amsghmc`` package of the checkout at ``path``, imported as
    ``amsghmc_<label>`` so that several trees live in one process."""
    init = path / "src" / "amsghmc" / "__init__.py"
    return _import(f"amsghmc_{label}", init,
                   submodule_search_locations=[str(init.parent)])


def _import(name: str, path: Path, **spec_kwargs):
    spec = importlib.util.spec_from_file_location(name, path, **spec_kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def answer(fn, tree: str, *args) -> int:
    """The child's side of ``run_child``: with the tree's ``src/`` and
    ``perfbench/`` first on the import path, print ``fn(*args)`` as JSON."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    pin_blas()
    print(json.dumps(fn(*args)))
    return 0


def run_child(script: str, args: list) -> dict:
    """The JSON last line of ``script args`` run in a child process; a failed
    child raises ``RuntimeError`` with the end of its standard error."""
    argv = [sys.executable, str(script), *map(str, args)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-30:])
        raise RuntimeError(f"{' '.join(argv[1:])} exited with status "
                           f"{proc.returncode}:\n{tail}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_process(script: str, pairs: list, sizes, repeats: int, args: list,
                show) -> dict:
    """``runs[label][size]``: the results of ``script --measure TREE --size
    SIZE *args``, one child per tree, size and repeat, trees alternating."""
    runs = {label: {size: [] for size in sizes} for label, _ in pairs}
    for size in sizes:
        for rep in range(repeats):
            for label, tree in alternate(pairs, rep):
                result = run_child(script, ["--measure", tree, "--size", size, *args])
                runs[label][size].append(result)
                print(f"{size} {label} run {rep}: {show(result)}", file=sys.stderr)
    return runs


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def wrap_timed(owner, name: str, spent: dict, faults: dict | None = None,
               last: dict | None = None) -> None:
    """Wrap ``owner.name`` to add each call's seconds to ``spent[name]`` and,
    if given, its minor page faults to ``faults[name]`` and its result to
    ``last[name]``."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        first = minflt()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if last is not None:
                last[name] = result
            return result
        finally:
            spent[name] += time.perf_counter() - start
            if faults is not None:
                faults[name] += minflt() - first

    setattr(owner, name, wrapper)


def medians(runs: list) -> dict:
    """The median of each numeric key over ``runs``; a text key (a digest)
    keeps its value when every run agrees and becomes None when they do not."""
    out = {}
    for key in runs[0]:
        values = [r[key] for r in runs]
        if isinstance(values[0], str):
            out[key] = values[0] if len(set(values)) == 1 else None
        else:
            out[key] = statistics.median(values)
    return out


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def ratios(values, base) -> list:
    return [a / b for a, b in zip(values, base)]


def write(args, script: str, pairs: list, what: str, **sections) -> None:
    """Write ``args.out``: ``what``, the command with ``args``' other flags
    (labels, never paths), ``environment``, then ``sections``."""
    command = [f"python3 scripts/{Path(script).name}"]
    command += [f"--tree {label}=..." for label, _ in pairs]
    command += [f"--{flag} {value}" for flag, value in vars(args).items()
                if flag not in ("tree", "out") and value is not None]
    doc = {"what": what, "command": " ".join(command),
           "environment": perfbench().environment(), **sections}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
