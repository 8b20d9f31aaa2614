"""Benchmark of the amsghmc pipeline, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, checks the physics gradient
against finite differences, then either

* ``--trace 0``: repeats the workload's stage call for about S seconds
  and reports the end-to-end metrics, with timings scaled to a reference
  host speed (see ``HostSpeed``), or
* ``--trace 1``: makes one untraced and one traced call with the same
  seed, checks that their outputs are bit-identical, and reports the
  per-layer metrics of the traced call and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the environment and every call.  The exit code is nonzero when
an output check fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# Seconds the reference kernel takes on the 2-core Xeon VM these numbers
# come from.  It only fixes the scale of the scaled metrics.
REF_S = 0.04
# The stages slow down by about the square root of the kernel's slowdown:
# fitting log wall time on log kernel time gave 0.58 for SGHMC calls and
# 0.37 for evaluate calls, and 0.5 gave the narrowest or near-narrowest
# spread of work_per_s on every workload measured (README.md).
HOST_EXPONENT = 0.5


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> None:
    # Must run before numpy is imported.  The stages are one stream of
    # small matrix products, which a second BLAS thread did not speed up on
    # a 2-core Xeon and made noisier, so one thread, whatever the caller's
    # environment says.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads():
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class HostSpeed:
    """A fixed reference kernel, timed between stage calls.

    The 2-core Xeon VM these numbers come from switches between speed
    states up to 1.7x apart that last from seconds to minutes, and
    interpreter loops, small BLAS calls and energy evaluations slow down
    together.  The kernel has the shape of one energy evaluation at K=32
    (a batched eigendecomposition, then a 300-step march of state and
    sensitivities by small einsum calls) but runs on fixed data that no
    program change touches, so a timing divided by the host slowdown read
    around it moves with the program and much less with the host.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._a = 0.1 * rng.standard_normal((32, 10, 10))
        self._f = 0.01 * rng.standard_normal((32, 11, 10, 10))
        self._g = rng.standard_normal((32, 11, 10))
        self._v = rng.standard_normal((32, 10))
        self._c = rng.standard_normal((32, 5, 10))

    def _seconds(self) -> float:
        import numpy as np
        start = time.perf_counter()
        _, vec = np.linalg.eig(self._a)
        np.linalg.inv(vec)
        x = np.zeros_like(self._v)
        xp = np.zeros_like(self._g)
        for _ in range(300):
            xp = (np.einsum("bij,bpj->bpi", self._a, xp)
                  + np.einsum("bpij,bj->bpi", self._f, x) + self._g)
            x = np.einsum("bij,bj->bi", self._a, x) + self._v
            np.einsum("bni,bpi->bpn", self._c, xp)
        return time.perf_counter() - start

    def slowdown(self) -> float:
        """Estimated slowdown of the stages now, above 1 on a host slower
        than the reference: the kernel's slowdown to ``HOST_EXPONENT``.

        Garbage is collected and the kernel runs once untimed first, so
        memory the previous call left behind is settled before the median
        of three timed runs is taken.  A call that allocated and freed
        400 MB in every energy evaluation moved this reading by 1%
        (README.md).
        """
        gc.collect()
        self._seconds()
        kernel = statistics.median(self._seconds() for _ in range(3))
        return (kernel / REF_S) ** HOST_EXPONENT


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call(wl, ctx, seed: int, out: Path, tracer=None):
    """One stage call, traced only while the stage runs, so the output
    checks stay out of the per-layer figures.  Returns (wall seconds,
    outcome, fingerprint)."""
    from amsghmc import harness
    cfg = wl.config(ctx, seed, out)
    report = exc = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        count = wl.work_count()
        if count is not None:
            stack.enter_context(count)
        start = time.perf_counter()
        try:
            report = harness.run_experiment(wl.stage, cfg)
        except harness.StageError as err:
            exc = err
        wall = time.perf_counter() - start
    work = count.work if count is not None else None
    return (wall, wl.outcome(ctx, cfg, report, exc, work),
            wl.fingerprint(cfg, report, exc))


def timed_setups(wl, work: Path, seed: int, repeats: int, host: HostSpeed):
    """Builds the inputs ``repeats`` times after one untimed warm-up.
    Returns (median set-up seconds, the median of each set-up's seconds
    divided by its host slowdown, the last context)."""
    ctx = wl.setup(work / "setup_warm", seed)
    plain, scaled = [], []
    before = host.slowdown()
    for i in range(repeats):
        start = time.perf_counter()
        ctx = wl.setup(work / f"setup_{i}", seed)
        plain.append(time.perf_counter() - start)
        after = host.slowdown()
        scaled.append(plain[-1] / (0.5 * (before + after)))
        before = after
    return statistics.median(plain), statistics.median(scaled), ctx


def measure(wl, ctx, work: Path, seed: int, seconds: float, setup_s: float,
            host: HostSpeed) -> dict:
    """Closed loop of stage calls for about ``seconds``: a call starts only
    if the median call so far would still end inside the budget, and at
    least one call runs.  Each call gets its own seed derived from the
    run's seed.

    ``work_per_s`` is the run's work over the run's call time, each call's
    wall time first divided by its host slowdown: the mean of the readings
    taken just before and just after it, each once the previous call's
    files and memory are freed.  Summing before dividing weights each call
    by its length.
    """
    calls = []
    reading = host.slowdown()
    start = time.perf_counter()
    while True:
        i = len(calls)
        out = work / f"call_{i}"
        wall, oc, _ = call(wl, ctx, seed * 1000 + i, out)
        shutil.rmtree(out, ignore_errors=True)
        after = host.slowdown()
        oc.info["slowdown"] = 0.5 * (reading + after)
        reading = after
        calls.append((wall, oc))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w for w, _ in calls) > seconds:
            break
    items = sum(oc.items for _, oc in calls)
    return {
        "calls": calls,
        "unscaled_work_per_s": items / sum(wall for wall, _ in calls),
        "metrics": {
            "work_per_s": (items / sum(wall / oc.info["slowdown"]
                                       for wall, oc in calls), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "setup_s": (setup_s, "s"),
        },
    }


def traced(wl, ctx, work: Path, seed: int) -> dict:
    from tracer import Tracer
    wall_a, oc_a, fp_a = call(wl, ctx, seed, work / "untraced")
    tracer = Tracer()
    wall_b, oc_b, fp_b = call(wl, ctx, seed, work / "traced", tracer)
    errors = [] if fp_a == fp_b else ["traced outputs differ from untraced outputs"]
    return {
        "calls": [(wall_a, oc_a), (wall_b, oc_b)],
        "metrics": tracer.metrics(),
        "errors": errors,
        "tracing_overhead_s": wall_b - wall_a,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # Measure the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "amsghmc" / "__init__.py").is_file():
        sys.exit(f"no amsghmc source under {ROOT / 'src'}")
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    wl = workloads.make(args.workload)
    # A terminated run still removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        host = HostSpeed()
        unscaled_setup_s, setup_s, ctx = timed_setups(
            wl, work, args.seed, 1 if args.trace else SETUP_REPEATS, host)
        errors = workloads.fd_check(ctx["problem"], args.seed) if wl.physics else []
        if args.trace:
            result = traced(wl, ctx, work, args.seed)
            errors += result["errors"]
        else:
            result = measure(wl, ctx, work, args.seed, args.seconds, setup_s, host)
            result["unscaled_setup_s"] = unscaled_setup_s
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    calls = result["calls"]
    for _, oc in calls:
        errors += oc.errors
    attempted = sum(oc.attempted for _, oc in calls)
    failed = sum(oc.failed for _, oc in calls)
    env = environment()
    env["tracing_overhead_s"] = result.get("tracing_overhead_s")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "item": wl.item, "fail_frac": failed / attempted,
        "unscaled_work_per_s": result.get("unscaled_work_per_s"),
        "unscaled_setup_s": result.get("unscaled_setup_s"),
        "calls": [{"wall_s": wall, "items": oc.items, "attempted": oc.attempted,
                   "failed": oc.failed, **oc.info} for wall, oc in calls],
        "check_errors": errors,
    }))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    raise SystemExit(main())
