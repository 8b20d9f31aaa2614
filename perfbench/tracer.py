"""Outside-in tracing of the amsghmc layers.

A ``Tracer`` replaces public functions and methods of the program's
modules with timing wrappers, at the attribute their callers look up
(module attributes for module-level functions, class attributes for
methods), and puts every original back when it exits.  Each wrapped call
is a span; a layer's self time is its span time minus the time of the
wrapped calls made inside it.  Counters are computed from the arguments
and results at the same boundary, so ratios are measured where the work
happens.  The wrappers draw no random numbers and touch no program state,
so a traced run computes exactly what an untraced one does.

``delays`` adds a sleep inside named spans; the self-tests use it to
check that slowing one layer moves the end-to-end metric the layer map
predicts, and nothing else.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from amsghmc import (adaptive, autodiff, evaluation, harness, samplers,
                     strategy, structural, target, training)


def _dir_bytes(folder, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in Path(folder).glob(pattern) if p.is_file())


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0])


def _count_energy(c, args, kwargs, result, raised):
    c["rows"] += _rows(args[0])
    if raised:
        c["raised"] += 1
        return
    c["finite_rows"] += int(np.isfinite(result[0]).sum())


def _count_discretize(c, args, kwargs, result, raised):
    c["rows"] += _rows(args[1])  # (batch, n_stories) stiffness


def _count_one_row(c, args, kwargs, result, raised):
    c["rows"] += 1


def _count_step(c, args, kwargs, result, raised):
    state = args[0]
    c["chain_steps"] += int(state.alive.sum())


def _count_hmc_step(c, args, kwargs, result, raised):
    state = args[0]
    live = int(state.alive.sum())
    c["chain_steps"] += live
    if not raised:
        new_state, accepted = result
        c["accepted"] += int(accepted[state.alive].sum())
        c["proposed"] += live


def _count_am_update(c, args, kwargs, result, raised):
    c["rows"] += _rows(args[0])


def _count_tape_gradient(c, args, kwargs, result, raised):
    c["nodes"] += len(args[0])


def _count_segment(c, args, kwargs, result, raised):
    if raised:
        return
    if result.grad_flat is not None:
        c["usable"] += 1
    if result.aborted:
        c["aborted"] += 1


def _count_points(c, args, kwargs, result, raised):
    c["points"] += _rows(args[0])


def _count_fit(c, args, kwargs, result, raised):
    if not raised:
        c["points"] += _rows(result.centers)


def _count_log_density(c, args, kwargs, result, raised):
    kde, queries = args[0], args[1]
    c["pairs"] += _rows(queries) * _rows(kde.centers)


def _count_save(c, args, kwargs, result, raised):
    if not raised:
        c["bytes"] += _dir_bytes(args[1])


def _count_load(c, args, kwargs, result, raised):
    c["bytes"] += _dir_bytes(args[0], "chain_*.csv") + _dir_bytes(args[0], "trace.json")


def _no_count(c, args, kwargs, result, raised):
    pass


# Each entry: (span name, owner, attribute, counter).  The counter gets
# (counts, args, kwargs, result, raised) and adds to counts[name]; it runs
# outside the span's timed interval.
WRAPPED = (
    ("harness.run_experiment", harness, "run_experiment", _no_count),
    ("target.potential_energy_batch", target, "potential_energy_batch", _count_energy),
    ("structural.discretize_batch", structural, "discretize_batch", _count_discretize),
    ("structural.run_batch", structural, "run_batch", _no_count),
    ("structural.expm_fallback", structural, "_discretize_expm", _count_one_row),
    ("samplers.run_chains", samplers, "run_chains", _no_count),
    ("samplers.sghmc_step", samplers, "sghmc_step", _count_step),
    ("samplers.am_sghmc_step", samplers, "am_sghmc_step", _count_step),
    ("samplers.hmc_step", samplers, "hmc_step", _count_hmc_step),
    ("samplers.am_update", samplers, "am_update", _count_am_update),
    ("samplers.AdaptiveStats.update", samplers.AdaptiveStats, "update", _no_count),
    ("samplers.save_trace", samplers, "save_trace", _count_save),
    ("samplers.load_trace", samplers, "load_trace", _count_load),
    # samplers imports MomentEstimator by name; both module attributes
    # point at this one class, whose method is what gets wrapped.
    ("adaptive.MomentEstimator.update", adaptive.MomentEstimator, "update", _no_count),
    ("strategy.fast_q_eval", strategy, "fast_q_eval", _no_count),
    ("strategy.fast_d_eval", strategy, "fast_d_eval", _no_count),
    ("strategy.q_eval", strategy, "q_eval", _no_count),
    ("strategy.d_eval", strategy, "d_eval", _no_count),
    ("strategy.build_tape_nets", strategy, "build_tape_nets", _no_count),
    ("autodiff.Tape.gradient", autodiff.Tape, "gradient", _count_tape_gradient),
    ("training.run_segment", training, "run_segment", _count_segment),
    ("training.restart", training, "_restart_row", _no_count),
    ("training.entropy_terms", training, "entropy_terms", _no_count),
    ("training.stein_gradient", training, "stein_gradient", _count_points),
    ("evaluation.fit_cop", evaluation, "fit_cop", _count_fit),
    ("evaluation.KdeModel.log_density", evaluation.KdeModel, "log_density",
     _count_log_density),
    ("evaluation.aggregate_ess", evaluation, "aggregate_ess", _no_count),
    ("evaluation.pca_project", evaluation, "pca_project", _no_count),
    ("evaluation.conditional_mean_surface", evaluation,
     "conditional_mean_surface", _no_count),
)


class Tracer:
    """Context manager that wraps every entry of WRAPPED while active.

    It may be entered again after it exits; the figures accumulate.
    """

    def __init__(self, delays: dict | None = None):
        self.delays = dict(delays or {})
        unknown = set(self.delays) - {name for name, *_ in WRAPPED}
        if unknown:
            raise ValueError(f"no wrapped layer named {sorted(unknown)}")
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        delay = self.delays.get(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            result = None
            raised = True
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                span = time.perf_counter() - start
                children = self._stack.pop()
                self.self_s[name] += span - children
                if self._stack:
                    self._stack[-1] += span
                self.calls[name] += 1
                counter(self.counts[name], args, kwargs, result, raised)

        return wrapper

    def __enter__(self):
        for name, owner, attr, counter in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def metrics(self) -> dict:
        """Per-layer figures as {name: (value, unit)}, named as in
        BENCHMARK.json.  Ratios read 0 when their layer did no work; the
        matching count then reads 0 as well.
        """
        s, n, c = self.self_s, self.calls, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        energy = c["target.potential_energy_batch"]
        hmc = c["samplers.hmc_step"]
        seg = c["training.run_segment"]
        chain_steps = sum(c[k]["chain_steps"] for k in (
            "samplers.sghmc_step", "samplers.am_sghmc_step", "samplers.hmc_step"))
        out = {
            "target.potential_energy_batch.self_s": s["target.potential_energy_batch"],
            "target.potential_energy_batch.calls": n["target.potential_energy_batch"],
            "target.potential_energy_batch.rows": energy["rows"],
            "target.potential_energy_batch.raised": energy["raised"],
            "target.potential_energy_batch.finite_frac": frac(
                energy["finite_rows"], energy["rows"]),
            "structural.discretize_batch.self_s": s["structural.discretize_batch"],
            "structural.discretize_batch.rows": c["structural.discretize_batch"]["rows"],
            "structural.run_batch.self_s": s["structural.run_batch"],
            "structural.run_batch.calls": n["structural.run_batch"],
            "structural.expm_fallback.rows": c["structural.expm_fallback"]["rows"],
            "samplers.run_chains.self_s": s["samplers.run_chains"] + sum(
                s[k] for k in ("samplers.sghmc_step", "samplers.am_sghmc_step",
                               "samplers.hmc_step")),
            "samplers.run_chains.chain_steps": chain_steps,
            "samplers.hmc.accept_frac": frac(hmc["accepted"], hmc["proposed"]),
            "samplers.am_update.self_s": s["samplers.am_update"],
            "samplers.am_update.rows": c["samplers.am_update"]["rows"],
            "samplers.AdaptiveStats.update.self_s": s["samplers.AdaptiveStats.update"],
            "samplers.AdaptiveStats.update.calls": n["samplers.AdaptiveStats.update"],
            "adaptive.MomentEstimator.update.self_s": s["adaptive.MomentEstimator.update"],
            "adaptive.MomentEstimator.update.calls": n["adaptive.MomentEstimator.update"],
            "strategy.fast_q_eval.self_s": s["strategy.fast_q_eval"],
            "strategy.fast_d_eval.self_s": s["strategy.fast_d_eval"],
            "strategy.q_eval.self_s": s["strategy.q_eval"],
            "strategy.d_eval.self_s": s["strategy.d_eval"],
            "strategy.build_tape_nets.self_s": s["strategy.build_tape_nets"],
            "autodiff.Tape.gradient.self_s": s["autodiff.Tape.gradient"],
            "autodiff.Tape.gradient.calls": n["autodiff.Tape.gradient"],
            "autodiff.Tape.gradient.nodes": c["autodiff.Tape.gradient"]["nodes"],
            "training.run_segment.self_s": s["training.run_segment"],
            "training.run_segment.calls": n["training.run_segment"],
            "training.run_segment.usable_frac": frac(seg["usable"],
                                                     n["training.run_segment"]),
            "training.run_segment.aborted": seg["aborted"],
            "training.train.restarts": n["training.restart"],
            "training.entropy_terms.self_s": s["training.entropy_terms"],
            "training.stein_gradient.self_s": s["training.stein_gradient"],
            "training.stein_gradient.points": c["training.stein_gradient"]["points"],
            "evaluation.fit_cop.self_s": s["evaluation.fit_cop"],
            "evaluation.fit_cop.calls": n["evaluation.fit_cop"],
            "evaluation.fit_cop.points": c["evaluation.fit_cop"]["points"],
            "evaluation.KdeModel.log_density.self_s": s["evaluation.KdeModel.log_density"],
            "evaluation.KdeModel.log_density.pairs": c["evaluation.KdeModel.log_density"]["pairs"],
            "evaluation.aggregate_ess.self_s": s["evaluation.aggregate_ess"],
            "evaluation.pca_project.self_s": s["evaluation.pca_project"],
            "evaluation.conditional_mean_surface.self_s": s["evaluation.conditional_mean_surface"],
            "samplers.save_trace.self_s": s["samplers.save_trace"],
            "samplers.save_trace.bytes": c["samplers.save_trace"]["bytes"],
            "samplers.load_trace.self_s": s["samplers.load_trace"],
            "samplers.load_trace.bytes": c["samplers.load_trace"]["bytes"],
            "harness.run_experiment.self_s": s["harness.run_experiment"],
        }
        return {name: (value, _unit(name)) for name, value in out.items()}


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"
