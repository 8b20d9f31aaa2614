"""Workloads of the benchmark: inputs, one stage call, and output checks.

Every workload is a closed loop of one client: the next stage call
through ``harness.run_experiment`` starts only after the previous one
returned, in one process.  A workload makes its inputs from the seed in
``setup`` and judges one call's outputs in ``outcome``; the loop itself
lives in run.py.  See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from amsghmc import harness, samplers, strategy, target, training


@dataclass(frozen=True)
class Size:
    """Run lengths.  ``FULL`` is what the benchmark measures; ``TINY``
    keeps the self-tests fast and is never reported."""

    n_stories: int
    duration: float
    k: int
    sghmc_steps: int
    sghmc_burn: int
    am_steps: int
    am_burn: int
    am_window: int
    diverging_am_steps: int
    diverging_am_burn: int
    diverging_am_window: int
    hmc_steps: int
    hmc_burn: int
    eval_k: int
    eval_s: int
    eval_d: int
    train: dict
    steady_train_stories: int
    steady_train: dict


# The shortened schedule of ROADMAP item 1 (default physics and
# hyperparameters otherwise).
TRAIN_SCHEDULE = {"epochs": 1, "sub_epochs": 2, "adapt_epochs": 1, "adapt_last": 2}
# Where training works at this commit: the 2-story problems and the step
# size of the repository's own training tests, the schedule above with
# two 15-step segments per sub-epoch, default hyperparameters otherwise.
STEADY_TRAIN = dict(TRAIN_SCHEDULE, eta=1e-4, steps_per_sub_epoch=30)

FULL = Size(
    n_stories=5, duration=3.0, k=32,
    sghmc_steps=20, sghmc_burn=10,
    # The statistics window opens at the last step but one, so the
    # adaptive statistics fold in states inside the run but no chain has
    # time to diverge: no operation of a gated workload may fail.
    am_steps=20, am_burn=10, am_window=19,
    # Opened at step 30 as the shipped window (300, 2800) would be in a
    # default-length run, it lets every chain diverge on most calls
    # (ROADMAP item 1); ``sample_amsghmc_window30`` runs this.
    diverging_am_steps=60, diverging_am_burn=40, diverging_am_window=30,
    # Two steps (20 energy evaluations) keep a call near the length of an
    # SGHMC call, so the host is read as often.
    hmc_steps=2, hmc_burn=1,
    # K*S = 4160 exceeds fit_cop's 4000-center cap, so its thinning path runs.
    eval_k=32, eval_s=130, eval_d=11,
    train=TRAIN_SCHEDULE,
    steady_train_stories=2, steady_train=STEADY_TRAIN,
)

TINY = Size(
    n_stories=2, duration=0.5, k=4,
    sghmc_steps=6, sghmc_burn=3,
    am_steps=10, am_burn=6, am_window=9,
    diverging_am_steps=10, diverging_am_burn=6, diverging_am_window=3,
    hmc_steps=3, hmc_burn=1,
    eval_k=4, eval_s=40, eval_d=5,
    train={"epochs": 1, "sub_epochs": 1, "adapt_epochs": 1, "adapt_last": 1,
           "steps_per_sub_epoch": 15, "K0": 8, "K": 4},
    steady_train_stories=2,
    steady_train={"epochs": 1, "sub_epochs": 1, "adapt_epochs": 1, "adapt_last": 1,
                  "steps_per_sub_epoch": 15, "K0": 8, "K": 4, "eta": 1e-4},
)


@dataclass
class Outcome:
    """What one stage call achieved.

    ``items`` is the work the call did, in the workload's unit;
    ``attempted``/``failed`` count its operations; ``errors`` lists failed
    correctness checks (an incorrect output, as opposed to a failed
    operation); ``info`` holds printed-only figures.
    """

    items: float
    attempted: int
    failed: int
    errors: list
    info: dict


def _generate(out: Path, seed: int, size: Size, n_stories: int | None = None) -> Path:
    cfg = harness.ExperimentConfig.from_dict({
        "seed": seed, "out": str(out),
        "generate": {"n_stories": n_stories or size.n_stories,
                     "duration": size.duration},
    })
    harness.run_experiment("generate", cfg)
    return out / "problem.json"


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def fd_check(problem_path: Path, seed: int, n_states: int = 2) -> list:
    """Central finite differences of the potential against its gradient at
    prior draws; returns the failures as messages."""
    problem = target.load_problem(problem_path)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    w = target.sample_prior_ratios(problem.priors, rng, n_states)
    thetas = np.stack([target.map_params_to_state(row, problem.transform)
                       for row in w])
    u, grad = target.potential_energy_batch(thetas, problem)
    h = 1e-6
    d = thetas.shape[1]
    errors = []
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(grad))):
        return ["non-finite potential or gradient at a prior draw"]
    for theta, g in zip(thetas, grad):
        steps = h * np.eye(d)
        up, _ = target.potential_energy_batch(theta + steps, problem)
        um, _ = target.potential_energy_batch(theta - steps, problem)
        fd = (up - um) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / np.linalg.norm(fd)
        if not rel <= 1e-5:
            errors.append(f"gradient differs from finite differences by {rel:.3g}")
    return errors


class WorkCount:
    """Counts the work of one stage call, by wrapping one function at the
    attribute its callers look up.

    ``per_call(args)`` gives the work one call of the function does: the live
    chains it advances, or the rows of the energy batch it evaluates.  The
    wrapper only counts: it takes no time readings and leaves what the
    program computes unchanged.
    """

    def __init__(self, owner, attr: str, per_call):
        self.owner, self.attr, self.per_call = owner, attr, per_call
        self.work = 0

    def __enter__(self):
        self._original = original = self.owner.__dict__[self.attr]

        def counted(*args, **kwargs):
            self.work += self.per_call(args)
            return original(*args, **kwargs)

        setattr(self.owner, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self._original)
        return False


def _live_in_state(args) -> int:
    return int(args[0].alive.sum())


def _rows_of_theta(args) -> int:
    return int(np.shape(args[0])[0])


class Workload:
    name: str
    stage: str
    item: str
    # The stage evaluates the posterior energy, so run.py checks its
    # gradient against finite differences.
    physics = True

    def __init__(self, size: Size):
        self.size = size

    def work_count(self):
        """A WorkCount for the call's work, or None when the outputs tell
        the work done."""
        return None

    def setup(self, work: Path, seed: int) -> dict:
        raise NotImplementedError

    def config(self, ctx: dict, seed: int, out: Path) -> harness.ExperimentConfig:
        raise NotImplementedError

    def outcome(self, ctx, cfg, report, exc, work) -> Outcome:
        """Judges one call; ``work`` is what ``work_count`` counted."""
        raise NotImplementedError

    def fingerprint(self, cfg, report, exc) -> str:
        """Digest of a call's deterministic outputs, for the traced-equals-
        untraced check."""
        raise NotImplementedError


class Sample(Workload):
    """The ``sample`` stage for one engine at the shipped physics."""

    stage = "sample"
    item = "chain-steps"

    def __init__(self, size: Size, engine: str, diverging: bool = False):
        super().__init__(size)
        self.engine = engine
        self.diverging = diverging
        self.name = "sample_" + engine.replace("-", "") + ("_window30" if diverging else "")

    def setup(self, work, seed):
        ctx = {"problem": _generate(work / "generate", seed, self.size)}
        if self.engine == "am-sghmc":
            # Seeded untrained networks: default training cannot produce
            # trained ones at this size (ROADMAP item 1).
            problem = target.load_problem(ctx["problem"])
            rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
            nets = strategy.init_strategy(strategy.StrategyConfig(), rng)
            stats = samplers.AdaptiveStats(problem.dimension)
            stats.freeze()
            ctx["checkpoint"] = work / "checkpoint.npz"
            training.save_checkpoint(ctx["checkpoint"], nets, stats,
                                     extra={"categories": list(problem.categories)})
        return ctx

    def _steps(self):
        s = self.size
        if self.engine == "hmc":
            return s.hmc_steps, s.hmc_burn
        if self.diverging:
            return s.diverging_am_steps, s.diverging_am_burn
        if self.engine == "am-sghmc":
            return s.am_steps, s.am_burn
        return s.sghmc_steps, s.sghmc_burn

    def config(self, ctx, seed, out):
        steps, burn = self._steps()
        run = {"K": self.size.k, "T": steps, "burn_in": burn}
        data = {"seed": seed, "out": str(out), "problem": str(ctx["problem"]),
                "sampler": self.engine, "run": run}
        if self.engine == "am-sghmc":
            start = (self.size.diverging_am_window if self.diverging
                     else self.size.am_window)
            run["window"] = [start, 2800]
            data["checkpoint"] = str(ctx["checkpoint"])
        return harness.ExperimentConfig.from_dict(data)

    def work_count(self):
        step = {"sghmc": "sghmc_step", "am-sghmc": "am_sghmc_step",
                "hmc": "hmc_step"}[self.engine]
        return WorkCount(samplers, step, _live_in_state)

    def outcome(self, ctx, cfg, report, exc, work):
        # Only live chains move, so a diverged chain adds no chain-steps
        # after it died, and a run that raised counts what it advanced.
        k = cfg.run.K
        if exc is not None:
            return Outcome(work, k, k, [], {"raised": str(exc)})
        trace = samplers.load_trace(Path(cfg.out) / "trace")
        errors = []
        if not (np.all(np.isfinite(trace.samples))
                and np.all(np.isfinite(trace.potentials))):
            errors.append("non-finite samples or potentials in the trace")
        summary = report["summary"]
        diverged = len(summary["diverged_chains"])
        info = {"diverged_chains": diverged}
        if "acceptance_rate" in summary:
            info["acceptance_rate"] = summary["acceptance_rate"]
        return Outcome(work, k, diverged, errors, info)

    def fingerprint(self, cfg, report, exc):
        if exc is not None:
            return _digest([str(exc)])
        folder = Path(cfg.out) / "trace"
        files = sorted(folder.glob("chain_*.csv")) + [folder / "trace.json"]
        return _digest(p.read_bytes() for p in files)


class Evaluate(Workload):
    """The ``evaluate`` stage on a seeded synthetic AR(1) trace."""

    name = "evaluate"
    stage = "evaluate"
    item = "samples"
    physics = False
    phi = 0.9

    def setup(self, work, seed):
        s = self.size
        rng = np.random.default_rng(np.random.SeedSequence([seed, 13]))
        scale = np.exp(rng.uniform(-1.0, 1.0, s.eval_d))
        x = np.empty((s.eval_k, s.eval_s, s.eval_d))
        x[:, 0] = rng.standard_normal((s.eval_k, s.eval_d))
        noise = rng.standard_normal((s.eval_k, s.eval_s, s.eval_d))
        for t in range(1, s.eval_s):
            x[:, t] = self.phi * x[:, t - 1] + np.sqrt(1.0 - self.phi**2) * noise[:, t]
        samples = x * scale
        potentials = 0.5 * (x**2).sum(axis=2)
        meta = {"sampler": "synthetic-ar1", "steps": list(range(1, s.eval_s + 1)),
                "seed": int(seed)}
        trace = samplers.Trace(samples, potentials, meta)
        samplers.save_trace(trace, work / "trace")
        return {"trace": work / "trace"}

    def config(self, ctx, seed, out):
        return harness.ExperimentConfig.from_dict(
            {"seed": seed, "out": str(out), "trace": str(ctx["trace"])})

    def outcome(self, ctx, cfg, report, exc, work):
        s = self.size
        if exc is not None:
            return Outcome(0, 1, 1, [], {"raised": str(exc)})
        summary = report["summary"]
        loss = summary["naive_loss"]
        ess = np.array([summary["ess_aggregate"], *summary["ess_per_dim"]])
        info = {"naive_loss": loss, "ess_aggregate": summary["ess_aggregate"],
                "ess_expected": s.eval_s * (1 - self.phi) / (1 + self.phi)}
        if not (np.isfinite(loss) and np.all(np.isfinite(ess))):
            return Outcome(0, 1, 1, [], info)
        errors = []
        if not np.all((ess > 0) & (ess <= s.eval_s)):
            errors.append(f"ESS outside (0, {s.eval_s}]")
        return Outcome(s.eval_k * s.eval_s, 1, 0, errors, info)

    def fingerprint(self, cfg, report, exc):
        if exc is not None:
            return _digest([str(exc)])
        out = Path(cfg.out)
        files = [out / "projection.csv", out / "surface.csv"]
        return _digest([json.dumps(report["summary"], sort_keys=True)]
                       + [p.read_bytes() for p in files if p.exists()])


class Train(Workload):
    """The ``train`` stage on the shortened schedule.

    ``train`` runs it at default physics and hyperparameters, where at
    this commit most calls lose their population and raise (ROADMAP item
    1).  ``train_eta1e-4`` runs it where training works (STEADY_TRAIN).
    """

    stage = "train"
    item = "energy-evaluations"

    def __init__(self, size: Size, steady: bool):
        super().__init__(size)
        self.steady = steady
        self.name = "train_eta1e-4" if steady else "train"

    def setup(self, work, seed):
        stories = self.size.steady_train_stories if self.steady else None
        return {"problem": _generate(work / "generate", seed, self.size, stories)}

    def config(self, ctx, seed, out):
        schedule = self.size.steady_train if self.steady else self.size.train
        return harness.ExperimentConfig.from_dict(
            {"seed": seed, "out": str(out), "problem": str(ctx["problem"]),
             "training": dict(schedule)})

    def _scheduled(self, cfg) -> int:
        t = cfg.training
        return t.epochs * t.sub_epochs * (t.steps_per_sub_epoch // t.T_T)

    def work_count(self):
        # One row of the energy batch is one chain's energy and gradient:
        # the physics of a training step, a restart or the initial states.
        # A step whose proposal is already non-finite costs no physics and
        # is not counted.  At default settings the stage spends ~90% of its
        # time here whether its population survives or not, so this unit
        # costs more nearly the same in both cases than a chain-step does
        # (README.md).
        return WorkCount(target, "potential_energy_batch", _rows_of_theta)

    def outcome(self, ctx, cfg, report, exc, work):
        scheduled = self._scheduled(cfg)
        if exc is not None:
            # The stage raises only when a whole epoch gave no gradient;
            # nothing it computed survives, so every segment failed.  The
            # energy evaluations it ran still count as work done.
            return Outcome(work, scheduled, scheduled, [], {"raised": str(exc)})
        out = Path(cfg.out)
        skipped = report["summary"]["skipped_segments"]
        errors = []
        with open(out / "history.csv") as fh:
            for row in csv.DictReader(fh):
                if np.isfinite(float(row["loss_energy"])) and not np.isfinite(
                        float(row["grad_norm"])):
                    errors.append(f"non-finite segment gradient in sub-epoch "
                                  f"{row['sub_epoch']}")
        nets, _, _ = training.load_checkpoint(out / report["outputs"]["checkpoint"])
        if not np.all(np.isfinite(strategy.get_trainable_flat(nets))):
            errors.append("non-finite network weights in the checkpoint")
        return Outcome(work, scheduled, skipped, errors,
                       {"usable_segments": scheduled - skipped})

    def fingerprint(self, cfg, report, exc):
        if exc is not None:
            return _digest([str(exc)])
        out = Path(cfg.out)
        nets, _, _ = training.load_checkpoint(out / report["outputs"]["checkpoint"])
        return _digest([(out / "history.csv").read_bytes(),
                        strategy.get_trainable_flat(nets).tobytes()])


def make(name: str, size: Size = FULL) -> Workload:
    if name == "evaluate":
        return Evaluate(size)
    if name in ("train", "train_eta1e-4"):
        return Train(size, steady=name != "train")
    if name == "sample_amsghmc_window30":
        return Sample(size, "am-sghmc", diverging=True)
    engines = {"sample_sghmc": "sghmc", "sample_amsghmc": "am-sghmc",
               "sample_hmc": "hmc"}
    if name not in engines:
        raise ValueError(f"unknown workload {name!r}")
    return Sample(size, engines[name])


NAMES = ("sample_sghmc", "sample_amsghmc", "sample_amsghmc_window30",
         "sample_hmc", "evaluate", "train", "train_eta1e-4")
