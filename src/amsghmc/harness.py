"""Experiment orchestration behind the command-line front door.

Five stages mirror the study protocol: ``generate`` synthesizes a dataset
and its updating problem, ``train`` meta-learns the strategy networks on
one problem, ``sample`` runs any engine and stores the trace, ``evaluate``
turns a stored trace into metrics and plot data, and ``compare`` runs two
engines on the same data and emits a side-by-side table.

Configuration is a JSON document with explicit keys.  Its sections are
the library configs: ``run`` is ``samplers.RunConfig``, ``training`` is
``training.TrainingConfig`` and ``generate`` is ``structural.DatasetConfig``;
keys follow the method's symbols (K, T, T_T, M, ...), and each class
validates its own values.  Unknown keys are rejected so a misspelled
constant cannot silently fall back to a default, and every configuration
error is raised before a stage writes anything.

Every report embeds the resolved configuration and seed.  Reports are
deterministic given the seed; wall-clock timing lives in separate files
(``timing.json``, ``metrics.json``) because it can never be.
"""

from __future__ import annotations

import dataclasses
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, samplers, structural, target, training

STAGES = ("generate", "train", "sample", "evaluate", "compare")

_SAMPLER_ALIASES = {
    "hmc": "hmc",
    "sghmc": "sghmc",
    "am-sghmc": "amsghmc",
    "amsghmc": "amsghmc",
}


class ConfigError(ValueError):
    """Bad configuration or unreadable input file; raised before compute."""


class StageError(RuntimeError):
    """A stage failed after outputs may have been written."""

    def __init__(self, stage: str, partial_outputs: list, message: str):
        super().__init__(message)
        self.stage = stage
        self.partial_outputs = list(partial_outputs)


def canonical_sampler(name: str) -> str:
    key = str(name).lower()
    if key not in _SAMPLER_ALIASES:
        known = ", ".join(sorted(set(_SAMPLER_ALIASES) - {"amsghmc"}))
        raise ConfigError(f"unknown sampler {name!r} (expected one of {known})")
    return _SAMPLER_ALIASES[key]


# --- configuration ---------------------------------------------------------------


def _build(cls, data, where: str):
    """Dataclass from a mapping, rejecting keys the class does not declare.

    A field whose default is a dataclass is a section, built from its own
    mapping; JSON lists become tuples.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    kwargs = {}
    for key, value in data.items():
        section = fields[key].default_factory
        if dataclasses.is_dataclass(section):
            kwargs[key] = _build(section, value, f"config section {key!r}")
        else:
            kwargs[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: input files, engine choice, and stage parameters."""

    problem: str | None = None
    sampler: str = "am-sghmc"
    seed: int = 0
    out: str = "runs/experiment"
    checkpoint: str | None = None
    trace: str | None = None
    run: samplers.RunConfig = field(default_factory=samplers.RunConfig)
    training: training.TrainingConfig = field(
        default_factory=training.TrainingConfig)
    generate: structural.DatasetConfig = field(
        default_factory=structural.DatasetConfig)
    compare: tuple = ("am-sghmc", "sghmc")

    def __post_init__(self):
        canonical_sampler(self.sampler)
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if len(self.compare) != 2:
            raise ConfigError("compare needs exactly two sampler names")
        if len({canonical_sampler(s) for s in self.compare}) != 2:
            raise ConfigError("compare needs two distinct samplers")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _build(cls, data, "config")

    def resolved(self) -> dict:
        """Plain nested dict of every setting, for embedding in reports."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def resolve_config(path=None, *, seed=None, out=None, checkpoint=None,
                   sampler=None) -> ExperimentConfig:
    """Config file plus command-line overrides; flags win over file keys."""
    cfg = load_config(path) if path is not None else ExperimentConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if out is not None:
        overrides["out"] = str(out)
    if checkpoint is not None:
        overrides["checkpoint"] = str(checkpoint)
    if sampler is not None:
        overrides["sampler"] = str(sampler)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


# --- input loading ---------------------------------------------------------------


def _load_problem(path) -> target.UpdatingProblem:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"problem file not found: {path}")
    try:
        return target.load_problem(path)
    except Exception as exc:
        raise ConfigError(f"problem file {path} failed to parse: {exc}") from exc


def _load_checkpoint(path):
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    try:
        return training.load_checkpoint(path)
    except Exception as exc:
        raise ConfigError(f"checkpoint {path} failed to parse: {exc}") from exc


def _preflight(stage: str, cfg: ExperimentConfig) -> dict:
    """Load and parse every referenced file before any compute starts."""
    loaded = {}
    if stage in ("train", "sample", "compare"):
        if cfg.problem is None:
            raise ConfigError(f"stage {stage!r} needs a problem file")
        loaded["problem"] = _load_problem(cfg.problem)
    if stage == "sample":
        engines = [canonical_sampler(cfg.sampler)]
    elif stage == "compare":
        engines = [canonical_sampler(s) for s in cfg.compare]
    else:
        engines = []
    if "amsghmc" in engines:
        if cfg.run.window[0] >= cfg.run.T:
            raise ConfigError("adaptive window starts after the run ends")
        if cfg.run.window[1] > cfg.run.burn_in:
            warnings.warn("adaptive window extends past burn-in; kept samples "
                          "will mix normalization regimes")
        if cfg.checkpoint is None:
            raise ConfigError("the meta-learned engine needs a checkpoint")
        loaded["checkpoint"] = _load_checkpoint(cfg.checkpoint)
    if stage == "evaluate":
        trace_dir = Path(cfg.trace) if cfg.trace else Path(cfg.out) / "trace"
        if not trace_dir.exists():
            raise ConfigError(f"trace directory not found: {trace_dir}")
        try:
            loaded["trace"] = samplers.load_trace(trace_dir)
        except Exception as exc:
            raise ConfigError(f"trace {trace_dir} failed to parse: {exc}") from exc
        loaded["trace_dir"] = trace_dir
    return loaded


# --- stage implementations ---------------------------------------------------------


def _write_json(path: Path, payload: dict, written: list) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    written.append(path)


def _relative(path: Path, out: Path) -> str:
    try:
        return str(path.relative_to(out))
    except ValueError:
        return str(path)


def _stage_generate(cfg: ExperimentConfig, loaded: dict, out: Path,
                    written: list) -> dict:
    g = cfg.generate
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    dataset, truth = structural.generate_dataset(g, rng)
    dataset_path = out / "dataset.csv"
    structural.save_dataset(dataset_path, dataset, truth)
    written += [dataset_path, Path(str(dataset_path) + ".meta.json")]
    problem = target.default_problem(g.building, dataset, sigma0=g.sigma0)
    problem_path = out / "problem.json"
    target.save_problem(problem_path, problem, "dataset.csv")
    written.append(problem_path)
    summary = {
        "n_stories": g.n_stories,
        "n_steps": dataset.n_steps,
        "n_observed": dataset.n_obs,
        "observed_dofs": list(dataset.observed_dofs),
        "noise_std": truth["noise_std"],
        "stiffness_true": truth["stiffness"].tolist(),
        "damping_true": truth["damping"].tolist(),
    }
    outputs = {"dataset": "dataset.csv", "problem": "problem.json"}
    return {"outputs": outputs, "summary": summary}


def _stage_train(cfg: ExperimentConfig, loaded: dict, out: Path,
                 written: list) -> dict:
    problem = loaded["problem"]
    history_path = out / "history.csv"
    result = training.train(problem, cfg.training, seed=cfg.seed,
                            log_path=history_path)
    written.append(history_path)
    ckpt_path = Path(cfg.checkpoint) if cfg.checkpoint else out / "checkpoint.npz"
    training.save_checkpoint(
        ckpt_path,
        result.nets,
        result.stats,
        extra={
            "seed": cfg.seed,
            "problem": str(cfg.problem),
            "n_stories": problem.building.n_stories,
            "categories": list(problem.categories),
        },
    )
    written.append(ckpt_path)
    last = result.history[-1]
    summary = {
        "epochs": cfg.training.epochs,
        "updates": len(result.history),
        "final_loss_energy": last["loss_energy"],
        "final_loss_entropy": last["loss_entropy"],
        "divergence_events": result.meta["divergence_events"],
        "skipped_segments": result.meta["skipped_segments"],
    }
    outputs = {"checkpoint": _relative(ckpt_path, out), "history": "history.csv"}
    return {"outputs": outputs, "summary": summary}


def _run_sampler(cfg: ExperimentConfig, problem, checkpoint, name: str,
                 out_dir: Path, written: list):
    """One timed sampling run; returns (trace, wall seconds, summary)."""
    engine = canonical_sampler(name)
    run = cfg.run
    kwargs = {}
    if engine == "amsghmc":
        nets, train_stats, extra = checkpoint
        kwargs["nets"] = nets
        if train_stats is not None and "categories" in extra:
            v0 = samplers.v0_from_training(train_stats.sigma_i,
                                           extra["categories"],
                                           problem.categories,
                                           scale=run.v0_scale)
            kwargs["v0_star"] = tuple(float(v) for v in v0)
        else:
            warnings.warn("checkpoint lacks training scales or categories; "
                          "seeding test-time variances at v0_scale")
    start = time.perf_counter()
    trace = samplers.run_chains(engine, problem, run, seed=cfg.seed, **kwargs)
    wall = time.perf_counter() - start
    trace.meta["problem"] = str(cfg.problem)
    trace.meta["sampler_label"] = name
    trace_dir = out_dir / "trace"
    samplers.save_trace(trace, trace_dir)
    written.append(trace_dir / "trace.json")
    _write_json(trace_dir / "timing.json", {"wall_time_s": wall}, written)
    summary = {
        "sampler": name,
        "K": run.K,
        "T": run.T,
        "burn_in": run.burn_in,
        "tau": run.tau,
        "kept_chains": trace.k_chains,
        "samples_per_chain": trace.n_samples,
        "diverged_chains": trace.meta["diverged"],
        "eta": trace.meta["eta"],
    }
    if engine == "hmc":
        summary["acceptance_rate"] = trace.meta["acceptance_rate"]
    return trace, wall, summary


def compute_metrics(trace: samplers.Trace, wall_time_s: float | None) -> dict:
    """The metric document for one trace: fit quality, mixing, and rate."""
    flat = trace.flat()
    pots = trace.potentials.reshape(-1)
    kde = evaluation.fit_cop(flat)
    loss = evaluation.naive_loss(flat, pots, kde)
    agg, per_chain = evaluation.aggregate_ess(trace.samples)
    per_dim = per_chain.mean(axis=0)
    per_hour = None
    if wall_time_s is not None and wall_time_s > 0:
        per_hour = agg / wall_time_s * 3600.0
    q05, q50, q95 = np.quantile(pots, [0.05, 0.5, 0.95])
    return {
        "naive_loss": float(loss),
        "ess_per_dim": [float(v) for v in per_dim],
        "ess_aggregate": float(agg),
        "wall_time_s": wall_time_s,
        "ess_per_hour": per_hour,
        "energy_quantiles": {"q05": float(q05), "q50": float(q50), "q95": float(q95)},
    }


def _write_metrics(path: Path, cfg: ExperimentConfig, trace: samplers.Trace,
                   metrics: dict, written: list) -> None:
    """metrics.json: the metrics next to the stage's config and the run
    settings recorded in the trace itself, which may differ from the
    stage's (``evaluate`` reads traces that other configs produced), with
    the chains the trace kept and the indices of those that diverged."""
    run = {key: trace.meta.get(key)
           for key in ("sampler", "eta", "k_chains", "n_steps", "burn_in")}
    run["kept_chains"] = trace.k_chains
    run["diverged_chains"] = trace.meta.get("diverged")
    _write_json(path, {"seed": cfg.seed, "config": cfg.resolved(),
                       "trace": run, "metrics": metrics}, written)


def _read_timing(trace_dir: Path) -> float | None:
    path = trace_dir / "timing.json"
    if not path.exists():
        return None
    return float(json.loads(path.read_text())["wall_time_s"])


def _stage_sample(cfg: ExperimentConfig, loaded: dict, out: Path,
                  written: list) -> dict:
    trace, wall, summary = _run_sampler(cfg, loaded["problem"],
                                        loaded.get("checkpoint"),
                                        cfg.sampler, out, written)
    outputs = {"trace": "trace", "timing": "trace/timing.json"}
    return {"outputs": outputs, "summary": summary}


def _emit_plot_data(trace: samplers.Trace, out: Path, written: list) -> dict:
    """Principal-direction projection and, when possible, the conditional
    mean surface of the third component over the first two."""
    components, projected = evaluation.pca_project(trace.flat())
    projection_path = out / "projection.csv"
    evaluation.save_projection(projection_path, projected, components)
    written.append(projection_path)
    outputs = {"projection": "projection.csv"}
    if projected.shape[1] >= 3:
        gx, gy, values = evaluation.conditional_mean_surface(projected, 0, 1, 2)
        surface_path = out / "surface.csv"
        evaluation.save_surface(surface_path, gx, gy, values)
        written.append(surface_path)
        outputs["surface"] = "surface.csv"
    return outputs


def _stage_evaluate(cfg: ExperimentConfig, loaded: dict, out: Path,
                    written: list) -> dict:
    trace = loaded["trace"]
    wall = _read_timing(loaded["trace_dir"])
    metrics = compute_metrics(trace, wall)
    _write_metrics(out / "metrics.json", cfg, trace, metrics, written)
    outputs = {"metrics": "metrics.json"}
    outputs.update(_emit_plot_data(trace, out, written))
    summary = {
        "sampler": trace.meta.get("sampler_label", trace.meta.get("sampler")),
        "kept_chains": trace.k_chains,
        "samples_per_chain": trace.n_samples,
        "naive_loss": metrics["naive_loss"],
        "ess_aggregate": metrics["ess_aggregate"],
        "ess_per_dim": metrics["ess_per_dim"],
        "energy_quantiles": metrics["energy_quantiles"],
    }
    return {"outputs": outputs, "summary": summary}


def _stage_compare(cfg: ExperimentConfig, loaded: dict, out: Path,
                   written: list) -> dict:
    names = [str(s) for s in cfg.compare]
    table = {}
    runs = {}
    for name in names:
        sub = out / name
        sub.mkdir(parents=True, exist_ok=True)
        trace, wall, summary = _run_sampler(cfg, loaded["problem"],
                                            loaded.get("checkpoint"),
                                            name, sub, written)
        metrics = compute_metrics(trace, wall)
        _write_metrics(sub / "metrics.json", cfg, trace, metrics, written)
        _emit_plot_data(trace, sub, written)
        table[name] = metrics
        runs[name] = summary
    first, second = names
    ratios = {}
    if table[second]["ess_aggregate"] > 0:
        ratios["ess_aggregate_ratio"] = (table[first]["ess_aggregate"]
                                         / table[second]["ess_aggregate"])
    if table[first]["ess_per_hour"] and table[second]["ess_per_hour"]:
        ratios["ess_per_hour_ratio"] = (table[first]["ess_per_hour"]
                                        / table[second]["ess_per_hour"])
    if table[second]["naive_loss"] != 0:
        gap = abs(table[first]["naive_loss"] - table[second]["naive_loss"])
        ratios["naive_loss_rel_gap"] = gap / abs(table[second]["naive_loss"])
    _write_json(out / "comparison.json", {
        "seed": cfg.seed,
        "config": cfg.resolved(),
        "problem": str(cfg.problem),
        "table": table,
        "ratios": ratios,
    }, written)
    summary = {
        "samplers": names,
        "runs": runs,
        "naive_loss": {n: table[n]["naive_loss"] for n in names},
        "ess_aggregate": {n: table[n]["ess_aggregate"] for n in names},
    }
    outputs = {"comparison": "comparison.json",
               **{n: f"{n}/trace" for n in names}}
    return {"outputs": outputs, "summary": summary}


_STAGE_FUNCS = {
    "generate": _stage_generate,
    "train": _stage_train,
    "sample": _stage_sample,
    "evaluate": _stage_evaluate,
    "compare": _stage_compare,
}


# --- entry point -------------------------------------------------------------------


def run_experiment(stage: str, cfg: ExperimentConfig) -> dict:
    """Run one stage; returns the report document written to out/report.json.

    Configuration problems raise ConfigError before anything is written.
    Later failures raise StageError carrying the paths already written, and
    leave an error.json marker flagging the output directory as partial.
    """
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r} (expected one of "
                          f"{', '.join(STAGES)})")
    loaded = _preflight(stage, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list = []
    try:
        body = _STAGE_FUNCS[stage](cfg, loaded, out, written)
    except ConfigError:
        raise
    except Exception as exc:
        partial = [_relative(Path(p), out) for p in written]
        marker = {
            "stage": stage,
            "error": type(exc).__name__,
            "message": str(exc),
            "partial_outputs": partial,
        }
        (out / "error.json").write_text(json.dumps(marker, indent=1) + "\n")
        raise StageError(stage, partial,
                         f"stage {stage!r} failed: {exc}") from exc
    (out / "error.json").unlink(missing_ok=True)
    report = {
        "stage": stage,
        "seed": cfg.seed,
        "config": cfg.resolved(),
        "outputs": body["outputs"],
        "summary": body["summary"],
    }
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return report
