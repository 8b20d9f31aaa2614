import json

import numpy as np
import pytest

from amsghmc import autodiff as ad, cli, harness, samplers as sp, strategy as sn, training as tr


# --- fixtures: tiny generated problems and a handcrafted checkpoint ---------------


@pytest.fixture(scope="session")
def two_story(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen2")
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 11, "out": str(out),
        "generate": {"n_stories": 2, "duration": 1.0, "dt": 0.01},
    })
    report = harness.run_experiment("generate", cfg)
    return {"out": out, "report": report, "problem": out / "problem.json"}


@pytest.fixture(scope="session")
def three_story(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen3")
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 12, "out": str(out),
        "generate": {"n_stories": 3, "duration": 1.0, "dt": 0.01},
    })
    harness.run_experiment("generate", cfg)
    return {"out": out, "problem": out / "problem.json"}


@pytest.fixture(scope="session")
def checkpoint(tmp_path_factory):
    """Untrained nets with frozen two-story scales; fast and deterministic."""
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.npz"
    nets = sn.init_strategy(sn.StrategyConfig(), np.random.default_rng(3))
    stats = sp.AdaptiveStats.fixed(np.full(5, 0.3), 50.0, 25.0)
    tr.save_checkpoint(path, nets, stats, {"categories": [0, 0, 1, 1, 2]})
    return path


@pytest.fixture
def no_tape(monkeypatch):
    """Make the scalar tape path raise: no stage may reach it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a stage reached the scalar tape path")

    for owner, name in ((sn, "q_eval"), (sn, "d_eval"),
                        (sn, "build_tape_nets"), (ad.Tape, "gradient")):
        monkeypatch.setattr(owner, name, forbidden)


def run_settings():
    return {"K": 4, "T": 60, "burn_in": 20, "eta": 1e-4, "window": [2, 15]}


# --- configuration -----------------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(harness.ConfigError, match="unknown keys"):
        harness.ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(harness.ConfigError, match="run"):
        harness.ExperimentConfig.from_dict({"run": {"bogus": 1}})
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"training": {"K0": "many"}})


@pytest.mark.parametrize("section,key,value", [
    ("run", "K", 0),
    ("run", "T", 0),
    ("run", "burn_in", -1),
    ("run", "tau", 0),
    ("run", "eta", 0.0),
    ("run", "v0_scale", 0.0),
    ("run", "window", [10, 2]),
    ("generate", "n_stories", 0),
    ("generate", "dt", 0.0),
    ("generate", "duration", 0.015),
    ("generate", "observed_dofs", [0, 7]),
    ("generate", "observed_dofs", []),
    ("generate", "observed_dofs", [-1]),
    ("run", "betas_theta", [1.0, 0.99]),
    ("run", "betas_u", [0.9]),
    ("training", "betas_theta", [1.0, 0.99]),
    ("training", "betas_u", [0.9]),
    ("training", "betas", [1.0, 0.9]),
    ("training", "v0_star", -1),
    ("run", "sghmc_G", 0.0),
    ("run", "sghmc_C", -1.0),
    ("run", "hmc_step0", 0.0),
    ("run", "hmc_leapfrog", 0),
    ("run", "hmc_target_accept", 0.0),
    ("run", "hmc_target_accept", 1.0),
    ("run", "hmc_target_accept", 1.5),
    ("generate", "k0", 0.0),
    ("generate", "k0", -2.0e7),
    ("generate", "mass", 0.0),
    ("generate", "ground_std", -1.0),
    ("generate", "sigma0", 0.0),
    ("generate", "sigma0", -1.0),
    ("training", "c1", 0.0),
    ("training", "c2", -1.0),
    ("training", "M_Q", -100.0),
    ("training", "M_D", -1.0),
    ("training", "stein_bandwidth", -1.0),
    ("training", "stein_ridge", 0.0),
])
def test_config_rejects_out_of_range_values(section, key, value):
    with pytest.raises(harness.ConfigError, match=key):
        harness.ExperimentConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize("training,named", [
    ({"steps_per_sub_epoch": 91}, "steps_per_sub_epoch must be a multiple of T_T"),
    ({"adapt_last": 11}, "adapt_last cannot exceed sub_epochs"),
    ({"T_T": 2, "tau": 3, "steps_per_sub_epoch": 2}, "T_T must be at least tau"),
    ({"M": -1}, "M must be nonnegative"),
])
def test_training_schedule_errors_name_the_users_keys(training, named):
    with pytest.raises(harness.ConfigError, match=named) as info:
        harness.ExperimentConfig.from_dict({"training": training})
    for internal in ("t_t", "m_skip", "k_loss"):
        assert internal not in str(info.value)


def test_config_rejects_bad_top_level_values():
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"sampler": "nuts"})
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"seed": -1})
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"compare": ["hmc"]})
    with pytest.raises(harness.ConfigError):
        harness.ExperimentConfig.from_dict({"compare": ["amsghmc", "am-sghmc"]})


def test_config_lists_become_tuples():
    cfg = harness.ExperimentConfig.from_dict({
        "run": {"window": [2, 15], "betas_theta": [0.9, 0.99]},
        "compare": ["hmc", "sghmc"],
    })
    assert cfg.run.window == (2, 15)
    assert cfg.run.betas_theta == (0.9, 0.99)
    assert cfg.compare == ("hmc", "sghmc")


DEFAULT_RESOLVED = {
    "problem": None,
    "sampler": "am-sghmc",
    "seed": 0,
    "out": "runs/experiment",
    "checkpoint": None,
    "trace": None,
    "run": {
        "K": 32, "T": 9000, "burn_in": 3000, "tau": 1,
        "eta": 0.03162277660168379,
        "window": [300, 2800],
        "betas_theta": [0.99, 0.995],
        "betas_u": [0.99, 0.998],
        "v0_scale": 1.0,
        "sghmc_G": 1.0, "sghmc_C": 1.0,
        "hmc_step0": 0.1, "hmc_leapfrog": 10, "hmc_target_accept": 0.7,
    },
    "training": {
        "K0": 64, "K": 10, "epochs": 100, "sub_epochs": 10,
        "steps_per_sub_epoch": 90, "T_T": 15, "tau": 1, "M": 3,
        "eta": 0.03162277660168379, "lr": 0.01,
        "betas": [0.5, 0.75],
        "grad_clip": 10.0, "replay_prob": 0.2, "replay_capacity": 10000,
        "adapt_epochs": 50, "adapt_last": 6,
        "betas_theta": [0.99, 0.999],
        "betas_u": [0.99, 0.998],
        "v0_star": 1.0, "detach_gamma": False,
        "stein_bandwidth": 4.0, "stein_ridge": 0.1,
        "M_Q": 100.0, "M_D": 30.0, "c1": 0.01, "c2": 0.01,
        "hidden": [10, 10, 10],
        "use_shortcut": False, "n_rbf": 8,
    },
    "generate": {
        "n_stories": 5, "duration": 3.0, "dt": 0.01, "noise_ratio": 1.0,
        "perturbation_cov": 0.1, "ground_std": 1.0, "observed_dofs": None,
        "k0": 20000000.0, "c0": 60000.0, "mass": 200000.0, "sigma0": 1.0,
    },
    "compare": ["am-sghmc", "sghmc"],
}


def test_default_resolved_config_is_pinned():
    """Every report embeds this document, so its keys, their order and the
    defaults are part of the output format."""
    resolved = harness.ExperimentConfig().resolved()
    assert resolved == DEFAULT_RESOLVED
    assert json.dumps(resolved) == json.dumps(DEFAULT_RESOLVED)


NON_DEFAULT = {
    "problem": "p.json",
    "sampler": "hmc",
    "seed": 9,
    "out": "o",
    "checkpoint": "c.npz",
    "trace": "t",
    "run": {
        "K": 4, "T": 60, "burn_in": 20, "tau": 2, "eta": 1e-4,
        "window": [2, 15], "betas_theta": [0.9, 0.99], "betas_u": [0.95, 0.99],
        "v0_scale": 0.5, "sghmc_G": 0.7, "sghmc_C": 1.5, "hmc_step0": 0.2,
        "hmc_leapfrog": 4, "hmc_target_accept": 0.8,
    },
    "training": {
        "K0": 8, "K": 4, "epochs": 3, "sub_epochs": 4,
        "steps_per_sub_epoch": 12, "T_T": 6, "tau": 2, "M": 1, "eta": 1e-3,
        "lr": 0.02, "betas": [0.6, 0.8], "grad_clip": 5.0, "replay_prob": 0.3,
        "replay_capacity": 500, "adapt_epochs": 2, "adapt_last": 3,
        "betas_theta": [0.9, 0.99], "betas_u": [0.95, 0.99], "v0_star": 2.0,
        "detach_gamma": True, "stein_bandwidth": 3.0, "stein_ridge": 0.2,
        "M_Q": 50.0, "M_D": 20.0, "c1": 0.02, "c2": 0.03, "hidden": [8, 6],
        "use_shortcut": True, "n_rbf": 4,
    },
    "generate": {
        "n_stories": 2, "duration": 1.0, "dt": 0.02, "noise_ratio": 0.5,
        "perturbation_cov": 0.05, "ground_std": 2.0, "observed_dofs": [0, 1],
        "k0": 1.0e7, "c0": 5.0e4, "mass": 1.0e5, "sigma0": 0.5,
    },
    "compare": ["hmc", "sghmc"],
}


def test_config_round_trips_through_resolved():
    default = harness.ExperimentConfig()
    assert harness.ExperimentConfig.from_dict(default.resolved()) == default
    cfg = harness.ExperimentConfig.from_dict(NON_DEFAULT)
    assert cfg.resolved() == NON_DEFAULT
    for key, value in NON_DEFAULT.items():
        if isinstance(value, dict):
            for name, setting in value.items():
                assert setting != DEFAULT_RESOLVED[key][name], (key, name)
        else:
            assert value != DEFAULT_RESOLVED[key], key
    assert harness.ExperimentConfig.from_dict(cfg.resolved()) == cfg
    assert cfg.training.strategy == sn.StrategyConfig(
        m_q=50.0, m_d=20.0, c1=0.02, c2=0.03, hidden=(8, 6),
        use_shortcut=True, n_rbf=4)


def test_canonical_sampler_names():
    assert harness.canonical_sampler("am-sghmc") == "amsghmc"
    assert harness.canonical_sampler("AMSGHMC") == "amsghmc"
    assert harness.canonical_sampler("hmc") == "hmc"
    assert harness.canonical_sampler("sghmc") == "sghmc"
    with pytest.raises(harness.ConfigError, match="unknown sampler"):
        harness.canonical_sampler("nuts")


def test_resolve_config_flag_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "out": "a", "sampler": "sghmc"}))
    cfg = harness.resolve_config(path, seed=9, out="b", checkpoint="c.npz",
                                 sampler="hmc")
    assert (cfg.seed, cfg.out, cfg.checkpoint, cfg.sampler) == (9, "b", "c.npz", "hmc")
    base = harness.resolve_config(path)
    assert (base.seed, base.out, base.sampler) == (3, "a", "sghmc")
    assert harness.resolve_config(None).out == "runs/experiment"


def test_load_config_failures(tmp_path):
    with pytest.raises(harness.ConfigError, match="not found"):
        harness.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(harness.ConfigError, match="not valid JSON"):
        harness.load_config(bad)


# --- generate ----------------------------------------------------------------------


def test_generate_stage_outputs(two_story):
    out, report = two_story["out"], two_story["report"]
    assert (out / "dataset.csv").exists()
    assert (out / "problem.json").exists()
    assert (out / "report.json").exists()
    assert report["stage"] == "generate" and report["seed"] == 11
    assert report["config"]["generate"]["n_stories"] == 2
    rows = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(rows) - 1 == report["summary"]["n_steps"]
    assert len(report["summary"]["stiffness_true"]) == 2
    problem = harness._load_problem(two_story["problem"])
    assert problem.dimension == 5
    assert list(problem.categories) == [0, 0, 1, 1, 2]


def test_generate_reruns_are_byte_identical(tmp_path):
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 7, "out": str(tmp_path / "g"),
        "generate": {"n_stories": 2, "duration": 0.5, "dt": 0.01},
    })
    harness.run_experiment("generate", cfg)
    first = {name: (tmp_path / "g" / name).read_bytes()
             for name in ("dataset.csv", "problem.json", "report.json")}
    harness.run_experiment("generate", cfg)
    for name, blob in first.items():
        assert (tmp_path / "g" / name).read_bytes() == blob


# --- sample / evaluate -------------------------------------------------------------


@pytest.mark.usefixtures("no_tape")
def test_sample_then_evaluate_sghmc(two_story, tmp_path):
    out = tmp_path / "run"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(out), "problem": str(two_story["problem"]),
        "sampler": "sghmc", "run": run_settings(),
    })
    report = harness.run_experiment("sample", cfg)
    assert (out / "trace" / "trace.json").exists()
    assert (out / "trace" / "timing.json").exists()
    assert report["summary"]["kept_chains"] >= 1
    assert report["summary"]["samples_per_chain"] == 40

    # identical rerun: deterministic content is byte-stable, timing is not
    report_bytes = (out / "report.json").read_bytes()
    chain_bytes = (out / "trace" / "chain_000.csv").read_bytes()
    harness.run_experiment("sample", cfg)
    assert (out / "report.json").read_bytes() == report_bytes
    assert (out / "trace" / "chain_000.csv").read_bytes() == chain_bytes

    ev = harness.run_experiment("evaluate", cfg)
    doc = json.loads((out / "metrics.json").read_text())
    assert set(doc["metrics"]) == {"naive_loss", "ess_per_dim", "ess_aggregate",
                                   "wall_time_s", "ess_per_hour", "energy_quantiles"}
    assert len(doc["metrics"]["ess_per_dim"]) == 5
    assert doc["metrics"]["wall_time_s"] > 0
    assert doc["metrics"]["ess_per_hour"] > 0
    assert (out / "projection.csv").exists()
    assert (out / "surface.csv").exists()
    assert ev["summary"]["naive_loss"] == doc["metrics"]["naive_loss"]
    assert ev["summary"]["energy_quantiles"] == doc["metrics"]["energy_quantiles"]

    # trace unchanged, so a second evaluate reproduces every byte
    metric_bytes = (out / "metrics.json").read_bytes()
    eval_report = (out / "report.json").read_bytes()
    harness.run_experiment("evaluate", cfg)
    assert (out / "metrics.json").read_bytes() == metric_bytes
    assert (out / "report.json").read_bytes() == eval_report


def test_compute_metrics_energy_quantiles():
    # Potentials 0..119 in shuffled order: linear interpolation puts the
    # 5%, 50% and 95% quantiles at 0.05, 0.5 and 0.95 of 119.
    rng = np.random.default_rng(8)
    pots = rng.permutation(120).astype(float).reshape(3, 40)
    trace = sp.Trace(rng.normal(size=(3, 40, 2)), pots, {"sampler": "synthetic"})
    quantiles = harness.compute_metrics(trace, None)["energy_quantiles"]
    assert quantiles == pytest.approx({"q05": 5.95, "q50": 59.5, "q95": 113.05}, abs=1e-12)


@pytest.mark.usefixtures("no_tape")
def test_sample_hmc_reports_acceptance(two_story, tmp_path):
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 6, "out": str(tmp_path / "h"), "problem": str(two_story["problem"]),
        "sampler": "hmc", "run": {"K": 2, "T": 30, "burn_in": 10},
    })
    report = harness.run_experiment("sample", cfg)
    assert 0.0 <= report["summary"]["acceptance_rate"] <= 1.0


def test_sample_amsghmc_uses_checkpoint_scales(two_story, checkpoint, tmp_path):
    out = tmp_path / "am"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 8, "out": str(out), "problem": str(two_story["problem"]),
        "sampler": "am-sghmc", "checkpoint": str(checkpoint),
        "run": run_settings(),
    })
    report = harness.run_experiment("sample", cfg)
    assert report["summary"]["sampler"] == "am-sghmc"
    trace = sp.load_trace(out / "trace")
    assert np.isfinite(trace.samples).all()
    assert trace.meta["sampler"] == "amsghmc"


def test_checkpoint_transfers_across_story_counts(three_story, checkpoint, tmp_path):
    out = tmp_path / "transfer"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 9, "out": str(out), "problem": str(three_story["problem"]),
        "sampler": "am-sghmc", "checkpoint": str(checkpoint),
        "run": run_settings(),
    })
    harness.run_experiment("sample", cfg)
    trace = sp.load_trace(out / "trace")
    assert trace.samples.shape[2] == 7
    assert np.isfinite(trace.samples).all()
    harness.run_experiment("evaluate", cfg)
    doc = json.loads((out / "metrics.json").read_text())
    assert np.isfinite(doc["metrics"]["naive_loss"])


def test_evaluate_reads_trace_from_config_key(two_story, tmp_path):
    src = tmp_path / "src"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(src), "problem": str(two_story["problem"]),
        "sampler": "sghmc", "run": run_settings(),
    })
    harness.run_experiment("sample", cfg)
    elsewhere = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(tmp_path / "dst"), "trace": str(src / "trace"),
    })
    report = harness.run_experiment("evaluate", elsewhere)
    assert (tmp_path / "dst" / "metrics.json").exists()
    assert report["summary"]["kept_chains"] >= 1


def test_metrics_embed_the_traces_own_run_settings(two_story, tmp_path):
    src = tmp_path / "src"
    harness.run_experiment("sample", harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(src), "problem": str(two_story["problem"]),
        "sampler": "sghmc", "run": dict(run_settings(), eta=0.003),
    }))
    # The evaluating config keeps its defaults: am-sghmc at the default eta.
    elsewhere = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(tmp_path / "dst"), "trace": str(src / "trace"),
    })
    harness.run_experiment("evaluate", elsewhere)
    doc = json.loads((tmp_path / "dst" / "metrics.json").read_text())
    assert doc["trace"] == {"sampler": "sghmc", "eta": 0.003, "k_chains": 4,
                            "n_steps": 60, "burn_in": 20, "kept_chains": 4,
                            "diverged_chains": []}
    assert doc["config"] == elsewhere.resolved()


def test_metrics_record_the_chains_a_trace_lost(tmp_path):
    rng = np.random.default_rng(7)
    meta = {"sampler": "sghmc", "eta": 0.01, "k_chains": 5, "n_steps": 40,
            "burn_in": 0, "steps": list(range(1, 41)), "diverged": [1, 3]}
    samples = rng.standard_normal((3, 40, 3))
    sp.save_trace(sp.Trace(samples, (samples**2).sum(axis=2), meta),
                  tmp_path / "trace")
    harness.run_experiment("evaluate", harness.ExperimentConfig.from_dict({
        "seed": 1, "out": str(tmp_path / "eval"), "trace": str(tmp_path / "trace"),
    }))
    doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert doc["trace"]["k_chains"] == 5
    assert doc["trace"]["kept_chains"] == 3
    assert doc["trace"]["diverged_chains"] == [1, 3]


# --- train -------------------------------------------------------------------------


@pytest.mark.usefixtures("no_tape")
def test_train_stage_writes_checkpoint(two_story, tmp_path):
    out = tmp_path / "trn"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 1, "out": str(out), "problem": str(two_story["problem"]),
        "training": {"K0": 6, "K": 3, "epochs": 2, "sub_epochs": 2,
                     "steps_per_sub_epoch": 6, "T_T": 3, "M": 1,
                     "adapt_epochs": 1, "adapt_last": 1, "eta": 1e-4},
    })
    report = harness.run_experiment("train", cfg)
    assert (out / "checkpoint.npz").exists()
    assert (out / "history.csv").exists()
    assert report["summary"]["updates"] == 4
    nets, stats, extra = tr.load_checkpoint(out / "checkpoint.npz")
    assert extra["categories"] == [0, 0, 1, 1, 2]
    assert extra["n_stories"] == 2
    assert np.isfinite(stats.sigma_i).all()
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,sub_epoch,loss_energy,loss_entropy,grad_norm,diverged"


# --- compare -----------------------------------------------------------------------


@pytest.mark.usefixtures("no_tape")
def test_compare_stage(two_story, checkpoint, tmp_path):
    out = tmp_path / "cmp"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(out), "problem": str(two_story["problem"]),
        "checkpoint": str(checkpoint), "compare": ["am-sghmc", "sghmc"],
        "run": run_settings(),
    })
    report = harness.run_experiment("compare", cfg)
    doc = json.loads((out / "comparison.json").read_text())
    assert set(doc["table"]) == {"am-sghmc", "sghmc"}
    for metrics in doc["table"].values():
        assert set(metrics) == {"naive_loss", "ess_per_dim", "ess_aggregate",
                                "wall_time_s", "ess_per_hour", "energy_quantiles"}
    assert {"ess_aggregate_ratio", "ess_per_hour_ratio",
            "naive_loss_rel_gap"} <= set(doc["ratios"])
    for name, engine in (("am-sghmc", "amsghmc"), ("sghmc", "sghmc")):
        assert (out / name / "trace" / "trace.json").exists()
        metrics_doc = json.loads((out / name / "metrics.json").read_text())
        assert metrics_doc["trace"]["sampler"] == engine
        assert metrics_doc["metrics"] == doc["table"][name]
        assert report["outputs"][name] == f"{name}/trace"


# --- failure handling --------------------------------------------------------------


def test_preflight_failures_create_no_output(two_story, checkpoint, tmp_path):
    problem = str(two_story["problem"])
    cases = [
        ("train", {"out": str(tmp_path / "a")}),
        ("sample", {"out": str(tmp_path / "b"), "problem": problem,
                    "sampler": "am-sghmc"}),
        ("sample", {"out": str(tmp_path / "c"), "problem": "no/such/file.json"}),
        ("evaluate", {"out": str(tmp_path / "d")}),
        ("train", {"out": str(tmp_path / "e"), "problem": problem,
                   "training": {"steps_per_sub_epoch": 91}}),
        # The default window opens at step 300, after this run ends.
        ("sample", {"out": str(tmp_path / "f"), "problem": problem,
                    "sampler": "am-sghmc", "checkpoint": str(checkpoint),
                    "run": {"K": 2, "T": 20, "burn_in": 5}}),
        ("compare", {"out": str(tmp_path / "g"), "problem": problem,
                     "checkpoint": str(checkpoint),
                     "run": {"K": 2, "T": 20, "burn_in": 5}}),
        ("train", {"out": str(tmp_path / "h"), "problem": problem,
                   "training": {"v0_star": -1}}),
    ]
    for stage, payload in cases:
        with pytest.raises(harness.ConfigError):
            harness.run_experiment(stage, harness.ExperimentConfig.from_dict(payload))
        assert not (tmp_path / payload["out"]).exists()
    with pytest.raises(harness.ConfigError, match="unknown stage"):
        harness.run_experiment("simulate", harness.ExperimentConfig())


def test_nonpositive_mass_fails_before_output(two_story, tmp_path):
    spec = json.loads(two_story["problem"].read_text())
    spec["mass"][0] = 0.0
    spec["dataset"] = str(two_story["out"] / "dataset.csv")
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(out), "problem": str(bad), "sampler": "sghmc",
        "run": run_settings(),
    })
    with pytest.raises(harness.ConfigError, match="mass must be strictly positive"):
        harness.run_experiment("sample", cfg)
    assert not out.exists()


def test_nonpositive_sigma0_problem_fails_before_output(two_story, tmp_path):
    spec = json.loads(two_story["problem"].read_text())
    spec["sigma0"] = 0.0
    spec["dataset"] = str(two_story["out"] / "dataset.csv")
    bad = tmp_path / "problem.json"
    bad.write_text(json.dumps(spec))
    out = tmp_path / "run"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(out), "problem": str(bad), "sampler": "sghmc",
        "run": run_settings(),
    })
    with pytest.raises(harness.ConfigError, match="sigma0 must be positive"):
        harness.run_experiment("sample", cfg)
    assert not out.exists()


def test_midstage_failure_leaves_partial_marker(two_story, tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = harness.ExperimentConfig.from_dict({
        "seed": 5, "out": str(out), "problem": str(two_story["problem"]),
        "sampler": "sghmc", "run": run_settings(),
    })
    harness.run_experiment("sample", cfg)

    def boom(trace, out, written):
        raise RuntimeError("plot backend fell over")

    monkeypatch.setattr(harness, "_emit_plot_data", boom)
    with pytest.raises(harness.StageError) as info:
        harness.run_experiment("evaluate", cfg)
    marker = json.loads((out / "error.json").read_text())
    assert marker["stage"] == "evaluate"
    assert "metrics.json" in marker["partial_outputs"]
    assert info.value.partial_outputs == marker["partial_outputs"]

    # a later clean run clears the partial flag
    monkeypatch.undo()
    harness.run_experiment("evaluate", cfg)
    assert not (out / "error.json").exists()


# --- command line ------------------------------------------------------------------


def test_cli_generate_and_errors(tmp_path, capsys):
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps({
        "generate": {"n_stories": 2, "duration": 0.3, "dt": 0.01},
    }))
    code = cli.main(["generate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "g"), "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    line = json.loads(out.strip().splitlines()[-1])
    assert line["stage"] == "generate" and line["seed"] == 2
    assert (tmp_path / "g" / "report.json").exists()

    code = cli.main(["sample", "--config", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"

    assert cli.main(["simulate"]) == 2
    assert cli.main(["generate", "--seed", "-1"]) == 2
    capsys.readouterr()


def test_cli_rejects_bad_schedule_before_writing(two_story, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "problem": str(two_story["problem"]),
        "training": {"steps_per_sub_epoch": 91},
    }))
    out = tmp_path / "trn"
    code = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert code == 2
    assert payload["error"] == "ConfigError"
    assert "steps_per_sub_epoch" in payload["message"]
    assert not out.exists()


def test_cli_reports_stage_failures(two_story, tmp_path, capsys, monkeypatch):
    out = tmp_path / "run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "problem": str(two_story["problem"]), "sampler": "sghmc",
        "run": run_settings(),
    }))
    assert cli.main(["sample", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()

    def boom(trace, wall):
        raise RuntimeError("metrics exploded")

    monkeypatch.setattr(harness, "compute_metrics", boom)
    code = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "StageError"
    assert payload["stage"] == "evaluate"
    assert "partial_outputs" in payload
