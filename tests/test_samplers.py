import numpy as np
import pytest

from amsghmc import samplers as sp
from amsghmc import strategy as sn
from amsghmc import target


class Quadratic:
    """Separable Gaussian target N(0, diag(1/scale)) in energy form."""

    def __init__(self, d, scale=1.0):
        self.dimension = d
        self.categories = np.zeros(d, dtype=int)
        self.scale = np.asarray(np.broadcast_to(scale, (d,)), dtype=float)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        with np.errstate(over="ignore"):
            u = 0.5 * (self.scale * thetas**2).sum(axis=1)
        return u, self.scale * thetas


class Flat:
    dimension = 2
    categories = np.zeros(2, dtype=int)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.zeros(len(thetas)), np.zeros_like(thetas)


class DriftWall:
    """Constant pull to the right; the energy turns NaN past the wall."""

    dimension = 1

    def __init__(self):
        self.categories = np.zeros(1, dtype=int)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        th = thetas[:, 0]
        bad = th > 1000.0
        u = np.where(bad, np.nan, -th)
        grad = np.where(bad, np.nan, -1.0)[:, None]
        return u, grad


# --- normalization and adaptive statistics --------------------------------------


def test_normalize_inputs_reference_points():
    stats = sp.AdaptiveStats.fixed(np.array([2.0, 3.0]), 5.0, 1.0)
    u_hat, du = sp.normalize_inputs(np.array([5.0]), np.array([[1.0, 1.0]]), stats)
    assert u_hat[0] == 0.0
    np.testing.assert_allclose(du[0], [1.0, 1.5])
    u_hat, _ = sp.normalize_inputs(np.array([7.0]), np.zeros((1, 2)), stats)
    assert u_hat[0] == 1.0


def test_adaptive_stats_window_gating():
    cfg = sp.StatsConfig(window=(5, 8))
    stats = sp.AdaptiveStats(2, cfg)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((4, 2))
    us = rng.standard_normal(4)
    stats.update(1, batch, us)
    assert stats.theta_est.t == 0 and not stats.frozen
    for t in range(5, 9):
        stats.update(t, batch + t, us + t)
    assert stats.theta_est.t == 4
    assert stats.frozen
    sig_before = stats.sigma_i.copy()
    mu_before = stats.mu_u
    stats.update(9, batch + 99.0, us + 99.0)
    np.testing.assert_array_equal(stats.sigma_i, sig_before)
    assert stats.mu_u == mu_before


def test_adaptive_stats_freezes_past_window_without_hit():
    stats = sp.AdaptiveStats(1, sp.StatsConfig(window=(5, 8)))
    stats.update(20, np.zeros((2, 1)), np.zeros(2))
    assert stats.frozen
    assert stats.theta_est.t == 0


def test_adaptive_stats_floor_and_fixed():
    stats = sp.AdaptiveStats(3)
    assert np.all(stats.sigma_i == 1.0)
    assert stats.sigma_u == stats.config.floor
    bare = sp.AdaptiveStats(3, sp.StatsConfig(v0_star=None))
    assert np.all(bare.sigma_i == bare.config.floor)
    # Pinned values read back bitwise, before and after a state round trip,
    # also at magnitudes far from 1.
    for sig, mu_u, sig_u in (([1.0, 2.0, 3.0], -4.0, 0.5),
                             ([1e-7 * np.pi, 0.3, 3.3e5], -1234.5678, 7e-3)):
        fixed = sp.AdaptiveStats.fixed(np.array(sig), mu_u, sig_u)
        for s in (fixed, sp.AdaptiveStats.from_state(fixed.state())):
            assert s.frozen
            np.testing.assert_array_equal(s.sigma_i, sig)
            assert s.mu_u == mu_u and s.sigma_u == sig_u


def test_adaptive_stats_state_roundtrip():
    cfg = sp.StatsConfig(window=(1, 50), beta_theta=(0.9, 0.99),
                         beta_u=(0.8, 0.9), v0_star=2.0)
    a = sp.AdaptiveStats(2, cfg)
    rng = np.random.default_rng(3)
    for t in range(1, 9):
        a.update(t, rng.standard_normal((4, 2)), rng.standard_normal(4))
    b = sp.AdaptiveStats.from_state(a.state())
    np.testing.assert_array_equal(a.sigma_i, b.sigma_i)
    assert a.mu_u == b.mu_u and a.sigma_u == b.sigma_u
    assert a.frozen == b.frozen
    batch = rng.standard_normal((4, 2))
    us = rng.standard_normal(4)
    a.update(9, batch, us)
    b.update(9, batch, us)
    np.testing.assert_array_equal(a.sigma_i, b.sigma_i)

    f = sp.AdaptiveStats.fixed(np.array([1.5]), 0.0, 2.0)
    g = sp.AdaptiveStats.from_state(f.state())
    assert g.frozen and g.sigma_u == 2.0
    np.testing.assert_array_equal(g.sigma_i, [1.5])


def test_adaptive_stats_screens_runaway_rows():
    cfg = sp.StatsConfig(window=(1, 50))
    a = sp.AdaptiveStats(2, cfg)
    b = sp.AdaptiveStats(2, cfg)
    rng = np.random.default_rng(7)
    batch = rng.standard_normal((5, 2))
    us = rng.standard_normal(5)
    a.update(1, batch, us)
    b.update(1, batch, us)

    # one row insane in u, one insane in theta; both must vanish bitwise
    spiked = np.vstack([batch, [[0.3, -0.1], [0.0, -3e19]]])
    spiked_u = np.append(us, [1e25, 0.4])
    a.update(2, spiked, spiked_u)
    b.update(2, batch, us)
    np.testing.assert_array_equal(a.sigma_i, b.sigma_i)
    assert a.mu_u == b.mu_u and a.sigma_u == b.sigma_u

    # a fully rejected batch contributes nothing instead of raising
    t_before = a.theta_est.t
    a.update(3, np.full((3, 2), 1e30), np.full(3, np.nan))
    assert a.theta_est.t == t_before

    # without any prior seed the first batch sets the scale unguarded
    bare = sp.AdaptiveStats(1, sp.StatsConfig(v0_star=None, window=(1, 50)))
    bare.update(1, np.full((2, 1), 1e12), np.zeros(2))
    assert bare.theta_est.t == 1


def test_v0_star_bridges_categories_between_tasks():
    sig = np.array([0.2, 0.4, 3.0])
    train_cats = [0, 0, 1]
    v0 = sp.v0_from_training(sig, train_cats, [0, 1, 0, 1])
    np.testing.assert_allclose(v0, [0.1, 9.0, 0.1, 9.0])
    doubled = sp.v0_from_training(sig, train_cats, [0, 1, 0, 1], scale=2.0)
    np.testing.assert_allclose(doubled, 2.0 * v0)
    with pytest.raises(ValueError):
        sp.v0_from_training(sig, train_cats, [0, 2])
    with pytest.raises(ValueError):
        sp.v0_from_training(sig, [0, 0], [0])
    with pytest.raises(ValueError):
        sp.v0_from_training(sig, train_cats, [0], scale=0.0)


# --- kernels ---------------------------------------------------------------------


def test_momentum_noise_scale():
    rng = np.random.default_rng(11)
    xi = rng.standard_normal(300_000)
    eta, c = 0.03, 4.0
    p1 = sp.momentum_update(0.0, 0.0, eta, 1.0, c, 0.0, xi)
    assert abs(p1.std() / np.sqrt(2.0 * eta * c) - 1.0) < 0.01


def test_sghmc_step_validation():
    quad = Quadratic(2)
    gens = sp.chain_generators(0, 3)
    state = sp.initialize_chains(quad, 3, gens)
    with pytest.raises(ValueError):
        sp.sghmc_step(state, -0.1, 1.0, 1.0, quad, gens)
    with pytest.raises(ValueError):
        sp.sghmc_step(state, 0.1, 1.0, 0.0, quad, gens)


def test_chain_generators_prefix_stable():
    a = sp.chain_generators(7, 2)
    b = sp.chain_generators(7, 5)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.standard_normal(4), gb.standard_normal(4))


# --- constant-network reduction ---------------------------------------------------


def test_am_with_zero_nets_matches_sghmc_bitwise():
    quad = Quadratic(3, scale=[1.0, 2.0, 0.5])
    cfg = sn.StrategyConfig()
    nets = sn.init_strategy(cfg, np.random.default_rng(0))
    sn.set_trainable_flat(nets, np.zeros_like(sn.get_trainable_flat(nets)))
    stats = sp.AdaptiveStats.fixed(np.ones(3), 0.0, 1.0)
    g_const = 1.0 * (cfg.c1 + cfg.m_q * 0.5)
    c_const = cfg.c2 + cfg.m_d * 0.5
    conf = sp.RunConfig(K=4, T=400, burn_in=50, eta=1e-3, sghmc_G=g_const,
                        sghmc_C=c_const)
    tr_am = sp.run_chains("amsghmc", quad, conf, seed=123, nets=nets,
                          stats=stats)
    tr_sg = sp.run_chains("sghmc", quad, conf, seed=123)
    np.testing.assert_array_equal(tr_am.samples, tr_sg.samples)
    np.testing.assert_array_equal(tr_am.potentials, tr_sg.potentials)


# --- stationary distributions ------------------------------------------------------


def test_sghmc_gaussian_moments():
    quad = Quadratic(2)
    conf = sp.RunConfig(K=8, T=6000, burn_in=1000, eta=0.05, sghmc_G=1.0,
                        sghmc_C=1.0)
    tr = sp.run_chains("sghmc", quad, conf, seed=5)
    flat = tr.flat()
    assert np.all(np.abs(flat.mean(axis=0)) < 0.08)
    assert np.all(np.abs(flat.var(axis=0) - 1.0) < 0.15)


def test_hmc_gaussian_moments_and_acceptance():
    quad = Quadratic(2, scale=[1.0, 4.0])
    conf = sp.RunConfig(K=4, T=1500, burn_in=300, hmc_step0=0.3,
                        hmc_leapfrog=10)
    tr = sp.run_chains("hmc", quad, conf, seed=9)
    flat = tr.flat()
    assert np.all(np.abs(flat.mean(axis=0)) < 0.1)
    np.testing.assert_allclose(flat.var(axis=0), [1.0, 0.25], rtol=0.2)
    assert 0.4 < tr.meta["acceptance_rate"] <= 1.0
    assert tr.meta["eta"] > 0


def test_hmc_flat_potential_always_accepts():
    flatp = Flat()
    gens = sp.chain_generators(2, 3)
    state = sp.initialize_chains(flatp, 3, gens, theta0=np.zeros(2))
    new, accepted = sp.hmc_step(state, 0.1, 7, flatp, gens)
    assert accepted.all()
    assert not np.allclose(new.theta, state.theta)


def test_hmc_rejection_keeps_state():
    steep = Quadratic(2, scale=1e6)
    gens = sp.chain_generators(4, 5)
    state = sp.initialize_chains(steep, 5, gens, theta0=np.full(2, 1e-4))
    new, accepted = sp.hmc_step(state, 1.0, 3, steep, gens)
    assert not accepted.any()
    np.testing.assert_array_equal(new.theta, state.theta)
    np.testing.assert_array_equal(new.u, state.u)
    assert new.alive.all()


def test_dual_averaging_direction():
    up = sp.DualAveraging(0.1)
    for _ in range(5):
        eps_up = up.update(1.0)
    down = sp.DualAveraging(0.1)
    for _ in range(5):
        eps_down = down.update(0.0)
    assert eps_up > 0.1 > eps_down
    assert np.isfinite(up.tuned) and up.tuned > 0


# --- full runs ----------------------------------------------------------------------


def test_run_chains_thinning_and_consistency():
    quad = Quadratic(3)
    conf = sp.RunConfig(K=2, T=100, burn_in=40, tau=3, eta=0.02)
    tr = sp.run_chains("sghmc", quad, conf, seed=1)
    assert tr.samples.shape == (2, 20, 3)
    assert tr.potentials.shape == (2, 20)
    assert tr.meta["steps"][0] == 43 and tr.meta["steps"][-1] == 100
    u, _ = quad.potential_energy_batch(tr.flat())
    np.testing.assert_allclose(u, tr.potentials.reshape(-1), rtol=1e-14)


def test_run_chains_deterministic_and_prefix_stable():
    quad = Quadratic(2)
    conf = sp.RunConfig(K=2, T=60, burn_in=10, eta=0.02)
    a = sp.run_chains("sghmc", quad, conf, seed=4)
    b = sp.run_chains("sghmc", quad, conf, seed=4)
    np.testing.assert_array_equal(a.samples, b.samples)
    wide = sp.run_chains("sghmc", quad, sp.RunConfig(K=5, T=60, burn_in=10,
                                                     eta=0.02), seed=4)
    np.testing.assert_array_equal(wide.samples[:2], a.samples)
    other = sp.run_chains("sghmc", quad, conf, seed=5)
    assert not np.array_equal(other.samples, a.samples)


def test_run_chains_drops_diverged_chain():
    prob = DriftWall()
    theta0 = np.array([[0.0], [995.0]])
    p0 = np.array([[0.0], [60.0]])
    conf = sp.RunConfig(K=2, T=60, burn_in=10, eta=0.1)
    tr = sp.run_chains("sghmc", prob, conf, seed=0, theta0=theta0, p0=p0)
    assert tr.meta["diverged"] == [1]
    assert tr.samples.shape == (1, 50, 1)
    assert np.all(tr.samples < 1000.0)


def test_run_chains_raises_when_all_diverge():
    unstable = Quadratic(2, scale=1e4)
    with pytest.raises(RuntimeError):
        sp.run_chains("sghmc", unstable,
                      sp.RunConfig(K=3, T=200, burn_in=10, eta=5.0), seed=0)


def test_run_chains_argument_validation():
    quad = Quadratic(2)
    conf = sp.RunConfig(K=1, T=10, burn_in=0)
    with pytest.raises(ValueError):
        sp.run_chains("nuts", quad, conf)
    with pytest.raises(ValueError):
        sp.RunConfig(K=1, T=10, burn_in=10)
    with pytest.raises(ValueError):
        sp.RunConfig(K=1, T=10, burn_in=0, tau=0)
    with pytest.raises(ValueError):
        sp.run_chains("amsghmc", quad, conf)


def test_advance_marks_nonfinite_rows_dead():
    quad = Quadratic(2)
    gens = sp.chain_generators(0, 3)
    state = sp.initialize_chains(quad, 3, gens, theta0=np.zeros(2))
    theta1 = np.array([[0.1, 0.1], [np.nan, 0.0], [0.2, -0.2]])
    p1 = np.zeros((3, 2))
    new = sp._advance(state, np.arange(3), theta1, p1, sp.energy_fn(quad))
    np.testing.assert_array_equal(new.alive, [True, False, True])
    np.testing.assert_array_equal(new.theta[1], state.theta[1])
    np.testing.assert_array_equal(new.theta[0], [0.1, 0.1])


def test_safe_energy_falls_back_row_by_row_and_screens_rows():
    calls = []

    def fn(thetas):
        calls.append(len(thetas))
        if (thetas[:, 0] > 10.0).any():
            raise ValueError("outside the model's domain")
        u = np.where(thetas[:, 0] < -10.0, np.nan, 0.5 * (thetas**2).sum(axis=1))
        grad = np.where(thetas[:, 1:] > 10.0, np.inf, thetas)
        return u, grad

    # rows: fine, raises, non-finite energy, non-finite gradient
    thetas = np.array([[0.5, 1.0], [20.0, 0.0], [-20.0, 0.0], [0.0, 20.0]])
    u, grad, ok = sp._safe_energy(fn, thetas)
    assert calls == [4, 1, 1, 1, 1]
    np.testing.assert_array_equal(ok, [True, False, False, False])
    assert u[0] == 0.625 and np.isnan(u[1])
    np.testing.assert_array_equal(grad[0], [0.5, 1.0])
    calls.clear()
    _, _, ok = sp._safe_energy(fn, thetas[[0, 2, 3]])
    assert calls == [3]
    np.testing.assert_array_equal(ok, [True, False, False])


def test_initialize_chains_prior_start():
    from amsghmc import structural

    rng = np.random.default_rng(100)
    cfg = structural.DatasetConfig(n_stories=2, duration=1.0, dt=0.01, noise_ratio=1.0)
    b = cfg.building
    dataset, _ = structural.generate_dataset(cfg, rng)
    problem = target.default_problem(b, dataset)
    gens = sp.chain_generators(0, 6)
    state = sp.initialize_chains(problem, 6, gens)
    assert state.theta.shape == (6, 5)
    w, _, _ = target.transform_details(state.theta, problem.transform)
    for j, prior in enumerate(problem.priors.priors):
        assert np.all(w[:, j] > prior.low) and np.all(w[:, j] < prior.high)
    assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.grad))


def test_trace_save_load_roundtrip(tmp_path):
    quad = Quadratic(2)
    conf = sp.RunConfig(K=3, T=40, burn_in=10, tau=2, eta=0.02)
    tr = sp.run_chains("sghmc", quad, conf, seed=6)
    sp.save_trace(tr, tmp_path / "out")
    back = sp.load_trace(tmp_path / "out")
    np.testing.assert_array_equal(back.samples, tr.samples)
    np.testing.assert_array_equal(back.potentials, tr.potentials)
    assert back.meta["sampler"] == "sghmc"
    assert back.meta["steps"] == tr.meta["steps"]


# --- scale invariance of the meta-learned engine -------------------------------------


class AffineImage:
    """Base target seen through theta' = lam * theta + b."""

    def __init__(self, base, lam, b):
        self.base = base
        self.lam = np.asarray(lam, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dimension = base.dimension
        self.categories = base.categories

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        u, grad = self.base.potential_energy_batch((thetas - self.b) / self.lam)
        return u, grad / self.lam


def test_am_sghmc_scale_invariance():
    rng = np.random.default_rng(17)
    d = 3
    base = Quadratic(d, scale=[1.0, 0.5, 2.0])
    lam = np.array([0.1, 3.0, 10.0])
    b = np.array([-5.0, 0.0, 4.0])
    scaled = AffineImage(base, lam, b)
    nets = sn.init_strategy(sn.StrategyConfig(), rng)

    sig = np.array([0.7, 1.3, 0.9])
    mu_u, sig_u = 0.4, 1.7
    stats = sp.AdaptiveStats.fixed(sig, mu_u, sig_u)
    stats_s = sp.AdaptiveStats.fixed(lam * sig, mu_u, sig_u)

    theta0 = rng.standard_normal((4, d))
    p0 = rng.standard_normal((4, d))
    conf = sp.RunConfig(K=4, T=300, burn_in=0)
    tr = sp.run_chains("amsghmc", base, conf, seed=31, nets=nets, stats=stats,
                       theta0=theta0, p0=p0)
    tr_s = sp.run_chains("amsghmc", scaled, conf, seed=31, nets=nets,
                         stats=stats_s, theta0=lam * theta0 + b, p0=p0)
    expect = lam * tr.samples + b
    scale = np.maximum(np.abs(expect), 1.0)
    assert np.max(np.abs(tr_s.samples - expect) / scale) < 1e-8
