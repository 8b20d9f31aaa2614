import numpy as np
import pytest

from amsghmc import evaluation
from amsghmc import samplers as sp
from amsghmc import strategy as sn
from amsghmc import training as tr


class Quadratic:
    """Separable Gaussian target N(0, diag(1/scale)) in energy form."""

    def __init__(self, d, scale=1.0, offset=0.0):
        self.dimension = d
        self.categories = np.zeros(d, dtype=int)
        self.scale = np.asarray(np.broadcast_to(scale, (d,)), dtype=float)
        self.offset = float(offset)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        with np.errstate(over="ignore"):
            u = 0.5 * (self.scale * thetas**2).sum(axis=1) + self.offset
        return u, self.scale * thetas


class NanStrip:
    """Quadratic bowl that turns non-finite past a wall at +20."""

    def __init__(self, d):
        self.dimension = d
        self.categories = np.zeros(d, dtype=int)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        bad = (thetas > 20.0).any(axis=1)
        u = np.where(bad, np.nan, 0.5 * (thetas**2).sum(axis=1))
        grad = np.where(bad[:, None], np.nan, thetas)
        return u, grad


def small_cfg(**kw):
    base = dict(K0=4, K=4, epochs=1, sub_epochs=1, steps_per_sub_epoch=3,
                T_T=3, M=5, adapt_epochs=1, adapt_last=1)
    base.update(kw)
    return tr.TrainingConfig(**base)


def fixed_stats(d, sigma=1.0, mu_u=0.0, sigma_u=1.0):
    return sp.AdaptiveStats.fixed(np.full(d, float(sigma)), mu_u, sigma_u)


# --- score estimation ---------------------------------------------------------


def test_stein_gaussian_score_rmse():
    for seed in (0, 1):
        x = np.random.default_rng(seed).normal(size=(500, 5))
        scores = tr.stein_gradient(x)
        rmse = np.sqrt(np.mean((scores - (-x)) ** 2, axis=0))
        assert rmse.max() <= 0.3


def test_stein_score_slope_one_dim():
    x = np.random.default_rng(3).normal(scale=2.0, size=(800, 1))
    scores = tr.stein_gradient(x)
    slope = float(np.sum(scores * x) / np.sum(x * x))
    assert abs(slope - (-0.25)) <= 0.15 * 0.25


def test_stein_translation_equivariance():
    x = np.random.default_rng(4).normal(size=(200, 3))
    s0 = tr.stein_gradient(x)
    s1 = tr.stein_gradient(x + 7.5)
    assert np.max(np.abs(s0 - s1)) <= 1e-10


def test_stein_input_validation():
    with pytest.raises(ValueError):
        tr.stein_gradient(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        tr.stein_gradient(np.zeros(5))


def test_stein_ridge_escalates_when_solve_degenerates(monkeypatch):
    real = np.linalg.solve
    calls = []

    def flaky(a, b):
        calls.append(1)
        if len(calls) == 1:
            return np.full(b.shape, np.nan)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky)
    x = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.warns(UserWarning, match="ridge"):
        scores = tr.stein_gradient(x)
    assert len(calls) == 2
    assert np.all(np.isfinite(scores))


# --- optimizer ---------------------------------------------------------------


def test_clip_by_norm_survives_overflowing_sum_of_squares():
    small, norm = tr.clip_by_norm(np.array([3.0, 4.0]), 10.0)
    np.testing.assert_array_equal(small, [3.0, 4.0])
    assert norm == 5.0
    _, norm = tr.clip_by_norm(np.array([3.0, 4.0]), 0.0)
    assert norm == 5.0
    # Each square overflows; the vector and its norm (5e160) do not.
    big = np.array([3e160, -4e160])
    clipped, norm = tr.clip_by_norm(big, 10.0)
    assert norm == pytest.approx(5e160, rel=1e-15)
    np.testing.assert_allclose(clipped, [6.0, -8.0], rtol=1e-15)
    with np.errstate(invalid="ignore"):
        _, norm = tr.clip_by_norm(np.array([np.inf, 1.0]), 10.0)
    assert norm == np.inf


def test_adam_zero_gradient_moves_nothing():
    params = np.array([1.0, -2.0, 3.0])
    state = tr.AdamState.zeros(3)
    out, state = tr.adam_step(params, np.zeros(3), state, 0.1, (0.9, 0.999))
    np.testing.assert_array_equal(out, params)
    assert state.t == 1


def test_adam_first_step_magnitude_is_lr():
    params = np.zeros(4)
    grad = np.array([3.0, -0.5, 10.0, 1e-3])
    out, _ = tr.adam_step(params, grad, tr.AdamState.zeros(4), 0.01, (0.5, 0.75))
    np.testing.assert_allclose(np.abs(out), 0.01, rtol=1e-4)
    np.testing.assert_array_equal(np.sign(out), -np.sign(grad))


def test_adam_second_step_not_larger():
    params = np.zeros(2)
    grad = np.array([1.0, 2.0])
    state = tr.AdamState.zeros(2)
    p1, state = tr.adam_step(params, grad, state, 0.01, (0.5, 0.75))
    p2, state = tr.adam_step(p1, grad, state, 0.01, (0.5, 0.75))
    assert np.all(np.abs(p2 - p1) <= np.abs(p1 - params) + 1e-12)


def test_adam_mask_freezes_value_and_moments():
    params = np.array([1.0, 1.0])
    grad = np.array([5.0, 5.0])
    state = tr.AdamState.zeros(2)
    mask = np.array([True, False])
    out, state = tr.adam_step(params, grad, state, 0.1, (0.9, 0.999), mask=mask)
    assert out[1] == 1.0 and out[0] != 1.0
    assert state.m[1] == 0.0 and state.v[1] == 0.0
    assert state.m[0] != 0.0


# --- replay buffer -------------------------------------------------------------


def test_replay_buffer_fifo_and_sampling():
    buf = tr.ReplayBuffer(capacity=3)
    for i in range(5):
        buf.push_rows(np.array([[float(i)]]), np.zeros((1, 1)),
                      np.array([float(i)]), np.zeros((1, 1)))
    assert len(buf) == 3
    stored = {buf._buf[i][0][0] for i in range(3)}
    assert stored == {2.0, 3.0, 4.0}
    th, p, u, g = buf.sample(np.random.default_rng(0))
    assert th[0] in stored and u in stored


def test_replay_buffer_empty_sample_raises():
    with pytest.raises(IndexError):
        tr.ReplayBuffer().sample(np.random.default_rng(0))


# --- entropy term ----------------------------------------------------------------


def test_entropy_terms_use_only_past_samples():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(5, 6, 2))
    base = tr.entropy_terms(samples, 1)
    tampered = samples.copy()
    tampered[4] += 50.0
    after = tr.entropy_terms(tampered, 1)
    for s in (2, 3):
        assert base[s][0] == after[s][0]
        np.testing.assert_array_equal(base[s][1], after[s][1])
    assert base[4][0] != after[4][0]


def test_entropy_terms_match_direct_kde():
    rng = np.random.default_rng(8)
    samples = rng.normal(size=(4, 4, 2))
    terms = tr.entropy_terms(samples, 0)
    for s in (1, 2, 3):
        kde = evaluation.fit_cop(samples[: s + 1].reshape(-1, 2))
        expect = float(np.mean(kde.log_density(samples[s])))
        assert terms[s][0] == pytest.approx(expect, rel=1e-12)


# --- differentiable segments ------------------------------------------------------


def zero_nets(cfg):
    """All-zero weights: both networks output exactly M/2 regardless of
    input, and every state partial is exactly zero."""
    nets = sn.init_strategy(cfg, np.random.default_rng(0))
    sn.set_trainable_flat(nets, np.zeros_like(sn.get_trainable_flat(nets)))
    return nets


def seeded_setup(problem, k, seed=0):
    gens = sp.chain_generators(seed, k)
    state = sp.initialize_chains(problem, k, gens)
    return state, gens


def test_smallest_segment_loss_decomposition():
    problem = Quadratic(2)
    cfg = small_cfg(K0=1, K=1, steps_per_sub_epoch=1, T_T=1, M=0)
    state, gens = seeded_setup(problem, 1)
    nets = sn.init_strategy(cfg.strategy, np.random.default_rng(1))
    stats = fixed_stats(2)
    xi_seq = np.stack([sp._draw_noise(gens, 2)])
    # One chain and one step: the density is fitted to two points.
    with pytest.warns(UserWarning, match="near-singular"):
        res = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                             nets, stats, sn.one_hot(problem.categories, 3),
                             sp.energy_fn(problem), cfg, np.array([0]))
    assert res.k_eff == 1 and res.grad_flat is not None
    theta1 = res.samples_theta[1]
    u1 = problem.potential_energy_batch(theta1)[0]
    assert res.loss_energy == pytest.approx(float(u1[0]), rel=1e-12)
    with pytest.warns(UserWarning, match="near-singular"):
        kde = evaluation.fit_cop(res.samples_theta.reshape(-1, 2))
    expect_h = float(np.mean(kde.log_density(theta1)))
    assert res.loss_entropy == pytest.approx(expect_h, rel=1e-12)


def test_segment_energy_gradient_matches_finite_differences():
    problem = Quadratic(2, scale=[1.0, 2.5])
    cfg = small_cfg(K0=3, K=3, steps_per_sub_epoch=1, T_T=1, M=2)
    state, gens = seeded_setup(problem, 3, seed=5)
    nets = sn.init_strategy(cfg.strategy, np.random.default_rng(2))
    stats = fixed_stats(2, sigma=1.3, mu_u=0.5, sigma_u=0.8)
    oh = sn.one_hot(problem.categories, 3)
    xi_seq = np.stack([sp._draw_noise(gens, 2)])
    fn = sp.energy_fn(problem)
    slots = np.arange(3)

    def loss_of(flat):
        probe = sn.nets_from_state(nets.cfg, sn.nets_state(nets))
        sn.set_trainable_flat(probe, flat)
        r = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                           probe, stats, oh, fn, cfg, slots)
        return r.loss_energy

    res = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                         nets, stats, oh, fn, cfg, slots)
    flat0 = sn.get_trainable_flat(nets)
    assert res.grad_flat.shape == flat0.shape
    rng = np.random.default_rng(3)
    h = 1e-6
    for i in rng.choice(flat0.size, size=15, replace=False):
        fp = flat0.copy()
        fm = flat0.copy()
        fp[i] += h
        fm[i] -= h
        fd = (loss_of(fp) - loss_of(fm)) / (2 * h)
        assert res.grad_flat[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def single_step_vjp(nets, res, s, xi, eta, stats, oh, cot):
    """Weight gradient of sum(cot * theta) over recorded step s of a
    segment alone, under the given statistics; ``am_update_vjp`` is pinned
    to central differences by test_am_update_vjp_matches_finite_differences."""
    theta, p = res.samples_theta[s - 1], res.samples_p[s - 1]
    u, grad = res.samples_u[s - 1], res.samples_grad[s - 1]
    u_hat, du_star = sp.normalize_inputs(u, grad, stats)
    sig = np.broadcast_to(stats.sigma_i, theta.shape)
    _, _, pullback = tr.am_update_vjp(nets, theta, p, grad, u_hat, du_star,
                                      sig, xi, eta, oh)
    return pullback(cot)


def test_segment_gradient_is_sum_of_single_step_gradients():
    problem = Quadratic(2)
    cfg = small_cfg(K0=2, K=2, T_T=3, steps_per_sub_epoch=3, M=5)
    state, gens = seeded_setup(problem, 2, seed=9)
    nets = sn.init_strategy(cfg.strategy, np.random.default_rng(4))
    stats = fixed_stats(2)
    oh = sn.one_hot(problem.categories, 3)
    xi_seq = np.stack([sp._draw_noise(gens, 2) for _ in range(3)])
    res = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                         nets, stats, oh, sp.energy_fn(problem), cfg,
                         np.arange(2))

    total = np.zeros_like(res.grad_flat)
    for s in (1, 2, 3):
        part = res.samples_grad[s] / (2 * 3)
        total += single_step_vjp(nets, res, s, xi_seq[s - 1], cfg.eta, stats,
                                 oh, part)
    np.testing.assert_allclose(res.grad_flat, total, rtol=1e-10, atol=1e-12)


def shortcut_nets(cfg, rng, frozen):
    """Random nets whose shortcuts are active (nonzero weights)."""
    nets = sn.init_strategy(cfg, rng)
    for name, channels in (("q_shortcut", cfg.q_channels),
                           ("d_shortcut", cfg.d_channels)):
        sc = sn.init_shortcut(rng.normal(size=(20, channels)), cfg.n_rbf, rng)
        sc.lin_w[:] = rng.normal(size=channels) * 0.3
        sc.lin_b[:] = 0.1
        sc.amp[:] = rng.normal(size=cfg.n_rbf) * 0.5
        sc.frozen = frozen
        setattr(nets, name, sc)
    return nets


def detached_theta1(nets, theta, p, u, grad, xi, eta, stats, oh, gamma):
    """samplers.am_update with Gamma pinned to the given value."""
    u_hat, du_star = sp.normalize_inputs(u, grad, stats)
    sig = stats.sigma_i
    g, _ = sn.fast_q_eval(nets, u_hat, p, oh, sig)
    c, _ = sn.fast_d_eval(nets, u_hat, p, du_star, oh)
    p1 = sp.momentum_update(p, grad, eta, g, c, gamma, xi)
    g_hat, dg_dp = sn.fast_q_eval(nets, u_hat, p1, oh, sig, dp_seed=1.0)
    return sp.position_update(theta, p1, eta, g_hat, dg_dp)


@pytest.mark.parametrize("case", ["plain", "shortcut", "frozen_shortcut",
                                  "detach_gamma"])
def test_am_update_vjp_matches_finite_differences(case):
    rng = np.random.default_rng(31)
    scfg = sn.StrategyConfig(use_shortcut=case.endswith("shortcut"), n_rbf=4)
    if scfg.use_shortcut:
        nets = shortcut_nets(scfg, rng, frozen=case == "frozen_shortcut")
    else:
        nets = sn.init_strategy(scfg, rng)
    k, d, eta = 5, 3, 0.1
    oh = sn.one_hot([0, 1, 2], 3)
    theta = rng.normal(size=(k, d))
    p = rng.normal(scale=5.0, size=(k, d))
    u = rng.normal(scale=2.0, size=k)
    grad = rng.normal(scale=3.0, size=(k, d))
    xi = rng.normal(size=(k, d))
    cot = rng.normal(size=(k, d))
    stats = sp.AdaptiveStats.fixed(np.array([0.7, 1.3, 2.0]), 0.4, 1.6)
    u_hat, du_star = sp.normalize_inputs(u, grad, stats)
    sig = np.broadcast_to(stats.sigma_i, (k, d))
    detach = case == "detach_gamma"

    theta1, finite, pullback = tr.am_update_vjp(
        nets, theta, p, grad, u_hat, du_star, sig, xi, eta, oh, detach)
    ref_theta1, _ = sp.am_update(theta, p, u, grad, xi, eta, nets, stats, oh)
    assert finite
    np.testing.assert_allclose(theta1, ref_theta1, rtol=1e-13, atol=1e-13)
    vjp = pullback(cot)
    flat0 = sn.get_trainable_flat(nets)
    assert vjp.shape == flat0.shape

    _, dg_dth = sn.fast_q_eval(nets, u_hat, p, oh, stats.sigma_i,
                               du_seed=du_star / stats.sigma_i)
    _, dc_dp = sn.fast_d_eval(nets, u_hat, p, du_star, oh, dp_seed=1.0)
    gamma0 = dg_dth + dc_dp

    def objective(flat):
        probe = sn.nets_from_state(nets.cfg, sn.nets_state(nets))
        sn.set_trainable_flat(probe, flat)
        if detach:
            th1 = detached_theta1(probe, theta, p, u, grad, xi, eta, stats,
                                  oh, gamma0)
        else:
            th1, _ = sp.am_update(theta, p, u, grad, xi, eta, probe, stats, oh)
        return float(np.sum(cot * th1))

    h = 1e-6
    fd = np.empty_like(flat0)
    for i in range(flat0.size):
        step = np.zeros_like(flat0)
        step[i] = h
        fd[i] = (objective(flat0 + step) - objective(flat0 - step)) / (2 * h)
    np.testing.assert_allclose(vjp, fd, rtol=1e-5,
                               atol=1e-7 * np.abs(fd).max())


def test_segment_gradient_with_moving_stats_matches_single_steps():
    problem = Quadratic(2, scale=[1.0, 3.0])
    cfg = small_cfg(K0=3, K=3, T_T=3, steps_per_sub_epoch=3, M=1,
                    eta=0.05, use_shortcut=True, n_rbf=4)
    scfg = cfg.strategy
    state, gens = seeded_setup(problem, 3, seed=13)
    nets = shortcut_nets(scfg, np.random.default_rng(8), frozen=False)
    nets.d_shortcut.frozen = True
    stats = sp.AdaptiveStats(2, sp.StatsConfig(window=(0, 10**9),
                                               mode="training"))
    stats.update(1, state.theta, state.u)
    before = sp.AdaptiveStats.from_state(stats.state())
    oh = sn.one_hot(problem.categories, 3)
    xi_seq = np.stack([sp._draw_noise(gens, 2) for _ in range(3)])
    res = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                         nets, stats, oh, sp.energy_fn(problem), cfg,
                         np.arange(3), update_stats=True, t0=1)
    assert res.k_eff == 3 and res.grad_flat is not None

    # Replay the statistics step by step; every chain survives, so the
    # recorded slots are the whole population in order.
    ref = before
    terms = tr.entropy_terms(res.samples_theta, cfg.M)
    total = np.zeros_like(res.grad_flat)
    sigmas = []
    for s in (1, 2, 3):
        ref.update(1 + s, res.samples_theta[s - 1], res.samples_u[s - 1])
        sigmas.append(ref.sigma_i.copy())
        part = res.samples_grad[s] / (3 * 3)
        if s in terms:
            part = part + terms[s][1] / (3 * 2)
        total += single_step_vjp(nets, res, s, xi_seq[s - 1], cfg.eta, ref,
                                 oh, part)
    assert not np.allclose(sigmas[0], sigmas[2], rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(stats.sigma_i, ref.sigma_i, rtol=0, atol=0)
    np.testing.assert_allclose(res.grad_flat, total, rtol=1e-10, atol=1e-12)


def test_segment_aborts_on_nonfinite_network_output():
    # An infinite Q-net output saturates the sigmoid, so every chain
    # still moves to a finite state, but the differentiated step is not
    # finite and the segment must give no gradient.
    problem = Quadratic(2)
    cfg = small_cfg(K0=2, K=2, T_T=3, steps_per_sub_epoch=3, M=5)
    state, gens = seeded_setup(problem, 2, seed=9)
    nets = sn.init_strategy(cfg.strategy, np.random.default_rng(4))
    nets.q_layers[-1][1][:] = np.inf
    xi_seq = np.stack([sp._draw_noise(gens, 2) for _ in range(3)])
    res = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                         nets, fixed_stats(2), sn.one_hot(problem.categories, 3),
                         sp.energy_fn(problem), cfg, np.arange(2))
    assert res.k_eff == 2 and not res.diverged.any()
    assert res.aborted and res.grad_flat is None


def test_segment_gradient_invariant_to_potential_offset():
    base = Quadratic(3)
    lifted = Quadratic(3, offset=100.0)
    cfg = small_cfg(K0=2, K=2, T_T=3, steps_per_sub_epoch=3, M=1)
    state, gens = seeded_setup(base, 2, seed=11)
    nets = sn.init_strategy(cfg.strategy, np.random.default_rng(6))
    oh = sn.one_hot(base.categories, 3)
    xi_seq = np.stack([sp._draw_noise(gens, 3) for _ in range(3)])

    res_a = tr.run_segment(state.theta, state.p, state.u, state.grad, xi_seq,
                           nets, fixed_stats(3, mu_u=0.0), oh,
                           sp.energy_fn(base), cfg, np.arange(2))
    u_lift = state.u + 100.0
    res_b = tr.run_segment(state.theta, state.p, u_lift, state.grad, xi_seq,
                           nets, fixed_stats(3, mu_u=100.0), oh,
                           sp.energy_fn(lifted), cfg, np.arange(2))
    # (U + c) - c loses low bits, so agreement is to rounding, not bitwise
    np.testing.assert_allclose(res_a.samples_theta, res_b.samples_theta,
                               rtol=1e-12, atol=1e-13)
    assert res_b.loss_energy == pytest.approx(res_a.loss_energy + 100.0)
    assert res_b.loss_entropy == pytest.approx(res_a.loss_entropy, rel=1e-6)
    np.testing.assert_allclose(res_b.grad_flat, res_a.grad_flat,
                               rtol=1e-6, atol=1e-10)


def test_segment_masks_diverged_slot_and_renormalizes():
    problem = NanStrip(1)
    cfg = small_cfg(K0=2, K=2, T_T=4, steps_per_sub_epoch=4, M=9)
    theta = np.array([[0.0], [19.9]])
    p = np.array([[0.0], [500.0]])
    u, grad = problem.potential_energy_batch(theta)
    xi_seq = np.zeros((4, 2, 1))
    res = tr.run_segment(theta, p, u, grad, xi_seq, zero_nets(cfg.strategy),
                         fixed_stats(1), sn.one_hot(problem.categories, 3),
                         sp.energy_fn(problem), cfg, np.arange(2))
    assert bool(res.diverged[1]) and not bool(res.diverged[0])
    assert res.k_eff == 1
    assert res.grad_flat is not None
    expect = float(np.mean(res.samples_u[1:, 0]))
    assert res.loss_energy == pytest.approx(expect, rel=1e-12)
    # frozen slot keeps its last finite state
    assert np.isfinite(res.theta).all()


def test_segment_returns_no_gradient_when_all_slots_die():
    problem = NanStrip(1)
    cfg = small_cfg(K0=1, K=1, T_T=2, steps_per_sub_epoch=2, M=9)
    theta = np.array([[19.9]])
    p = np.array([[500.0]])
    u, grad = problem.potential_energy_batch(theta)
    xi_seq = np.zeros((2, 1, 1))
    res = tr.run_segment(theta, p, u, grad, xi_seq, zero_nets(cfg.strategy),
                         fixed_stats(1), sn.one_hot(problem.categories, 3),
                         sp.energy_fn(problem), cfg, np.array([0]))
    assert res.k_eff == 0 and res.grad_flat is None


# --- configuration validation -------------------------------------------------------


def test_training_config_validation():
    with pytest.raises(ValueError):
        tr.TrainingConfig(K=9, K0=4)
    with pytest.raises(ValueError):
        tr.TrainingConfig(steps_per_sub_epoch=91)
    with pytest.raises(ValueError):
        tr.TrainingConfig(T_T=2, tau=3, steps_per_sub_epoch=2)
    with pytest.raises(ValueError):
        tr.TrainingConfig(adapt_last=11)


# --- full loop -----------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:near-singular")
def test_train_smoke_history_and_stats_freeze(tmp_path):
    problem = Quadratic(2)
    cfg = tr.TrainingConfig(K0=6, K=3, epochs=2, sub_epochs=2,
                            steps_per_sub_epoch=6, T_T=3, M=1,
                            adapt_epochs=1, adapt_last=1, eta=0.01)
    log = tmp_path / "history.csv"
    result = tr.train(problem, cfg, seed=0, log_path=log)
    assert len(result.history) == 4
    assert result.stats.frozen
    for row in result.history:
        assert np.isfinite(row["grad_norm"])
        assert np.isfinite(row["loss_energy"])
    text = log.read_text().strip().splitlines()
    assert text[0].startswith("epoch,") and len(text) == 5


@pytest.mark.filterwarnings("ignore:near-singular")
def test_train_is_deterministic():
    problem = Quadratic(2)
    cfg = tr.TrainingConfig(K0=4, K=2, epochs=1, sub_epochs=2,
                            steps_per_sub_epoch=6, T_T=3, M=1,
                            adapt_epochs=1, adapt_last=1, eta=0.01)
    r1 = tr.train(problem, cfg, seed=3)
    r2 = tr.train(problem, cfg, seed=3)
    np.testing.assert_array_equal(sn.get_trainable_flat(r1.nets),
                                  sn.get_trainable_flat(r2.nets))
    r3 = tr.train(problem, cfg, seed=4)
    assert not np.array_equal(sn.get_trainable_flat(r1.nets),
                              sn.get_trainable_flat(r3.nets))


@pytest.mark.filterwarnings("ignore:near-singular")
def test_train_shortcut_lifecycle():
    problem = Quadratic(2)
    cfg = tr.TrainingConfig(K0=4, K=2, epochs=2, sub_epochs=2,
                            steps_per_sub_epoch=6, T_T=3, M=1,
                            adapt_epochs=1, adapt_last=1, eta=0.01,
                            use_shortcut=True, n_rbf=4)
    result = tr.train(problem, cfg, seed=1)
    assert result.nets.q_shortcut is not None
    assert result.nets.q_shortcut.frozen and result.nets.d_shortcut.frozen


@pytest.mark.filterwarnings("ignore:near-singular")
def test_checkpoint_roundtrip_and_dimension_portability(tmp_path):
    problem = Quadratic(2)
    cfg = tr.TrainingConfig(K0=4, K=2, epochs=1, sub_epochs=1,
                            steps_per_sub_epoch=3, T_T=3, M=1,
                            adapt_epochs=1, adapt_last=1, eta=0.01)
    result = tr.train(problem, cfg, seed=2)
    path = tmp_path / "ckpt.npz"
    tr.save_checkpoint(path, result.nets, result.stats, extra={"note": "x"})
    nets2, stats2, extra = tr.load_checkpoint(path)
    assert extra == {"note": "x"}
    np.testing.assert_array_equal(sn.get_trainable_flat(result.nets,
                                                        include_shortcut=False),
                                  sn.get_trainable_flat(nets2,
                                                        include_shortcut=False))
    np.testing.assert_allclose(stats2.sigma_i, result.stats.sigma_i)
    assert stats2.frozen

    u_hat, p, du_star = np.array([0.3]), np.array([[0.1, -0.2]]), np.array([[0.5, 0.5]])
    oh = sn.one_hot([0, 1], 3)
    g1, _ = sn.fast_q_eval(result.nets, u_hat, p, oh, np.ones(2))
    g2, _ = sn.fast_q_eval(nets2, u_hat, p, oh, np.ones(2))
    c1, _ = sn.fast_d_eval(result.nets, u_hat, p, du_star, oh)
    c2, _ = sn.fast_d_eval(nets2, u_hat, p, du_star, oh)
    np.testing.assert_allclose(g1, g2, rtol=1e-15)
    np.testing.assert_allclose(c1, c2, rtol=1e-15)

    # same weights drive a problem of another dimension
    wide = Quadratic(5)
    gens = sp.chain_generators(0, 3)
    state = sp.initialize_chains(wide, 3, gens)
    fresh = sp.AdaptiveStats.fixed(np.ones(5), 0.0, 1.0)
    for _ in range(5):
        state = sp.am_sghmc_step(state, 0.01, nets2, fresh, wide, gens)
    assert np.isfinite(state.theta).all()


class NanBox:
    """Quadratic bowl that turns non-finite outside |theta| <= 4.

    Standard-normal draws land inside, so initialization and restarts
    succeed, but at a large step size every move exits the box, so no
    chain survives a segment.
    """

    def __init__(self, d):
        self.dimension = d
        self.categories = np.zeros(d, dtype=int)

    def potential_energy_batch(self, thetas):
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        bad = (np.abs(thetas) > 4.0).any(axis=1)
        u = np.where(bad, np.nan, 0.5 * (thetas**2).sum(axis=1))
        grad = np.where(bad[:, None], np.nan, thetas)
        return u, grad


def test_train_rejects_unstable_population():
    problem = NanBox(1)
    cfg = tr.TrainingConfig(K0=4, K=2, epochs=1, sub_epochs=1,
                            steps_per_sub_epoch=3, T_T=3, M=5,
                            adapt_epochs=1, adapt_last=1,
                            eta=1000.0)
    with pytest.raises(RuntimeError, match="no usable segment gradient"):
        tr.train(problem, cfg, seed=0)
