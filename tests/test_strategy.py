import numpy as np
import pytest

from amsghmc import autodiff as ad
from amsghmc import strategy as sn


CFG = sn.StrategyConfig()


def scalar(x):
    return float(np.asarray(x).reshape(-1)[0])


def random_nets(seed=0, cfg=CFG):
    return sn.init_strategy(cfg, np.random.default_rng(seed))


def zero_nets(cfg=CFG):
    """All-zero weights: both networks output exactly M/2 regardless of
    input, and every state partial is exactly zero."""
    nets = random_nets(0, cfg)
    sn.set_trainable_flat(nets, np.zeros_like(sn.get_trainable_flat(nets)))
    return nets


def batch(z):
    """Features z = (U_hat, p, dU_star, categories) as the batch evaluators
    take them: U_hat (K,), p and dU_star (K, D), one-hot rows."""
    u_hat, p, du_star, cats = z
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return (np.reshape(u_hat, -1), p, np.broadcast_to(du_star, p.shape),
            sn.one_hot(cats, 3))


def forward(nets, z, sigma):
    """(G_ii, C_ii) at features z."""
    u_hat, p, du_star, oh = batch(z)
    g, _ = sn.fast_q_eval(nets, sn.features(u_hat, p), oh, sigma)
    c, _ = sn.fast_d_eval(nets, sn.features(u_hat, p, du_star), oh)
    return g, c


def partials(nets, z, sigma, du_hat_dtheta):
    """(dG/dtheta_i, dC/dp_i, dG/dp_i) at features z, by forward mode."""
    u_hat, p, du_star, oh = batch(z)
    x = sn.features(u_hat, p, du_star)
    _, dg_dth = sn.fast_q_eval(nets, x, oh, sigma, du_seed=du_hat_dtheta)
    _, dc_dp = sn.fast_d_eval(nets, x, oh, dp_seed=1.0)
    _, dg_dp = sn.fast_q_eval(nets, x, oh, sigma, dp_seed=1.0)
    return dg_dth, dc_dp, dg_dp


def test_squash_values_at_zero():
    i_u, i_p, i_g = (squash(0.0)[0] for squash in
                     (sn._squash_u_np, sn._squash_p_np, sn._squash_g_np))
    i_c = sn.one_hot([1], 3)[:, 0]
    assert i_u == pytest.approx(0.0, abs=1e-15)
    assert i_p == pytest.approx(0.0, abs=1e-15)
    assert i_g == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(i_c, [0.0, 1.0, 0.0])


def test_squash_rejects_unknown_category():
    with pytest.raises(ValueError):
        sn.one_hot([3], 3)
    with pytest.raises(ValueError):
        sn.one_hot([-1], 3)


def test_zero_weights_give_midpoint_outputs():
    nets = zero_nets()
    z = (0.7, -2.0, 5.0, np.array([0]))
    g, c = forward(nets, z, sigma=1.0)
    assert g == pytest.approx(CFG.c1 + CFG.m_q / 2, abs=1e-14)
    assert c == pytest.approx(CFG.c2 + CFG.m_d / 2, abs=1e-14)
    dg_dth, dc_dp, dg_dp = partials(nets, z, 1.0, du_hat_dtheta=0.8)
    assert scalar(dg_dth) == 0.0
    assert scalar(dc_dp) == 0.0
    assert scalar(dg_dp) == 0.0


def test_sigma_scales_g_only():
    nets = random_nets(1)
    z = (0.3, 1.2, -4.0, np.array([1]))
    g1, c1 = forward(nets, z, sigma=1.0)
    g2, c2 = forward(nets, z, sigma=2.0)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-14)
    assert c2 == c1


def test_outputs_bounded_random_sweep():
    rng = np.random.default_rng(7)
    for seed in range(5):
        nets = random_nets(seed)
        u = rng.normal(0, 5, (40, 1))
        p = rng.normal(0, 20, (40, 5))
        du = rng.normal(0, 50, (40, 5))
        cats = np.array([0, 0, 1, 1, 2])
        sigma = rng.uniform(0.1, 3.0, (40, 5))
        g, c = forward(nets, (u, p, du, cats), sigma)
        assert np.all(g > sigma * CFG.c1)
        assert np.all(g < sigma * (CFG.c1 + CFG.m_q))
        assert np.all(c > CFG.c2)
        assert np.all(c < CFG.c2 + CFG.m_d)


def test_batched_shapes_broadcast():
    nets = random_nets(3)
    k, d = 6, 5
    u = np.random.default_rng(0).normal(size=(k, 1))
    p = np.random.default_rng(1).normal(size=(k, d))
    du = np.random.default_rng(2).normal(size=(k, d))
    cats = np.array([0, 0, 1, 1, 2])
    g, c = forward(nets, (u, p, du, cats), sigma=np.ones((k, d)))
    assert g.shape == (k, d)
    assert c.shape == (k, d)


def active_shortcuts(nets, rng):
    """Give both networks a shortcut with nonzero trainable weights."""
    cfg = nets.cfg
    for name, channels in (("q_shortcut", cfg.q_channels),
                           ("d_shortcut", cfg.d_channels)):
        sc = sn.init_shortcut(rng.normal(size=(20, channels)), cfg.n_rbf, rng)
        sc.lin_w[:] = rng.normal(size=channels) * 0.3
        sc.lin_b[:] = 0.1
        sc.amp[:] = rng.normal(size=cfg.n_rbf) * 0.5
        setattr(nets, name, sc)
    return nets


def shortcut_nets(seed):
    """``random_nets(seed)`` with active shortcuts on both networks."""
    cfg = sn.StrategyConfig(use_shortcut=True, n_rbf=4)
    return active_shortcuts(random_nets(seed, cfg),
                            np.random.default_rng(seed + 1))


def weight_probes(nets, n, rng):
    """``n`` random indices into the MLP weights of the flat vector, then
    every trainable shortcut entry, which the flattening puts last."""
    n_mlp = sum(w.size + b.size for w, b in nets.q_layers + nets.d_layers)
    return np.concatenate((rng.choice(n_mlp, size=n, replace=False),
                           np.arange(n_mlp, sn.get_trainable_flat(nets).size)))


def test_partials_match_finite_differences():
    for nets in (random_nets(11), shortcut_nets(11)):
        check_partials_against_finite_differences(nets)


def check_partials_against_finite_differences(nets):
    u0, p0, du0 = 0.45, -1.3, 12.0
    cats = np.array([2])
    sigma = 1.7
    seed = 0.62
    z = (u0, p0, du0, cats)
    dg_dth, dc_dp, dg_dp = partials(nets, z, sigma, du_hat_dtheta=seed)
    h = 1e-6

    def g_at(u, p):
        g, _ = forward(nets, (u, p, du0, cats), sigma)
        return scalar(g)

    def c_at(p):
        _, c = forward(nets, (u0, p, du0, cats), sigma)
        return scalar(c)

    fd_g_u = (g_at(u0 + h, p0) - g_at(u0 - h, p0)) / (2 * h) * seed
    fd_c_p = (c_at(p0 + h) - c_at(p0 - h)) / (2 * h)
    fd_g_p = (g_at(u0, p0 + h) - g_at(u0, p0 - h)) / (2 * h)
    assert scalar(dg_dth) == pytest.approx(fd_g_u, rel=1e-5)
    assert scalar(dc_dp) == pytest.approx(fd_c_p, rel=1e-5)
    assert scalar(dg_dp) == pytest.approx(fd_g_p, rel=1e-5)


def test_theta_partial_vanishes_without_potential_seed():
    nets = random_nets(13)
    z = (0.45, -1.3, 12.0, np.array([0]))
    dg_dth, _, _ = partials(nets, z, 1.0, du_hat_dtheta=0.0)
    assert scalar(dg_dth) == 0.0


def test_category_equivariance():
    cfg = CFG
    nets = random_nets(17, cfg)
    perm = np.array([2, 0, 1])
    permuted = sn.nets_from_state(cfg, sn.nets_state(nets))
    for layers, base in ((permuted.q_layers, 2), (permuted.d_layers, 3)):
        w0 = layers[0][0]
        w0[:, base:] = w0[:, base + perm]
    z_args = (0.9, 2.2, -7.0)
    for cat in range(3):
        g1, c1 = forward(nets, (*z_args, np.array([cat])), 1.0)
        where = int(np.nonzero(perm == cat)[0][0])
        g2, c2 = forward(permuted, (*z_args, np.array([where])), 1.0)
        assert scalar(g1) == pytest.approx(scalar(g2), rel=1e-14)
        assert scalar(c1) == pytest.approx(scalar(c2), rel=1e-14)


def test_weight_gradient_matches_finite_differences():
    for nets in (random_nets(19), shortcut_nets(19)):
        check_weight_gradient(nets)


def check_weight_gradient(nets):
    u, p, du = 0.2, 0.5, -3.0
    oh = sn.one_hot([1], 3)[:, 0]
    tape = ad.Tape()
    var_nets, var_list = sn.build_tape_nets(nets, tape)
    g, _ = sn.q_eval(var_nets, u, p, oh, 1.0)
    c, _ = sn.d_eval(var_nets, u, p, du, oh)
    out = g + c
    grads = tape.gradient(out, var_list)

    flat0 = sn.get_trainable_flat(nets)
    h = 1e-6

    def value(flat):
        probe = sn.nets_from_state(nets.cfg, sn.nets_state(nets))
        sn.set_trainable_flat(probe, flat)
        gg, _ = sn.q_eval(probe, u, p, oh, 1.0)
        cc, _ = sn.d_eval(probe, u, p, du, oh)
        return scalar(gg) + scalar(cc)

    for i in weight_probes(nets, 30, np.random.default_rng(5)):
        fp = flat0.copy()
        fm = flat0.copy()
        fp[i] += h
        fm[i] -= h
        fd = (value(fp) - value(fm)) / (2 * h)
        assert abs(float(grads[i]) - fd) <= 1e-4 * max(abs(fd), 1e-6)


def test_momentum_partial_is_differentiable_wrt_weights():
    # The theta update uses dG/dp at the half-updated state; its weight
    # gradient must agree with finite differences of the numpy-mode partial.
    for nets in (random_nets(23), shortcut_nets(23)):
        check_momentum_partial_weight_gradient(nets)


def check_momentum_partial_weight_gradient(nets):
    u, p = 0.1, 0.8
    oh = sn.one_hot([0], 3)[:, 0]
    tape = ad.Tape()
    var_nets, var_list = sn.build_tape_nets(nets, tape)
    _, dg_dp = sn.q_eval(var_nets, u, p, oh, 1.0, dp_seed=1.0)
    grads = tape.gradient(dg_dp, var_list)

    flat0 = sn.get_trainable_flat(nets)
    h = 1e-5

    def partial_value(flat):
        probe = sn.nets_from_state(nets.cfg, sn.nets_state(nets))
        sn.set_trainable_flat(probe, flat)
        _, t = sn.q_eval(probe, u, p, oh, 1.0, dp_seed=1.0)
        return scalar(t)

    for i in weight_probes(nets, 12, np.random.default_rng(3)):
        fp = flat0.copy()
        fm = flat0.copy()
        fp[i] += h
        fm[i] -= h
        fd = (partial_value(fp) - partial_value(fm)) / (2 * h)
        assert abs(float(grads[i]) - fd) <= 1e-4 * max(abs(fd), 1e-5)


def test_flat_roundtrip():
    nets = random_nets(29)
    flat = sn.get_trainable_flat(nets)
    other = sn.nets_from_state(nets.cfg, sn.nets_state(nets))
    sn.set_trainable_flat(other, np.zeros_like(flat))
    assert np.all(sn.get_trainable_flat(other) == 0)
    sn.set_trainable_flat(other, flat)
    np.testing.assert_array_equal(sn.get_trainable_flat(other), flat)


def test_shortcut_inert_at_init_then_active():
    cfg = sn.StrategyConfig(use_shortcut=True)
    nets = random_nets(31, cfg)
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(40, cfg.q_channels))
    sc = sn.init_shortcut(samples, cfg.n_rbf, rng)
    assert sc.width > 0
    assert sc.centers.shape == (cfg.n_rbf, cfg.q_channels)

    z = (0.2, -0.7, 1.0, np.array([1]))
    g0, _ = forward(nets, z, 1.0)
    nets.q_shortcut = sc
    g1, _ = forward(nets, z, 1.0)
    assert scalar(g1) == pytest.approx(scalar(g0), rel=1e-14)

    sc.amp[:] = 0.5
    g2, _ = forward(nets, z, 1.0)
    assert scalar(g2) != pytest.approx(scalar(g0), rel=1e-9)


def test_frozen_shortcut_not_trainable():
    cfg = sn.StrategyConfig(use_shortcut=True)
    nets = random_nets(37, cfg)
    rng = np.random.default_rng(1)
    sc = sn.init_shortcut(rng.normal(size=(20, cfg.q_channels)), cfg.n_rbf, rng)
    nets.q_shortcut = sc
    n_with = sn.get_trainable_flat(nets).size
    sc.frozen = True
    n_frozen = sn.get_trainable_flat(nets).size
    assert n_with - n_frozen == cfg.q_channels + 1 + cfg.n_rbf


def test_state_roundtrip_preserves_outputs():
    cfg = sn.StrategyConfig(use_shortcut=True)
    nets = random_nets(41, cfg)
    rng = np.random.default_rng(2)
    nets.d_shortcut = sn.init_shortcut(rng.normal(size=(20, cfg.d_channels)), cfg.n_rbf, rng)
    nets.d_shortcut.amp[:] = rng.normal(size=cfg.n_rbf)
    restored = sn.nets_from_state(cfg, sn.nets_state(nets))
    z = (1.1, 0.4, -2.0, np.array([2]))
    g1, c1 = forward(nets, z, 1.3)
    g2, c2 = forward(restored, z, 1.3)
    assert scalar(g1) == scalar(g2)
    assert scalar(c1) == scalar(c2)


def test_fast_eval_matches_generic_path():
    nets = random_nets(3)
    rng = np.random.default_rng(8)
    k, d = 4, 5
    u_hat = rng.normal(size=k) * 2
    p = rng.normal(size=(k, d)) * 3
    du_star = rng.normal(size=(k, d)) * 5
    duh = rng.normal(size=(k, d))
    sigma = rng.uniform(0.5, 2.0, d)
    oh = sn.one_hot([0, 1, 2, 1, 0], 3)

    g_ref, gt_ref = sn.q_eval(nets, u_hat[:, None], p, oh, sigma, du_seed=duh)
    g, gt = sn.fast_q_eval(nets, sn.features(u_hat, p), oh, sigma, du_seed=duh)
    np.testing.assert_allclose(g, g_ref, rtol=1e-12)
    np.testing.assert_allclose(gt, gt_ref, rtol=1e-9, atol=1e-14)

    g_ref, gt_ref = sn.q_eval(nets, u_hat[:, None], p, oh, sigma, dp_seed=1.0)
    g, gt = sn.fast_q_eval(nets, sn.features(u_hat, p), oh, sigma, dp_seed=1.0)
    np.testing.assert_allclose(g, g_ref, rtol=1e-12)
    np.testing.assert_allclose(gt, gt_ref, rtol=1e-9, atol=1e-14)

    c_ref, ct_ref = sn.d_eval(nets, u_hat[:, None], p, du_star, oh, dp_seed=1.0)
    c, ct = sn.fast_d_eval(nets, sn.features(u_hat, p, du_star), oh,
                           dp_seed=1.0)
    np.testing.assert_allclose(c, c_ref, rtol=1e-12)
    np.testing.assert_allclose(ct, ct_ref, rtol=1e-9, atol=1e-14)

    c, ct = sn.fast_d_eval(nets, sn.features(u_hat, p, du_star), oh)
    assert ct is None
    np.testing.assert_allclose(c, c_ref, rtol=1e-12)


def test_fast_eval_matches_generic_with_shortcut():
    cfg = sn.StrategyConfig(use_shortcut=True)
    nets = sn.init_strategy(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(9)
    samples_q = rng.normal(size=(30, cfg.q_channels))
    samples_d = rng.normal(size=(30, cfg.d_channels))
    nets.q_shortcut = sn.init_shortcut(samples_q, cfg.n_rbf, rng)
    nets.d_shortcut = sn.init_shortcut(samples_d, cfg.n_rbf, rng)
    nets.q_shortcut.lin_w[:] = rng.normal(size=cfg.q_channels) * 0.3
    nets.q_shortcut.amp[:] = rng.normal(size=cfg.n_rbf) * 0.5
    nets.d_shortcut.amp[:] = rng.normal(size=cfg.n_rbf) * 0.5

    k, d = 3, 4
    u_hat = rng.normal(size=k)
    p = rng.normal(size=(k, d))
    du_star = rng.normal(size=(k, d))
    duh = rng.normal(size=(k, d))
    sigma = np.ones(d)
    oh = sn.one_hot([0, 1, 2, 0], 3)

    g_ref, gt_ref = sn.q_eval(nets, u_hat[:, None], p, oh, sigma, du_seed=duh)
    g, gt = sn.fast_q_eval(nets, sn.features(u_hat, p), oh, sigma, du_seed=duh)
    np.testing.assert_allclose(g, g_ref, rtol=1e-12)
    np.testing.assert_allclose(gt, gt_ref, rtol=1e-9, atol=1e-14)

    c_ref, ct_ref = sn.d_eval(nets, u_hat[:, None], p, du_star, oh, dp_seed=1.0)
    c, ct = sn.fast_d_eval(nets, sn.features(u_hat, p, du_star), oh,
                           dp_seed=1.0)
    np.testing.assert_allclose(c, c_ref, rtol=1e-12)
    np.testing.assert_allclose(ct, ct_ref, rtol=1e-9, atol=1e-14)


def test_fast_eval_zero_nets_exact_constants():
    nets = zero_nets()
    k, d = 2, 3
    u_hat = np.array([4.0, -1.0])
    p = np.ones((k, d))
    sigma = np.array([1.0, 2.0, 0.5])
    oh = sn.one_hot([0, 1, 2], 3)
    g, gt = sn.fast_q_eval(nets, sn.features(u_hat, p), oh, sigma,
                           du_seed=np.ones((k, d)))
    c, ct = sn.fast_d_eval(nets, sn.features(u_hat, p, p), oh, dp_seed=1.0)
    np.testing.assert_array_equal(
        g, np.broadcast_to(sigma * (CFG.c1 + CFG.m_q * 0.5), (k, d)))
    np.testing.assert_array_equal(c, np.full((k, d), CFG.c2 + CFG.m_d * 0.5))
    assert np.all(gt == 0.0) and np.all(ct == 0.0)
