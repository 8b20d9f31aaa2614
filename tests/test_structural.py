import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsghmc import structural as sb


def random_building(rng, n, k0=2.0e7, c0=6.0e4, mass=2.0e5):
    return sb.ShearBuilding(
        stiffness=k0 * rng.uniform(0.6, 1.6, n),
        damping=c0 * rng.uniform(0.6, 1.6, n),
        mass=np.full(n, mass),
    )


def story_patterns(n):
    """Per-story assembly patterns: K = sum_s k_s * P[s] (same for damping)."""
    pats = np.zeros((n, n, n))
    for s in range(n):
        pats[s, s, s] += 1.0
        if s > 0:
            pats[s, s - 1, s - 1] += 1.0
            pats[s, s, s - 1] = pats[s, s - 1, s] = -1.0
    return pats


def sdof_analytic(k, c, m, ground, dt):
    """Closed-form underdamped single-dof response under zero-order hold."""
    w0 = np.sqrt(k / m)
    zeta = c / (2 * m * w0)
    assert zeta < 1
    wd = w0 * np.sqrt(1 - zeta**2)
    q = v = 0.0
    y = np.empty(ground.size)
    for j, u in enumerate(ground):
        qp = -m * u / k
        r0 = q - qp
        bcoef = (v + zeta * w0 * r0) / wd
        decay = np.exp(-zeta * w0 * dt)
        cwd, swd = np.cos(wd * dt), np.sin(wd * dt)
        q = qp + decay * (r0 * cwd + bcoef * swd)
        v = decay * (
            -zeta * w0 * (r0 * cwd + bcoef * swd) + wd * (-r0 * swd + bcoef * cwd)
        )
        y[j] = -(c * v + k * q) / m
    return y


def system_matrices(b):
    """(M, C, K) of the chain model, read off the state matrix that
    discretize_batch assembles."""
    n = b.n_stories
    a = sb.discretize_batch(b.mass, b.stiffness[None], b.damping[None], 0.01).a[0]
    return np.diag(b.mass), -b.mass[:, None] * a[n:, n:], -b.mass[:, None] * a[n:, :n]


def simulate(b, d):
    """Clean total accelerations at the observed dofs, (n_obs, n_steps)."""
    disc = sb.discretize_batch(b.mass, b.stiffness[None], b.damping[None], d.dt)
    return sb.run_batch(disc, d.ground_accel, d.observed_dofs)[0][0]


def rk4_reference(b, ground, dt, substeps=100):
    """Fine-step Runge-Kutta integration of the state equations."""
    m_mat, c_mat, k_mat = system_matrices(b)
    n = b.n_stories
    minv = 1.0 / b.mass
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = np.eye(n)
    a[n:, :n] = -minv[:, None] * k_mat
    a[n:, n:] = -minv[:, None] * c_mat
    bv = np.zeros(2 * n)
    bv[n:] = -1.0
    h = dt / substeps
    x = np.zeros(2 * n)
    y = np.empty((n, ground.size))
    for j, u in enumerate(ground):
        f = lambda s: a @ s + bv * u
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        y[:, j] = a[n:, :] @ x
    return y


def test_assemble_single_dof():
    b = sb.ShearBuilding([5.0], [2.0], [1.0])
    m, c, k = system_matrices(b)
    assert m.tolist() == [[1.0]]
    assert c.tolist() == [[2.0]]
    assert k.tolist() == [[5.0]]


def test_assemble_two_story_chain():
    b = sb.ShearBuilding([3.0, 7.0], [1.0, 1.0], [1.0, 1.0])
    _, _, k = system_matrices(b)
    np.testing.assert_array_equal(k, [[10.0, -7.0], [-7.0, 7.0]])


@given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=6))
def test_assembled_stiffness_is_spd(ratios):
    n = len(ratios)
    b = sb.ShearBuilding(2e7 * np.asarray(ratios), np.ones(n), np.full(n, 2e5))
    _, _, k = system_matrices(b)
    np.testing.assert_allclose(k, k.T)
    assert np.all(np.linalg.eigvalsh(k) > 0)


def test_assemble_rejects_nonpositive():
    with pytest.raises(ValueError):
        sb.ShearBuilding([0.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        sb.ShearBuilding([1.0, 1.0], [1.0, 1.0], [1.0, -1.0])
    # Damping of either sign stays admissible.
    sb.ShearBuilding([1.0, 1.0], [-1.0, 0.0], [1.0, 1.0])


def _dataset(ground, dt, n_obs_dofs):
    ground = np.asarray(ground, dtype=float)
    return sb.Dataset(
        ground_accel=ground,
        observed_dofs=n_obs_dofs,
        measurements=np.zeros((len(n_obs_dofs), ground.size)),
        dt=dt,
        noise_ratio=0.0,
    )


def test_zero_ground_zero_response():
    b = sb.nominal_building(3)
    d = _dataset(np.zeros(50), 0.01, (0, 2))
    y = simulate(b, d)
    np.testing.assert_array_equal(y, np.zeros((2, 50)))


def test_sdof_matches_analytic_solution():
    rng = np.random.default_rng(3)
    k, c, m, dt = 5.0e6, 4.0e4, 2.0e5, 0.01
    ground = rng.normal(0, 1, 400)
    b = sb.ShearBuilding([k], [c], [m])
    y = simulate(b, _dataset(ground, dt, (0,)))[0]
    ref = sdof_analytic(k, c, m, ground, dt)
    assert np.linalg.norm(y - ref) <= 1e-6 * np.linalg.norm(ref)


def test_matches_fine_step_runge_kutta():
    rng = np.random.default_rng(5)
    b = random_building(rng, 3)
    ground = rng.normal(0, 1, 200)
    y = simulate(b, _dataset(ground, 0.01, (0, 1, 2)))
    ref = rk4_reference(b, ground, 0.01)
    assert np.linalg.norm(y - ref) <= 1e-4 * np.linalg.norm(ref)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.25, 4.0))
def test_linearity_in_ground_motion(scale):
    rng = np.random.default_rng(9)
    b = random_building(rng, 2)
    ground = rng.normal(0, 1, 120)
    y1 = simulate(b, _dataset(ground, 0.01, (0, 1)))
    y2 = simulate(b, _dataset(scale * ground, 0.01, (0, 1)))
    assert np.linalg.norm(y2 - scale * y1) <= 1e-10 * np.linalg.norm(y2)


def test_free_response_envelope_decays():
    rng = np.random.default_rng(11)
    b = sb.nominal_building(2)
    ground = np.zeros(2400)
    ground[:200] = rng.normal(0, 1, 200)
    y = simulate(b, _dataset(ground, 0.01, (0, 1)))
    m, _, k = system_matrices(b)
    from scipy.linalg import eigh

    w2 = eigh(k, m, eigvals_only=True)
    period = 2 * np.pi / np.sqrt(w2[0])
    # Two fundamental periods per window: a single period still shows
    # mode-beating wiggle in the window maxima of a 2-dof response.
    win = int(np.ceil(2 * period / 0.01))
    env = []
    j = 400
    while j + win <= y.shape[1]:
        env.append(np.abs(y[:, j : j + win]).max())
        j += win
    env = np.asarray(env)
    assert np.all(np.diff(env) <= 1e-12)


def weighted_response(mass, ks, cs, ground, cot, **kw):
    y, _ = sb.run_batch(sb.discretize_batch(mass, ks, cs, 0.01, **kw), ground)
    return np.einsum("bnt,bnt->b", cot, y)


def vjp(mass, ks, cs, ground, cot, **kw):
    disc = sb.discretize_batch(mass, ks, cs, 0.01, **kw)
    _, states = sb.run_batch(disc, ground)
    return sb.response_vjp(disc, ground, states, cot)


def fd_response_gradient(mass, ks, cs, ground, cot, **kw):
    """Central differences of weighted_response over every story stiffness,
    then every story damping, for each row."""
    n = ks.shape[1]
    params = np.concatenate([ks, cs], axis=1)
    out = np.empty_like(params)
    for i in range(2 * n):
        h = 1e-6 * np.abs(params[:, i])
        plus, minus = params.copy(), params.copy()
        plus[:, i] += h
        minus[:, i] -= h
        jp = weighted_response(mass, plus[:, :n], plus[:, n:], ground, cot, **kw)
        jm = weighted_response(mass, minus[:, :n], minus[:, n:], ground, cot, **kw)
        out[:, i] = (jp - jm) / (2 * h)
    return out


def assert_matches_fd(grad, fd, ks, cs, rtol):
    # Compare the relative sensitivities p dJ/dp, so stiffness and damping
    # (three orders of magnitude apart) weigh alike.
    scale = np.concatenate([ks, cs], axis=1)
    for row in range(grad.shape[0]):
        err = np.linalg.norm((grad[row] - fd[row]) * scale[row])
        assert err <= rtol * np.linalg.norm(fd[row] * scale[row])


def test_response_vjp_zero_ground_is_zero():
    b = sb.nominal_building(2)
    cot = np.random.default_rng(4).normal(size=(1, 2, 30))
    disc = sb.discretize_batch(b.mass, b.stiffness[None], b.damping[None], 0.01)
    y, states = sb.run_batch(disc, np.zeros(30))
    np.testing.assert_array_equal(y, 0.0)
    np.testing.assert_array_equal(sb.response_vjp(disc, np.zeros(30), states, cot), 0.0)


@pytest.mark.parametrize("n", [2, 5])
def test_response_vjp_matches_finite_differences(n):
    rng = np.random.default_rng(21 + n)
    ks = 2e7 * rng.uniform(0.6, 1.6, (3, n))
    cs = 6e4 * rng.uniform(0.6, 1.6, (3, n))
    mass = np.full(n, 2e5)
    ground = rng.normal(0, 1, 150)
    cot = rng.normal(size=(3, n, 150))
    grad = vjp(mass, ks, cs, ground, cot)
    assert_matches_fd(grad, fd_response_gradient(mass, ks, cs, ground, cot), ks, cs, 1e-6)


def test_response_vjp_fallback_and_near_repeated_rows():
    n = 2
    mass = np.full(n, 2e5)
    rng = np.random.default_rng(17)
    k = 2e7 * np.array([1.1, 0.9])
    kmat = np.einsum("s,sij->ij", k, story_patterns(n))
    from scipy.linalg import eigh

    w1 = np.sqrt(eigh(kmat, np.diag(mass), eigvals_only=True)[0])
    # Damping c = beta k damps the first mode critically at beta = 2 / w1,
    # where its eigenvalue pair merges into a defective one: the closer
    # beta gets, the closer the pair and the worse the eigenbasis.
    near = 1.0 - np.array([1e-8, 1e-11, 1e-14])
    ks = np.vstack([2e7 * rng.uniform(0.6, 1.6, n), np.tile(k, (3, 1))])
    cs = np.vstack([6e4 * rng.uniform(0.6, 1.6, n), (2.0 / w1) * near[:, None] * k])
    ground = rng.normal(0, 1, 150)
    cot = rng.normal(size=(4, n, 150))
    disc = sb.discretize_batch(mass, ks, cs, 0.01, cond_limit=1e6)
    np.testing.assert_array_equal(disc.dense, [2, 3])
    # Row 1 stays modal with a pair close enough for the confluent branch.
    gap = 0.5 * 0.01 * np.abs(disc.lam[1][:, None] - disc.lam[1][None, :])
    assert 0.0 < gap[~np.eye(2 * n, dtype=bool)].min() < 1e-4

    _, states = sb.run_batch(disc, ground)
    grad = sb.response_vjp(disc, ground, states, cot)
    fd = fd_response_gradient(mass, ks, cs, ground, cot, cond_limit=1e6)
    assert_matches_fd(grad, fd, ks, cs, 1e-5)
    # The modal rows agree with the same rows stepped by matrix exponentials.
    dense = vjp(mass, ks[:2], cs[:2], ground, cot[:2], cond_limit=0.0)
    assert_matches_fd(grad[:2], dense, ks[:2], cs[:2], 1e-7)


def test_response_vjp_overdamped_and_negative_damping_rows():
    # An overdamped row (150x nominal damping: four real eigenvalues), a
    # negatively damped one (growing modes, |e| up to 1.0017) and an
    # ordinary one, in one batch.
    n = 2
    mass = np.full(n, 2e5)
    rng = np.random.default_rng(19)
    ks = 2e7 * np.vstack([[1.0, 1.0], [1.0, 1.0], rng.uniform(0.6, 1.6, n)])
    cs = 6e4 * np.vstack([[150.0, 150.0], [-0.5, -0.4], rng.uniform(0.6, 1.6, n)])
    ground = rng.normal(0, 1, 150)
    cot = rng.normal(size=(3, n, 150))
    disc = sb.discretize_batch(mass, ks, cs, 0.01)
    assert np.all(disc.lam[0].imag == 0.0)
    assert 1.001 < np.abs(disc.e[1]).max() < 1.002
    # The overdamped row steps modally, with one slot per real eigenvalue.
    assert disc.dense.size == 0 and disc.e.shape[1] == 4
    grad = vjp(mass, ks, cs, ground, cot)
    assert_matches_fd(grad, fd_response_gradient(mass, ks, cs, ground, cot), ks, cs, 1e-6)
    dense = vjp(mass, ks, cs, ground, cot, cond_limit=0.0)
    assert_matches_fd(grad, dense, ks, cs, 1e-8)


@pytest.mark.parametrize("cond_limit", [1e5, 0.0])
def test_readout_and_vjp_at_chosen_dofs_match_every_floor(cond_limit):
    rng = np.random.default_rng(29)
    n = 5
    ks = 2e7 * rng.uniform(0.6, 1.6, (3, n))
    cs = 6e4 * rng.uniform(0.6, 1.6, (3, n))
    mass = np.full(n, 2e5)
    ground = rng.normal(0, 1, 120)
    dofs = (4, 0, 4)
    disc = sb.discretize_batch(mass, ks, cs, 0.01, cond_limit=cond_limit)
    y_all, states = sb.run_batch(disc, ground)
    y, _ = sb.run_batch(disc, ground, dofs)
    assert np.abs(y - y_all[:, list(dofs)]).max() <= 1e-12 * np.abs(y_all).max()
    # A repeated dof's cotangent rows add up on its floor.
    cot = rng.normal(size=(3, len(dofs), 120))
    scattered = np.zeros_like(y_all)
    np.add.at(scattered, (slice(None), list(dofs)), cot)
    grad = sb.response_vjp(disc, ground, states, cot, dofs)
    every = sb.response_vjp(disc, ground, states, scattered)
    for row in range(3):
        assert np.linalg.norm(grad[row] - every[row]) <= 1e-12 * np.linalg.norm(every[row])


def stepwise_states(disc, ground):
    """States after every step, one zero-order-hold step at a time."""
    m = disc.ad.shape[-1]
    z = np.zeros(disc.e.shape, dtype=complex)
    out = np.empty((ground.size,) + z.shape, dtype=complex)
    for j, a in enumerate(ground):
        x = z.view(float)[disc.dense, :m].copy()
        z = disc.e * z + disc.beta * a
        z.view(float)[disc.dense, :m] += np.einsum("bij,bj->bi", disc.ad, x)
        out[j] = z
    return out


# 18 is the window length of a 300-step record; the shorter records get
# windows of 1, 2, 3, 5, 5, 5 and 10 steps, most with a ragged last window.
@pytest.mark.parametrize("n_steps", [1, 2, 9, 17, 18, 19, 97, 300])
def test_windowed_forward_matches_stepwise_march(n_steps):
    # A modal row, an overdamped one (150x damping, four real eigenvalues)
    # and a near-critical one that the condition limit sends to the dense
    # steps, in one batch.
    n = 2
    mass = np.full(n, 2e5)
    rng = np.random.default_rng(37)
    k = 2e7 * np.array([1.1, 0.9])
    kmat = np.einsum("s,sij->ij", k, story_patterns(n))
    from scipy.linalg import eigh

    w1 = np.sqrt(eigh(kmat, np.diag(mass), eigvals_only=True)[0])
    ks = np.vstack([2e7 * rng.uniform(0.6, 1.6, n), [2e7, 2e7], k])
    cs = np.vstack([6e4 * rng.uniform(0.6, 1.6, n), [9e6, 9e6], (2.0 / w1) * (1 - 1e-12) * k])
    disc = sb.discretize_batch(mass, ks, cs, 0.01)
    np.testing.assert_array_equal(disc.dense, [2])
    assert disc.e.shape[1] == 4
    ground = rng.normal(0, 1, n_steps)
    ref = stepwise_states(disc, ground)
    buffer = np.empty_like(ref)
    y, states = sb.run_batch(disc, ground, out=buffer)
    assert states is buffer
    x = 2.0 * np.real(np.einsum("bij,tbj->tbi", disc.vec, ref))
    y_ref = np.einsum("bij,tbj->bit", disc.a[:, n:], x)
    for row in range(3):
        scale = np.abs(ref[:, row]).max()
        assert np.abs(states[:, row] - ref[:, row]).max() <= 1e-13 * scale
        assert np.abs(y[row] - y_ref[row]).max() <= 1e-13 * np.abs(y_ref[row]).max()


@pytest.mark.parametrize("n_steps", [1, 2, 9, 17, 18, 19, 300])
def test_windows_equal_scipy_toeplitz(n_steps):
    from scipy.linalg import toeplitz

    ground = np.random.default_rng(n_steps).normal(0, 1, n_steps)
    windows = sb._windows(ground.tobytes())
    span = windows.shape[1]
    assert span == int(np.ceil(np.sqrt(n_steps)))
    np.testing.assert_array_equal(windows, toeplitz(ground, np.zeros(span)))
    assert windows.flags.c_contiguous and not windows.flags.writeable


def test_empty_batch_gives_empty_results():
    disc = sb.discretize_batch(np.full(2, 2e5), np.zeros((0, 2)), np.zeros((0, 2)), 0.01)
    y, states = sb.run_batch(disc, np.ones(10), (1,))
    assert y.shape == (0, 1, 10)
    assert sb.response_vjp(disc, np.ones(10), states, y, (1,)).shape == (0, 4)


def test_default_cond_limit_keeps_near_defective_gradients_accurate():
    n = 2
    mass = np.full(n, 2e5)
    k = 2e7 * np.array([1.1, 0.9])
    kmat = np.einsum("s,sij->ij", k, story_patterns(n))
    from scipy.linalg import eigh

    w1 = np.sqrt(eigh(kmat, np.diag(mass), eigvals_only=True)[0])
    # Stiffness-proportional damping just below critical for mode 1: the
    # eigenbasis condition is ~7e3 in row 0 and ~7e6 in row 1, where a
    # modal gradient is off by ~3e-5.
    near = 1.0 - np.array([1e-6, 1e-12])
    ks = np.tile(k, (2, 1))
    cs = (2.0 / w1) * near[:, None] * k
    rng = np.random.default_rng(3)
    ground = rng.normal(0, 1, 150)
    cot = rng.normal(size=(2, n, 150))
    disc = sb.discretize_batch(mass, ks, cs, 0.01)
    np.testing.assert_array_equal(disc.dense, [1])
    grad = vjp(mass, ks, cs, ground, cot)
    dense = vjp(mass, ks, cs, ground, cot, cond_limit=0.0)
    assert_matches_fd(grad, dense, ks, cs, 1e-8)


def test_vinv_inverts_vec_on_rows_approaching_critical_damping():
    # Stiffness-proportional damping from 1e-3 to 1e-8 below critical for
    # mode 1: the eigenbasis condition rises from ~2e2 to ~7e4, and every
    # row stays modal at the default limit.
    n = 2
    mass = np.full(n, 2e5)
    k = 2e7 * np.array([1.1, 0.9])
    kmat = np.einsum("s,sij->ij", k, story_patterns(n))
    from scipy.linalg import eigh

    w1 = np.sqrt(eigh(kmat, np.diag(mass), eigvals_only=True)[0])
    near = 1.0 - np.logspace(-3, -8, 6)
    ks = np.tile(k, (near.size, 1))
    cs = (2.0 / w1) * near[:, None] * k
    disc = sb.discretize_batch(mass, ks, cs, 0.01)
    assert disc.dense.size == 0
    eye = np.eye(2 * n)
    for row in range(near.size):
        recon = 2.0 * np.real(disc.vec[row] @ disc.vinv[row])
        assert np.abs(recon - eye).max() <= 1e-12


def test_generate_dataset_zero_noise_equals_clean():
    rng = np.random.default_rng(1)
    cfg = sb.DatasetConfig(n_stories=2, duration=1.0, dt=0.01, noise_ratio=0.0)
    b = cfg.building
    d, truth = sb.generate_dataset(cfg, rng)
    b_true = sb.ShearBuilding(truth["stiffness"], truth["damping"], b.mass)
    clean = simulate(b_true, d)
    np.testing.assert_array_equal(d.measurements, clean)


def test_generate_dataset_full_noise_matches_rms():
    rng = np.random.default_rng(2)
    cfg = sb.DatasetConfig(n_stories=2, duration=100.0, dt=0.01, noise_ratio=1.0)
    b = cfg.building
    d, truth = sb.generate_dataset(cfg, rng)
    b_true = sb.ShearBuilding(truth["stiffness"], truth["damping"], b.mass)
    clean = simulate(b_true, d)
    noise_std = np.std(d.measurements - clean)
    assert abs(noise_std - truth["rms"]) <= 0.05 * truth["rms"]


def test_generate_dataset_is_deterministic():
    cfg = sb.DatasetConfig(n_stories=3, duration=2.0, dt=0.01)
    d1, t1 = sb.generate_dataset(cfg, np.random.default_rng(42))
    d2, t2 = sb.generate_dataset(cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(d1.measurements, d2.measurements)
    np.testing.assert_array_equal(d1.ground_accel, d2.ground_accel)
    np.testing.assert_array_equal(t1["stiffness"], t2["stiffness"])


def test_dataset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    cfg = sb.DatasetConfig(n_stories=2, duration=0.5, dt=0.01)
    d, truth = sb.generate_dataset(cfg, rng)
    path = tmp_path / "data.csv"
    sb.save_dataset(path, d, truth)
    d2, truth2 = sb.load_dataset(path)
    np.testing.assert_array_equal(d.measurements, d2.measurements)
    np.testing.assert_array_equal(d.ground_accel, d2.ground_accel)
    assert d2.observed_dofs == d.observed_dofs
    assert d2.dt == d.dt
    np.testing.assert_array_equal(truth["stiffness"], truth2["stiffness"])
    assert truth2["noise_std"] == truth["noise_std"]


def test_batched_discretization_matches_single():
    rng = np.random.default_rng(13)
    n = 2
    ks = 2e7 * rng.uniform(0.6, 1.6, (4, n))
    cs = 6e4 * rng.uniform(0.6, 1.6, (4, n))
    mass = np.full(n, 2e5)
    ground = rng.normal(0, 1, 80)
    y_all, _ = sb.run_batch(sb.discretize_batch(mass, ks, cs, 0.01), ground)
    for i in range(4):
        b = sb.ShearBuilding(ks[i], cs[i], mass)
        y = simulate(b, _dataset(ground, 0.01, (0, 1)))
        np.testing.assert_allclose(y_all[i], y, rtol=1e-12, atol=1e-14)


def test_batched_vjp_matches_single():
    rng = np.random.default_rng(13)
    n = 2
    ks = 2e7 * rng.uniform(0.6, 1.6, (4, n))
    cs = 6e4 * rng.uniform(0.6, 1.6, (4, n))
    mass = np.full(n, 2e5)
    ground = rng.normal(0, 1, 80)
    cot = rng.normal(size=(4, n, 80))
    grad_all = vjp(mass, ks, cs, ground, cot)
    for i in range(4):
        grad = vjp(mass, ks[i : i + 1], cs[i : i + 1], ground, cot[i : i + 1])[0]
        np.testing.assert_allclose(grad_all[i], grad, rtol=1e-10)
