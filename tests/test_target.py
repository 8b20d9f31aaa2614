import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsghmc import structural, target


def wide_transform(d=1):
    return target.BoundedTransform.from_knots([(0.5, 0.5, 1.5, 0.5)] * d)


def to_params(theta, tr):
    return target.transform_details(theta, tr)[0]


def log_jacobian(theta, tr):
    return float(target.transform_details(theta, tr)[1].sum())


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(100)
    cfg = structural.DatasetConfig(n_stories=2, duration=1.0, dt=0.01, noise_ratio=1.0)
    b = cfg.building
    dataset, _ = structural.generate_dataset(cfg, rng)
    return target.default_problem(b, dataset)


def test_map_identity_at_lower_knot():
    tr = wide_transform()
    assert to_params(np.array([0.5]), tr)[0] == 0.5


def test_map_saturates_to_upper_bound():
    tr = wide_transform()
    w = to_params(np.array([1e3]), tr)[0]
    assert w == pytest.approx(2.0, abs=1e-12)
    assert w <= 2.0


def test_map_frozen_value():
    tr = wide_transform()
    w = to_params(np.array([2.0]), tr)[0]
    assert w == pytest.approx(1.8807970779778824, abs=1e-15)


def test_log_jacobian_zero_at_knot_and_inside():
    tr = wide_transform()
    assert log_jacobian(np.array([1.5]), tr) == 0.0
    assert log_jacobian(np.array([1.0]), tr) == 0.0


def test_log_jacobian_frozen_value_one_width_out():
    tr = wide_transform()
    # 2 log sigmoid(2) - 2 + log 4, equivalently log(4 s(2) (1 - s(2))).
    t = log_jacobian(np.array([2.0]), tr)
    assert t == pytest.approx(-0.8675616609660544, abs=1e-14)


def test_log_jacobian_nonpositive():
    tr = wide_transform()
    thetas = np.linspace(-4, 6, 101)[:, None]
    _, t, _ = target.transform_details(thetas, tr)
    assert np.all(t <= 0)


def test_jacobian_matches_slope_of_map():
    tr = wide_transform()
    rng = np.random.default_rng(17)
    h = 1e-7
    for theta in rng.uniform(-1.0, 3.0, 50):
        tv = log_jacobian(np.array([theta]), tr)
        wp = to_params(np.array([theta + h]), tr)[0]
        wm = to_params(np.array([theta - h]), tr)[0]
        fd = (wp - wm) / (2 * h)
        assert abs(np.exp(tv) - fd) <= 1e-6 * abs(fd)


def test_transform_smooth_across_knots():
    tr = wide_transform()
    eps = 1e-8
    for knot in (0.5, 1.5):
        pts = np.array([[knot - eps], [knot + eps]])
        _, t, dt = target.transform_details(pts, tr)
        assert abs(t[1, 0] - t[0, 0]) <= 1e-9
        assert abs(dt[1, 0] - dt[0, 0]) <= 1e-6


def test_one_sided_transform():
    tr = target.BoundedTransform.from_knots([(None, None, 1.5, 0.5)])
    w = to_params(np.array([-100.0]), tr)
    assert w[0] == -100.0
    w = to_params(np.array([50.0]), tr)
    assert w[0] == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=100)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=4),
    st.floats(1e-4, 2.0),
)
def test_map_strictly_increasing(theta, eps):
    tr = wide_transform(len(theta))
    t1 = np.asarray(theta)
    w1 = to_params(t1, tr)
    w2 = to_params(t1 + eps, tr)
    assert np.all(w2 > w1)


def test_gaussian_prior_peak_and_truncation():
    pr = target.TruncatedGaussian(1.0, 0.3, 0.499, 1.501)
    assert pr.log_density(1.0) == 0.0
    assert pr.log_density(0.4) == -np.inf
    assert pr.log_density(1.6) == -np.inf
    assert pr.log_density(1.3) == pytest.approx(-(0.3**2) / (2 * 0.09), abs=1e-15)


def test_lognormal_prior_peak():
    pr = target.TruncatedLognormal(1.0, 0.3, 0.098, 3.002)
    assert pr.log_density(1.0) == 0.0
    assert pr.log_density(0.01) == -np.inf
    w = 1.7
    expected = -np.log(w) - np.log(w) ** 2 / (2 * 0.09)
    assert pr.log_density(w) == pytest.approx(expected, rel=1e-14)


def test_log_prior_sums_dimensions():
    spec = target.PriorSpec(
        (
            target.TruncatedGaussian(1.0, 0.3, 0.499, 1.501),
            target.TruncatedLognormal(1.0, 0.3, 0.098, 3.002),
        ),
        (0, 2),
    )
    w = np.array([1.15, 0.9])
    expected = float(
        spec.priors[0].log_density(1.15) + spec.priors[1].log_density(0.9)
    )
    assert target._prior_terms(w, spec)[0] == pytest.approx(expected, rel=1e-14)
    assert target._prior_terms(np.array([0.2, 0.9]), spec)[0] == -np.inf


def _perfect_single_sample_problem():
    b = structural.ShearBuilding([2e7], [6e4], [2e5])
    ground = np.array([1.0])
    d0 = structural.Dataset(ground, (0,), np.zeros((1, 1)), 0.01, 0.0)
    clean, _ = structural.run_batch(
        structural.discretize_batch(b.mass, b.stiffness[None], b.damping[None], 0.01),
        ground, (0,))
    dataset = structural.Dataset(ground, (0,), clean[0], 0.01, 0.0)
    return target.default_problem(b, dataset)


def log_likelihood(w, problem):
    return float(target._likelihood_batch(np.asarray(w)[None], problem)[0][0])


def test_likelihood_perfect_prediction_single_sample():
    prob = _perfect_single_sample_problem()
    w = np.array([1.0, 1.0, 1.0])
    ll = log_likelihood(w, prob)
    assert ll == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)


def test_likelihood_sigma_doubling_with_zero_residual():
    prob = _perfect_single_sample_problem()
    ll1 = log_likelihood(np.array([1.0, 1.0, 1.0]), prob)
    ll2 = log_likelihood(np.array([1.0, 1.0, 2.0]), prob)
    assert ll2 - ll1 == pytest.approx(-np.log(2.0), abs=1e-12)


def test_likelihood_matches_direct_formula(small_problem):
    prob = small_problem
    w = np.array([1.1, 0.95, 1.2, 0.8, 1.3])
    b = structural.ShearBuilding(
        w[:2] * prob.building.stiffness, w[2:4] * prob.building.damping, prob.building.mass
    )
    d = prob.dataset
    y, _ = structural.run_batch(
        structural.discretize_batch(b.mass, b.stiffness[None], b.damping[None], d.dt),
        d.ground_accel, d.observed_dofs)
    y = y[0]
    s = 0.0
    for nrow, yrow in zip(prob.dataset.measurements, y):
        for a, bb in zip(nrow, yrow):
            s += (a - bb) ** 2
    sigma = w[4] * prob.sigma0
    count = prob.dataset.n_obs * prob.dataset.n_steps
    expected = -0.5 * count * np.log(2 * np.pi * sigma**2) - s / (2 * sigma**2)
    assert log_likelihood(w, prob) == pytest.approx(expected, rel=1e-12)


def test_likelihood_rejects_nonpositive_sigma(small_problem):
    with pytest.raises(ValueError):
        log_likelihood(np.array([1.0, 1.0, 1.0, 1.0, -0.5]), small_problem)


def test_potential_gradient_matches_finite_differences(small_problem):
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(20):
        theta = np.concatenate(
            [
                rng.uniform(0.6, 1.4, 2),
                rng.uniform(0.2, 2.0, 2),
                rng.uniform(0.5, 2.0, 1),
            ]
        )
        _, grad = target.potential_energy_batch(theta[None], small_problem)
        fd = np.empty_like(theta)
        for i in range(theta.size):
            tp = theta.copy()
            tm = theta.copy()
            tp[i] += h
            tm[i] -= h
            up, _ = target.potential_energy_batch(tp[None], small_problem)
            um, _ = target.potential_energy_batch(tm[None], small_problem)
            fd[i] = (up[0] - um[0]) / (2 * h)
        assert np.linalg.norm(grad[0] - fd) <= 1e-5 * np.linalg.norm(fd)


def test_flat_likelihood_reduces_to_prior_and_jacobian(small_problem):
    prob = target.UpdatingProblem(
        building=small_problem.building,
        dataset=small_problem.dataset,
        priors=small_problem.priors,
        transform=small_problem.transform,
        sigma0=small_problem.sigma0,
        flat_likelihood=True,
    )
    theta = np.array([1.2, 0.7, 1.5, 0.3, 1.1])
    u, _ = target.potential_energy_batch(theta[None], prob)
    w = to_params(theta, prob.transform)
    expected = -target._prior_terms(w, prob.priors)[0] - log_jacobian(theta, prob.transform)
    assert u[0] == pytest.approx(expected, rel=1e-14)


def test_potential_finite_far_out(small_problem):
    theta = np.array([50.0, -50.0, 120.0, -80.0, 200.0])
    u, grad = target.potential_energy_batch(theta[None], small_problem)
    assert np.isfinite(u).all()
    assert np.all(np.isfinite(grad))


def test_batch_matches_single(small_problem):
    rng = np.random.default_rng(31)
    thetas = rng.uniform(0.6, 1.4, (5, 5))
    u_b, g_b = target.potential_energy_batch(thetas, small_problem)
    for i in range(5):
        u, g = target.potential_energy_batch(thetas[i:i + 1], small_problem)
        assert u[0] == pytest.approx(u_b[i], rel=1e-12)
        np.testing.assert_allclose(g[0], g_b[i], rtol=1e-10)


def test_problem_roundtrip(tmp_path, small_problem):
    data_path = tmp_path / "data.csv"
    structural.save_dataset(data_path, small_problem.dataset)
    prob_path = tmp_path / "problem.json"
    target.save_problem(prob_path, small_problem, "data.csv")
    loaded = target.load_problem(prob_path)
    theta = np.array([1.05, 0.9, 1.2, 0.6, 1.4])
    u1, g1 = target.potential_energy_batch(theta[None], small_problem)
    u2, g2 = target.potential_energy_batch(theta[None], loaded)
    assert u1 == pytest.approx(u2, rel=1e-12)
    np.testing.assert_allclose(g1, g2, rtol=1e-12)
    assert loaded.priors.categories == small_problem.priors.categories


@given(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_inverse_map_roundtrip(thetas):
    theta = np.array(thetas)
    tr = wide_transform(theta.size)
    w = to_params(theta, tr)
    back = target.map_params_to_state(w, tr)
    # the map compresses the tails, so compare in parameter space where
    # precision is uniform
    np.testing.assert_allclose(
        to_params(back, tr), w, rtol=0, atol=1e-12)
    # within the identity band the roundtrip is exact
    inside = (theta >= 0.5) & (theta <= 1.5)
    np.testing.assert_array_equal(back[inside], theta[inside])


def test_inverse_map_rejects_out_of_range():
    tr = wide_transform(1)
    with pytest.raises(ValueError):
        target.map_params_to_state(np.array([2.0]), tr)
    with pytest.raises(ValueError):
        target.map_params_to_state(np.array([0.0]), tr)


def test_prior_sampling_respects_bounds_and_moments():
    rng = np.random.default_rng(5)
    gauss = target.TruncatedGaussian(1.0, 0.3, 0.499, 1.501)
    logn = target.TruncatedLognormal(1.0, 0.3, 0.098, 3.002)
    g = gauss.sample(rng, 20000)
    l = logn.sample(rng, 20000)
    assert g.min() >= 0.499 and g.max() <= 1.501
    assert l.min() >= 0.098 and l.max() <= 3.002
    # truncation at ~1.7 sigma keeps the mean near the center and trims
    # the spread below the untruncated value
    assert abs(g.mean() - 1.0) < 0.01
    assert 0.2 < g.std() < 0.3
    assert abs(np.median(l) - 1.0) < 0.02


def test_joint_prior_sampling_shape_and_determinism(small_problem):
    draws1 = target.sample_prior_ratios(
        small_problem.priors, np.random.default_rng(9), 64)
    draws2 = target.sample_prior_ratios(
        small_problem.priors, np.random.default_rng(9), 64)
    assert draws1.shape == (64, 5)
    np.testing.assert_array_equal(draws1, draws2)
    assert np.all(np.isfinite(
        target.map_params_to_state(draws1, small_problem.transform)))


@pytest.fixture(scope="module")
def five_story_problem():
    rng = np.random.default_rng(2604)
    cfg = structural.DatasetConfig(n_stories=5, duration=1.0, dt=0.01, noise_ratio=1.0)
    b = cfg.building
    dataset, _ = structural.generate_dataset(cfg, rng)
    return target.default_problem(b, dataset)


# Three states of five_story_problem with the energies and gradients the
# forward-sensitivity gradient gave for them. The eigenbasis condition
# estimates of the rows are about 74, 63 and 86, so a limit of 80 sends
# only the last row through the matrix-exponential discretization.
GOLDEN_THETAS = np.array([
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    [0.6, 0.7, 0.65, 0.8, 0.75, -0.3, 0.4, 1.2, 0.2, 0.9, 1.3],
    [1.45, 1.4, 1.3, 1.35, 1.2, 2.5, 1.8, 2.2, 0.6, 1.5, 0.7],
])
GOLDEN_U = np.array([186.7224579503253, 257.1092195151757, 150.80924708809604])
GOLDEN_GRAD = np.array([
    [2.7957447276924247e-01, -5.7429861196937426e-01, 1.1677493756164509e-01,
     -1.7728933687281984e-02, 5.6810954754059499e-02, -1.1337602547716598e-02,
     -1.4482656523728278e-02, 8.6034826843911089e-03, -4.7104372999358379e-03,
     3.7762475284440892e-03, 1.9513049738121848e+02],
    [-5.4813531380527447e+00, -3.9912057565787484e+00, -4.4205106547572406e+00,
     -2.5265013416825104e+00, -3.2350771089245427e+00, -1.4514075781399269e+01,
     -6.6794611692886381e+00, 2.2158088343902698e+00, -8.8952329670836008e+00,
     -1.1153652521884163e+00, 1.5325355592143137e+02],
    [1.1365159339062981e+01, 7.0267920978521170e+00, 3.7298113730744586e+00,
     5.4352794713688946e+00, 3.8255217902030005e+00, 1.6758790696083452e+01,
     8.6608379180286299e+00, 1.3324217327473784e+01, -4.4555331488262393e+00,
     5.5450210177653982e+00, 2.5789151300797710e+02],
])


def test_golden_batch_energy_and_gradient(five_story_problem, monkeypatch):
    discretize = structural.discretize_batch
    expm = structural._discretize_expm
    fallback_calls = []
    monkeypatch.setattr(structural, "discretize_batch",
                        lambda *a, **k: discretize(*a, **k, cond_limit=80.0))
    monkeypatch.setattr(structural, "_discretize_expm",
                        lambda *a: fallback_calls.append(a) or expm(*a))
    u, grad = target.potential_energy_batch(GOLDEN_THETAS, five_story_problem)
    assert len(fallback_calls) == 1
    np.testing.assert_allclose(u, GOLDEN_U, rtol=1e-10)
    np.testing.assert_allclose(grad, GOLDEN_GRAD, rtol=1e-10)


def test_reused_record_buffers_are_invisible(five_story_problem):
    prob = five_story_problem
    rng = np.random.default_rng(47)

    def states(k):
        w = target.sample_prior_ratios(prob.priors, rng, k)
        return target.map_params_to_state(w, prob.transform)

    first, second, wider = states(4), states(4), states(6)
    # A problem with no noise scale, which UpdatingProblem rejects, built
    # past that check so that its energy call raises.
    no_noise = dataclasses.replace(prob)
    object.__setattr__(no_noise, "sigma0", 0.0)
    calls = [(first, prob), (second, prob), (wider, prob), (wider, no_noise), (first, prob)]
    target._record_buffers.cache_clear()
    warm = []
    for thetas, p in calls:
        try:
            warm.append(target.potential_energy_batch(thetas, p))
        except ValueError:
            warm.append(None)
    assert target._record_buffers.cache_info().hits >= 1
    # Compared only now, so a result that shared a buffer with a later
    # call would show.
    for (thetas, p), got in zip(calls, warm):
        target._record_buffers.cache_clear()
        if got is None:
            with pytest.raises(ValueError):
                target.potential_energy_batch(thetas, p)
            continue
        u, grad = target.potential_energy_batch(thetas, p)
        np.testing.assert_array_equal(got[0], u)
        np.testing.assert_array_equal(got[1], grad)


def test_five_story_batch_gradient_matches_finite_differences(five_story_problem):
    prob = five_story_problem
    w = target.sample_prior_ratios(prob.priors, np.random.default_rng(41), 4)
    thetas = target.map_params_to_state(w, prob.transform)
    _, grad = target.potential_energy_batch(thetas, prob)
    h = 1e-6
    fd = np.empty_like(thetas)
    for i in range(thetas.shape[1]):
        step = np.zeros(thetas.shape[1])
        step[i] = h
        up, _ = target.potential_energy_batch(thetas + step, prob)
        um, _ = target.potential_energy_batch(thetas - step, prob)
        fd[:, i] = (up - um) / (2 * h)
    for row in range(thetas.shape[0]):
        assert np.linalg.norm(grad[row] - fd[row]) <= 1e-5 * np.linalg.norm(fd[row])


def test_ten_story_batch_gradient_matches_finite_differences():
    rng = np.random.default_rng(2610)
    cfg = structural.DatasetConfig(n_stories=10, duration=1.0, dt=0.01, noise_ratio=1.0)
    dataset, _ = structural.generate_dataset(cfg, rng)
    prob = target.default_problem(cfg.building, dataset)
    w = target.sample_prior_ratios(prob.priors, np.random.default_rng(43), 2)
    thetas = target.map_params_to_state(w, prob.transform)
    _, grad = target.potential_energy_batch(thetas, prob)
    h = 1e-6
    fd = np.empty_like(thetas)
    for i in range(thetas.shape[1]):
        step = np.zeros(thetas.shape[1])
        step[i] = h
        up, _ = target.potential_energy_batch(thetas + step, prob)
        um, _ = target.potential_energy_batch(thetas - step, prob)
        fd[:, i] = (up - um) / (2 * h)
    for row in range(thetas.shape[0]):
        assert np.linalg.norm(grad[row] - fd[row]) <= 1e-5 * np.linalg.norm(fd[row])


def test_repeated_observed_dof_counts_every_channel():
    # generate_dataset folds the default (0, n - 1) of a 1-story building
    # into one channel; a dataset built directly may still observe dof 0
    # twice, and both channels must enter the energy and its gradient.
    rng = np.random.default_rng(7)
    cfg = structural.DatasetConfig(n_stories=1, duration=1.0, dt=0.01, noise_ratio=1.0)
    b = cfg.building
    dataset, _ = structural.generate_dataset(cfg, rng)
    assert dataset.observed_dofs == (0,)
    second = dataset.measurements[0] + rng.normal(0.0, 0.5, dataset.n_steps)
    twice = dataclasses.replace(dataset, observed_dofs=(0, 0),
                                measurements=np.vstack([dataset.measurements, second]))
    prob = target.default_problem(b, twice)
    thetas = np.array([[1.0, 1.0, 1.0], [0.7, 2.1, 0.8], [1.3, -0.2, 1.6]])
    u, grad = target.potential_energy_batch(thetas, prob)
    # Values the forward-sensitivity gradient gave for this batch.
    np.testing.assert_allclose(u, [248.3097602600693, 255.1530592605919, 325.43489725024415],
                               rtol=1e-10)
    np.testing.assert_allclose(grad, [
        [54.99354141757495, -1.1807401119184415, 71.9558927617305],
        [-154.5139740487795, 9.76592632358931, -23.645106457049028],
        [48.20123992639416, -15.08353490149934, 82.07738914711726],
    ], rtol=1e-10)
    h = 1e-6
    fd = np.empty_like(thetas)
    for i in range(thetas.shape[1]):
        step = np.zeros(thetas.shape[1])
        step[i] = h
        up, _ = target.potential_energy_batch(thetas + step, prob)
        um, _ = target.potential_energy_batch(thetas - step, prob)
        fd[:, i] = (up - um) / (2 * h)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
