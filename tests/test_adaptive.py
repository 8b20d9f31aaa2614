import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsghmc.adaptive import MomentEstimator


def test_first_step_prior_weighting():
    # With a prior seed v0* and decay b2 the first-step variance estimate
    # is b2^2 * v0* + (1 - b2^2) * (batch scatter), giving the prior a
    # large weight early on.  Hand values: b2 = 0.9, v0* = 4, batch (1, 3).
    est = MomentEstimator((), 0.5, 0.9, v0_star=4.0)
    est.update(np.array([1.0, 3.0]))
    assert est.mean == pytest.approx(2.0, abs=1e-15)
    assert est.variance == pytest.approx(3.43, abs=1e-12)
    assert est.variance == pytest.approx(0.9**2 * 4.0 + (1 - 0.9**2) * 1.0)
    # A second batch (4, 6) moves the mean, so the drift term
    # d2 = (m_hat - m_hat_prev)^2 enters both the carried variance and the
    # batch scatter: v2 = b2 (d2 + v1) + (1 - b2) (d2 + scatter) / 2, read
    # back as v2 + b2^2 (v2 - v0*).  Testing: m_hat = 3.5 / 0.75 = 4,
    # d2 = (4 - 2)^2 = 4, v1 = 3.7, v2 = 0.9 * 7.7 + 0.1 * (4 + 4) / 2
    # = 7.33, variance 7.33 + 0.81 * 3.33 = 10.0273.
    est.update(np.array([4.0, 6.0]))
    assert est.mean == pytest.approx(4.0, abs=1e-14)
    assert est.variance == pytest.approx(10.0273, abs=1e-12)
    # Training: m_hat = 1 * 1.5 = 1.5, scatter 0.25 + 2.25, v1 = 3.6 + 0.125
    # = 3.725, variance 3.725 + 0.9 * (3.725 - 4) = 3.4775; then m = 3,
    # m_hat = 3 * 1.25 = 3.75, d2 = 2.25^2 = 5.0625, scatter 0.0625 + 5.0625,
    # v2 = 0.9 * 8.7875 + 0.1 * 10.1875 / 2 = 8.418125, variance
    # 8.418125 + 0.81 * 4.418125 = 11.99680625.
    est = MomentEstimator((), 0.5, 0.9, mode="training", v0_star=4.0)
    est.update(np.array([1.0, 3.0]))
    assert est.mean == pytest.approx(1.5, abs=1e-15)
    assert est.variance == pytest.approx(3.4775, abs=1e-12)
    est.update(np.array([4.0, 6.0]))
    assert est.mean == pytest.approx(3.75, abs=1e-14)
    assert est.variance == pytest.approx(11.99680625, abs=1e-12)


def test_constant_stream_converges_to_zero_variance():
    est = MomentEstimator((), 0.99, 0.995)
    for _ in range(200):
        est.update(np.full(4, 5.5))
        assert est.mean == pytest.approx(5.5, abs=1e-12)
        assert est.variance == pytest.approx(0.0, abs=1e-15)


def test_constant_stream_prior_decay():
    # Zero-scatter input leaves only the prior term, which shrinks
    # geometrically as b2^(2t) while staying strictly positive.
    b2, v0 = 0.9, 2.0
    est = MomentEstimator((), 0.5, b2, v0_star=v0)
    prev = np.inf
    for t in range(1, 40):
        est.update(np.full(3, -1.0))
        expect = b2 ** (2 * t) * v0
        assert est.variance == pytest.approx(expect, rel=1e-10)
        assert 0.0 < est.variance < prev
        prev = est.variance


def test_training_mean_correction_damps_instead_of_amplifying():
    batch = np.array([2.0, 2.0])
    train = MomentEstimator((), 0.9, 0.99, mode="training")
    test = MomentEstimator((), 0.9, 0.99, mode="testing")
    train.update(batch)
    test.update(batch)
    # biased m1 = 0.1 * 2 = 0.2; training scales by (1 + 0.9), testing
    # divides by (1 - 0.9).
    assert train.mean == pytest.approx(0.38, abs=1e-15)
    assert test.mean == pytest.approx(2.0, abs=1e-15)


@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 6),
    st.integers(1, 8),
    st.floats(0.05, 0.99),
    st.floats(0.05, 0.99),
    st.floats(1e-3, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_prior_seeded_variance_stays_positive(seed, k, steps, b1, b2, v0):
    rng = np.random.default_rng(seed)
    est = MomentEstimator((2,), b1, b2, v0_star=v0)
    for _ in range(steps):
        est.update(rng.normal(0.0, 10.0, size=(k, 2)))
        assert np.all(est.variance > 0.0)


@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_plain_variance_never_negative(seed, k, steps):
    rng = np.random.default_rng(seed)
    est = MomentEstimator((), 0.9, 0.99)
    for _ in range(steps):
        est.update(rng.normal(size=k))
        assert est.variance >= 0.0


def test_initial_estimates_before_any_update():
    est = MomentEstimator((2,), 0.9, 0.99, v0_star=np.array([1.0, 4.0]))
    np.testing.assert_array_equal(est.mean, [0.0, 0.0])
    np.testing.assert_array_equal(est.variance, [1.0, 4.0])
    bare = MomentEstimator((), 0.9, 0.99)
    assert bare.mean == 0.0 and bare.variance == 0.0


def test_state_roundtrip_continues_identically():
    rng = np.random.default_rng(3)
    a = MomentEstimator((4,), 0.99, 0.995, mode="training", v0_star=2.0)
    for _ in range(5):
        a.update(rng.normal(size=(8, 4)))
    b = MomentEstimator.from_state(a.state())
    tail = rng.normal(size=(5, 8, 4))
    for batch in tail:
        a.update(batch)
        b.update(batch)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.variance, b.variance)


def test_rate_helpers_and_validation():
    with pytest.raises(ValueError):
        MomentEstimator((), 1.0, 0.9)
    with pytest.raises(ValueError):
        MomentEstimator((), 0.9, -0.1)
    with pytest.raises(ValueError):
        MomentEstimator((), 0.9, 0.99, mode="sampling")
    with pytest.raises(ValueError):
        MomentEstimator((), 0.9, 0.99, v0_star=-1.0)
    est = MomentEstimator((3,), 0.9, 0.99)
    with pytest.raises(ValueError):
        est.update(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        est.update(np.zeros((0, 3)))
