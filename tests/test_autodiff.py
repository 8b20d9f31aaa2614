import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amsghmc import autodiff as ad


def composite(xs):
    """Four-input scalar built from the primitives that tape nodes and
    dual numbers share; smooth except on the leaky-ReLU kink."""
    a = ad.sigmoid(xs[0] * xs[1])
    b = ad.leaky_relu(xs[2] + 0.3) * ad.sigmoid(xs[3] * 2.0 + xs[0])
    return a + b + xs[1] * xs[1] * 0.5 + xs[3]


def fd_gradient(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(list(xp)) - f(list(xm))) / (2 * h)
    return g


def test_square_frozen():
    tape = ad.Tape()
    x = tape.leaf(3.0)
    y = x * x
    assert y.value == 9.0
    assert tape.gradient(y, [x]) == [6.0]


def test_sum_frozen():
    tape = ad.Tape()
    xs = [tape.leaf(v) for v in (1.0, 2.0, 4.0)]
    y = xs[0] + xs[1] + xs[2]
    assert y.value == 7.0
    assert tape.gradient(y, xs) == [1.0, 1.0, 1.0]


def test_log_sigmoid_frozen():
    y = ad.log(ad.sigmoid(ad.DualValue(0.0, 1.0)))
    assert y.primal == pytest.approx(-0.6931471805599453, abs=1e-15)
    assert y.tangent == pytest.approx(0.5, abs=1e-15)


def test_sigmoid_partial_frozen():
    assert ad.sigmoid(ad.DualValue(0.0, 1.0)).tangent == pytest.approx(0.25, abs=1e-15)


def test_gradient_matches_finite_differences():
    # The extra factor adds the constant-minus-node primitive.
    def f(xs):
        return composite(xs) * (1.0 - ad.sigmoid(xs[0]))

    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=4)
        tape = ad.Tape()
        leaves = [tape.leaf(float(v)) for v in x]
        g = tape.gradient(f(leaves), leaves)
        np.testing.assert_allclose(g, fd_gradient(f, x), rtol=1e-5, atol=1e-8)


def test_forward_partial_matches_reverse_gradient():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(-2.0, 2.0, size=4)
        tape = ad.Tape()
        leaves = [tape.leaf(float(v)) for v in x]
        g = tape.gradient(composite(leaves), leaves)
        for i in range(4):
            duals = [ad.DualValue(float(v), 1.0 if j == i else 0.0)
                     for j, v in enumerate(x)]
            assert abs(composite(duals).tangent - g[i]) <= 1e-12


def test_nested_partial_differentiates_wrt_parameter():
    # d/dw of dF/dx0 for F(x; w) = sigmoid(w x0) + w x1^2, with w a tape
    # leaf and x0 a dual number, against a finite difference over w of
    # the plain forward-mode partial and against the analytic value.
    x0, x1 = 0.7, -1.3
    w0 = 0.4

    def dF_dx0(w):
        return (ad.sigmoid(w * ad.DualValue(x0, 1.0)) + w * x1 * x1).tangent

    tape = ad.Tape()
    wv = tape.leaf(w0)
    (dw,) = tape.gradient(dF_dx0(wv), [wv])
    h = 1e-6
    fd = (dF_dx0(w0 + h) - dF_dx0(w0 - h)) / (2 * h)
    assert abs(dw - fd) <= 1e-4
    # Analytic check: d/dw [w s (1 - s)] with s = sigmoid(w x0).
    s = 1.0 / (1.0 + np.exp(-w0 * x0))
    analytic = s * (1 - s) + w0 * x0 * s * (1 - s) * (1 - 2 * s)
    assert abs(dw - analytic) <= 1e-10


def test_unused_leaf_has_zero_adjoint():
    tape = ad.Tape()
    x, unused = tape.leaf(2.0), tape.leaf(5.0)
    assert tape.gradient(x * x, [x, unused]) == [4.0, 0.0]


def test_batched_values_broadcast_and_reduce():
    # A scalar leaf multiplied into an array-valued node must receive the
    # summed adjoint over the batch axis; an array-valued output seeds
    # every element with one, so the gradient is that of its sum.
    tape = ad.Tape()
    s = tape.leaf(1.5)
    values = np.array([1.0, 2.0, 3.0])
    batch = tape.leaf(values)
    y = ad.sigmoid(s * batch)
    gs, gb = tape.gradient(y, [s, batch])
    sig = 1.0 / (1.0 + np.exp(-1.5 * values))
    slope = sig * (1.0 - sig)
    assert gs == pytest.approx(float(np.sum(slope * values)), rel=1e-12)
    np.testing.assert_allclose(gb, slope * 1.5, rtol=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
def test_linear_gradient_is_coefficients(coeffs):
    tape = ad.Tape()
    xs = [tape.leaf(1.0) for _ in coeffs]
    out = xs[0] * coeffs[0]
    for c, xi in zip(coeffs[1:], xs[1:]):
        out = out + xi * c
    np.testing.assert_allclose(tape.gradient(out, xs), coeffs, rtol=1e-12, atol=1e-12)


@settings(max_examples=50)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_product_rule(a, b):
    tape = ad.Tape()
    x, y = tape.leaf(a), tape.leaf(b)
    np.testing.assert_allclose(tape.gradient(x * y, [x, y]), [b, a], rtol=1e-15, atol=0)


@settings(max_examples=50)
@given(st.floats(-20, 20))
def test_sigmoid_derivative_identity(x):
    p = ad.sigmoid(ad.DualValue(x, 1.0)).tangent
    s = 1.0 / (1.0 + np.exp(-x))
    assert p == pytest.approx(s * (1 - s), abs=1e-12)


def leaky_relu_slopes(x):
    """d leaky_relu / dx at x by forward mode and from the tape."""
    tape = ad.Tape()
    v = tape.leaf(x)
    (g,) = tape.gradient(ad.leaky_relu(v), [v])
    return ad.leaky_relu(ad.DualValue(x, 1.0)).tangent, g


@settings(max_examples=30)
@given(st.floats(-5, -1e-3) | st.floats(1e-3, 5))
def test_leaky_relu_slopes(x):
    expected = 1.0 if x > 0 else 0.01
    assert leaky_relu_slopes(x) == (expected, expected)


def test_leaky_relu_at_zero_uses_negative_side_slope():
    assert leaky_relu_slopes(0.0) == (0.01, 0.01)
