import io
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import logsumexp

from amsghmc import evaluation as ev
from amsghmc import training as tr


# --- density fit -------------------------------------------------------------


def test_fit_cop_gaussian_entropy():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(1000)
    kde = ev.fit_cop(samples)
    mean_log = kde.log_density(samples).mean()
    assert abs(mean_log - (-0.5 * (1.0 + np.log(2.0 * np.pi)))) < 0.05


def test_fit_cop_two_points_interior_maximum():
    kde = ev.fit_cop(np.array([-1.0, 1.0]))
    # LOO objective log phi(2; 0, 2c) has its maximum at c = 2 exactly
    assert abs(kde.c_op - 2.0) < 0.05
    assert abs(kde.cov[0, 0] - 4.0) < 0.1


def test_fit_cop_deterministic_on_duplicates():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((50, 2))
    doubled = np.vstack([samples, samples])
    a = ev.fit_cop(doubled)
    b = ev.fit_cop(doubled)
    assert a.c_op == b.c_op
    np.testing.assert_array_equal(a.cov, b.cov)
    assert np.isfinite(a.log_density(samples)).all()


def test_fit_cop_requires_two_samples():
    with pytest.raises(ValueError):
        ev.fit_cop(np.array([1.0]))


def test_fit_cop_caps_centers():
    rng = np.random.default_rng(1)
    kde = ev.fit_cop(rng.standard_normal(10_000), max_centers=1000)
    assert len(kde.centers) <= 1000


def test_kde_integrates_to_one_1d():
    rng = np.random.default_rng(5)
    kde = ev.fit_cop(rng.standard_normal(400))
    grid = np.linspace(-10.0, 10.0, 4001)
    dens = np.exp(kde.log_density(grid))
    assert abs(np.trapezoid(dens, grid) - 1.0) < 0.02


def test_kde_integrates_to_one_2d():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((500, 2)) @ np.array([[1.0, 0.4], [0.0, 0.8]])
    kde = ev.fit_cop(samples)
    axis = np.linspace(-9.0, 9.0, 181)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.exp(kde.log_density(pts)).reshape(gx.shape)
    step = axis[1] - axis[0]
    assert abs(dens.sum() * step * step - 1.0) < 0.02


def test_fit_cop_edge_maximum_stays_in_bracket():
    # Ten copies of each point: the leave-one-out objective keeps rising as
    # the bandwidth shrinks, so its maximum sits at the bracket's lower edge.
    rng = np.random.default_rng(4)
    samples = np.repeat(rng.standard_normal((20, 3)), 10, axis=0)
    a = ev.fit_cop(samples)
    b = ev.fit_cop(samples)
    assert np.exp(-7.0) <= a.c_op <= np.exp(7.0)
    assert a.c_op == b.c_op
    dens = a.log_density(samples)
    assert np.isfinite(dens).all()
    np.testing.assert_array_equal(dens, b.log_density(samples))


def _broadcast_log_density(kde, queries):
    """log q-bar by the plain broadcast difference tensor and scipy."""
    chol = np.linalg.cholesky(kde.base_cov)
    wq = np.linalg.solve(chol, np.atleast_2d(queries).T).T
    wc = np.linalg.solve(chol, kde.centers.T).T
    d2 = ((wq[:, None, :] - wc[None, :, :]) ** 2).sum(axis=2)
    n, d = kde.centers.shape
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    norm = -0.5 * (d * np.log(2.0 * np.pi * kde.c_op) + logdet) - np.log(n)
    return logsumexp(-d2 / (2.0 * kde.c_op), axis=1) + norm


def test_log_density_matches_broadcast_reference():
    rng = np.random.default_rng(10)
    mix = np.array([[1.0, 0.0, 0.0, 0.0], [0.6, 0.8, 0.0, 0.0],
                    [0.0, -0.5, 2.0, 0.0], [0.1, 0.2, 0.3, 0.05]])
    centers = 40.0 + rng.standard_normal((300, 4)) @ mix.T
    kde = ev.KdeModel(centers, np.cov(centers, rowvar=False), 0.3)
    chol = np.linalg.cholesky(kde.base_cov)
    unit = rng.standard_normal((20, 4))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    far = centers.mean(axis=0) + 1e3 * unit @ chol.T
    near = centers.mean(axis=0) + rng.standard_normal((150, 4)) @ chol.T
    # Along the same directions, queries whose nearest center's exponent is
    # -720 to -740: every kernel term is subnormal, so the plain row sum
    # has lost digits but not yet underflowed to 0.
    white = np.linalg.solve(chol, (centers - centers.mean(axis=0)).T).T
    depth = np.linspace(720.0, 740.0, len(unit))
    lo, hi = np.zeros(len(unit)), np.full(len(unit), 100.0)
    for _ in range(100):
        radius = 0.5 * (lo + hi)
        sq = ((radius[:, None, None] * unit[:, None] - white) ** 2).sum(axis=2)
        nearest = sq.min(axis=1) / (2.0 * kde.c_op)
        lo = np.where(nearest < depth, radius, lo)
        hi = np.where(nearest < depth, hi, radius)
    np.testing.assert_allclose(nearest, depth, rtol=1e-12)
    subnormal = centers.mean(axis=0) + (radius[:, None] * unit) @ chol.T
    queries = np.vstack([near, centers[:30], subnormal, far])
    got = kde.log_density(queries)
    want = _broadcast_log_density(kde, queries)
    assert np.isfinite(want).all() and want[-20:].max() < -1e5
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# --- golden values on a trace shaped like the evaluate workload ----------------

# Pinned with the golden-section search (tolerance 1e-3 in log c) before
# the bandwidth search changed.
AR1_C_OP = 0.28387891552630984
AR1_LOO_OBJECTIVE = -16.603368022986245
AR1_NAIVE_LOSS = -7.937679924497556


def _ar1_trace(seed=2604, k=32, s=130, d=11, phi=0.9):
    """(K*S, D) samples and their potentials: K scaled AR(1) chains."""
    rng = np.random.default_rng(seed)
    scale = np.exp(rng.uniform(-1.0, 1.0, d))
    x = np.empty((k, s, d))
    x[:, 0] = rng.standard_normal((k, d))
    noise = rng.standard_normal((k, s, d))
    for t in range(1, s):
        x[:, t] = phi * x[:, t - 1] + np.sqrt(1.0 - phi**2) * noise[:, t]
    return (x * scale).reshape(-1, d), 0.5 * (x**2).sum(axis=2).reshape(-1)


def _loo_objective(centers, base_cov, c, block=256):
    """Leave-one-out mean log density by the plain broadcast formula."""
    n, d = centers.shape
    chol = np.linalg.cholesky(base_cov)
    white = np.linalg.solve(chol, centers.T).T
    rows = []
    for start in range(0, n, block):
        part = white[start:start + block]
        sq = ((part[:, None, :] - white[None, :, :]) ** 2).sum(axis=2)
        sq[np.arange(len(part)), np.arange(start, start + len(part))] = np.inf
        rows.append(logsumexp(-sq / (2.0 * c), axis=1))
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    norm = -0.5 * (d * np.log(2.0 * np.pi * c) + logdet) - np.log(n - 1)
    return float(np.concatenate(rows).mean() + norm)


def test_fit_cop_golden_ar1_bandwidth():
    flat, _ = _ar1_trace()
    kde = ev.fit_cop(flat)
    assert len(kde.centers) == 2080
    pinned = _loo_objective(kde.centers, kde.base_cov, AR1_C_OP)
    assert pinned == pytest.approx(AR1_LOO_OBJECTIVE, rel=1e-12)
    assert abs(np.log(kde.c_op) - np.log(AR1_C_OP)) <= 1e-3
    assert _loo_objective(kde.centers, kde.base_cov, kde.c_op) >= pinned - 1e-12


def test_naive_loss_golden_ar1():
    flat, pots = _ar1_trace()
    kde = ev.fit_cop(flat)
    at_pinned = ev.KdeModel(kde.centers, kde.base_cov, AR1_C_OP)
    assert ev.naive_loss(flat, pots, at_pinned) == pytest.approx(AR1_NAIVE_LOSS,
                                                                 rel=1e-12)
    # The fitted factor may move within the old search tolerance, so the
    # loss must lie between its values at log c_pinned -/+ 1e-3.
    ends = [ev.naive_loss(flat, pots, ev.KdeModel(kde.centers, kde.base_cov,
                                                  AR1_C_OP * np.exp(step)))
            for step in (-1e-3, 1e-3)]
    assert min(ends) <= ev.naive_loss(flat, pots, kde) <= max(ends)


# --- the row-block bandwidth search against the full-matrix one ---------------


def _newton_step(log_c, grad, curv, lo, hi):
    """(next log c, lo, hi) of the safeguarded Newton search."""
    if grad > 0:
        lo = log_c
    else:
        hi = log_c
    nxt = log_c - grad / curv if curv < 0 else np.nan
    if not lo <= nxt <= hi:
        nxt = 0.5 * (lo + hi)
    return nxt, lo, hi


def _full_matrix_loo_max_log_c(white, lo, hi, tol):
    """The row-block bandwidth search's arithmetic on whole (n, n) arrays:
    every pass is one product of all augmented rows with the kernel
    matrix [w/c ; -|w|^2/2c ; -1/2c]."""
    n, d = white.shape
    ones = np.ones(n)

    def kernel(c):
        return np.vstack([white.T / c, -0.5 * (white * (white / c)).sum(axis=1),
                          np.full(n, -0.5 / c)])

    aug = np.column_stack([white, ones, (white * white).sum(axis=1)])
    z = aug @ kernel(1.0)
    np.fill_diagonal(z, -np.inf)
    near = -2.0 * z.max(axis=1)
    aug[:, -1] -= near
    log_c = min(max(-2.0 / (d + 4) * np.log(n), lo), hi)
    for _ in range(200):
        c = np.exp(log_c)
        z = aug @ kernel(c)
        np.fill_diagonal(z, 0.0)
        p = np.exp(z)
        np.fill_diagonal(p, 0.0)
        total = np.vecdot(p, ones)
        m1 = np.vecdot(p, z) / total
        m2 = np.vecdot(p * z, z) / total
        mean_e = near * (0.5 / c) - m1
        grad = mean_e.mean() - 0.5 * d
        curv = (m2 - m1 * m1 - mean_e).mean()
        nxt, lo, hi = _newton_step(log_c, grad, curv, lo, hi)
        if abs(nxt - log_c) < tol:
            return nxt
        log_c = nxt
    return log_c


def _subtraction_loo_max_log_c(white, lo, hi, tol):
    """The bandwidth search over the stored (n, n) squared distances, each
    row shifted by its nearest-neighbor distance by subtraction."""
    n, d = white.shape
    sq = ev.sq_distances(white, white)
    np.fill_diagonal(sq, np.inf)
    near = sq.min(axis=1)
    sq -= near[:, None]
    np.fill_diagonal(sq, 0.0)
    w = np.empty_like(sq)
    log_c = min(max(-2.0 / (d + 4) * np.log(n), lo), hi)
    for _ in range(200):
        inv = 0.5 * np.exp(-log_c)
        np.multiply(sq, -inv, out=w)
        np.exp(w, out=w)
        np.fill_diagonal(w, 0.0)
        total = w.sum(axis=1)
        w *= sq
        m1 = w.sum(axis=1) / total
        w *= sq
        m2 = w.sum(axis=1) / total
        mean_e = (m1 + near) * inv
        grad = mean_e.mean() - 0.5 * d
        curv = ((m2 - m1 * m1) * inv * inv - mean_e).mean()
        nxt, lo, hi = _newton_step(log_c, grad, curv, lo, hi)
        if abs(nxt - log_c) < tol:
            return nxt
        log_c = nxt
    return log_c


def _whitened(samples):
    centered = samples - samples.mean(axis=0)
    chol = np.linalg.cholesky(np.cov(samples, rowvar=False, ddof=1))
    return np.linalg.solve(chol, centered.T).T


def _block_cases():
    rng = np.random.default_rng(16)
    once = rng.standard_normal((300, 3)) * [1.0, 2.0, 0.5]
    return {
        "ar1_2080": _ar1_trace()[0][::2],
        "short_last_block_1000": rng.standard_normal((1000, 11)),
        "one_block_150": rng.standard_normal((150, 4)),
        "duplicated_rows": np.vstack([once, once]),
    }


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_loo_search_bit_identical_to_full_matrix(case, monkeypatch):
    samples = _block_cases()[case]
    white = _whitened(samples)
    assert (ev._loo_max_log_c(white, -7.0, 7.0, 1e-6)
            == _full_matrix_loo_max_log_c(white, -7.0, 7.0, 1e-6))
    blocked = ev.fit_cop(samples).c_op
    monkeypatch.setattr(ev, "_loo_max_log_c", _full_matrix_loo_max_log_c)
    assert blocked == ev.fit_cop(samples).c_op


@pytest.mark.parametrize("case", sorted(_block_cases()))
def test_loo_search_agrees_with_subtraction_form(case):
    white = _whitened(_block_cases()[case])
    assert abs(ev._loo_max_log_c(white, -7.0, 7.0, 1e-6)
               - _subtraction_loo_max_log_c(white, -7.0, 7.0, 1e-6)) <= 1e-12


# --- row blocks shared between threads ------------------------------------------


@pytest.fixture
def share_threads(monkeypatch):
    """The ids of the threads that ran a share of row blocks handed out
    between threads (a call with one share runs its blocks inline)."""
    seen = set()
    run_share = ev._run_share

    def spy(*args):
        seen.add(threading.get_ident())
        run_share(*args)

    monkeypatch.setattr(ev, "_run_share", spy)
    return seen


@pytest.mark.parametrize("case", ["ar1_2080", "short_last_block_1000"])
def test_pool_bit_identical_to_one_thread(case, monkeypatch, share_threads):
    samples = _block_cases()[case]
    runs = []
    for workers in (3, 1):
        monkeypatch.setattr(ev, "_WORKERS", workers)
        share_threads.clear()
        kde = ev.fit_cop(samples)
        runs.append((kde.c_op, kde.log_density(samples), len(share_threads)))
    (c_pool, dens_pool, threads_pool), (c_one, dens_one, threads_one) = runs
    assert threads_pool >= 2 and threads_one == 0
    assert c_pool == c_one
    np.testing.assert_array_equal(dens_pool, dens_one)


def test_shares_run_each_block_once_under_the_callers_error_state(monkeypatch):
    # More shares than cores, and threads switched as often as possible.
    monkeypatch.setattr(ev, "_WORKERS", 3)
    bounds, scratch = ev._row_blocks(4000, 4000)
    assert len(bounds) > 4 and len(scratch) == 3
    seen = []

    def record(start, stop, buf):
        time.sleep(0.0005)
        seen.append((start, threading.get_ident(), np.geterr()["under"]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with np.errstate(under="raise"):
            ev._in_blocks(record, bounds, scratch)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(start for start, _, _ in seen) == bounds[:-1]
    assert len({ident for _, ident, _ in seen}) >= 2
    assert {state for _, _, state in seen} == {"raise"}

    def fail_late(start, stop, buf):
        time.sleep(0.001)
        if stop == bounds[-1]:
            raise FloatingPointError("last block")

    with pytest.raises(FloatingPointError, match="last block"):
        ev._in_blocks(fail_late, bounds, scratch)


class _NoPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("a row-block pass was sent to the pool")


def test_one_block_fit_never_dispatches(monkeypatch):
    monkeypatch.setattr(ev, "_WORKERS", 2)
    monkeypatch.setattr(ev, "_pool", _NoPool())
    cfg = tr.TrainingConfig()
    # The largest set the shipped training segment holds, 160 x 11: its
    # K chains at T_T + 1 recorded rows, D = 11 for the shipped 5-story
    # problem (5 stiffness, 5 damping, 1 noise).  One block, run inline.
    n = (cfg.T_T + 1) * cfg.K
    assert len(ev._row_blocks(n, n)[0]) == 2
    samples = np.random.default_rng(17).standard_normal((n, 11))
    kde = ev.fit_cop(samples)
    assert np.isfinite(kde.log_density(samples[-cfg.K:])).all()
    with pytest.raises(AssertionError, match="sent to the pool"):
        ev.fit_cop(_block_cases()["short_last_block_1000"])


@pytest.mark.parametrize("d", [1, 3, 11])
def test_whitening_matches_scipy_solve_triangular(d):
    from scipy.linalg import cholesky, solve_triangular

    rng = np.random.default_rng(d)
    mix = rng.standard_normal((d, d)) * np.exp(rng.uniform(-3.0, 3.0, d))
    centers = rng.standard_normal((400, d)) @ mix + 5.0
    kde = ev.KdeModel(centers, np.cov(centers, rowvar=False), 0.3)
    chol = cholesky(kde.base_cov, lower=True)
    np.testing.assert_allclose(kde._chol, chol, rtol=1e-13,
                               atol=1e-13 * np.abs(chol).max())
    queries = rng.standard_normal((257, d)) @ mix + 5.0
    want = solve_triangular(chol, (queries - kde._mean).T, lower=True).T
    got = kde._whiten(queries)
    np.testing.assert_allclose(got, want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
    # Each row is solved on its own, so a row's bits do not depend on the
    # rows that share its call.
    for i in (0, 100, 256):
        np.testing.assert_array_equal(kde._whiten(queries[i:i + 1]), got[i:i + 1])


def test_log_density_rows_do_not_depend_on_their_chunk(monkeypatch):
    rng = np.random.default_rng(11)
    kde = ev.KdeModel(rng.standard_normal((2000, 3)), np.eye(3), 0.2)
    # One query more than a multiple of the chunk rows: cut into chunks of
    # exactly that many rows, its last chunk would hold a single query.
    rows = ev._BLOCK_ELEMENTS // 2000
    queries = rng.standard_normal((5 * rows + 1, 3))
    got = kde.log_density(queries)
    np.testing.assert_allclose(got, _broadcast_log_density(kde, queries),
                               rtol=1e-12, atol=0.0)
    doubled = kde.log_density(np.vstack([queries, queries]))
    np.testing.assert_array_equal(doubled[:len(queries)], got)
    np.testing.assert_array_equal(doubled[len(queries):], got)
    monkeypatch.setattr(ev, "_WORKERS", 1)
    np.testing.assert_array_equal(kde.log_density(queries), got)
    one = kde.log_density(queries[7:8])
    assert one.shape == (1,)
    np.testing.assert_array_equal(one, got[7:8])
    assert kde.log_density(np.empty((0, 3))).shape == (0,)


def _fit_in_child(samples, queue):
    queue.put(ev.fit_cop(samples).c_op)


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_forked_child_fits_after_the_parent_used_the_pool(monkeypatch):
    monkeypatch.setattr(ev, "_WORKERS", max(2, ev._WORKERS))
    samples = _block_cases()["short_last_block_1000"]
    want = ev.fit_cop(samples).c_op
    assert ev._pool is not None
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_fit_in_child, args=(samples, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == want
    assert child.exitcode == 0


def test_fit_cop_peak_memory_no_square_matrix(monkeypatch):
    # Two threads' row blocks at the gated workload's 2080 centers and at
    # the 4000-center cap: well under a tenth of one (n, n) array.
    monkeypatch.setattr(ev, "_WORKERS", 2)
    for n in (2080, 4000):
        samples = np.random.default_rng(5).standard_normal((n, 11))
        tracemalloc.start()
        try:
            ev.fit_cop(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8


def test_regularize_covariance_warns_on_singular():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.warns(UserWarning):
        fixed = ev.regularize_covariance(cov)
    assert np.linalg.cond(fixed) < 1e12
    good = np.eye(3)
    np.testing.assert_array_equal(ev.regularize_covariance(good), good)


def test_regularize_covariance_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        cov = np.eye(2)
        cov[0, 1] = bad
        with pytest.raises(ValueError, match="non-finite sample covariance"):
            ev.regularize_covariance(cov)
    # Samples this large overflow the covariance, which then holds inf.
    samples = np.random.default_rng(4).standard_normal((50, 3)) * 1e160
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="non-finite sample covariance"):
        ev.fit_cop(samples)


# --- naive loss ---------------------------------------------------------------


def test_naive_loss_gaussian_identity():
    rng = np.random.default_rng(8)
    samples = rng.standard_normal(2000)
    u = 0.5 * samples**2
    kde = ev.fit_cop(samples)
    value = ev.naive_loss(samples, u, kde)
    assert abs(value - (-0.5 * np.log(2.0 * np.pi))) < 0.08


def test_naive_loss_permutation_invariant():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((300, 2))
    u = (samples**2).sum(axis=1)
    kde = ev.fit_cop(samples)
    base = ev.naive_loss(samples, u, kde)
    perm = rng.permutation(300)
    assert abs(ev.naive_loss(samples[perm], u[perm], kde) - base) < 1e-12


def test_naive_loss_length_mismatch():
    kde = ev.fit_cop(np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ev.naive_loss(np.array([0.0, 1.0]), np.array([1.0]), kde)


# --- effective sample size -------------------------------------------------------


def test_ess_iid():
    rng = np.random.default_rng(12)
    t = 10_000
    res = ev._chain_ess(rng.standard_normal((1, t, 2)))
    assert np.all(res.ess >= 0.8 * t) and np.all(res.ess <= 1.2 * t)
    assert not res.degenerate.any()


def test_ess_ar1():
    rng = np.random.default_rng(13)
    t, rho = 100_000, 0.9
    x = np.empty(t)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(t) * np.sqrt(1.0 - rho**2)
    for s in range(1, t):
        x[s] = rho * x[s - 1] + noise[s]
    ess, _ = ev.aggregate_ess(x[None, :, None])
    expected = t * (1.0 - rho) / (1.0 + rho)
    assert abs(ess - expected) < 0.3 * expected


def test_ess_constant_dimension_flagged():
    chain = np.column_stack([np.full(50, 2.5),
                             np.random.default_rng(0).standard_normal(50)])
    res = ev._chain_ess(chain[None])
    assert res.degenerate[0, 0] and not res.degenerate[0, 1]
    assert res.ess[0, 0] == 50


def test_ess_never_exceeds_t():
    rng = np.random.default_rng(14)
    anti = np.empty(2000)
    anti[::2] = rng.standard_normal(1000)
    anti[1::2] = -anti[::2]
    ess, _ = ev.aggregate_ess(anti[None, :, None])
    assert ess <= 2000


def test_ess_thinning_raises_per_sample_fraction():
    rng = np.random.default_rng(15)
    t, rho = 100_000, 0.9
    x = np.empty(t)
    x[0] = 0.0
    noise = rng.standard_normal(t) * np.sqrt(1.0 - rho**2)
    for s in range(1, t):
        x[s] = rho * x[s - 1] + noise[s]
    full = ev.aggregate_ess(x[None, :, None])[0] / t
    thin = x[::19]
    thinned = ev.aggregate_ess(thin[None, :, None])[0] / len(thin)
    assert thinned > full


def test_ess_short_chain_rejected():
    with pytest.raises(ValueError):
        ev.aggregate_ess(np.zeros((1, 5, 1)))


def _loop_ess(chain):
    """ESS per dimension by the per-dimension, per-lag loop it once ran as."""
    t, d = chain.shape
    centered = chain - chain.mean(axis=0)
    degenerate = (centered**2).sum(axis=0) == 0.0
    max_lag = min(1000, t // 3 - 1)
    nfft = next_fast_len(2 * t)
    spec = rfft(centered, nfft, axis=0)
    acov = irfft(spec * spec.conj(), nfft, axis=0)[: max_lag + 1].real
    ess = np.full(d, float(t))
    for dim in range(d):
        if degenerate[dim]:
            continue
        rho0 = acov[0, dim] / t
        acc = 0.0
        prev = 1.0
        for s in range(1, max_lag + 1):
            rho = acov[s, dim] / (t - s) / rho0
            if s % 2 == 0 and prev + rho < 0:
                break
            acc += (1.0 - s / t) * rho
            prev = rho
        denom = 1.0 + 2.0 * acc
        ess[dim] = t if denom <= 0 else min(t / denom, float(t))
    return ess


def _mixed_chains(rng, k, t, d):
    """(k, t, d) AR(1) chains with coefficients from -0.95 to 0.99 and a
    constant dimension in every third chain."""
    phi = rng.uniform(-0.95, 0.99, (k, 1, d))
    x = np.empty((k, t, d))
    x[:, 0] = rng.standard_normal((k, d))
    for s in range(1, t):
        x[:, s] = phi[:, 0] * x[:, s - 1] + rng.standard_normal((k, d))
    x[::3, :, 1] = 2.5
    return x * np.exp(rng.uniform(-2.0, 2.0, d))


def test_fast_len_equals_scipy_next_fast_len():
    lengths = range(1, 30001)
    assert [ev._fast_len(n) for n in lengths] == [next_fast_len(n) for n in lengths]


@pytest.mark.parametrize("k, t, d", [(200, 60, 4), (32, 130, 11), (7, 3500, 3),
                                      (5, 10, 2)])
def test_ess_bit_identical_to_loop(k, t, d):
    samples = _mixed_chains(np.random.default_rng(k * t + d), k, t, d)
    want = np.stack([_loop_ess(c) for c in samples])
    assert (want < t).any() and (want == t).any()
    agg, per_chain = ev.aggregate_ess(samples)
    np.testing.assert_array_equal(per_chain, want)
    assert agg == want.min(axis=1).mean()
    for chain, row in zip(samples[:10], want):
        res = ev._chain_ess(chain[None])
        np.testing.assert_array_equal(res.ess[0], row)
        np.testing.assert_array_equal(res.degenerate[0], chain.std(axis=0) == 0.0)


def test_aggregate_ess_mean_of_min():
    rng = np.random.default_rng(16)
    samples = rng.standard_normal((3, 500, 2))
    agg, per_chain = ev.aggregate_ess(samples)
    assert per_chain.shape == (3, 2)
    assert agg == pytest.approx(per_chain.min(axis=1).mean())
    low = per_chain.min()
    assert low <= agg + 1e-12


# --- principal directions ----------------------------------------------------------


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(20)
    comps, proj = ev.pca_project(rng.standard_normal((10_000, 3)))
    spreads = proj.var(axis=0, ddof=1)
    assert spreads.max() / spreads.min() < 1.1


def test_pca_line_data_concentrates():
    rng = np.random.default_rng(21)
    u = rng.standard_normal(500)
    samples = np.column_stack([u, 2.0 * u, -u]) + 1e-4 * rng.standard_normal((500, 3))
    comps, proj = ev.pca_project(samples)
    total = proj.var(axis=0).sum()
    assert proj.var(axis=0)[0] / total >= 0.99


def test_pca_projections_uncorrelated_and_signed():
    rng = np.random.default_rng(22)
    samples = rng.standard_normal((5000, 4)) @ rng.standard_normal((4, 4))
    comps, proj = ev.pca_project(samples)
    corr = np.corrcoef(proj, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.abs(off).max() <= 0.02
    for row in comps:
        assert row[np.argmax(np.abs(row))] > 0


def test_pca_needs_enough_samples():
    with pytest.raises(ValueError):
        ev.pca_project(np.zeros((3, 3)))


# --- conditional-mean surfaces --------------------------------------------------------


def test_surface_flat_for_independent_components():
    rng = np.random.default_rng(30)
    proj = rng.standard_normal((30_000, 3))
    gx = np.linspace(-1.5, 1.5, 15)
    gy = np.linspace(-1.5, 1.5, 15)
    _, _, z = ev.conditional_mean_surface(proj, 0, 1, 2, grid=(gx, gy))
    assert np.isfinite(z).all()
    assert np.abs(z).max() < 0.25


def test_surface_recovers_paraboloid():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(20_000)
    y = rng.standard_normal(20_000)
    z = x**2 + 0.3 * rng.standard_normal(20_000)
    proj = np.column_stack([x, y, z])
    gx = np.linspace(-1.5, 1.5, 15)
    gy = np.linspace(-1.5, 1.5, 15)
    _, _, surf = ev.conditional_mean_surface(proj, 0, 1, 2, grid=(gx, gy))
    truth = np.broadcast_to((gx**2)[:, None], surf.shape)
    ok = np.isfinite(surf)
    resid = surf[ok] - truth[ok]
    r2 = 1.0 - (resid**2).sum() / ((truth[ok] - truth[ok].mean()) ** 2).sum()
    assert r2 >= 0.8


def test_surface_zero_iterations_equals_raw_means():
    rng = np.random.default_rng(32)
    proj = rng.standard_normal((2000, 3))
    gx = np.array([0.0])
    gy = np.array([0.0])
    _, _, z = ev.conditional_mean_surface(proj, 0, 1, 2, grid=(gx, gy),
                                          iterations=0)
    sx, sy = proj[:, 0].std(), proj[:, 1].std()
    mask = (proj[:, 0] / sx) ** 2 + (proj[:, 1] / sy) ** 2 <= 0.09
    assert z[0, 0] == pytest.approx(proj[mask, 2].mean(), rel=1e-12)


def _loop_surface_means(projected, gx, gy, threshold=0.3):
    """Raw node means of the (0, 1) -> 2 surface by one disk test per node
    over every sample."""
    x, y, z = projected[:, 0], projected[:, 1], projected[:, 2]
    sx = x.std() or 1.0
    sy = y.std() or 1.0
    values = np.full((len(gx), len(gy)), np.nan)
    xn = x / sx
    yn = y / sy
    for a, gxa in enumerate(gx / sx):
        d2 = (xn - gxa) ** 2 + (yn[None, :] - (gy / sy)[:, None]) ** 2
        for b in range(len(gy)):
            mask = d2[b] <= threshold**2
            if mask.any():
                values[a, b] = z[mask].mean()
    return values


def _ulp_sweep(center, steps=12):
    """center and the 2 * steps floats nearest it."""
    lower = [center]
    upper = [center]
    for _ in range(steps):
        lower.append(np.nextafter(lower[-1], -np.inf))
        upper.append(np.nextafter(upper[-1], np.inf))
    return np.array(lower[::-1] + upper[1:])


def test_surface_matches_per_node_loop():
    rng = np.random.default_rng(34)
    proj = rng.standard_normal((3000, 3)) * [2.0, 0.5, 3.0]
    proj[:, 2] += proj[:, 0] * proj[:, 1]
    # Nodes a few ulps either side of exactly threshold from sample 17,
    # along x and along y, and a column whose window holds no sample.  The
    # sample sits near 0, where its ulp is finer than the node's: there
    # the disk test keeps samples that lie past node + threshold as the
    # window's bound rounds it.
    proj[17, :2] = [0.05, -0.02]
    sx, sy = proj[:, 0].std(), proj[:, 1].std()
    xs, ys = proj[17, 0], proj[17, 1]
    cases = [(None, None),
             (_ulp_sweep((xs / sx - 0.3) * sx), np.array([ys])),
             (_ulp_sweep((xs / sx + 0.3) * sx), np.array([ys])),
             (np.array([xs, proj[:, 0].max() + 10.0 * sx]),
              _ulp_sweep((ys / sy + 0.3) * sy))]
    for gx, gy in cases:
        grid = 25 if gx is None else (gx, gy)
        gx, gy, got = ev.conditional_mean_surface(proj, 0, 1, 2, grid=grid,
                                                  iterations=0)
        want = _loop_surface_means(proj, gx, gy)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert np.isfinite(want).any()
        np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)],
                                   rtol=0.0, atol=1e-12 * np.abs(proj[:, 2]).max())
    assert np.isnan(got[1]).all()


def test_surface_empty_neighborhood_missing():
    rng = np.random.default_rng(33)
    proj = rng.standard_normal((200, 3))
    gx = np.array([0.0, 50.0])
    gy = np.array([0.0])
    _, _, z = ev.conditional_mean_surface(proj, 0, 1, 2, grid=(gx, gy))
    assert np.isfinite(z[0, 0])
    assert np.isnan(z[1, 0])


def test_surface_csv_roundtrip(tmp_path):
    gx = np.array([0.0, 1.0])
    gy = np.array([2.0, 3.0])
    vals = np.array([[1.0, np.nan], [3.0, 4.0]])
    path = tmp_path / "surface.csv"
    ev.save_surface(path, gx, gy, vals)
    table = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert table.shape == (4, 3)
    assert np.isnan(table[1, 2])

    proj = np.random.default_rng(0).standard_normal((10, 2))
    comps = np.eye(2)
    ppath = tmp_path / "proj.csv"
    ev.save_projection(ppath, proj, comps)
    back = np.genfromtxt(ppath, delimiter=",", skip_header=3)
    np.testing.assert_allclose(back, proj, rtol=1e-9)


def test_plot_files_have_the_bytes_of_savetxt(tmp_path):
    vals = np.array([[1.0, np.nan], [-0.0, 5e-324]])
    ev.save_surface(tmp_path / "surface.csv", np.array([0.0, 1.0]),
                    np.array([-1.5e300, 3.0]), vals)
    table = np.column_stack([[0.0, 0.0, 1.0, 1.0],
                             [-1.5e300, 3.0, -1.5e300, 3.0], vals.ravel()])
    np.savetxt(tmp_path / "ref_surface.csv", table, delimiter=",",
               header="x,y,value", comments="", fmt="%.10e")
    assert ((tmp_path / "surface.csv").read_bytes()
            == (tmp_path / "ref_surface.csv").read_bytes())

    proj = np.random.default_rng(1).standard_normal((5, 3))
    proj[0] = [-0.0, 1.7976931348623157e308, -2.5e-308]
    comps = np.random.default_rng(2).standard_normal((3, 3))
    ev.save_projection(tmp_path / "projection.csv", proj, comps)
    header = "\n".join(
        [f"component_{i + 1}: " + " ".join("%.10e" % v for v in row)
         for i, row in enumerate(comps)] + ["pc_1,pc_2,pc_3"])
    np.savetxt(tmp_path / "ref_projection.csv", proj, delimiter=",",
               header=header, fmt="%.10e")
    assert ((tmp_path / "projection.csv").read_bytes()
            == (tmp_path / "ref_projection.csv").read_bytes())


def _savetxt_bytes(table, header):
    ref = io.BytesIO()
    np.savetxt(ref, table, fmt="%.10e", delimiter=",", header=header,
               comments="")
    return ref.getvalue()


def _write_table_bytes(path, table, header="a,b"):
    ev._write_table(path, header, table)
    return path.read_bytes()


# Any bit pattern; magnitudes in the kernel's range [1e-12, 1e10) of either
# sign; dyadic values with few significant bits, which land on exact
# decimal ties at the 11th digit; and powers of ten with their neighbours.
_ANY_BITS = st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
_IN_RANGE = (st.floats(1e-12, 1e10, exclude_max=True)
             | st.floats(-1e10, -1e-12, exclude_min=True))
_DYADIC = st.builds(lambda m, e: float(np.ldexp(float(m), e)),
                    st.integers(-2**24, 2**24), st.integers(-45, 12))
_DECADE = st.builds(lambda i, step, sign: sign * float(
    np.nextafter(10.0**i, np.inf if step > 0 else 0.0) if step else 10.0**i),
    st.integers(-13, 11), st.integers(-1, 1), st.sampled_from([-1.0, 1.0]))
_SHAPES = st.tuples(st.integers(0, 30), st.integers(0, 6))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    arrays(np.float64, _SHAPES, elements=_IN_RANGE | _DYADIC | _DECADE),
    arrays(np.float64, _SHAPES, elements=_IN_RANGE),
    arrays(np.float64, _SHAPES,
           elements=_ANY_BITS | st.floats() | _DYADIC | _DECADE)))
def test_write_table_has_the_bytes_of_savetxt(tmp_path, table):
    assert (_write_table_bytes(tmp_path / "t.csv", table)
            == _savetxt_bytes(table, "a,b"))


# Near ties: |x| 10^k rounds to exactly n + 0.5, but the exact product lies
# above (the first three) or below (the last three), so only the product's
# exact error rounds them as "%" does.
NEAR_TIES = [9.06146888925e-11, 0.862111136535, 839849.9439450001,
             0.017982392700499998, 9.95350704925, 561891.380565]
FIXED_VALUES = [2.0**-16, 9.99999999995, -0.0, 5e-324, 1.7976931348623157e308,
                np.nan, np.inf, -np.inf] + NEAR_TIES + [
    float(v) for i in range(-12, 11)
    for v in (np.nextafter(10.0**i, 0.0), 10.0**i, np.nextafter(10.0**i, np.inf))]


def test_write_table_fixed_values(tmp_path):
    # 2^-16 = 1.52587890625e-05 exactly: a decimal tie at the 11th digit.
    assert ev._format_e10(np.array([[2.0**-16, -2.0**-16]])) == (
        b"1.5258789062e-05,-1.5258789062e-05\n")
    for value in FIXED_VALUES:
        table = np.array([[value, -value]])
        assert (_write_table_bytes(tmp_path / "t.csv", table)
                == _savetxt_bytes(table, "a,b")), value
        if 1e-12 <= abs(value) < 1e10:
            # Never sent to the "%" path.
            assert ev._format_e10(table) is not None, value


def test_write_table_mixes_blocks_and_ends_short(tmp_path):
    rows = 2 * ev._WRITE_ROWS + 37
    rng = np.random.default_rng(3)
    table = (rng.uniform(1.0, 10.0, (rows, 4)) * rng.choice([-1.0, 1.0], (rows, 4))
             * 10.0 ** (np.arange(rows * 4).reshape(rows, 4) % 22 - 12))
    table[ev._WRITE_ROWS + 5, 2] = np.nan  # only the middle block falls back
    assert ev._format_e10(table[:ev._WRITE_ROWS]) is not None
    assert ev._format_e10(table[2 * ev._WRITE_ROWS:]) is not None
    assert (_write_table_bytes(tmp_path / "t.csv", table, "x")
            == _savetxt_bytes(table, "x"))
