"""Sample-quality diagnostics.

Kernel density fit with bandwidth-factor selection (a safeguarded Newton
search on log c over BLAS-form squared distances, each iteration one pass
over them in cache-sized row blocks), the order-independent
ELBO-style loss, effective sample size with the truncated autocorrelation
sum, principal directions, and conditional-mean surfaces for visualizing
nonlinear parameter couplings.  Everything here is read-only over sample
arrays.

The kernel density's three n^2-sized passes (building the squared
distances, each Newton iteration over them, and ``KdeModel.log_density``)
run their row blocks on every core this process may use: the calling
thread and a small thread pool work through the blocks together, since
numpy releases the GIL inside the large ufunc, reduction and BLAS calls
that make up a block.  Each block writes only its own rows and keeps
every row's reduction order, so the results do not depend on how many
threads ran them.  Effective sample size runs over all chains at once.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import cholesky, solve_triangular


def _as_matrix(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ValueError("samples must be a (n, D) matrix")
    return samples


def regularize_covariance(cov: np.ndarray) -> np.ndarray:
    """Ridge the covariance when it is near-singular (warns)."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    tr = float(np.trace(cov))
    cond = np.linalg.cond(cov)
    if np.isfinite(cond) and cond <= 1e12:
        return cov
    warnings.warn("near-singular sample covariance, ridge applied")
    ridge = 1e-10 * (tr / d) if tr > 0 else 1e-10
    return cov + ridge * np.eye(d)


# --- squared distances -----------------------------------------------------------


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of a and b.

    Uses the BLAS form |a|^2 + |b|^2 - 2 a b^T, clamped at 0, so no
    (n, m, D) difference tensor is formed.  The cancellation error grows
    with the norms, so callers center their points first.  b^T is copied
    to a contiguous array because numpy sends a @ a.T to a symmetric
    rank-k update, which is about twice as slow here as the plain product.
    """
    return _sq_rows(np.empty((len(a), len(b))), a, np.ascontiguousarray(b.T),
                    (a * a).sum(axis=1), (b * b).sum(axis=1))


def _sq_rows(out, a, b_t, a_norms, b_norms):
    """sq_distances of the rows ``a`` into ``out``, given the contiguous
    b^T and both row norms."""
    np.matmul(a, b_t, out=out)
    out *= -2.0
    out += a_norms[:, None]
    out += b_norms
    return np.maximum(out, 0.0, out=out)


# --- row blocks on every core ---------------------------------------------------

# Elements in one row block of the n^2 passes' scratch: 512 KB of float64,
# so a block stays in a core's cache through its passes, and its numpy
# calls run long enough that the GIL is held for a small part of a block.
_BLOCK_ELEMENTS = 65536
# Threads that share the row blocks, counting the calling thread: one per
# core this process may run on (os.cpu_count where affinity is unknown).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None


def _forget_pool() -> None:
    # A forked child inherits the executor but none of its threads.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _row_blocks(n: int, width: int):
    """(bounds, scratch) for a pass over n rows of ``width`` elements:
    the bounds of about n * width / _BLOCK_ELEMENTS near-equal row blocks,
    and one (block rows, width) buffer for each thread that will run them.
    Callers allocate the scratch, so the pool's threads allocate nothing
    larger than a row vector.

    A block holds at least two rows whenever n does: numpy sends a one-row
    product to gemv instead of gemm, whose sums round differently.
    """
    count = max(1, -(-n // max(4, _BLOCK_ELEMENTS // width)))
    bounds = [b * n // count for b in range(count + 1)]
    return bounds, np.empty((min(count, _WORKERS), -(-n // count), width))


def _run_share(task, bounds, claim, scratch, err) -> None:
    with np.errstate(**err):
        while (block := claim()) is not None:
            task(bounds[block], bounds[block + 1], scratch)


def _in_blocks(task, bounds: list, scratch) -> None:
    """``task(start, stop, scratch[i])`` for every block of ``bounds``.

    Share i takes blocks one at a time until none is left, with
    ``scratch[i]`` as its buffer; the calling thread runs share 0 and the
    pool the others, under the caller's numpy error state.  With one share
    no thread is started.
    """
    global _pool
    if len(scratch) == 1:
        for start, stop in zip(bounds, bounds[1:]):
            task(start, stop, scratch[0])
        return
    blocks, lock = iter(range(len(bounds) - 1)), threading.Lock()

    def claim():
        with lock:
            return next(blocks, None)

    err = np.geterr()
    if _pool is None:
        _pool = ThreadPoolExecutor(_WORKERS)
    futures = [_pool.submit(_run_share, task, bounds, claim, buf, err)
               for buf in scratch[1:]]
    try:
        _run_share(task, bounds, claim, scratch[0], err)
    finally:
        wait(futures)
    for future in futures:
        future.result()


# --- kernel density -----------------------------------------------------------


@dataclass
class KdeModel:
    """Equal-weight Gaussian mixture with shared covariance c_op * base_cov."""

    centers: np.ndarray
    base_cov: np.ndarray
    c_op: float
    _mean: np.ndarray = field(init=False, repr=False)
    _chol: np.ndarray = field(init=False, repr=False)
    _scaled: np.ndarray = field(init=False, repr=False)
    _offset: np.ndarray = field(init=False, repr=False)
    _log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        self.centers = _as_matrix(self.centers)
        self.base_cov = np.atleast_2d(np.asarray(self.base_cov, dtype=float))
        n, d = self.centers.shape
        self._mean = self.centers.mean(axis=0)
        self._chol = cholesky(self.base_cov, lower=True)
        white = self._whiten(self.centers)
        # -|q - w|^2 / 2c = q.(w/c) - |w|^2/2c - |q|^2/2c; the last term is
        # the same along a query's row, so it is added after the reduction.
        self._scaled = white / self.c_op
        self._offset = -0.5 * (white * self._scaled).sum(axis=1)
        logdet = 2.0 * np.log(np.diag(self._chol)).sum()
        self._log_norm = (-0.5 * (d * np.log(2.0 * np.pi * self.c_op) + logdet)
                          - np.log(n))

    @property
    def cov(self) -> np.ndarray:
        return self.c_op * self.base_cov

    def _whiten(self, points: np.ndarray) -> np.ndarray:
        return solve_triangular(self._chol, (points - self._mean).T,
                                lower=True).T

    def log_density(self, queries) -> np.ndarray:
        """log q-bar at each query point."""
        wq = self._whiten(_as_matrix(queries))
        out = np.empty(len(wq))
        scaled_t, offset = self._scaled.T, self._offset
        bounds, scratch = _row_blocks(len(wq), len(offset))

        def chunk(start, stop, z):
            z = z[:stop - start]
            np.matmul(wq[start:stop], scaled_t, out=z)
            z += offset
            top = z.max(axis=1, out=out[start:stop])
            z -= top[:, None]
            np.exp(z, out=z)
            top += np.log(z.sum(axis=1))

        _in_blocks(chunk, bounds, scratch)
        out -= 0.5 * (wq * wq).sum(axis=1) / self.c_op
        return out + self._log_norm


def _loo_max_log_c(white: np.ndarray, lo: float, hi: float,
                   tol: float) -> float:
    """log c in [lo, hi] maximizing the leave-one-out objective

        f(l) = mean_i log sum_{j != i} exp(-e_ij) - (D/2) l + const,
        e_ij = |w_i - w_j|^2 / 2c,  c = exp(l).

    With p the softmax weights of row i, f' = mean_i E_p[e] - D/2 and
    f'' = mean_i (Var_p[e] - E_p[e]), so both come from the one exp pass
    over the rows.  A Newton step taken where f'' >= 0 or leaving the
    bracket becomes a bisection on the sign of f'; the search stops when
    a step is shorter than tol.

    The (n, n) squared distances are built once; each iteration then runs
    over them in row blocks of about ``_BLOCK_ELEMENTS`` elements, which
    stay in cache from the exp to the last of the three row sums.  A row
    sum reduces the same contiguous row as a whole-matrix pass would, so
    the result depends neither on the block size nor on the threads.
    """
    n, d = white.shape
    sq = np.empty((n, n))
    near, total, s1, s2 = np.empty((4, n))
    white_t, norms = np.ascontiguousarray(white.T), (white * white).sum(axis=1)
    bounds, scratch = _row_blocks(n, n)

    def distances(start, stop, _):
        # Each row is shifted by its nearest-neighbor distance, so the
        # largest exp term is 1; in the shifted sq,
        # e_ij = (sq_ij + near_i) / 2c.
        part = _sq_rows(sq[start:stop], white[start:stop], white_t,
                        norms[start:stop], norms)
        np.fill_diagonal(part[:, start:], np.inf)
        part.min(axis=1, out=near[start:stop])
        part -= near[start:stop, None]
        np.fill_diagonal(part[:, start:], 0.0)

    def moments(start, stop, buf):
        part, w = sq[start:stop], buf[:stop - start]
        np.multiply(part, -inv, out=w)
        np.exp(w, out=w)
        np.fill_diagonal(w[:, start:], 0.0)
        w.sum(axis=1, out=total[start:stop])
        w *= part
        w.sum(axis=1, out=s1[start:stop])
        w *= part
        w.sum(axis=1, out=s2[start:stop])

    _in_blocks(distances, bounds, scratch)
    # Scott's rule factor for whitened data as the starting point.
    log_c = min(max(-2.0 / (d + 4) * np.log(n), lo), hi)
    for _ in range(200):
        inv = 0.5 * np.exp(-log_c)
        _in_blocks(moments, bounds, scratch)
        m1 = s1 / total
        m2 = s2 / total
        mean_e = (m1 + near) * inv
        grad = mean_e.mean() - 0.5 * d
        curv = ((m2 - m1 * m1) * inv * inv - mean_e).mean()
        if grad > 0:
            lo = log_c
        else:
            hi = log_c
        nxt = log_c - grad / curv if curv < 0 else np.nan
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - log_c) < tol:
            return nxt
        log_c = nxt
    return log_c


def fit_cop(samples, *, log_bracket=(-7.0, 7.0), tol: float = 1e-6,
            max_centers: int = 4000) -> KdeModel:
    """Bandwidth-factor selection for the shared-covariance mixture.

    The factor maximizes the leave-one-out mean log density of the
    samples themselves, found by a safeguarded Newton search on log c
    inside ``log_bracket`` that stops once a step is shorter than
    ``tol``.  Exact self-contributions are excluded by index only;
    duplicated points remain legitimate neighbors of each other.
    """
    samples = _as_matrix(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if len(samples) > max_centers:
        stride = int(np.ceil(len(samples) / max_centers))
        samples = samples[::stride]
    base = regularize_covariance(np.cov(samples, rowvar=False, ddof=1))
    chol = cholesky(base, lower=True)
    white = solve_triangular(chol, (samples - samples.mean(axis=0)).T,
                             lower=True).T
    log_c = _loo_max_log_c(white, log_bracket[0], log_bracket[1], tol)
    return KdeModel(samples, base, float(np.exp(log_c)))


def naive_loss(samples, u_values, kde: KdeModel) -> float:
    """Mean of U(theta) + log q-bar(theta) over the samples.

    Order-independent by construction, so it reflects only the local
    distribution of the samples, not the path that produced them.
    """
    samples = _as_matrix(samples)
    u_values = np.asarray(u_values, dtype=float).reshape(-1)
    if len(u_values) != len(samples):
        raise ValueError("need one potential value per sample")
    return float(np.mean(u_values + kde.log_density(samples)))


# --- effective sample size -------------------------------------------------------


@dataclass(frozen=True)
class EssResult:
    """Per-dimension effective sample size with degeneracy flags."""

    ess: np.ndarray
    degenerate: np.ndarray


def _chain_ess(chains: np.ndarray) -> EssResult:
    """ESS of each (chain, dimension) of (K, T, D) samples, all chains at
    once: the autocovariances by one FFT per group of chains whose
    transforms fill about one row block, and the lag sum as a running sum
    read at each cutoff, which adds the terms in lag order."""
    k, t, d = chains.shape
    if t < 10:
        raise ValueError("need at least 10 samples per chain")
    centered = chains - chains.mean(axis=1, keepdims=True)
    degenerate = (centered**2).sum(axis=1) == 0.0

    max_lag = min(1000, t // 3 - 1)
    nfft = next_fast_len(2 * t)
    acov = np.empty((k, max_lag + 1, d))
    group = max(1, _BLOCK_ELEMENTS // (nfft * d))
    for lo in range(0, k, group):
        spec = rfft(centered[lo:lo + group], nfft, axis=1)
        for chain in spec:
            # One product per chain: how numpy's loop rounds the (zero)
            # imaginary part, which irfft reads, depends on the array it walks.
            chain[...] = chain * chain.conj()
        acov[lo:lo + group] = irfft(spec, nfft, axis=1)[:, : max_lag + 1]

    lags = np.arange(1, max_lag + 1)
    rho0 = np.where(degenerate, 1.0, acov[:, 0] / t)
    rho = acov[:, 1:] / (t - lags)[:, None] / rho0[:, None]
    # The sum stops before the first even lag s whose pair rho_{s-1} + rho_s
    # is negative, so it holds 2j + 1 terms when pair j is the first such.
    pairs = rho[:, 0:max_lag - 1:2] + rho[:, 1::2]
    negative = pairs < 0
    terms = np.where(negative.any(axis=1), 2 * negative.argmax(axis=1) + 1,
                     max_lag)
    acc = np.cumsum((1.0 - lags / t)[:, None] * rho, axis=1)
    denom = 1.0 + 2.0 * np.take_along_axis(acc, terms[:, None] - 1, axis=1)[:, 0]

    ess = np.full((k, d), float(t))
    mixing = ~degenerate & ~(denom <= 0)
    ess[mixing] = np.minimum(t / denom[mixing], float(t))
    return EssResult(ess, degenerate)


def effective_sample_size(chain) -> EssResult:
    """ESS per dimension from the truncated weighted autocorrelation sum.

    The lag sum stops at lag 1000, at floor(T/3) - 1, or at the first
    even lag whose adjacent autocorrelation pair sums negative.
    Zero-variance dimensions are flagged and reported as T.
    """
    res = _chain_ess(_as_matrix(chain)[None])
    return EssResult(res.ess[0], res.degenerate[0])


def aggregate_ess(samples):
    """One scalar per run from (K, T, D) samples: the mean over chains of
    the per-chain minimum over dimensions, plus the (K, D) per-chain ESS."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ValueError("expected (chains, steps, dimensions) samples")
    per_chain = _chain_ess(samples).ess
    return float(per_chain.min(axis=1).mean()), per_chain


# --- principal directions ----------------------------------------------------------


def pca_project(samples):
    """(components, projected): rows of components are unit principal
    directions in descending variance order, sign fixed so the
    largest-magnitude loading is positive."""
    samples = _as_matrix(samples)
    n, d = samples.shape
    if n < d + 1:
        raise ValueError("need more samples than dimensions")
    centered = samples - samples.mean(axis=0)
    cov = np.cov(centered, rowvar=False, ddof=1)
    vals, vecs = np.linalg.eigh(np.atleast_2d(cov))
    order = np.argsort(vals)[::-1]
    comps = vecs[:, order].T
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return comps, centered @ comps.T


# --- conditional-mean surfaces -------------------------------------------------------


def _box_nanmean(z: np.ndarray) -> np.ndarray:
    padded = np.full((z.shape[0] + 2, z.shape[1] + 2), np.nan)
    padded[1:-1, 1:-1] = z
    shifts = [padded[r:r + z.shape[0], c:c + z.shape[1]]
              for r in range(3) for c in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(np.stack(shifts), axis=0)


def conditional_mean_surface(projected, i: int, j: int, k: int, *,
                             threshold: float = 0.3, iterations: int = 3,
                             grid=25):
    """Neighborhood-mean estimate of E(theta_Pk | theta_Pi, theta_Pj).

    Each grid node averages the k-th coordinate of samples whose (i, j)
    coordinates lie within `threshold` standard deviations of the node,
    then `iterations` rounds of 3x3 grid averaging smooth the result.
    Nodes with an empty neighborhood come back NaN and stay NaN.
    """
    projected = _as_matrix(projected)
    x, y, z = projected[:, i], projected[:, j], projected[:, k]
    if isinstance(grid, int):
        gx = np.linspace(x.min(), x.max(), grid)
        gy = np.linspace(y.min(), y.max(), grid)
    else:
        gx = np.asarray(grid[0], dtype=float)
        gy = np.asarray(grid[1], dtype=float)
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

    missing = np.isnan(values)
    for _ in range(iterations):
        values = _box_nanmean(values)
        values[missing] = np.nan
    return gx, gy, values


# --- CSV export ----------------------------------------------------------------------


# Rows formatted per write: enough to amortize the call, few enough that
# the formatted text adds no measurable memory.
_WRITE_ROWS = 256


def _write_table(path, header: str, table) -> None:
    """``header`` and the rows of ``table`` with the bytes np.savetxt
    writes with fmt "%.10e" and "," as the delimiter, formatted a block of
    rows per %-operation."""
    row = ",".join(["%.10e"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _WRITE_ROWS):
            block = table[start:start + _WRITE_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def save_surface(path, gx, gy, values) -> None:
    """Long-format CSV (x, y, value) with NaN for missing nodes."""
    gxg, gyg = np.meshgrid(gx, gy, indexing="ij")
    table = np.column_stack([gxg.ravel(), gyg.ravel(),
                             np.asarray(values).ravel()])
    _write_table(path, "x,y,value", table)


def save_projection(path, projected, components) -> None:
    """Projected samples with the component rows in a comment header."""
    projected = _as_matrix(projected)
    lines = ["component_%d: %s" % (idx + 1, " ".join("%.10e" % v for v in row))
             for idx, row in enumerate(np.atleast_2d(components))]
    lines.append(",".join(f"pc_{i + 1}" for i in range(projected.shape[1])))
    _write_table(path, "\n".join("# " + line for line in lines), projected)
