"""Sample-quality diagnostics.

Kernel density fit with bandwidth-factor selection (a safeguarded Newton
search on log c over BLAS-form squared distances, each iteration one pass
over them in cache-sized row blocks), the order-independent
ELBO-style loss, effective sample size with the truncated autocorrelation
sum, principal directions, and conditional-mean surfaces for visualizing
nonlinear parameter couplings.  Everything here is read-only over sample
arrays.
"""

from __future__ import annotations

import warnings
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


# --- kernel density -----------------------------------------------------------


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of a and b.

    Uses the BLAS form |a|^2 + |b|^2 - 2 a b^T, clamped at 0, so no
    (n, m, D) difference tensor is formed.  The cancellation error grows
    with the norms, so callers center their points first.  b^T is copied
    to a contiguous array because numpy sends a @ a.T to a symmetric
    rank-k update, which is about twice as slow here as the plain product.
    """
    out = a @ np.ascontiguousarray(b.T)
    out *= -2.0
    out += (a * a).sum(axis=1)[:, None]
    out += (b * b).sum(axis=1)[None, :]
    return np.maximum(out, 0.0, out=out)


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

    def log_density(self, queries, chunk: int = 64) -> np.ndarray:
        """log q-bar at each query point."""
        wq = self._whiten(_as_matrix(queries))
        out = np.empty(len(wq))
        for start in range(0, len(wq), chunk):
            z = wq[start:start + chunk] @ self._scaled.T
            z += self._offset
            top = z.max(axis=1)
            z -= top[:, None]
            np.exp(z, out=z)
            out[start:start + chunk] = top + np.log(z.sum(axis=1))
        out -= 0.5 * (wq * wq).sum(axis=1) / self.c_op
        return out + self._log_norm


# Elements in one row block of the bandwidth search's scratch buffer:
# 256 KB of float64, so a block stays in cache through its passes.
_BLOCK_ELEMENTS = 32768


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
    the result does not depend on the block size.
    """
    n, d = white.shape
    sq = sq_distances(white, white)
    np.fill_diagonal(sq, np.inf)
    near = sq.min(axis=1)
    # Each row is shifted by its nearest-neighbor distance, so the largest
    # exp term is 1; in the shifted sq, e_ij = (sq_ij + near_i) / 2c.
    sq -= near[:, None]
    np.fill_diagonal(sq, 0.0)
    rows = max(1, min(n, _BLOCK_ELEMENTS // n))
    buf = np.empty((rows, n))
    total, s1, s2 = np.empty((3, n))
    # Scott's rule factor for whitened data as the starting point.
    log_c = min(max(-2.0 / (d + 4) * np.log(n), lo), hi)
    for _ in range(200):
        inv = 0.5 * np.exp(-log_c)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            part, w = sq[start:stop], buf[:stop - start]
            np.multiply(part, -inv, out=w)
            np.exp(w, out=w)
            np.fill_diagonal(w[:, start:], 0.0)
            w.sum(axis=1, out=total[start:stop])
            w *= part
            w.sum(axis=1, out=s1[start:stop])
            w *= part
            w.sum(axis=1, out=s2[start:stop])
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


def effective_sample_size(chain) -> EssResult:
    """ESS per dimension from the truncated weighted autocorrelation sum.

    The lag sum stops at lag 1000, at floor(T/3) - 1, or at the first
    even lag whose adjacent autocorrelation pair sums negative.
    Zero-variance dimensions are flagged and reported as T.
    """
    chain = _as_matrix(chain)
    t, d = chain.shape
    if t < 10:
        raise ValueError("need at least 10 samples per chain")
    centered = chain - chain.mean(axis=0)
    var = (centered**2).sum(axis=0)
    degenerate = var == 0.0

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
    return EssResult(ess, degenerate)


def aggregate_ess(samples):
    """One scalar per run from (K, T, D) samples: the mean over chains of
    the per-chain minimum over dimensions, plus the (K, D) per-chain ESS."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ValueError("expected (chains, steps, dimensions) samples")
    per_chain = np.stack([effective_sample_size(c).ess for c in samples])
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
