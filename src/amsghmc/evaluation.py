"""Sample-quality diagnostics.

Kernel density fit with bandwidth-factor selection, the order-independent
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
from scipy.special import logsumexp

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, tol: float = 1e-3) -> float:
    """Golden-section maximizer on [lo, hi] for a unimodal objective."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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


@dataclass
class KdeModel:
    """Equal-weight Gaussian mixture with shared covariance c_op * base_cov."""

    centers: np.ndarray
    base_cov: np.ndarray
    c_op: float
    _chol: np.ndarray = field(init=False, repr=False)
    _white: np.ndarray = field(init=False, repr=False)
    _log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        self.centers = _as_matrix(self.centers)
        self.base_cov = np.atleast_2d(np.asarray(self.base_cov, dtype=float))
        n, d = self.centers.shape
        self._chol = cholesky(self.base_cov, lower=True)
        self._white = solve_triangular(self._chol, self.centers.T, lower=True).T
        logdet = 2.0 * np.log(np.diag(self._chol)).sum()
        self._log_norm = -0.5 * (d * np.log(2.0 * np.pi * self.c_op) + logdet)

    @property
    def cov(self) -> np.ndarray:
        return self.c_op * self.base_cov

    def log_density(self, queries, chunk: int = 1024) -> np.ndarray:
        """log q-bar at each query point."""
        queries = _as_matrix(queries)
        out = np.empty(len(queries))
        wq = solve_triangular(self._chol, queries.T, lower=True).T
        wc = self._white
        c2 = 2.0 * self.c_op
        for start in range(0, len(queries), chunk):
            block = wq[start:start + chunk]
            d2 = ((block[:, None, :] - wc[None, :, :]) ** 2).sum(axis=2)
            out[start:start + chunk] = logsumexp(-d2 / c2, axis=1)
        return out + self._log_norm - np.log(len(wc))


def fit_cop(samples, *, log_bracket=(-7.0, 7.0), tol: float = 1e-3,
            max_centers: int = 4000) -> KdeModel:
    """Bandwidth-factor selection for the shared-covariance mixture.

    The factor maximizes the leave-one-out mean log density of the
    samples themselves, searched by golden section over log c.  Exact
    self-contributions are excluded by index only; duplicated points
    remain legitimate neighbors of each other.
    """
    samples = _as_matrix(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    if len(samples) > max_centers:
        stride = int(np.ceil(len(samples) / max_centers))
        samples = samples[::stride]
    n, d = samples.shape
    base = regularize_covariance(np.cov(samples, rowvar=False, ddof=1))
    chol = cholesky(base, lower=True)
    white = solve_triangular(chol, samples.T, lower=True).T
    sq = ((white[:, None, :] - white[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    logdet = 2.0 * np.log(np.diag(chol)).sum()

    def objective(log_c):
        c = np.exp(log_c)
        rows = logsumexp(-sq / (2.0 * c), axis=1)
        norm = -0.5 * (d * np.log(2.0 * np.pi * c) + logdet) - np.log(n - 1)
        return float(rows.mean() + norm)

    log_c = _golden_max(objective, log_bracket[0], log_bracket[1], tol)
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


def save_surface(path, gx, gy, values) -> None:
    """Long-format CSV (x, y, value) with NaN for missing nodes."""
    gxg, gyg = np.meshgrid(gx, gy, indexing="ij")
    table = np.column_stack([gxg.ravel(), gyg.ravel(),
                             np.asarray(values).ravel()])
    np.savetxt(Path(path), table, delimiter=",", header="x,y,value",
               comments="", fmt="%.10e")


def save_projection(path, projected, components) -> None:
    """Projected samples with the component rows in a comment header."""
    projected = _as_matrix(projected)
    lines = ["component_%d: %s" % (idx + 1, " ".join("%.10e" % v for v in row))
             for idx, row in enumerate(np.atleast_2d(components))]
    header = "\n".join(lines + [",".join(
        f"pc_{idx + 1}" for idx in range(projected.shape[1]))])
    np.savetxt(Path(path), projected, delimiter=",", header=header,
               fmt="%.10e")
