"""Sample-quality diagnostics.

Kernel density fit with bandwidth-factor selection (a safeguarded Newton
search on log c, each iteration one pass over the pairwise kernel
exponents in cache-sized row blocks, none of which is stored), the
order-independent ELBO-style loss, effective sample size with the
truncated autocorrelation sum, principal directions, and conditional-mean
surfaces for visualizing nonlinear parameter couplings.  Everything here
is read-only over sample arrays.

The kernel density's n^2-sized passes (the bandwidth search's
nearest-neighbor pass and Newton iterations, and ``KdeModel.log_density``)
run their row blocks on every core this process may use: the calling
thread and a small thread pool work through the blocks together, since
numpy releases the GIL inside the large ufunc, reduction and BLAS calls
that make up a block.  Each block writes only its own rows and keeps
every row's reduction order, so the results do not depend on how many
threads ran them.  A block's exponents are one product of its augmented
rows with the (D + 2, n) kernel matrix, followed by one exp: each row's
own shift is folded into the product, so no exponent exceeds 0 beyond
rounding and no max pass is needed; only density rows whose sum
underflows are redone with the max shift.  Effective sample size runs
over all chains at once, and a conditional-mean surface reads, per grid
column, only the window of x-sorted samples within the threshold.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.fft import irfft, rfft


def _as_matrix(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise ValueError("samples must be a (n, D) matrix")
    return samples


def regularize_covariance(cov: np.ndarray) -> np.ndarray:
    """Ridge the covariance when it is near-singular (warns); raise
    ValueError when it holds a non-finite entry, as an overflowed one
    does."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise ValueError("non-finite sample covariance")
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
    out = a @ np.ascontiguousarray(b.T)
    out *= -2.0
    out += (a * a).sum(axis=1)[:, None]
    out += (b * b).sum(axis=1)
    return np.maximum(out, 0.0, out=out)


# --- row blocks on every core ---------------------------------------------------

# Elements in one row block of the n^2 passes' scratch: 512 KB of float64,
# so a block stays in a core's cache through its passes, and its numpy
# calls run long enough that the GIL is held for a small part of a block.
_BLOCK_ELEMENTS = 65536
# Row sums of the density's kernel terms below this have lost precision to
# subnormal terms (or underflowed to 0) and are redone with the max shift.
_TINY = np.finfo(float).tiny
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


def _row_blocks(n: int, width: int, buffers: int = 1):
    """(bounds, scratch) for a pass over n rows of ``width`` elements:
    the bounds of about n * width / _BLOCK_ELEMENTS near-equal row blocks,
    and ``buffers`` (block rows, width) buffers for each thread that will
    run them.  Callers allocate the scratch, so the pool's threads
    allocate nothing larger than a row vector.

    A block holds at least two rows whenever n does: numpy sends a one-row
    product to gemv instead of gemm, whose sums round differently.
    """
    count = max(1, -(-n // max(4, _BLOCK_ELEMENTS // width)))
    bounds = [b * n // count for b in range(count + 1)]
    return bounds, np.empty((min(count, _WORKERS), buffers, -(-n // count),
                             width))


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


def _kernel_matrix(white: np.ndarray, c: float, out=None) -> np.ndarray:
    """The row-major (D + 2, n) matrix [w/c ; -|w|^2/2c ; -1/2c] of the
    whitened centers w, into ``out`` if given.  Its product with an
    augmented row [q, 1, s] (``_augment``) is (2 q.w_j - |w_j|^2 - s) / 2c
    in column j, which is the kernel exponent -|q - w_j|^2 / 2c when
    s = |q|^2.
    """
    n, d = white.shape
    scaled = white / c
    # Row-major: the product against the transposed layout is ~2x slower.
    kernel = np.empty((d + 2, n)) if out is None else out
    kernel[:d] = scaled.T
    kernel[d] = -0.5 * (white * scaled).sum(axis=1)
    kernel[d + 1] = -0.5 / c
    return kernel


def _augment(out: np.ndarray, rows: np.ndarray, last) -> np.ndarray:
    """The augmented rows [rows, 1, last] of ``_kernel_matrix``, into out."""
    out[:, :-2] = rows
    out[:, -2] = 1.0
    out[:, -1] = last
    return out


def _solve_lower_rows(lower: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows x solving lower @ x = row for each row of ``rows``, by
    forward substitution, one column of the result at a time for all rows.
    Every step is elementwise across rows, so a row's bits depend on that
    row alone, never on how many rows share the call (a blocked
    triangular solve's or a BLAS product's can)."""
    cols = rows.T.copy()
    for i, col in enumerate(cols):
        for k in range(i):
            col -= lower[i, k] * cols[k]
        col /= lower[i, i]
    return np.ascontiguousarray(cols.T)


@dataclass
class KdeModel:
    """Equal-weight Gaussian mixture with shared covariance c_op * base_cov.

    A block of query rows costs one product and one exp: with w the
    whitened centers, every exponent -|q - w|^2 / 2c is the product of the
    augmented query row [q, 1, |q|^2] with one column of
    ``_kernel_matrix``.  No exponent exceeds 0 beyond rounding, so the row
    sums cannot overflow; rows whose sum falls below the smallest normal
    float (every term subnormal or zero) are redone with the max shift.
    """

    centers: np.ndarray
    base_cov: np.ndarray
    c_op: float
    _mean: np.ndarray = field(init=False, repr=False)
    _chol: np.ndarray = field(init=False, repr=False)
    _kernel: np.ndarray = field(init=False, repr=False)
    _log_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        self.centers = _as_matrix(self.centers)
        self.base_cov = np.atleast_2d(np.asarray(self.base_cov, dtype=float))
        n, d = self.centers.shape
        self._mean = self.centers.mean(axis=0)
        self._chol = np.linalg.cholesky(self.base_cov)
        self._kernel = _kernel_matrix(self._whiten(self.centers), self.c_op)
        logdet = 2.0 * np.log(np.diag(self._chol)).sum()
        self._log_norm = (-0.5 * (d * np.log(2.0 * np.pi * self.c_op) + logdet)
                          - np.log(n))

    @property
    def cov(self) -> np.ndarray:
        return self.c_op * self.base_cov

    def _whiten(self, points: np.ndarray) -> np.ndarray:
        return _solve_lower_rows(self._chol, points - self._mean)

    def log_density(self, queries) -> np.ndarray:
        """log q-bar at each query point."""
        wq = self._whiten(_as_matrix(queries))
        count = len(wq)
        if count == 1:
            # Scored as two rows, so the product is gemm's as in a batch.
            wq = np.repeat(wq, 2, axis=0)
        sq_norms = np.einsum("ij,ij->i", wq, wq)
        out = np.empty(len(wq))
        kernel = self._kernel
        width, m = kernel.shape
        bounds, scratch = _row_blocks(len(wq), m + width)

        def chunk(start, stop, buf):
            # A block's scratch holds its exponents, contiguous so that the
            # exp runs at full speed, then its augmented query rows.
            rows, flat = stop - start, buf.reshape(-1)
            z = flat[:rows * m].reshape(rows, m)
            aug = _augment(flat[rows * m:rows * (m + width)].reshape(rows, width),
                           wq[start:stop], sq_norms[start:stop])
            np.matmul(aug, kernel, out=z)
            np.exp(z, out=z)
            total = z.sum(axis=1, out=out[start:stop])
            low = np.flatnonzero(total < _TINY) if (total < _TINY).any() else []
            if len(low):
                # At least two rows, so the product is gemm's as in the pass.
                redo = aug[np.r_[low, low[0]]] @ kernel
                top = redo.max(axis=1, keepdims=True)
                np.exp(redo - top, out=redo)
                total[low] = redo[:-1].sum(axis=1)
            np.log(total, out=total)
            if len(low):
                total[low] += top[:-1, 0]

        _in_blocks(chunk, bounds, scratch)
        return out[:count] + self._log_norm


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

    No (n, n) array is stored.  Each pass runs over row blocks of about
    ``_BLOCK_ELEMENTS`` elements, and a block's exponents are one product
    of its augmented rows with ``_kernel_matrix``, as in
    ``KdeModel.log_density``.  A first pass at c = 1 finds each row's
    nearest-neighbor distance near_i; the rows are then augmented with
    |w_i|^2 - near_i, so a Newton iteration's product gives the shifted
    exponents z_ij = near_i / 2c - e_ij, at most 0 up to rounding.  The
    exp of the block goes to a second buffer, and the three row sums (of
    p, p z and p z^2, unnormalized) are dot products of contiguous rows,
    so the result depends neither on the block size nor on the threads.
    """
    n, d = white.shape
    near, total, s1, s2 = np.empty((4, n))
    ones = np.ones(n)
    aug = _augment(np.empty((n, d + 2)), white, (white * white).sum(axis=1))
    bounds, scratch = _row_blocks(n, n, buffers=2)

    def nearest(start, stop, buf):
        # At c = 1 the product is -sq_ij / 2.
        z = buf[0, :stop - start]
        np.matmul(aug[start:stop], kernel, out=z)
        np.fill_diagonal(z[:, start:], -np.inf)
        z.max(axis=1, out=near[start:stop])

    def moments(start, stop, buf):
        z, p = buf[:, :stop - start]
        np.matmul(aug[start:stop], kernel, out=z)
        # z_ii, about near_i / 2c, could overflow the exp; its term is dropped.
        np.fill_diagonal(z[:, start:], 0.0)
        np.exp(z, out=p)
        np.fill_diagonal(p[:, start:], 0.0)
        # One dot product per row: gemv's sums (p @ ones) round differently
        # in a block's last rows than in the others.
        np.vecdot(p, ones, out=total[start:stop])
        np.vecdot(p, z, out=s1[start:stop])
        p *= z
        np.vecdot(p, z, out=s2[start:stop])

    kernel = _kernel_matrix(white, 1.0)
    _in_blocks(nearest, bounds, scratch)
    near *= -2.0
    aug[:, -1] -= near
    # Scott's rule factor for whitened data as the starting point.
    log_c = min(max(-2.0 / (d + 4) * np.log(n), lo), hi)
    for _ in range(200):
        c = np.exp(log_c)
        _kernel_matrix(white, c, out=kernel)
        _in_blocks(moments, bounds, scratch)
        # E_p[z] and E_p[z^2]; e = near / 2c - z, so Var_p[e] = Var_p[z].
        m1 = s1 / total
        m2 = s2 / total
        mean_e = near * (0.5 / c) - m1
        grad = mean_e.mean() - 0.5 * d
        curv = (m2 - m1 * m1 - mean_e).mean()
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
    white = _solve_lower_rows(np.linalg.cholesky(base),
                              samples - samples.mean(axis=0))
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


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n, a length whose FFT factors
    into small radices (scipy.fft.next_fast_len's answer)."""
    n = max(n, 1)
    while True:
        rest = n
        for radix in (2, 3, 5, 7, 11):
            while rest % radix == 0:
                rest //= radix
        if rest == 1:
            return n
        n += 1


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
    nfft = _fast_len(2 * t)
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
    Nodes with an empty neighborhood come back NaN and stay NaN.  The
    samples are sorted once by their i-th coordinate, so a grid column
    reads only the slice of them that can lie within its nodes' reach.
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
    order = np.argsort(xn)
    xn, yn = xn[order], y[order] / sy
    z_one = np.column_stack([z[order], np.ones(len(z))])
    gxn, gyn = gx / sx, (gy / sy)[:, None]
    # A sample the disk test keeps lies within the threshold along x up to
    # rounding, so each column reads the sorted samples within the
    # threshold plus a few ulps of it, and the disk test decides.
    pad = threshold + 4.0 * np.finfo(float).eps * (np.abs(gxn) + threshold)
    lo = np.searchsorted(xn, gxn - pad, side="left")
    hi = np.searchsorted(xn, gxn + pad, side="right")
    for a, gxa in enumerate(gxn):
        win = slice(lo[a], hi[a])
        inside = (xn[win] - gxa) ** 2 + (yn[win] - gyn) ** 2 <= threshold**2
        sums, counts = (inside @ z_one[win]).T
        np.divide(sums, counts, out=values[a], where=counts > 0)

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
