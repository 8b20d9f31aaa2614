"""N-story linear shear building under ground excitation.

Assembles chain-topology system matrices, simulates total floor
accelerations with an exact zero-order-hold discretization of the
first-order state-space form, differentiates them by an adjoint march,
and generates synthetic noisy datasets.

The simulation core is batched: a stack of buildings sharing the same
mass vector and time step but differing in stiffness and damping is
discretized and integrated together, which is what the posterior-gradient
path needs when many MCMC chains move in parallel. Each building steps in
its diagonal modal basis, and the gradient of a weighted sum of its
response over story stiffness and damping costs one reverse march in the
same basis; buildings whose eigenbasis is ill-conditioned step through
matrix exponentials in the physical basis instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm, expm_frechet


@dataclass(frozen=True)
class ShearBuilding:
    """Story-wise physical parameters of a linear shear building."""

    stiffness: np.ndarray
    damping: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name in ("stiffness", "damping", "mass"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.stiffness.size
        if self.damping.size != n or self.mass.size != n:
            raise ValueError("stiffness, damping and mass must have equal length")

    @property
    def n_stories(self) -> int:
        return self.stiffness.size


@dataclass(frozen=True)
class Dataset:
    """Ground motion plus noisy acceleration measurements at observed dofs."""

    ground_accel: np.ndarray
    observed_dofs: tuple
    measurements: np.ndarray
    dt: float
    noise_ratio: float

    def __post_init__(self):
        object.__setattr__(self, "ground_accel", np.asarray(self.ground_accel, dtype=float))
        object.__setattr__(self, "measurements", np.asarray(self.measurements, dtype=float))
        object.__setattr__(self, "observed_dofs", tuple(int(i) for i in self.observed_dofs))
        if self.measurements.shape != (len(self.observed_dofs), self.ground_accel.size):
            raise ValueError("measurements must be (n_observed, n_steps)")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def n_obs(self) -> int:
        return self.measurements.shape[0]

    @property
    def n_steps(self) -> int:
        return self.measurements.shape[1]


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic dataset: the nominal building family, the measurement
    setup, and the prior scale ``sigma0`` of the updating problem."""

    n_stories: int = 5
    duration: float = 3.0
    dt: float = 0.01
    noise_ratio: float = 1.0
    perturbation_cov: float = 0.10
    ground_std: float = 1.0
    observed_dofs: tuple | None = None
    k0: float = 2.0e7
    c0: float = 6.0e4
    mass: float = 2.0e5
    sigma0: float = 1.0

    def __post_init__(self):
        if self.n_stories < 1:
            raise ValueError("n_stories must be at least 1")
        if self.duration <= 0 or self.dt <= 0:
            raise ValueError("duration and dt must be positive")
        if self.n_steps < 1 or abs(self.duration / self.dt - self.n_steps) > 1e-9:
            raise ValueError("duration must be a positive multiple of dt")
        if self.noise_ratio < 0:
            raise ValueError("noise_ratio must be nonnegative")
        obs = self.observed_dofs
        if obs is not None and not (obs and all(0 <= i < self.n_stories
                                                for i in obs)):
            raise ValueError("observed_dofs must be a non-empty list of "
                             "dofs in [0, n_stories)")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def building(self) -> ShearBuilding:
        """The nominal building the true one is drawn around."""
        return nominal_building(self.n_stories, self.k0, self.c0, self.mass)


def nominal_building(
    n_stories: int, k0: float = 2.0e7, c0: float = 6.0e4, mass: float = 2.0e5
) -> ShearBuilding:
    """Uniform building with every story at the nominal parameter values."""
    n = int(n_stories)
    return ShearBuilding(
        stiffness=np.full(n, float(k0)),
        damping=np.full(n, float(c0)),
        mass=np.full(n, float(mass)),
    )


def story_patterns(n: int) -> np.ndarray:
    """Per-story assembly patterns: K = sum_s k_s * P[s] (same for damping)."""
    pats = np.zeros((n, n, n))
    for s in range(n):
        pats[s, s, s] += 1.0
        if s > 0:
            pats[s, s - 1, s - 1] += 1.0
            pats[s, s, s - 1] = pats[s, s - 1, s] = -1.0
    return pats


def assemble_system(b: ShearBuilding):
    """Mass, damping and stiffness matrices (M, C, K) of the chain model.

    Stiffness and mass must be strictly positive. Damping is deliberately
    unchecked: the inference chain explores damping values of either sign
    and the likelihood must stay evaluable there.
    """
    if np.any(b.stiffness <= 0):
        raise ValueError("story stiffness must be strictly positive")
    if np.any(b.mass <= 0):
        raise ValueError("floor mass must be strictly positive")
    pats = story_patterns(b.n_stories)
    K = np.einsum("s,sij->ij", b.stiffness, pats)
    C = np.einsum("s,sij->ij", b.damping, pats)
    M = np.diag(b.mass)
    return M, C, K


@dataclass
class Discretized:
    """Exact one-step propagators for a batch of buildings at fixed dt.

    Row b's continuous state matrix is a[b] = vec[b] @ diag(lam[b]) @ vinv[b],
    and its last n_floors rows map the physical state to total floor
    accelerations. In modal coordinates z = vinv[b] @ x one zero-order-hold
    step is z <- e * z + beta * a_j, with e = exp(lam * dt) and
    beta = (e - 1) / lam * (vinv[b] @ b_in) for the ground-input vector
    b_in. The rows listed in dense have an ill-conditioned eigenbasis: their
    vec and vinv are the identity, so their state is the physical one, and
    they step by x <- ad[i] @ x + beta * a_j (i their position in dense),
    with ad[i] and beta from matrix exponentials.
    """

    dt: float
    mass: np.ndarray
    a: np.ndarray
    lam: np.ndarray
    vec: np.ndarray
    vinv: np.ndarray
    e: np.ndarray
    beta: np.ndarray
    dense: np.ndarray
    ad: np.ndarray


def discretize_batch(
    mass: np.ndarray,
    stiffness: np.ndarray,
    damping: np.ndarray,
    dt: float,
    cond_limit: float = 1e5,
) -> Discretized:
    """Exact ZOH discretization of a batch of buildings.

    stiffness and damping are (batch, n_stories); mass is (n_stories,) and
    shared. The continuous system is diagonalized per batch element; rows
    whose eigenvector matrix is badly conditioned (1-norm condition
    estimate above cond_limit) fall back to matrix-exponential formulas
    and step in the physical basis.  Near a defective eigenvalue the modal
    gradient loses digits roughly like cond^1.5 eps; the default limit
    keeps it within ~1e-8 of the dense one.
    """
    mass = np.asarray(mass, dtype=float)
    ks = np.atleast_2d(np.asarray(stiffness, dtype=float))
    cs = np.atleast_2d(np.asarray(damping, dtype=float))
    nb, n = ks.shape
    pats = story_patterns(n)
    minv = 1.0 / mass
    kmat = np.einsum("bs,sij->bij", ks, pats)
    cmat = np.einsum("bs,sij->bij", cs, pats)
    a = np.zeros((nb, 2 * n, 2 * n))
    a[:, :n, n:] = np.eye(n)
    a[:, n:, :n] = -minv[None, :, None] * kmat
    a[:, n:, n:] = -minv[None, :, None] * cmat

    lam, vec = np.linalg.eig(a)
    vinv = np.linalg.inv(vec)
    cond1 = np.abs(vec).sum(axis=1).max(axis=1) * np.abs(vinv).sum(axis=1).max(axis=1)
    dense = np.nonzero(~(cond1 <= cond_limit))[0]
    e = np.exp(lam * dt)
    beta = (e - 1.0) / lam * -vinv[:, :, n:].sum(axis=2)  # vinv @ b_in
    ad = np.empty((dense.size, 2 * n, 2 * n))
    for i, row in enumerate(dense):
        ad[i], beta[row] = _discretize_expm(a[row], dt)
        vec[row] = vinv[row] = np.eye(2 * n)
    return Discretized(dt=dt, mass=mass, a=a, lam=lam, vec=vec, vinv=vinv, e=e,
                       beta=beta, dense=dense, ad=ad)


def _input_block(a):
    """[[a, b_in], [0, 0]] for the state matrix a of one building, where the
    ground-input vector b_in is -1 on its last n_floors rows. The exponential
    of the block times dt holds (ad, bd) in its first block row (Van Loan
    1978).
    """
    m = a.shape[0]
    block = np.zeros((m + 1, m + 1))
    block[:m, :m] = a
    block[m // 2 : m, m] = -1.0
    return block


def _discretize_expm(a, dt):
    """Matrix-exponential discretization (ad, bd) of one batch element."""
    full = expm(_input_block(a) * dt)
    return full[:-1, :-1], full[:-1, -1]


def _expm_adjoint(a, dt, s, q):
    """Gradient over a of <ad, s> + <bd, q>, with (ad, bd) as in _discretize_expm.

    The adjoint of the Frechet derivative of expm at X is the one at X^T, so
    one derivative (Al-Mohy & Higham 2009) gives every parameter's gradient.
    """
    m = a.shape[0]
    w = np.zeros((m + 1, m + 1))
    w[:m, :m] = s
    w[:m, m] = q
    return expm_frechet(_input_block(a).T * dt, w * dt, compute_expm=False)[:m, :m]


def _march(disc: Discretized, inputs: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Every s of s <- P s + inputs[j] from s = 0, over j = 0, 1, ...

    inputs is (n_steps, batch, 2 n_floors). P is diag(e) for modal rows and
    ad for dense rows; reverse runs j backwards with P^T, the adjoint march.
    """
    out = np.empty(inputs.shape, dtype=inputs.dtype)
    prev = np.zeros(inputs.shape[1:], dtype=inputs.dtype)
    ad = disc.ad.transpose(0, 2, 1) if reverse else disc.ad
    steps = range(inputs.shape[0])
    for j in reversed(steps) if reverse else steps:
        cur = out[j]
        np.multiply(disc.e, prev, out=cur)
        if disc.dense.size:
            cur[disc.dense] = np.einsum("bij,bj->bi", ad, prev[disc.dense])
        cur += inputs[j]
        prev = cur
    return out


def run_batch(disc: Discretized, ground: np.ndarray):
    """March the discretized batch over the ground-motion record.

    Returns (y, states): total accelerations y with shape (batch, n_floors,
    n_steps), and the state after every step in each row's basis (see
    Discretized), shaped (n_steps, batch, 2 n_floors), for response_vjp.
    Measurement j is the state after step j, i.e. at time (j+1) dt.
    """
    states = _march(disc, disc.beta * np.asarray(ground, dtype=float)[:, None, None])
    y = np.real(disc.a[:, disc.mass.size :] @ disc.vec @ states.transpose(1, 2, 0))
    return y, states


def response_vjp(disc: Discretized, ground: np.ndarray, states: np.ndarray,
                 cotangent: np.ndarray) -> np.ndarray:
    """Gradient of sum(cotangent * y) over story stiffness and damping.

    y and states come from run_batch(disc, ground); cotangent has y's shape.
    Returns (batch, 2 n_floors): every story stiffness, then every story
    damping. The adjoint nu_j = P^T nu_{j+1} + (c vec)^T cotangent_j, with c
    the acceleration rows of a, marches back in each row's basis. With
    S = sum_j nu_j z_j^T and q = sum_j nu_j a_j, z_j the state entering
    step j, a modal row's gradient over its continuous state matrix is
    vinv^T (L * S + Psi * q (vinv b_in)^T) vec^T, where L and Psi hold the
    divided differences of exp(lam dt) and (exp(lam dt) - 1) / lam over
    pairs of eigenvalues (Najfeld & Havel 1995); dense rows take it from
    _expm_adjoint. The output map adds sum_j cotangent_j x_{j+1}^T.
    """
    n = disc.mass.size
    ground = np.asarray(ground, dtype=float)
    cv = disc.a[:, n:] @ disc.vec
    nu = _march(disc, (cv.transpose(0, 2, 1) @ cotangent).transpose(2, 0, 1), reverse=True)
    # nu[j] meets the state entering step j: states[j - 1], or zero for j = 0.
    s = nu[1:].transpose(1, 2, 0) @ states[:-1].transpose(1, 0, 2)
    q = np.tensordot(ground, nu, axes=1)

    lam, dt = disc.lam, disc.dt
    half = 0.5 * dt * (lam[:, :, None] - lam[:, None, :])
    # e_k - e_l = 2 exp(dt (lam_k + lam_l) / 2) sinh(half) loses no digits
    # as lam_k -> lam_l; near the confluent limit the series of
    # sinh(half) / half is exact to rounding.
    confluent = np.abs(half) < 1e-4
    sinhc = np.where(confluent, 1.0 + half**2 / 6.0,
                     np.sinh(half) / np.where(confluent, 1.0, half))
    l_dd = dt * np.exp(0.5 * dt * (lam[:, :, None] + lam[:, None, :])) * sinhc
    # Leibniz rule on lam * psi = e - 1 gives psi's divided difference.
    psi = (disc.e - 1.0) / lam
    psi_dd = (l_dd - psi[:, None, :]) / lam[:, :, None]
    vinv_low = disc.vinv[:, :, n:]  # vinv @ b_in = -vinv_low.sum(axis=2)
    g = l_dd * s - psi_dd * (q[:, :, None] * vinv_low.sum(axis=2)[:, None, :])
    # Only the acceleration rows of the state matrix depend on parameters.
    h = np.real(vinv_low.transpose(0, 2, 1) @ g @ disc.vec.transpose(0, 2, 1))
    for row in disc.dense:
        h[row] = _expm_adjoint(disc.a[row], dt, s[row].real, q[row].real)[n:]
    h += np.real(cotangent @ states.transpose(1, 0, 2) @ disc.vec.transpose(0, 2, 1))
    h *= -1.0 / disc.mass[:, None]
    pats = story_patterns(n)
    return np.concatenate([np.einsum("sij,bij->bs", pats, h[:, :, :n]),
                           np.einsum("sij,bij->bs", pats, h[:, :, n:])], axis=1)


def simulate_accelerations(b: ShearBuilding, d: Dataset) -> np.ndarray:
    """Clean total accelerations at the observed dofs, (n_obs, n_steps)."""
    disc = discretize_batch(b.mass, b.stiffness[None, :], b.damping[None, :], d.dt)
    y, _ = run_batch(disc, d.ground_accel)
    return y[0, list(d.observed_dofs), :]


def generate_dataset(cfg: DatasetConfig, rng: np.random.Generator):
    """Synthetic dataset with ground truth drawn near ``cfg.building``.

    Ground motion is i.i.d. zero-mean Gaussian per step. True stiffness and
    damping are nominal times (1 + cov * z) with independent standard
    normal z, redrawn in the vanishingly rare case of a non-positive draw.
    Measurement noise is i.i.d. Gaussian with standard deviation equal to
    the channel-averaged rms of the clean response times noise_ratio.
    """
    b_nominal = cfg.building
    nt = cfg.n_steps
    n = cfg.n_stories
    obs = cfg.observed_dofs if cfg.observed_dofs is not None else (0, n - 1)
    obs = tuple(sorted(set(int(i) for i in obs)))

    ground = rng.normal(0.0, cfg.ground_std, nt)

    def perturb(nominal):
        z = rng.standard_normal(n)
        vals = nominal * (1.0 + cfg.perturbation_cov * z)
        while np.any(vals <= 0):
            bad = vals <= 0
            vals[bad] = nominal[bad] * (1.0 + cfg.perturbation_cov * rng.standard_normal(bad.sum()))
        return vals

    k_true = perturb(b_nominal.stiffness)
    c_true = perturb(b_nominal.damping)
    b_true = ShearBuilding(stiffness=k_true, damping=c_true, mass=b_nominal.mass)

    clean_all, _ = run_batch(
        discretize_batch(b_true.mass, k_true[None, :], c_true[None, :], cfg.dt), ground
    )
    clean = clean_all[0, list(obs), :]
    rms = float(np.mean(np.sqrt(np.mean(clean**2, axis=1))))
    noise_std = rms * cfg.noise_ratio
    noisy = clean + rng.normal(0.0, 1.0, clean.shape) * noise_std

    dataset = Dataset(
        ground_accel=ground,
        observed_dofs=obs,
        measurements=noisy,
        dt=cfg.dt,
        noise_ratio=cfg.noise_ratio,
    )
    truth = {
        "stiffness": k_true,
        "damping": c_true,
        "noise_std": noise_std,
        "rms": rms,
    }
    return dataset, truth


def save_dataset(path, dataset: Dataset, truth: dict | None = None) -> None:
    """Write the dataset as CSV plus a key-value sidecar.

    CSV columns: time, ground, y_1..y_No, one row per step. The sidecar
    (<path>.meta.json) carries dt, observed dofs, noise ratio and, when
    given, the ground-truth parameters.
    """
    path = Path(path)
    nt = dataset.n_steps
    time = (np.arange(nt) + 1) * dataset.dt
    cols = [time, dataset.ground_accel] + [dataset.measurements[i] for i in range(dataset.n_obs)]
    header = ",".join(["time", "ground"] + [f"y_{i + 1}" for i in range(dataset.n_obs)])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")
    meta = {
        "dt": dataset.dt,
        "observed_dofs": list(dataset.observed_dofs),
        "noise_ratio": dataset.noise_ratio,
    }
    if truth is not None:
        meta["truth"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in truth.items()
        }
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=1))


def load_dataset(path):
    """Inverse of save_dataset; returns (Dataset, truth-or-None)."""
    path = Path(path)
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    n_obs = raw.shape[1] - 2
    dataset = Dataset(
        ground_accel=raw[:, 1],
        observed_dofs=tuple(meta["observed_dofs"]),
        measurements=raw[:, 2 : 2 + n_obs].T,
        dt=float(meta["dt"]),
        noise_ratio=float(meta["noise_ratio"]),
    )
    truth = meta.get("truth")
    if truth is not None:
        truth = {
            k: (np.asarray(v, dtype=float) if isinstance(v, list) else v)
            for k, v in truth.items()
        }
    return dataset, truth
