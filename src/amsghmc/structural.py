"""N-story linear shear building under ground excitation.

Assembles chain-topology system matrices, simulates total floor
accelerations with an exact zero-order-hold discretization of the
first-order state-space form, differentiates them by an adjoint march,
and generates synthetic noisy datasets.

The simulation core is batched: a stack of buildings sharing the same
mass vector and time step but differing in stiffness and damping is
discretized and integrated together, which is what the posterior-gradient
path needs when many MCMC chains move in parallel. Each building steps in
its diagonal modal basis. The state matrix is real, so the modes of a
conjugate pair carry conjugate amplitudes and only one of them is
kept: the physical state is twice the real part of the modal state
(see Discretized). The forward response has no per-step loop: the
ground record enters every mode through the same scalar input, so each
state is one matrix product of the record's recent window against the
powers of the mode's step factor, plus a carry from one window earlier
(see run_batch). Accelerations are read out only at the requested
floors, and the gradient of a weighted sum of them over story stiffness
and damping costs one reverse march in the same slots. Buildings whose
eigenbasis is ill-conditioned step through matrix exponentials in the
physical basis instead, step by step after the product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm, expm_frechet, toeplitz


@dataclass(frozen=True)
class ShearBuilding:
    """Story-wise physical parameters of a linear shear building; story
    stiffness and floor mass must be strictly positive."""

    stiffness: np.ndarray
    damping: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name in ("stiffness", "damping", "mass"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.stiffness.size
        if self.damping.size != n or self.mass.size != n:
            raise ValueError("stiffness, damping and mass must have equal length")
        # Damping is deliberately unchecked: the inference chain explores
        # damping values of either sign and the likelihood must stay
        # evaluable there.
        if np.any(self.stiffness <= 0):
            raise ValueError("story stiffness must be strictly positive")
        if np.any(self.mass <= 0):
            raise ValueError("floor mass must be strictly positive")

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


@dataclass
class Discretized:
    """Exact one-step propagators for a batch of buildings at fixed dt.

    Row b's continuous state matrix a[b] (2n square for n floors) has the
    eigenvalues lam[b], ordered as [upper members of the conjugate pairs
    (Im > 0), real eigenvalues, lower members in the order of their
    partners]; its last n rows map the physical state x to total floor
    accelerations. A row's state z has one complex slot per conjugate pair
    and one per real eigenvalue, w >= n slots in all (w = n when every
    mode is underdamped); a row needing fewer slots leaves the rest empty,
    with zero vec columns, vinv rows and beta. vec[b] (2n x w) holds the
    slots' eigenvectors, halved for real eigenvalues, and vinv[b]
    (w x 2n) the matching rows of the inverse, so that x = 2 Re(vec[b] @ z)
    and z = vinv[b] @ x. One zero-order-hold step is
    z <- e * z + beta * a_j, with e = exp(lam[:w] dt) and
    beta = (e - 1) / lam[:w] * (vinv[b] @ b_in) for the ground-input
    vector b_in, so the state after step j is
    z_j = sum_{k <= j} beta e^k a_{j-k}, which run_batch forms by windows
    of the record.

    The rows listed in dense have an ill-conditioned eigenbasis. They
    store their physical state in the first n slots, z.view(float)[:2n]
    = x, which their vec and vinv express by the same two formulas, and
    step by x <- ad[i] @ x + bd * a_j (i their position in dense) with
    ad[i] and bd = beta[b].view(float)[:2n] from matrix exponentials;
    their e is zero, so the windowed sum leaves them bd * a_j and the
    ad steps follow one by one.
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
    # numpy returns real arrays when every eigenvalue of the batch is real.
    lam, vec = lam.astype(complex, copy=False), vec.astype(complex, copy=False)
    # LAPACK lists each conjugate pair together, Im > 0 first, with exactly
    # conjugate eigenvalues and eigenvectors. A stable sort on the sign of
    # Im gives [upper members, real eigenvalues, lower members], the lower
    # ones in the order of their partners.
    rows = np.arange(nb)[:, None]
    order = np.argsort(np.sign(-lam.imag), axis=1, kind="stable")
    lam = lam[rows, order]
    vec = vec.transpose(0, 2, 1)[rows, order].transpose(0, 2, 1)
    vinv = np.linalg.inv(vec)
    cond1 = np.abs(vec).sum(axis=1).max(axis=1) * np.abs(vinv).sum(axis=1).max(axis=1)
    dense = np.nonzero(~(cond1 <= cond_limit))[0]
    # One slot per conjugate pair (its upper member) and per real
    # eigenvalue, then empty slots up to the widest row.
    n_up = (lam.imag > 0.0).sum(axis=1, keepdims=True)
    n_slots = 2 * n - n_up
    w = int(n_slots.max(initial=n))
    slot = np.arange(w)
    used = slot < n_slots
    real = used & (slot >= n_up)
    vec = vec[:, :, :w] * np.where(real, 0.5, used)[:, None, :]
    # The two computed rows of the inverse for a pair carry their own
    # rounding. Their conjugate mean (a real eigenvalue's row with itself)
    # keeps the reconstruction x = 2 Re(vec vinv x) as exact as the full
    # inverse's.
    partner = vinv[rows, np.where(slot < n_up, slot + n_slots, slot)]
    vinv = 0.5 * used[:, :, None] * (vinv[:, :w] + partner.conj())
    e = np.exp(lam[:, :w] * dt)
    beta = (e - 1.0) / lam[:, :w] * -vinv[:, :, n:].sum(axis=2)  # vinv @ b_in
    ad = np.empty((dense.size, 2 * n, 2 * n))
    # x = 2 Re(vec z) and z = vinv x for z.view(float)[:2n] = x.
    pack = np.zeros((2 * n, w), dtype=complex)
    pack[0::2, :n] = 0.5 * np.eye(n)
    pack[1::2, :n] = -0.5j * np.eye(n)
    for i, row in enumerate(dense):
        ad[i], bd = _discretize_expm(a[row], dt)
        beta[row] = 0.0
        beta[row, :n] = bd[0::2] + 1j * bd[1::2]
        vec[row] = pack
        vinv[row] = 2.0 * pack.T.conj()
        e[row] = 0.0
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


def _march(disc: Discretized, inputs: np.ndarray) -> np.ndarray:
    """The adjoint march: every xi of xi <- P^T xi + inputs[j] from xi = 0,
    over j = n_steps - 1, ..., 0.

    inputs is (n_steps, batch, slots) complex, one slot per mode (see
    Discretized); the march overwrites it with the adjoint states and
    returns it. P is one forward step on the float view of the state, so
    P^T multiplies a modal row by conj(e) and a dense row's float view by
    ad^T. Each row's input is its own, so unlike the forward march there
    is no shared record to window; the march stays one step at a time.
    """
    e = disc.e.conj()
    adt = disc.ad.transpose(0, 2, 1)
    m = adt.shape[-1]
    for j in range(inputs.shape[0] - 2, -1, -1):
        cur, prev = inputs[j], inputs[j + 1]
        cur += e * prev  # e is 0 on dense rows
        if disc.dense.size:
            cur.view(float)[disc.dense, :m] += np.einsum(
                "bij,bj->bi", adt, prev.view(float)[disc.dense, :m])
    return inputs


def _readout(disc: Discretized, dofs) -> np.ndarray:
    """Real R, (batch, len(dofs), 2 slots), with y = R @ z.view(float).

    y = 2 Re(c @ vec @ z) for the acceleration rows c of a at the floors
    dofs, every floor for None.
    """
    n = disc.mass.size
    rows = n + (np.arange(n) if dofs is None else np.asarray(dofs, dtype=int))
    return 2.0 * (disc.a[:, rows] @ disc.vec).conj().view(float)


def run_batch(disc: Discretized, ground: np.ndarray, dofs=None, out=None):
    """Drive the discretized batch with the ground-motion record.

    Returns (y, states): total accelerations y at the floors dofs (every
    floor for None, a repeated dof giving a repeated row) with shape
    (batch, len(dofs), n_steps), and the state after every step in each
    row's slots (see Discretized), shaped (n_steps, batch, slots), for
    response_vjp. Measurement j is the state after step j, i.e. at time
    (j+1) dt. states is written into out when given (a C-contiguous
    complex array of that shape), otherwise into a new array.

    Every mode sees the same scalar input a_j, so with windows of L steps
    z_j = sum_{k<L} beta e^k a_{j-k} + e^L z_{j-L}. The sums are one
    product of the (n_steps, L) matrix of windows a_{j-k} against the
    (L, batch * slots) powers beta e^k; the carry then runs window by
    window, n_steps / L times. L = ceil(sqrt(n_steps)) balances the
    product's width against the carry's count. Dense rows have e = 0, so
    the product leaves them bd * a_j and their ad steps follow.
    """
    ground = np.asarray(ground, dtype=float)
    nt = ground.size
    nb, w = disc.e.shape
    states = np.empty((nt, nb, w), dtype=complex) if out is None else out
    span = math.isqrt(max(nt - 1, 0)) + 1
    powers = np.empty((span, nb, w), dtype=complex)
    powers[0] = disc.beta
    powers[1:] = disc.e
    np.cumprod(powers, axis=0, out=powers)
    np.matmul(toeplitz(ground, np.zeros(span)), powers.view(float).reshape(span, 2 * nb * w),
              out=states.view(float).reshape(nt, 2 * nb * w, copy=False))
    carry = disc.e**span
    for start in range(span, nt, span):
        cur = states[start:start + span]
        cur += carry * states[start - span:start - span + len(cur)]
    if disc.dense.size:
        m = disc.ad.shape[-1]
        x = states.view(float)[:, disc.dense, :m]  # a copy, written back below
        for j in range(1, nt):
            x[j] += np.einsum("bij,bj->bi", disc.ad, x[j - 1])
        states.view(float)[:, disc.dense, :m] = x
    y = _readout(disc, dofs) @ states.view(float).transpose(1, 2, 0)
    return y, states


def response_vjp(disc: Discretized, ground: np.ndarray, states: np.ndarray,
                 cotangent: np.ndarray, dofs=None, out=None) -> np.ndarray:
    """Gradient of sum(cotangent * y) over story stiffness and damping.

    y and states come from run_batch(disc, ground, dofs); cotangent has y's
    shape. Returns (batch, 2 n_floors): every story stiffness, then every
    story damping. The march is real-linear on the float view of the
    state, so its adjoint xi_j = P^T xi_{j+1} + R^T cotangent_j (R from
    _readout) marches back in the same slots. Over the full spectrum, let
    S = sum_j nu_j z_j^T and q = sum_j nu_j a_j, with z_j the modal state
    entering step j and nu_j the modal adjoint: conj(xi_j) / 2 for the
    upper member of a pair and its conjugate for the lower one,
    conj(xi_j) for a real eigenvalue. A modal row's gradient over its
    continuous state matrix is then
    Re(V^-T (L * S + Psi * q (V^-1 b_in)^T) V^T), where V is the
    eigenvector matrix and L and Psi hold the divided differences of
    exp(lam dt) and (exp(lam dt) - 1) / lam over pairs of eigenvalues
    (Najfeld & Havel 1995). The rows of a lower member are the conjugates
    of its partner's, so only the slots' rows are formed, against the
    columns [slots, conjugate slots]; a real eigenvalue's column appears
    in both halves with half its eigenvector. Dense rows take the
    gradient from _expm_adjoint. The output map adds
    sum_j cotangent_j x_{j+1}^T at the dofs rows. The adjoint march runs
    in out when given, a C-contiguous float array shaped
    (n_steps, batch, 2 slots), otherwise in a new array.
    """
    n, w = disc.mass.size, disc.e.shape[1]
    ground = np.asarray(ground, dtype=float)
    dofs = np.arange(n) if dofs is None else np.asarray(dofs, dtype=int)
    readout = _readout(disc, dofs)
    # Laid out per step, as the march reads it.
    inputs = np.empty((cotangent.shape[2],) + readout.shape[::2]) if out is None else out
    np.matmul(cotangent.transpose(0, 2, 1), readout, out=inputs.transpose(1, 0, 2))
    xi = _march(disc, inputs.view(complex)).view(float)
    zf = states.view(float)
    # xi[j] meets the state entering step j: states[j - 1], or zero for j = 0.
    sf = xi[1:].transpose(1, 2, 0) @ zf[:-1].transpose(1, 0, 2)
    qf = np.tensordot(ground, xi, axes=1)

    # The slots' rows of S against [slots, conjugate slots] and of q;
    # twice over for pairs, whose conjugate rows are not formed.
    blocks = sf.reshape(sf.shape[0], w, 2, w, 2)
    rr, ri, ir, ii = (blocks[:, :, u, :, v] for u in (0, 1) for v in (0, 1))
    s = np.concatenate([(rr + ii) + 1j * (ri - ir), (rr - ii) - 1j * (ri + ir)], axis=2)
    q = qf.view(complex).conj()

    dt = disc.dt
    up = disc.lam[:, :w]
    lam = np.concatenate([up, up.conj()], axis=1)
    half = 0.5 * dt * (up[:, :, None] - lam[:, None, :])
    # e_k - e_l = 2 exp(dt (lam_k + lam_l) / 2) sinh(half) loses no digits
    # as lam_k -> lam_l; near the confluent limit the series of
    # sinh(half) / half is exact to rounding. Near critical damping the
    # closest pairs are (lam, conj(lam)), in the upper-lower block.
    confluent = np.abs(half) < 1e-4
    sinhc = np.where(confluent, 1.0 + half**2 / 6.0,
                     np.sinh(half) / np.where(confluent, 1.0, half))
    l_dd = dt * np.exp(0.5 * dt * (up[:, :, None] + lam[:, None, :])) * sinhc
    # Leibniz rule on lam * psi = e - 1 gives psi's divided difference.
    psi = (np.exp(lam * dt) - 1.0) / lam
    psi_dd = (l_dd - psi[:, None, :]) / up[:, :, None]
    vinv_low = disc.vinv[:, :, n:]
    vinv_b = -vinv_low.sum(axis=2)  # vinv @ b_in
    vinv_b = np.concatenate([vinv_b, vinv_b.conj()], axis=1)
    g = l_dd * s + psi_dd * (q[:, :, None] * vinv_b[:, None, :])
    vec_t = np.concatenate([disc.vec, disc.vec.conj()], axis=2).transpose(0, 2, 1)
    # Only the acceleration rows of the state matrix depend on parameters.
    h = np.real(vinv_low.transpose(0, 2, 1) @ g @ vec_t)
    for row in disc.dense:
        h[row] = _expm_adjoint(disc.a[row], dt, sf[row, :2 * n, :2 * n], qf[row, :2 * n])[n:]
    out_map = 2.0 * np.real((cotangent @ zf.transpose(1, 0, 2)).view(complex)
                            @ disc.vec.transpose(0, 2, 1))
    # A repeated dof's rows add up on its floor.
    h += (np.arange(n)[:, None] == dofs).astype(float) @ out_map
    h *= -1.0 / disc.mass[:, None]
    pats = story_patterns(n)
    return np.concatenate([np.einsum("sij,bij->bs", pats, h[:, :, :n]),
                           np.einsum("sij,bij->bs", pats, h[:, :, n:])], axis=1)


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

    clean, _ = run_batch(
        discretize_batch(b_true.mass, k_true[None, :], c_true[None, :], cfg.dt), ground, obs
    )
    clean = clean[0]
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
