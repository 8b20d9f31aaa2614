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
and damping costs one reverse march in the same slots plus a few
record-long products; the rest of the pullback works on arrays over
pairs of slots and is reduced to the tridiagonal entries the stories
touch (see response_vjp). Buildings whose eigenbasis is ill-conditioned
step through matrix exponentials in the physical basis instead, step by
step after the product.

What an energy call repeats is built once: the readout map once per
discretized batch, the record's window matrix once per record, and the
gradient's work arrays by the caller once per shape (vjp_buffers), as
target does.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


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
        for key in ("k0", "mass", "sigma0"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        for key in ("noise_ratio", "ground_std"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be nonnegative")
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

    readout(dofs) gives the map from slots to accelerations; run_batch and
    response_vjp share it, so it is formed once per batch and dofs.
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
    _readouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def readout(self, dofs=None) -> np.ndarray:
        """Real R, (batch, len(dofs), 2 slots), with y = R @ z.view(float).

        y = 2 Re(c @ vec @ z) for the acceleration rows c of a at the floors
        dofs, every floor for None.
        """
        n = self.mass.size
        key = tuple(range(n) if dofs is None else np.asarray(dofs, dtype=int).tolist())
        r = self._readouts.get(key)
        if r is None:
            rows = n + np.array(key, dtype=int)
            r = self._readouts[key] = 2.0 * (self.a[:, rows] @ self.vec).conj().view(float)
        return r


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
    minv = 1.0 / mass
    a = np.zeros((nb, 2 * n, 2 * n))
    np.einsum("bii->bi", a[:, :n, n:])[...] = 1.0
    # Story s joins floor s to the one below it (the ground for s = 0), so
    # floor i's row of -M^-1 K holds -(k_i + k_{i+1}) / m_i on the diagonal
    # and k_{i+1} / m_i next to it; the same for damping. The diagonals of
    # both blocks are written at once.
    low = a[:, n:].reshape(nb, n, 2, n)  # [floor, stiffness or damping, dof]
    story = np.concatenate([ks, cs], axis=1).reshape(nb, 2, n)
    both = story.copy()
    both[..., :-1] += story[..., 1:]
    np.einsum("bixi->bxi", low)[...] = -minv * both
    np.einsum("bixi->bxi", low[:, :-1, :, 1:])[...] = minv[:-1] * story[..., 1:]
    np.einsum("bixi->bxi", low[:, 1:, :, :-1])[...] = minv[1:] * story[..., 1:]

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
    if dense.size:
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
    from scipy.linalg import expm  # only ill-conditioned rows load scipy

    full = expm(_input_block(a) * dt)
    return full[:-1, :-1], full[:-1, -1]


def _expm_adjoint(a, dt, s, q):
    """Gradient over a of <ad, s> + <bd, q>, with (ad, bd) as in _discretize_expm.

    The adjoint of the Frechet derivative of expm at X is the one at X^T, so
    one derivative (Al-Mohy & Higham 2009) gives every parameter's gradient.
    """
    from scipy.linalg import expm_frechet  # as in _discretize_expm

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
    dense, adt = disc.dense, disc.ad.transpose(0, 2, 1)
    m = adt.shape[-1]
    carried = np.empty_like(e)
    # The steps' views are made at once; per step the loop then costs two
    # numpy calls.
    steps = list(inputs)
    prev = steps[-1]
    for cur in steps[-2::-1]:
        cur += np.multiply(e, prev, out=carried)  # e is 0 on dense rows
        if dense.size:
            cur.view(float)[dense, :m] += np.einsum(
                "bij,bj->bi", adt, prev.view(float)[dense, :m])
        prev = cur
    return inputs


@functools.lru_cache(maxsize=2)
def _windows(record: bytes) -> np.ndarray:
    """The (n_steps, L) matrix of the ground record's windows a_{j-k},
    k < L = ceil(sqrt(n_steps)), zero before the record starts (see
    run_batch). Keyed on the record's bytes, so it is built once per
    dataset; read-only, as every caller shares it.
    """
    ground = np.frombuffer(record)
    span = math.isqrt(max(ground.size - 1, 0)) + 1
    padded = np.concatenate([np.zeros(span - 1), ground])
    windows = np.lib.stride_tricks.sliding_window_view(padded, span)
    windows = windows[:, ::-1].copy()
    windows.flags.writeable = False
    return windows


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
    product's width against the carry's count. The window matrix depends
    on the record alone and is built once per record (_windows). Dense
    rows have e = 0, so the product leaves them bd * a_j and their ad
    steps follow.
    """
    windows = _windows(np.asarray(ground, dtype=float).tobytes())
    nt, span = windows.shape
    nb, w = disc.e.shape
    states = np.empty((nt, nb, w), dtype=complex) if out is None else out
    powers = np.empty((span, nb, w), dtype=complex)
    powers[0] = disc.beta
    powers[1:] = disc.e
    np.cumprod(powers, axis=0, out=powers)
    np.matmul(windows, powers.view(float).reshape(span, 2 * nb * w),
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
    y = disc.readout(dofs) @ states.view(float).transpose(1, 2, 0)
    return y, states


@dataclass(frozen=True)
class VjpBuffers:
    """Work arrays of one response_vjp call, reusable across calls of one
    (n_steps, batch, n_floors, slots) shape; see vjp_buffers."""

    march: np.ndarray
    st: np.ndarray
    pairs: np.ndarray
    gap_abs: np.ndarray
    far: np.ndarray
    proj: np.ndarray
    h: np.ndarray


def vjp_buffers(n_steps: int, batch: int, n_floors: int, slots: int) -> VjpBuffers:
    """Uninitialized work arrays for response_vjp: the adjoint march
    (n_steps, batch, 2 slots), S^T (batch, 2 slots, 2 slots), four complex
    (batch, slots, 2 slots) arrays over pairs of slots with a float and a
    bool one, and the (batch, n_floors, 2 slots) and
    (batch, n_floors, 2 n_floors) projections."""
    pair = (batch, slots, 2 * slots)
    return VjpBuffers(
        march=np.empty((n_steps, batch, 2 * slots)),
        st=np.empty((batch, 2 * slots, 2 * slots)),
        pairs=np.empty((4,) + pair, dtype=complex),
        gap_abs=np.empty(pair),
        far=np.empty(pair, dtype=bool),
        proj=np.empty((batch, n_floors, 2 * slots), dtype=complex),
        h=np.empty((batch, n_floors, 2 * n_floors), dtype=complex),
    )


# Below this |dt (lam_k - lam_l) / 2| the divided difference of exp(lam dt)
# comes from its series, whose first omitted term is then below 3e-18;
# above it, (e_k - e_l) / (lam_k - lam_l) loses at most eps / 0.2.
_SERIES_HALF_GAP = 0.1
_SERIES_TERMS = 5


def response_vjp(disc: Discretized, ground: np.ndarray, states: np.ndarray,
                 cotangent: np.ndarray, dofs=None, out=None) -> np.ndarray:
    """Gradient of sum(cotangent * y) over story stiffness and damping.

    y and states come from run_batch(disc, ground, dofs); cotangent has y's
    shape. Returns (batch, 2 n_floors): every story stiffness, then every
    story damping. The march is real-linear on the float view of the
    state, so its adjoint xi_j = P^T xi_{j+1} + R^T cotangent_j (R from
    disc.readout) marches back in the same slots. Over the full spectrum,
    let S = sum_j nu_j z_j^T and q = sum_j nu_j a_j, with z_j the modal
    state entering step j and nu_j the modal adjoint: conj(xi_j) / 2 for
    the upper member of a pair and its conjugate for the lower one,
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
    sum_j cotangent_j x_{j+1}^T at the dofs rows.

    The pullback is fused: s comes from S's complex view in four
    operations; L takes exp(dt (lam_k + lam_l) / 2) as a product of
    per-slot factors and its difference quotient from the e already in
    disc; Psi's comes from L by the Leibniz rule; the two halves of the
    projection fold into one product with vec. Only the acceleration rows
    of the state matrix depend on parameters, and of those only the
    entries of the tridiagonal stiffness and damping blocks, so the
    result is reduced through their diagonals. The work arrays come from
    out when given (vjp_buffers of this call's shape), otherwise from new
    ones.
    """
    n, (nb, w) = disc.mass.size, disc.e.shape
    readout = disc.readout(dofs)
    dofs = np.arange(n) if dofs is None else np.asarray(dofs, dtype=int)
    work = vjp_buffers(cotangent.shape[2], nb, n, w) if out is None else out
    # Laid out per step, as the march reads it.
    xi = work.march
    np.matmul(cotangent.transpose(0, 2, 1), readout, out=xi.transpose(1, 0, 2))
    _march(disc, xi.view(complex))
    zf = states.view(float)
    # xi[j] meets the state entering step j: states[j - 1], or zero for j = 0.
    st = np.matmul(zf[:-1].transpose(1, 2, 0), xi[1:].transpose(1, 0, 2), out=work.st)  # S^T
    qf = (np.asarray(ground, dtype=float) @ xi.reshape(xi.shape[0], -1)).reshape(nb, 2 * w)
    q = qf.view(complex).conj()

    # The slots' rows of S against [slots, conjugate slots] are
    # sum conj(xi) z and sum conj(xi) conj(z); twice over for pairs, whose
    # conjugate rows are not formed. Rows 2l and 2l + 1 of S^T's complex
    # view hold sum Re(z_l) xi and sum Im(z_l) xi.
    s, gap, l_dd, acc = work.pairs
    stc = st.view(complex)
    s_up, s_low = s[..., :w].transpose(0, 2, 1), s[..., w:].transpose(0, 2, 1)
    np.multiply(stc[:, 1::2], 1j, out=s_low)
    np.subtract(stc[:, 0::2], s_low, out=s_up)
    np.add(stc[:, 0::2], s_low, out=s_low)
    np.conjugate(s, out=s)

    # Per slot, over [slots, conjugate slots]: lam, e (0 on dense rows),
    # exp(lam dt / 2) and vinv @ b_in.
    dt = disc.dt
    vinv_low = disc.vinv[:, :, n:]
    up = disc.lam[:, :w]
    slots = np.concatenate([up, disc.e, np.exp(0.5 * dt * up), -vinv_low.sum(axis=2)],
                           axis=1).reshape(nb, 4, w)
    lam, e, root, vinv_b = np.concatenate([slots, slots.conj()], axis=2).transpose(1, 0, 2)
    # L_kl = dt exp(dt (lam_k + lam_l) / 2) sinh(x) / x with
    # x = dt (lam_k - lam_l) / 2, by the series of sinh(x) / x for every
    # pair; where the pair is far apart, (e_k - e_l) / (lam_k - lam_l)
    # replaces it. Near critical damping the closest pairs are
    # (lam, conj(lam)), in the upper-lower block.
    np.subtract(up[:, :, None], lam[:, None, :], out=gap)
    far = np.greater_equal(np.abs(gap, out=work.gap_abs), 2.0 * _SERIES_HALF_GAP / dt,
                           out=work.far)
    np.multiply(gap, gap, out=acc)
    # Horner on gap^2: term m is dt (dt / 2)^2m / (2m + 1)!.
    coef = [dt]
    for m in range(1, _SERIES_TERMS):
        coef.append(coef[-1] * (0.5 * dt) ** 2 / ((2 * m) * (2 * m + 1)))
    np.multiply(acc, coef[-1], out=l_dd)
    for c in coef[-2:0:-1]:
        l_dd += c
        l_dd *= acc
    l_dd += coef[0]
    l_dd *= root[:, :w, None]
    l_dd *= root[:, None, :]
    np.divide(np.subtract(e[:, :w, None], e[:, None, :], out=acc), gap, out=l_dd, where=far)

    # Leibniz rule on lam * psi = e - 1 gives psi's divided difference
    # (L_kl - psi_l) / lam_k.
    np.subtract(l_dd, ((e - 1.0) / lam)[:, None, :], out=acc)
    acc *= np.multiply((q / up)[:, :, None], vinv_b[:, None, :], out=gap)
    s *= l_dd
    s += acc
    proj = np.matmul(vinv_low.transpose(0, 2, 1), s, out=work.proj)
    for row in disc.dense:
        proj[row] = 0.0
    # Re(P [vec, conj(vec)]^T) = Re((P_1 + conj(P_2)) vec^T) for P's
    # halves P_1, P_2; the output map adds 2 sum_j cotangent_j z_{j+1}^T.
    pf = np.conjugate(proj[..., w:], out=proj[..., w:])
    pf += proj[..., :w]
    out_map = np.empty((nb, dofs.size, 2 * w))
    np.matmul(zf.transpose(1, 2, 0), cotangent.transpose(0, 2, 1),
              out=out_map.transpose(0, 2, 1))
    # A repeated dof's rows add up on its floor.
    np.add.at(pf, (slice(None), dofs), 2.0 * out_map.view(complex))
    pf *= -1.0 / disc.mass[:, None]
    h = np.matmul(pf, disc.vec.transpose(0, 2, 1), out=work.h).real
    for row in disc.dense:
        h[row] -= _expm_adjoint(disc.a[row], dt, st[row, :2 * n, :2 * n].T,
                                qf[row, :2 * n])[n:] / disc.mass[:, None]
    # K = sum_s k_s P_s with P_s = (f_s - f_{s-1})(f_s - f_{s-1})^T for the
    # unit vectors f of the floors (f_{-1} = 0), so story s's gradient is
    # h_ss + h_{s-1,s-1} - h_{s,s-1} - h_{s-1,s} in each block.
    h = h.reshape(nb, n, 2, n)  # [floor, stiffness or damping, floor]
    diag = np.einsum("bixi->bxi", h)
    grad = diag.copy()
    grad[..., 1:] += (diag[..., :-1] - np.einsum("bixi->bxi", h[:, 1:, :, :-1])
                      - np.einsum("bixi->bxi", h[:, :-1, :, 1:]))
    return grad.reshape(nb, 2 * n)


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
