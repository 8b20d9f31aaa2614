"""Meta-training of the strategy networks on a sampling task.

The networks are trained to minimize a variational objective over short
chain segments: the mean potential energy of the generated states plus
the mean log of a kernel density fitted to them, which together bound the
KL divergence from the sampled distribution to the target.  Gradients
flow through one update step per sample (earlier steps are treated as
constants), the density's own dependence on the samples enters through a
kernelized score estimate, and one optimizer update is applied per
sub-epoch from the averaged segment gradients.  A segment advances its
chains with the sampler's own step (``samplers.am_update`` and
``samplers._advance``), and its weight gradient is one hand-written
vector-Jacobian product over all of its recorded steps at once
(``am_update_vjp``), which the tests pin to central differences.

A replay buffer of past chain states supplies restarts, both for the
periodic reinitialization that keeps the training distribution broad and
for replacing chains that diverge.
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import evaluation
from . import samplers
from . import strategy as sn
from .adaptive import check_rates


# --- kernelized score estimation ---------------------------------------------


def stein_gradient(samples: np.ndarray, *, bandwidth_scale: float = 4.0,
                   ridge: float = 0.1) -> np.ndarray:
    """Estimated gradients of the log sample density at each sample.

    Uses the inverse-kernel score estimator with a Gaussian kernel whose
    squared bandwidth is ``bandwidth_scale`` times the squared median
    pairwise distance; the defaults keep the per-dimension error under
    0.3 on a 500-point standard-normal benchmark.  The ridge is scaled
    by the mean kernel diagonal and grows tenfold (with a warning)
    whenever the regularized system fails to produce finite scores.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or len(x) < 2:
        raise ValueError("need a (n, d) sample matrix with n >= 2")
    n = len(x)
    centered = x - x.mean(axis=0)
    sq = evaluation.sq_distances(centered, centered)
    np.fill_diagonal(sq, 0.0)  # the BLAS form leaves rounding there
    med = float(np.median(np.sqrt(sq[~np.eye(n, dtype=bool)])))
    h2 = bandwidth_scale * med**2 if med > 0 else 1.0
    kern = np.exp(-sq / (2.0 * h2))
    # B_jd = sum_i dK(x_i, x_j)/dx_{i,d}
    b = (kern.sum(axis=0)[:, None] * x - kern.T @ x) / h2
    lam = ridge * float(np.trace(kern)) / n
    for _ in range(8):
        try:
            scores = -np.linalg.solve(kern + lam * np.eye(n), b)
        except np.linalg.LinAlgError:
            scores = None
        if scores is not None and np.all(np.isfinite(scores)):
            return scores
        lam *= 10.0
        warnings.warn(f"score system ill conditioned, ridge raised to {lam:.3g}")
    raise np.linalg.LinAlgError("score estimate stayed non-finite")


def entropy_terms(samples: np.ndarray, m_skip: int, *,
                  bandwidth_scale: float = 4.0, ridge: float = 0.1) -> dict:
    """Density values and score rows for the entropy part of the loss.

    ``samples`` has shape (S+1, K, D): row 0 holds the segment's starting
    states and row s the states after s recorded steps.  The density at
    index s is fitted to rows 0..s only, so adding later samples never
    changes earlier terms.  Returns {s: (mean log density at row s,
    score rows for row s)} for s = m_skip+1 .. S.
    """
    s_total = samples.shape[0] - 1
    k = samples.shape[1]
    out = {}
    for s in range(m_skip + 1, s_total + 1):
        centers = samples[: s + 1].reshape(-1, samples.shape[2])
        kde = evaluation.fit_cop(centers)
        logq = kde.log_density(samples[s])
        scores = stein_gradient(centers, bandwidth_scale=bandwidth_scale,
                                ridge=ridge)[-k:]
        out[s] = (float(np.mean(logq)), scores)
    return out


# --- optimizer ----------------------------------------------------------------


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def clip_by_norm(grad: np.ndarray, limit: float):
    """(grad scaled down to norm ``limit`` if it is longer and limit > 0,
    the norm of grad).  A finite gradient whose sum of squares overflows
    still gets its finite norm, so it is scaled down, not zeroed."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(grad))
    if np.isinf(norm) and np.isfinite(grad).all():
        top = float(np.abs(grad).max())
        norm = top * float(np.linalg.norm(grad / top))
    if limit > 0 and norm > limit:
        grad = grad * (limit / norm)
    return grad, norm


def adam_step(params, grad, state: AdamState, lr: float, betas,
              eps: float = 1e-8, mask=None):
    """One bias-corrected moment update; masked-out entries keep both
    their value and their moments."""
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    b1, b2 = betas
    t = state.t + 1
    m = state.m.copy()
    v = state.v.copy()
    if mask is None:
        mask = np.ones(params.size, dtype=bool)
    m[mask] = b1 * m[mask] + (1.0 - b1) * grad[mask]
    v[mask] = b2 * v[mask] + (1.0 - b2) * grad[mask] ** 2
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    out = params.copy()
    out[mask] -= lr * m_hat[mask] / (np.sqrt(v_hat[mask]) + eps)
    return out, AdamState(m, v, t)


# --- replay buffer --------------------------------------------------------------


class ReplayBuffer:
    """FIFO store of full chain states (theta, p, u, grad)."""

    def __init__(self, capacity: int = 10000):
        self._buf: deque = deque(maxlen=int(capacity))

    def __len__(self) -> int:
        return len(self._buf)

    def push_rows(self, theta, p, u, grad) -> None:
        for i in range(len(theta)):
            self._buf.append((np.array(theta[i]), np.array(p[i]),
                              float(u[i]), np.array(grad[i])))

    def sample(self, rng: np.random.Generator):
        if not self._buf:
            raise IndexError("replay buffer is empty")
        return self._buf[int(rng.integers(len(self._buf)))]


# --- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class TrainingConfig:
    """Schedule and hyperparameters of one training run.

    K0 chains advance in segments of T_T steps; every tau-th state of K of
    them enters the loss, whose density term skips the first M of those.
    ``M_Q``, ``M_D``, ``c1``, ``c2``, ``hidden``, ``use_shortcut`` and
    ``n_rbf`` shape the strategy networks (``strategy``).
    """

    K0: int = 64
    K: int = 10
    epochs: int = 100
    sub_epochs: int = 10
    steps_per_sub_epoch: int = 90
    T_T: int = 15
    tau: int = 1
    M: int = 3
    eta: float = samplers.DEFAULT_ETA
    lr: float = 0.01
    betas: tuple = (0.5, 0.75)
    grad_clip: float = 10.0
    replay_prob: float = 0.2
    replay_capacity: int = 10000
    adapt_epochs: int = 50
    adapt_last: int = 6
    betas_theta: tuple = (0.99, 0.999)
    betas_u: tuple = (0.99, 0.998)
    v0_star: float = 1.0
    detach_gamma: bool = False
    stein_bandwidth: float = 4.0
    stein_ridge: float = 0.1
    M_Q: float = 100.0
    M_D: float = 30.0
    c1: float = 0.01
    c2: float = 0.01
    hidden: tuple = (10, 10, 10)
    use_shortcut: bool = False
    n_rbf: int = 8

    def __post_init__(self):
        for name in ("K0", "K", "epochs", "sub_epochs", "steps_per_sub_epoch",
                     "T_T", "tau"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.K > self.K0:
            raise ValueError("K cannot exceed K0")
        if self.steps_per_sub_epoch % self.T_T != 0:
            raise ValueError("steps_per_sub_epoch must be a multiple of T_T")
        if self.T_T < self.tau:
            raise ValueError("T_T must be at least tau, so a segment records "
                             "a state")
        if self.M < 0:
            raise ValueError("M must be nonnegative")
        if self.adapt_last > self.sub_epochs:
            raise ValueError("adapt_last cannot exceed sub_epochs")
        if self.eta <= 0 or self.lr <= 0:
            raise ValueError("eta and lr must be positive")
        if not 0 <= self.replay_prob <= 1:
            raise ValueError("replay_prob must lie in [0, 1]")
        for name in ("betas", "betas_theta", "betas_u"):
            check_rates(getattr(self, name), name)
        if self.v0_star is not None and self.v0_star < 0:
            raise ValueError("v0_star must be nonnegative")

    @property
    def strategy(self) -> sn.StrategyConfig:
        return sn.StrategyConfig(m_q=self.M_Q, m_d=self.M_D, c1=self.c1,
                                 c2=self.c2, hidden=tuple(self.hidden),
                                 use_shortcut=self.use_shortcut,
                                 n_rbf=self.n_rbf)


# --- one differentiable segment ---------------------------------------------------


def am_update_vjp(nets: sn.StrategyNets, theta, p, grad, u_hat, du_star, sig,
                  xi, eta: float, oh, detach_gamma: bool = False):
    """``samplers.am_update`` on (N, D) rows, with its pullback to the weights.

    Each row carries its own normalized inputs (``u_hat`` (N,), ``du_star``)
    and scales ``sig`` (N, D), so rows taken under different statistics
    stack into one call.  Returns (theta1, finite, pullback):
    ``finite`` says that every forward value, network outputs and tangents
    included, is finite, and ``pullback(cot)`` gives the gradient of
    sum(cot * theta1) over ``sn.get_trainable_flat(nets)``.

    The weights reach theta1 = theta + eta G^ p1 - eta dG^/dp through G^
    and dG^/dp at p1, through p1 itself (also G^'s momentum channel, so the
    squash's second derivative enters), and through p1's G, dG/dtheta
    (Q-net), C, dC/dp (D-net) and sqrt(2 eta C) xi; ``detach_gamma`` holds
    Gamma = dG/dtheta + dC/dp constant.
    """
    cfg = nets.cfg
    q_acts, d_acts, h_acts = [], [], []
    o_g, ot_g = sn._q_logits(nets, u_hat, p, oh, du_seed=du_star / sig,
                             acts=q_acts)
    o_c, ot_c = sn._d_logits(nets, u_hat, p, du_star, oh, dp_seed=1.0,
                             acts=d_acts)
    # For y = c + m * sigmoid(5 o): dy/do = m a1(o), d2y/do2 = m a2(o).
    s_g, s_c = sn._expit(5.0 * o_g), sn._expit(5.0 * o_c)
    a1_g, a1_c = 5.0 * s_g * (1.0 - s_g), 5.0 * s_c * (1.0 - s_c)
    g = sig * (cfg.c1 + cfg.m_q * s_g)
    c = cfg.c2 + cfg.m_d * s_c
    gamma = sig * (cfg.m_q * a1_g * ot_g) + cfg.m_d * a1_c * ot_c
    p1 = samplers.momentum_update(p, grad, eta, g, c, gamma, xi)
    o_h, ot_h = sn._q_logits(nets, u_hat, p1, oh, dp_seed=1.0, acts=h_acts)
    s_h = sn._expit(5.0 * o_h)
    a1_h = 5.0 * s_h * (1.0 - s_h)
    g_hat = sig * (cfg.c1 + cfg.m_q * s_h)
    theta1 = samplers.position_update(theta, p1, eta, g_hat,
                                      sig * (cfg.m_q * a1_h * ot_h))
    finite = all(np.isfinite(x).all() for x in
                 (o_g, ot_g, o_c, ot_c, p1, o_h, ot_h, theta1))

    def a2(s):
        return 25.0 * s * (1.0 - s) * (1.0 - 2.0 * s)

    def pullback(cot):
        q_scale = sig * cfg.m_q
        # theta1 = theta + eta g_hat p1 - eta g_hat_p with
        # g_hat_p = q_scale a1(o_h) ot_h
        bar_g_hat_p = -eta * cot
        bar_o = q_scale * (eta * cot * p1 * a1_h + bar_g_hat_p * a2(s_h) * ot_h)
        h_layers, h_sc, bar_x, bar_xt = sn._fast_backward(
            nets.q_layers, nets.q_shortcut, h_acts, bar_o,
            q_scale * bar_g_hat_p * a1_h)
        _, dip = sn._squash_p_np(p1)
        bar_p1 = (eta * cot * g_hat + bar_x[1] * dip
                  + bar_xt[1] * sn._squash_p_curvature(p1))
        # p1 = (1 - eta c) p - eta g grad + eta gamma + sqrt(2 eta c) xi
        bar_c = bar_p1 * (eta * xi / np.sqrt(2.0 * eta * c) - eta * p)
        bar_gamma = 0.0 if detach_gamma else eta * bar_p1
        bar_o_g = q_scale * (bar_gamma * a2(s_g) * ot_g - eta * bar_p1 * grad * a1_g)
        bar_o_c = cfg.m_d * (bar_gamma * a2(s_c) * ot_c + bar_c * a1_c)
        q_layers, q_sc, _, _ = sn._fast_backward(
            nets.q_layers, nets.q_shortcut, q_acts, bar_o_g,
            bar_gamma * q_scale * a1_g)
        d_layers, d_sc, _, _ = sn._fast_backward(
            nets.d_layers, nets.d_shortcut, d_acts, bar_o_c,
            bar_gamma * cfg.m_d * a1_c)
        parts = ([a + b for a, b in zip(q_layers, h_layers)] + d_layers
                 + [a + b for a, b in zip(q_sc, h_sc)] + d_sc)
        return np.concatenate([np.ravel(x) for x in parts])

    return theta1, finite, pullback


@dataclass
class SegmentResult:
    """States after a segment plus the loss pieces computed on it."""

    theta: np.ndarray
    p: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    diverged: np.ndarray
    grad_flat: np.ndarray | None
    loss_energy: float
    loss_entropy: float
    k_eff: int
    aborted: bool
    samples_theta: np.ndarray
    samples_p: np.ndarray
    samples_u: np.ndarray
    samples_grad: np.ndarray
    slot_ok: np.ndarray


def run_segment(theta, p, u, grad, xi_seq, nets: sn.StrategyNets,
                stats: samplers.AdaptiveStats, oh, fn, cfg: TrainingConfig,
                tape_slots, *, update_stats: bool = False,
                t0: int = 0) -> SegmentResult:
    """Advance every chain through one segment and differentiate its loss.

    ``xi_seq`` is the (T_T, K0, D) noise block, one row per chain per
    step, drawn by the caller so the segment itself is deterministic.
    ``tape_slots`` lists the chains whose recorded states carry weight
    gradients.  Chains that go non-finite freeze at their last state and
    come back flagged in ``diverged``; slots that freeze are excluded from
    the loss, and if every one freezes (or the differentiated step itself
    degenerates) the segment returns no gradient.

    Each recorded step keeps the inputs of its slots' update as that step
    saw them (the statistics may move within the segment); the weight
    gradient is then one ``am_update_vjp`` over all recorded rows, with
    the energy and score cotangents of each row summed.
    """
    # _advance never writes into its input state, so the caller's arrays
    # are not copied.
    state = samplers.ChainState(
        *(np.asarray(a, dtype=float) for a in (theta, p, u, grad)),
        np.ones(len(theta), dtype=bool))
    d = state.theta.shape[1]
    t_t = xi_seq.shape[0]
    s_total = t_t // cfg.tau
    if s_total < 1:
        raise ValueError("segment shorter than one recorded interval")
    slots = np.asarray(tape_slots, dtype=int)
    n_slots = slots.size

    slot_ok = np.ones(n_slots, dtype=bool)
    samples_theta = np.empty((s_total + 1, n_slots, d))
    samples_p = np.empty((s_total + 1, n_slots, d))
    samples_u = np.empty((s_total + 1, n_slots))
    samples_grad = np.empty((s_total + 1, n_slots, d))

    def record(s_idx):
        samples_theta[s_idx] = state.theta[slots]
        samples_p[s_idx] = state.p[slots]
        samples_u[s_idx] = state.u[slots]
        samples_grad[s_idx] = state.grad[slots]

    record(0)
    recorded: list = []

    for step in range(1, t_t + 1):
        live = np.flatnonzero(state.alive)
        if update_stats and live.size:
            stats.update(t0 + step, state.theta[live], state.u[live])
        xi = xi_seq[step - 1]
        is_recorded = step % cfg.tau == 0 and step // cfg.tau <= s_total

        pre_rows = np.flatnonzero(slot_ok) if is_recorded else None
        if pre_rows is not None and pre_rows.size:
            idx = slots[pre_rows]
            u_hat, du_star = samplers.normalize_inputs(state.u[idx],
                                                       state.grad[idx], stats)
            pre = (state.theta[idx], state.p[idx], state.grad[idx], u_hat,
                   du_star, np.broadcast_to(stats.sigma_i, (idx.size, d)),
                   xi[idx])
        else:
            pre = None

        th1, p1 = samplers.am_update(state.theta[live], state.p[live],
                                     state.u[live], state.grad[live], xi[live],
                                     cfg.eta, nets, stats, oh)
        state = samplers._advance(state, live, th1, p1, fn)

        if is_recorded:
            s_idx = step // cfg.tau
            slot_ok &= state.alive[slots]
            # A finite but runaway slot would dominate the density fit and
            # the energy sum, turning the whole segment gradient into
            # noise, so it leaves the loss just as a diverged slot does.
            slot_ok &= stats.sane_rows(state.theta[slots], state.u[slots])
            rows = np.flatnonzero(slot_ok)
            if pre is not None and rows.size:
                keep = np.isin(pre_rows, rows)
                recorded.append((s_idx, rows, [a[keep] for a in pre]))
            record(s_idx)

    diverged = ~state.alive
    survivors = np.flatnonzero(slot_ok)
    k_eff = survivors.size
    no_grad = SegmentResult(state.theta, state.p, state.u, state.grad,
                            diverged, None, float("nan"), float("nan"), k_eff,
                            False, samples_theta, samples_p, samples_u,
                            samples_grad, slot_ok)
    if k_eff == 0 or len(recorded) < s_total:
        return no_grad
    inputs = [np.concatenate(col) for col in zip(*(r[2] for r in recorded))]
    _, finite, pullback = am_update_vjp(nets, *inputs, cfg.eta, oh,
                                        cfg.detach_gamma)
    if not finite:
        no_grad.aborted = True
        return no_grad

    scale_u = 1.0 / (k_eff * s_total)
    loss_energy = float(samples_u[1:, survivors].sum() * scale_u)
    cots = {}
    for s_idx, rows, _ in recorded:
        cot = np.zeros((rows.size, d))
        member = np.isin(rows, survivors)
        cot[member] = samples_grad[s_idx][rows[member]] * scale_u
        cots[s_idx] = (cot, rows)

    loss_entropy = 0.0
    n_dens = s_total - cfg.M
    if n_dens >= 1:
        try:
            terms = entropy_terms(samples_theta[:, survivors], cfg.M,
                                  bandwidth_scale=cfg.stein_bandwidth,
                                  ridge=cfg.stein_ridge)
        except (ValueError, np.linalg.LinAlgError):
            # density fit can still fail on degenerate recorded states;
            # a lost segment is recoverable, a crashed run is not
            no_grad.aborted = True
            return no_grad
        for s_idx, (val, scores) in terms.items():
            loss_entropy += val / n_dens
            cot, rows = cots[s_idx]
            cot[np.searchsorted(rows, survivors)] += scores / (k_eff * n_dens)

    grad_flat = pullback(np.concatenate([cot for cot, _ in cots.values()]))
    if not np.all(np.isfinite(grad_flat)):
        no_grad.aborted = True
        return no_grad
    return SegmentResult(state.theta, state.p, state.u, state.grad, diverged,
                         grad_flat, loss_energy, loss_entropy, k_eff, False,
                         samples_theta, samples_p, samples_u, samples_grad,
                         slot_ok)


# --- training loop -----------------------------------------------------------------


@dataclass
class TrainResult:
    nets: sn.StrategyNets
    stats: samplers.AdaptiveStats
    history: list
    meta: dict


def _shortcut_mask(nets: sn.StrategyNets) -> np.ndarray:
    """Flat-vector mask that is False on shortcut entries."""
    parts = []
    for name, arr in sn.trainable_entries(nets):
        parts.append(np.full(np.asarray(arr).size, "_sc_" not in name))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


def _init_shortcuts(nets: sn.StrategyNets, theta, p, u, grad, stats, oh,
                    rng: np.random.Generator) -> None:
    """Place RBF centers using the squashed inputs of the current states."""
    u_hat, du_star = samplers.normalize_inputs(u, grad, stats)
    k, d = p.shape
    iu = np.broadcast_to(sn._squash_u_np(u_hat)[0][:, None], (k, d)).ravel()
    ip = sn._squash_p_np(p)[0].ravel()
    ig = sn._squash_g_np(du_star)[0].ravel()
    cats = np.broadcast_to(oh[:, None, :], (oh.shape[0], k, d)).reshape(
        oh.shape[0], -1)
    q_rows = np.column_stack([iu, ip, *cats])
    d_rows = np.column_stack([iu, ip, ig, *cats])
    nets.q_shortcut = sn.init_shortcut(q_rows, nets.cfg.n_rbf, rng)
    nets.d_shortcut = sn.init_shortcut(d_rows, nets.cfg.n_rbf, rng)


def _restart_row(buffer: ReplayBuffer, problem, fn, gen, driver):
    """Replacement state from the buffer, or a fresh prior draw."""
    if len(buffer):
        return buffer.sample(driver)
    for _ in range(20):
        th = samplers.prior_draw(problem, gen)
        pr = gen.standard_normal(problem.dimension)
        ur, gr, ok = samplers._safe_energy(fn, th[None])
        if ok[0]:
            return th, pr, float(ur[0]), gr[0]
    raise RuntimeError("could not draw a finite restart state")


def train(problem, cfg: TrainingConfig | None = None, *, seed: int = 0,
          nets: sn.StrategyNets | None = None,
          log_path=None) -> TrainResult:
    """Full training run of the strategy networks on one problem.

    The chain population advances in segments of ``T_T`` steps; each
    segment contributes one loss gradient and one optimizer update is
    applied per sub-epoch from their average.  Normalization statistics
    update during the last ``adapt_last`` sub-epochs of the first
    ``adapt_epochs`` epochs and freeze afterwards, as do the optional
    shortcut connections.  Divergence-and-restart is routine, especially
    early; the run only aborts with RuntimeError when an entire epoch
    yields no usable segment gradient, since then nothing can improve.
    """
    cfg = cfg if cfg is not None else TrainingConfig()
    d = problem.dimension
    fn = samplers.energy_fn(problem)
    oh = sn.one_hot(problem.categories, cfg.strategy.n_categories)

    gens = samplers.chain_generators(seed, cfg.K0 + 1)
    chain_gens, driver = gens[: cfg.K0], gens[cfg.K0]
    if nets is None:
        nets = sn.init_strategy(cfg.strategy, driver)

    stats = samplers.AdaptiveStats(d, samplers.StatsConfig(
        window=(0, 10**9), beta_theta=cfg.betas_theta,
        beta_u=cfg.betas_u, v0_star=cfg.v0_star, mode="training"))

    state = samplers.initialize_chains(problem, cfg.K0, chain_gens)
    theta, p = state.theta, state.p
    u, grad = state.u, state.grad
    # One unconditional update so the scales are sane from the start.
    stats.update(1, theta, u)

    buffer = ReplayBuffer(cfg.replay_capacity)
    adam = AdamState.zeros(sn.get_trainable_flat(nets).size)
    history: list = []
    n_segments = cfg.steps_per_sub_epoch // cfg.T_T
    global_step = 0
    events_total = 0
    skipped_segments = 0

    for epoch in range(1, cfg.epochs + 1):
        epoch_usable = 0
        for sub in range(1, cfg.sub_epochs + 1):
            in_window = (epoch <= cfg.adapt_epochs
                         and sub > cfg.sub_epochs - cfg.adapt_last)
            if in_window and cfg.use_shortcut and nets.q_shortcut is None:
                _init_shortcuts(nets, theta, p, u, grad, stats, oh, driver)
                adam = AdamState.zeros(sn.get_trainable_flat(nets).size)

            seg_grads = []
            e_losses = []
            h_losses = []
            sub_diverged = 0
            for _ in range(n_segments):
                slots = np.sort(driver.choice(cfg.K0, size=cfg.K,
                                              replace=False))
                xi_seq = np.stack([samplers._draw_noise(chain_gens, d)
                                   for _ in range(cfg.T_T)])
                res = run_segment(theta, p, u, grad, xi_seq, nets, stats,
                                  oh, fn, cfg, slots,
                                  update_stats=in_window, t0=global_step)
                global_step += cfg.T_T
                theta, p, u, grad = res.theta, res.p, res.u, res.grad
                for i in np.flatnonzero(res.diverged):
                    events_total += 1
                    sub_diverged += 1
                    theta[i], p[i], u[i], grad[i] = _restart_row(
                        buffer, problem, fn, chain_gens[i], driver)
                # A finite but runaway state stored in the buffer would
                # re-seed blow-ups on every restart that draws it.
                storable = (stats.sane_rows(theta, u)
                            & np.isfinite(p).all(axis=1)
                            & np.isfinite(grad).all(axis=1))
                if storable.any():
                    rows = np.flatnonzero(storable)
                    buffer.push_rows(theta[rows], p[rows], u[rows], grad[rows])
                if res.grad_flat is not None:
                    seg_grads.append(res.grad_flat)
                    e_losses.append(res.loss_energy)
                    h_losses.append(res.loss_entropy)
                    epoch_usable += 1
                else:
                    skipped_segments += 1

            grad_norm = float("nan")
            if seg_grads:
                g, grad_norm = clip_by_norm(np.mean(seg_grads, axis=0),
                                            cfg.grad_clip)
                mask = None
                if not in_window:
                    sc_mask = _shortcut_mask(nets)
                    if not sc_mask.all():
                        mask = sc_mask
                flat = sn.get_trainable_flat(nets)
                flat, adam = adam_step(flat, g, adam, cfg.lr, cfg.betas,
                                       mask=mask)
                sn.set_trainable_flat(nets, flat)

            history.append({
                "epoch": epoch, "sub_epoch": sub,
                "loss_energy": float(np.mean(e_losses)) if e_losses else float("nan"),
                "loss_entropy": float(np.mean(h_losses)) if h_losses else float("nan"),
                "grad_norm": grad_norm,
                "diverged": sub_diverged,
            })

        if epoch == cfg.adapt_epochs:
            stats.freeze()
            resize = False
            for sc in (nets.q_shortcut, nets.d_shortcut):
                if sc is not None and not sc.frozen:
                    sc.frozen = True
                    resize = True
            if resize:
                adam = AdamState.zeros(sn.get_trainable_flat(nets).size)

        if epoch_usable == 0:
            raise RuntimeError(
                f"no usable segment gradient in epoch {epoch}; "
                f"training unstable")

        if len(buffer):
            for i in range(cfg.K0):
                if driver.uniform() < cfg.replay_prob:
                    theta[i], p[i], u[i], grad[i] = buffer.sample(driver)

    if not stats.frozen:
        stats.freeze()
    if log_path is not None:
        _write_history(log_path, history)
    meta = {"seed": seed, "epochs": cfg.epochs,
            "divergence_events": events_total,
            "skipped_segments": skipped_segments}
    return TrainResult(nets, stats, history, meta)


def _write_history(path, history) -> None:
    cols = ["epoch", "sub_epoch", "loss_energy", "loss_entropy",
            "grad_norm", "diverged"]
    lines = [",".join(cols)]
    for row in history:
        lines.append(",".join(repr(row[c]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


# --- checkpointing -----------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def save_checkpoint(path, nets: sn.StrategyNets,
                    stats: samplers.AdaptiveStats, extra: dict | None = None) -> None:
    """Weights plus normalization statistics in one npz file.

    The strategy weights do not depend on the problem dimension, so a
    checkpoint trained on one structure loads for any other with the
    same category labels.
    """
    meta = {
        "format": 1,
        "strategy": _jsonable(asdict(nets.cfg)),
        "stats": _jsonable(stats.state()),
        "extra": _jsonable(extra or {}),
    }
    arrays = sn.nets_state(nets)
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path):
    """Returns (nets, stats, extra) from a saved checkpoint."""
    with np.load(path, allow_pickle=False) as zf:
        meta = json.loads(str(zf["meta"]))
        arrays = {k: zf[k] for k in zf.files if k != "meta"}
    scfg = sn.StrategyConfig(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in meta["strategy"].items()})
    nets = sn.nets_from_state(scfg, arrays)
    stats = samplers.AdaptiveStats.from_state(meta["stats"])
    return nets, stats, meta.get("extra", {})
