"""Chain simulation engines over batched parallel chains.

Three engines share one state layout and one arithmetic kernel for the
discretized underdamped update: a plain stochastic-gradient sampler with
constant diagonal kinetic coefficients, the meta-learned variant whose
coefficients come from the strategy networks, and a Metropolis-adjusted
Hamiltonian baseline.  K chains advance in lockstep on (K, D) arrays with
one dedicated random stream per chain, so per-chain randomness never
depends on how many chains run alongside.

A problem is anything exposing ``dimension``, ``categories``, and a
batched energy evaluation; the Bayesian updating problems of the target
module are adapted automatically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import strategy as sn
from . import target
from .adaptive import MomentEstimator, check_rates

DEFAULT_ETA = float(np.sqrt(0.001))

# A chain this many scale units away from the population is mid blow-up,
# not exploring.  The factor is relative so the screen stays covariant
# under affine reparameterization, and small enough that a row admitted
# right at the cap cannot inflate the running variance by more than a
# modest factor before it crosses and is rejected for good.
GUARD_FACTOR = 300.0


# --- adaptive normalization statistics -----------------------------------------


@dataclass(frozen=True)
class StatsConfig:
    """Window and decay settings for the in-run moment estimation."""

    window: tuple = (300, 2800)
    beta_theta: tuple = (0.99, 0.995)
    beta_u: tuple = (0.99, 0.998)
    v0_star: float | None = 1.0
    floor: float = 1e-8
    mode: str = "testing"


class AdaptiveStats:
    """Per-dimension parameter scales and potential-energy normalizers.

    Estimates update only while the step counter sits inside the
    configured window, then freeze for the rest of the run.
    """

    def __init__(self, d: int, config: StatsConfig | None = None):
        self.config = config if config is not None else StatsConfig()
        self.d = int(d)
        c = self.config
        self.theta_est = MomentEstimator(
            (self.d,), c.beta_theta[0], c.beta_theta[1],
            mode=c.mode, v0_star=c.v0_star)
        self.u_est = MomentEstimator((), c.beta_u[0], c.beta_u[1], mode=c.mode)
        self.frozen = False

    @classmethod
    def fixed(cls, sigma_i, mu_u: float, sigma_u: float) -> "AdaptiveStats":
        """Statistics that read back the given values: the estimators are
        seeded at t = 0 (variances sigma_i**2 and sigma_u**2, energy mean
        mu_u) and frozen."""
        sigma_i = np.asarray(sigma_i, dtype=float)
        obj = cls(sigma_i.size, StatsConfig(v0_star=sigma_i ** 2))
        obj.u_est.m = np.array(float(mu_u))
        obj.u_est.v = np.array(float(sigma_u) ** 2)
        obj.frozen = True
        return obj

    def update(self, t: int, theta_batch, u_batch) -> None:
        """Fold the current states in when step t lies inside the window.

        Rows rejected by ``sane_rows`` are skipped; if the whole batch is
        rejected the step contributes nothing rather than raising.
        """
        if self.frozen:
            return
        lo, hi = self.config.window
        if t > hi:
            self.frozen = True
            return
        if t < lo:
            return
        theta_batch = np.asarray(theta_batch, dtype=float)
        u_batch = np.asarray(u_batch, dtype=float)
        keep = self.sane_rows(theta_batch, u_batch)
        if keep.any():
            self.theta_est.update(theta_batch[keep])
            self.u_est.update(u_batch[keep])
        if t == hi:
            self.frozen = True

    def sane_rows(self, theta_batch, u_batch) -> np.ndarray:
        """Mask of rows that are safe to fold into the estimates.

        A row with a non-finite entry, or one sitting GUARD_FACTOR scale
        units from the rest of the population, is a chain in mid blow-up
        rather than one exploring the target; folding even one in drags
        the normalizers, and then every chain scaled by them, after it.
        With three or more finite rows the anchor is the batch median,
        which a runaway minority cannot move, and the scale is the larger
        of the current sigma and the batch MAD so a temporarily tiny or
        merely conventional sigma cannot starve the update.  Smaller
        batches offer no majority to trust, so they are screened against
        the running estimates, and only once those have ingested real
        data.
        """
        theta_batch = np.asarray(theta_batch, dtype=float)
        u_batch = np.asarray(u_batch, dtype=float)
        keep = np.isfinite(u_batch) & np.isfinite(theta_batch).all(axis=1)
        if keep.sum() >= 3:
            th = theta_batch[keep]
            uu = u_batch[keep]
            med_th = np.median(th, axis=0)
            mad_th = np.median(np.abs(th - med_th), axis=0)
            cap_th = GUARD_FACTOR * np.maximum(self.sigma_i, mad_th)
            keep &= (np.abs(theta_batch - med_th) <= cap_th).all(axis=1)
            med_u = np.median(uu)
            mad_u = np.median(np.abs(uu - med_u))
            scale_u = max(self.sigma_u if self.u_est.t >= 1 else 0.0, mad_u)
            keep &= np.abs(u_batch - med_u) <= GUARD_FACTOR * scale_u
            return keep
        if self.theta_est.t >= 1:
            cap = GUARD_FACTOR * self.sigma_i
            center = np.asarray(self.theta_est.mean)
            keep &= (np.abs(theta_batch - center) <= cap).all(axis=1)
        if self.u_est.t >= 1:
            keep &= np.abs(u_batch - self.mu_u) <= GUARD_FACTOR * self.sigma_u
        return keep

    def freeze(self) -> None:
        self.frozen = True

    @property
    def sigma_i(self) -> np.ndarray:
        var = np.maximum(np.asarray(self.theta_est.variance), 0.0)
        return np.maximum(np.sqrt(var), self.config.floor)

    @property
    def mu_u(self) -> float:
        return float(self.u_est.mean)

    @property
    def sigma_u(self) -> float:
        var = max(float(self.u_est.variance), 0.0)
        return max(np.sqrt(var), self.config.floor)

    def state(self) -> dict:
        return {
            "d": self.d,
            "frozen": self.frozen,
            "config": asdict(self.config),
            "theta_est": self.theta_est.state(),
            "u_est": self.u_est.state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "AdaptiveStats":
        cfg = state["config"]
        cfg = StatsConfig(
            window=tuple(int(x) for x in cfg["window"]),
            beta_theta=tuple(float(x) for x in cfg["beta_theta"]),
            beta_u=tuple(float(x) for x in cfg["beta_u"]),
            v0_star=cfg["v0_star"],
            floor=float(cfg["floor"]),
            mode=str(cfg["mode"]),
        )
        obj = cls(int(state["d"]), cfg)
        obj.theta_est = MomentEstimator.from_state(state["theta_est"])
        obj.u_est = MomentEstimator.from_state(state["u_est"])
        obj.frozen = bool(state["frozen"])
        return obj


def normalize_inputs(u, grad, stats: AdaptiveStats):
    """Scale-invariant network inputs: centered energy and scaled gradient.

    Returns (U_hat, dU_star) where U_hat = (U - mu_U) / (sqrt(2D) sigma_U)
    and dU_star_i = sigma_i * dU/dtheta_i / (sqrt(2D) sigma_U).
    """
    denom = np.sqrt(2.0 * stats.d) * stats.sigma_u
    u_hat = (np.asarray(u, dtype=float) - stats.mu_u) / denom
    du_star = stats.sigma_i * np.asarray(grad, dtype=float) / denom
    return u_hat, du_star


def v0_from_training(sigma_i, train_categories, test_categories,
                     scale: float = 1.0) -> np.ndarray:
    """Test-time prior variance vector seeded from frozen training scales.

    Each test dimension gets the mean squared sigma_i of the training
    dimensions sharing its category, so a network trained on an N-story
    problem starts an N'-story run with commensurate normalization.
    """
    sigma_i = np.asarray(sigma_i, dtype=float)
    train_categories = list(train_categories)
    if sigma_i.shape != (len(train_categories),):
        raise ValueError("need one training sigma_i per training dimension")
    if scale <= 0:
        raise ValueError("scale must be positive")
    by_category = {}
    for cat in set(test_categories):
        rows = [i for i, c in enumerate(train_categories) if c == cat]
        if not rows:
            raise ValueError(f"category {cat!r} absent from the training task")
        by_category[cat] = float(np.mean(sigma_i[rows] ** 2))
    return scale * np.array([by_category[c] for c in test_categories])


# --- chain state ----------------------------------------------------------------


@dataclass
class ChainState:
    """Batched chain state with cached energies; alive marks non-diverged
    chains (cached values always correspond to the stored positions)."""

    theta: np.ndarray
    p: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    alive: np.ndarray

    @property
    def k_chains(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]


def energy_fn(problem):
    """Batched (u, grad) evaluation for either problem flavor."""
    if isinstance(problem, target.UpdatingProblem):
        return lambda thetas: target.potential_energy_batch(thetas, problem)
    return problem.potential_energy_batch


def chain_generators(seed: int, k_chains: int) -> list:
    """One independent stream per chain; adding chains never perturbs the
    streams of existing ones."""
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(k_chains)]


def prior_draw(problem, gen) -> np.ndarray:
    """One chain position from the prior, or standard normal for problems
    without one."""
    if isinstance(problem, target.UpdatingProblem):
        w = target.sample_prior_ratios(problem.priors, gen, 1)[0]
        return target.map_params_to_state(w, problem.transform)
    return gen.standard_normal(problem.dimension)


def initialize_chains(problem, k_chains: int, gens, theta0=None, p0=None) -> ChainState:
    """Fresh chains: positions from ``prior_draw``, momenta standard normal."""
    d = problem.dimension
    if theta0 is None:
        theta = np.stack([prior_draw(problem, g) for g in gens])
    else:
        theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float),
                                         (k_chains, d)))
    if p0 is None:
        p = np.stack([g.standard_normal(d) for g in gens])
    else:
        p = np.array(np.broadcast_to(np.asarray(p0, dtype=float), (k_chains, d)))
    u, grad = energy_fn(problem)(theta)
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(grad))):
        raise ValueError("non-finite energy at initial states")
    return ChainState(theta, p, u, grad, np.ones(k_chains, dtype=bool))


def _draw_noise(gens, d: int) -> np.ndarray:
    return np.stack([g.standard_normal(d) for g in gens])


def _safe_energy(fn, thetas):
    """Batch evaluation as (u, grad, ok), ok marking the rows whose energy
    and gradient are finite.  When the batch raises, its rows are tried one
    by one and a row that raises again is not ok."""
    try:
        u, grad = fn(thetas)
        u, grad = np.asarray(u, dtype=float), np.asarray(grad, dtype=float)
    except (ValueError, np.linalg.LinAlgError):
        u = np.full(len(thetas), np.nan)
        grad = np.full(thetas.shape, np.nan)
        for i in range(len(thetas)):
            try:
                ui, gi = fn(thetas[i:i + 1])
                u[i], grad[i] = ui[0], gi[0]
            except (ValueError, np.linalg.LinAlgError):
                pass
    return u, grad, np.isfinite(u) & np.isfinite(grad).all(axis=1)


def _advance(state: ChainState, idx, theta1, p1, fn) -> ChainState:
    """New state from proposals for the rows in idx; rows that go
    non-finite are flagged dead and keep their last finite values."""
    theta = state.theta.copy()
    p = state.p.copy()
    u = state.u.copy()
    grad = state.grad.copy()
    alive = state.alive.copy()

    theta1 = np.asarray(theta1, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    finite = np.isfinite(theta1).all(axis=1) & np.isfinite(p1).all(axis=1)
    alive[idx[~finite]] = False
    good = idx[finite]
    if good.size:
        th_f = theta1[finite]
        u1, g1, ok = _safe_energy(fn, th_f)
        sel = good[ok]
        theta[sel] = th_f[ok]
        p[sel] = p1[finite][ok]
        u[sel] = u1[ok]
        grad[sel] = g1[ok]
        alive[good[~ok]] = False
    return ChainState(theta, p, u, grad, alive)


# --- shared discretized update ---------------------------------------------------


def momentum_update(p, grad, eta, g_diag, c_diag, gamma_p, xi):
    """Friction, drift, correction, and noise in one expression.

    Both gradient-based engines route through this single arithmetic path
    so the constant-network reduction is bitwise identical.  Works on
    plain numbers and arrays.
    """
    return ((1.0 - eta * c_diag) * p - eta * (g_diag * grad)
            + eta * gamma_p + np.sqrt(2.0 * eta * c_diag) * xi)


def position_update(theta, p_new, eta, g_hat, dg_dp_hat):
    return theta + eta * (g_hat * p_new) - eta * dg_dp_hat


def sghmc_step(state: ChainState, eta: float, g_diag, c_diag, problem, gens) -> ChainState:
    """One constant-coefficient stochastic-gradient step on every live chain."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    if np.any(np.asarray(c_diag) <= 0):
        raise ValueError("friction entries must be positive")
    xi = _draw_noise(gens, state.dim)
    idx = np.flatnonzero(state.alive)
    p1 = momentum_update(state.p[idx], state.grad[idx], eta, g_diag, c_diag,
                         0.0, xi[idx])
    theta1 = position_update(state.theta[idx], p1, eta, g_diag, 0.0)
    return _advance(state, idx, theta1, p1, energy_fn(problem))


def am_update(theta, p, u, grad, xi, eta: float, nets: sn.StrategyNets,
              stats: AdaptiveStats, oh):
    """Meta-learned update on raw (K, D) arrays: network coefficients,
    their state partials, and the coefficient re-evaluation at the
    updated momentum.  Returns (theta1, p1)."""
    u_hat, du_star = normalize_inputs(u, grad, stats)
    du_hat_dth = du_star / stats.sigma_i
    sig = stats.sigma_i
    g_t, dg_dth = sn.fast_q_eval(nets, u_hat, p, oh, sig, du_seed=du_hat_dth)
    c_t, dc_dp = sn.fast_d_eval(nets, u_hat, p, du_star, oh, dp_seed=1.0)
    p1 = momentum_update(p, grad, eta, g_t, c_t, dg_dth + dc_dp, xi)
    g_hat, dg_dp = sn.fast_q_eval(nets, u_hat, p1, oh, sig, dp_seed=1.0)
    theta1 = position_update(theta, p1, eta, g_hat, dg_dp)
    return theta1, p1


def am_sghmc_step(state: ChainState, eta: float, nets: sn.StrategyNets,
                  stats: AdaptiveStats, problem, gens) -> ChainState:
    """One meta-learned step on every live chain."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    xi = _draw_noise(gens, state.dim)
    idx = np.flatnonzero(state.alive)
    oh = sn.one_hot(problem.categories, nets.cfg.n_categories)
    theta1, p1 = am_update(state.theta[idx], state.p[idx], state.u[idx],
                           state.grad[idx], xi[idx], eta, nets, stats, oh)
    return _advance(state, idx, theta1, p1, energy_fn(problem))


# --- Hamiltonian baseline ---------------------------------------------------------


def _leapfrog(theta0, p0, eta, n_leap, fn, u0, grad0):
    """Leapfrog trajectories for a whole batch with per-row step sizes;
    rows that leave the finite domain stop integrating and come back
    marked invalid."""
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (len(theta0),))
    theta = theta0.copy()
    p = p0 - 0.5 * eta[:, None] * grad0
    grad = grad0.copy()
    u = u0.copy()
    valid = np.ones(len(theta), dtype=bool)
    for step in range(n_leap):
        vidx = np.flatnonzero(valid)
        theta[vidx] += eta[vidx, None] * p[vidx]
        move_ok = np.isfinite(theta[vidx]).all(axis=1)
        valid[vidx[~move_ok]] = False
        vidx = vidx[move_ok]
        if vidx.size == 0:
            break
        u1, g1, ok = _safe_energy(fn, theta[vidx])
        valid[vidx[~ok]] = False
        keep = vidx[ok]
        u[keep] = u1[ok]
        grad[keep] = g1[ok]
        fac = 1.0 if step < n_leap - 1 else 0.5
        p[keep] -= fac * eta[keep, None] * g1[ok]
    return theta, p, u, grad, valid


def hmc_step(state: ChainState, eta: float, n_leapfrog: int, problem, gens):
    """Momentum refresh, leapfrog, accept/reject on the total energy.

    Returns (state', accepted) with one flag per chain; non-finite
    trajectories auto-reject so chains never die here.  The step size of
    each trajectory is jittered by a uniform factor in [0.8, 1.2], which
    breaks the near-periodic orbits a fixed path length produces on
    smooth targets while leaving the accept test exact.
    """
    if eta <= 0 or n_leapfrog < 1:
        raise ValueError("need positive step size and at least one leapfrog step")
    d = state.dim
    p0 = _draw_noise(gens, d)
    jitter = np.array([g.uniform(0.8, 1.2) for g in gens])
    uni = np.array([g.uniform() for g in gens])

    idx = np.flatnonzero(state.alive)
    th0 = state.theta[idx]
    u0 = state.u[idx]
    gr0 = state.grad[idx]
    pin = p0[idx]
    fn = energy_fn(problem)
    th1, p1, u1, gr1, valid = _leapfrog(th0, pin, eta * jitter[idx],
                                        n_leapfrog, fn, u0, gr0)

    h0 = u0 + 0.5 * (pin**2).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        h1 = u1 + 0.5 * (p1**2).sum(axis=1)
        log_ratio = h0 - h1
    with np.errstate(divide="ignore"):
        acc = valid & np.isfinite(h1) & (np.log(uni[idx]) < log_ratio)

    theta = state.theta.copy()
    p = state.p.copy()
    u = state.u.copy()
    grad = state.grad.copy()
    sel = idx[acc]
    theta[sel] = th1[acc]
    p[sel] = p1[acc]
    u[sel] = u1[acc]
    grad[sel] = gr1[acc]
    accepted = np.zeros(state.k_chains, dtype=bool)
    accepted[sel] = True
    return ChainState(theta, p, u, grad, state.alive.copy()), accepted


class DualAveraging:
    """Step-size adaptation toward a target acceptance rate."""

    def __init__(self, step0: float, accept_target: float = 0.7,
                 gamma: float = 0.05, t0: float = 10.0, kappa: float = 0.75):
        self.mu = np.log(10.0 * step0)
        self.log_avg = np.log(step0)
        self.h_avg = 0.0
        self.m = 0
        self.accept_target = accept_target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa

    def update(self, accept_rate: float) -> float:
        self.m += 1
        frac = 1.0 / (self.m + self.t0)
        self.h_avg = (1.0 - frac) * self.h_avg + frac * (self.accept_target
                                                         - accept_rate)
        log_eps = self.mu - np.sqrt(self.m) / self.gamma * self.h_avg
        w = self.m ** (-self.kappa)
        self.log_avg = w * log_eps + (1.0 - w) * self.log_avg
        return float(np.exp(log_eps))

    @property
    def tuned(self) -> float:
        return float(np.exp(self.log_avg))


# --- full runs --------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One sampling run: K chains advance T steps, and every tau-th state
    after burn_in is kept.  AM-SGHMC estimates its normalization
    statistics over ``window`` with the decays ``betas_theta``/``betas_u``;
    ``sghmc_G``/``sghmc_C`` are SGHMC's constant coefficients and
    ``hmc_*`` set the HMC step size, its adaptation and the leapfrog
    count."""

    K: int = 32
    T: int = 9000
    burn_in: int = 3000
    tau: int = 1
    eta: float = DEFAULT_ETA
    window: tuple = (300, 2800)
    betas_theta: tuple = (0.99, 0.995)
    betas_u: tuple = (0.99, 0.998)
    v0_scale: float = 1.0
    sghmc_G: float = 1.0
    sghmc_C: float = 1.0
    hmc_step0: float = 0.1
    hmc_leapfrog: int = 10
    hmc_target_accept: float = 0.7
    hmc_adapt: bool = True

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not 0 <= self.burn_in < self.T:
            raise ValueError("need 0 <= burn_in < T")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.v0_scale <= 0:
            raise ValueError("v0_scale must be positive")
        lo, hi = self.window
        if not 0 <= lo <= hi:
            raise ValueError("window must satisfy 0 <= start <= end")
        check_rates(self.betas_theta, "betas_theta")
        check_rates(self.betas_u, "betas_u")
        for key in ("sghmc_G", "sghmc_C", "hmc_step0"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        if self.hmc_leapfrog < 1:
            raise ValueError("hmc_leapfrog must be at least 1")
        if not 0 < self.hmc_target_accept < 1:
            raise ValueError("hmc_target_accept must lie in (0, 1)")


@dataclass
class Trace:
    """Thinned post-burn-in samples of the surviving chains."""

    samples: np.ndarray
    potentials: np.ndarray
    meta: dict
    stats: AdaptiveStats | None = None

    @property
    def k_chains(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def flat(self) -> np.ndarray:
        """(K * S, D) pooled sample matrix."""
        return self.samples.reshape(-1, self.samples.shape[2])


SAMPLER_NAMES = ("amsghmc", "sghmc", "hmc")


def run_chains(sampler: str, problem, config: RunConfig, *, seed: int = 0,
               nets=None, stats: AdaptiveStats | None = None,
               v0_star: float | tuple | None = None,
               theta0=None, p0=None) -> Trace:
    """Advance ``config.K`` chains for ``config.T`` steps and collect every
    tau-th post-burn-in state; diverged chains are dropped from the result.

    The meta-learned engine estimates fresh statistics unless ``stats`` is
    given; their variances start at ``v0_star``, ``config.v0_scale`` when
    None.
    """
    if sampler not in SAMPLER_NAMES:
        raise ValueError(f"unknown sampler {sampler!r}")
    k_chains, n_steps = config.K, config.T
    burn_in, thin = config.burn_in, config.tau
    gens = chain_generators(seed, k_chains)
    state = initialize_chains(problem, k_chains, gens, theta0, p0)

    if sampler == "amsghmc":
        if nets is None:
            raise ValueError("the meta-learned engine needs strategy networks")
        if stats is None:
            stats = AdaptiveStats(state.dim, StatsConfig(
                window=config.window, beta_theta=config.betas_theta,
                beta_u=config.betas_u,
                v0_star=config.v0_scale if v0_star is None else v0_star))
    else:
        stats = None

    eta_hmc = config.hmc_step0
    tuner = (DualAveraging(config.hmc_step0, config.hmc_target_accept)
             if sampler == "hmc" and config.hmc_adapt and burn_in > 0 else None)
    n_acc = 0
    n_prop = 0

    kept_theta = []
    kept_u = []
    kept_steps = []
    for t in range(1, n_steps + 1):
        if sampler == "amsghmc":
            if state.alive.any():
                stats.update(t, state.theta[state.alive], state.u[state.alive])
            state = am_sghmc_step(state, config.eta, nets, stats, problem, gens)
        elif sampler == "sghmc":
            state = sghmc_step(state, config.eta, config.sghmc_G,
                               config.sghmc_C, problem, gens)
        else:
            state, accepted = hmc_step(state, eta_hmc, config.hmc_leapfrog,
                                       problem, gens)
            if tuner is not None and t <= burn_in:
                eta_hmc = tuner.update(float(accepted[state.alive].mean()))
                if t == burn_in:
                    eta_hmc = tuner.tuned
            if t > burn_in:
                n_acc += int(accepted[state.alive].sum())
                n_prop += int(state.alive.sum())
        if not state.alive.any():
            raise RuntimeError(
                f"all {k_chains} chains diverged by step {t} "
                f"(sampler={sampler}, eta={config.eta})")
        if t > burn_in and (t - burn_in) % thin == 0:
            kept_theta.append(state.theta.copy())
            kept_u.append(state.u.copy())
            kept_steps.append(t)

    samples = np.stack(kept_theta, axis=1)
    pots = np.stack(kept_u, axis=1)
    alive = state.alive
    meta = {
        "sampler": sampler,
        "k_chains": int(k_chains),
        "n_steps": int(n_steps),
        "burn_in": int(burn_in),
        "thin": int(thin),
        "seed": int(seed),
        "steps": [int(s) for s in kept_steps],
        "diverged": [int(i) for i in np.flatnonzero(~alive)],
        "eta": float(config.eta if sampler != "hmc" else eta_hmc),
    }
    if sampler == "hmc":
        meta["acceptance_rate"] = float(n_acc / n_prop) if n_prop else float("nan")
        meta["leapfrog_steps"] = int(config.hmc_leapfrog)
    return Trace(samples[alive], pots[alive], meta, stats)


def save_trace(trace: Trace, out_dir) -> None:
    """One CSV per chain (step, theta_1..theta_D, u) plus a metadata file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d = trace.samples.shape[2]
    header = "step," + ",".join(f"theta_{i + 1}" for i in range(d)) + ",u"
    steps = np.asarray(trace.meta["steps"], dtype=float)
    for k in range(trace.k_chains):
        arr = np.column_stack([steps, trace.samples[k], trace.potentials[k]])
        np.savetxt(out / f"chain_{k:03d}.csv", arr, delimiter=",",
                   header=header, comments="", fmt="%.17e")
    (out / "trace.json").write_text(json.dumps(trace.meta, indent=2))


def load_trace(trace_dir) -> Trace:
    folder = Path(trace_dir)
    meta = json.loads((folder / "trace.json").read_text())
    samples = []
    pots = []
    for path in sorted(folder.glob("chain_*.csv")):
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        samples.append(arr[:, 1:-1])
        pots.append(arr[:, -1])
    if not samples:
        raise FileNotFoundError(f"no chain files under {folder}")
    return Trace(np.stack(samples), np.stack(pots), meta)
