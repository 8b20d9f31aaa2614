"""Posterior potential-energy field for Bayesian model updating.

The chain state theta lives on all of R^D. A component-wise monotone map
sends it to the physical parameter vector w (stiffness ratios, damping
ratios, noise ratio), saturating smoothly at the prior truncation bounds;
the log-Jacobian of that map joins the truncated priors and the Gaussian
measurement likelihood in U(theta) = -log p(D|w) - log p(w) - sum_i T_i.
Everything is vectorized over a batch of chain states, which is the shape
the samplers consume.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import structural

_LOG4 = float(np.log(4.0))


@dataclass(frozen=True)
class BoundedTransform:
    """Per-dimension knots of the piecewise saturation map.

    Arrays are (D,). A side set to -inf (lower) or +inf (upper) is absent:
    the map stays the identity in that direction.
    """

    b1: np.ndarray
    d1: np.ndarray
    b2: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        for name in ("b1", "d1", "b2", "d2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.b1.shape == self.d1.shape == self.b2.shape == self.d2.shape):
            raise ValueError("knot arrays must share one shape")
        if np.any(self.b1 > self.b2):
            raise ValueError("lower knot must not exceed upper knot")
        if np.any(self.d1 <= 0) or np.any(self.d2 <= 0):
            raise ValueError("knot widths must be positive")

    @classmethod
    def from_knots(cls, knots: Sequence) -> "BoundedTransform":
        """Build from per-dimension (b1, d1, b2, d2), None marking an absent side."""
        b1, d1, b2, d2 = [], [], [], []
        for lo_b, lo_d, hi_b, hi_d in knots:
            b1.append(-np.inf if lo_b is None else lo_b)
            d1.append(1.0 if lo_b is None else lo_d)
            b2.append(np.inf if hi_b is None else hi_b)
            d2.append(1.0 if hi_b is None else hi_d)
        return cls(np.array(b1), np.array(d1), np.array(b2), np.array(d2))

    @property
    def dimension(self) -> int:
        return self.b1.size


def _logsig(x):
    return -np.logaddexp(0.0, -x)


def transform_details(theta: np.ndarray, tr: BoundedTransform):
    """Map theta -> (w, per-dimension log-slope T, dT/dtheta).

    Accepts (D,) or (batch, D); outputs match the input shape. T is
    log(dw/dtheta), zero on the identity segment and negative in the
    saturating tails.
    """
    theta = np.asarray(theta, dtype=float)
    w = theta.copy()
    t = np.zeros_like(theta)
    dt = np.zeros_like(theta)
    # Only the entries in a saturating tail leave the identity, so each
    # tail is evaluated on its own entries alone.
    for side, knot, width in ((theta < tr.b1, tr.b1, tr.d1), (theta > tr.b2, tr.b2, tr.d2)):
        side = np.nonzero(side)
        if not side[0].size:
            continue
        knot, width = knot[side[-1]], width[side[-1]]
        u = (theta[side] - knot) / width
        slope = np.tanh(u)
        w[side] = knot + width * slope
        t[side] = 2.0 * _logsig(2.0 * u) - 2.0 * u + _LOG4
        dt[side] = -(2.0 / width) * slope
    return w, t, dt


def map_params_to_state(w: np.ndarray, tr: BoundedTransform) -> np.ndarray:
    """Inverse of the saturation map: state theta whose image is w.

    Every admissible w lies strictly inside (b1 - d1, b2 + d2); values at
    or beyond those open limits have no finite preimage.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w <= tr.b1 - tr.d1) or np.any(w >= tr.b2 + tr.d2):
        raise ValueError("parameters outside the open image of the map")
    low = w < tr.b1
    high = w > tr.b2
    r1 = np.clip((w - tr.b1) / tr.d1, -1.0, 0.0)
    r2 = np.clip((w - tr.b2) / tr.d2, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        theta = np.where(low, tr.b1 + tr.d1 * np.arctanh(r1), w)
        theta = np.where(high, tr.b2 + tr.d2 * np.arctanh(r2), theta)
    return theta


@dataclass(frozen=True)
class TruncatedGaussian:
    """Gaussian restricted to [low, high]; density left unnormalized."""

    mean: float
    std: float
    low: float
    high: float

    def log_density(self, w):
        w = np.asarray(w, dtype=float)
        inside = (w >= self.low) & (w <= self.high)
        val = -((w - self.mean) ** 2) / (2.0 * self.std**2)
        return np.where(inside, val, -np.inf)

    def dlog_density(self, w):
        w = np.asarray(w, dtype=float)
        return -(w - self.mean) / self.std**2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _rejection_sample(
            lambda size: rng.normal(self.mean, self.std, size),
            self.low, self.high, n)


@dataclass(frozen=True)
class TruncatedLognormal:
    """Lognormal (given median and log-std) restricted to [low, high]."""

    median: float
    s0: float
    low: float
    high: float

    def log_density(self, w):
        w = np.asarray(w, dtype=float)
        inside = (w >= self.low) & (w <= self.high) & (w > 0)
        safe = np.where(w > 0, w, 1.0)
        lw = np.log(safe / self.median)
        val = -np.log(safe) - lw**2 / (2.0 * self.s0**2)
        return np.where(inside, val, -np.inf)

    def dlog_density(self, w):
        w = np.asarray(w, dtype=float)
        safe = np.where(w > 0, w, 1.0)
        lw = np.log(safe / self.median)
        return -1.0 / safe - lw / (safe * self.s0**2)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        mu = np.log(self.median)
        return _rejection_sample(
            lambda size: np.exp(rng.normal(mu, self.s0, size)),
            self.low, self.high, n)


def _rejection_sample(draw, low, high, n: int) -> np.ndarray:
    out = np.empty(n)
    filled = 0
    while filled < n:
        cand = draw(max(n - filled, 8))
        keep = cand[(cand >= low) & (cand <= high)]
        take = min(keep.size, n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


@dataclass(frozen=True)
class PriorSpec:
    """Independent per-parameter priors plus their category labels.

    Categories group parameters that share one strategy-net treatment
    (0 = stiffness ratio, 1 = damping ratio, 2 = noise ratio for the
    shear-building family).
    """

    priors: tuple
    categories: tuple

    def __post_init__(self):
        object.__setattr__(self, "priors", tuple(self.priors))
        object.__setattr__(self, "categories", tuple(int(c) for c in self.categories))
        if len(self.priors) != len(self.categories):
            raise ValueError("priors and categories must align")

    @property
    def dimension(self) -> int:
        return len(self.priors)

    @property
    def n_categories(self) -> int:
        return max(self.categories) + 1

    @functools.cached_property
    def families(self) -> tuple:
        """(prior, columns) per prior class, in order of first appearance:
        one instance whose fields are arrays over the class's columns, so
        that its methods score all of them in one call."""
        columns = {}
        for i, pr in enumerate(self.priors):
            columns.setdefault(type(pr), []).append(i)
        return tuple(
            (cls(**{f.name: np.array([getattr(self.priors[i], f.name) for i in cols])
                    for f in fields(cls)}), np.array(cols))
            for cls, cols in columns.items())


def _prior_terms(w: np.ndarray, priors: PriorSpec):
    val = np.zeros(w.shape[:-1])
    grad = np.empty_like(w)
    for pr, cols in priors.families:
        x = w[..., cols]
        val = val + pr.log_density(x).sum(axis=-1)
        grad[..., cols] = pr.dlog_density(x)
    return val, grad


def sample_prior_ratios(priors: PriorSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, D) draws of physical parameter ratios from the joint prior."""
    out = np.empty((n, priors.dimension))
    for i, pr in enumerate(priors.priors):
        out[:, i] = pr.sample(rng, n)
    return out


@dataclass(frozen=True)
class UpdatingProblem:
    """One Bayesian updating task: model family, data, priors, transform."""

    building: structural.ShearBuilding
    dataset: structural.Dataset
    priors: PriorSpec
    transform: BoundedTransform
    sigma0: float = 1.0

    def __post_init__(self):
        d = 2 * self.building.n_stories + 1
        if self.priors.dimension != d or self.transform.dimension != d:
            raise ValueError(f"priors and transform must have dimension {d}")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")

    @property
    def dimension(self) -> int:
        return 2 * self.building.n_stories + 1

    @property
    def categories(self) -> tuple:
        return self.priors.categories


def default_problem(
    building: structural.ShearBuilding,
    dataset: structural.Dataset,
    sigma0: float = 1.0,
) -> UpdatingProblem:
    """Standard shear-building task: ratio priors and saturation knots.

    Stiffness ratios: Gaussian(1, 30% c.o.v.) on [0.499, 1.501] with knots
    (0.5, 0.001; 1.5, 0.001). Damping ratios: same Gaussian on
    [-0.502, 3.002] with knots (-0.5, 0.002; 3, 0.002). Noise ratio:
    lognormal(median 1, s0 = 0.3) on [0.098, 3.002] with knots
    (0.1, 0.002; 3, 0.002).
    """
    n = building.n_stories
    priors = (
        tuple(TruncatedGaussian(1.0, 0.3, 0.499, 1.501) for _ in range(n))
        + tuple(TruncatedGaussian(1.0, 0.3, -0.502, 3.002) for _ in range(n))
        + (TruncatedLognormal(1.0, 0.3, 0.098, 3.002),)
    )
    categories = (0,) * n + (1,) * n + (2,)
    knots = (
        [(0.5, 0.001, 1.5, 0.001)] * n
        + [(-0.5, 0.002, 3.0, 0.002)] * n
        + [(0.1, 0.002, 3.0, 0.002)]
    )
    return UpdatingProblem(
        building=building,
        dataset=dataset,
        priors=PriorSpec(priors, categories),
        transform=BoundedTransform.from_knots(knots),
        sigma0=sigma0,
    )


@functools.lru_cache(maxsize=1)
def _record_buffers(n_steps: int, batch: int, n_floors: int, slots: int):
    """The forward states and the gradient's work arrays of one likelihood
    call (structural.vjp_buffers).

    Freed arrays of this size go back to the operating system and page
    faults follow on the next call, so the last shape's set is kept.
    Two threads calling _likelihood_batch at once would share it; the
    program makes its energy calls from one thread.
    """
    return (np.empty((n_steps, batch, slots), dtype=complex),
            structural.vjp_buffers(n_steps, batch, n_floors, slots))


def _likelihood_batch(w: np.ndarray, problem: UpdatingProblem):
    """Log likelihood and its w-gradient for a batch of parameter vectors.

    The structural layer works in _record_buffers, so nothing it returns
    here may be kept past the call.
    """
    n = problem.building.n_stories
    d = problem.dataset
    k_nom = problem.building.stiffness
    c_nom = problem.building.damping
    k_phys = w[:, :n] * k_nom
    c_phys = w[:, n : 2 * n] * c_nom
    sigma = w[:, 2 * n] * problem.sigma0
    if np.any(sigma <= 0):
        raise ValueError("noise scale must be positive")

    disc = structural.discretize_batch(problem.building.mass, k_phys, c_phys, d.dt)
    states, work = _record_buffers(d.n_steps, disc.e.shape[0], n, disc.e.shape[1])
    y, _ = structural.run_batch(disc, d.ground_accel, d.observed_dofs, out=states)
    resid = d.measurements[None, :, :] - y
    s = np.einsum("bnt,bnt->b", resid, resid)
    count = d.n_obs * d.n_steps

    ll = -0.5 * count * np.log(2.0 * np.pi * sigma**2) - s / (2.0 * sigma**2)
    grad = np.empty_like(w)
    dldp = structural.response_vjp(disc, d.ground_accel, states, resid,
                                   d.observed_dofs, out=work) / sigma[:, None] ** 2
    grad[:, :n] = dldp[:, :n] * k_nom
    grad[:, n : 2 * n] = dldp[:, n:] * c_nom
    grad[:, 2 * n] = (-count / sigma + s / sigma**3) * problem.sigma0
    return ll, grad


def potential_energy_batch(thetas: np.ndarray, problem: UpdatingProblem):
    """U(theta) and its gradient for a (batch, D) stack of chain states."""
    thetas = np.asarray(thetas, dtype=float)
    w, t, dt = transform_details(thetas, problem.transform)
    slope = np.exp(t)
    lp, dlp = _prior_terms(w, problem.priors)
    ll, dll = _likelihood_batch(w, problem)
    u = -(ll + lp) - t.sum(axis=-1)
    grad = -(dll + dlp) * slope - dt
    return u, grad


# --- problem definition files ------------------------------------------------


def _prior_to_dict(pr) -> dict:
    if isinstance(pr, TruncatedGaussian):
        return {
            "kind": "truncated_gaussian",
            "mean": pr.mean,
            "std": pr.std,
            "low": pr.low,
            "high": pr.high,
        }
    if isinstance(pr, TruncatedLognormal):
        return {
            "kind": "truncated_lognormal",
            "median": pr.median,
            "s0": pr.s0,
            "low": pr.low,
            "high": pr.high,
        }
    raise TypeError(f"unknown prior type {type(pr)!r}")


def _prior_from_dict(spec: dict):
    kind = spec["kind"]
    if kind == "truncated_gaussian":
        return TruncatedGaussian(spec["mean"], spec["std"], spec["low"], spec["high"])
    if kind == "truncated_lognormal":
        return TruncatedLognormal(spec["median"], spec["s0"], spec["low"], spec["high"])
    raise ValueError(f"unknown prior kind {kind!r}")


def save_problem(path, problem: UpdatingProblem, dataset_path) -> None:
    """Write the problem definition as JSON next to its dataset CSV."""
    tr = problem.transform

    def knot(a):
        return [None if not np.isfinite(v) else float(v) for v in a]

    payload = {
        "n_stories": problem.building.n_stories,
        "stiffness_nominal": problem.building.stiffness.tolist(),
        "damping_nominal": problem.building.damping.tolist(),
        "mass": problem.building.mass.tolist(),
        "sigma0": problem.sigma0,
        "dataset": str(dataset_path),
        "priors": [_prior_to_dict(p) for p in problem.priors.priors],
        "categories": list(problem.priors.categories),
        "transform": {
            "b1": knot(tr.b1),
            "d1": tr.d1.tolist(),
            "b2": knot(tr.b2),
            "d2": tr.d2.tolist(),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def load_problem(path) -> UpdatingProblem:
    """Read a JSON problem definition; dataset path resolves relative to it."""
    path = Path(path)
    spec = json.loads(path.read_text())
    if spec.get("flat_likelihood", False):
        raise ValueError("flat_likelihood is no longer supported: every problem "
                         "samples the full posterior; remove the key")
    dataset_path = Path(spec["dataset"])
    if not dataset_path.is_absolute():
        dataset_path = path.parent / dataset_path
    dataset, _ = structural.load_dataset(dataset_path)
    building = structural.ShearBuilding(
        stiffness=spec["stiffness_nominal"],
        damping=spec["damping_nominal"],
        mass=spec["mass"],
    )
    tr = spec["transform"]
    transform = BoundedTransform(
        b1=[-np.inf if v is None else v for v in tr["b1"]],
        d1=tr["d1"],
        b2=[np.inf if v is None else v for v in tr["b2"]],
        d2=tr["d2"],
    )
    priors = PriorSpec(
        tuple(_prior_from_dict(p) for p in spec["priors"]),
        tuple(spec["categories"]),
    )
    return UpdatingProblem(
        building=building,
        dataset=dataset,
        priors=priors,
        transform=transform,
        sigma0=float(spec.get("sigma0", 1.0)),
    )
