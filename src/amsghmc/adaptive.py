"""Streaming mean/variance estimators over per-step batches of chain values.

Each sampler step produces a batch of K values per tracked quantity (one
value per chain).  The estimators here maintain exponential moving averages
of the batch mean and of the centered second moment, including the
mean-drift cross term that keeps the variance recurrence consistent when
the mean itself is still moving.

Decay rates are constants in [0, 1).  Bias correction of the returned
estimates depends on the mode: testing mode divides by (1 - beta^t);
training mode multiplies the mean by (1 + beta1^t) instead, which biases
early estimates toward the zero initializer rather than amplifying them.
Supplying a prior variance ``v0_star`` seeds the second-moment accumulator
and switches its correction to v + beta2^t * (v - v0_star), which starts
at the prior and fades to the plain estimate as the stream grows.
"""

from __future__ import annotations

import numpy as np


def check_rates(rates, name: str) -> tuple:
    """The decay rates (beta1, beta2) as floats, each in [0, 1)."""
    rates = tuple(float(r) for r in rates)
    if len(rates) != 2 or not all(0.0 <= r < 1.0 for r in rates):
        raise ValueError(f"{name} must be two rates in [0, 1)")
    return rates


class MomentEstimator:
    """Running first two moments of a batched value stream.

    ``shape`` is the per-chain value shape: () for a scalar stream such as
    potential energy, (D,) for the parameter vector.  ``update`` consumes a
    (K,) + shape batch per step.  ``mean`` and ``variance`` return the
    bias-corrected estimates for the current step count.
    """

    def __init__(self, shape, beta1, beta2, *, mode: str = "testing",
                 v0_star=None):
        if mode not in ("training", "testing"):
            raise ValueError("mode must be 'training' or 'testing'")
        if isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(shape)
        self.beta1, self.beta2 = check_rates((beta1, beta2), "beta1, beta2")
        self.mode = mode
        if v0_star is None:
            self.v0_star = None
            self.v = np.zeros(self.shape)
        else:
            self.v0_star = np.broadcast_to(
                np.asarray(v0_star, dtype=float), self.shape).copy()
            if np.any(self.v0_star < 0.0):
                raise ValueError("prior variance must be non-negative")
            self.v = self.v0_star.copy()
        self.m = np.zeros(self.shape)
        self._m_hat = np.zeros(self.shape)
        self.t = 0

    def update(self, batch) -> None:
        """Fold one step's batch (leading axis = chains) into the moments."""
        batch = np.asarray(batch, dtype=float)
        if batch.shape[1:] != self.shape:
            raise ValueError(
                f"batch shape {batch.shape} does not match value shape "
                f"(K,) + {self.shape}")
        k = batch.shape[0]
        if k < 1:
            raise ValueError("batch must contain at least one chain")
        t = self.t + 1

        b1, b2 = self.beta1, self.beta2
        m = b1 * self.m + (1.0 - b1) * batch.mean(axis=0)
        m_hat = self._correct_mean(m, t)
        m_hat_prev = m_hat if t == 1 else self._m_hat
        drift2 = (m_hat - m_hat_prev) ** 2
        ybar2 = (drift2 + ((batch - m_hat) ** 2).sum(axis=0)) / k

        self.m = m
        self.v = b2 * (drift2 + self.v) + (1.0 - b2) * ybar2
        self._m_hat = m_hat
        self.t = t

    def _correct_mean(self, m, t):
        if self.mode == "training":
            return m * (1.0 + self.beta1 ** t)
        return m / (1.0 - self.beta1 ** t)

    @property
    def mean(self):
        """Bias-corrected mean estimate (the initializer before any update)."""
        if self.t == 0:
            return self.m.copy() if self.shape else float(self.m)
        out = self._correct_mean(self.m, self.t)
        return out.copy() if self.shape else float(out)

    @property
    def variance(self):
        """Bias-corrected centered second moment (prior seed before updates)."""
        if self.t == 0:
            out = self.v
        elif self.v0_star is not None:
            w = self.beta2 ** self.t
            out = self.v + w * (self.v - self.v0_star)
        else:
            out = self.v / (1.0 - self.beta2 ** self.t)
        return out.copy() if self.shape else float(out)

    def state(self) -> dict:
        s = {
            "shape": np.array(self.shape, dtype=int),
            "beta1": self.beta1,
            "beta2": self.beta2,
            "mode": self.mode,
            "m": np.asarray(self.m),
            "v": np.asarray(self.v),
            "m_hat": np.asarray(self._m_hat),
            "t": self.t,
        }
        if self.v0_star is not None:
            s["v0_star"] = self.v0_star
        return s

    @classmethod
    def from_state(cls, state: dict) -> "MomentEstimator":
        est = cls(tuple(int(n) for n in np.atleast_1d(state["shape"])),
                  state["beta1"], state["beta2"], mode=str(state["mode"]),
                  v0_star=state.get("v0_star"))
        est.m = np.asarray(state["m"], dtype=float).reshape(est.shape)
        est.v = np.asarray(state["v"], dtype=float).reshape(est.shape)
        est._m_hat = np.asarray(state["m_hat"], dtype=float).reshape(est.shape)
        est.t = int(state["t"])
        return est
