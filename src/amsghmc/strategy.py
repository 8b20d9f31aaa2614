"""Meta-strategy networks producing the diagonal kinetic maps G and C.

Two small MLPs (three hidden layers of ten leaky-ReLU units) map squashed
chain-state features to the per-element values of the diagonal matrices

    G_ii = sigma_i * (c1 + M_Q * Sigmoid(5 * o_Q)),
    C_ii =            c2 + M_D * Sigmoid(5 * o_D),

where o_Q is the Q-network output on (i_U, i_p, one-hot category) and o_D
the D-network output on (i_U, i_p, i_G, one-hot category). An optional
shortcut (linear layer plus Gaussian RBF units) adds to the MLP output
before the sigmoid.

The networks are evaluated by vectorized numpy code over whole (K, D)
batches (``fast_q_eval``, ``fast_d_eval``, on squashed ``Features``),
carrying one forward-mode tangent for the state partials of G and C;
a layer is one product of (channel, K*D) activations for both streams.
Sampling and training run the same passes through
``samplers.am_update_normalized``; training hands it a record list, and
each pass appends its layer inputs and gates, logit, tangent, sigmoid
and coefficient.  With the leaky-ReLU gates fixed the tangent stream is
linear in the weights, so one backward pass over those records
(``_fast_backward``) gives the weight gradient, which the tests check
against central differences.  The scalar path written against the
autodiff module's tape and dual numbers (``q_eval``, ``d_eval``,
``build_tape_nets``) is called by no stage, as the harness tests check;
it stays only because ``perfbench/tracer.py`` wraps those three names
and ``autodiff.Tape.gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad


@dataclass(frozen=True)
class StrategyConfig:
    m_q: float = 100.0
    m_d: float = 30.0
    c1: float = 0.01
    c2: float = 0.01
    n_categories: int = 3
    hidden: tuple = (10, 10, 10)
    leaky_slope: float = 0.01
    use_shortcut: bool = False
    n_rbf: int = 8

    @property
    def q_channels(self) -> int:
        return 2 + self.n_categories

    @property
    def d_channels(self) -> int:
        return 3 + self.n_categories


@dataclass
class Shortcut:
    """Linear plus RBF bypass added to an MLP output before the sigmoid.

    Centers and width are fixed at initialization; the linear weights and
    RBF amplitudes are trainable until frozen.
    """

    lin_w: object
    lin_b: object
    centers: np.ndarray
    width: float
    amp: object
    frozen: bool = False


@dataclass
class StrategyNets:
    """Weight containers for both networks; entries are numpy arrays in
    the stored form and nested Var lists in the tape view."""

    cfg: StrategyConfig
    q_layers: list
    d_layers: list
    q_shortcut: Shortcut | None = None
    d_shortcut: Shortcut | None = None


def _layer_sizes(cfg: StrategyConfig, channels: int) -> list:
    return [channels, *cfg.hidden, 1]


def init_strategy(cfg: StrategyConfig, rng: np.random.Generator) -> StrategyNets:
    """Fan-in-scaled Gaussian weights, zero biases."""

    def layers(channels):
        sizes = _layer_sizes(cfg, channels)
        out = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_out, fan_in))
            out.append((w, np.zeros(fan_out)))
        return out

    return StrategyNets(cfg, layers(cfg.q_channels), layers(cfg.d_channels))


def one_hot(categories, n_categories: int) -> np.ndarray:
    """(n_categories, D) indicator rows for integer labels."""
    cats = np.atleast_1d(np.asarray(categories, dtype=int))
    if np.any(cats < 0) or np.any(cats >= n_categories):
        raise ValueError(f"category labels must lie in [0, {n_categories})")
    out = np.zeros((n_categories, cats.size))
    out[cats, np.arange(cats.size)] = 1.0
    return out


_E_MINUS_1 = float(np.e - 1.0)


def _squash_u(u):
    r = ad.relu(u + 1.0)
    return ad.log(r * r + _E_MINUS_1) - 1.0


def _squash_p(p):
    return 3.0 * ad.sigmoid(p / 10.0) - 1.5


def _squash_g(g):
    return 3.0 * ad.sigmoid(g / 30.0) - 1.5


def _unit(ws, xs, b):
    acc = b
    for w, x in zip(ws, xs):
        acc = acc + w * x
    return acc


def _mlp(layers, channels, slope: float):
    h = list(channels)
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        nxt = []
        for j in range(len(b)):
            acc = _unit(w[j], h, b[j])
            if li < last:
                acc = ad.leaky_relu(acc, slope)
            nxt.append(acc)
        h = nxt
    return h[0]


def _shortcut_out(sc: Shortcut, channels):
    out = sc.lin_b[0]
    for wc, x in zip(sc.lin_w, channels):
        out = out + wc * x
    scale = -1.0 / (2.0 * sc.width**2)
    for r in range(len(sc.centers)):
        sq = None
        for x, c in zip(channels, sc.centers[r]):
            diff = x - float(c)
            term = diff * diff
            sq = term if sq is None else sq + term
        out = out + sc.amp[r] * ad.exp(sq * scale)
    return out


def init_shortcut(samples: np.ndarray, n_rbf: int, rng: np.random.Generator) -> Shortcut:
    """Shortcut with RBF centers drawn from observed input samples.

    Width is the median pairwise distance between the chosen centers; the
    trainable parts start at zero so the shortcut is initially inert.
    """
    samples = np.asarray(samples, dtype=float)
    n, c = samples.shape
    idx = rng.choice(n, size=n_rbf, replace=n < n_rbf)
    centers = samples[idx].copy()
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(-1))
    upper = dists[np.triu_indices(n_rbf, k=1)]
    width = float(np.median(upper)) if upper.size else 1.0
    if width <= 0:
        width = 1.0
    return Shortcut(
        lin_w=np.zeros(c),
        lin_b=np.zeros(1),
        centers=centers,
        width=width,
        amp=np.zeros(n_rbf),
    )


def _wrap(value, seed):
    return value if seed is None else ad.DualValue(value, seed)


def q_eval(nets: StrategyNets, u_hat, p, onehot, sigma, du_seed=None, dp_seed=None):
    """G_ii, plus its directional derivative when an input seed is given.

    du_seed rides the potential channel (yielding dG/dtheta_i when seeded
    with dU_hat/dtheta_i); dp_seed rides the momentum channel (yielding
    dG/dp_i when seeded with one).
    """
    cfg = nets.cfg
    ch = [_squash_u(_wrap(u_hat, du_seed)), _squash_p(_wrap(p, dp_seed))] + list(onehot)
    o = _mlp(nets.q_layers, ch, cfg.leaky_slope)
    if nets.q_shortcut is not None:
        o = o + _shortcut_out(nets.q_shortcut, ch)
    g = sigma * (cfg.c1 + cfg.m_q * ad.sigmoid(5.0 * o))
    if isinstance(g, ad.DualValue):
        return g.primal, g.tangent
    return g, None


def d_eval(nets: StrategyNets, u_hat, p, du_star, onehot, dp_seed=None):
    """C_ii, plus dC/dp_i when the momentum channel is seeded."""
    cfg = nets.cfg
    ch = [
        _squash_u(u_hat),
        _squash_p(_wrap(p, dp_seed)),
        _squash_g(du_star),
    ] + list(onehot)
    o = _mlp(nets.d_layers, ch, cfg.leaky_slope)
    if nets.d_shortcut is not None:
        o = o + _shortcut_out(nets.d_shortcut, ch)
    c = cfg.c2 + cfg.m_d * ad.sigmoid(5.0 * o)
    if isinstance(c, ad.DualValue):
        return c.primal, c.tangent
    return c, None


# --- vectorized numpy path: sampling, and training through a hand VJP --------


def _squash_u_np(u):
    r = np.maximum(np.asarray(u, dtype=float) + 1.0, 0.0)
    val = np.log(r * r + _E_MINUS_1) - 1.0
    slope = 2.0 * r * (u + 1.0 > 0) / (r * r + _E_MINUS_1)
    return val, slope


def _squash_p_np(p):
    s = expit(np.asarray(p, dtype=float) / 10.0)
    return 3.0 * s - 1.5, 0.3 * s * (1.0 - s)


def _squash_p_curvature(p):
    """Second derivative of the momentum squash."""
    s = expit(np.asarray(p, dtype=float) / 10.0)
    return 0.03 * s * (1.0 - s) * (1.0 - 2.0 * s)


def _squash_g_np(g):
    s = expit(np.asarray(g, dtype=float) / 30.0)
    return 3.0 * s - 1.5, 0.1 * s * (1.0 - s)


@dataclass(frozen=True)
class Features:
    """Squashed U_hat (repeated over D), p and dU_star (if given) of a
    (K, D) batch as K*D rows, which the Q net reads two of and the D net
    all; ``du_slope`` (K,) and ``dp_slope`` (K, D) are squash slopes."""

    rows: np.ndarray
    du_slope: np.ndarray
    dp_slope: np.ndarray

    def seed(self, du_seed=None, dp_seed=None):
        """(channel, K*D tangent) of a seed on U_hat or on p, or None."""
        if du_seed is not None and dp_seed is not None:
            raise ValueError("seed at most one input channel")
        if du_seed is None and dp_seed is None:
            return None
        t = np.empty(self.dp_slope.shape)
        if du_seed is not None:
            return 0, np.multiply(self.du_slope[:, None], du_seed, out=t).ravel()
        return 1, np.multiply(self.dp_slope, dp_seed, out=t).ravel()


def features(u_hat, p, du_star=None) -> Features:
    """``Features`` of U_hat (K,), p (K, D) and optionally dU_star (K, D)."""
    iu, diu = _squash_u_np(u_hat)
    ip, dip = _squash_p_np(p)
    rows = np.empty((2 if du_star is None else 3, ip.size))
    rows[0].reshape(ip.shape)[...] = iu[:, None]
    rows[1] = ip.ravel()
    if du_star is not None:
        rows[2] = _squash_g_np(du_star)[0].ravel()
    return Features(rows, diu, dip)


def input_channels(rows, onehot, seed=None):
    """(streams, channels, K*D) inputs of a network: the ``Features`` rows
    it reads, then the ``onehot`` rows repeated for every chain.  Stream
    1, present when seeded, is the tangent, zero off the seeded channel."""
    nc, n = rows.shape
    x = np.zeros((1 if seed is None else 2, nc + len(onehot), n))
    x[0, :nc] = rows
    x[0, nc:] = np.tile(onehot, n // onehot.shape[1])
    if seed is not None:
        x[1, seed[0]] = seed[1]
    return x


def _fast_forward(layers, shortcut, rows, onehot, seed, slope, acts=None):
    """MLP pass with a tangent seeded on one input channel (seed = (channel,
    t) or None); returns (o, ot), each (K, D).  Both streams share each
    product as one (stream, channel, K*D) array; numpy makes one BLAS call
    per stream, rounding as the stream's own product.  The first layer
    adds the product with ``rows``, each dimension's one-hot weight
    column, then the bias (the order of a product over all channels), and
    takes the tangent as an outer product.  ``acts`` gets each layer's
    input (first ``input_channels``) and gate."""
    nc, n = rows.shape
    d = onehot.shape[1]
    x = full = (input_channels(rows, onehot, seed)
                if shortcut is not None or acts is not None else None)
    for li, (w, b) in enumerate(layers):
        if li == 0:
            z = np.empty((1 if seed is None else 2, len(w), n))
            np.matmul(w[:, :nc], rows, out=z[0])
            z[0].reshape(len(w), -1, d)[...] += (w[:, nc:] @ onehot)[:, None, :]
            if seed is not None:
                np.multiply(w[:, seed[0], None], seed[1], out=z[1])
        else:
            z = w @ x
        z[0] += b[:, None]
        gate = None
        if li < len(layers) - 1:
            gate = np.where(z[0] > 0, 1.0, slope)
            z *= gate
        if acts is not None:
            acts.append((x, gate))
        x = z
    o = x[:, 0]
    if shortcut is not None:
        o = o + _fast_shortcut(shortcut, *full)
    return o[0].reshape(-1, d), (None if seed is None else o[1].reshape(-1, d))


def _fast_backward(layers, shortcut, acts, bar_o, bar_ot):
    """Pull cotangents on (o, ot) of a recorded ``_fast_forward`` back
    through the same gated, transposed layers (the gates are constant
    almost everywhere), both streams as one array.  Returns (``[w0, b0,
    w1, b1, ...]`` gradients, trainable shortcut ``[lin_w, lin_b, amp]``
    gradients or ``[]``, (channels, K*D) primal and tangent cotangents).
    """
    bar = top = np.stack((np.ravel(bar_o), np.ravel(bar_ot)))[:, None, :]
    grads = []
    for (w, _), (x, gate) in zip(reversed(layers), reversed(acts)):
        if gate is not None:
            bar = bar * gate
        gw = bar @ x.transpose(0, 2, 1)
        grads[:0] = [gw[0] + gw[1], bar[0].sum(axis=1)]
        bar = w.T @ bar
    bar_x, bar_xt = bar
    sc_grads = []
    if shortcut is not None:
        grads_sc, sc_x, sc_xt = _shortcut_backward(shortcut, *acts[0][0],
                                                   *top[:, 0])
        bar_x, bar_xt = bar_x + sc_x, bar_xt + sc_xt
        sc_grads = [] if shortcut.frozen else grads_sc
    return grads, sc_grads, bar_x, bar_xt


def _fast_shortcut(sc: Shortcut, prim, tang=None):
    """Stacked shortcut output and tangent on (channels, K*D) inputs."""
    diff = prim[None, :, :] - sc.centers[:, :, None]
    rbf = np.exp((diff**2).sum(axis=1) * (-1.0 / (2.0 * sc.width**2)))
    out = float(sc.lin_b[0]) + sc.lin_w @ prim + sc.amp @ rbf
    if tang is None:
        return out[None]
    ot = sc.lin_w @ tang
    inner = (diff * tang[None, :, :]).sum(axis=1)
    ot = ot + sc.amp @ (rbf * inner * (-1.0 / sc.width**2))
    return np.stack((out, ot))


def _shortcut_backward(sc: Shortcut, prim, tang, bar_o, bar_ot):
    """Reverse of ``_fast_shortcut`` with a tangent.

    With k = -1/width^2 and q_r = k amp_r rbf_r, the shortcut adds
    lin_w.x + sum_r amp_r rbf_r to o and lin_w.xt + sum_r q_r (x - c_r).xt
    to ot.  Returns ([d/dlin_w, d/dlin_b, d/damp], d/dx, d/dxt).
    """
    k = -1.0 / sc.width**2
    diff = prim[None, :, :] - sc.centers[:, :, None]
    rbf = np.exp((diff**2).sum(axis=1) * (0.5 * k))
    inner = (diff * tang[None, :, :]).sum(axis=1)
    g_lin = prim @ bar_o + tang @ bar_ot
    g_amp = rbf @ bar_o + k * ((rbf * inner) @ bar_ot)
    q = k * sc.amp[:, None] * rbf
    bar_x = (sc.lin_w[:, None] * bar_o
             + np.einsum("rn,rcn->cn", q * (bar_o + k * inner * bar_ot), diff)
             + tang * (bar_ot * q.sum(axis=0)))
    bar_xt = (sc.lin_w[:, None] * bar_ot
              + np.einsum("rn,rcn->cn", q * bar_ot, diff))
    return [g_lin, np.array([bar_o.sum()]), g_amp], bar_x, bar_xt


def fast_q_eval(nets: StrategyNets, x: Features, onehot, sigma,
                du_seed=None, dp_seed=None, record=None):
    """G_ii over the (K, D) batch of ``x`` and, for a seed, its directional
    derivative (else None): du_seed = dU_hat/dtheta_i gives dG/dtheta_i and
    dp_seed = 1 gives dG/dp_i.  A ``record`` list receives (layer records
    for ``_fast_backward``, o, o tangent, Sigmoid(5 o), G), the last four
    (K, D)."""
    cfg = nets.cfg
    acts = None if record is None else []
    o, ot = _fast_forward(nets.q_layers, nets.q_shortcut, x.rows[:2], onehot,
                          x.seed(du_seed, dp_seed), cfg.leaky_slope, acts)
    s = expit(5.0 * o)
    g = sigma * (cfg.c1 + cfg.m_q * s)
    if record is not None:
        record.append((acts, o, ot, s, g))
    if ot is None:
        return g, None
    return g, sigma * (cfg.m_q * (5.0 * s * (1.0 - s)) * ot)


def fast_d_eval(nets: StrategyNets, x: Features, onehot, dp_seed=None,
                record=None):
    """C_ii over the (K, D) batch of ``x``, which must carry dU_star, plus
    dC/dp_i when the momentum channel is seeded; ``record`` as in
    ``fast_q_eval``, ending in C."""
    cfg = nets.cfg
    acts = None if record is None else []
    o, ot = _fast_forward(nets.d_layers, nets.d_shortcut, x.rows, onehot,
                          x.seed(dp_seed=dp_seed), cfg.leaky_slope, acts)
    s = expit(5.0 * o)
    c = cfg.c2 + cfg.m_d * s
    if record is not None:
        record.append((acts, o, ot, s, c))
    if ot is None:
        return c, None
    return c, cfg.m_d * (5.0 * s * (1.0 - s)) * ot


# --- weight bookkeeping -------------------------------------------------------


def trainable_entries(nets: StrategyNets) -> list:
    """(name, array) pairs in the canonical flattening order."""
    out = []
    for prefix, layers in (("q", nets.q_layers), ("d", nets.d_layers)):
        for li, (w, b) in enumerate(layers):
            out.append((f"{prefix}_w{li}", w))
            out.append((f"{prefix}_b{li}", b))
    for prefix, sc in (("q", nets.q_shortcut), ("d", nets.d_shortcut)):
        if sc is not None and not sc.frozen:
            out.append((f"{prefix}_sc_lin", sc.lin_w))
            out.append((f"{prefix}_sc_b", sc.lin_b))
            out.append((f"{prefix}_sc_amp", sc.amp))
    return out


def get_trainable_flat(nets: StrategyNets) -> np.ndarray:
    parts = [np.asarray(a, dtype=float).ravel() for _, a in trainable_entries(nets)]
    return np.concatenate(parts) if parts else np.zeros(0)


def set_trainable_flat(nets: StrategyNets, flat: np.ndarray) -> None:
    pos = 0
    for _, arr in trainable_entries(nets):
        n = arr.size
        arr[...] = np.asarray(flat[pos : pos + n]).reshape(arr.shape)
        pos += n
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")


def build_tape_nets(nets: StrategyNets, tape: ad.Tape):
    """Tape view of the networks: trainable scalars become leaf Vars.

    Returns (var_nets, var_list) with var_list ordered exactly like
    get_trainable_flat, so tape gradients fold straight back into the
    flat parameter vector.
    """
    var_list: list = []

    def lift_vec(a):
        vs = [tape.leaf(float(v)) for v in a]
        var_list.extend(vs)
        return vs

    def lift_layers(layers):
        out = []
        for w, b in layers:
            rows = [lift_vec(row) for row in w]
            out.append((rows, lift_vec(b)))
        return out

    def lift_shortcut(sc):
        if sc is None:
            return None
        if sc.frozen:
            return sc
        return Shortcut(
            lin_w=lift_vec(sc.lin_w),
            lin_b=lift_vec(sc.lin_b),
            centers=sc.centers,
            width=sc.width,
            amp=lift_vec(sc.amp),
            frozen=sc.frozen,
        )

    q_layers = lift_layers(nets.q_layers)
    d_layers = lift_layers(nets.d_layers)
    q_sc = lift_shortcut(nets.q_shortcut)
    d_sc = lift_shortcut(nets.d_shortcut)
    return StrategyNets(nets.cfg, q_layers, d_layers, q_sc, d_sc), var_list


def nets_state(nets: StrategyNets) -> dict:
    """All weight arrays (plus shortcut geometry) keyed for a checkpoint."""
    state: dict = {}
    for prefix, layers in (("q", nets.q_layers), ("d", nets.d_layers)):
        for li, (w, b) in enumerate(layers):
            state[f"{prefix}_w{li}"] = np.asarray(w, dtype=float)
            state[f"{prefix}_b{li}"] = np.asarray(b, dtype=float)
    for prefix, sc in (("q", nets.q_shortcut), ("d", nets.d_shortcut)):
        if sc is not None:
            state[f"{prefix}_sc_lin"] = np.asarray(sc.lin_w, dtype=float)
            state[f"{prefix}_sc_b"] = np.asarray(sc.lin_b, dtype=float)
            state[f"{prefix}_sc_amp"] = np.asarray(sc.amp, dtype=float)
            state[f"{prefix}_sc_centers"] = sc.centers
            state[f"{prefix}_sc_width"] = np.array([sc.width])
            state[f"{prefix}_sc_frozen"] = np.array([1.0 if sc.frozen else 0.0])
    return state


def nets_from_state(cfg: StrategyConfig, state: dict) -> StrategyNets:
    def layers(prefix, channels):
        sizes = _layer_sizes(cfg, channels)
        out = []
        for li in range(len(sizes) - 1):
            out.append(
                (
                    np.array(state[f"{prefix}_w{li}"], dtype=float),
                    np.array(state[f"{prefix}_b{li}"], dtype=float),
                )
            )
        return out

    def shortcut(prefix):
        if f"{prefix}_sc_lin" not in state:
            return None
        return Shortcut(
            lin_w=np.array(state[f"{prefix}_sc_lin"], dtype=float),
            lin_b=np.array(state[f"{prefix}_sc_b"], dtype=float),
            centers=np.array(state[f"{prefix}_sc_centers"], dtype=float),
            width=float(np.asarray(state[f"{prefix}_sc_width"]).ravel()[0]),
            amp=np.array(state[f"{prefix}_sc_amp"], dtype=float),
            frozen=bool(np.asarray(state[f"{prefix}_sc_frozen"]).ravel()[0] > 0.5),
        )

    return StrategyNets(
        cfg,
        layers("q", cfg.q_channels),
        layers("d", cfg.d_channels),
        shortcut("q"),
        shortcut("d"),
    )
