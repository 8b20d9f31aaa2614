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
batches (``fast_q_eval``, ``fast_d_eval``), carrying one forward-mode
tangent for the state partials of G and C.  Training differentiates that
same pass by hand: with the leaky-ReLU gates fixed the tangent stream is
linear in the weights, so one backward pass over the recorded primal and
tangent activations gives the weight gradient, which the tests check
against central differences.  The scalar path written against the
autodiff module's tape and dual numbers (``q_eval``, ``d_eval``,
``build_tape_nets``) is called by no stage; it remains only because
``perfbench/tracer.py`` wraps those names.
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
    if isinstance(b, ad.Var) and not any(isinstance(x, ad.DualValue) for x in xs):
        return b.tape.affine(list(zip(xs, ws)) + [(b, 1.0)])
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


def _expit(x):
    return expit(np.asarray(x, dtype=float))


def _squash_u_np(u):
    r = np.maximum(np.asarray(u, dtype=float) + 1.0, 0.0)
    val = np.log(r * r + _E_MINUS_1) - 1.0
    slope = 2.0 * r * (u + 1.0 > 0) / (r * r + _E_MINUS_1)
    return val, slope


def _squash_p_np(p):
    s = _expit(np.asarray(p, dtype=float) / 10.0)
    return 3.0 * s - 1.5, 0.3 * s * (1.0 - s)


def _squash_p_curvature(p):
    """Second derivative of the momentum squash."""
    s = _expit(np.asarray(p, dtype=float) / 10.0)
    return 0.03 * s * (1.0 - s) * (1.0 - 2.0 * s)


def _squash_g_np(g):
    s = _expit(np.asarray(g, dtype=float) / 30.0)
    return 3.0 * s - 1.5, 0.1 * s * (1.0 - s)


def _fast_forward(layers, shortcut, prim, tang, slope, acts=None):
    """Stacked-channel MLP pass; prim/tang are (channels, K, D).

    When ``acts`` is a list, each layer's input pair and leaky-ReLU gate
    (None on the output layer) are appended to it for ``_fast_backward``.
    """
    h, ht = prim, tang
    last = len(layers) - 1
    for li, (w, b) in enumerate(layers):
        w = np.asarray(w, dtype=float)
        b = np.asarray(b, dtype=float)
        z = np.tensordot(w, h, axes=(1, 0)) + b[:, None, None]
        zt = None if ht is None else np.tensordot(w, ht, axes=(1, 0))
        gate = None
        if li < last:
            gate = np.where(z > 0, 1.0, slope)
            z = z * gate
            zt = None if zt is None else zt * gate
        if acts is not None:
            acts.append((h, ht, gate))
        h, ht = z, zt
    o, ot = h[0], (None if ht is None else ht[0])
    if shortcut is not None:
        so, sot = _fast_shortcut(shortcut, prim, tang)
        o = o + so
        if ot is not None:
            ot = ot + sot
    return o, ot


def _fast_backward(layers, shortcut, acts, bar_o, bar_ot):
    """Pull cotangents on (o, ot) of a recorded ``_fast_forward`` back.

    The gates are constant almost everywhere, so both streams go back
    through the same gated, transposed layers, and a weight collects the
    products with both its primal and its tangent input.  Returns (layer
    gradients ``[w0, b0, w1, b1, ...]``, trainable shortcut gradients
    ``[lin_w, lin_b, amp]`` or ``[]`` when absent or frozen, cotangent on
    the primal channels, cotangent on the tangent channels).
    """
    bar_h, bar_ht = bar_o[None], bar_ot[None]
    grads = []
    for (w, _), (h, ht, gate) in zip(reversed(layers), reversed(acts)):
        if gate is not None:
            bar_h = bar_h * gate
            bar_ht = bar_ht * gate
        gw = (np.tensordot(bar_h, h, axes=([1, 2], [1, 2]))
              + np.tensordot(bar_ht, ht, axes=([1, 2], [1, 2])))
        grads[:0] = [gw, bar_h.sum(axis=(1, 2))]
        w = np.asarray(w, dtype=float)
        bar_h = np.tensordot(w, bar_h, axes=(0, 0))
        bar_ht = np.tensordot(w, bar_ht, axes=(0, 0))
    sc_grads = []
    if shortcut is not None:
        prim, tang = acts[0][0], acts[0][1]
        sc_grads, bar_x, bar_xt = _shortcut_backward(shortcut, prim, tang,
                                                     bar_o, bar_ot)
        bar_h = bar_h + bar_x
        bar_ht = bar_ht + bar_xt
        if shortcut.frozen:
            sc_grads = []
    return grads, sc_grads, bar_h, bar_ht


def _fast_shortcut(sc: Shortcut, prim, tang):
    lin_w = np.asarray(sc.lin_w, dtype=float)
    amp = np.asarray(sc.amp, dtype=float)
    out = float(np.asarray(sc.lin_b, dtype=float)[0])
    out = out + np.tensordot(lin_w, prim, axes=(0, 0))
    diff = prim[None, :, :, :] - sc.centers[:, :, None, None]
    rbf = np.exp((diff**2).sum(axis=1) * (-1.0 / (2.0 * sc.width**2)))
    out = out + np.tensordot(amp, rbf, axes=(0, 0))
    if tang is None:
        return out, None
    ot = np.tensordot(lin_w, tang, axes=(0, 0))
    inner = (diff * tang[None, :, :, :]).sum(axis=1)
    ot = ot + np.tensordot(amp, rbf * inner * (-1.0 / sc.width**2), axes=(0, 0))
    return out, ot


def _shortcut_backward(sc: Shortcut, prim, tang, bar_o, bar_ot):
    """Reverse of ``_fast_shortcut`` with a tangent.

    With k = -1/width^2 and q_r = k amp_r rbf_r, the shortcut adds
    lin_w.x + sum_r amp_r rbf_r to o and lin_w.xt + sum_r q_r (x - c_r).xt
    to ot.  Returns ([d/dlin_w, d/dlin_b, d/damp], d/dx, d/dxt).
    """
    k = -1.0 / sc.width**2
    lin_w = np.asarray(sc.lin_w, dtype=float)
    amp = np.asarray(sc.amp, dtype=float)
    diff = prim[None, :, :, :] - sc.centers[:, :, None, None]
    rbf = np.exp((diff**2).sum(axis=1) * (0.5 * k))
    inner = (diff * tang[None, :, :, :]).sum(axis=1)
    both = ([1, 2], [0, 1])
    g_lin = np.tensordot(prim, bar_o, axes=both) + np.tensordot(tang, bar_ot, axes=both)
    g_amp = (np.tensordot(rbf, bar_o, axes=both)
             + k * np.tensordot(rbf * inner, bar_ot, axes=both))
    q = k * amp[:, None, None] * rbf
    bar_x = (lin_w[:, None, None] * bar_o
             + np.einsum("rkd,rckd->ckd", q * (bar_o + k * inner * bar_ot), diff)
             + tang * (bar_ot * q.sum(axis=0)))
    bar_xt = (lin_w[:, None, None] * bar_ot
              + np.einsum("rkd,rckd->ckd", q * bar_ot, diff))
    return [g_lin, np.array([bar_o.sum()]), g_amp], bar_x, bar_xt


def _fast_channels(parts, seeds, k, d):
    """(value, d/dseed, seed) triples -> stacked primal/tangent arrays."""
    prim = np.empty((len(parts), k, d))
    tang = None
    for i, part in enumerate(parts):
        prim[i] = np.broadcast_to(part, (k, d))
    for i, seeded in seeds:
        if tang is None:
            tang = np.zeros((len(parts), k, d))
        tang[i] = np.broadcast_to(seeded, (k, d))
    return prim, tang


def _q_logits(nets: StrategyNets, u_hat, p, onehot, du_seed=None,
              dp_seed=None, acts=None):
    """Q-net output o_Q before the sigmoid, and its tangent, over (K, D)."""
    p = np.asarray(p, dtype=float)
    k, d = p.shape
    iu, diu = _squash_u_np(u_hat)
    ip, dip = _squash_p_np(p)
    parts = [iu[:, None], ip] + [row[None, :] for row in onehot]
    seeds = []
    if du_seed is not None:
        seeds.append((0, diu[:, None] * du_seed))
    if dp_seed is not None:
        seeds.append((1, dip * dp_seed))
    prim, tang = _fast_channels(parts, seeds, k, d)
    return _fast_forward(nets.q_layers, nets.q_shortcut, prim, tang,
                         nets.cfg.leaky_slope, acts)


def _d_logits(nets: StrategyNets, u_hat, p, du_star, onehot, dp_seed=None,
              acts=None):
    """D-net output o_D before the sigmoid, and its tangent, over (K, D)."""
    p = np.asarray(p, dtype=float)
    k, d = p.shape
    iu, _ = _squash_u_np(u_hat)
    ip, dip = _squash_p_np(p)
    ig, _ = _squash_g_np(du_star)
    parts = [iu[:, None], ip, ig] + [row[None, :] for row in onehot]
    seeds = [] if dp_seed is None else [(1, dip * dp_seed)]
    prim, tang = _fast_channels(parts, seeds, k, d)
    return _fast_forward(nets.d_layers, nets.d_shortcut, prim, tang,
                         nets.cfg.leaky_slope, acts)


def fast_q_eval(nets: StrategyNets, u_hat, p, onehot, sigma,
                du_seed=None, dp_seed=None):
    """G_ii over a (K, D) batch, plus its directional derivative when an
    input seed is given.

    u_hat is (K,).  du_seed rides the potential channel (giving
    dG/dtheta_i when seeded with dU_hat/dtheta_i) and dp_seed the momentum
    channel (giving dG/dp_i when seeded with one); the tangent is None
    when unseeded.
    """
    cfg = nets.cfg
    o, ot = _q_logits(nets, u_hat, p, onehot, du_seed, dp_seed)
    s = _expit(5.0 * o)
    g = sigma * (cfg.c1 + cfg.m_q * s)
    if ot is None:
        return g, None
    return g, sigma * (cfg.m_q * (5.0 * s * (1.0 - s)) * ot)


def fast_d_eval(nets: StrategyNets, u_hat, p, du_star, onehot, dp_seed=None):
    """C_ii over a (K, D) batch, plus dC/dp_i when the momentum channel
    is seeded."""
    cfg = nets.cfg
    o, ot = _d_logits(nets, u_hat, p, du_star, onehot, dp_seed)
    s = _expit(5.0 * o)
    c = cfg.c2 + cfg.m_d * s
    if ot is None:
        return c, None
    return c, cfg.m_d * (5.0 * s * (1.0 - s)) * ot


# --- weight bookkeeping -------------------------------------------------------


def trainable_entries(nets: StrategyNets, include_shortcut: bool = True) -> list:
    """(name, array) pairs in the canonical flattening order."""
    out = []
    for prefix, layers in (("q", nets.q_layers), ("d", nets.d_layers)):
        for li, (w, b) in enumerate(layers):
            out.append((f"{prefix}_w{li}", w))
            out.append((f"{prefix}_b{li}", b))
    if include_shortcut:
        for prefix, sc in (("q", nets.q_shortcut), ("d", nets.d_shortcut)):
            if sc is not None and not sc.frozen:
                out.append((f"{prefix}_sc_lin", sc.lin_w))
                out.append((f"{prefix}_sc_b", sc.lin_b))
                out.append((f"{prefix}_sc_amp", sc.amp))
    return out


def get_trainable_flat(nets: StrategyNets, include_shortcut: bool = True) -> np.ndarray:
    parts = [np.asarray(a, dtype=float).ravel() for _, a in trainable_entries(nets, include_shortcut)]
    return np.concatenate(parts) if parts else np.zeros(0)


def set_trainable_flat(nets: StrategyNets, flat: np.ndarray, include_shortcut: bool = True) -> None:
    pos = 0
    for _, arr in trainable_entries(nets, include_shortcut):
        n = arr.size
        arr[...] = np.asarray(flat[pos : pos + n]).reshape(arr.shape)
        pos += n
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")


def build_tape_nets(nets: StrategyNets, tape: ad.Tape, include_shortcut: bool = True):
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
        if sc.frozen or not include_shortcut:
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
