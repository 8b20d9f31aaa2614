"""Reverse-mode tape and forward-mode dual numbers for the generic
strategy-network path (``strategy.q_eval``, ``d_eval`` and
``build_tape_nets``).

The primitives are the ones that path composes:

* on tape nodes (``Var``): ``+`` and ``*`` with a node or a constant,
  constant ``-`` node, and ``sigmoid``, ``relu`` and ``leaky_relu``;
* on dual numbers (``DualValue``): ``+`` and ``*`` with a dual or any
  other operand, ``-`` and ``/`` by a constant, and ``exp``, ``log``,
  ``sigmoid``, ``relu`` and ``leaky_relu``.

Values held by tape nodes may be Python floats or numpy arrays treated as
batched scalars: every operation is elementwise, and adjoints are reduced
back to each node's own shape on the reverse sweep.

Two structures cooperate:

* ``Tape``/``Var`` give reverse-mode gradients of a recorded output
  with respect to any recorded leaves.
* ``DualValue`` gives forward-mode directional derivatives. Its components
  may themselves be ``Var`` handles, in which case the forward-mode
  arithmetic is recorded onto the enclosing tape, so a directional
  derivative can be differentiated again with respect to tape leaves.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _unbroadcast(grad, like):
    """Reduce a broadcast adjoint back to the shape of ``like``."""
    if not isinstance(like, np.ndarray):
        if isinstance(grad, np.ndarray):
            return float(grad.sum())
        return grad
    g = np.asarray(grad)
    if g.shape == like.shape:
        return g
    extra = g.ndim - like.ndim
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(k for k, n in enumerate(like.shape) if n == 1 and g.shape[k] > 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")
    # Keep numpy from elementwise-looping over Var objects; reflected
    # operators on Var handle array operands instead.
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.values[self.idx]

    def __add__(self, other):
        if isinstance(other, DualValue):
            return NotImplemented
        if isinstance(other, Var):
            return self.tape._push(self.value + other.value,
                                   (self.idx, other.idx), (1.0, 1.0))
        return self.tape._push(self.value + other, (self.idx,), (1.0,))

    __radd__ = __add__

    def __rsub__(self, other):
        return self.tape._push(other - self.value, (self.idx,), (-1.0,))

    def __mul__(self, other):
        if isinstance(other, DualValue):
            return NotImplemented
        if isinstance(other, Var):
            return self.tape._push(self.value * other.value, (self.idx, other.idx),
                                   (other.value, self.value))
        return self.tape._push(self.value * other, (self.idx,), (other,))

    __rmul__ = __mul__


class Tape:
    """Ordered record of nodes with their values and local partials.

    Nodes are appended eagerly with their computed values, and
    ``gradient`` runs one reverse sweep over the node list.
    """

    def __init__(self):
        self.values: list = []
        self._parents: list[tuple] = []
        self._partials: list[tuple] = []

    def __len__(self) -> int:
        return len(self.values)

    def _push(self, value, parents, partials) -> Var:
        self.values.append(value)
        self._parents.append(parents)
        self._partials.append(partials)
        return Var(self, len(self.values) - 1)

    def leaf(self, value) -> Var:
        return self._push(value, (), ())

    def gradient(self, output: Var, wrt: Sequence[Var]) -> list:
        """Adjoints of ``output`` with respect to ``wrt`` (one reverse sweep)."""
        if output.tape is not self:
            raise ValueError("output was recorded on a different tape")
        adj: list = [None] * (output.idx + 1)
        adj[output.idx] = 1.0
        for i in range(output.idx, -1, -1):
            a = adj[i]
            if a is None:
                continue
            for p, lp in zip(self._parents[i], self._partials[i]):
                contrib = _unbroadcast(a * lp, self.values[p])
                if adj[p] is None:
                    adj[p] = contrib
                else:
                    adj[p] = adj[p] + contrib
        result = []
        for v in wrt:
            g = adj[v.idx] if v.idx <= output.idx else None
            if g is None:
                g = np.zeros_like(v.value) if isinstance(v.value, np.ndarray) else 0.0
            result.append(g)
        return result


class DualValue:
    """First-order dual number generic over its component type.

    ``primal`` and ``tangent`` may be floats, numpy arrays, or ``Var``
    handles; a ``Var`` operand counts as a constant.
    """

    __slots__ = ("primal", "tangent")
    __array_ufunc__ = None

    def __init__(self, primal, tangent):
        self.primal = primal
        self.tangent = tangent

    def __add__(self, other):
        if isinstance(other, DualValue):
            return DualValue(self.primal + other.primal, self.tangent + other.tangent)
        return DualValue(self.primal + other, self.tangent)

    __radd__ = __add__

    def __sub__(self, other):
        """Subtract a constant."""
        return DualValue(self.primal - other, self.tangent)

    def __mul__(self, other):
        if isinstance(other, DualValue):
            return DualValue(self.primal * other.primal,
                             self.tangent * other.primal + other.tangent * self.primal)
        return DualValue(self.primal * other, self.tangent * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Divide by a constant."""
        return DualValue(self.primal / other, self.tangent / other)


# --- generic elementwise functions -----------------------------------------
#
# Each dispatches on DualValue (chain rule; components may themselves be
# Vars), Var (tape node; sigmoid and the ReLUs only) or plain numerics.
# Strategy-network code is written once against these and runs in all
# three modes.


def exp(x):
    if isinstance(x, DualValue):
        e = np.exp(x.primal)
        return DualValue(e, x.tangent * e)
    return np.exp(x)


def log(x):
    if isinstance(x, DualValue):
        return DualValue(np.log(x.primal), x.tangent / x.primal)
    return np.log(x)


def sigmoid(x):
    from .strategy import logistic  # strategy imports this module

    if isinstance(x, DualValue):
        s = sigmoid(x.primal)
        return DualValue(s, x.tangent * (s * (1.0 - s)))
    if isinstance(x, Var):
        s = logistic(x.value)
        return x.tape._push(s, (x.idx,), (s * (1.0 - s),))
    return logistic(x)


def _pos_slope(v, slope):
    """1 where v > 0 else slope, preserving float/array type of v."""
    if isinstance(v, np.ndarray):
        return np.where(v > 0, 1.0, slope)
    return 1.0 if v > 0 else slope


def relu(x):
    return leaky_relu(x, 0.0)


def leaky_relu(x, slope: float = 0.01):
    # Subgradient at exactly 0 is the negative-side slope (gate is strict >).
    if isinstance(x, DualValue):
        p = x.primal
        mask = _pos_slope(p.value if isinstance(p, Var) else p, slope)
        return DualValue(p * mask, x.tangent * mask)
    if isinstance(x, Var):
        mask = _pos_slope(x.value, slope)
        return x.tape._push(x.value * mask, (x.idx,), (mask,))
    return x * _pos_slope(x, slope)
