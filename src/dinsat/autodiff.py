"""Minimal tape-based reverse-mode autodiff over numpy arrays.

Every traced value is a Var registered on a Tape in creation order, which is
also a topological order, so the backward sweep is a single reversed pass.
Functions in this module accept either Vars or plain ndarrays and return the
same kind, letting model code run traced (training) or untraced (inference)
through one code path.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError


class Tape:
    """Owns the node list for one differentiation pass; single-threaded."""

    def __init__(self) -> None:
        self.nodes: list[Var] = []

    def leaf(self, value) -> "Var":
        """Register a parameter leaf; its .grad is populated by backward()."""
        return Var(self, value)


class Var:
    """A traced array value with a vector-Jacobian product closure."""

    # Keep numpy from elementwise-consuming Var operands; binary ops with
    # ndarrays then dispatch to the reflected methods below.
    __array_ufunc__ = None
    __slots__ = ("tape", "value", "grad", "_id", "_vjp")

    def __init__(self, tape: Tape, value, vjp: Optional[Callable] = None):
        value = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(value)):
            raise NumericError("non-finite forward value entered the tape")
        self.tape = tape
        self.value = value
        self.grad: Optional[np.ndarray] = None
        self._vjp = vjp
        self._id = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __getitem__(self, idx):
        src = self
        if _is_basic_index(idx):
            # A basic index selects each element at most once.
            def vjp(g):
                src.grad[idx] += g

        else:
            # Array indices may repeat; np.add.at accumulates the repeats.
            def vjp(g):
                np.add.at(src.grad, idx, g)

        return Var(self.tape, self.value[idx], vjp)

    def sum(self):
        return sum(self)

    def mean(self):
        return mean(self)


def _is_basic_index(idx) -> bool:
    """True for an int, a slice, None, Ellipsis, or a tuple of those."""
    return all(
        (isinstance(i, (int, np.integer, slice)) and not isinstance(i, bool))
        or i is None
        or i is Ellipsis
        for i in (idx if isinstance(idx, tuple) else (idx,))
    )


def _tape_of(*xs) -> Optional[Tape]:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def _lift(tape: Tape, x) -> Var:
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ContractError("operands belong to different tapes")
        return x
    return Var(tape, x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, vjp_a, vjp_b):
    tape = _tape_of(a, b)
    if tape is None:
        return fwd(np.asarray(a, float), np.asarray(b, float))
    av, bv = _lift(tape, a), _lift(tape, b)
    try:
        val = fwd(av.value, bv.value)
    except ValueError as e:
        raise ShapeError(str(e)) from e

    def vjp(g):
        av.grad += _unbroadcast(vjp_a(g, av.value, bv.value), av.value.shape)
        bv.grad += _unbroadcast(vjp_b(g, av.value, bv.value), bv.value.shape)

    return Var(tape, val, vjp)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(
        a,
        b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def node(value, inputs: Sequence, vjp: Callable):
    """One tape node with forward ``value`` over ``inputs`` and a hand-written VJP.

    ``vjp(g)`` returns one cotangent per input, each shaped like that input;
    the node adds them into the .grad of the inputs that are Vars. With no Var
    among ``inputs`` this returns ``value`` as a plain array. Traced inputs
    must share one tape (ContractError), and a non-finite ``value`` raises
    NumericError like every other node.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return value
    traced = []
    for i, x in enumerate(inputs):
        if isinstance(x, Var):
            if x.tape is not tape:
                raise ContractError("operands belong to different tapes")
            traced.append((i, x))

    def backprop(g):
        cotangents = vjp(g)
        for i, x in traced:
            x.grad += cotangents[i]

    return Var(tape, value, backprop)


def elementwise(a, fwd, dfd):
    """One node for an elementwise map: fwd(x) forward, dfd(x, fwd(x)) its derivative."""
    if not isinstance(a, Var):
        return fwd(np.asarray(a, float))
    src = a
    val = fwd(a.value)

    def vjp(g):
        src.grad += g * dfd(src.value, val)

    return Var(a.tape, val, vjp)


def logistic(x, out=None) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)) of a plain array, in float64.

    Computed in one temporary (or in ``out``, which may be ``x`` itself).
    exp(-x) overflows to inf for x below about -709.78, which gives exactly
    0 with no warning; NaN stays NaN.
    """
    if out is None:
        out = np.empty(np.shape(x))
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def softplus(a):
    return elementwise(a, lambda x: np.logaddexp(0.0, x), lambda x, v: logistic(x))


def absolute(a):
    return elementwise(a, np.abs, lambda x, v: np.sign(x))


def clip_min(a, lo: float):
    """max(a, lo); gradient passes only where a > lo."""
    return elementwise(
        a,
        lambda x: np.maximum(x, lo),
        lambda x, v: (x > lo).astype(float),
    )


def sum(a):  # noqa: A001 - mirrors the numpy naming convention
    if not isinstance(a, Var):
        return float(np.asarray(a, float).sum())
    src = a

    def vjp(g):
        src.grad += g

    return Var(a.tape, a.value.sum(), vjp)


def mean(a):
    if not isinstance(a, Var):
        return float(np.asarray(a, float).mean())
    src = a
    n = a.value.size

    def vjp(g):
        src.grad += g / n

    return Var(a.tape, a.value.mean(), vjp)


def value_of(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, float)


def backward(out: Var) -> None:
    """Populate .grad on every node reachable from the scalar output."""
    if not isinstance(out, Var):
        raise ContractError("backward requires a traced Var")
    if out.value.size != 1:
        raise ContractError("backward requires a scalar output")
    tape = out.tape
    for node in tape.nodes:
        node.grad = np.zeros_like(node.value)
    out.grad = np.ones_like(out.value)
    for node in reversed(tape.nodes[: out._id + 1]):
        if node._vjp is not None and np.any(node.grad):
            node._vjp(node.grad)


def finite_difference(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient; the independent oracle used by the tests."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g
