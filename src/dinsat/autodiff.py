"""Minimal tape-based reverse-mode autodiff over numpy arrays.

Every traced value is a Var registered on a Tape in creation order, which is
also a topological order, so the backward sweep is a single reversed pass.
The tape records only hand-written nodes: ``node`` takes a forward value and
a VJP over any number of inputs, and ``elementwise`` is its one-input
shorthand for an elementwise map. Both return a plain array when no input is
a Var, so model code runs traced (training) or untraced (inference) through
one code path. A Var has no arithmetic of its own.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, NumericError


class Tape:
    """Owns the node list for one differentiation pass; single-threaded."""

    def __init__(self) -> None:
        self.nodes: list[Var] = []

    def leaf(self, value) -> "Var":
        """Register a parameter leaf; its .grad is populated by backward()."""
        return Var(self, value)


class Var:
    """A traced array value with a vector-Jacobian product closure."""

    # A Var defines no operators, and this keeps numpy from consuming one
    # elementwise into an object array: ndarray * Var, like Var * x, raises
    # TypeError. Traced arithmetic is a node with a hand-written VJP.
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


def node(value, inputs: Sequence, vjp: Callable):
    """One tape node with forward ``value`` over ``inputs`` and a hand-written VJP.

    ``vjp(g)`` returns one cotangent per input, each shaped like that input;
    the node adds them into the .grad of the inputs that are Vars. With no Var
    among ``inputs`` this returns ``value`` as a plain array. Traced inputs
    must share one tape (ContractError), and a non-finite ``value`` raises
    NumericError like every other node.
    """
    traced = [(i, x) for i, x in enumerate(inputs) if isinstance(x, Var)]
    if not traced:
        return value
    tape = traced[0][1].tape
    if any(x.tape is not tape for _, x in traced):
        raise ContractError("operands belong to different tapes")

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
