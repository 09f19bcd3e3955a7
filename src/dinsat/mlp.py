"""Small MLPs over a flat parameter vector, on plain arrays.

The layer math lives in three array helpers: ``unpack_params`` splits the flat
vector into per-layer views once, ``layers_forward`` applies the layers and
keeps every activation, and ``layers_backward`` backprops a cotangent through
them by hand. The nonlinear transmission profile unpacks its whole
encoder/decoder network, one layout, once and holds the layers; its
rate runs them through one ``layers_forward`` call, and the rate's VJP
through one ``layers_backward`` call as well.

``layers_forward`` writes each layer's matmul into one array, a new one or
a buffer it is given, and works in it: the bias is added in place, and a
sigmoid layer is computed as 1 / (1 + exp(x @ (-W) + (-b))) with exp, +1
and the reciprocal in that same array. ``unpack_params`` negates each
sigmoid layer's weights once for this, so the forward pass has no negation
pass; negation is exact and rounding to nearest is symmetric in sign, so
the result is bit-identical to 1 / (1 + exp(-(x @ W + b))). ``batch_layers``
makes what a plain solve hands ``layers_forward``, once per solve: the
forward pairs cast to the solve's dtype, each bias copied out to the
batch's full height, so that it is added without broadcasting, and one
buffer per hidden layer. exp may overflow, which gives exactly 0; the
helpers enter no ``np.errstate`` themselves, so each caller enters
``np.errstate(over="ignore")`` once around a whole solve or network pass,
not once per layer. The backward pass reads only
post-activation values and the unnegated W. The forward helpers keep their
operands' dtype: complex, so a complex-step check can run through them;
float64; and float32, for layers that ``batch_layers`` casts to float32
for a float32 input, where exp overflows to inf above about 88.72 rather
than 709.78.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("sigmoid", "linear")


@dataclass(frozen=True)
class MlpLayout:
    """Architecture descriptor: layer sizes plus one activation tag per layer."""

    sizes: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.sizes) < 2:
            raise ConfigError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in self.sizes):
            raise ConfigError("layer sizes must be positive")
        if len(self.activations) != len(self.sizes) - 1:
            raise ConfigError("need one activation tag per layer")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ConfigError(f"unknown activation: {act!r}")

    @property
    def layer_pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.sizes[:-1], self.sizes[1:]))

    @property
    def n_params(self) -> int:
        return sum(n_in * n_out + n_out for n_in, n_out in self.layer_pairs)


def glorot_init(layout: MlpLayout, rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot weights, zero biases, flattened in layer order."""
    parts = []
    for n_in, n_out in layout.layer_pairs:
        limit = np.sqrt(6.0 / (n_in + n_out))
        parts.append(rng.uniform(-limit, limit, n_in * n_out))
        parts.append(np.zeros(n_out))
    return np.concatenate(parts)


def _logistic_of_negated(u: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(u)), the logistic of -u, computed in u's own buffer.

    exp(u) overflows to inf for u above about 709.78 (88.72 in float32),
    which gives exactly 0; NaN stays NaN. Run it under
    ``np.errstate(over="ignore")`` for that overflow to pass without a warning.
    """
    np.exp(u, out=u)
    u += 1.0
    return np.reciprocal(u, out=u)


def logistic(x) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)) of a plain array, in float64 or complex, computed in one temporary."""
    out = np.empty(np.shape(x), np.result_type(x, float))
    with np.errstate(over="ignore"):
        return _logistic_of_negated(np.negative(x, out=out))


# (W, activation, forward W, forward b): the forward pair is (-W, -b) for a
# sigmoid layer and (W, b) itself for a linear one.
Layer = tuple[np.ndarray, str, np.ndarray, np.ndarray]


def unpack_params(params: np.ndarray, layout: MlpLayout) -> list[Layer]:
    """(W, activation, forward W, forward b) per layer.

    W is a view into the flat vector, and so is a linear layer's forward pair;
    a sigmoid layer's forward pair (-W, -b) is made here, once for every
    ``layers_forward`` call over these layers. The nonlinear profile calls
    this once and keeps the result for every solve it runs.
    """
    params = np.asarray(params)
    params = params.astype(np.result_type(params, float), copy=False)
    if params.shape != (layout.n_params,):
        raise ShapeError(
            f"parameter vector has shape {params.shape}, layout needs ({layout.n_params},)"
        )
    layers = []
    offset = 0
    for (n_in, n_out), act in zip(layout.layer_pairs, layout.activations):
        w = params[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = params[offset : offset + n_out]
        offset += n_out
        if act == "sigmoid":
            layers.append((w, act, -w, -b))
        else:
            layers.append((w, act, w, b))
    return layers


def batch_layers(layers: list[Layer], batch_shape: tuple, dtype) -> tuple[list[Layer], list[np.ndarray]]:
    """``layers`` in ``dtype`` for inputs with leading axes ``batch_shape``, and a buffer for each hidden layer.

    Each forward weight is cast to ``dtype`` (not copied when it already
    has it), and each forward bias is cast, then copied out to the full
    batch height, so that ``layers_forward`` adds it without broadcasting;
    the copy is C-contiguous, as a cast of the broadcast view would not be.
    The buffers have ``dtype``. Made once per solve, they serve every
    ``layers_forward`` call over a batch of that shape.
    """
    full = [(w, act, w_fwd.astype(dtype, copy=False),
             np.broadcast_to(b_fwd.astype(dtype, copy=False), (*batch_shape, b_fwd.size)).copy())
            for w, act, w_fwd, b_fwd in layers]
    hidden = [np.empty((*batch_shape, w.shape[1]), dtype) for w, *_ in layers[:-1]]
    return full, hidden


def layers_forward(layers: list[Layer], x: np.ndarray, out=None) -> list[np.ndarray]:
    """Every activation [x, a_1, ..., a_out]; the last is the network output.

    Layer i's matmul writes into ``out[i]`` when ``out`` is given, else into
    a new array. A sigmoid layer's exp may overflow; run this under
    ``np.errstate(over="ignore")``.
    """
    acts = [x]
    for i, (_, act, w_fwd, b_fwd) in enumerate(layers):
        x = np.matmul(x, w_fwd, out=None if out is None else out[i])
        x += b_fwd
        if act == "sigmoid":
            _logistic_of_negated(x)
        acts.append(x)
    return acts


def layers_backward(
    layers: list[Layer], acts: list[np.ndarray], g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backprop the output cotangent g through ``layers_forward``'s activations.

    Returns (gradient w.r.t. the input, flat parameter gradient in layout
    order). Leading batch axes are summed out of the parameter gradient.
    """
    grads = []
    for (w, act, _, _), x, out in zip(reversed(layers), reversed(acts[:-1]), reversed(acts[1:])):
        if act == "sigmoid":
            g = g * (out * (1.0 - out))
        g2 = g.reshape(-1, w.shape[1])
        grads.append(g2.sum(axis=0))
        grads.append((x.reshape(-1, w.shape[0]).T @ g2).reshape(-1))
        g = g @ w.T
    return g, np.concatenate(grads[::-1])

