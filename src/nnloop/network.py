"""Feed-forward controller network kappa(x, r) and its layer traces.

Every evaluation here runs over a stack of points, one per row, and a
single point is a stack of one row: :func:`forward` and :func:`evaluate`,
and through :func:`_layer_pass` the steady-state map
(:func:`plant.xtil_star_map`).  Each row of a stack is bit for bit the
single-vector pass of the closed-loop step (:func:`closed_loop._stepper`),
the one place where a point is evaluated on its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BadModelFile, DimensionMismatch
from .plant import _Value, _frozen, _matvecs, _read_json


# Each kind as (ufunc, trailing arguments, alpha, beta): applied as
# ufunc(v, *arguments), relu is np.maximum(v, 0.0) in that argument order and
# linear a bit-exact copy; every chord slope lies in [alpha, beta].
_KINDS = {"tanh": (np.tanh, (), 0.0, 1.0), "relu": (np.maximum, (0.0,), 0.0, 1.0),
          "linear": (np.positive, (), 1.0, 1.0)}


@dataclass(frozen=True)
class Activation:
    """Elementwise activation of one kind, whose global incremental slope
    bounds [alpha, beta] the kind fixes.

    "linear" (slope exactly one everywhere) exists only to support exact
    affine-reduction oracles in tests; it is not a controller activation.
    """

    kind: str
    alpha: float = field(init=False)
    beta: float = field(init=False)
    ufunc: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ValueError(f"unknown activation {self.kind!r}; "
                             f"known: {', '.join(_KINDS)}")
        fn, args, alpha, beta = _KINDS[self.kind]
        object.__setattr__(self, "ufunc", (fn, args))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def tanh(cls) -> "Activation":
        return cls("tanh")

    @classmethod
    def relu(cls) -> "Activation":
        return cls("relu")

    @classmethod
    def linear(cls) -> "Activation":
        return cls("linear")

    def __call__(self, v: np.ndarray) -> np.ndarray:
        fn, args = self.ufunc
        return fn(np.asarray(v, dtype=float), *args)

    def deriv(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            t = np.tanh(v)
            return 1.0 - t * t
        if self.kind == "relu":
            return np.where(np.asarray(v) > 0.0, 1.0, 0.0)
        return np.ones_like(np.asarray(v, dtype=float))


@dataclass(frozen=True, eq=False)
class FeedForwardNN(_Value):
    """l-layer network u = Wl phi(... phi(W0 (Hx0 x + Hr0 r) + b0) ...) + bl."""

    Hx0: np.ndarray
    Hr0: np.ndarray
    layers: tuple  # ((W0, b0), ..., (W_{l-1}, b_{l-1}))
    Wl: np.ndarray
    bl: np.ndarray
    activation: Activation

    _arrays = ("Hx0", "Hr0", "Wl", "bl")

    def __post_init__(self):
        super().__post_init__()
        if self.Hx0.ndim != 2 or self.Hr0.ndim != 2 or self.Hx0.shape[0] != self.Hr0.shape[0]:
            raise DimensionMismatch("Hx0 and Hr0 must share their row count n_0")
        if len(self.layers) < 1:
            raise DimensionMismatch("at least one hidden layer is required")
        width = self.Hx0.shape[0]
        frozen_layers = []
        for i, (W, b) in enumerate(self.layers):
            W = _frozen(W)
            b = _frozen(b)
            if W.ndim != 2 or W.shape[1] != width:
                raise DimensionMismatch(f"layer {i}: W must have {width} columns")
            if b.shape != (W.shape[0],):
                raise DimensionMismatch(f"layer {i}: b must have length {W.shape[0]}")
            width = W.shape[0]
            frozen_layers.append((W, b))
        if self.Wl.ndim != 2 or self.Wl.shape[1] != width:
            raise DimensionMismatch(f"output layer: Wl must have {width} columns")
        if self.bl.shape != (self.n_u,):
            raise DimensionMismatch("output layer: bl must match Wl rows")
        object.__setattr__(self, "layers", tuple(frozen_layers))

    @property
    def n_x(self) -> int:
        return self.Hx0.shape[1]

    @property
    def n_r(self) -> int:
        return self.Hr0.shape[1]

    @property
    def n_u(self) -> int:
        return self.Wl.shape[0]

    @property
    def depth(self) -> int:
        """Number of hidden layers l."""
        return len(self.layers)

    @property
    def hidden_widths(self) -> tuple:
        return tuple(W.shape[0] for W, _ in self.layers)

    @property
    def n_hidden(self) -> int:
        """Total neuron count n = sum of hidden widths."""
        return sum(self.hidden_widths)


@dataclass(frozen=True, eq=False)
class LayerTrace(_Value):
    """Per-layer pre-activations v, post-activations w, and output u."""

    v: tuple
    w: tuple
    u: np.ndarray

    # A non-finite point gives non-finite entries.
    _arrays = _nonfinite = ("v", "w", "u")
    _tuples = ("v", "w")

    def stacked_v(self) -> np.ndarray:
        return np.concatenate(self.v)

    def stacked_w(self) -> np.ndarray:
        return np.concatenate(self.w)


class IOMaps(NamedTuple):
    state_feedback: bool
    output_error_feedback: bool


def forward(nn: FeedForwardNN, x, r) -> LayerTrace:
    """Evaluate the network, recording every pre/post-activation; the point
    is a stack of one row."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if x.shape != (nn.n_x,):
        raise DimensionMismatch(f"x must have shape ({nn.n_x},)")
    if r.shape != (nn.n_r,):
        raise DimensionMismatch(f"r must have shape ({nn.n_r},)")
    trace = []
    u = _layer_pass(nn)(x[None, :], r[None, :], trace)
    return LayerTrace(v=tuple(v[0] for v, _ in trace),
                      w=tuple(w[0] for _, w in trace), u=u[0])


def evaluate(nn: FeedForwardNN, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Control output kappa(x, r) without a trace.

    x and r are float arrays of shapes (N, n_x) and (N, n_r), stacks of N
    points, one per row, each a fresh array or a :func:`plant._rows` copy,
    giving u of shape (N, n_u); a point (n_x,), (n_r,) is a stack of one row
    and gives u of shape (n_u,).  Nothing is checked.  The pass is that of
    :func:`forward`, so every row of a stack is bit for bit
    ``forward(nn, x_j, r_j).u``.
    """
    if x.ndim == 1:
        return _layer_pass(nn)(x[None, :], r[None, :])[0]
    return _layer_pass(nn)(x, r)


def _layer_pass(nn: FeedForwardNN):
    """The network's pass over stacks: ``pass_(X, R, trace=None)`` gives the
    outputs (N, n_u) of the states X (N, n_x) and references R (N, n_r), one
    point per row, and appends each hidden layer's stacked (v, w) to a list
    ``trace``.  Each product is formed one row at a time
    (:func:`plant._matvecs`), so each row is bit for bit the closed-loop
    step's pass at that point.  The activation's ufunc is bound when the
    pass is made."""
    act, args = nn.activation.ufunc

    def pass_(X, R, trace=None):
        w = _matvecs(nn.Hx0, X) + _matvecs(nn.Hr0, R)
        for W, b in nn.layers:
            v = _matvecs(W, w) + b
            w = act(v, *args)
            if trace is not None:
                trace.append((v, w))
        return _matvecs(nn.Wl, w) + nn.bl

    return pass_


def steady_forward(nn: FeedForwardNN, x_star, r) -> LayerTrace:
    """Stationary trace (v_*, w_*): a forward pass at the steady state."""
    return forward(nn, x_star, r)


def io_maps(nn: FeedForwardNN, C=None) -> IOMaps:
    """Classify the input maps: state feedback (w0 = x) and, when the plant
    output matrix C is supplied, output-error feedback (w0 = r - y)."""
    sf = (
        nn.Hx0.shape[0] == nn.Hx0.shape[1]
        and np.array_equal(nn.Hx0, np.eye(nn.n_x))
        and not np.any(nn.Hr0)
    )
    oe = False
    if C is not None:
        C = np.asarray(C, dtype=float)
        oe = (
            nn.Hx0.shape == C.shape
            and np.array_equal(nn.Hx0, -C)
            and np.array_equal(nn.Hr0, np.eye(nn.n_r))
        )
    return IOMaps(state_feedback=bool(sf), output_error_feedback=bool(oe))


def load_nn(path) -> FeedForwardNN:
    """Read a network from its JSON schema (row-major weight lists).

    An unreadable file, malformed JSON, a missing key, a value of the wrong
    type or shape, a non-finite entry or an unknown activation raises
    BadModelFile naming the file.
    """
    data = _read_json(path, "network file")
    try:
        return FeedForwardNN(
            activation=Activation(data["activation"]),
            layers=tuple((np.array(layer["W"], dtype=float),
                          np.array(layer["b"], dtype=float))
                         for layer in data["layers"]),
            **{key: np.array(data[key], dtype=float)
               for key in ("Hx0", "Hr0", "Wl", "bl")})
    except KeyError as exc:
        raise BadModelFile(f"network file {path} has no key {exc.args[0]!r}") from None
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise BadModelFile(f"network file {path} is malformed: {exc}") from None


def save_nn(nn: FeedForwardNN, path) -> None:
    data = {
        "activation": nn.activation.kind,
        "Hx0": nn.Hx0.tolist(),
        "Hr0": nn.Hr0.tolist(),
        "layers": [{"W": W.tolist(), "b": b.tolist()} for W, b in nn.layers],
        "Wl": nn.Wl.tolist(),
        "bl": nn.bl.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
