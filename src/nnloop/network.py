"""Feed-forward controller network kappa(x, r) and its layer traces."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .plant import _frozen


@dataclass(frozen=True)
class Activation:
    """Elementwise activation with global incremental slope bounds [alpha, beta].

    "linear" (slope exactly one everywhere) exists only to support exact
    affine-reduction oracles in tests; it is not a controller activation.
    """

    kind: str
    alpha: float
    beta: float

    def __post_init__(self):
        if self.kind not in ("tanh", "relu", "linear"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "linear":
            if not (self.alpha == self.beta == 1.0):
                raise ValueError("linear activation has alpha = beta = 1")
        elif not (0.0 <= self.alpha < self.beta):
            raise ValueError("require 0 <= alpha < beta")

    @classmethod
    def tanh(cls) -> "Activation":
        return cls(kind="tanh", alpha=0.0, beta=1.0)

    @classmethod
    def relu(cls) -> "Activation":
        return cls(kind="relu", alpha=0.0, beta=1.0)

    @classmethod
    def linear(cls) -> "Activation":
        return cls(kind="linear", alpha=1.0, beta=1.0)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            return np.tanh(v)
        if self.kind == "relu":
            return np.maximum(v, 0.0)
        return np.asarray(v, dtype=float)

    def deriv(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            t = np.tanh(v)
            return 1.0 - t * t
        if self.kind == "relu":
            return np.where(np.asarray(v) > 0.0, 1.0, 0.0)
        return np.ones_like(np.asarray(v, dtype=float))


@dataclass(frozen=True)
class FeedForwardNN:
    """l-layer network u = Wl phi(... phi(W0 (Hx0 x + Hr0 r) + b0) ...) + bl."""

    Hx0: np.ndarray
    Hr0: np.ndarray
    layers: tuple  # ((W0, b0), ..., (W_{l-1}, b_{l-1}))
    Wl: np.ndarray
    bl: np.ndarray
    activation: Activation

    def __post_init__(self):
        Hx0 = _frozen(self.Hx0)
        Hr0 = _frozen(self.Hr0)
        if Hx0.ndim != 2 or Hr0.ndim != 2 or Hx0.shape[0] != Hr0.shape[0]:
            raise DimensionMismatch("Hx0 and Hr0 must share their row count n_0")
        if len(self.layers) < 1:
            raise DimensionMismatch("at least one hidden layer is required")
        width = Hx0.shape[0]
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
        Wl = _frozen(self.Wl)
        bl = _frozen(self.bl)
        if Wl.ndim != 2 or Wl.shape[1] != width:
            raise DimensionMismatch(f"output layer: Wl must have {width} columns")
        if bl.shape != (Wl.shape[0],):
            raise DimensionMismatch("output layer: bl must match Wl rows")
        object.__setattr__(self, "Hx0", Hx0)
        object.__setattr__(self, "Hr0", Hr0)
        object.__setattr__(self, "layers", tuple(frozen_layers))
        object.__setattr__(self, "Wl", Wl)
        object.__setattr__(self, "bl", bl)

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


@dataclass(frozen=True)
class LayerTrace:
    """Per-layer pre-activations v, post-activations w, and output u."""

    w0: np.ndarray
    v: tuple
    w: tuple
    u: np.ndarray

    def stacked_v(self) -> np.ndarray:
        return np.concatenate(self.v)

    def stacked_w(self) -> np.ndarray:
        return np.concatenate(self.w)


class IOMaps(NamedTuple):
    state_feedback: bool
    output_error_feedback: bool


def forward(nn: FeedForwardNN, x, r) -> LayerTrace:
    """Evaluate the network, recording every pre/post-activation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if x.shape != (nn.n_x,):
        raise DimensionMismatch(f"x must have shape ({nn.n_x},)")
    if r.shape != (nn.n_r,):
        raise DimensionMismatch(f"r must have shape ({nn.n_r},)")
    w = nn.Hx0 @ x + nn.Hr0 @ r
    w0 = w
    vs, ws = [], []
    for W, b in nn.layers:
        v = W @ w + b
        w = nn.activation(v)
        vs.append(v)
        ws.append(w)
    u = nn.Wl @ w + nn.bl
    return LayerTrace(w0=w0, v=tuple(vs), w=tuple(ws), u=u)


def evaluate(nn: FeedForwardNN, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Control output kappa(x, r) without a trace.

    The arithmetic is that of :func:`forward` step for step, so the result is
    bit-identical to ``forward(nn, x, r).u``.  Nothing is checked or
    converted: x and r must be float arrays of shapes (n_x,) and (n_r,).
    """
    w = nn.Hx0 @ x + nn.Hr0 @ r
    for W, b in nn.layers:
        w = nn.activation(W @ w + b)
    return nn.Wl @ w + nn.bl


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
    """Read a network from its JSON schema (row-major weight lists)."""
    with open(path) as fh:
        data = json.load(fh)
    act = {"tanh": Activation.tanh, "relu": Activation.relu,
           "linear": Activation.linear}[data["activation"]]()
    layers = tuple(
        (np.array(layer["W"], dtype=float), np.array(layer["b"], dtype=float))
        for layer in data["layers"]
    )
    return FeedForwardNN(
        Hx0=np.array(data["Hx0"], dtype=float),
        Hr0=np.array(data["Hr0"], dtype=float),
        layers=layers,
        Wl=np.array(data["Wl"], dtype=float),
        bl=np.array(data["bl"], dtype=float),
        activation=act,
    )


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
