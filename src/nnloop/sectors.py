"""Pre-activation interval propagation and local incremental sector bounds.

Given a box ``v1 in [v1_* - d, v1_* + d]`` on the first hidden layer, the box
is pushed through the network with sign-split interval arithmetic.  For every
neuron the incremental chord set anchored at its stationary input,

    { (phi(v) - phi(v_*)) / (v - v_*) : v in [v_lo, v_hi] \\ {v_*} } u {phi'(v_*)},

is then enclosed as tightly as possible:

* relu: exact closed form from the sign pattern of the box and the anchor;
* tanh: closed form from the endpoint chords, phi'(v_*) and the chord at the
  one tangent point, a bisected root (see ``_tanh_sector``), widened by 1e-12
  to cover the floating-point evaluation error;
* identity: the slope is identically one.

Enclosures are monotone under box growth: enlarging d never tightens a sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveD, StarOutsideBox
from .network import Activation, FeedForwardNN
from .plant import _Value, _frozen

_WIDEN = 1e-12
_ROOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BoundBox(_Value):
    """Per-layer elementwise intervals for pre- and post-activations."""

    v_lo: tuple
    v_hi: tuple
    w_lo: tuple
    w_hi: tuple

    def __post_init__(self):
        for name in ("v_lo", "v_hi", "w_lo", "w_hi"):
            object.__setattr__(self, name, tuple(_frozen(a) for a in getattr(self, name)))


@dataclass(frozen=True, eq=False)
class SectorBounds(_Value):
    """Stacked per-neuron local slope bounds alpha_phi <= beta_phi."""

    alpha_phi: np.ndarray
    beta_phi: np.ndarray

    def __post_init__(self):
        a = _frozen(self.alpha_phi)
        b = _frozen(self.beta_phi)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("alpha_phi and beta_phi must be equal-length vectors")
        if np.any(a > b):
            raise ValueError("alpha_phi must not exceed beta_phi")
        object.__setattr__(self, "alpha_phi", a)
        object.__setattr__(self, "beta_phi", b)

    @property
    def n(self) -> int:
        return self.alpha_phi.shape[0]


def global_sectors(activation: Activation, n: int) -> SectorBounds:
    """Sector bounds equal to the activation's global slope restriction."""
    return SectorBounds(alpha_phi=np.full(n, activation.alpha),
                        beta_phi=np.full(n, activation.beta))


def half_widths(d, n_1: int) -> np.ndarray:
    """The layer-1 box half-widths ``d``, a scalar or one per neuron, as n_1
    entries; each must be finite and strictly positive."""
    d = np.asarray(d, dtype=float)
    if d.ndim > 1 or d.size not in (1, n_1):
        raise DimensionMismatch(
            f"box half-width d must be a scalar or have one entry per "
            f"layer-1 neuron ({n_1}), got shape {d.shape}")
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise NonPositiveD("box half-widths must be finite and strictly positive")
    return np.broadcast_to(d, (n_1,))


def propagate_box(nn: FeedForwardNN, v1_star_center, d) -> BoundBox:
    """Intervals for all layers from the layer-1 box ``v1_star_center +- d``.

    ``d`` may be a scalar (broadcast over the first hidden layer) or a vector
    of per-neuron half-widths (see :func:`half_widths`).
    """
    n_1 = nn.hidden_widths[0]
    d = half_widths(d, n_1)
    center = np.asarray(v1_star_center, dtype=float)
    if center.shape != (n_1,):
        raise DimensionMismatch(f"v1 center must have shape ({n_1},)")

    act = nn.activation
    v_lo, v_hi = [center - d], [center + d]
    w_lo, w_hi = [act(v_lo[0])], [act(v_hi[0])]  # activations are monotone
    for W, b in nn.layers[1:]:
        Wp = np.maximum(W, 0.0)
        Wn = np.minimum(W, 0.0)
        lo = Wp @ w_lo[-1] + Wn @ w_hi[-1] + b
        hi = Wp @ w_hi[-1] + Wn @ w_lo[-1] + b
        v_lo.append(lo)
        v_hi.append(hi)
        w_lo.append(act(lo))
        w_hi.append(act(hi))
    return BoundBox(v_lo=tuple(v_lo), v_hi=tuple(v_hi),
                    w_lo=tuple(w_lo), w_hi=tuple(w_hi))


def local_sectors(nn: FeedForwardNN, box: BoundBox, v_star) -> SectorBounds:
    """Tight per-neuron sector bounds anchored at the stationary inputs.

    ``v_star`` holds the stationary pre-activation vector of each layer (the
    ``v`` of a stationary LayerTrace); each entry must lie inside the box.
    """
    if len(v_star) != len(box.v_lo):
        raise StarOutsideBox("stationary trace and box disagree on layer count")
    alphas, betas = [], []
    for layer, vs_vec in enumerate(v_star):
        lo_vec, hi_vec = box.v_lo[layer], box.v_hi[layer]
        for j in range(lo_vec.shape[0]):
            lo, hi, vs = float(lo_vec[j]), float(hi_vec[j]), float(vs_vec[j])
            tol = 1e-9 * (1.0 + abs(vs))
            if vs < lo - tol or vs > hi + tol:
                raise StarOutsideBox(
                    f"layer {layer + 1}, neuron {j}: v_* = {vs} outside [{lo}, {hi}]")
            vs = min(max(vs, lo), hi)
            a, b = _sector_1d(nn.activation, lo, hi, vs)
            alphas.append(a)
            betas.append(b)
    return SectorBounds(alpha_phi=np.array(alphas), beta_phi=np.array(betas))


def _sector_1d(act: Activation, lo: float, hi: float, vs: float):
    if act.kind == "relu":
        return _relu_sector(lo, hi, vs)
    if act.kind == "tanh":
        return _tanh_sector(lo, hi, vs)
    return act.alpha, act.beta  # identity: both slopes are one


def _relu_sector(lo: float, hi: float, vs: float):
    # Exact case analysis on the sign crossing of the box and the anchor.
    if hi <= 0.0:
        return 0.0, 0.0
    if lo >= 0.0:
        return 1.0, 1.0
    if vs > 0.0:
        return vs / (vs - lo), 1.0
    if vs < 0.0:
        return 0.0, hi / (hi - vs)
    return 0.0, 1.0


def _tanh_chord(v, vs: float):
    """Chord slope (tanh v - tanh vs) / (v - vs), free of cancellation.

    Uses tanh a - tanh b = tanh(a - b)(1 - tanh a tanh b); the ratio
    tanh(dv)/dv is 1 at dv == 0, where the chord is tanh'(vs).
    """
    v = np.asarray(v, dtype=float)
    dv = v - vs
    zero = dv == 0.0
    ratio = np.where(zero, 1.0, np.tanh(dv) / np.where(zero, 1.0, dv))
    return ratio * (1.0 - np.tanh(v) * np.tanh(vs))


def _tanh_tangent_root(c: float) -> float:
    """Root r < 0 of h(v) = tanh'(v)(v - c) - (tanh v - tanh c) for c > 0,
    bisected to width 1e-12 on a doubling bracket [a, 0], h(a) > 0 >= h(0)."""
    tc = math.tanh(c)

    def h(v):
        t = math.tanh(v)
        return (1.0 - t * t) * (v - c) - (t - tc)

    a, b = -1.0, 0.0
    while h(a) <= 0.0:
        a *= 2.0
    while b - a > _ROOT_TOL:
        m = 0.5 * (a + b)
        a, b = (m, b) if h(m) > 0.0 else (a, m)
    return 0.5 * (a + b)


def _tanh_sector(lo: float, hi: float, vs: float):
    """Range of the tanh chord slope s anchored at vs over [lo, hi], widened.

    tanh is odd, so mirror to the anchor c = |vs| >= 0 and let
    h(v) = tanh'(v)(v - c) - (tanh v - tanh c); then s' = h/(v - c)^2 and
    h' = tanh''(v)(v - c), where tanh'' has the sign of -v.  For c > 0,
    h' > 0 on (0, c), h(c) = 0 and h' < 0 beyond, so s' < 0 for v > 0 (at
    v = c, s' = tanh''(c)/2); on v < 0, h falls from 1 + tanh c to
    tanh c - c < 0, so it has exactly one root r there.  For c = 0, h' <= 0
    and h(0) = 0, so r = 0.  Hence s rises up to the tangent point v_t (r
    mirrored back, of the sign opposite to vs) and falls after it: alpha is
    the smaller endpoint chord, and beta the largest of the endpoint chords,
    tanh'(vs) and, if v_t lies in the box, the chord at v_t.  A root error d
    moves that chord by O(d^2), as s'(v_t) = 0, and chords are exact to
    ~2e-16, so the 1e-12 widening keeps the enclosure sound.
    """
    ends = _tanh_chord(np.array([lo, hi]), vs)
    beta = max(float(ends.max()), 1.0 - math.tanh(vs) ** 2)
    if vs != 0.0:
        v_t = math.copysign(_tanh_tangent_root(abs(vs)), -vs)
        if lo <= v_t <= hi:
            beta = max(beta, float(_tanh_chord(v_t, vs)))
    return max(float(ends.min()) - _WIDEN, 0.0), min(beta + _WIDEN, 1.0)
