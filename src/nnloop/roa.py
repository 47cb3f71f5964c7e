"""Ellipsoidal region-of-attraction sets, their slices, and plot exports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .plant import _frozen, steady_state_map, xtil_star_map

# Slice centers a joint set keeps, least recently used evicted first.  A
# governed step revisits the desired reference, the clipped interval end and
# the first bisection midpoints of the step before; on the pendulum benchmark
# states 64 entries hit as often as an unbounded memo.
CENTER_MEMO_SIZE = 64
# References in the grid over the admissible interval on which the governor
# brackets the feasible references before it bisects (n_r = 1).
GRID_POINTS = 256


class Membership(NamedTuple):
    inside: bool
    margin: float


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Set { x : (x - center)' shape (x - center) <= level }.

    Two ellipsoids are equal when their centers, shapes and levels are; like
    their numpy arrays, they are not hashable.
    """

    center: np.ndarray
    shape: np.ndarray
    level: float = 1.0

    def __post_init__(self):
        center = _frozen(self.center)
        shape = _frozen(self.shape)
        if shape.ndim != 2 or shape.shape[0] != shape.shape[1]:
            raise ValueError("shape matrix must be square")
        if center.shape != (shape.shape[0],):
            raise ValueError("center must match the shape dimension")
        if np.max(np.abs(shape - shape.T)) > 1e-10 * (1.0 + np.max(np.abs(shape))):
            raise ValueError("shape matrix must be symmetric")
        if np.linalg.eigvalsh(0.5 * (shape + shape.T))[0] <= 0.0:
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", 0.5 * (shape + shape.T))
        object.__setattr__(self, "level", float(self.level))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (np.array_equal(self.center, other.center)
                and np.array_equal(self.shape, other.shape)
                and self.level == other.level)

    __hash__ = None

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def quad(self, x) -> float:
        e = np.asarray(x, dtype=float) - self.center
        return float(e @ self.shape @ e)

    def inv_sqrt(self) -> np.ndarray:
        """Symmetric square root of shape^-1 (maps the unit ball onto the set
        at level one)."""
        evals, evecs = np.linalg.eigh(self.shape)
        return evecs @ np.diag(evals**-0.5) @ evecs.T

    def point_at(self, direction, radius: float = 1.0) -> np.ndarray:
        """Point center + radius * sqrt(level) * shape^-1/2 (direction/|direction|)."""
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        return self.center + radius * np.sqrt(self.level) * (self.inv_sqrt() @ u)


def contains(E: Ellipsoid, x) -> Membership:
    """Membership test with the signed margin level - quadratic form."""
    margin = E.level - E.quad(x)
    return Membership(inside=bool(margin >= 0.0), margin=float(margin))


@dataclass(frozen=True, eq=False)
class JointEllipsoid:
    """Joint state-reference set

        (xtil - xtil_*(r))' P (xtil - xtil_*(r)) + (r - r_nom)' Q (r - r_nom) <= 1,

    where xtil_*(r) is evaluated through the true (network-dependent) steady
    state, not a linearization.  ``xtil_star`` maps a reference (n_r,) to its
    slice center (n_xtil,), and a column stack (n_r, N) of references to the
    (n_xtil, N) stack of their centers; the governor's grid and
    ``joint_quad_many`` evaluate a whole stack in one call.

    ``joint_quad`` keeps the center and reference term of the last
    CENTER_MEMO_SIZE references it saw, keyed by the reference's bytes, so a
    repeated reference costs one quadratic form instead of a network pass.
    The stored values are the ones a fresh call computes, so every result is
    bit-identical to recomputing them; the memo is not part of the set's
    equality or repr.  It takes no lock, so one set is not to be queried
    from several threads at once.

    Two joint sets are equal when P, Q and r_nom are and they share their
    slice-center map (the same function object); they are not hashable.
    """

    P: np.ndarray
    Q: np.ndarray
    r_nom: np.ndarray
    xtil_star: Callable
    # (refs, centers, ref_quads) of grid_quads, built on first use; the set
    # is immutable, so the grid stays valid.
    _grid: tuple | None = field(default=None, init=False, repr=False)
    # r.tobytes() -> (xtil_star(r), ref_quad(r)), least recently used first.
    _center_memo: dict = field(default_factory=dict, init=False,
                               repr=False)

    def __post_init__(self):
        P = _frozen(self.P)
        Q = _frozen(np.atleast_2d(self.Q))
        r_nom = _frozen(np.atleast_1d(self.r_nom))
        for name, mat in (("P", P), ("Q", Q)):
            if np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if Q.shape != (r_nom.shape[0], r_nom.shape[0]):
            raise ValueError("Q must match the reference dimension")
        object.__setattr__(self, "P", 0.5 * (P + P.T))
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "r_nom", r_nom)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (np.array_equal(self.P, other.P)
                and np.array_equal(self.Q, other.Q)
                and np.array_equal(self.r_nom, other.r_nom)
                and self.xtil_star is other.xtil_star)

    __hash__ = None

    @property
    def n_r(self) -> int:
        return self.r_nom.shape[0]

    def xtil_star_batch(self, R) -> np.ndarray:
        """Slice centers (N, n_xtil) of a stack of references (N, n_r)."""
        return self.xtil_star(np.asarray(R, dtype=float).T).T

    def ref_quad(self, r) -> float:
        dr = np.atleast_1d(np.asarray(r, dtype=float)) - self.r_nom
        return float(dr @ self.Q @ dr)

    def joint_quad(self, xtil, r) -> float:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        key = r.tobytes()
        memo = self._center_memo
        entry = memo.pop(key, None)
        if entry is None:
            entry = (self.xtil_star(r), self.ref_quad(r))
            if len(memo) >= CENTER_MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[key] = entry
        center, ref_term = entry
        e = np.asarray(xtil, dtype=float) - center
        return float(e @ self.P @ e) + ref_term

    def joint_quad_many(self, xtil, R) -> np.ndarray:
        """Joint quadratic for one state against a stack of references (N, n_r)."""
        R = np.atleast_2d(np.asarray(R, dtype=float))
        return self._stacked_quad(xtil, self.xtil_star_batch(R),
                                  self._ref_quads(R))

    def grid_quads(self, xtil) -> tuple:
        """(refs, quads): GRID_POINTS references evenly spaced over the
        admissible interval (n_r = 1) and the joint quadratic of xtil at
        each, equal to ``joint_quad_many(xtil, refs[:, None])``.

        The references, their centers and reference terms are computed on the
        first call and kept, so later calls cost one quadratic form per
        reference.
        """
        if self._grid is None:
            lo, hi = admissible_references(self).interval
            R = np.linspace(lo, hi, GRID_POINTS)[:, None]
            object.__setattr__(self, "_grid", (
                R[:, 0], self.xtil_star_batch(R), self._ref_quads(R)))
        refs, centers, ref_quads = self._grid
        return refs, self._stacked_quad(xtil, centers, ref_quads)

    def _ref_quads(self, R) -> np.ndarray:
        dr = R - self.r_nom[None, :]
        return np.einsum("ni,ij,nj->n", dr, self.Q, dr)

    def _stacked_quad(self, xtil, centers, ref_quads) -> np.ndarray:
        E = np.asarray(xtil, dtype=float)[None, :] - centers
        return np.einsum("ni,ij,nj->n", E, self.P, E) + ref_quads


def joint_contains(J: JointEllipsoid, xtil, r) -> Membership:
    margin = 1.0 - J.joint_quad(xtil, r)
    return Membership(inside=bool(margin >= 0.0), margin=float(margin))


def slice_at(J: JointEllipsoid, r) -> Ellipsoid | None:
    """Fixed-reference slice; None when r is outside the admissible set."""
    level = 1.0 - J.ref_quad(r)
    if level < 0.0:
        return None
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return Ellipsoid(center=J.xtil_star(r), shape=J.P, level=level)


@dataclass(frozen=True)
class AdmissibleRefs:
    """Reference set { r : (r - r_nom)' Q (r - r_nom) <= 1 }."""

    r_nom: np.ndarray
    axes: np.ndarray        # columns: principal directions
    semi_lengths: np.ndarray

    @property
    def interval(self) -> tuple:
        """(lo, hi) for the scalar-reference case."""
        if self.r_nom.shape[0] != 1:
            raise ValueError("interval form requires n_r = 1")
        half = float(self.semi_lengths[0])
        c = float(self.r_nom[0])
        return (c - half, c + half)


def admissible_references(J: JointEllipsoid) -> AdmissibleRefs:
    evals, evecs = np.linalg.eigh(J.Q)
    return AdmissibleRefs(r_nom=J.r_nom, axes=evecs, semi_lengths=evals**-0.5)


def joint_ellipsoid_for(plant, nn, k_xi, P, Q, r_nom) -> JointEllipsoid:
    """Joint set whose slice centers come from the true steady-state map,
    :func:`plant.xtil_star_map`: the map :func:`plant.steady_state` uses,
    so a slice center is bit for bit the steady state a report gives."""
    return JointEllipsoid(P=P, Q=Q, r_nom=r_nom, xtil_star=xtil_star_map(
        steady_state_map(plant), nn, k_xi))


def schur_row_check(P: np.ndarray, rows: np.ndarray, d, Q=None,
                    atol: float = 0.0) -> np.ndarray:
    """Row-wise containment test row_j blkdiag(P, Q)^-1 row_j' <= d_j^2.

    Equivalent (by the Schur complement) to positive semidefiniteness of the
    blocks [[d_j^2, row_j], [row_j', blkdiag(P, Q)]]; used as an independent
    cross-check of the containment rows in the local LMI systems.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    d = np.broadcast_to(np.asarray(d, dtype=float), (rows.shape[0],))
    M = np.asarray(P, dtype=float)
    if Q is not None:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        M = np.block([
            [M, np.zeros((M.shape[0], Q.shape[1]))],
            [np.zeros((Q.shape[0], M.shape[1])), Q],
        ])
    sol = np.linalg.solve(M, rows.T)
    vals = np.einsum("ij,ji->i", rows, sol)
    return vals <= d**2 + atol


def boundary_polyline(E: Ellipsoid, dims: tuple = (0, 1),
                      n_points: int = 128) -> np.ndarray:
    """Closed polyline on the boundary of the (i, j)-coordinate projection.

    The projection of an ellipsoid onto two coordinates is the ellipse whose
    shape matrix is the Schur complement of the eliminated block of P.
    """
    if n_points < 8:
        raise ValueError("n_points must be at least 8")
    i, j = dims
    keep = [i, j]
    rest = [k for k in range(E.dim) if k not in keep]
    P = E.shape
    Pkk = P[np.ix_(keep, keep)]
    if rest:
        Pkr = P[np.ix_(keep, rest)]
        Prr = P[np.ix_(rest, rest)]
        Pproj = Pkk - Pkr @ np.linalg.solve(Prr, Pkr.T)
    else:
        Pproj = Pkk
    evals, evecs = np.linalg.eigh(0.5 * (Pproj + Pproj.T))
    A = evecs @ np.diag(evals**-0.5) @ evecs.T
    theta = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    circle = np.vstack([np.cos(theta), np.sin(theta)])
    pts = (E.center[keep][:, None] + np.sqrt(E.level) * (A @ circle)).T
    return np.vstack([pts, pts[:1]])


def polylines_to_svg(path, polylines, size: int = 640, pad: float = 0.08) -> None:
    """Write a minimal standalone SVG with one <polyline> per input curve.

    ``polylines`` is a sequence of (points, color) pairs; points are (n, 2).
    """
    all_pts = np.vstack([np.asarray(p, dtype=float) for p, _ in polylines])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo = lo - pad * span
    hi = hi + pad * span
    span = hi - lo

    def to_px(p):
        x = (p[:, 0] - lo[0]) / span[0] * size
        y = size - (p[:, 1] - lo[1]) / span[1] * size
        return x, y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for pts, color in polylines:
        x, y = to_px(np.asarray(pts, dtype=float))
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
