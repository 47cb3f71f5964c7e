"""Ellipsoidal region-of-attraction sets, their slices, and plot exports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadSchedule, DimensionMismatch
from .plant import _Value, _frozen, _rows, steady_state_map, xtil_star_map

# References in the grid over the admissible interval on which the governor
# brackets the feasible references before it bisects (n_r = 1).
GRID_POINTS = 256
# Side of the square SVG in pixels, and its margin as a share of the span.
SVG_SIZE = 640
SVG_PAD = 0.08


class Membership(NamedTuple):
    inside: bool
    margin: float


def _spd(mat, name: str) -> np.ndarray:
    """The read-only symmetrized copy 0.5 (mat + mat') of a matrix checked,
    in this order, to be square, finite, symmetric to 1e-10 relative to its
    largest entry, and positive definite; a failed check raises ValueError
    naming the matrix ``name``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} entries must be finite")
    if abs(mat - mat.T).max() > 1e-10 * (1.0 + abs(mat).max()):
        raise ValueError(f"{name} must be symmetric")
    sym = _frozen(0.5 * (mat + mat.T))
    if np.linalg.eigvalsh(sym)[0] <= 0.0:
        raise ValueError(f"{name} must be positive definite")
    return sym


@dataclass(frozen=True, eq=False)
class Ellipsoid(_Value):
    """Set { x : (x - center)' shape (x - center) <= level }."""

    center: np.ndarray
    shape: np.ndarray
    level: float = 1.0

    _arrays = ("center",)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "shape", _spd(self.shape, "shape matrix"))
        object.__setattr__(self, "level", float(self.level))
        if self.center.shape != self.shape.shape[:1]:
            raise ValueError("center must match the shape dimension")
        if not 0.0 <= self.level < math.inf:  # NaN fails every comparison
            raise ValueError("level must be finite and nonnegative")

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
class JointEllipsoid(_Value):
    """Joint state-reference set

        (xtil - xtil_*(r))' P (xtil - xtil_*(r)) + (r - r_nom)' Q (r - r_nom) <= 1,

    where xtil_*(r) is evaluated through the true (network-dependent) steady
    state, not a linearization.  ``xtil_star`` maps a reference (n_r,) to its
    slice center (n_xtil,), and a stack (N, n_r) of references, one per row,
    to the (N, n_xtil) stack of their centers, each row bit for bit the
    center of its reference alone, as :func:`plant.xtil_star_map` gives
    them.  The governor's grid and ``joint_quad_many`` evaluate a whole
    stack in one call, and every entry is then bit for bit what
    ``joint_quad`` gives for its reference, which the governor's bisection
    relies on.

    ``joint_quad`` keeps the center and reference term of the last
    reference it saw, keyed by its bytes and replaced as a whole: the
    governor asks it only about the desired reference, constant over a
    schedule segment.  The kept values are those a fresh call computes, so
    results are bit-identical; the entry is not part of equality or repr.
    """

    P: np.ndarray
    Q: np.ndarray
    r_nom: np.ndarray
    xtil_star: Callable
    # (refs, centers, ref_quads) of the grid, built on first use; the set is
    # immutable, its arrays read-only, so the grid stays valid.
    _grid: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    # (r.tobytes(), xtil_star(r), ref_quad(r)) of joint_quad's last r.
    _last: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    _arrays = ("r_nom",)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "r_nom", np.atleast_1d(self.r_nom))
        object.__setattr__(self, "P", _spd(self.P, "P"))
        Q = np.atleast_2d(self.Q)
        if Q.shape != (self.n_r, self.n_r):
            raise ValueError("Q must match the reference dimension")
        object.__setattr__(self, "Q", _spd(Q, "Q"))

    @property
    def n_r(self) -> int:
        return self.r_nom.shape[0]

    def xtil_star_batch(self, R) -> np.ndarray:
        """Slice centers (N, n_xtil) of a stack of references (N, n_r)."""
        return self.xtil_star(np.asarray(R, dtype=float))

    def ref_quad(self, r) -> float:
        """The reference term (r - r_nom)' Q (r - r_nom), as a stack of one
        row: bit for bit the entry of ``joint_quad_many``."""
        R = np.atleast_2d(np.asarray(r, dtype=float))
        return float(self._ref_quads(R)[0])

    def joint_quad(self, xtil, r) -> float:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        key = r.tobytes()
        last = self._last
        if last is None or last[0] != key:
            last = (key, self.xtil_star(r), self.ref_quad(r))
            object.__setattr__(self, "_last", last)
        _, center, ref_term = last
        e = np.asarray(xtil, dtype=float) - center
        # P is at least 2x2, so ndarray.dot makes the gemv and dot of @.
        return float(e.dot(self.P).dot(e)) + ref_term

    def joint_quad_many(self, xtil, R) -> np.ndarray:
        """Joint quadratic for one state against a stack of references (N, n_r),
        entry j bit for bit ``joint_quad(xtil, R[j])``."""
        R = np.atleast_2d(np.asarray(R, dtype=float))
        return self._stacked_quad(xtil, self.xtil_star_batch(R),
                                  self._ref_quads(R))

    @property
    def grid(self) -> np.ndarray:
        """GRID_POINTS references evenly spaced over the admissible interval
        (n_r = 1), kept with their centers and reference terms."""
        if self._grid is None:
            lo, hi = admissible_references(self).interval
            R = np.linspace(lo, hi, GRID_POINTS)[:, None]
            object.__setattr__(self, "_grid", (
                R[:, 0], self.xtil_star_batch(R), self._ref_quads(R)))
        return self._grid[0]

    def grid_quads(self, xtil, part=slice(None)) -> tuple:
        """(refs, quads): the grid references ``grid[part]`` (all by default)
        and the joint quadratic of xtil at each, equal to
        ``joint_quad_many(xtil, refs[:, None])``: one quadratic form per
        reference, so a part gives the whole grid's bits at its own cost."""
        refs = self.grid[part]
        _, centers, ref_quads = self._grid
        return refs, self._stacked_quad(xtil, centers[part], ref_quads[part])

    def _ref_quads(self, R) -> np.ndarray:
        return _quads(R - self.r_nom[None, :], self.Q)

    def _stacked_quad(self, xtil, centers, ref_quads) -> np.ndarray:
        E = np.asarray(xtil, dtype=float)[None, :] - centers
        return _quads(E, self.P) + ref_quads


def _quads(E, A) -> np.ndarray:
    """The forms e @ A @ e of the rows e of E (N, n), each bit for bit the
    form ``float(e @ A @ e)`` of that row alone: a BLAS gemv and a dot per
    row, on 16-byte-aligned rows like a fresh vector's (see plant._rows)."""
    E = _rows(E)
    EA = _rows(np.matmul(E[:, None, :], A)[:, 0, :])
    return np.matmul(EA[:, None, :], E[:, :, None])[:, 0, 0]


def _finite_reference(J: JointEllipsoid, r) -> np.ndarray:
    """The reference r as a float vector; one of other than J's n_r entries
    raises DimensionMismatch, a non-finite entry BadSchedule (a ValueError)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (J.n_r,):
        raise DimensionMismatch(f"reference must have shape ({J.n_r},)")
    if not all(map(math.isfinite, r.tolist())):
        raise BadSchedule("reference entries must be finite")
    return r


def _joint_state(J: JointEllipsoid, xtil) -> np.ndarray:
    """The state xtil as a float vector; one of other than J's n_xtil entries
    raises DimensionMismatch."""
    xtil = np.asarray(xtil, dtype=float)
    if xtil.shape != J.P.shape[:1]:
        raise DimensionMismatch(f"xtil must have shape ({J.P.shape[0]},)")
    return xtil


def joint_contains(J: JointEllipsoid, xtil, r) -> Membership:
    margin = 1.0 - J.joint_quad(_joint_state(J, xtil), _finite_reference(J, r))
    return Membership(inside=bool(margin >= 0.0), margin=float(margin))


def slice_at(J: JointEllipsoid, r) -> Ellipsoid | None:
    """Fixed-reference slice; None when r is outside the admissible set."""
    r = _finite_reference(J, r)
    level = 1.0 - J.ref_quad(r)
    if level < 0.0:
        return None
    return Ellipsoid(center=J.xtil_star(r), shape=J.P, level=level)


@dataclass(frozen=True, eq=False)
class AdmissibleRefs(_Value):
    """Reference set { r : (r - r_nom)' Q (r - r_nom) <= 1 }."""

    r_nom: np.ndarray
    axes: np.ndarray        # columns: principal directions
    semi_lengths: np.ndarray
    Q: np.ndarray           # checked and symmetrized by _spd, as in the joint set

    # As built, unchecked: admissible_references takes r_nom as given.
    _arrays = _nonfinite = ("r_nom", "axes", "semi_lengths", "Q")

    @property
    def interval(self) -> tuple:
        """(lo, hi) for the scalar-reference case: r_nom -+ the semi-length,
        each end stepped inward an ulp at a time until its form
        (r - r_nom)' Q (r - r_nom), computed as the joint set's ``ref_quad``,
        is at most 1, so both ends have a slice (:func:`slice_at`)."""
        if self.r_nom.shape[0] != 1:
            raise ValueError("interval form requires n_r = 1")
        half = float(self.semi_lengths[0])
        c = float(self.r_nom[0])
        ends = []
        for end in (c - half, c + half):
            while _quads(np.array([[end]]) - self.r_nom, self.Q)[0] > 1.0:
                end = float(np.nextafter(end, c))
            ends.append(end)
        return tuple(ends)


def admissible_references(Q, r_nom=None) -> AdmissibleRefs:
    """Reference set of a joint set, ``admissible_references(J)``, or of the
    matrix Q and center r_nom of its reference term.

    Q is checked and symmetrized as a joint set does it (:func:`_spd`), so
    both forms give the same bits; a Q that is not symmetric positive
    definite raises ValueError.
    """
    if r_nom is None:
        Q, r_nom = Q.Q, Q.r_nom
    Q = _spd(np.atleast_2d(Q), "Q")
    evals, evecs = np.linalg.eigh(Q)
    return AdmissibleRefs(r_nom=np.atleast_1d(np.asarray(r_nom, dtype=float)),
                          axes=evecs, semi_lengths=evals**-0.5, Q=Q)


def joint_ellipsoid_for(plant, nn, k_xi, P, Q, r_nom) -> JointEllipsoid:
    """Joint set whose slice centers come from the true steady-state map,
    :func:`plant.xtil_star_map`: the map :func:`plant.steady_state` uses,
    so a slice center is bit for bit the steady state a report gives.
    Raises DimensionMismatch when P is not of order n_x + n_r."""
    n_xtil = plant.n_x + plant.n_r
    if np.shape(P) != (n_xtil, n_xtil):
        raise DimensionMismatch(f"P must be {n_xtil} x {n_xtil} (n_x + n_r)")
    return JointEllipsoid(P=P, Q=Q, r_nom=r_nom, xtil_star=xtil_star_map(
        steady_state_map(plant), nn, k_xi))


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


def polylines_to_svg(path, polylines) -> None:
    """Write a minimal standalone SVG with one <polyline> per input curve.

    ``polylines`` is a sequence of (points, color) pairs; points are (n, 2).
    """
    all_pts = np.vstack([np.asarray(p, dtype=float) for p, _ in polylines]
                        or [np.zeros((1, 2))])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    lo, hi = lo - SVG_PAD * span, hi + SVG_PAD * span
    span = hi - lo
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">'
    ]
    for pts, color in polylines:
        pts = np.asarray(pts, dtype=float)
        x = (pts[:, 0] - lo[0]) / span[0] * SVG_SIZE
        y = SVG_SIZE - (pts[:, 1] - lo[1]) / span[1] * SVG_SIZE
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
