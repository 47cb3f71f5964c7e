"""Closed-loop simulation and the reference governor.

There is one simulation loop, shared by the plain and the governed run.  The
reference schedule is turned into a (T, n_r) array before it starts, and each
step then costs one trace-free network pass (:func:`network.evaluate`) and a
few small matrix products; outputs and tracking errors are computed from the
stored states after the loop.

The governor replaces the desired reference by the nearest surrogate for
which the pair (current state, surrogate) stays inside the certified joint
set.  Since the steady state depends on the network nonlinearly, the scalar
case is solved globally by bracketing on a grid over the admissible interval
followed by bisection onto the feasibility boundary; the grid, its slice
centers and reference terms are built once per joint set and grid size
(:meth:`JointEllipsoid.grid_quads`).  The multi-reference case uses
multi-start projected descent.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadSchedule, DimensionMismatch, GovernorInfeasible
# ``forward`` is imported so that ``closed_loop.forward`` remains a name that
# perfbench/tracing.py can wrap; the loop itself makes trace-free passes.
from .network import FeedForwardNN, evaluate, forward  # noqa: F401
from .plant import AugmentedPlant, _frozen
from .roa import JointEllipsoid, admissible_references

DIVERGENCE_NORM = 1e9
CONVERGENCE_WINDOW = 50


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop run: states x_0..x_T, per-step inputs/outputs/references."""

    states: np.ndarray        # (T+1, n_xtil)
    inputs: np.ndarray        # (T, n_u)
    outputs: np.ndarray       # (T+1, n_r)
    applied_refs: np.ndarray  # (T, n_r)
    desired_refs: np.ndarray  # (T, n_r)
    converged: bool
    diverged: bool

    def __post_init__(self):
        for name in ("states", "inputs", "outputs", "applied_refs", "desired_refs"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    def tracking_errors(self) -> np.ndarray:
        """Per-step norm of y_k - rhat_k."""
        return np.linalg.norm(self.outputs[:-1] - self.applied_refs, axis=1)


@dataclass(frozen=True)
class GovernorConfig:
    mode: str = "full"              # "full" | "output-error"
    tolerance: float = 1e-9
    grid_points: int = 256
    refine_iters: int = 60
    descent_starts: int = 8

    def __post_init__(self):
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.mode not in ("full", "output-error"):
            raise ValueError("mode must be 'full' or 'output-error'")


def _transition(aug: AugmentedPlant, nn: FeedForwardNN, xtil, r):
    """One network pass: plant input u = k_xi xi + kappa(x, r) and xtil+.

    xtil and r must be float arrays of shapes (n_xtil,) and (n_r,).
    """
    n_x = aug.n_x
    u_nn = evaluate(nn, xtil[:n_x], r)
    u = aug.k_xi @ xtil[n_x:] + u_nn
    return u, aug.Atil @ xtil + aug.Btil @ u_nn + aug.Br @ r


def _check_dims(aug: AugmentedPlant, nn: FeedForwardNN, xtil) -> None:
    if (nn.n_x, nn.n_r, nn.n_u) != (aug.n_x, aug.n_r, aug.k_xi.shape[0]):
        raise DimensionMismatch("network and plant dimensions disagree")
    if xtil.shape != (aug.n_xtil,):
        raise DimensionMismatch(f"xtil must have shape ({aug.n_xtil},)")


def step(aug: AugmentedPlant, nn: FeedForwardNN, xtil, r) -> np.ndarray:
    """One transition xtil+ = Atil xtil + Btil kappa(x, r) + Br r."""
    xtil = np.asarray(xtil, dtype=float)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    _check_dims(aug, nn, xtil)
    if r.shape != (aug.n_r,):
        raise DimensionMismatch(f"r must have shape ({aug.n_r},)")
    return _transition(aug, nn, xtil, r)[1]


def _parse_schedule(schedule, n_r: int):
    """Segment starts (S,) and references (S, n_r) of a reference schedule.

    A schedule is either a constant reference (scalar or vector) or a
    non-empty list of [k_start, r] pairs whose integer k_start >= 0 increase
    strictly.  A reference with one entry is broadcast to n_r; every entry
    must be finite.  Raises BadSchedule (a ValueError) naming the problem.
    """
    if isinstance(schedule, (list, tuple)) and not schedule:
        raise BadSchedule("reference schedule is empty")
    constant = not (isinstance(schedule, (list, tuple))
                    and isinstance(schedule[0], (list, tuple)))
    pairs = [(0, schedule)] if constant else schedule
    starts, refs = [], []
    for i, pair in enumerate(pairs):
        where = "reference schedule" if constant else \
            f"reference schedule entry {i}"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise BadSchedule(f"{where} must be a [k_start, r] pair, got {pair!r}")
        k_start, r = pair
        if isinstance(k_start, bool) or not isinstance(k_start, numbers.Integral):
            raise BadSchedule(f"{where}: k_start must be an integer, got {k_start!r}")
        if k_start < 0:
            raise BadSchedule(f"{where}: k_start must be >= 0, got {k_start}")
        if starts and k_start <= starts[-1]:
            raise BadSchedule(f"{where}: k_start must increase, got {k_start} "
                              f"after {starts[-1]}")
        try:
            r = np.atleast_1d(np.asarray(r, dtype=float))
        except (TypeError, ValueError):
            raise BadSchedule(f"{where}: reference {r!r} is not numeric") from None
        if r.ndim != 1 or r.shape[0] not in (1, n_r):
            raise BadSchedule(f"{where}: reference must have {n_r} entries, "
                              f"got shape {r.shape}")
        if not np.all(np.isfinite(r)):
            raise BadSchedule(f"{where}: reference entries must be finite")
        starts.append(int(k_start))
        refs.append(np.broadcast_to(r, (n_r,)))
    return np.array(starts), np.array(refs)


def _segments(starts: np.ndarray, k) -> np.ndarray:
    """Index of the segment in force at step(s) k; the first segment also
    covers the steps before its start."""
    return np.maximum(np.searchsorted(starts, k, side="right") - 1, 0)


def schedule_at(schedule, k: int, n_r: int) -> np.ndarray:
    """Evaluate a piecewise-constant reference schedule at step k.

    A schedule is either a constant reference vector/scalar or a list of
    (k_start, r) pairs with strictly increasing k_start; a malformed one
    raises BadSchedule, a ValueError.
    """
    starts, refs = _parse_schedule(schedule, n_r)
    return refs[_segments(starts, k)]


def _schedule_array(schedule, T: int, n_r: int) -> np.ndarray:
    """The (T, n_r) references of steps 0..T-1."""
    starts, refs = _parse_schedule(schedule, n_r)
    return refs[_segments(starts, np.arange(T))]


def _run(aug, nn, xtil0, desired, governor, conv_tol):
    """The closed loop under the (T, n_r) desired references.

    ``governor(xtil, r)`` gives the reference applied at a state, or is None
    for a run that applies the desired references unchanged.
    """
    T = desired.shape[0]
    xtil = np.asarray(xtil0, dtype=float)
    _check_dims(aug, nn, xtil)
    states = np.empty((T + 1, aug.n_xtil))
    inputs = np.empty((T, aug.k_xi.shape[0]))
    applied = desired if governor is None else np.empty_like(desired)
    states[0] = xtil
    n_done, diverged = T, False
    for k in range(T):
        r = desired[k] if governor is None else governor(xtil, desired[k])
        u, xtil = _transition(aug, nn, xtil, r)
        inputs[k] = u
        states[k + 1] = xtil
        if governor is not None:
            applied[k] = r
        # sqrt(x . x) is the value np.linalg.norm returns for a vector
        if math.sqrt(xtil.dot(xtil)) > DIVERGENCE_NORM:
            n_done, diverged = k + 1, True
            break
    states = states[: n_done + 1]
    applied = applied[:n_done]
    outputs = states @ aug.Ctil.T
    tail = slice(n_done - CONVERGENCE_WINDOW, n_done)
    converged = (
        not diverged
        and n_done >= CONVERGENCE_WINDOW
        and bool(np.all(np.linalg.norm(outputs[tail] - applied[tail], axis=1)
                        < conv_tol))
    )
    return Trajectory(
        states=states,
        inputs=inputs[:n_done],
        outputs=outputs,
        applied_refs=applied,
        desired_refs=desired[:n_done],
        converged=converged,
        diverged=diverged,
    )


def simulate(aug: AugmentedPlant, nn: FeedForwardNN, xtil0, ref_schedule,
             T: int, conv_tol: float = 1e-6) -> Trajectory:
    """Iterate the loop for T steps under a piecewise-constant schedule.

    Divergence (state norm above 1e9) truncates the run and sets the flag;
    it is reported, not raised.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    return _run(aug, nn, xtil0, _schedule_array(ref_schedule, T, aug.n_r),
                None, conv_tol)


def _closest_feasible_1d(grid, mask, feasible, target: float, iters: int):
    """Closest point to ``target`` in the feasible set sampled by the grid.

    Bracketing on the grid mask plus bisection onto the feasibility boundary;
    equidistant ties break toward the smaller value.  Returns None when no
    grid point is feasible.
    """
    if not mask.any():
        return None
    cand = grid[mask]
    dist = np.abs(cand - target)
    best = float(np.min(dist))
    p = float(np.min(cand[dist == best]))  # tie toward smaller reference
    goal = float(np.clip(target, grid[0], grid[-1]))
    if feasible(goal) and abs(goal - target) <= abs(p - target):
        return goal
    a, b = p, goal
    for _ in range(iters):
        mid = 0.5 * (a + b)
        # Once the midpoint is an end of the bracket, no later iteration can
        # change a: a only takes feasible midpoints, b was tested infeasible.
        if mid == a or mid == b:
            break
        if feasible(mid):
            a = mid
        else:
            b = mid
    return a


def govern(J: JointEllipsoid, xtil, r_desired, cfg: GovernorConfig | None = None):
    """Surrogate reference: argmin |r - rhat|^2 subject to joint membership."""
    cfg = cfg or GovernorConfig()
    xtil = np.asarray(xtil, dtype=float)
    r_desired = np.atleast_1d(np.asarray(r_desired, dtype=float))

    if cfg.mode == "output-error":
        return _govern_output_error(J, xtil, r_desired, cfg)

    def g(r):
        return J.joint_quad(xtil, r)

    if g(r_desired) <= 1.0 + cfg.tolerance:
        return r_desired

    if J.n_r == 1:
        grid, quads = J.grid_quads(xtil, cfg.grid_points)
        rhat = _closest_feasible_1d(
            grid, quads <= 1.0, lambda r: g(np.array([r])) <= 1.0,
            float(r_desired[0]), cfg.refine_iters)
        if rhat is None:
            raise GovernorInfeasible("state lies outside every reference slice")
        return np.array([rhat])
    return _govern_descent(J, xtil, r_desired, cfg)


def _govern_output_error(J, xtil, r_desired, cfg):
    """P-only governor for output-error feedback, where xtil_*(r) is affine.

    The constraint is then a convex quadratic in rhat; the scalar case is
    solved in closed form from its roots.
    """
    n_r = J.n_r
    base = J.xtil_star(np.zeros(n_r))
    cols = [J.xtil_star(np.eye(n_r)[:, k]) - base for k in range(n_r)]
    Bmap = np.array(cols).T
    probe = J.r_nom + 0.5
    lin_err = np.linalg.norm(J.xtil_star(probe) - (base + Bmap @ probe))
    if lin_err > 1e-8 * (1.0 + np.linalg.norm(base)):
        raise ValueError("output-error governor requires an affine steady map")
    if n_r != 1:
        raise NotImplementedError("output-error mode is implemented for n_r = 1")
    P = J.P
    e0 = xtil - base
    b = Bmap[:, 0]
    # (e0 - b r)' P (e0 - b r) <= 1
    a2 = float(b @ P @ b)
    a1 = -2.0 * float(b @ P @ e0)
    a0 = float(e0 @ P @ e0) - 1.0
    r = float(r_desired[0])
    if a2 <= 0.0:
        if a0 + a1 * r + a2 * r * r <= cfg.tolerance:
            return r_desired
        raise GovernorInfeasible("degenerate steady map direction")
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        raise GovernorInfeasible("state lies outside every reference slice")
    lo = (-a1 - np.sqrt(disc)) / (2.0 * a2)
    hi = (-a1 + np.sqrt(disc)) / (2.0 * a2)
    return np.array([min(max(r, lo), hi)])


def _govern_descent(J, xtil, r_desired, cfg):
    """Multi-start projected descent for n_r > 1 (no global guarantee)."""
    refs = admissible_references(J)
    starts = [J.r_nom]
    for k in range(refs.axes.shape[1]):
        axis = refs.axes[:, k] * refs.semi_lengths[k]
        starts.append(J.r_nom + 0.7 * axis)
        starts.append(J.r_nom - 0.7 * axis)
    feas = [s for s in starts if J.joint_quad(xtil, s) <= 1.0]
    if not feas:
        raise GovernorInfeasible("state lies outside every reference slice")
    best = None
    for a in feas[: 2 * cfg.descent_starts]:
        a = np.asarray(a, dtype=float)
        lo_pt, hi_pt = a, r_desired
        if J.joint_quad(xtil, hi_pt) <= 1.0:
            cand = hi_pt
        else:
            for _ in range(cfg.refine_iters):
                mid = 0.5 * (lo_pt + hi_pt)
                if J.joint_quad(xtil, mid) <= 1.0:
                    lo_pt = mid
                else:
                    hi_pt = mid
            cand = lo_pt
        if best is None or np.linalg.norm(cand - r_desired) < \
                np.linalg.norm(best - r_desired):
            best = cand
    return best


def simulate_with_governor(aug: AugmentedPlant, nn: FeedForwardNN,
                           J: JointEllipsoid, xtil0, r_desired, T: int,
                           cfg: GovernorConfig | None = None,
                           conv_tol: float = 1e-6) -> Trajectory:
    """Simulate with the surrogate reference recomputed at every step."""
    if T < 1:
        raise ValueError("T must be at least 1")
    cfg = cfg or GovernorConfig()
    return _run(aug, nn, xtil0, _schedule_array(r_desired, T, aug.n_r),
                lambda xtil, r: govern(J, xtil, r, cfg), conv_tol)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV rows k, xtil_1.., u_1.., y_1.., rhat_1.. for k = 0..T-1."""
    n_xt = traj.states.shape[1]
    n_u = traj.inputs.shape[1]
    n_r = traj.applied_refs.shape[1]
    header = (["k"]
              + [f"xtil_{i + 1}" for i in range(n_xt)]
              + [f"u_{i + 1}" for i in range(n_u)]
              + [f"y_{i + 1}" for i in range(n_r)]
              + [f"rhat_{i + 1}" for i in range(n_r)])
    table = np.hstack([traj.states[:-1], traj.inputs, traj.outputs[:-1],
                       traj.applied_refs]).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([k, *map(repr, row)] for k, row in enumerate(table))
