"""Closed-loop simulation and the reference governor.

There is one simulation loop, shared by the plain and the governed run.  The
reference schedule is turned into a (T, n_r) array before it starts, and each
step then costs one trace-free network pass (:func:`network.evaluate`) and a
few small matrix products; outputs and tracking errors are computed from the
stored states after the loop.

Offset-free tracking settles a run onto the steady state of its reference
segment, and in floating point a settled run is an exact periodic orbit of
the step map: the pendulum loop at r = 0 enters a period-70 orbit of
subnormal states after about 3,600 steps, and governed segments repeat with
period 1 or 2 after a few hundred.  The loop therefore keeps the states of the
last REPLAY_WINDOW to 2 * REPLAY_WINDOW steps of the current segment, keyed
by their bytes, and clears them where the desired reference changes.  When a
state repeats, the rows of the orbit are copied to the end of the segment
(stopping mid-period if it ends there) and stepping goes on from the
segment's last state.  A step is a pure function of the state and the
desired reference, so the copied rows are bit for bit the rows the loop
would compute; they make no network pass and no governor call.

The governor replaces the desired reference by the nearest surrogate for
which the pair (current state, surrogate) stays inside the certified joint
set.  Since the steady state depends on the network nonlinearly, the scalar
case is solved globally by bracketing on a grid over the admissible interval
followed by bisection onto the feasibility boundary.  The grid, its slice
centers (one stacked pass of the steady-state map) and reference terms are
built once per joint set (:meth:`JointEllipsoid.grid_quads`).  The bisection
runs along predicted paths (:func:`_closest_feasible_1d`): the midpoints it
would visit if the boundary lay at a secant guess are evaluated in one
stacked pass (:meth:`JointEllipsoid.joint_quad_many`), each entry bit for bit
the single :meth:`JointEllipsoid.joint_quad`, and a new path starts at the
first wrong prediction, so the result is that of plain bisection at about
three passes per bisecting call.  The slice centers of the desired reference
and of the clipped interval end are kept in a small per-set memo
(:meth:`JointEllipsoid.joint_quad`), so they cost no network pass after
their first step.  The multi-reference case uses multi-start projected
descent, whose bisections run in lockstep, one stacked pass per step.  A run
whose state grows past the float limit is flagged as diverged without an
overflow warning.

:func:`write_trajectory_csv` formats each distinct row (distinct bytes) once
and streams the rows to the file, with the bytes ``csv.writer`` would write:
CRLF line ends and ``repr`` floats.
"""

from __future__ import annotations

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
# The loop remembers the states of at least this many (at most twice as many)
# recent steps of a reference segment, so it finds and replays every periodic
# orbit whose period is at most this.  The pendulum loop settles at r = 0 onto
# a period-70 orbit of subnormal states.
REPLAY_WINDOW = 128
# Governor: slack of the desired reference's inside test, bisection steps
# onto the feasibility boundary, and half the descent's starting points.
GOVERNOR_TOLERANCE = 1e-9
REFINE_ITERS = 60
DESCENT_STARTS = 8


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


def _transition(aug: AugmentedPlant, nn: FeedForwardNN, xtil, r):
    """One network pass: plant input u = k_xi xi + kappa(x, r) and xtil+.

    xtil and r must be float arrays of shapes (n_xtil,) and (n_r,).
    """
    n_x = nn.n_x
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
    for a run that applies the desired references unchanged.  It must return
    bit-identical values for bit-identical arguments, as :func:`govern` does:
    a state that repeats one of step j in the same segment replays the rows
    from step j on instead of computing them.
    """
    T = desired.shape[0]
    xtil = np.asarray(xtil0, dtype=float)
    _check_dims(aug, nn, xtil)
    states = np.empty((T + 1, aug.n_xtil))
    inputs = np.empty((T, aug.k_xi.shape[0]))
    applied = desired if governor is None else np.empty_like(desired)
    states[0] = xtil
    # Segments end where the desired reference changes bits, and at T.
    bits = desired.view(np.uint64)
    ends = [*(np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1)
            .tolist(), T]
    n_done, diverged = T, False
    k = 0
    # x . x overflows for a state near the float limit; inf still compares
    # above DIVERGENCE_NORM, so the flag is right without a warning.
    with np.errstate(over="ignore"):
        for end in ends:
            # xtil.tobytes() -> the step k with states[k] == xtil, for this
            # segment's last REPLAY_WINDOW to 2 * REPLAY_WINDOW steps.
            recent, older = {}, {}
            swap_at = k + REPLAY_WINDOW
            while k < end:
                key = xtil.tobytes()
                j = recent.setdefault(key, k)
                if j == k:
                    j = older.get(key, k)
                if j < k:
                    # Replay rows j..k-1 with period k - j to the segment end.
                    src = j + np.arange(end - k) % (k - j)
                    inputs[k:end] = inputs[src]
                    states[k + 1:end + 1] = states[src + 1]
                    if governor is not None:
                        applied[k:end] = applied[src]
                    k = end
                    xtil = states[k]
                    break
                if k == swap_at:
                    older, recent, swap_at = recent, {}, k + REPLAY_WINDOW
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
                k += 1
            if diverged:
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


def _closest_feasible_1d(grid, grid_quads, quad, path_quads, target: float,
                         iters: int):
    """Closest point to ``target`` in the feasible set sampled by the grid.

    A reference is feasible when its quadratic is at most 1: ``grid_quads``
    holds those of the grid, ``quad(r)`` gives one, and ``path_quads(refs)``
    those of a 1-D array of references in one pass.  Bracketing on the grid
    plus bisection onto the feasibility boundary; equidistant ties break
    toward the smaller value.  Returns None when no grid point is feasible.

    The bisection is evaluated along predicted paths.  From the bracket
    (a, b) it lists the midpoints bisection visits if the boundary lies at
    the secant guess through the nearest feasible and infeasible quadratics
    known, and evaluates them in one ``path_quads`` call; the first guess
    takes the grid neighbour of a toward b when it lies inside the bracket.
    Each decision is taken from an evaluated quadratic, and a new path
    starts at the first wrong prediction, so the midpoints, the decisions
    and the result are those of plain bisection.
    """
    feasible = np.flatnonzero(grid_quads <= 1.0)
    if not feasible.size:
        return None
    dist = np.abs(grid[feasible] - target)
    i = int(feasible[dist == np.min(dist)][0])  # tie toward smaller reference
    p = float(grid[i])
    goal = float(np.clip(target, grid[0], grid[-1]))
    q_goal = float(quad(goal))
    if q_goal <= 1.0 and abs(goal - target) <= abs(p - target):
        return goal
    a, qa, b, qb = p, float(grid_quads[i]), goal, q_goal
    n = i + (1 if goal > p else -1)
    if 0 <= n < grid.shape[0] and (grid[n] - p) * (goal - grid[n]) > 0.0:
        far, q_far = float(grid[n]), float(grid_quads[n])
    else:
        far, q_far = b, qb
    left = iters
    while left:
        # The secant through (a, qa) and (far, q_far) crosses 1 at distance
        # reach from a (qa <= 1 < q_far); midpoints within it are predicted
        # feasible.
        reach = abs((far - a) * ((1.0 - qa) / (q_far - qa)))
        path, inside = [], []
        lo, hi = a, b
        for _ in range(left):
            mid = 0.5 * (lo + hi)
            # Once the midpoint is an end of the bracket, no later iteration
            # can change a: a only takes feasible midpoints, b infeasible ones.
            if mid == lo or mid == hi:
                break
            path.append(mid)
            if abs(mid - a) <= reach:
                lo = mid
                inside.append(True)
            else:
                hi = mid
                inside.append(False)
        if not path:
            break
        for mid, q, predicted in zip(path, path_quads(np.array(path)).tolist(),
                                     inside):
            left -= 1
            if q <= 1.0:
                a, qa = mid, q
            else:
                b, qb = mid, q
            if (q <= 1.0) != predicted:
                break
        else:
            break
        far, q_far = b, qb
    return a


def govern(J: JointEllipsoid, xtil, r_desired):
    """Surrogate reference: argmin |r - rhat|^2 subject to joint membership."""
    xtil = np.asarray(xtil, dtype=float)
    r_desired = np.atleast_1d(np.asarray(r_desired, dtype=float))

    if J.joint_quad(xtil, r_desired) <= 1.0 + GOVERNOR_TOLERANCE:
        return r_desired

    if J.n_r == 1:
        grid, quads = J.grid_quads(xtil)
        rhat = _closest_feasible_1d(
            grid, quads, lambda r: J.joint_quad(xtil, np.array([r])),
            lambda refs: J.joint_quad_many(xtil, refs[:, None]),
            float(r_desired[0]), REFINE_ITERS)
        if rhat is None:
            raise GovernorInfeasible("state lies outside every reference slice")
        return np.array([rhat])
    return _govern_descent(J, xtil, r_desired)


def _govern_descent(J, xtil, r_desired):
    """Multi-start projected descent for n_r > 1 (no global guarantee), for
    a desired reference that :func:`govern` found outside the set.

    The bisections of all starts run in lockstep, one ``joint_quad_many``
    pass per step, each row bit for bit its own bisection's.
    """
    refs = admissible_references(J)
    starts = [J.r_nom]
    for k in range(refs.axes.shape[1]):
        axis = refs.axes[:, k] * refs.semi_lengths[k]
        starts.append(J.r_nom + 0.7 * axis)
        starts.append(J.r_nom - 0.7 * axis)
    starts = np.array(starts)
    lo = starts[J.joint_quad_many(xtil, starts) <= 1.0][: 2 * DESCENT_STARTS]
    if not lo.shape[0]:
        raise GovernorInfeasible("state lies outside every reference slice")
    hi = np.broadcast_to(r_desired, lo.shape)
    for _ in range(REFINE_ITERS):
        mid = 0.5 * (lo + hi)
        inside = (J.joint_quad_many(xtil, mid) <= 1.0)[:, None]
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    best = None
    for cand in lo:
        if best is None or np.linalg.norm(cand - r_desired) < \
                np.linalg.norm(best - r_desired):
            best = cand
    return best


def simulate_with_governor(aug: AugmentedPlant, nn: FeedForwardNN,
                           J: JointEllipsoid, xtil0, r_desired, T: int,
                           conv_tol: float = 1e-6) -> Trajectory:
    """Simulate with the surrogate reference recomputed at every step."""
    if T < 1:
        raise ValueError("T must be at least 1")
    return _run(aug, nn, xtil0, _schedule_array(r_desired, T, aug.n_r),
                lambda xtil, r: govern(J, xtil, r), conv_tol)


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
                       traj.applied_refs])
    # A settled run repeats its rows, so each distinct row is formatted once.
    # Rows are told apart by their bytes: -0.0 and 0.0, or two NaN payloads,
    # stay different rows even though they compare equal as floats.
    width = table.shape[1]
    rows = table.view(np.dtype((np.void, table.itemsize * width))).ravel()
    distinct, which = np.unique(rows, return_inverse=True)
    texts = [",".join(map(repr, row)) for row in
             distinct.view(table.dtype).reshape(-1, width).tolist()]
    # The bytes of csv.writer's default dialect: no field needs quoting, rows
    # end in CRLF.  Rows are streamed; the file joined into one string would
    # hold all of it in memory at once.
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(f"{k},{texts[i]}\r\n"
                      for k, i in enumerate(which.tolist()))
