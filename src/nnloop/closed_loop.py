"""Closed-loop simulation and the reference governor.

There is one simulation loop, shared by the plain and the governed run.  The
reference schedule is turned into a (T, n_r) array before it starts.  A step
makes one trace-free network pass and a few small matrix products: the
reference terms Hr0 r and Br r are formed once per applied reference, told
apart by its bytes, and the plant inputs k_xi xi + u_nn, the outputs and the
tracking errors in stacked passes over the stored rows after the loop.
The step is the package's one single-point evaluation of the network and
the plant; every other one (network, steady-state map, joint-set terms)
runs over a stack of rows, a single point being a stack of one row, and
each row is bit for bit the step's single products.  Those products,
the layer loop's included, are methods bound once per run
(:func:`_stepper`, :func:`_bind`): ``ndarray.dot``, the BLAS call ``@``
makes at about half the dispatch cost, or ``@`` for a matrix with one
column.

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
set: every reference it applies, the desired one included, has a joint
quadratic of at most 1, exactly.  Since the steady state depends on the
network nonlinearly, the scalar case is solved globally by bracketing on a
grid over the admissible interval followed by bisection onto the feasibility
boundary.  The grid, its slice centers (one stacked pass of the steady-state
map) and reference terms are built once per joint set
(:attr:`JointEllipsoid.grid`).  For a desired reference beyond an end, the
GRID_END_POINTS grid points there are read first, and the whole grid only
when none of them is feasible.  The bisection runs along predicted paths
(:func:`_closest_feasible_1d`): the midpoints it would visit if the boundary
lay at an inverse quadratic guess through three evaluated points are
evaluated in one stacked pass (:meth:`JointEllipsoid.joint_quad_many`), each
entry bit for bit the single :meth:`JointEllipsoid.joint_quad`, and a new
path starts at the first wrong prediction, so the result is that of plain
bisection at about 2.2 passes per bisecting call.  A step asks
:meth:`JointEllipsoid.joint_quad` about the desired reference only, whose
slice center the set keeps while it stays the same.  The multi-reference
case uses multi-start projected descent, whose bisections run in lockstep,
one stacked pass per step.  A run whose state grows past the float limit is
flagged as diverged without a warning, and keeps its non-finite last row.

:func:`write_trajectory_csv` streams the rows to the file a chunk at a time
with the bytes ``csv.writer`` would write, CRLF line ends and ``repr``
floats: those of a chunk's new rows in one call of :func:`_floatrepr.reprs`,
Schubfach's shortest digits in numpy, several times faster than ``repr`` on
the subnormal and tiny floats of a settled run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadSchedule, DimensionMismatch, GovernorInfeasible
# ``forward`` is imported so that ``closed_loop.forward`` remains a name that
# perfbench/tracing.py can wrap; the loop itself makes trace-free passes.
from .network import FeedForwardNN, forward  # noqa: F401
from .plant import AugmentedPlant, _Value, _matvecs, _rows
from .roa import JointEllipsoid, _finite_reference, _joint_state, admissible_references

DIVERGENCE_NORM = 1e9
# A run has converged when its last CONVERGENCE_WINDOW tracking errors are
# all below CONVERGENCE_TOL.
CONVERGENCE_WINDOW = 50
CONVERGENCE_TOL = 1e-6
# The loop remembers the states of at least this many (at most twice as many)
# recent steps of a reference segment, so it finds and replays every periodic
# orbit whose period is at most this.  The pendulum loop settles at r = 0 onto
# a period-70 orbit of subnormal states.
REPLAY_WINDOW = 128
# Governor: bisection steps onto the feasibility boundary, and half the
# descent's starting points.
REFINE_ITERS = 60
# Governor: grid points read first at the end beyond which the desired
# reference lies.  In 2,177 such calls of closed-loop benchmark seeds 1 and 7
# the nearest feasible one was the end in 44%, within 16 points in 90%; with
# 9.4 us for 16 rows against 28 us for 256 (timeit minima, one BLAS thread)
# lengths 4-16 cost 12.1-12.3 us per call, the end alone 23 us.
GRID_END_POINTS = 16
DESCENT_STARTS = 8
# write_trajectory_csv's rows per chunk: faster than 256 or 1,024 on the
# benchmark's plain and governed runs, with below 0.5 MB of temporaries.
CSV_CHUNK_ROWS = 512


@dataclass(frozen=True, eq=False)
class Trajectory(_Value):
    """Closed-loop run: states x_0..x_T, per-step inputs/outputs/references."""

    states: np.ndarray        # (T+1, n_xtil)
    inputs: np.ndarray        # (T, n_u)
    outputs: np.ndarray       # (T+1, n_r)
    applied_refs: np.ndarray  # (T, n_r)
    desired_refs: np.ndarray  # (T, n_r)
    converged: bool
    diverged: bool

    # A diverged run may end in non-finite rows.
    _arrays = _nonfinite = ("states", "inputs", "outputs", "applied_refs", "desired_refs")

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    def tracking_errors(self) -> np.ndarray:
        """Per-step norm of y_k - rhat_k."""
        return np.linalg.norm(self.outputs[:-1] - self.applied_refs, axis=1)


def _bind(A):
    """The product x -> A @ x of the matrix A and one vector, as a bound
    method chosen once: ``A.dot``, or ``A.__matmul__`` for a matrix with
    one column.

    ``A.dot(x)`` makes the BLAS gemv (a dot when A has one row) that
    ``A @ x`` makes, at about half the dispatch cost, and gives the same
    bits, except for a matrix with one column, which keeps ``@``: ``dot``
    multiplies a 1x1 matrix as a scalar (``[[-2.0]]`` times ``[0.0]`` is
    -0.0 where ``@`` gives 0.0), and ``@`` forms an (m, 1) product in
    numpy's own loop, which can differ from gemv in the sign of a zero.
    """
    return A.__matmul__ if A.shape[1] == 1 else A.dot


def _stepper(aug: AugmentedPlant, nn: FeedForwardNN):
    """The loop's transition ``(xtil, hr, br) -> (u_nn, xtil+)``, its
    products and activation bound once: one network pass u_nn = kappa(x, r)
    and xtil+, from a float state xtil (n_xtil,) and the terms hr = Hr0 r,
    br = Br r.  Each product gives the bits of a row of
    :func:`plant._matvecs`, so u_nn is ``network.evaluate(nn, x, r)``."""
    n_x, Hx0 = nn.n_x, _bind(nn.Hx0)
    act, args = nn.activation.ufunc
    hidden = tuple((_bind(W), b) for W, b in nn.layers)
    Wl, bl = _bind(nn.Wl), nn.bl
    Atil, Btil = _bind(aug.Atil), _bind(aug.Btil)

    def transition(xtil, hr, br):
        w = Hx0(xtil[:n_x]) + hr
        for W, b in hidden:
            w = act(W(w) + b, *args)
        u_nn = Wl(w) + bl
        return u_nn, Atil(xtil) + Btil(u_nn) + br

    return transition


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
    return _stepper(aug, nn)(xtil, nn.Hr0 @ r, aug.Br @ r)[1]


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
    """The (T, n_r) references of steps 0..T-1; T must be at least 1."""
    if T < 1:
        raise ValueError("T must be at least 1")
    starts, refs = _parse_schedule(schedule, n_r)
    return refs[_segments(starts, np.arange(T))]


def _run(aug, nn, xtil0, desired, governor):
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
    transition = _stepper(aug, nn)
    states = np.empty((T + 1, aug.n_xtil))
    u_nns = np.empty((T, aug.k_xi.shape[0]))
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
            r = desired[k]
            ref_key, hr, br = r.tobytes(), nn.Hr0 @ r, aug.Br @ r
            while k < end:
                key = xtil.tobytes()
                j = recent.setdefault(key, k)
                if j == k:
                    j = older.get(key, k)
                if j < k:
                    # Replay rows j..k-1 with period k - j to the segment end.
                    src = j + np.arange(end - k) % (k - j)
                    u_nns[k:end] = u_nns[src]
                    states[k + 1:end + 1] = states[src + 1]
                    if governor is not None:
                        applied[k:end] = applied[src]
                    k = end
                    xtil = states[k]
                    break
                if k == swap_at:
                    older, recent, swap_at = recent, {}, k + REPLAY_WINDOW
                if governor is not None:
                    r = governor(xtil, desired[k])
                    applied[k] = r
                    if r.tobytes() != ref_key:
                        ref_key, hr, br = r.tobytes(), nn.Hr0 @ r, aug.Br @ r
                u_nns[k], xtil = transition(xtil, hr, br)
                states[k + 1] = xtil
                # sqrt(x . x) is the value np.linalg.norm returns for a vector
                if math.sqrt(xtil.dot(xtil)) > DIVERGENCE_NORM:
                    n_done, diverged = k + 1, True
                    break
                k += 1
            if diverged:
                break
        # The plant inputs k_xi xi_k + u_nn,k, in place of u_nn,k; each product
        # is made on a state row laid out as a fresh vector is.
        inputs = u_nns[:n_done]
        np.add(_matvecs(aug.k_xi, _rows(states[:n_done])[:, aug.n_x:]), inputs,
               out=inputs)
    states = states[: n_done + 1]
    applied = applied[:n_done]
    # inf in a diverged run's last state times a zero of C is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        outputs = states @ aug.Ctil.T
    tail = slice(n_done - CONVERGENCE_WINDOW, n_done)
    converged = (
        not diverged
        and n_done >= CONVERGENCE_WINDOW
        and bool(np.all(np.linalg.norm(outputs[tail] - applied[tail], axis=1)
                        < CONVERGENCE_TOL))
    )
    return Trajectory(
        states=states,
        inputs=inputs,
        outputs=outputs,
        applied_refs=applied,
        desired_refs=desired[:n_done],
        converged=converged,
        diverged=diverged,
    )


def simulate(aug: AugmentedPlant, nn: FeedForwardNN, xtil0, ref_schedule,
             T: int) -> Trajectory:
    """Iterate the loop for T steps under a piecewise-constant schedule.

    Divergence (state norm above 1e9) truncates the run and sets the flag;
    it is reported, not raised.
    """
    return _run(aug, nn, xtil0, _schedule_array(ref_schedule, T, aug.n_r), None)


def _closest_feasible_1d(grid, grid_quads, path_quads, target: float,
                         q_target: float):
    """Closest point to ``target`` in the feasible set sampled by the grid.

    A reference is feasible when its quadratic is at most 1: ``grid_quads``
    holds those of the grid, ``q_target`` that of ``target``, and
    ``path_quads(refs)`` those of a 1-D array of references in one pass.  A
    target beyond the grid is clipped to its end, whose quadratic the grid
    holds.  Bracketing on the grid plus REFINE_ITERS bisection steps onto the
    feasibility boundary; equidistant ties break toward the smaller value.
    Returns None when no grid point is feasible.  For a target beyond the
    grid, grid points at that end give the whole grid's result when one of
    them is feasible: every other grid point is farther from the target.

    The bisection is evaluated along predicted paths.  From the bracket
    (a, b) it lists the midpoints bisection visits if the boundary lies at a
    guess, and evaluates them in one ``path_quads`` call.  The guess fits r
    as a quadratic in q through three evaluated points (inverse quadratic
    interpolation, as in Brent's root finder) and takes its r at q = 1: a,
    the nearest point known toward b (first the grid neighbour of a, when it
    lies inside the bracket) and the nearest behind a (first the grid
    point).  A degenerate fit or a guess outside the bracket gives way to
    the secant through the first two.  Each decision is taken from an
    evaluated quadratic, and a new path starts at the first wrong
    prediction, so the midpoints, the decisions and the result are those of
    plain bisection.
    """
    feasible = np.flatnonzero(grid_quads <= 1.0)
    if not feasible.size:
        return None
    dist = np.abs(grid[feasible] - target)
    i = int(feasible[dist == np.min(dist)][0])  # tie toward smaller reference
    p = float(grid[i])
    goal = float(np.clip(target, grid[0], grid[-1]))
    q_goal = float(q_target if goal == target
                   else grid_quads[0 if goal > target else -1])
    if q_goal <= 1.0 and abs(goal - target) <= abs(p - target):
        return goal
    a, qa, b, qb = p, float(grid_quads[i]), goal, q_goal
    step = 1 if goal > p else -1
    n, c = i + step, i - step
    if 0 <= n < grid.shape[0] and (grid[n] - p) * (goal - grid[n]) > 0.0:
        far, q_far = float(grid[n]), float(grid_quads[n])
    else:
        far, q_far = b, qb
    back, q_back = ((float(grid[c]), float(grid_quads[c]))
                    if 0 <= c < grid.shape[0] else (far, q_far))
    left = REFINE_ITERS
    while left:
        # The inverse quadratic through (qa, a), (q_far, far) and
        # (q_back, back) crosses 1 at a + d (Lagrange form, less a); the
        # secant through (a, qa) and (far, q_far) stands in when that fit is
        # degenerate or a + d lies outside the bracket (qa <= 1 < q_far).
        # Midpoints within reach of a are predicted feasible.
        ua, uf, uc = qa - 1.0, q_far - 1.0, q_back - 1.0
        den = (uf - ua) * (uf - uc) * (uc - ua)
        d = ((far - a) * ua * uc * (uc - ua)
             - (back - a) * ua * uf * (uf - ua)) / den if den else 0.0
        if 0.0 < d * (b - a) and abs(d) < abs(b - a):
            reach = abs(d)
        else:
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
                back, q_back, a, qa = a, qa, mid, q
            else:
                b, qb = mid, q
            if (q <= 1.0) != predicted:
                break
        else:
            break
        far, q_far = b, qb
    return a


def govern(J: JointEllipsoid, xtil, r_desired):
    """Surrogate reference: argmin |r - rhat|^2 s.t. J.joint_quad(xtil, r) <= 1.

    A desired reference with a non-finite entry raises BadSchedule, as it
    does in a schedule; a state or reference of the wrong length raises
    DimensionMismatch.
    """
    xtil = _joint_state(J, xtil)
    r_desired = _finite_reference(J, r_desired)

    q_desired = J.joint_quad(xtil, r_desired)
    if q_desired <= 1.0:
        return r_desired

    if J.n_r == 1:
        target, grid, parts = float(r_desired[0]), J.grid, [slice(None)]
        if target < grid[0]:  # the points at the end beyond it first
            parts.insert(0, slice(GRID_END_POINTS))
        elif target > grid[-1]:
            parts.insert(0, slice(-GRID_END_POINTS, None))
        for part in parts:
            rhat = _closest_feasible_1d(
                *J.grid_quads(xtil, part),
                lambda refs: J.joint_quad_many(xtil, refs[:, None]),
                target, q_desired)
            if rhat is not None:
                return np.array([rhat])
        raise GovernorInfeasible("state lies outside every reference slice")
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
    # the first of equally near candidates, as argmin picks it
    return lo[int(np.argmin([np.linalg.norm(c - r_desired) for c in lo]))]


def simulate_with_governor(aug: AugmentedPlant, nn: FeedForwardNN,
                           J: JointEllipsoid, xtil0, r_desired,
                           T: int) -> Trajectory:
    """Simulate with the surrogate reference recomputed at every step."""
    return _run(aug, nn, xtil0, _schedule_array(r_desired, T, aug.n_r),
                lambda xtil, r: govern(J, xtil, r))


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """CSV rows k, xtil_1.., u_1.., y_1.., rhat_1.. for k = 0..T-1."""
    from ._floatrepr import reprs  # kept out of `import nnloop.cli`
    parts = (traj.states[:-1], traj.inputs, traj.outputs[:-1],
             traj.applied_refs)
    header = ["k"] + [f"{name}_{i + 1}" for name, a in
                      zip(("xtil", "u", "y", "rhat"), parts)
                      for i in range(a.shape[1])]
    m = len(header) - 1
    # A chunk formats each distinct row once, or takes it from the previous
    # chunk: a settled run repeats a short orbit, and the texts kept never
    # exceed two chunks.  Rows are told apart by their bytes: -0.0 and 0.0,
    # or two NaN payloads, stay different rows though they compare equal.
    texts = {}
    # The bytes of csv.writer's default dialect: no field needs quoting, rows
    # end in CRLF.
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for lo in range(0, len(parts[0]), CSV_CHUNK_ROWS):
            block = np.hstack([a[lo:lo + CSV_CHUNK_ROWS] for a in parts])
            keys = block.view(np.dtype((np.void, 8 * m))).ravel().tolist()
            index = {key: i for i, key in enumerate(keys)}
            texts = {key: texts[key] for key in index if key in texts}
            new = [i for key, i in index.items() if key not in texts]
            if new:
                cells = reprs(block[new]).tolist()
                texts.update(zip([keys[i] for i in new],
                                 [b",".join(cells[j:j + m])
                                  for j in range(0, len(cells), m)]))
            fh.write(b"".join([b"%d,%s\r\n" % (lo + i, texts[key])
                               for i, key in enumerate(keys)]))
