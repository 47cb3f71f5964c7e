"""Closed-loop simulation and the reference governor.

The governor replaces the desired reference by the nearest surrogate for
which the pair (current state, surrogate) stays inside the certified joint
set.  Since the steady state depends on the network nonlinearly, the scalar
case is solved globally by bracketing on a grid over the admissible interval
followed by bisection onto the feasibility boundary; the multi-reference case
uses multi-start projected descent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import GovernorInfeasible
from .network import FeedForwardNN, forward
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
    """One network pass: plant input u = k_xi xi + kappa(x, r) and xtil+."""
    xtil = np.asarray(xtil, dtype=float)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    u_nn = forward(nn, xtil[: aug.n_x], r).u
    u = aug.k_xi @ xtil[aug.n_x:] + u_nn
    return u, aug.Atil @ xtil + aug.Btil @ u_nn + aug.Br @ r


def step(aug: AugmentedPlant, nn: FeedForwardNN, xtil, r) -> np.ndarray:
    """One transition xtil+ = Atil xtil + Btil kappa(x, r) + Br r."""
    return _transition(aug, nn, xtil, r)[1]


def schedule_at(schedule, k: int, n_r: int) -> np.ndarray:
    """Evaluate a piecewise-constant reference schedule at step k.

    A schedule is either a constant reference vector/scalar or a list of
    (k_start, r) pairs sorted by k_start.
    """
    if isinstance(schedule, (list, tuple)) and schedule and \
            isinstance(schedule[0], (list, tuple)):
        current = np.atleast_1d(np.asarray(schedule[0][1], dtype=float))
        for k_start, r in schedule:
            if k >= k_start:
                current = np.atleast_1d(np.asarray(r, dtype=float))
            else:
                break
        return np.broadcast_to(current, (n_r,)).astype(float)
    return np.broadcast_to(np.atleast_1d(np.asarray(schedule, dtype=float)),
                           (n_r,)).astype(float)


def _run(aug, nn, xtil0, T, ref_at, conv_tol):
    n_r = aug.n_r
    states = [np.asarray(xtil0, dtype=float)]
    inputs, outputs, applied, desired = [], [], [], []
    diverged = False
    xtil = states[0]
    for k in range(T):
        r_des, r_app = ref_at(k, xtil)
        outputs.append(aug.Ctil @ xtil)
        u, xtil = _transition(aug, nn, xtil, r_app)
        inputs.append(u)
        applied.append(r_app)
        desired.append(r_des)
        states.append(xtil)
        if np.linalg.norm(xtil) > DIVERGENCE_NORM:
            diverged = True
            break
    outputs.append(aug.Ctil @ states[-1])
    errs = [np.linalg.norm(y - r) for y, r in zip(outputs[:-1], applied)]
    n_done = len(inputs)
    converged = (
        not diverged
        and n_done >= CONVERGENCE_WINDOW
        and all(e < conv_tol for e in errs[-CONVERGENCE_WINDOW:])
    )
    return Trajectory(
        states=np.array(states),
        inputs=np.array(inputs).reshape(n_done, -1),
        outputs=np.array(outputs).reshape(n_done + 1, n_r),
        applied_refs=np.array(applied).reshape(n_done, n_r),
        desired_refs=np.array(desired).reshape(n_done, n_r),
        converged=bool(converged),
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
    n_r = aug.n_r

    def ref_at(k, _xtil):
        r = schedule_at(ref_schedule, k, n_r)
        return r, r

    return _run(aug, nn, xtil0, T, ref_at, conv_tol)


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
        lo, hi = admissible_references(J).interval
        grid = np.linspace(lo, hi, cfg.grid_points)
        mask = J.joint_quad_many(xtil, grid[:, None]) <= 1.0
        rhat = _closest_feasible_1d(
            grid, mask, lambda r: g(np.array([r])) <= 1.0,
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
    n_r = aug.n_r

    def ref_at(k, xtil):
        r_des = schedule_at(r_desired, k, n_r)
        return r_des, govern(J, xtil, r_des, cfg)

    return _run(aug, nn, xtil0, T, ref_at, conv_tol)


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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.steps):
            row = ([k] + [repr(float(v)) for v in traj.states[k]]
                   + [repr(float(v)) for v in traj.inputs[k]]
                   + [repr(float(v)) for v in traj.outputs[k]]
                   + [repr(float(v)) for v in traj.applied_refs[k]])
            writer.writerow(row)
