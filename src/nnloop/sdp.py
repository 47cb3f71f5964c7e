"""Solve and certify LMI systems with one interior-point run each.

:func:`solve` scale-normalizes the margin-shifted blocks and hands them to the
homogeneous self-dual solver in :mod:`nnloop.ipm` once.  The run ends in

* an optimum (or, when the iterates stall, the best iterate whose blocks
  pass a Cholesky factorization): feasible, but only after every block's
  smallest eigenvalue at that point re-checks nonnegative;
* an infeasibility ray: infeasible, but only after the ray, mapped back to the
  raw unshifted block data, verifies as a Farkas certificate;
* anything else: inaccurate, or solver error when no point was certified.

:func:`certify` repeats the eigenvalue check from the unpacked matrices with a
plain symmetric eigensolver, independently of the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .ipm import _check_farkas, solve_conic
from .lmi import LMISystem

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INACCURATE = "inaccurate"
SOLVER_ERROR = "solver_error"

# The raw-data Farkas gate never runs looser than at the default tolerance,
# so a loose solver tolerance cannot pass a near-certificate as infeasibility.
_FARKAS_TOL = 1e-8


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-8
    max_iter: int = 200


@dataclass
class SDPSolution:
    status: str
    values: dict = field(default_factory=dict)
    objective_value: float | None = None
    margins: dict = field(default_factory=dict)
    iterations: int = 0
    y: np.ndarray | None = None
    farkas: dict | None = None
    wall_time: float = 0.0

    @property
    def P(self):
        return self.values.get("P")

    @property
    def Lambda(self):
        return self.values.get("Lambda")

    @property
    def Q(self):
        return self.values.get("Q")


@dataclass(frozen=True)
class Certification:
    margins: dict
    min_margin: float
    ok: bool
    status: str


def _solver_blocks(system: LMISystem):
    """Copies of the blocks for the solver, with the margin moved into G0
    (G0 - delta I, delta 0) and each divided by its largest entry when that
    exceeds one, and those per-block scales."""
    out, scales = [], []
    zero = np.zeros(system.n_scalars)
    for blk in system.blocks:
        G0 = system.block_value(blk, zero)
        scale = max(1.0, float(np.max(np.abs(G0))),
                    float(np.max(np.abs(blk.coeffs))) if blk.coeffs.size else 1.0)
        out.append(replace(blk, G0=G0 / scale, coeffs=blk.coeffs / scale, delta=0.0))
        scales.append(scale)
    return out, np.array(scales)


def _verify_farkas(raw_blocks, Z_scaled, scales, tol):
    """Validate the solver's infeasibility ray against the raw block data.

    A valid strict-infeasibility certificate is X_b >= 0, not all zero, with
    sum_b <G_{b,i}, X_b> ~ 0 for every scalar variable and
    sum_b <G0_b, X_b> <~ 0: then no y makes every block strictly positive
    definite.  The ray of the scale-normalized blocks is mapped back to the
    raw data and re-normalized to unit trace; the check runs on the raw data
    with relative tolerances, independent of the solver.
    """
    X = [Zb / s for Zb, s in zip(Z_scaled, scales)]
    tr = sum(float(np.trace(Xb)) for Xb in X)
    return _check_farkas(raw_blocks, [Xb / tr for Xb in X], tol)


def _margins(system: LMISystem, theta: np.ndarray) -> dict:
    out = {}
    for blk in system.blocks:
        val = system.block_value(blk, theta)
        out[blk.name] = float(np.linalg.eigvalsh(0.5 * (val + val.T))[0])
    return out


def solve(system: LMISystem, options: SolveOptions | None = None) -> SDPSolution:
    """Solve an LMI system with one self-dual interior-point run."""
    options = options or SolveOptions()
    start = time.perf_counter()
    blocks, scales = _solver_blocks(system)
    c = np.zeros(system.n_scalars) if system.objective is None else system.objective
    res = solve_conic(blocks, c, tol=options.tol, max_iter=options.max_iter)

    theta, objective, farkas, margins = res.y, None, None, {}
    if res.status == "infeasible":
        farkas = _verify_farkas(system.blocks, res.Z, scales,
                                min(options.tol, _FARKAS_TOL))
        status = INFEASIBLE if farkas is not None else INACCURATE
    elif res.status == "max_iter":
        status = INACCURATE
    else:  # an optimum, or the best certified iterate of a stalled run
        status = FEASIBLE if theta is not None else SOLVER_ERROR
    if theta is not None:
        margins = _margins(system, theta)
        if min(margins.values()) < 0.0:
            status = INACCURATE
        if system.objective is not None:
            objective = float(system.objective @ theta)
    return SDPSolution(status=status,
                       values=system.unpack(theta) if theta is not None else {},
                       objective_value=objective, margins=margins,
                       iterations=res.iterations, y=theta, farkas=farkas,
                       wall_time=time.perf_counter() - start)


def certify(system: LMISystem, solution: SDPSolution) -> Certification:
    """Independent a-posteriori check of a feasible solution.

    Substitutes the solution into every block and computes the smallest
    eigenvalue per block with a plain symmetric eigensolver.  Any negative
    margin downgrades the verdict to "inaccurate".
    """
    if solution.status != FEASIBLE:
        raise ValueError("certify expects a feasible solution")
    theta = system.pack(solution.values)
    margins = _margins(system, theta)
    min_margin = min(margins.values())
    ok = min_margin >= 0.0
    return Certification(margins=margins, min_margin=min_margin,
                         ok=ok, status=FEASIBLE if ok else INACCURATE)


def solve_certified(system: LMISystem,
                    options: SolveOptions | None = None) -> SDPSolution:
    """Solve, then fold the independent certification into the status."""
    sol = solve(system, options)
    if sol.status != FEASIBLE:
        return sol
    cert = certify(system, sol)
    return replace(sol, status=cert.status, margins=cert.margins)
