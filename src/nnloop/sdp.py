"""Decide LMI systems with one interior-point run each, and check the verdict.

:func:`solve` scale-normalizes the margin-shifted blocks and hands them to the
homogeneous self-dual solver in :mod:`nnloop.ipm` once.  The run ends in

* an optimum (or, when the iterates stall, the best iterate whose blocks
  pass a Cholesky factorization): feasible, once :func:`certify` confirms it;
* an infeasibility ray: infeasible, but only after the ray, mapped back to the
  raw unshifted block data, passes :func:`check_farkas`;
* anything else: inaccurate, or solver error when no point was found.

Both checks read only the raw :class:`nnloop.lmi.LMIBlock` data, not the
solver's.  :func:`certify` runs once on every result that has a point: it
substitutes the point into each block and takes the smallest eigenvalue with
a plain symmetric eigensolver; a negative one downgrades the verdict to
inaccurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .ipm import solve_conic
from .lmi import LMISystem

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INACCURATE = "inaccurate"
SOLVER_ERROR = "solver_error"

# The raw-data Farkas gate never runs looser than at the default tolerance,
# so a loose solver tolerance cannot pass a near-certificate as infeasibility.
_FARKAS_TOL = 1e-8


@dataclass
class SDPSolution:
    status: str
    values: dict = field(default_factory=dict)
    objective_value: float | None = None
    margins: dict = field(default_factory=dict)
    iterations: int = 0
    y: np.ndarray | None = None
    farkas: dict | None = None

    @property
    def P(self):
        return self.values.get("P")

    @property
    def Lambda(self):
        return self.values.get("Lambda")

    @property
    def Q(self):
        return self.values.get("Q")


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


def check_farkas(blocks, X, tol):
    """Farkas test of X, one PSD matrix per block, on the blocks as given.

    X certifies that no y makes every block strictly positive definite when
    sum_b <G_{b,i}, X_b> = 0 for every variable i and sum_b <G0_b, X_b> <= 0.
    Each equality residual is divided by 1 + max_b |G_{b,i}|, and both must
    hold within max(1e3 tol, 1e-6), the second relative to 1 + max_b |G0_b|.
    Returns the relative residual and <G0, X> if X passes, else None.
    """
    resid = sum(np.tensordot(blk.coeffs, Xb, axes=2) for blk, Xb in zip(blocks, X))
    col_scale = 1.0 + np.max([np.abs(blk.coeffs).max(axis=(1, 2)) for blk in blocks],
                             axis=0)
    g0_scale = 1.0 + max(float(np.max(np.abs(blk.G0))) for blk in blocks)
    res_rel = float(np.max(np.abs(resid) / col_scale, initial=0.0))
    viol = sum(float(np.vdot(blk.G0, Xb)) for blk, Xb in zip(blocks, X))
    eq_tol = max(1e3 * tol, 1e-6)
    if res_rel <= eq_tol and viol <= eq_tol * g0_scale:
        return {"X": X, "equality_residual": res_rel, "violation": viol}
    return None


def _margins(system: LMISystem, theta: np.ndarray) -> dict:
    out = {}
    for blk in system.blocks:
        val = system.block_value(blk, theta)
        out[blk.name] = float(np.linalg.eigvalsh(0.5 * (val + val.T))[0])
    return out


def certify(system: LMISystem, solution: SDPSolution) -> SDPSolution:
    """The solution with the margins of its point, independent of the solver.

    Substitutes ``solution.values`` into every block and takes the smallest
    eigenvalue per block with a plain symmetric eigensolver.  Any negative
    margin downgrades the status to "inaccurate".
    """
    if not solution.values:
        raise ValueError("certify expects a solution with a point")
    margins = _margins(system, system.pack(solution.values))
    status = INACCURATE if min(margins.values()) < 0.0 else solution.status
    return replace(solution, margins=margins, status=status)


def solve(system: LMISystem, tol: float = 1e-8) -> SDPSolution:
    """Decide an LMI system: one self-dual interior-point run, the Farkas
    check of a ray, and one :func:`certify` of any point."""
    blocks, scales = _solver_blocks(system)
    c = np.zeros(system.n_scalars) if system.objective is None else system.objective
    res = solve_conic(blocks, c, tol=tol)

    farkas = None
    if res.status == "infeasible":
        # Undo the per-block scaling, then renormalize to unit trace.
        X = [Zb / s for Zb, s in zip(res.Z, scales)]
        tr = sum(float(np.trace(Xb)) for Xb in X)
        farkas = check_farkas(system.blocks, [Xb / tr for Xb in X],
                              min(tol, _FARKAS_TOL))
        status = INFEASIBLE if farkas is not None else INACCURATE
    elif res.status == "max_iter":
        status = INACCURATE
    else:  # an optimum, or the best certified iterate of a stalled run
        status = FEASIBLE if res.y is not None else SOLVER_ERROR
    sol = SDPSolution(status=status, iterations=res.iterations, farkas=farkas)
    if res.y is None:
        return sol
    objective = None if system.objective is None else float(system.objective @ res.y)
    return certify(system, replace(sol, values=system.unpack(res.y),
                                   objective_value=objective, y=res.y))


# The CLI decides through this name because perfbench/tracing.py times the
# sdp layer by wrapping it.
solve_certified = solve
