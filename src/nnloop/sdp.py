"""Decide LMI systems with one interior-point run each, and check the verdict.

:func:`solve` hands the blocks, as :mod:`nnloop.lmi` builds them, to the
homogeneous self-dual solver in :mod:`nnloop.ipm` once; the solver moves
each margin into G0 and scales the blocks' pieces itself, and returns a ray
in the blocks' raw units.  The verdict comes from the evidence the run
returns, never from how the run ended:

* a ray that passes :func:`check_farkas` on the raw unshifted block data:
  infeasible;
* a point (an optimum, or the best iterate whose blocks passed a Cholesky
  factorization) that passes :func:`certify`: feasible;
* a ray or a point that fails its check: inaccurate;
* neither a ray nor a point: solver error.

Both checks read only the raw :class:`nnloop.lmi.LMIBlock` data, not the
solver's.  :func:`certify` substitutes the point into each block and takes
the smallest eigenvalue with a plain symmetric eigensolver; a negative one
makes the verdict inaccurate.

:func:`unstable_vertex` proves a theorem's LMI infeasible before it is
built: its stability block makes every linear loop with gains in the
neurons' sectors Schur, so one sector gain whose closed loop is not Schur,
decided exactly in integers, is a certificate of infeasibility.
"""

from __future__ import annotations

import math
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
# A vertex loop goes on to the exact Schur test when the float spectral
# radius of its closed loop is at least 1 - _VERTEX_SLACK.  The eigenvalues
# of a nearly defective matrix can be off by far more than the rounding unit
# (by about eps**(1/3) for a Jordan block of order 3), and the exact test
# costs little next to a solve.
_VERTEX_SLACK = 1e-3


@dataclass
class SDPSolution:
    status: str
    values: dict = field(default_factory=dict)
    objective_value: float | None = None
    margins: dict = field(default_factory=dict)
    iterations: int = 0
    y: np.ndarray | None = None
    farkas: dict | None = None
    # How and why the interior-point run ended (IPMResult.status and
    # .reason), or None when no run was made.
    ipm_status: str | None = None
    ipm_reason: str | None = None

    @property
    def P(self):
        return self.values.get("P")

    @property
    def Lambda(self):
        return self.values.get("Lambda")

    @property
    def Q(self):
        return self.values.get("Q")


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


@np.errstate(over="ignore")  # a block value that overflows is not certified
def _margins(system: LMISystem, theta: np.ndarray) -> dict:
    out = {}
    for blk in system.blocks:
        val = system.block_value(blk, theta)  # nan if not finite: eigvalsh can miss it
        out[blk.name] = (float(np.linalg.eigvalsh(0.5 * (val + val.T))[0])
                         if np.isfinite(val).all() else np.nan)
    return out


def certify(system: LMISystem, solution: SDPSolution) -> SDPSolution:
    """The solution with the margins of its point, independent of the solver.

    Substitutes ``solution.values`` into every block and takes the smallest
    eigenvalue per block with a plain symmetric eigensolver.  Any negative
    or nan margin (a block value that is not finite) makes the status
    "inaccurate".
    """
    if not solution.values:
        raise ValueError("certify expects a solution with a point")
    margins = _margins(system, system.pack(solution.values))
    status = solution.status if all(v >= 0.0 for v in margins.values()) else INACCURATE
    return replace(solution, margins=margins, status=status)


def _vec(row):
    """A float row as an exact vector (integers, e), row == integers / 2**e:
    every finite double is an integer over a power of two."""
    ratios = [x.as_integer_ratio() for x in row.tolist()]
    e = max(d.bit_length() for _, d in ratios) - 1
    return [m << (e + 1 - d.bit_length()) for m, d in ratios], e


def _scale(x, vec):
    """The float x times the exact vector vec, exactly."""
    m, d = float(x).as_integer_ratio()
    ints, e = vec
    return [m * v for v in ints], e + d.bit_length() - 1


def _sum(terms, width):
    """The sum of exact vectors of this width, exactly."""
    if not terms:
        return [0] * width, 0
    g = max(e for _, e in terms)
    return [sum(ints[c] << (g - e) for ints, e in terms) for c in range(width)], g


def _align(rows):
    """Exact vectors as the rows of one integer matrix N and e, with each
    row == N[r] / 2**e."""
    g = max(e for _, e in rows)
    return [[v << (g - e) for v in ints] for ints, e in rows], g


def _charpoly(N) -> list:
    """Coefficients c_0, ..., c_n = 1 of det(zI - N) for a square integer
    matrix N (a list of rows), by Faddeev-LeVerrier; each division is exact,
    since every c_k of an integer matrix is an integer."""
    n = len(N)
    c = [0] * n + [1]
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(a * b for a, b in zip(row, col)) + (c[n - k + 1] if i == j else 0)
              for j, col in enumerate(zip(*M))] for i, row in enumerate(N)]
        c[n - k] = -(sum(N[i][j] * M[j][i] for i in range(n) for j in range(n)) // k)
    return c


def _schur_cohn(p) -> bool:
    """Whether every root of the integer polynomial p (coefficients from the
    constant term up, leading one nonzero) lies strictly inside the unit
    circle.  p is Schur exactly when |p_0| < |p_n| and the Schur transform
    (p_n p(z) - p_0 z^n p(1/z)) / z is Schur: by Rouche the transform keeps
    p's roots inside the circle, less the one at z = 0 it gains, and its
    roots on the circle.  |p_0| >= |p_n| puts a root on or outside it."""
    p = list(p)
    while len(p) > 1:
        a0, an = p[0], p[-1]
        if abs(a0) >= abs(an):
            return False
        n = len(p) - 1
        p = [an * p[k + 1] - a0 * p[n - 1 - k] for k in range(n)]
        g = math.gcd(*p)
        p = [c // g for c in p]
    return True


def _is_schur(N, e: int) -> bool:
    """Whether N / 2**e, for a square integer matrix N, has spectral radius
    below one, decided exactly: det(zI - N / 2**e) is a positive multiple of
    sum_k c_k 2**(e k) z^k, with c the characteristic polynomial of N."""
    return _schur_cohn([ck << (e * k) for k, ck in enumerate(_charpoly(N))])


def _exact_loop(aug, sel, s):
    """The closed loop A_cl(s) of :func:`unstable_vertex` as an integer
    matrix N and e with A_cl(s) == N / 2**e exactly.  The nonzero rows of K
    follow by forward substitution, K_i = s_i (P_x[i] + sum_{j<i} P_w[i, j]
    K_j), and A_cl(s) = [Atil Btil] T with T = R_V[:, :n_xtil]
    + R_V[:, n_xtil:] K."""
    n_x = aug.n_xtil
    Pw, Vw = sel.N1lm1, sel.RV[:, n_x:]
    K = {}
    for i in np.flatnonzero(s):
        terms = [_scale(Pw[i, j], K[j]) for j in np.flatnonzero(Pw[i, :i]) if j in K]
        K[i] = _scale(s[i], _sum([_vec(sel.Rphi[i, :n_x])] + terms, n_x))
    T = [_sum([_vec(sel.RV[t, :n_x])] + [_scale(Vw[t, j], K[j])
                                        for j in np.flatnonzero(Vw[t]) if j in K], n_x)
         for t in range(sel.RV.shape[0])]
    AB = np.hstack([aug.Atil, aug.Btil])
    return _align([_sum([_scale(AB[r, t], T[t]) for t in np.flatnonzero(AB[r])], n_x)
                   for r in range(n_x)])


def unstable_vertex(aug, sel, vertices: dict) -> dict | None:
    """A certificate that the LMI of every theorem on (aug, sel) with these
    sectors is infeasible, from the first gain in ``vertices`` (name ->
    one slope per neuron, each in its neuron's sector) whose linear closed
    loop is not Schur; None if there is none.

    With w = diag(s) v the loop is x+ = A_cl(s) x, where
    A_cl(s) = M_x + M_w K, M = [Atil Btil] R_V, and
    K = (I - diag(s) P_w)^-1 diag(s) P_x with P_x = R_phi[:n, :n_xtil] and
    P_w = R_phi[:n, n_xtil:] = N1lm1 strictly lower triangular.  A point of
    the stability block, strict with P > 0, makes x'Px decrease strictly
    along that loop, so A_cl(s) is Schur.  A cheap float spectral radius
    picks the gains worth the exact test, which decides in Python integers
    that A_cl(s), formed exactly from the float data, has a root on or
    outside the unit circle."""
    n_x = aug.n_xtil
    n = sel.N1lm1.shape[0]
    if np.any(np.triu(sel.N1lm1)):
        raise ValueError("P_w = N1lm1 must be strictly lower triangular")
    M = np.hstack([aug.Atil, aug.Btil]) @ sel.RV
    Px, Pw = sel.Rphi[:n, :n_x], sel.N1lm1
    for name, s in vertices.items():
        s = np.asarray(s, dtype=float)
        A = M[:, :n_x]
        if s.any():
            A = A + M[:, n_x:] @ np.linalg.solve(np.eye(n) - s[:, None] * Pw,
                                                  s[:, None] * Px)
        if not np.all(np.isfinite(A)):
            continue
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho >= 1.0 - _VERTEX_SLACK and not _is_schur(*_exact_loop(aug, sel, s)):
            return {"kind": "unstable_vertex", "vertex": name,
                    "spectral_radius": rho}
    return None


def solve(system: LMISystem, tol: float = 1e-8) -> SDPSolution:
    """Decide an LMI system: one self-dual interior-point run, the Farkas
    check of a ray, and one :func:`certify` of any point."""
    c = np.zeros(system.n_scalars) if system.objective is None else system.objective
    res = solve_conic(system.blocks, c, tol=tol)
    run = {"iterations": res.iterations, "ipm_status": res.status, "ipm_reason": res.reason}
    if res.status == "infeasible":
        farkas = check_farkas(system.blocks, res.Z, min(tol, _FARKAS_TOL))
        return SDPSolution(status=INACCURATE if farkas is None else INFEASIBLE,
                           farkas=farkas, **run)
    if res.y is None:
        return SDPSolution(status=SOLVER_ERROR, **run)
    objective = None if system.objective is None else float(system.objective @ res.y)
    return certify(system, SDPSolution(status=FEASIBLE, values=system.unpack(res.y),
                                       objective_value=objective, y=res.y, **run))


# The CLI decides through this name because perfbench/tracing.py times the
# sdp layer by wrapping it.
solve_certified = solve
