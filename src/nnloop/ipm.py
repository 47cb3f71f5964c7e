"""Homogeneous self-dual interior-point method for linear matrix inequalities.

Solves the pair

    primal:  minimize   c' y
             subject to S_b(y) = G0_b + sum_i y_i G_{b,i}  >=  tol I   for every b

    dual:    maximize   -sum_b <G0_b - tol I, Z_b>
             subject to sum_b <G_{b,i}, Z_b> = c_i,   Z_b >= 0

(">=" in the PSD order) through their homogeneous self-dual embedding (Ye,
Todd and Mizuno 1994), in the layout of CVXOPT's ``conelp`` (Vandenberghe
2010).  One run from the infeasible start y = 0, S = Z = I, tau = kappa = 1
ends in either

* an optimum: y/tau is primal feasible, Z/tau dual feasible and the gap is
  small, or
* an infeasibility ray: tau -> 0 while <G0, Z> < 0 and sum_b <G_{b,i}, Z_b>
  -> 0, so the trace-normalized Z is a Farkas certificate that no y makes
  every block positive definite.  The run stops on it as soon as
  :func:`_check_farkas` accepts it on the blocks as given.

Each iteration computes the Nesterov-Todd scaling R_b with
R' Z R = R^-1 S R^-T = diag(lambda), assembles the Schur matrix
H_ij = sum_b <Ghat_{b,i}, Ghat_{b,j}> of the scaled coefficients
Ghat = R^-1 G R^-T, factors it once, and solves the Mehrotra predictor and
corrector with that factor (the tau column costs one extra back-solve).

The shift tol I is an interior target: a primal point that meets the shifted
blocks up to the stopping tolerances still satisfies the blocks as given, so
the returned y passes an independent eigenvalue check without a re-solve.
The run stops at the first iterate that meets the tolerances and whose blocks,
as given, pass a Cholesky factorization (for c = 0 any such iterate is
optimal).  When the iterates stall short of the tolerances, the lowest-
objective iterate that passed is returned instead of running on into a
numerical breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .errors import UnattainableTolerance

_STEP = 0.99      # fraction of the step to the cone boundary
_EXPON = 3        # Mehrotra centering exponent: sigma = (1 - alpha_aff)^3
_STALL = 1e-8     # a step shorter than this makes no progress
# Below this the interior shift tol lies under the residuals that iterates in
# double precision reach (about 1e-11 on the pendulum problems), so no iterate
# can pass both the tolerances and the Cholesky test.
MIN_TOL = 1e-12


@dataclass(frozen=True)
class ConeBlock:
    """One affine-PSD constraint G0 + sum_i y_i coeffs[i] >= 0."""

    name: str
    G0: np.ndarray           # (k, k)
    coeffs: np.ndarray       # (m, k, k)

    @property
    def order(self) -> int:
        return self.G0.shape[0]


@dataclass
class IPMResult:
    status: str              # "optimal" | "infeasible" | "stalled" | "max_iter"
    y: np.ndarray | None     # best iterate whose blocks pass Cholesky, if any
    Z: list = field(default_factory=list)  # trace-normalized infeasibility ray
    objective: float = np.nan
    rel_gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0


def _check_farkas(raw_blocks, X, tol):
    m = raw_blocks[0].coeffs.shape[0] if raw_blocks else 0
    resid = np.zeros(m)
    viol = 0.0
    for blk, Xb in zip(raw_blocks, X):
        resid += blk.coeffs.reshape(m, -1) @ Xb.ravel()
        viol += float(np.vdot(blk.G0, Xb))
    col_scale = np.array([
        1.0 + max(float(np.max(np.abs(blk.coeffs[i]))) for blk in raw_blocks)
        for i in range(m)
    ])
    res_rel = float(np.max(np.abs(resid) / col_scale)) if m else 0.0
    g0_scale = 1.0 + max(float(np.max(np.abs(blk.G0))) for blk in raw_blocks)
    eq_tol = max(1e3 * tol, 1e-6)
    if res_rel <= eq_tol and viol <= eq_tol * g0_scale:
        return {"X": X, "equality_residual": res_rel, "violation": viol}
    return None


def _positive_definite(blocks, y) -> bool:
    for blk in blocks:
        try:
            np.linalg.cholesky(blk.G0 + np.tensordot(y, blk.coeffs, axes=1))
        except np.linalg.LinAlgError:
            return False
    return True


def _max_step(lam: np.ndarray, D: np.ndarray) -> float:
    """Largest a with diag(lam) + a D PSD."""
    r = 1.0 / np.sqrt(lam)
    w = np.linalg.eigvalsh(D * np.outer(r, r))[0]
    return np.inf if w >= 0.0 else -1.0 / w


def solve_conic(blocks, c, *, tol=1e-8, max_iter=200) -> IPMResult:
    """Run the self-dual embedding from y = 0, S = Z = I, tau = kappa = 1."""
    if tol < MIN_TOL:
        raise UnattainableTolerance(
            f"tol below {MIN_TOL:g} is not attainable in double precision "
            f"(got {tol:g})")
    c = np.asarray(c, dtype=float)
    m = c.shape[0]
    G0 = [blk.G0 - tol * np.eye(blk.order) for blk in blocks]
    flats = [blk.coeffs.reshape(m, -1) for blk in blocks]
    nu = sum(blk.order for blk in blocks) + 1
    res_x0 = max(1.0, float(np.linalg.norm(c)))
    res_z0 = max(1.0, float(np.sqrt(sum(np.sum(G * G) for G in G0))))
    feasibility = not np.any(c)

    y = np.zeros(m)
    tau = kappa = 1.0
    R = [np.eye(blk.order) for blk in blocks]
    Rinv = [np.eye(blk.order) for blk in blocks]
    lam = [np.ones(blk.order) for blk in blocks]
    best = None      # IPMResult of the lowest-objective iterate passing Cholesky
    least_res = np.inf
    status = "max_iter"

    for it in range(max_iter + 1):
        S = [(Rb * lb) @ Rb.T for Rb, lb in zip(R, lam)]
        Z = [(Ri.T * lb) @ Ri for Ri, lb in zip(Rinv, lam)]
        rx = sum(fl @ Zb.ravel() for fl, Zb in zip(flats, Z)) - c * tau
        rz = [Sb - Gb * tau - np.tensordot(y, blk.coeffs, axes=1)
              for Sb, Gb, blk in zip(S, G0, blocks)]
        g0z = sum(float(np.vdot(Gb, Zb)) for Gb, Zb in zip(G0, Z))
        rt = kappa + float(c @ y) + g0z
        sz = sum(float(lb @ lb) for lb in lam)
        mu = (sz + tau * kappa) / nu

        p_res = float(np.sqrt(sum(np.sum(r * r) for r in rz))) / res_z0
        d_res = float(np.linalg.norm(rx)) / res_x0
        y_hat = y / tau
        obj = float(c @ y_hat)
        now = IPMResult("optimal", y_hat, [], obj, sz / tau**2 / max(1.0, abs(obj)),
                        p_res / tau, d_res / tau, it)
        if _positive_definite(blocks, y_hat):
            if feasibility or max(now.pres, now.dres, now.rel_gap) <= tol:
                return now
            if best is None or now.objective <= best.objective:
                best = now
        # A ray is accepted once its equality residual is down to tol, the
        # accuracy asked of every other residual; the 1e3 slack of the check
        # is left for the caller undoing its per-block scaling.
        if sum(float(np.vdot(blk.G0, Zb)) for blk, Zb in zip(blocks, Z)) < 0.0:
            tr = sum(float(np.trace(Zb)) for Zb in Z)
            ray = [Zb / tr for Zb in Z]
            cert = _check_farkas(blocks, ray, tol)
            if cert is not None and cert["equality_residual"] <= tol:
                return IPMResult("infeasible", None, ray, now.objective,
                                 now.rel_gap, now.pres, now.dres, it)
        # Homogeneous residuals shrink by 1 - alpha * eta every step in exact
        # arithmetic; a tenfold rise means rounding has taken over.
        least_res = min(least_res, max(p_res, d_res))
        if max(p_res, d_res) > 10.0 * least_res:
            status = "stalled"
            break
        if it == max_iter:
            break

        # Schur matrix of the NT-scaled coefficients, factored once.
        Gh = [np.matmul(np.matmul(Ri[None], blk.coeffs), Ri.T[None]).reshape(m, -1)
              for Ri, blk in zip(Rinv, blocks)]
        G0h = [(Ri @ Gb @ Ri.T).ravel() for Ri, Gb in zip(Rinv, G0)]
        rzh = [(Ri @ r @ Ri.T).ravel() for Ri, r in zip(Rinv, rz)]
        H = sum(G @ G.T for G in Gh)
        g = sum(G @ G0b for G, G0b in zip(Gh, G0h))
        g00 = sum(float(G0b @ G0b) for G0b in G0h)
        try:
            fac = cho_factor(H, lower=True)
        except LinAlgError:
            status = "stalled"
            break
        q = cho_solve(fac, c + g)
        denom = float((c - g) @ q) + g00 + kappa / tau

        def direction(eta, rc, rtk):
            """Newton direction for residual reduction eta and scaled
            complementarity right-hand sides rc (blocks) and rtk (tau kappa)."""
            t = [rcb.ravel() + eta * r for rcb, r in zip(rc, rzh)]
            f = sum(G @ tb for G, tb in zip(Gh, t)) + eta * rx
            h = -eta * rt - rtk / tau - sum(float(G0b @ tb) for G0b, tb in zip(G0h, t))
            p = cho_solve(fac, f)
            dtau = (float((c - g) @ p) - h) / denom
            dy = p - q * dtau
            dz = [(tb - G0b * dtau - dy @ G).reshape(lb.size, lb.size)
                  for tb, G0b, G, lb in zip(t, G0h, Gh, lam)]
            dz = [0.5 * (D + D.T) for D in dz]
            ds = [rcb - D for rcb, D in zip(rc, dz)]
            dkappa = (rtk - kappa * dtau) / tau
            return dy, ds, dz, dtau, dkappa

        def step_length(d):
            _, ds, dz, dtau, dkappa = d
            a = np.inf
            for lb, dsb, dzb in zip(lam, ds, dz):
                a = min(a, _max_step(lb, dsb), _max_step(lb, dzb))
            if dtau < 0.0:
                a = min(a, -tau / dtau)
            if dkappa < 0.0:
                a = min(a, -kappa / dkappa)
            return a

        # Predictor (affine scaling), then the Mehrotra combined step.
        aff = direction(1.0, [-np.diag(lb) for lb in lam], -tau * kappa)
        sigma = (1.0 - min(1.0, step_length(aff))) ** _EXPON
        rc = []
        for lb, dsa, dza in zip(lam, aff[1], aff[2]):
            M = -np.diag(lb * lb) + sigma * mu * np.eye(lb.size) \
                - 0.5 * (dsa @ dza + dza @ dsa)
            rc.append(2.0 * M / np.add.outer(lb, lb))
        d = direction(1.0 - sigma, rc,
                      sigma * mu - tau * kappa - aff[3] * aff[4])
        alpha = min(1.0, _STEP * step_length(d))
        if alpha < _STALL:
            status = "stalled"
            break

        dy, ds, dz, dtau, dkappa = d
        try:
            new = []
            for Rb, Ri, lb, dsb, dzb in zip(R, Rinv, lam, ds, dz):
                L1 = np.linalg.cholesky(np.diag(lb) + alpha * dsb)
                L2 = np.linalg.cholesky(np.diag(lb) + alpha * dzb)
                _, lnew, Vt = np.linalg.svd(L2.T @ L1)
                root = np.sqrt(lnew)
                new.append(((Rb @ L1 @ Vt.T) / root,
                            (Vt @ solve_triangular(L1, Ri, lower=True))
                            * root[:, None], lnew))
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        R, Rinv, lam = (list(v) for v in zip(*new))
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    if best is None:
        return IPMResult(status, None, [], iterations=it)
    best.status, best.iterations = status, it
    return best
