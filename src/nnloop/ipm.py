"""Homogeneous self-dual interior-point method for linear matrix inequalities.

Solves the pair

    primal:  minimize   c' y
             subject to S_b(y) = G0_b + sum_i y_i G_{b,i}  >=  tol I   for every b

    dual:    maximize   -sum_b <G0_b - tol I, Z_b>
             subject to sum_b <G_{b,i}, Z_b> = c_i,   Z_b >= 0

(">=" in the PSD order) through their homogeneous self-dual embedding (Ye,
Todd and Mizuno 1994), in the layout of CVXOPT's ``conelp`` (Vandenberghe
2010).  Block b is read only from the ``G0`` (k, k), ``coeffs`` (m, k, k)
and ``order`` of a :class:`nnloop.lmi.LMIBlock`; its margin ``delta`` is
not read, so callers move it into G0.  One run from the infeasible start
y = 0, S = Z = I, tau = kappa = 1 ends in either

* an optimum: y/tau is primal feasible, Z/tau dual feasible and the gap is
  small, or
* an infeasibility ray: tau -> 0 while <G0, Z> < 0 and sum_b <G_{b,i}, Z_b>
  -> 0, so the trace-normalized Z is a Farkas certificate that no y makes
  every block positive definite.  The run stops on it as soon as, for the
  trace-normalized Z, every |sum_b <G_{b,i}, Z_b>| / (1 + max|G_{.,i}|) is
  within tol.  The caller re-checks the ray on its own data
  (:func:`nnloop.sdp.check_farkas`).

Each iteration computes the Nesterov-Todd scaling R_b with
R' Z R = R^-1 S R^-T = diag(lambda), assembles the Schur matrix
H_ij = sum_b <Ghat_{b,i}, Ghat_{b,j}> of the scaled coefficients
Ghat = R^-1 G R^-T, factors it once, and solves the Mehrotra predictor and
corrector with that factor (the tau column costs one extra back-solve).  As
in SDPT3 and ``conelp``, the blocks are grouped by order at entry: R, R^-1,
lambda, S, Z, the residuals and Ghat are stacked (g, k, k) or (g, m, k, k)
arrays, so each of these steps makes one numpy call per order, not per block.

The shift tol I is an interior target: a primal point that meets the shifted
blocks up to the stopping tolerances still satisfies the blocks as given, so
the returned y passes an independent eigenvalue check without a re-solve.
The run stops at the first iterate that meets the tolerances and whose blocks,
as given, pass a Cholesky factorization (for c = 0 any such iterate is
optimal).  When the iterates stall short of the tolerances, or a
factorization fails or overflows, the lowest-objective iterate that passed
is returned instead of running on into a numerical breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import UnattainableTolerance

_STEP = 0.99      # fraction of the step to the cone boundary
_EXPON = 3        # Mehrotra centering exponent: sigma = (1 - alpha_aff)^3
_STALL = 1e-8     # a step shorter than this makes no progress
# Below this the interior shift tol lies under the residuals that iterates in
# double precision reach (about 1e-11 on the pendulum problems), so no iterate
# can pass both the tolerances and the Cholesky test.
MIN_TOL = 1e-12
MAX_ITER = 200    # iterations before a run ends as "max_iter"


@dataclass
class IPMResult:
    status: str              # "optimal" | "infeasible" | "stalled" | "max_iter"
    y: np.ndarray | None     # best iterate whose blocks pass Cholesky, if any
    Z: list = field(default_factory=list)  # trace-normalized ray, one per block
    objective: float = np.nan
    rel_gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0


class _Group:
    """The caller's blocks of one order k, stacked: G0 (g, k, k), coefficients
    C (g, m, k, k) and their flattening F (m, g k k) with F @ X.ravel() =
    (sum_b <C_{b,i}, X_b>)_i for a stack X."""

    def __init__(self, blocks, pos):
        self.pos = pos
        self.G0 = np.stack([blocks[i].G0 for i in pos])
        self.C = np.stack([blocks[i].coeffs for i in pos])
        self.F = self.C.transpose(1, 0, 2, 3).reshape(self.C.shape[1], -1)


def _group(blocks):
    """Blocks grouped by order, in order of first appearance."""
    return [_Group(blocks, [i for i, blk in enumerate(blocks) if blk.order == k])
            for k in dict.fromkeys(blk.order for blk in blocks)]


def _unstack(groups, Xs):
    """One matrix per block of the stacks Xs, in the caller's block order."""
    by_pos = {i: Xb for grp, Xg in zip(groups, Xs) for i, Xb in zip(grp.pos, Xg)}
    return [by_pos[i] for i in range(len(by_pos))]


def _positive_definite(groups, y) -> bool:
    try:
        for grp in groups:
            np.linalg.cholesky(grp.G0 + (y @ grp.F).reshape(grp.G0.shape))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(y)))  # Cholesky passes NaN through


def _cholesky(H):
    """Lower Cholesky factor of H by LAPACK ``dpotrf``.  Like
    ``scipy.linalg.cho_factor`` it raises ValueError for a non-finite H and
    LinAlgError for one that is not positive definite."""
    if not np.isfinite(H).all():
        raise ValueError("Schur matrix is not finite")
    L, info = dpotrf(H, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"Schur matrix is not positive definite (leading minor {info})")
    return L


def _newton_step(groups, eyes, G0, c, R, Rinv, lam, tau, kappa, rx, rz, rt, mu):
    """Mehrotra predictor-corrector step from the NT-scaled point: the new R,
    Rinv, lam and dy, dtau, dkappa, alpha, or None if the step is too short."""
    # Schur matrix of the NT-scaled coefficients Ghat = R^-1 G R^-T, factored
    # once; each group's Ghat is flattened to (m, g k k) like its F.
    Gh = [np.matmul(np.matmul(Ri[:, None], grp.C), Ri.swapaxes(1, 2)[:, None])
          .transpose(1, 0, 2, 3).reshape(len(c), -1) for Ri, grp in zip(Rinv, groups)]
    G0h = [(Ri @ Gg @ Ri.swapaxes(1, 2)).ravel() for Ri, Gg in zip(Rinv, G0)]
    rzh = [(Ri @ r @ Ri.swapaxes(1, 2)).ravel() for Ri, r in zip(Rinv, rz)]
    H = sum(G @ G.T for G in Gh)
    g = sum(G @ G0g for G, G0g in zip(Gh, G0h))
    g00 = sum(float(G0g @ G0g) for G0g in G0h)
    fac = _cholesky(H)
    q = dpotrs(fac, c + g, lower=1)[0]
    denom = float((c - g) @ q) + g00 + kappa / tau

    def direction(eta, rc, rtk):
        """Newton direction for residual reduction eta and scaled
        complementarity right-hand sides rc (blocks) and rtk (tau kappa)."""
        t = [rcg.ravel() + eta * r for rcg, r in zip(rc, rzh)]
        f = sum(G @ tg for G, tg in zip(Gh, t)) + eta * rx
        h = -eta * rt - rtk / tau - sum(float(G0g @ tg) for G0g, tg in zip(G0h, t))
        p = dpotrs(fac, f, lower=1)[0]
        dtau = (float((c - g) @ p) - h) / denom
        dy = p - q * dtau
        dz = [(tg - G0g * dtau - dy @ G).reshape(rcg.shape)
              for tg, G0g, G, rcg in zip(t, G0h, Gh, rc)]
        dz = [0.5 * (D + D.swapaxes(1, 2)) for D in dz]
        ds = [rcg - D for rcg, D in zip(rc, dz)]
        dkappa = (rtk - kappa * dtau) / tau
        return dy, ds, dz, dtau, dkappa

    # diag(lam) + a D stays PSD up to a = -1 / min eig(D / sqrt(lam lam')).
    scale = [np.sqrt(lg[:, :, None] * lg[:, None, :]) for lg in lam]

    def step_length(d):
        """Largest a keeping diag(lam) + a (ds, dz) PSD and tau, kappa >= 0."""
        _, ds, dz, dtau, dkappa = d
        w = min(np.linalg.eigvalsh(np.concatenate([dsg / sc, dzg / sc]))[:, 0].min()
                for sc, dsg, dzg in zip(scale, ds, dz))
        a = np.inf if w >= 0.0 else -1.0 / w
        if dtau < 0.0:
            a = min(a, -tau / dtau)
        if dkappa < 0.0:
            a = min(a, -kappa / dkappa)
        return a

    # Predictor (affine scaling), then the Mehrotra combined step.
    diag = [eye * lg[:, None, :] for eye, lg in zip(eyes, lam)]
    aff = direction(1.0, [-D for D in diag], -tau * kappa)
    sigma = (1.0 - min(1.0, step_length(aff))) ** _EXPON
    rc = []
    for eye, lg, D, dsa, dza in zip(eyes, lam, diag, aff[1], aff[2]):
        M = sigma * mu * eye - D * D - 0.5 * (dsa @ dza + dza @ dsa)
        rc.append(2.0 * M / (lg[:, :, None] + lg[:, None, :]))
    d = direction(1.0 - sigma, rc, sigma * mu - tau * kappa - aff[3] * aff[4])
    alpha = min(1.0, _STEP * step_length(d))
    if alpha < _STALL:
        return None

    # NT update, as in conelp: with L1 L1' = diag(lam) + alpha ds,
    # L2 L2' = diag(lam) + alpha dz and L2' L1 = U diag(lam_new) V', the new
    # scalings are R L1 V diag(lam_new)^-1/2 and diag(lam_new)^-1/2 U' L2' R^-1,
    # so the new S and Z follow from L1 and L2 alone.
    dy, ds, dz, dtau, dkappa = d
    R_new, Rinv_new, lam_new = [], [], []
    for Rg, Ri, D, dsg, dzg in zip(R, Rinv, diag, ds, dz):
        L = np.linalg.cholesky(np.concatenate([D + alpha * dsg, D + alpha * dzg]))
        L1, L2 = L[:len(D)], L[len(D):]
        U, lg, Vt = np.linalg.svd(L2.swapaxes(1, 2) @ L1)
        root = np.sqrt(lg)
        R_new.append((Rg @ L1 @ Vt.swapaxes(1, 2)) / root[:, None, :])
        Rinv_new.append((U.swapaxes(1, 2) @ L2.swapaxes(1, 2) @ Ri) / root[:, :, None])
        lam_new.append(lg)
    return R_new, Rinv_new, lam_new, dy, dtau, dkappa, alpha


# An objective too large for double precision (say --gamma 1e300) overflows
# norms and products before the run stalls, and tau can underflow to 0 on a
# ray that never passes the ray test; the stall is what is reported.
@np.errstate(over="ignore", divide="ignore")
def solve_conic(blocks, c, *, tol=1e-8) -> IPMResult:
    """Run the self-dual embedding from y = 0, S = Z = I, tau = kappa = 1."""
    if tol < MIN_TOL:
        raise UnattainableTolerance(
            f"tol below {MIN_TOL:g} is not attainable in double precision "
            f"(got {tol:g})")
    c = np.asarray(c, dtype=float)
    groups = _group(blocks)
    shapes = [grp.G0.shape for grp in groups]
    eyes = [np.eye(shape[1]) for shape in shapes]
    G0 = [grp.G0 - tol * eye for grp, eye in zip(groups, eyes)]
    # Per-variable scale of the ray's relative equality residual.
    col_scale = 1.0 + np.max([np.abs(grp.F).max(axis=1) for grp in groups], axis=0)
    nu = sum(blk.order for blk in blocks) + 1
    res_x0 = max(1.0, float(np.linalg.norm(c)))
    res_z0 = max(1.0, float(np.sqrt(sum(np.sum(G * G) for G in G0))))
    feasibility = not np.any(c)

    y = np.zeros(len(c))
    tau = kappa = 1.0
    R = [np.broadcast_to(eye, shape).copy() for eye, shape in zip(eyes, shapes)]
    Rinv = [Rg.copy() for Rg in R]
    lam = [np.ones(shape[:2]) for shape in shapes]
    best = None      # IPMResult of the lowest-objective iterate passing Cholesky
    least_res = np.inf
    status = "max_iter"

    for it in range(MAX_ITER + 1):
        S = [(Rg * lg[:, None, :]) @ Rg.swapaxes(1, 2) for Rg, lg in zip(R, lam)]
        Z = [(Ri.swapaxes(1, 2) * lg[:, None, :]) @ Ri for Ri, lg in zip(Rinv, lam)]
        rx = sum(grp.F @ Zg.ravel() for grp, Zg in zip(groups, Z)) - c * tau
        rz = [Sg - Gg * tau - (y @ grp.F).reshape(Sg.shape)
              for Sg, Gg, grp in zip(S, G0, groups)]
        rt = kappa + float(c @ y) + sum(float(np.vdot(Gg, Zg)) for Gg, Zg in zip(G0, Z))
        sz = sum(float(np.vdot(lg, lg)) for lg in lam)
        mu = (sz + tau * kappa) / nu

        p_res = float(np.sqrt(sum(np.sum(r * r) for r in rz))) / res_z0
        d_res = float(np.linalg.norm(rx)) / res_x0
        y_hat = y / tau
        obj = float(c @ y_hat)
        now = IPMResult("optimal", y_hat, [], obj, sz / tau**2 / max(1.0, abs(obj)),
                        p_res / tau, d_res / tau, it)
        if _positive_definite(groups, y_hat):
            if feasibility or max(now.pres, now.dres, now.rel_gap) <= tol:
                return now
            if best is None or now.objective <= best.objective:
                best = now
        # A ray is accepted once its equality residual is down to tol, the
        # accuracy asked of every other residual; the caller's check allows
        # 1e3 tol, slack left for undoing its per-block scaling.
        if sum(float(np.vdot(grp.G0, Zg)) for grp, Zg in zip(groups, Z)) < 0.0:
            tr = sum(float(np.trace(Zg, axis1=1, axis2=2).sum()) for Zg in Z)
            ray = [Zg / tr for Zg in Z]
            resid = sum(grp.F @ Xg.ravel() for grp, Xg in zip(groups, ray))
            if np.max(np.abs(resid) / col_scale, initial=0.0) <= tol:
                return IPMResult("infeasible", None, _unstack(groups, ray),
                                 now.objective, now.rel_gap, now.pres, now.dres, it)
        # Homogeneous residuals shrink by 1 - alpha * eta every step in exact
        # arithmetic; a tenfold rise means rounding has taken over.  A rise
        # that stays within tol is rounding noise the stopping test accepts.
        least_res = min(least_res, max(p_res, d_res))
        if max(p_res, d_res) > max(10.0 * least_res, tol):
            status = "stalled"
            break
        if it == MAX_ITER:
            break

        # A failed factorization or data overflowed to inf/nan is a stall.
        try:
            step = _newton_step(groups, eyes, G0, c, R, Rinv, lam, tau, kappa,
                                rx, rz, rt, mu)
        except (np.linalg.LinAlgError, ValueError):
            step = None
        if step is None:
            status = "stalled"
            break
        R, Rinv, lam, dy, dtau, dkappa, alpha = step
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    if best is None:
        return IPMResult(status, None, [], iterations=it)
    best.status, best.iterations = status, it
    return best
