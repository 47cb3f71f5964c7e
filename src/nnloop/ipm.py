"""Homogeneous self-dual interior-point method for linear matrix inequalities.

Solves the pair

    primal:  minimize   c' y
             subject to S_p(y) = (G0_p - delta I + sum_i y_i G_{p,i}) / s_p  >=  tol I

    dual:    maximize   -sum_p <(G0_p - delta I) / s_p - tol I, Z_p>
             subject to sum_p <G_{p,i}, Z_p> / s_p = c_i,   Z_p >= 0

(">=" in the PSD order) through their homogeneous self-dual embedding (Ye,
Todd and Mizuno 1994), in the layout of CVXOPT's ``conelp`` (Vandenberghe
2010).  Each :class:`nnloop.lmi.LMIBlock` (``G0`` (k, k), ``coeffs``
(m, k, k), ``delta``) is read as ``lmi`` builds it and split into its
irreducible diagonal pieces p, each divided by s_p, the largest |entry| of
its G0 - delta I and coefficients if above one, so how a caller groups
pieces into blocks does not change a run.  One run from the infeasible start
y = 0, S = Z = I, tau = kappa = 1 ends in either

* an optimum: y/tau is primal feasible, Z/tau dual feasible and the gap is
  small, or
* an infeasibility ray: tau -> 0 while <G0, Z> < 0 and sum_p <G_{p,i}, Z_p>
  -> 0, so the trace-normalized Z is a Farkas certificate that no y makes
  every block positive definite.  The run stops on it as soon as, for the
  trace-normalized Z, every |sum_p <G_{p,i}, Z_p>| / (1 + max|G_{.,i}|) is
  within tol.  It returns each Z_p / s_p, in raw units, at unit trace, and
  the caller re-checks it on its own data (:func:`nnloop.sdp.check_farkas`).

Each iteration assembles the Schur matrix H_ij = sum_b <Ghat_{b,i}, Ghat_{b,j}>
of the coefficients scaled as Ghat = R^-1 G R^-T, factors it once as L L',
solves the Mehrotra predictor and corrector as L^-T (L^-1 v) (the tau column
costs one extra solve) and updates the Nesterov-Todd scaling R' Z R = R^-1 S R^-T =
diag(lambda) from a symmetric eigenproblem, as in SDPT3 (Toh, Todd, Tutuncu 1999).

As in SDPT3, each block is split at entry into its irreducible diagonal
pieces (a diagonal block such as Lambda_nn into order-1 pieces; the barrier
and central path are the same), found in one pass over all blocks, and small
pieces are packed into slots of the largest order (:func:`_group`).  As in
conelp, all cone entries form one flat vector: the slots of each order
stacked (g, k, k) and raveled, then the order-1 slots as one nonnegative
orthant, scaled elementwise (R is r with r^2 = sqrt(s/z), so Ghat = G / r^2).
With the coefficients one matrix F, the residuals, the Schur matrix and both
Newton directions are one numpy call per iteration; S and Z, the congruences
with R^-1, the step-length eigenvalues, the corrector's right-hand side and
the NT update are one call per stack, on views bound once per run into work
arrays allocated once (:meth:`_Cone.bind`); the predictor's ds is
-diag(lambda) - dz, so its step length takes the eigenvalues of dz alone.  A
ray is unstacked into the caller's blocks, zero off their pieces.

The shift tol I is an interior target: a primal point that meets the shifted
blocks up to the stopping tolerances still satisfies the blocks as given, so
the returned y passes an independent eigenvalue check without a re-solve.
A run ends in one of six ways, its ``reason``:

* "optimal": an iterate meets the tolerances and its blocks, as given, are
  finite and pass a Cholesky factorization (for c = 0 any such iterate is
  optimal; only such iterates are factored while the run goes on);
* "ray" (status "infeasible"): the ray test above passes;
* "short_step" (status "stalled"): a step is shorter than ``_STALL``;
* "factorization" (status "stalled"): a factorization or eigenvalue problem
  fails on finite data; "overflow": on inf or nan data;
* "max_iter": ``MAX_ITER`` iterations pass.

A stalled or max_iter run returns the iterate of lowest objective (the later
on ties, nan last) whose blocks pass Cholesky, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnattainableTolerance

_STEP = 0.99      # fraction of the step to the cone boundary
_EXPON = 3        # Mehrotra centering exponent: sigma = (1 - alpha_aff)^3
_STALL = 1e-8     # a step shorter than this makes no progress
# Below this the interior shift tol lies under the residuals that iterates in
# double precision reach (about 1e-11 on the pendulum problems), so no iterate
# can pass both the tolerances and the Cholesky test.
MIN_TOL = 1e-12
MAX_ITER = 200    # iterations before a run ends as "max_iter"
# Pieces are packed into shared orders only when the largest piece has order
# at most this.  Packing trades per-stack numpy dispatch for dense k^3 work in
# the bins: with one BLAS thread it made the pendulum solves (largest order
# 13) 0-30% faster, and the local solves of the 20- and 40-neuron duplicates
# (orders 23 and 43) 18-130% slower, than their unpacked pieces.
_PACK_MAX = 16
# Coefficient rows per gather at entry and per congruence R^-1 G R^-T: all
# rows at once make a temporary the size of the coefficients.  With one BLAS
# thread, the congruence in one matmul per stack raised the peak memory of the
# 80- and 160-neuron local solves by 5 and 33 MB, and 8 to 64 rows ran as fast.
_ROWS = 16


@dataclass
class IPMResult:
    status: str              # "optimal" | "infeasible" | "stalled" | "max_iter"
    y: np.ndarray | None     # best iterate whose blocks pass Cholesky, if any
    Z: list = field(default_factory=list)  # unit-trace ray in raw units, one per block
    objective: float = np.nan
    rel_gap: float = np.nan
    pres: float = np.nan
    dres: float = np.nan
    iterations: int = 0
    reason: str = "optimal"  # why the run ended; see the module docstring


class _Group:
    """The slots of one order k, stacked (g, k, k), or the orthant of the
    slots of order 1, (g,), at entries ``at`` of the flat cone vector.
    ``src`` maps each entry to its flat index in the caller's blocks laid end
    to end (-1: a zero between pieces)."""

    def __init__(self, src, at):
        self.src, self.shape, self.orthant = src, src.shape, src.ndim == 1
        self.at = slice(at, at + src.size)

    def view(self, x):
        """The stack's entries of x (..., N), shaped (..., g, k, k) or (..., g)."""
        return x[..., self.at].reshape(x.shape[:-1] + self.shape)


class _Cone(list):
    """The stacks of :func:`_group`, laid end to end in one flat vector of
    length N.  G0 and rows :m of F (m + 2, N) hold G0 - delta I and the
    coefficients over each entry's piece scale s_p, ``scale``, so F[:m] @ X =
    (sum_p <G_{p,i}, X_p> / s_p)_i; the solver keeps G0 - tol I in row m and
    rz in row m + 1, for one congruence to scale all three.  ``eye`` is the
    flat identity, ``diag`` its nonzero entries, T[e] the transpose of e and
    ``src`` the stacks' src end to end."""

    def bind(self):
        """Allocate a run's work arrays and bind each stack's views: Ghat, (S, Z),
        lambda, both directions' (ds, dz), the corrector's symmetric term, and
        QA, the step length's Q and the NT point (read after a failed step)."""
        N = len(self.src)
        self.Gh, self.SZ, self.dsz, self.QA = (np.empty_like(self.F), np.empty((2, N)),
                                               np.empty((2, 2, N)), np.zeros((2, 2, N)))
        self.lam, self.sym, (self.Q, self.ahead) = np.ones(N), np.empty(N), self.QA
        for grp in self:
            grp.F, grp.Gh, grp.eye, grp.SZ, grp.lam, grp.aff, grp.sym, grp.ahead = map(
                grp.view, (self.F, self.Gh, self.eye, self.SZ, self.lam, self.dsz[0],
                           self.sym, self.ahead))
        self.Qs, self.Q1s = ([grp.view(Q) for grp in self] for Q in (self.Q, self.Q[1]))


def _group(blocks, m):
    """The caller's blocks split into pieces, packed into slots and grouped by
    slot order.  Entry e of the blocks laid end to end is (row[e], col[e]) of
    their block-diagonal whole, whose nonzero pattern (of G0 - delta I and
    every coefficient) one label propagation splits into connected components,
    the pieces, listed from one grouping of the labels.  Pieces are taken by
    decreasing order, in caller order and by smallest index among equal ones,
    and placed first-fit into bins of the largest order k when k <= _PACK_MAX;
    a bin is kept as a slot only when its pieces fill it exactly, and every
    other piece is a slot of its own.  G0 and F are gathered through each cone
    entry's flat index, F from one concatenation of the blocks per _ROWS rows."""
    orders = [blk.order for blk in blocks]
    sizes = [k * k for k in orders]
    start, first = np.cumsum([0] + sizes), np.cumsum([0] + orders)
    local = np.arange(first[-1]) - np.repeat(first[:-1], orders)
    rowstart = np.repeat(start[:-1], orders) + np.repeat(orders, orders) * local
    row = np.repeat(np.arange(first[-1]), np.repeat(orders, orders))
    col = row - local[row] + np.arange(start[-1]) - rowstart[row]
    eye = row == col
    G0 = np.concatenate([blk.G0.ravel() for blk in blocks] + [[0.0]])  # [-1]: off the pieces
    G0[:-1] -= np.repeat([blk.delta for blk in blocks], sizes) * eye
    size = np.maximum(np.abs(G0[:-1]), np.concatenate(  # no |coeffs| temporary
        [np.maximum(blk.coeffs.max(axis=0, initial=0.0),
                    -blk.coeffs.min(axis=0, initial=0.0)).ravel() for blk in blocks]))
    edge = np.flatnonzero(size + size[rowstart[col] + local[row]] + eye)  # and i ~ i
    row, col = row[edge], col[edge]
    heads = np.flatnonzero(np.diff(row, prepend=-1))  # each index's first edge
    # Float labels, and no sort or ufunc.at: nothing else in a verify run uses
    # them, and paging in their loops added 0.1-0.2 MB to the peak RSS.
    label = np.arange(first[-1], dtype=float)
    while True:  # each pass takes the least label among the neighbours
        new = np.minimum.reduceat(label[col], heads)
        if np.array_equal(new, label):
            break
        label = new
    members = {}  # by smallest index: a root is labelled with its own index
    for index, root in enumerate(label.tolist()):
        members.setdefault(root, []).append(index)
    pieces = sorted(members.values(), key=len, reverse=True)  # stable
    k = len(pieces[0])
    bins = []  # [room left, pieces...]; above _PACK_MAX a bin holds one piece
    for piece in pieces:
        fit = next((bn for bn in bins if len(piece) <= bn[0]), None)
        if fit is None:
            fit = [k if k <= _PACK_MAX else len(piece)]
            bins.append(fit)
        fit[0] -= len(piece)
        fit.append(piece)
    # Each index's piece p, and s_p: the largest row maximum of p if above one.
    lens = [len(piece) for piece in pieces]
    at, pid = np.concatenate(pieces), np.empty(first[-1], dtype=int)
    pid[at] = np.repeat(np.arange(len(pieces)), lens)
    top = np.maximum.reduceat(np.maximum.reduceat(size, rowstart)[at], np.cumsum([0] + lens[:-1]))
    scale = np.append(np.where(top > 1.0, top, 1.0), 1.0)  # [-1]: off the pieces
    slots = [[i for piece in slot for i in piece] for room, *bn in bins
             for slot in ([bn] if room == 0 else [[piece] for piece in bn])]
    orders = [len(slot) for slot in slots]
    groups, flat = [], []  # flat: per stack, src, piece, identity and transpose
    for order in dict.fromkeys(orders):
        idx = np.array([slot for slot, n in zip(slots, orders) if n == order])
        p, at = pid[idx][:, :, None], groups[-1].at.stop if groups else 0
        on = p == p.swapaxes(1, 2)
        flat.append([np.where(on, rowstart[idx][:, :, None] + local[idx][:, None, :], -1),
                     np.where(on, p, -1), np.broadcast_to(np.eye(order), on.shape),
                     at + np.arange(on.size).reshape(on.shape).swapaxes(1, 2)])
        groups.append(_Group(flat[-1][0] if order > 1 else flat[-1][0].ravel(), at))
    cone = _Cone(groups)
    cone.src, piece, cone.eye, cone.T = (np.concatenate([x.ravel() for x in xs])
                                         for xs in zip(*flat))
    cone.scale, N = scale[piece], len(piece)
    cone.G0, cone.F = G0[cone.src] / cone.scale, np.zeros((m + 2, N))
    rows = np.zeros((min(m, _ROWS), start[-1] + 1))  # the last column stays 0
    for i in range(0, m, _ROWS):
        F = cone.F[i:min(i + _ROWS, m)]
        np.concatenate([blk.coeffs.reshape(m, -1)[i:i + _ROWS] for blk in blocks],
                       axis=1, out=rows[:len(F), :-1])
        np.take(rows[:len(F)], cone.src, axis=1, out=F, mode="wrap")  # -1: the 0 column
        F /= cone.scale
    cone.diag = np.flatnonzero(cone.eye)
    return cone


def _unstack(blocks, cone, x):
    """One matrix per caller block from the flat cone vector x, in the
    caller's block order, with exact zeros outside the block's pieces."""
    sizes = [blk.order ** 2 for blk in blocks]
    flat = np.zeros(sum(sizes) + 1)  # the last entry takes what is off the pieces
    flat[cone.src] = x
    return [part.reshape(blk.order, blk.order)
            for part, blk in zip(np.split(flat, np.cumsum(sizes)), blocks)]


def _positive_definite(cone, y) -> bool:
    """Whether y and S(y) are finite and every stack of S(y), the orthant as
    matrices of order 1, passes a Cholesky factorization."""
    S = cone.G0 + y.dot(cone.F[:len(y)])
    try:
        for grp in cone:
            np.linalg.cholesky(grp.view(S)[..., None, None] if grp.orthant else grp.view(S))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(S).all() and np.isfinite(y).all())  # Cholesky passes inf, nan


def _step_length(cone, Q, pairs, affine=False):
    """Largest a keeping diag(lam) + a (ds, dz) PSD, up to -1 / min eig of
    Q = (ds, dz) / sqrt(lam lam'), each stack's view, and x + a dx >= 0 for
    each (x, dx) of pairs.  An affine step has ds = -diag(lam) - dz, so its Q
    is the dz half alone, and -1 - max eig(Q) is the ds half's least one."""
    w = np.inf
    for grp, q in zip(cone, Q):
        e = q[..., None] if grp.orthant else np.linalg.eigvalsh(q)
        w = min(w, e[..., 0].min(), -1.0 - e[..., -1].max() if affine else np.inf)
    return min([np.inf if w >= 0.0 else -1.0 / w]
               + [-x / dx for x, dx in pairs if dx < 0.0])


def _newton_step(cone, c, W, tau, kappa, rx, rt, mu):
    """Mehrotra predictor-corrector step from the NT-scaled point (W holds each
    stack's R and R^-T, cone.lam each entry's column's lambda): the new W, with
    cone.lam updated, and dy, dtau, dkappa, alpha, or None if it is too short."""
    # Scale the rows of F into Gh as Ghat = R^-1 G R^-T; their Gram matrix
    # holds the Schur matrix H, g = Ghat G0h and <G0h, G0h>.
    m, lam, Gh, (aff, cor) = len(c), cone.lam, cone.Gh[:len(c) + 1], cone.dsz
    for grp, Wg in zip(cone, W):
        X, out, Rit = grp.F, grp.Gh, Wg[1]  # Rit = R^-T
        if grp.orthant:
            np.multiply(X * Rit, Rit, out=out)
            continue
        for i in range(0, m + 2, _ROWS):
            np.matmul(Rit.swapaxes(1, 2) @ X[i:i + _ROWS], Rit, out=out[i:i + _ROWS])
    gram = Gh @ Gh.T
    if not np.isfinite(gram[:m, :m]).all():  # Cholesky passes NaN through
        raise ValueError("Schur matrix is not finite")
    Li = np.linalg.inv(np.linalg.cholesky(gram[:m, :m]))  # H^-1 v = Li'(Li v)
    cg, rzh, LiT = c - gram[:m, m], cone.Gh[m + 1], Li.T
    q = LiT.dot(Li.dot(c + gram[:m, m]))
    denom = float(cg.dot(q)) + float(gram[m, m]) + kappa / tau
    dyt = np.empty(m + 1)  # [dy, dtau] of each direction

    def direction(eta, rc, rtk, dsz):
        """Newton direction for residual reduction eta and scaled
        complementarity right-hand sides rc and rtk, with ds, dz into dsz."""
        t = rc + eta * rzh
        ft = Gh.dot(t)
        h = -eta * rt - rtk / tau - float(ft[m])
        p = LiT.dot(Li.dot(ft[:m] + eta * rx))
        dtau = (float(cg.dot(p)) - h) / denom
        dy = p - q * dtau
        dyt[:m], dyt[m] = dy, dtau
        ds, dz = dsz
        np.subtract(t, dyt.dot(Gh), out=dz)
        np.multiply(np.add(dz, dz[cone.T], out=dz), 0.5, out=dz)
        np.subtract(rc, dz, out=ds)
        return dy, dtau, (rtk - kappa * dtau) / tau

    lam_row = lam[cone.T]
    scale = np.sqrt(lam_row * lam)

    # Predictor (affine scaling), then the Mehrotra combined step, whose
    # right-hand side 2 (sigma mu I - D^2 - sym(dsa dza)) / (lam_i + lam_j) is
    # (sigma mu - lam^2 - dsa dza) / lam in the orthant.
    diag = cone.eye * lam
    _, dtau_a, dkappa_a = direction(1.0, -diag, -tau * kappa, aff)
    np.divide(aff[1], scale, out=cone.Q[1])
    alpha_aff = _step_length(cone, cone.Q1s, ((tau, dtau_a), (kappa, dkappa_a)),
                             affine=True)
    sigma = (1.0 - min(1.0, alpha_aff)) ** _EXPON
    for grp in cone:
        dsa, dza = grp.aff
        if grp.orthant:
            np.multiply(dsa, dza, out=grp.sym)
        else:
            np.multiply(np.add(dsa @ dza, dza @ dsa, out=grp.sym), 0.5, out=grp.sym)
    rc = 2.0 * (sigma * mu * cone.eye - diag * diag - cone.sym) / (lam_row + lam)
    dy, dtau, dkappa = direction(1.0 - sigma, rc,
                                 sigma * mu - tau * kappa - dtau_a * dkappa_a, cor)
    np.divide(cor, scale, out=cone.Q)
    alpha = min(1.0, _STEP * _step_length(cone, cone.Qs, ((tau, dtau), (kappa, dkappa))))
    if alpha < _STALL:
        return None

    # NT update: with L1 L1' = diag(lam) + alpha ds, L2 L2' = diag(lam) +
    # alpha dz and B = L2' L1 = U diag(lam_new) V', U holds the eigenvectors
    # of B B', lam_new the column norms of B'U and V = B'U / lam_new; the new R
    # and R^-T are R L1 V and R^-T L2 U, columns divided by sqrt(lam_new)
    # (vectors in the orthant).
    np.multiply(cor, alpha, out=cone.ahead)
    cone.ahead += diag
    W_new = []
    for grp, Wg in zip(cone, W):
        if grp.orthant:
            L = np.sqrt(grp.ahead)
            lg, WL = L[0] * L[1], Wg * L
        else:
            L = np.linalg.cholesky(grp.ahead)
            B = L[1].swapaxes(1, 2) @ L[0]
            U = np.linalg.eigh(B @ B.swapaxes(1, 2))[1]
            X = B.swapaxes(1, 2) @ U
            lg = np.sqrt(np.einsum("gij,gij->gj", X, X))[:, None, :]
            WL = Wg @ L @ np.stack((X / lg, U))
        W_new.append(WL / np.sqrt(lg))
        grp.lam[...] = lg
    return W_new, dy, dtau, dkappa, alpha


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, infinite or below MIN_TOL."""
    if not MIN_TOL <= tol < np.inf:  # NaN fails every comparison
        raise UnattainableTolerance(
            f"tol must be finite; tol below {MIN_TOL:g} is not attainable in "
            f"double precision (got {tol:g})")


# An objective too large for double precision (say --gamma 1e300) overflows before
# the run stalls, and tau can underflow to 0 on a ray that fails the ray test.
@np.errstate(over="ignore", divide="ignore")
def solve_conic(blocks, c, *, tol=1e-8) -> IPMResult:
    """Run the self-dual embedding from y = 0, S = Z = I, tau = kappa = 1."""
    check_tol(tol)
    c = np.asarray(c, dtype=float)
    m = len(c)
    cone = _group(blocks, m)
    cone.bind()
    F, lam, rz = cone.F, cone.lam, cone.F[m + 1]
    F[m] = cone.G0 - tol * cone.eye
    # Per-variable scale of the ray's relative equality residual.
    col_scale = 1.0 + np.maximum(F[:m].max(axis=1), -F[:m].min(axis=1))
    nu = sum(blk.order for blk in blocks) + 1
    res_x0 = max(1.0, math.sqrt(c.dot(c)))
    res_z0 = max(1.0, math.sqrt(F[m].dot(F[m])))
    feasibility = not np.any(c)

    y = np.zeros(m)
    tau = kappa = 1.0
    W = [np.stack([grp.eye] * 2) for grp in cone]  # R and R^-T
    kept = []  # iterates short of the tolerances, for Cholesky if no optimum
    status = reason = "max_iter"

    for it in range(MAX_ITER + 1):
        # S = R diag(lam) R' and Z = R^-T diag(lam) R^-1, one product per stack.
        for grp, Wg in zip(cone, W):
            if grp.orthant:
                np.multiply(Wg * grp.lam, Wg, out=grp.SZ)
            else:
                np.matmul(Wg * grp.lam, Wg.swapaxes(2, 3), out=grp.SZ)
        S, Z = cone.SZ
        FZ = F[:m + 1].dot(Z)
        rx = FZ[:m] - c * tau
        np.subtract(S - F[m] * tau, y.dot(F[:m]), out=rz)
        rt = kappa + float(c.dot(y)) + float(FZ[m])
        sz = float(lam[cone.diag].dot(lam[cone.diag]))
        mu = (sz + tau * kappa) / nu

        # sqrt(x'x) is what np.linalg.norm computes for a vector, same bits.
        p_res = math.sqrt(rz.dot(rz)) / res_z0
        d_res = math.sqrt(rx.dot(rx)) / res_x0
        y_hat = y / tau
        obj = float(c.dot(y_hat))
        now = IPMResult("optimal", y_hat, [], obj, sz / tau**2 / max(1.0, abs(obj)),
                        p_res / tau, d_res / tau, it)
        if not (feasibility or max(now.pres, now.dres, now.rel_gap) <= tol):
            kept.append(now)
        elif _positive_definite(cone, y_hat):
            return now
        # A ray is accepted once the equality residual F Z / tr of the
        # trace-normalized Z is down to tol, the accuracy asked of every other
        # residual; the caller's check allows 1e3 tol, slack for its scaling.
        if float(cone.G0.dot(Z)) < 0.0:
            tr = float(cone.eye.dot(Z))
            if (np.abs(FZ[:m]) / (tr * col_scale)).max(initial=0.0) <= tol:
                ray = Z / cone.scale  # unit trace summed flat: the same bits for any blocks
                return IPMResult("infeasible", None,
                                 _unstack(blocks, cone, ray / ray[cone.diag].sum()),
                                 now.objective, now.rel_gap, now.pres, now.dres, it, "ray")
        if it == MAX_ITER:
            break

        try:
            step = _newton_step(cone, c, W, tau, kappa, rx, rt, mu)
        except ValueError as err:  # a LinAlgError, or H not finite
            finite = isinstance(err, np.linalg.LinAlgError) and np.isfinite(cone.QA).all()
            step = "factorization" if finite else "overflow"
        if not isinstance(step, tuple):
            status, reason = "stalled", step or "short_step"
            break
        W, dy, dtau, dkappa, alpha = step
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    kept.sort(key=lambda r: (math.isnan(r.objective), r.objective, -r.iterations))
    best = next((now for now in kept if _positive_definite(cone, now.y)), None)
    if best is None:
        return IPMResult(status, None, [], iterations=it, reason=reason)
    best.status, best.reason, best.iterations = status, reason, it
    return best
