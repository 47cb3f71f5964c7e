"""Assembly of the selector matrices and the stability LMI systems.

The loop analysis rewrites the network interconnection through constant
selector matrices: with the stacked incremental variables
``z = [xtil - xtil_*; w - w_*]``,

    R_V z  = [xtil - xtil_*; u_nn - u_nn_*]      (input selection),
    R_phi z = [v - v_*; w - w_*]                 (activation channel),

so that one quadratic form in ``z`` combines the Lyapunov difference of the
augmented plant with the incremental sector multiplier of every neuron.

An :class:`LMISystem` is a solver-agnostic bundle: matrix-valued decision
variables (symmetric or diagonal), affine matrix blocks and an optional
linear objective.  Every block is written in one orientation,

    G0 + sum_i theta_i coeffs[i]  >=  delta I      (PSD order),

where theta stacks the scalar components of the variables (see
:meth:`VarSpec.basis`) and delta > 0 is the margin that realizes a strict
inequality numerically.  Each coefficient is built in closed form from the
basis matrices E of the variables:

* stability, the negated theorem matrix: its P part is N'EN - M'EM with
  M = [Atil Btil] R_V and N = R_V[:n_xtil]; the part of Lambda_i is
  2 a_i b_i p_i p_i' - (a_i + b_i)(p_i q_i' + q_i p_i') + 2 q_i q_i' for
  the sector [a_i, b_i] and the rows p_i = R_phi[i], q_i = R_phi[n + i];
* P_pd, Q_pd and Lambda_nn: the basis of P, Q or Lambda itself;
* roa_row_j: blkdiag(P, Q) - a_j a_j' >= 0 with a_j = row_j / d_j, the
  ellipsoid-in-slab condition that {z : z' blkdiag(P, Q) z <= 1} lies in
  |row_j z| <= d_j (the Schur complement of the bordered form
  [[1, a_j'], [a_j, blkdiag(P, Q)]] >= 0, whose corner 1 is positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveD, NonPositiveGamma
from .network import FeedForwardNN
from .plant import AugmentedPlant, SteadyStateMap, _Value, _frozen
from .sectors import SectorBounds, half_widths

# Strictness margin: strict blocks hold G0 + sum_i theta_i coeffs[i]
# >= delta I with delta = MARGIN_COEFF.
MARGIN_COEFF = 1e-7


@dataclass(frozen=True)
class VarSpec:
    """A matrix decision variable: full symmetric or nonnegative diagonal."""

    name: str
    kind: str   # "sym" | "diag"
    dim: int

    def __post_init__(self):
        if self.kind not in ("sym", "diag"):
            raise ValueError("kind must be 'sym' or 'diag'")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    @property
    def n_scalars(self) -> int:
        if self.kind == "sym":
            return self.dim * (self.dim + 1) // 2
        return self.dim

    def _entries(self) -> tuple:
        """Row and column indices of the scalar components: the upper
        triangle, row by row, or the diagonal."""
        if self.kind == "sym":
            return np.triu_indices(self.dim)
        return np.diag_indices(self.dim)

    def basis(self) -> np.ndarray:
        """(n_scalars, dim, dim) basis matrices of the scalar components:
        E[k] has ones at entry k of :meth:`_entries` and its mirror."""
        i, j = self._entries()
        k = np.arange(self.n_scalars)
        E = np.zeros((self.n_scalars, self.dim, self.dim))
        E[k, i, j] = 1.0
        E[k, j, i] = 1.0
        return E

    def pack(self, mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat, dtype=float)[self._entries()]

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        i, j = self._entries()
        out = np.zeros((self.dim, self.dim))
        out[i, j] = theta
        out[j, i] = theta
        return out


@dataclass(frozen=True, eq=False)
class LMIBlock(_Value):
    """One affine matrix inequality G0 + sum_i theta_i coeffs[i] >= delta I."""

    name: str
    G0: np.ndarray
    coeffs: np.ndarray   # (n_scalars, k, k)
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "G0", _frozen(self.G0))
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.G0.shape[0]


@dataclass(frozen=True, eq=False)
class LMISystem(_Value):
    variables: tuple
    blocks: tuple
    objective: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if self.objective is not None:
            object.__setattr__(self, "objective", _frozen(self.objective))

    @property
    def n_scalars(self) -> int:
        return sum(v.n_scalars for v in self.variables)

    def var_slices(self) -> dict:
        out, start = {}, 0
        for v in self.variables:
            out[v.name] = slice(start, start + v.n_scalars)
            start += v.n_scalars
        return out

    def pack(self, values: dict) -> np.ndarray:
        theta = np.zeros(self.n_scalars)
        for v, sl in zip(self.variables, self.var_slices().values()):
            theta[sl] = v.pack(values[v.name])
        return theta

    def unpack(self, theta: np.ndarray) -> dict:
        return {
            v.name: v.unpack(theta[sl])
            for v, sl in zip(self.variables, self.var_slices().values())
        }

    def block_value(self, block: LMIBlock, theta: np.ndarray) -> np.ndarray:
        """G0 + sum_i theta_i coeffs[i] - delta I: positive semidefinite
        exactly when the block holds at theta, margin included."""
        return (block.G0 - block.delta * np.eye(block.order)
                + np.tensordot(theta, block.coeffs, axes=1))


@dataclass(frozen=True, eq=False)
class Selectors(_Value):
    """Constant selection matrices of the network interconnection."""

    N0_1: np.ndarray
    N1lm1: np.ndarray
    RV: np.ndarray
    Rphi: np.ndarray

    def __post_init__(self):
        for name in ("N0_1", "N1lm1", "RV", "Rphi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def build_selectors(nn: FeedForwardNN, n_xtil: int) -> Selectors:
    """Place the network weights into the constant selector matrices."""
    if n_xtil <= nn.n_x:
        raise DimensionMismatch("n_xtil must exceed the plant state dimension")
    widths = nn.hidden_widths
    n = nn.n_hidden
    n_1 = widths[0]
    W0, _ = nn.layers[0]

    N0_1 = np.zeros((n_1, n_xtil))
    N0_1[:, : nn.n_x] = W0 @ nn.Hx0         # zero columns padded for xi

    N1lm1 = np.zeros((n, n))
    offsets = np.concatenate([[0], np.cumsum(widths)])
    for i in range(1, nn.depth):
        W, _ = nn.layers[i]
        r0, c0 = offsets[i], offsets[i - 1]
        N1lm1[r0: r0 + widths[i], c0: c0 + widths[i - 1]] = W

    RV = np.zeros((n_xtil + nn.n_u, n_xtil + n))
    RV[:n_xtil, :n_xtil] = np.eye(n_xtil)
    RV[n_xtil:, n_xtil + offsets[-2]:] = nn.Wl

    Rphi = np.zeros((2 * n, n_xtil + n))
    Rphi[:n_1, :n_xtil] = N0_1
    Rphi[:n, n_xtil:] = N1lm1
    Rphi[n:, n_xtil:] = np.eye(n)
    return Selectors(N0_1=N0_1, N1lm1=N1lm1, RV=RV, Rphi=Rphi)


def ref_sensitivity(nn: FeedForwardNN, ssmap: SteadyStateMap) -> np.ndarray:
    """S = W0 (Hx0 M + Hr0), n_1 x n_r: sensitivity of the layer-1 stationary
    input to r.

    Vanishes identically for output-error feedback (Hx0 = -C, Hr0 = I) since
    C M = I by the steady-state equations.
    """
    W0, _ = nn.layers[0]
    return _frozen(W0 @ (nn.Hx0 @ ssmap.M + nn.Hr0))


def _coeffs(variables, k: int, **parts) -> np.ndarray:
    """(n_scalars, k, k) coefficients of a block in which each variable v
    enters through parts[v.name], of shape (v.n_scalars, k, k), or not at all."""
    return np.concatenate([parts[v.name] if v.name in parts
                           else np.zeros((v.n_scalars, k, k)) for v in variables])


def _block(name: str, coeffs: np.ndarray, G0=None, strict=False) -> LMIBlock:
    """A block with constant term G0 (zero by default); a strict one, which
    has no G0, gets the margin MARGIN_COEFF."""
    k = coeffs.shape[1]
    G0 = np.zeros((k, k)) if G0 is None else G0
    return LMIBlock(name, G0, coeffs, MARGIN_COEFF if strict else 0.0)


def _congruence(X: np.ndarray, E: np.ndarray) -> np.ndarray:
    """X' E[k] X for every matrix of the stack E."""
    return np.einsum("ai,kab,bj->kij", X, E, X)


def _core_blocks(aug: AugmentedPlant, sel: Selectors, variables,
                 alpha_vec: np.ndarray, beta_vec: np.ndarray) -> list:
    """stability, P_pd, Q_pd (when Q is a variable) and Lambda_nn."""
    basis = {v.name: v.basis() for v in variables}
    n = sel.N1lm1.shape[0]
    M = np.hstack([aug.Atil, aug.Btil]) @ sel.RV
    N = sel.RV[: aug.n_xtil]
    p, q = sel.Rphi[:n], sel.Rphi[n:]
    pq = p[:, :, None] * q[:, None, :]
    # 2 a_i b_i p_i p_i' - (a_i + b_i)(p_i q_i' + q_i p_i') + 2 q_i q_i'
    lam = (2.0 * (alpha_vec * beta_vec)[:, None, None] * p[:, :, None] * p[:, None, :]
           - (alpha_vec + beta_vec)[:, None, None] * (pq + pq.transpose(0, 2, 1))
           + 2.0 * q[:, :, None] * q[:, None, :])
    E = basis["P"]
    blocks = [_block("stability", _coeffs(
        variables, M.shape[1],
        P=_congruence(N, E) - _congruence(M, E), Lambda=lam), strict=True)]
    for name in ("P", "Q"):
        if name in basis:
            blocks.append(_block(f"{name}_pd", _coeffs(
                variables, basis[name].shape[1], **{name: basis[name]}), strict=True))
    blocks.append(_block("Lambda_nn", _coeffs(variables, n, Lambda=basis["Lambda"])))
    return blocks


def _row_blocks(variables, rows: np.ndarray, d: np.ndarray) -> list:
    """roa_row_j = blkdiag(P, Q) - a_j a_j' >= 0 with a_j = rows[j] / d_j:
    P fills the leading block, Q (left out when it is not a variable) the
    trailing one."""
    k = rows.shape[1]
    parts = {}
    for v in variables:
        if v.name in ("P", "Q"):
            s = slice(0, v.dim) if v.name == "P" else slice(k - v.dim, k)
            parts[v.name] = np.zeros((v.n_scalars, k, k))
            parts[v.name][:, s, s] = v.basis()
    coeffs = _coeffs(variables, k, **parts)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        G0s = [-np.outer(row, row) / dj**2 for row, dj in zip(rows, d)]
    if not np.all(np.isfinite(G0s)):
        raise NonPositiveD(f"box half-width d = {np.min(d)!r} is too small: "
                           f"a row constant row_j row_j'/d_j^2 overflows")
    return [_block(f"roa_row_{j}", coeffs, G0) for j, G0 in enumerate(G0s)]


def _trace_objective(variables, weights: dict) -> np.ndarray:
    """Sum of weights[v.name] * trace(v) over the variables, as a vector."""
    return np.concatenate([float(weights.get(v.name, 0.0))
                           * np.einsum("kii->k", v.basis()) for v in variables])


def _sector_vectors(sectors: SectorBounds, n: int):
    if sectors.n != n:
        raise DimensionMismatch("sector bounds do not match the neuron count")
    return sectors.alpha_phi, sectors.beta_phi


def build_global(aug: AugmentedPlant, sel: Selectors,
                 alpha: float, beta: float) -> LMISystem:
    """Global-stability LMI with the activation's global slope bounds."""
    n = sel.N1lm1.shape[0]
    variables = (VarSpec("P", "sym", aug.n_xtil), VarSpec("Lambda", "diag", n))
    blocks = _core_blocks(aug, sel, variables, np.full(n, float(alpha)),
                          np.full(n, float(beta)))
    return LMISystem(variables=variables, blocks=blocks, objective=None)


def build_local_fixed(aug: AugmentedPlant, sel: Selectors,
                      sectors: SectorBounds, d) -> LMISystem:
    """Fixed-reference local LMI: stability block with local sectors plus one
    containment row per layer-1 neuron tying the box half-width to E_P;
    trace(P) is minimized."""
    n = sel.N1lm1.shape[0]
    d = half_widths(d, sel.N0_1.shape[0])
    variables = (VarSpec("P", "sym", aug.n_xtil), VarSpec("Lambda", "diag", n))
    blocks = (_core_blocks(aug, sel, variables, *_sector_vectors(sectors, n))
              + _row_blocks(variables, sel.N0_1, d))
    return LMISystem(variables=variables, blocks=blocks,
                     objective=_trace_objective(variables, {"P": 1.0}))


def check_gamma(gamma: float) -> None:
    """Refuse a trace(Q) weight that is not finite and positive, with
    NonPositiveGamma: otherwise the objective is unbounded below in Q."""
    if not 0.0 < gamma < np.inf:
        raise NonPositiveGamma(f"gamma must be finite and positive, got {gamma!r}")


def build_local_range(aug: AugmentedPlant, sel: Selectors,
                      sectors: SectorBounds, d, S: np.ndarray,
                      gamma: float = 1.0) -> LMISystem:
    """Reference-range LMI: adds Q > 0 over the reference deviation and joint
    containment rows blkdiag(P, Q) - a_j a_j' >= 0 with a_j = [N0_1, S]_j / d_j
    (roa_row_j in the module docstring), S from :func:`ref_sensitivity`.

    ``gamma`` weighs trace(Q) in the objective (see :func:`check_gamma`)."""
    check_gamma(gamma)
    n = sel.N1lm1.shape[0]
    n_1 = sel.N0_1.shape[0]
    d = half_widths(d, n_1)
    if S.shape != (n_1, aug.n_r):
        raise DimensionMismatch("reference sensitivity must be n_1 x n_r")
    variables = (VarSpec("P", "sym", aug.n_xtil), VarSpec("Lambda", "diag", n),
                 VarSpec("Q", "sym", aug.n_r))
    blocks = (_core_blocks(aug, sel, variables, *_sector_vectors(sectors, n))
              + _row_blocks(variables, np.hstack([sel.N0_1, S]), d))
    return LMISystem(variables=variables, blocks=blocks,
                     objective=_trace_objective(variables, {"P": 1.0, "Q": float(gamma)}))
