"""Assembly of the selector matrices and the stability LMI systems.

The loop analysis rewrites the network interconnection through constant
selector matrices: with the stacked incremental variables
``z = [xtil - xtil_*; w - w_*]``,

    R_V z  = [xtil - xtil_*; u_nn - u_nn_*]      (input selection),
    R_phi z = [v - v_*; w - w_*]                 (activation channel),

so that one quadratic form in ``z`` combines the Lyapunov difference of the
augmented plant with the incremental sector multiplier of every neuron.

An :class:`LMISystem` is a solver-agnostic bundle: matrix-valued decision
variables (symmetric or diagonal), affine matrix blocks tagged with the
inequality sense, margins that realize strictness numerically, and an
optional linear objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonPositiveGamma
from .network import FeedForwardNN
from .plant import AugmentedPlant, SteadyStateMap, _frozen
from .sectors import SectorBounds

# Strictness margin scale: strict blocks are shifted by delta * identity with
# delta = MARGIN_COEFF * (1 + max|constant part|).
MARGIN_COEFF = 1e-7

SENSES = ("strict_neg", "strict_pos", "nonneg")


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

    def basis(self):
        """Yield the scalar-component basis matrices (upper-triangle order)."""
        if self.kind == "sym":
            for i in range(self.dim):
                for j in range(i, self.dim):
                    E = np.zeros((self.dim, self.dim))
                    E[i, j] = 1.0
                    E[j, i] = 1.0
                    yield E
        else:
            for i in range(self.dim):
                E = np.zeros((self.dim, self.dim))
                E[i, i] = 1.0
                yield E

    def pack(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=float)
        if self.kind == "sym":
            iu = np.triu_indices(self.dim)
            return mat[iu]
        return np.diag(mat).copy()

    def unpack(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if self.kind == "sym":
            out = np.zeros((self.dim, self.dim))
            iu = np.triu_indices(self.dim)
            out[iu] = theta
            out = out + np.triu(out, 1).T
            return out
        return np.diag(theta)


@dataclass(frozen=True)
class LMIBlock:
    """One affine matrix block F0 + sum_i theta_i coeffs[i] with a sense tag."""

    name: str
    sense: str
    F0: np.ndarray
    coeffs: np.ndarray   # (n_scalars, k, k)
    delta: float = 0.0

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "F0", _frozen(self.F0))
        coeffs = np.array(self.coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return self.F0.shape[0]


@dataclass(frozen=True)
class LMISystem:
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
        """Natural-form value of a block (no margin shift applied)."""
        return block.F0 + np.tensordot(theta, block.coeffs, axes=1)

    def solver_value(self, block: LMIBlock, theta: np.ndarray) -> np.ndarray:
        """PSD-form value after the sense flip and the strictness margin."""
        val = self.block_value(block, theta)
        if block.sense == "strict_neg":
            return -val - block.delta * np.eye(block.order)
        if block.sense == "strict_pos":
            return val - block.delta * np.eye(block.order)
        return val

    def debug_dump(self) -> dict:
        """JSON-friendly dump of every block's coefficients per variable."""
        return {
            "variables": [
                {"name": v.name, "kind": v.kind, "dim": v.dim}
                for v in self.variables
            ],
            "objective": None if self.objective is None else self.objective.tolist(),
            "blocks": [
                {
                    "name": b.name,
                    "sense": b.sense,
                    "delta": b.delta,
                    "order": b.order,
                    "F0": b.F0.tolist(),
                    "coeffs": [c.tolist() for c in b.coeffs],
                }
                for b in self.blocks
            ],
        }


@dataclass(frozen=True)
class Selectors:
    """Constant selection matrices of the network interconnection."""

    N0: np.ndarray
    N0_1: np.ndarray
    N1lm1: np.ndarray
    Nl: np.ndarray
    RV: np.ndarray
    Rphi: np.ndarray

    def __post_init__(self):
        for name in ("N0", "N0_1", "N1lm1", "Nl", "RV", "Rphi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class RefSensitivity:
    """S = W0 (Hx0 M + Hr0): sensitivity of the layer-1 stationary input to r.

    Vanishes identically for output-error feedback (Hx0 = -C, Hr0 = I) since
    C M = I by the steady-state equations.
    """

    S: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _frozen(self.S))


def build_selectors(nn: FeedForwardNN, n_xtil: int) -> Selectors:
    """Place the network weights into the constant selector matrices."""
    if n_xtil <= nn.n_x:
        raise DimensionMismatch("n_xtil must exceed the plant state dimension")
    widths = nn.hidden_widths
    n = nn.n_hidden
    n_1 = widths[0]
    W0, _ = nn.layers[0]

    N0 = np.zeros((n, n_xtil))
    N0[:n_1, : nn.n_x] = W0 @ nn.Hx0        # zero columns padded for xi
    N0_1 = N0[:n_1, :].copy()

    N1lm1 = np.zeros((n, n))
    offsets = np.concatenate([[0], np.cumsum(widths)])
    for i in range(1, nn.depth):
        W, _ = nn.layers[i]
        r0, c0 = offsets[i], offsets[i - 1]
        N1lm1[r0: r0 + widths[i], c0: c0 + widths[i - 1]] = W

    Nl = np.zeros((nn.n_u, n_xtil + n))
    Nl[:, n_xtil + offsets[-2]:] = nn.Wl

    RV = np.zeros((n_xtil + nn.n_u, n_xtil + n))
    RV[:n_xtil, :n_xtil] = np.eye(n_xtil)
    RV[n_xtil:, n_xtil:] = Nl[:, n_xtil:]

    Rphi = np.zeros((2 * n, n_xtil + n))
    Rphi[:n, :n_xtil] = N0
    Rphi[:n, n_xtil:] = N1lm1
    Rphi[n:, n_xtil:] = np.eye(n)
    return Selectors(N0=N0, N0_1=N0_1, N1lm1=N1lm1, Nl=Nl, RV=RV, Rphi=Rphi)


def ref_sensitivity(nn: FeedForwardNN, ssmap: SteadyStateMap) -> RefSensitivity:
    W0, _ = nn.layers[0]
    return RefSensitivity(S=W0 @ (nn.Hx0 @ ssmap.M + nn.Hr0))


def _materialize(variables, assemble) -> tuple:
    """Probe an affine assembly function with basis matrices."""
    zeros = {v.name: np.zeros((v.dim, v.dim)) for v in variables}
    F0 = np.asarray(assemble(**zeros), dtype=float)
    coeffs = []
    for v in variables:
        for E in v.basis():
            args = dict(zeros)
            args[v.name] = E
            coeffs.append(np.asarray(assemble(**args), dtype=float) - F0)
    return F0, np.array(coeffs)


def _make_block(name, sense, variables, assemble) -> LMIBlock:
    F0, coeffs = _materialize(variables, assemble)
    delta = 0.0
    if sense in ("strict_neg", "strict_pos"):
        delta = MARGIN_COEFF * (1.0 + float(np.max(np.abs(F0))))
    return LMIBlock(name=name, sense=sense, F0=F0, coeffs=coeffs, delta=delta)


def _stability_assemble(aug: AugmentedPlant, sel: Selectors,
                        alpha_vec: np.ndarray, beta_vec: np.ndarray):
    At, Bt = aug.Atil, aug.Btil
    D_ab = np.diag(alpha_vec * beta_vec)
    D_apb = np.diag(alpha_vec + beta_vec)

    def assemble(P, Lambda, **_ignored):
        lyap = np.block([
            [At.T @ P @ At - P, At.T @ P @ Bt],
            [Bt.T @ P @ At, Bt.T @ P @ Bt],
        ])
        qc = np.block([
            [-2.0 * D_ab @ Lambda, D_apb @ Lambda],
            [Lambda @ D_apb, -2.0 * Lambda],
        ])
        val = sel.RV.T @ lyap @ sel.RV + sel.Rphi.T @ qc @ sel.Rphi
        return 0.5 * (val + val.T)

    return assemble


def _trace_objective(variables, weights: dict) -> np.ndarray:
    out = []
    for v in variables:
        w = float(weights.get(v.name, 0.0))
        if v.kind == "sym":
            comp = np.zeros(v.n_scalars)
            k = 0
            for i in range(v.dim):
                for j in range(i, v.dim):
                    if i == j:
                        comp[k] = w
                    k += 1
            out.append(comp)
        else:
            out.append(np.full(v.n_scalars, w))
    return np.concatenate(out)


def _sector_vectors(sectors: SectorBounds, n: int):
    if sectors.n != n:
        raise DimensionMismatch("sector bounds do not match the neuron count")
    return sectors.alpha_phi, sectors.beta_phi


def build_global(aug: AugmentedPlant, sel: Selectors,
                 alpha: float, beta: float) -> LMISystem:
    """Global-stability LMI with the activation's global slope bounds."""
    n_xtil = aug.n_xtil
    n = sel.N1lm1.shape[0]
    variables = (VarSpec("P", "sym", n_xtil), VarSpec("Lambda", "diag", n))
    a_vec = np.full(n, float(alpha))
    b_vec = np.full(n, float(beta))
    blocks = (
        _make_block("stability", "strict_neg", variables,
                    _stability_assemble(aug, sel, a_vec, b_vec)),
        _make_block("P_pd", "strict_pos", variables,
                    lambda P, Lambda: P),
        _make_block("Lambda_nn", "nonneg", variables,
                    lambda P, Lambda: Lambda),
    )
    return LMISystem(variables=variables, blocks=blocks, objective=None)


def build_local_fixed(aug: AugmentedPlant, sel: Selectors,
                      sectors: SectorBounds, d,
                      minimize_trace: bool = True) -> LMISystem:
    """Fixed-reference local LMI: stability block with local sectors plus one
    containment row per layer-1 neuron tying the box half-width to E_P."""
    n_xtil = aug.n_xtil
    n = sel.N1lm1.shape[0]
    n_1 = sel.N0_1.shape[0]
    d = np.broadcast_to(np.asarray(d, dtype=float), (n_1,))
    variables = (VarSpec("P", "sym", n_xtil), VarSpec("Lambda", "diag", n))
    a_vec, b_vec = _sector_vectors(sectors, n)
    blocks = [
        _make_block("stability", "strict_neg", variables,
                    _stability_assemble(aug, sel, a_vec, b_vec)),
        _make_block("P_pd", "strict_pos", variables,
                    lambda P, Lambda: P),
        _make_block("Lambda_nn", "nonneg", variables,
                    lambda P, Lambda: Lambda),
    ]
    for j in range(n_1):
        row = sel.N0_1[j: j + 1, :]
        dj2 = float(d[j]) ** 2

        def assemble(P, Lambda, row=row, dj2=dj2):
            return np.block([[np.array([[dj2]]), row], [row.T, P]])

        blocks.append(_make_block(f"roa_row_{j}", "nonneg", variables, assemble))
    objective = _trace_objective(variables, {"P": 1.0}) if minimize_trace else None
    return LMISystem(variables=variables, blocks=tuple(blocks), objective=objective)


def build_local_range(aug: AugmentedPlant, sel: Selectors,
                      sectors: SectorBounds, d, refsens: RefSensitivity,
                      gamma: float = 1.0) -> LMISystem:
    """Reference-range LMI: adds Q > 0 over the reference deviation and joint
    containment rows [d_j^2, [N0_1, S]_j; *, blkdiag(P, Q)] >= 0.

    ``gamma`` weighs trace(Q) in the objective; it must be finite, and
    positive, since otherwise the objective is unbounded below in Q."""
    if not 0.0 < gamma < np.inf:
        raise NonPositiveGamma(f"gamma must be finite and positive, got {gamma!r}")
    n_xtil = aug.n_xtil
    n_r = aug.n_r
    n = sel.N1lm1.shape[0]
    n_1 = sel.N0_1.shape[0]
    d = np.broadcast_to(np.asarray(d, dtype=float), (n_1,))
    S = refsens.S
    if S.shape != (n_1, n_r):
        raise DimensionMismatch("reference sensitivity must be n_1 x n_r")
    variables = (VarSpec("P", "sym", n_xtil), VarSpec("Lambda", "diag", n),
                 VarSpec("Q", "sym", n_r))
    a_vec, b_vec = _sector_vectors(sectors, n)
    blocks = [
        _make_block("stability", "strict_neg", variables,
                    _stability_assemble(aug, sel, a_vec, b_vec)),
        _make_block("P_pd", "strict_pos", variables,
                    lambda P, Lambda, Q: P),
        _make_block("Q_pd", "strict_pos", variables,
                    lambda P, Lambda, Q: Q),
        _make_block("Lambda_nn", "nonneg", variables,
                    lambda P, Lambda, Q: Lambda),
    ]
    for j in range(n_1):
        row = np.hstack([sel.N0_1[j: j + 1, :], S[j: j + 1, :]])
        dj2 = float(d[j]) ** 2

        def assemble(P, Lambda, Q, row=row, dj2=dj2):
            PQ = np.block([
                [P, np.zeros((n_xtil, n_r))],
                [np.zeros((n_r, n_xtil)), Q],
            ])
            return np.block([[np.array([[dj2]]), row], [row.T, PQ]])

        blocks.append(_make_block(f"roa_row_{j}", "nonneg", variables, assemble))
    objective = _trace_objective(variables, {"P": 1.0, "Q": float(gamma)})
    return LMISystem(variables=variables, blocks=tuple(blocks), objective=objective)
