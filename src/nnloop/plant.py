"""Discrete-time LTI plant, integrator augmentation, and steady-state maps.

The plant is

    x+ = A x + B u,    y = C x,

with as many inputs as tracked outputs.  Feeding the tracking error into a
discrete integrator state ``xi`` and applying ``u = k_xi xi + kappa(x, r)``
yields the augmented loop

    xtil+ = Atil xtil + Btil u_nn + Br r,    y = Ctil xtil,

whose block matrices are assembled by :func:`augment`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadModelFile, DimensionMismatch, SingularAa, SingularGain

# Condition number beyond which a matrix is treated as numerically singular.
COND_LIMIT = 1e12

GRAVITY = 9.81


def _frozen(a, finite=True) -> np.ndarray:
    """Return a read-only float64 copy, checking that its entries are finite
    unless ``finite`` is false."""
    out = np.array(a, dtype=float)
    if finite and not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    out.flags.writeable = False
    return out


def _read_json(path, what: str, error=BadModelFile):
    """The JSON value in file ``path``; a file that cannot be read or does
    not hold valid JSON raises ``error`` naming the file as ``what``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from None
    except ValueError as exc:  # a json.JSONDecodeError or a UnicodeDecodeError
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def _rows(X) -> np.ndarray:
    """Copy of the (N, k) array X whose rows start on 16-byte boundaries.

    NumPy allocates from malloc, which aligns to 16 bytes on 64-bit
    platforms, so a fresh vector is 16-byte aligned; rows padded to an even
    number of doubles keep that.  Generic x86-64 OpenBLAS kernels sum a dot
    product over an unaligned vector in another order.
    """
    N, k = X.shape
    rows = np.empty((N, k + k % 2))[:, :k]
    rows[...] = X
    return rows


def _matvec(A, x) -> np.ndarray:
    """The single product A @ x of a matrix and a vector, through ``A.dot``.

    ``A.dot(x)`` makes the BLAS gemv (a dot when A has one row) that
    ``A @ x`` makes, at about half the dispatch cost, and gives the same
    bits, except for a matrix with one column, which keeps ``@``: ``dot``
    multiplies a 1x1 matrix as a scalar (``[[-2.0]]`` times ``[0.0]`` is
    -0.0 where ``@`` gives 0.0), and ``@`` forms an (m, 1) product in
    numpy's own loop, which can differ from gemv in the sign of a zero.
    """
    return A @ x if A.shape[1] == 1 else A.dot(x)


def _matvecs(A, rows) -> np.ndarray:
    """The (N, m) stack of the products A @ rows[j] of an (N, k) stack of rows.

    Each row is bit for bit the single product ``_matvec(A, rows[j])``:
    np.matmul over the (N, k, 1) stack makes one BLAS gemv (a dot when A
    has one row) per row, the call a single product makes, where one gemm
    over the stack would sum in another order.  Rows of a fresh array of
    odd width, which do not all start on 16-byte boundaries, are copied with
    :func:`_rows`.
    """
    if rows.strides[0] % 16:
        rows = _rows(rows)
    return np.matmul(A, rows[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class Plant:
    """State-space data (A, B, C) with n_u == n_r."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _frozen(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("A must be square")
        n_x = A.shape[0]
        B = _frozen(self.B)
        if B.ndim != 2 or B.shape[0] != n_x:
            raise DimensionMismatch("B must be n_x x n_u")
        C = _frozen(self.C)
        if C.ndim != 2 or C.shape[1] != n_x:
            raise DimensionMismatch("C must be n_r x n_x")
        if B.shape[1] != C.shape[0]:
            raise DimensionMismatch("input and output dimensions must agree (n_u == n_r)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_r(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class AugmentedPlant:
    """Plant plus integrator state, in block form."""

    Atil: np.ndarray
    Btil: np.ndarray
    Ctil: np.ndarray
    Br: np.ndarray
    k_xi: np.ndarray

    def __post_init__(self):
        for name in ("Atil", "Btil", "Ctil", "Br", "k_xi"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def n_xtil(self) -> int:
        return self.Atil.shape[0]

    @property
    def n_r(self) -> int:
        return self.Br.shape[1]

    @property
    def n_x(self) -> int:
        return self.n_xtil - self.n_r


@dataclass(frozen=True)
class SteadyStateMap:
    """Linear maps r -> x_* and r -> u_* obtained from the tracking equations."""

    A_a: np.ndarray
    M: np.ndarray
    M_u: np.ndarray

    def __post_init__(self):
        for name in ("A_a", "M", "M_u"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class SteadyState:
    """Steady state of the augmented loop for one reference."""

    x_star: np.ndarray
    u_star: np.ndarray
    xi_star: np.ndarray
    xtil_star: np.ndarray

    def __post_init__(self):
        for name in ("x_star", "u_star", "xi_star", "xtil_star"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def _cond(mat: np.ndarray) -> float:
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def augment(plant: Plant, k_xi) -> AugmentedPlant:
    """Attach the integrator with gain ``k_xi`` to the plant.

    Raises SingularGain when k_xi is numerically singular; an invertible gain
    is required for a well-defined integrator steady state.
    """
    k_xi = np.atleast_2d(np.asarray(k_xi, dtype=float))
    n_r = plant.n_r
    if k_xi.shape != (n_r, n_r):
        raise DimensionMismatch(f"k_xi must be {n_r} x {n_r}")
    if _cond(k_xi) >= COND_LIMIT:
        raise SingularGain("integrator gain is numerically singular")
    A, B, C = plant.A, plant.B, plant.C
    n_x = plant.n_x
    Atil = np.block([[A, B @ k_xi], [-C, np.eye(n_r)]])
    Btil = np.vstack([B, np.zeros((n_r, plant.n_u))])
    Ctil = np.hstack([C, np.zeros((n_r, n_r))])
    Br = np.vstack([np.zeros((n_x, n_r)), np.eye(n_r)])
    return AugmentedPlant(Atil=Atil, Btil=Btil, Ctil=Ctil, Br=Br, k_xi=k_xi)


def steady_state_map(plant: Plant) -> SteadyStateMap:
    """Solve the steady-state equations for the maps x_* = M r, u_* = M_u r."""
    n_x, n_u, n_r = plant.n_x, plant.n_u, plant.n_r
    A_a = np.block([
        [plant.A - np.eye(n_x), plant.B],
        [plant.C, np.zeros((n_r, n_u))],
    ])
    if _cond(A_a) >= COND_LIMIT:
        raise SingularAa("steady-state system matrix is rank deficient")
    rhs = np.vstack([np.zeros((n_x, n_r)), np.eye(n_r)])
    sol = np.linalg.solve(A_a, rhs)
    return SteadyStateMap(A_a=A_a, M=sol[:n_x, :], M_u=sol[n_x:, :])


def xtil_star_map(ssmap: SteadyStateMap, nn, k_xi):
    """The steady-state map r -> xtil_*(r) = (M r, k_xi^-1 (M_u r - kappa(M r, r))).

    The returned function takes a reference (n_r,) and gives its steady state
    (n_xtil,), or takes a stack (N, n_r) of references, one per row, and
    gives the (N, n_xtil) stack of theirs in one network pass, each row bit
    for bit the steady state of that reference alone; one aligned copy of
    the stack serves M, M_u and the network's Hr0.  k_xi is checked and
    inverted once, here; raises SingularGain when it is numerically singular.
    """
    from .network import evaluate  # local import to avoid a cycle

    M, M_u = ssmap.M, ssmap.M_u
    k_xi = np.atleast_2d(np.asarray(k_xi, dtype=float))
    if (nn.n_x, nn.n_r, nn.n_u) != (M.shape[0], M.shape[1], M_u.shape[0]) \
            or k_xi.shape != (nn.n_u, nn.n_u):
        raise DimensionMismatch("network, plant and k_xi dimensions disagree")
    if _cond(k_xi) >= COND_LIMIT:
        raise SingularGain("integrator gain is numerically singular")
    k_xi_inv = np.linalg.inv(k_xi)

    def xtil_star(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        r, mv = (_rows(r), _matvecs) if r.ndim == 2 else (r, _matvec)
        x_star = mv(M, r)
        xi_star = mv(k_xi_inv, mv(M_u, r) - evaluate(nn, x_star, r))
        return np.concatenate([x_star, xi_star], axis=-1)

    return xtil_star


def steady_state(plant: Plant, nn, k_xi, r) -> SteadyState:
    """Unique steady state of the augmented loop for reference ``r``.

    The integrator settles at xi_* = k_xi^-1 (u_* - kappa(x_*, r)), so the
    plant input equals u_* exactly and the output offset vanishes.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.shape != (plant.n_r,):
        raise DimensionMismatch(f"r must have shape ({plant.n_r},)")
    ssmap = steady_state_map(plant)
    xtil_star = xtil_star_map(ssmap, nn, k_xi)(r)
    return SteadyState(
        x_star=xtil_star[:plant.n_x],
        u_star=ssmap.M_u @ r,
        xi_star=xtil_star[plant.n_x:],
        xtil_star=xtil_star,
    )


def build_pendulum(m: float = 0.15, L: float = 0.5, mu: float = 0.5,
                   g: float = GRAVITY, T_s: float = 0.02,
                   method: str = "exact-zoh", output: str = "angle") -> Plant:
    """Linearized inverted pendulum, discretized with sampling time ``T_s``.

    Continuous-time data:

        A_c = [[0, 1], [g/L, -mu/(m L^2)]],   B_c = [0, g/L]^T.

    ``method`` selects the discretization: "exact-zoh" (matrix exponential of
    the stacked [A_c, B_c] block) or "euler" (I + T_s A_c, T_s B_c).
    ``output`` picks the tracked quantity: "angle" -> C = [1, 0] (default) or
    "velocity" -> C = [0, 1].
    """
    for name, val in (("m", m), ("L", L), ("mu", mu), ("g", g), ("T_s", T_s)):
        if val <= 0:
            raise ValueError(f"{name} must be positive")
    if method not in ("exact-zoh", "euler"):
        raise ValueError("method must be 'exact-zoh' or 'euler'")
    if output not in ("angle", "velocity"):
        raise ValueError("output must be 'angle' or 'velocity'")
    A_c = np.array([[0.0, 1.0], [g / L, -mu / (m * L * L)]])
    B_c = np.array([[0.0], [g / L]])
    if method == "euler":
        A_d = np.eye(2) + T_s * A_c
        B_d = T_s * B_c
    else:
        from scipy.linalg import expm

        blk = np.zeros((3, 3))
        blk[:2, :2] = A_c
        blk[:2, 2:] = B_c
        E = expm(T_s * blk)
        A_d, B_d = E[:2, :2], E[:2, 2:]
    C = np.array([[1.0, 0.0]]) if output == "angle" else np.array([[0.0, 1.0]])
    return Plant(A=A_d, B=B_d, C=C)


def load_plant(path) -> Plant:
    """Read a plant from JSON: {"A": [[..]], "B": [[..]], "C": [[..]]}.

    An unreadable file, malformed JSON, a missing key, or a value that is not
    a finite numeric matrix of a fitting shape raises BadModelFile naming the
    file.
    """
    data = _read_json(path, "plant file")
    try:
        return Plant(*(np.array(data[key], dtype=float) for key in "ABC"))
    except KeyError as exc:
        raise BadModelFile(f"plant file {path} has no key {exc.args[0]!r}") from None
    except (TypeError, ValueError, DimensionMismatch) as exc:
        raise BadModelFile(f"plant file {path} is malformed: {exc}") from None


def save_plant(plant: Plant, path) -> None:
    data = {"A": plant.A.tolist(), "B": plant.B.tolist(), "C": plant.C.tolist()}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
