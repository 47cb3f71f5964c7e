"""Discrete-time LTI plant, integrator augmentation, and steady-state maps.

The plant is

    x+ = A x + B u,    y = C x,

with as many inputs as tracked outputs.  Feeding the tracking error into a
discrete integrator state ``xi`` and applying ``u = k_xi xi + kappa(x, r)``
yields the augmented loop

    xtil+ = Atil xtil + Btil u_nn + Br r,    y = Ctil xtil,

whose block matrices are assembled by :func:`augment`.

The steady-state map (:func:`xtil_star_map`) takes its references as a
stack, one per row, and a single reference is a stack of one row.  Its
products are formed one row at a time (:func:`_matvecs`), each row bit for
bit the single product of the closed-loop step, which binds its own
(:func:`closed_loop._bind`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import BadModelFile, DimensionMismatch, SingularAa, SingularGain

# Condition number beyond which a matrix is treated as numerically singular.
COND_LIMIT = 1e12

GRAVITY = 9.81


def _frozen(a, finite=True) -> np.ndarray:
    """Return a read-only float64 copy, checking that its entries are finite
    unless ``finite`` is false."""
    out = np.array(a, dtype=float)
    if finite and not np.isfinite(out).all():  # skips np.all's dispatch
        raise ValueError("matrix entries must be finite")
    out.flags.writeable = False
    return out


class _Value:
    """Construction and equality of the frozen value types.

    A type names its array fields once, in ``_arrays``; construction stores
    each as a read-only float64 copy (:func:`_frozen`), whose entries must
    be finite unless the field is also named in ``_nonfinite``.  A field
    named in ``_tuples`` too holds a tuple of such arrays, one per entry,
    and any other field one array, whatever sequence it is given as.  An
    array field whose default is None may be left None.  A type with
    checks of its own runs them after ``super().__post_init__()``.

    Values of one type are equal when each field that takes part in
    comparison is, arrays by shape and entries (NaN equal to NaN), tuples
    entry by entry and anything else by ``==``.  Like their numpy arrays,
    values are not hashable."""

    _arrays = ()
    _tuples = ()
    _nonfinite = ()

    def __post_init__(self):
        cls = type(self)
        for name in cls._arrays:
            value, finite = getattr(self, name), name not in cls._nonfinite
            if name in cls._tuples:
                value = tuple(_frozen(a, finite) for a in value)
            elif value is not None or getattr(cls, name, 0) is not None:
                value = _frozen(value, finite)
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self) if f.compare)

    __hash__ = None


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


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


def _matvecs(A, rows) -> np.ndarray:
    """The (N, m) stack of the products A @ rows[j] of an (N, k) stack of rows.

    Each row is bit for bit the single product the closed-loop step makes
    (:func:`closed_loop._bind`): np.matmul over the (N, k, 1) stack makes
    one BLAS gemv (a dot when A has one row) per row, the call a single
    product makes, where one gemm over the stack would sum in another order.
    Rows of a fresh array of odd width, which do not all start on 16-byte
    boundaries, are copied with :func:`_rows`; a stack of one row is not,
    since its only row starts where the array does.
    """
    if rows.strides[0] % 16 and len(rows) > 1:
        rows = _rows(rows)
    return np.matmul(A, rows[:, :, None])[:, :, 0]


@dataclass(frozen=True, eq=False)
class Plant(_Value):
    """State-space data (A, B, C) with n_u == n_r."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    _arrays = ("A", "B", "C")

    def __post_init__(self):
        super().__post_init__()
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch("A must be square")
        if self.B.ndim != 2 or self.B.shape[0] != self.n_x:
            raise DimensionMismatch("B must be n_x x n_u")
        if self.C.ndim != 2 or self.C.shape[1] != self.n_x:
            raise DimensionMismatch("C must be n_r x n_x")
        if self.n_u != self.n_r:
            raise DimensionMismatch("input and output dimensions must agree (n_u == n_r)")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_r(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class AugmentedPlant(_Value):
    """Plant plus integrator state, in block form."""

    Atil: np.ndarray
    Btil: np.ndarray
    Ctil: np.ndarray
    Br: np.ndarray
    k_xi: np.ndarray

    _arrays = ("Atil", "Btil", "Ctil", "Br", "k_xi")

    @property
    def n_xtil(self) -> int:
        return self.Atil.shape[0]

    @property
    def n_r(self) -> int:
        return self.Br.shape[1]

    @property
    def n_x(self) -> int:
        return self.n_xtil - self.n_r


@dataclass(frozen=True, eq=False)
class SteadyStateMap(_Value):
    """Linear maps r -> x_* and r -> u_* obtained from the tracking equations."""

    A_a: np.ndarray
    M: np.ndarray
    M_u: np.ndarray

    _arrays = ("A_a", "M", "M_u")


@dataclass(frozen=True, eq=False)
class SteadyState(_Value):
    """Steady state of the augmented loop for one reference."""

    x_star: np.ndarray
    u_star: np.ndarray
    xi_star: np.ndarray
    xtil_star: np.ndarray

    _arrays = ("x_star", "u_star", "xi_star", "xtil_star")


def augment(plant: Plant, k_xi) -> AugmentedPlant:
    """Attach the integrator with gain ``k_xi`` to the plant.

    Raises SingularGain when k_xi is numerically singular; an invertible gain
    is required for a well-defined integrator steady state.
    """
    k_xi = np.atleast_2d(np.asarray(k_xi, dtype=float))
    n_r = plant.n_r
    if k_xi.shape != (n_r, n_r):
        raise DimensionMismatch(f"k_xi must be {n_r} x {n_r}")
    if np.linalg.cond(k_xi) >= COND_LIMIT:
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
    if np.linalg.cond(A_a) >= COND_LIMIT:
        raise SingularAa("steady-state system matrix is rank deficient")
    rhs = np.vstack([np.zeros((n_x, n_r)), np.eye(n_r)])
    sol = np.linalg.solve(A_a, rhs)
    return SteadyStateMap(A_a=A_a, M=sol[:n_x, :], M_u=sol[n_x:, :])


def xtil_star_map(ssmap: SteadyStateMap, nn, k_xi):
    """The steady-state map r -> xtil_*(r) = (M r, k_xi^-1 (M_u r - kappa(M r, r))).

    The returned function takes a stack (N, n_r) of references, one per row,
    and gives the (N, n_xtil) stack of their steady states in one network
    pass, each row bit for bit the steady state of that reference alone; a
    reference (n_r,) is a stack of one row and gives that row (n_xtil,).
    One aligned copy of the stack serves M, M_u and the network's Hr0.  The
    network pass is bound, and k_xi checked and inverted, once, here; raises
    SingularGain when k_xi is numerically singular.
    """
    from .network import _layer_pass  # local import to avoid a cycle

    M, M_u = ssmap.M, ssmap.M_u
    k_xi = np.atleast_2d(np.asarray(k_xi, dtype=float))
    if (nn.n_x, nn.n_r, nn.n_u) != (M.shape[0], M.shape[1], M_u.shape[0]) \
            or k_xi.shape != (nn.n_u, nn.n_u):
        raise DimensionMismatch("network, plant and k_xi dimensions disagree")
    if np.linalg.cond(k_xi) >= COND_LIMIT:
        raise SingularGain("integrator gain is numerically singular")
    k_xi_inv = np.linalg.inv(k_xi)
    kappa = _layer_pass(nn)

    def xtil_star(r):
        r = np.asarray(r, dtype=float)
        R = _rows(np.atleast_2d(r))
        x_star = _matvecs(M, R)
        xi_star = _matvecs(k_xi_inv, _matvecs(M_u, R) - kappa(x_star, R))
        X = np.concatenate([x_star, xi_star], axis=1)
        return X if r.ndim == 2 else X[0]

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

    ``method`` selects the discretization: "exact-zoh" (A_d = e^(T_s A_c),
    B_d = int_0^T_s e^(t A_c) dt B_c) or "euler" (I + T_s A_c, T_s B_c).
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
    # Positive inputs can still give a coefficient that underflows to zero
    # (m L^2 at L = 1e-170) or overflows (g/L at g = 1e300, L = 1e-100).
    inertia = m * L * L
    for name, val in (("m L^2", inertia), ("g/L", g / L),
                      ("mu/(m L^2)", mu / inertia if inertia else 0.0)):
        if not 0.0 < val < math.inf:
            raise ValueError(f"{name} = {val!r} must be positive and finite")
    A_c = np.array([[0.0, 1.0], [g / L, -mu / inertia]])
    B_c = np.array([[0.0], [g / L]])
    if method == "euler":
        A_d = np.eye(2) + T_s * A_c
        B_d = T_s * B_c
    else:
        # T_s A_c = V diag(lam) V^-1 with V = D Q: D = diag(1, sqrt(g/L)) makes
        # D^-1 T_s A_c D symmetric, with eigenvectors Q, and det A_c = -g/L < 0
        # makes lam real, nonzero and of opposite sign.  V stays well
        # conditioned also for stiff pendulums (small L, large mu).
        k = (g / L) ** 0.5
        lam, Q = np.linalg.eigh([[0.0, T_s * k], [T_s * k, T_s * A_c[1, 1]]])
        V, Vi = Q * [[1.0], [k]], Q.T / [1.0, k]
        A_d = (V * np.exp(lam)) @ Vi
        B_d = (V * (np.expm1(lam) / lam)) @ Vi @ (T_s * B_c)
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
