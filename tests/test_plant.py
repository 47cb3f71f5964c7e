import copy
import pickle
import re

import numpy as np
import pytest

import nnloop as nl
from nnloop.errors import DimensionMismatch, SingularAa, SingularGain
from nnloop.plant import build_pendulum, load_plant, save_plant


def expm_oracle(M, terms=40, squarings=20):
    """Scaling-and-squaring Taylor oracle, independent of scipy."""
    A = np.asarray(M, dtype=float) / (2.0 ** squarings)
    E = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        E = E + term
    for _ in range(squarings):
        E = E @ E
    return E


def test_augment_scalar_blocks():
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    aug = nl.augment(plant, 0.1)
    assert np.allclose(aug.Atil, [[0.5, 0.1], [-1.0, 1.0]])
    assert np.allclose(aug.Btil, [[1.0], [0.0]])
    assert np.allclose(aug.Ctil, [[1.0, 0.0]])
    assert np.allclose(aug.Br, [[0.0], [1.0]])


def test_augment_singular_gain():
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(SingularGain):
        nl.augment(plant, 0.0)


def test_augment_readback_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n_x, n_r = 3, 2
        A = rng.normal(size=(n_x, n_x))
        B = rng.normal(size=(n_x, n_r))
        C = rng.normal(size=(n_r, n_x))
        k_xi = np.eye(n_r) + 0.1 * rng.normal(size=(n_r, n_r))
        plant = nl.Plant(A=A, B=B, C=C)
        aug = nl.augment(plant, k_xi)
        assert np.array_equal(aug.Atil[:n_x, :n_x], A)
        assert np.allclose(aug.Atil[:n_x, n_x:], B @ k_xi)
        assert np.array_equal(aug.Atil[n_x:, :n_x], -C)
        assert np.array_equal(aug.Btil[:n_x], B)
        assert np.array_equal(aug.k_xi, k_xi)


def test_pendulum_continuous_matrices():
    # Euler at a tiny step exposes A_c = (A_d - I)/T_s.
    T_s = 1e-6
    plant = build_pendulum(T_s=T_s, method="euler")
    A_c = (plant.A - np.eye(2)) / T_s
    assert np.allclose(A_c, [[0.0, 1.0], [19.62, -13.3333333333]], atol=1e-6)
    assert np.allclose(plant.B / T_s, [[0.0], [19.62]])


def test_pendulum_euler_frozen():
    plant = build_pendulum(T_s=0.02, method="euler")
    assert np.allclose(plant.A, [[1.0, 0.02], [0.3924, 0.7333333333333334]])
    assert np.allclose(plant.B, [[0.0], [0.3924]])
    # augmenting with k_xi = 1 puts B in the top-right block
    aug = nl.augment(plant, 1.0)
    assert np.allclose(aug.Atil[:2, 2:], [[0.0], [0.3924]])


def test_pendulum_zoh_matches_expm_oracle():
    plant = build_pendulum(T_s=0.02, method="exact-zoh")
    A_c = np.array([[0.0, 1.0], [9.81 / 0.5, -0.5 / (0.15 * 0.25)]])
    B_c = np.array([[0.0], [9.81 / 0.5]])
    blk = np.zeros((3, 3))
    blk[:2, :2] = A_c
    blk[:2, 2:] = B_c
    E = expm_oracle(0.02 * blk)
    assert np.max(np.abs(plant.A - E[:2, :2])) < 1e-10
    assert np.max(np.abs(plant.B - E[:2, 2:])) < 1e-10


# (m, L, mu, T_s): the shipped pendulum, then short, heavily damped, slow
# and long-sampled ones.  L = 1e-3 with mu = 1e3 puts the eigenvalues of
# T_s A_c at -6.7e9 T_s and 1.5e-6 T_s.
ZOH_GRID = [(0.15, 0.5, 0.5, 0.02)] + [
    (m, L, mu, T_s) for m in (0.15, 10.0) for L in (1e-3, 0.5, 20.0)
    for mu in (1e-3, 0.5, 1e3) for T_s in (1e-3, 0.02, 1.0)]


@pytest.mark.parametrize("m,L,mu,T_s", ZOH_GRID)
def test_pendulum_zoh_closed_form_on_a_grid(m, L, mu, T_s):
    # The oracle squares its Taylor sum s times, so its own error grows
    # like 2^s eps; s keeps the scaled matrix's row sums below 1/16.
    plant = build_pendulum(m=m, L=L, mu=mu, T_s=T_s)
    blk = np.zeros((3, 3))
    blk[:2, :2] = [[0.0, 1.0], [9.81 / L, -mu / (m * L * L)]]
    blk[:2, 2] = [0.0, 9.81 / L]
    blk *= T_s
    squarings = max(0, int(np.ceil(np.log2(np.abs(blk).sum(axis=1).max())))) + 4
    E = expm_oracle(blk, squarings=squarings)
    err = max(np.max(np.abs(plant.A - E[:2, :2])), np.max(np.abs(plant.B - E[:2, 2:])))
    assert err <= 8.0 * 2.0 ** squarings * np.finfo(float).eps * np.max(np.abs(E))


def test_pendulum_output_choices():
    assert np.array_equal(build_pendulum().C, [[1.0, 0.0]])
    assert np.array_equal(build_pendulum(output="velocity").C, [[0.0, 1.0]])


def test_pendulum_validation():
    with pytest.raises(ValueError):
        build_pendulum(m=-1.0)
    with pytest.raises(ValueError):
        build_pendulum(method="tustin")


@pytest.mark.parametrize("kwargs,message", [
    ({"L": 1e-170}, "m L^2 = 0.0"),
    ({"g": 1e300, "L": 1e-300}, "m L^2 = 0.0"),
    ({"g": 1e300, "L": 1e-100}, "g/L = inf"),
    ({"g": 1e-300, "L": 1e100}, "g/L = 0.0"),
    ({"mu": 1e300, "m": 1e-300}, "mu/(m L^2) = inf"),
    ({"m": float("nan")}, "m L^2 = nan"),
])
def test_pendulum_derived_coefficients_must_be_positive_and_finite(kwargs,
                                                                    message):
    # Positive parameters whose coefficients in A_c underflow or overflow.
    with pytest.raises(ValueError, match=re.escape(message)):
        build_pendulum(**kwargs)


def test_steady_state_map_scalar():
    plant = nl.Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    ssmap = nl.steady_state_map(plant)
    assert np.allclose(ssmap.M, [[1.0]])
    assert np.allclose(ssmap.M_u, [[1.0]])


def test_steady_state_map_identity_A():
    # A = I makes A_a = [[0, B], [C, 0]], nonsingular when C B is (square B).
    rng = np.random.default_rng(2)
    n = 2
    B = rng.normal(size=(n, n))
    C = rng.normal(size=(n, n))
    assert abs(np.linalg.det(C @ B)) > 1e-6
    plant = nl.Plant(A=np.eye(n), B=B, C=C)
    ssmap = nl.steady_state_map(plant)
    r = rng.normal(size=n)
    lhs = ssmap.A_a @ np.concatenate([ssmap.M @ r, ssmap.M_u @ r])
    rhs = np.concatenate([np.zeros(n), r])
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(r))


def test_steady_state_map_singular():
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[0.0]])
    with pytest.raises(SingularAa):
        nl.steady_state_map(plant)


def test_steady_state_map_random_residuals():
    rng = np.random.default_rng(3)
    plant = build_pendulum()
    ssmap = nl.steady_state_map(plant)
    for _ in range(100):
        r = rng.normal(size=1)
        sol = np.concatenate([ssmap.M @ r, ssmap.M_u @ r])
        res = ssmap.A_a @ sol - np.concatenate([np.zeros(2), r])
        assert np.linalg.norm(res) <= 1e-10 * (1.0 + np.linalg.norm(r))


def test_steady_state_zero_network():
    plant = nl.Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=np.zeros((1, 1)), Hr0=np.zeros((1, 1)),
        layers=((np.zeros((2, 1)), np.zeros(2)),),
        Wl=np.zeros((1, 2)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    ss = nl.steady_state(plant, nn, 1.0, np.zeros(1))
    assert np.allclose(ss.xtil_star, 0.0)
    assert np.allclose(ss.u_star, 0.0)


def test_steady_state_constant_network():
    # A=0, B=C=1, k_xi=1, r=1: u_* = 1 and kappa == c gives xi_* = 1 - c.
    plant = nl.Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    c = 0.37
    nn = nl.FeedForwardNN(
        Hx0=np.zeros((1, 1)), Hr0=np.zeros((1, 1)),
        layers=((np.zeros((1, 1)), np.zeros(1)),),
        Wl=np.zeros((1, 1)), bl=np.array([c]),
        activation=nl.Activation.linear(),
    )
    ss = nl.steady_state(plant, nn, 1.0, np.array([1.0]))
    assert np.allclose(ss.xi_star, [1.0 - c])
    assert np.allclose(ss.xtil_star, [1.0, 1.0 - c])


def test_steady_state_is_closed_loop_fixed_point(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    ss = nl.steady_state(plant, nn, k_xi, np.array([0.1]))
    nxt = nl.step(pendulum_aug, nn, ss.xtil_star, np.array([0.1]))
    assert np.linalg.norm(nxt - ss.xtil_star) <= 1e-9


def test_plant_dimension_checks():
    with pytest.raises(DimensionMismatch):
        nl.Plant(A=[[1.0, 0.0]], B=[[1.0]], C=[[1.0]])
    with pytest.raises(DimensionMismatch):
        nl.Plant(A=[[1.0]], B=[[1.0, 0.0]], C=[[1.0]])  # n_u != n_r


def test_plant_json_roundtrip(tmp_path):
    plant = build_pendulum()
    path = tmp_path / "plant.json"
    save_plant(plant, path)
    back = load_plant(path)
    assert np.array_equal(back.A, plant.A)
    assert np.array_equal(back.B, plant.B)
    assert np.array_equal(back.C, plant.C)


def test_plant_equality_is_by_value():
    # A pickled and a deep copy are equal, and so are two builds of the same
    # pendulum; one changed entry of A is not; like its arrays, a plant has
    # no hash.
    plant = build_pendulum()
    assert plant == build_pendulum()
    assert plant == pickle.loads(pickle.dumps(plant))
    assert plant == copy.deepcopy(plant)
    assert plant != "plant"
    A = plant.A.copy()
    A[1, 0] = np.nextafter(A[1, 0], np.inf)
    assert plant != nl.Plant(A=A, B=plant.B, C=plant.C)
    assert plant != build_pendulum(output="velocity")
    with pytest.raises(TypeError):
        hash(plant)


@pytest.mark.parametrize("shape", [(4, 3), (1, 5), (3, 1), (2, 4)])
def test_matvecs_leaves_a_one_row_stack_uncopied(monkeypatch, shape):
    # A stack of one row of any width is multiplied where it lies, with no
    # aligned copy, and gives the bits of the closed-loop step's single product.
    from nnloop import closed_loop, plant

    rng = np.random.default_rng(94)
    A, X = rng.normal(size=shape), rng.normal(size=(1, shape[1]))

    def copy(rows):
        raise AssertionError("a one-row stack was copied")

    monkeypatch.setattr(plant, "_rows", copy)
    got = plant._matvecs(A, X)
    assert got.shape == (1, shape[0])
    assert got[0].tobytes() == closed_loop._bind(A)(X[0]).tobytes()
