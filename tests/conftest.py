import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import nnloop as nl
from nnloop.assets import PENDULUM_D, pendulum_example
from nnloop.cli import run_verify

settings.register_profile(
    "ci", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def pendulum():
    """(plant, nn, k_xi) of the shipped scenario."""
    return pendulum_example()


@pytest.fixture(scope="session")
def pendulum_aug(pendulum):
    plant, _nn, k_xi = pendulum
    return nl.augment(plant, k_xi)


@pytest.fixture(scope="session")
def d_ship():
    return PENDULUM_D


@pytest.fixture(scope="session")
def thm2_report(pendulum):
    plant, nn, k_xi = pendulum
    rep = run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=PENDULUM_D)
    assert rep["status"] == "feasible"
    return rep


@pytest.fixture(scope="session")
def thm3_report(pendulum):
    plant, nn, k_xi = pendulum
    rep = run_verify(plant, nn, k_xi, "local-range", r_nom=np.zeros(1), d=PENDULUM_D)
    assert rep["status"] == "feasible"
    return rep


@pytest.fixture(scope="session")
def joint_set(pendulum, thm3_report):
    plant, nn, k_xi = pendulum
    return nl.joint_ellipsoid_for(
        plant, nn, k_xi,
        np.array(thm3_report["P"]), np.array(thm3_report["Q"]), np.zeros(1))


@pytest.fixture(scope="session")
def nominal_slice(pendulum, thm2_report):
    plant, nn, k_xi = pendulum
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    return nl.Ellipsoid(center=ss.xtil_star, shape=np.array(thm2_report["P"]))


def linear_nn(n_x, n_r, K=None, hidden=3, rng=None):
    """Affine network (linear activation) realizing the gain K on x."""
    rng = rng or np.random.default_rng(0)
    if K is None:
        K = rng.normal(size=(1, n_x))
    W0 = rng.normal(size=(hidden, n_x))
    Wl = np.asarray(K) @ np.linalg.pinv(W0)
    return nl.FeedForwardNN(
        Hx0=np.eye(n_x), Hr0=np.zeros((n_x, n_r)),
        layers=((W0, np.zeros(hidden)),),
        Wl=Wl, bl=np.zeros(1),
        activation=nl.Activation.linear(),
    )


@pytest.fixture
def schur_scalar():
    """Scalar plant + zero-output network with a Schur augmented loop."""
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
        layers=((np.array([[0.3]]), np.zeros(1)),),
        Wl=np.zeros((1, 1)), bl=np.zeros(1),
        activation=nl.Activation.linear(),
    )
    return plant, nn, 0.1

def stable_tanh_chords(v, vs):
    """Anchored tanh chords, switching to the midpoint derivative below the
    cancellation threshold (raw differences lose ~1e-16/|dv| digits)."""
    v = np.asarray(v, dtype=float)
    dv = v - vs
    tiny = np.abs(dv) <= 1e-6 * (1.0 + abs(vs))
    safe = np.where(tiny, 1.0, dv)
    ch = (np.tanh(v) - np.tanh(vs)) / safe
    mid = 0.5 * (v + vs)
    return np.where(tiny, 1.0 - np.tanh(mid) ** 2, ch)


def schur_row_check(P, rows, d, Q=None, atol=0.0):
    """Row-wise containment test row_j blkdiag(P, Q)^-1 row_j' <= d_j^2.

    Equivalent (by the Schur complement) to positive semidefiniteness of the
    blocks [[d_j^2, row_j], [row_j', blkdiag(P, Q)]]; an independent
    cross-check of the containment rows in the local LMI systems.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    d = np.broadcast_to(np.asarray(d, dtype=float), (rows.shape[0],))
    M = np.asarray(P, dtype=float)
    if Q is not None:
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        M = np.block([
            [M, np.zeros((M.shape[0], Q.shape[1]))],
            [np.zeros((Q.shape[0], M.shape[1])), Q],
        ])
    sol = np.linalg.solve(M, rows.T)
    vals = np.einsum("ij,ji->i", rows, sol)
    return vals <= d**2 + atol
