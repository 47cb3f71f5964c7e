"""Metamorphic checks: rewrites that keep the controller's function must keep
the verdicts and the certified numbers of the shipped pendulum scenario."""

import numpy as np
import pytest

import nnloop as nl
from nnloop.cli import run_verify

REF_TRACE_P = 12.3016457


def duplicated_nn(nn, copies, rng):
    """Every hidden neuron repeated ``copies`` times, the next layer's weights
    on the copies divided by ``copies``, and each hidden layer permuted."""
    layers, prev = [], None
    for W, b in nn.layers:
        if prev is not None:
            W = (np.repeat(W, copies, axis=1) / copies)[:, prev]
        perm = rng.permutation(W.shape[0] * copies)
        layers.append((np.repeat(W, copies, axis=0)[perm], np.repeat(b, copies)[perm]))
        prev = perm
    Wl = (np.repeat(nn.Wl, copies, axis=1) / copies)[:, prev]
    return nl.FeedForwardNN(Hx0=nn.Hx0, Hr0=nn.Hr0, layers=tuple(layers),
                            Wl=Wl, bl=nn.bl, activation=nn.activation)


@pytest.fixture(scope="module")
def wide(pendulum):
    plant, nn, k_xi = pendulum
    return plant, duplicated_nn(nn, 2, np.random.default_rng(2024)), k_xi


def test_duplicated_network_same_function(pendulum, wide):
    _, nn, _ = pendulum
    _, nn2, _ = wide
    assert nn2.hidden_widths == (10, 10)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, r = rng.normal(size=2), rng.normal(size=1)
        assert np.allclose(nl.forward(nn2, x, r).u, nl.forward(nn, x, r).u,
                           rtol=0.0, atol=1e-12)


def test_duplicated_network_global_infeasible(wide):
    plant, nn2, k_xi = wide
    rep = run_verify(plant, nn2, k_xi, "global")
    assert rep["status"] == "infeasible"


def test_duplicated_network_local_fixed_trace(wide, d_ship):
    plant, nn2, k_xi = wide
    rep = run_verify(plant, nn2, k_xi, "local-fixed", r=np.zeros(1), d=d_ship)
    assert rep["status"] == "feasible"
    assert np.trace(np.array(rep["P"])) == pytest.approx(REF_TRACE_P, abs=1e-4)
