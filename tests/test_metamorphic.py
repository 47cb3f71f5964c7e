"""Metamorphic checks: rewrites that keep the controller's function must keep
the verdicts and the certified numbers of the shipped pendulum scenario."""

import numpy as np
import pytest

import nnloop as nl
from nnloop.cli import run_verify

REF_TRACE_P = 12.3016457
REF_HALF_INTERVAL = 0.26517


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


def zero_padded_nn(nn):
    """One extra neuron per hidden layer with zero incoming weight, bias and
    outgoing weight."""
    layers, pad_cols = [], False
    for W, b in nn.layers:
        if pad_cols:
            W = np.hstack([W, np.zeros((W.shape[0], 1))])
        layers.append((np.vstack([W, np.zeros((1, W.shape[1]))]), np.append(b, 0.0)))
        pad_cols = True
    Wl = np.hstack([nn.Wl, np.zeros((nn.Wl.shape[0], 1))])
    return nl.FeedForwardNN(Hx0=nn.Hx0, Hr0=nn.Hr0, layers=tuple(layers),
                            Wl=Wl, bl=nn.bl, activation=nn.activation)


REWRITES = {
    "duplicate": (lambda nn: duplicated_nn(nn, 2, np.random.default_rng(2024)), (10, 10)),
    "permute": (lambda nn: duplicated_nn(nn, 1, np.random.default_rng(2024)), (5, 5)),
    "pad": (zero_padded_nn, (6, 6)),
}


@pytest.fixture(scope="module", params=sorted(REWRITES))
def rewritten(request, pendulum):
    plant, nn, k_xi = pendulum
    rewrite, widths = REWRITES[request.param]
    return plant, rewrite(nn), k_xi, widths


def test_rewritten_network_same_function(pendulum, rewritten):
    _, nn, _ = pendulum
    _, nn2, _, widths = rewritten
    assert nn2.hidden_widths == widths
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, r = rng.normal(size=2), rng.normal(size=1)
        assert np.allclose(nl.forward(nn2, x, r).u, nl.forward(nn, x, r).u,
                           rtol=0.0, atol=1e-12)


def test_rewritten_network_global_infeasible(rewritten):
    plant, nn2, k_xi, _ = rewritten
    rep = run_verify(plant, nn2, k_xi, "global")
    assert rep["status"] == "infeasible"


def test_rewritten_network_local_fixed_trace(rewritten, d_ship):
    plant, nn2, k_xi, _ = rewritten
    rep = run_verify(plant, nn2, k_xi, "local-fixed", r=np.zeros(1), d=d_ship)
    assert rep["status"] == "feasible"
    assert np.trace(np.array(rep["P"])) == pytest.approx(REF_TRACE_P, abs=1e-4)


def test_rewritten_network_local_range_interval(rewritten, d_ship):
    plant, nn2, k_xi, _ = rewritten
    rep = run_verify(plant, nn2, k_xi, "local-range", r_nom=np.zeros(1), d=d_ship)
    assert rep["status"] == "feasible"
    lo, hi = rep["admissible_references"]["interval"]
    assert lo == pytest.approx(-REF_HALF_INTERVAL, abs=1e-4)
    assert hi == pytest.approx(REF_HALF_INTERVAL, abs=1e-4)
