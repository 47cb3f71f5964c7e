import math
import pickle
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nnloop as nl
from nnloop.closed_loop import _stepper
from nnloop.errors import DimensionMismatch
from nnloop.network import evaluate, load_nn, save_nn
from nnloop.plant import xtil_star_map
from test_metamorphic import duplicated_nn


def _small_nn(rng, widths, activation):
    """A random network on the pendulum's dimensions (n_x = 2, n_r = n_u = 1)
    with the given hidden widths."""
    layers, width = [], 3
    for n in widths:
        layers.append((rng.normal(size=(n, width)), rng.normal(size=n)))
        width = n
    return nl.FeedForwardNN(Hx0=rng.normal(size=(3, 2)),
                            Hr0=rng.normal(size=(3, 1)), layers=tuple(layers),
                            Wl=rng.normal(size=(1, width)),
                            bl=rng.normal(size=1), activation=activation)


def _stack_networks(pendulum):
    """Networks whose stacked passes must match single calls byte for byte:
    the shipped 10-neuron tanh controller, its 20- and 40-neuron duplicates,
    small relu and tanh networks whose layers have odd and even widths
    (an odd width is copied to aligned rows before the next product), and a
    width-1 relu network whose H_r0, layer and output matrices are 1x1.

    The width-1 network's output bias is -0.0, so an inactive neuron gives
    u = W_l 0.0 + (-0.0): 0.0 from a matrix product, but -0.0 from
    ``ndarray.dot``, which multiplies a 1x1 matrix as a scalar."""
    _plant, nn, _k_xi = pendulum
    rng = np.random.default_rng(33)
    width1 = nl.FeedForwardNN(Hx0=np.array([[0.8, -0.3]]),
                              Hr0=np.array([[-1.5]]),
                              layers=((np.array([[-2.0]]), np.array([-0.0])),),
                              Wl=np.array([[-0.7]]), bl=np.array([-0.0]),
                              activation=nl.Activation.relu())
    return [nn, duplicated_nn(nn, 2, np.random.default_rng(2024)),
            duplicated_nn(nn, 4, np.random.default_rng(2024)),
            _small_nn(rng, (3,), nl.Activation.relu()),
            _small_nn(rng, (4,), nl.Activation.relu()),
            _small_nn(rng, (3, 4), nl.Activation.tanh()), width1]


def test_zero_network_forward():
    nn = nl.FeedForwardNN(
        Hx0=np.zeros((2, 2)), Hr0=np.zeros((2, 1)),
        layers=((np.zeros((3, 2)), np.zeros(3)),),
        Wl=np.zeros((1, 3)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    tr = nl.forward(nn, np.array([1.0, -2.0]), np.array([0.5]))
    assert np.allclose(tr.u, 0.0)
    assert all(np.allclose(v, 0.0) for v in tr.v)
    assert all(np.allclose(w, 0.0) for w in tr.w)


def test_linear_reduction_composition():
    rng = np.random.default_rng(0)
    K1 = rng.normal(size=(3, 2))
    K2 = rng.normal(size=(1, 3))
    nn = nl.FeedForwardNN(
        Hx0=np.eye(2), Hr0=np.zeros((2, 1)),
        layers=((K1, np.zeros(3)),),
        Wl=K2, bl=np.zeros(1),
        activation=nl.Activation.linear(),
    )
    x = rng.normal(size=2)
    tr = nl.forward(nn, x, np.zeros(1))
    assert np.allclose(tr.u, K2 @ K1 @ x, atol=1e-14)


def test_scalar_tanh_oracle():
    nn = nl.FeedForwardNN(
        Hx0=np.array([[1.0]]), Hr0=np.zeros((1, 1)),
        layers=((np.array([[2.0]]), np.zeros(1)),),
        Wl=np.array([[3.0]]), bl=np.array([1.0]),
        activation=nl.Activation.tanh(),
    )
    tr = nl.forward(nn, np.array([0.5]), np.zeros(1))
    assert abs(tr.u[0] - (3.0 * math.tanh(1.0) + 1.0)) < 1e-12


def test_steady_forward_identical_path(pendulum):
    plant, nn, k_xi = pendulum
    ss = nl.steady_state(plant, nn, k_xi, np.array([0.1]))
    a = nl.steady_forward(nn, ss.x_star, np.array([0.1]))
    b = nl.forward(nn, ss.x_star, np.array([0.1]))
    assert all(np.array_equal(va, vb) for va, vb in zip(a.v, b.v))
    assert np.array_equal(a.u, b.u)


def test_output_error_stationary_input_is_bias():
    # With Hx0 = -C and Hr0 = I, v1_* = W0 (r - C x_*) + b0 = b0 for any r.
    rng = np.random.default_rng(1)
    plant = nl.Plant(A=[[0.2, 0.1], [0.0, 0.3]], B=[[1.0], [0.5]], C=[[1.0, 0.0]])
    b0 = rng.normal(size=3)
    nn = nl.FeedForwardNN(
        Hx0=-plant.C, Hr0=np.eye(1),
        layers=((rng.normal(size=(3, 1)), b0),),
        Wl=rng.normal(size=(1, 3)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    ssmap = nl.steady_state_map(plant)
    for _ in range(5):
        r = rng.normal(size=1)
        tr = nl.steady_forward(nn, ssmap.M @ r, r)
        assert np.allclose(tr.v[0], b0, atol=1e-12)


def test_io_maps_classification():
    C = np.array([[1.0, 0.0]])
    sf = nl.FeedForwardNN(
        Hx0=np.eye(2), Hr0=np.zeros((2, 1)),
        layers=((np.ones((2, 2)), np.zeros(2)),),
        Wl=np.ones((1, 2)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    assert nl.io_maps(sf, C) == (True, False)
    oe = nl.FeedForwardNN(
        Hx0=-C, Hr0=np.eye(1),
        layers=((np.ones((2, 1)), np.zeros(2)),),
        Wl=np.ones((1, 2)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    assert nl.io_maps(oe, C) == (False, True)
    dense = nl.FeedForwardNN(
        Hx0=np.array([[0.3, 0.7], [0.1, -0.2]]), Hr0=np.zeros((2, 1)),
        layers=((np.ones((2, 2)), np.zeros(2)),),
        Wl=np.ones((1, 2)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    assert nl.io_maps(dense, C) == (False, False)


def test_evaluate_row_of_one_is_bit_identical(pendulum):
    # The steady-state map evaluates stacks and single references through the
    # same pass; with one row it must give the vector call's bits, and so
    # must the closed loop's step.
    plant, _nn, k_xi = pendulum
    aug = nl.augment(plant, k_xi)
    rng = np.random.default_rng(31)
    for nn in _stack_networks(pendulum):
        transition = _stepper(aug, nn)
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 1.0)
            x = rng.normal(scale=scale, size=nn.n_x)
            r = rng.normal(scale=scale, size=nn.n_r)
            u = evaluate(nn, x, r)
            U = evaluate(nn, x[None, :], r[None, :])
            assert U.shape == (1, nn.n_u)
            assert U[0].tobytes() == u.tobytes()
            assert u.tobytes() == nl.forward(nn, x, r).u.tobytes()
            xt = np.concatenate([x, r])
            u_nn, xt_next = transition(xt, nn.Hr0 @ r, aug.Br @ r)
            assert u_nn.tobytes() == u.tobytes()
            want = aug.Atil @ xt + aug.Btil @ u + aug.Br @ r
            assert xt_next.tobytes() == want.tobytes()


def test_network_pickles_after_a_pass(pendulum):
    # A network holds no state from a pass: a pickled copy gives the same
    # bits.
    _plant, nn, _k_xi = pendulum
    x, r = np.array([0.1, -0.2]), np.array([0.05])
    u = evaluate(nn, x, r)
    copy = pickle.loads(pickle.dumps(nn))
    assert evaluate(copy, x, r).tobytes() == u.tobytes()


def test_network_equality_is_by_value(pendulum):
    # A pickled and a deep copy are equal; one changed weight, another
    # activation or another depth is not; like its arrays, a network has no
    # hash.
    _plant, nn, _k_xi = pendulum
    assert nn == pickle.loads(pickle.dumps(nn))
    assert nn == deepcopy(nn)
    assert nn != "network"
    W, b = nn.layers[-1]
    W = W.copy()
    W[0, 0] = np.nextafter(W[0, 0], np.inf)
    assert nn != nl.FeedForwardNN(nn.Hx0, nn.Hr0, nn.layers[:-1] + ((W, b),),
                                  nn.Wl, nn.bl, nn.activation)
    assert nn != nl.FeedForwardNN(nn.Hx0, nn.Hr0, nn.layers, nn.Wl, nn.bl,
                                  nl.Activation.relu())
    deeper = nl.FeedForwardNN(nn.Hx0, nn.Hr0,
                              nn.layers + ((np.eye(b.size), np.zeros(b.size)),),
                              nn.Wl, nn.bl, nn.activation)
    assert nn != deeper and deeper != nn
    with pytest.raises(TypeError):
        hash(nn)


def test_evaluate_stack_matches_rows(pendulum):
    rng = np.random.default_rng(32)
    for nn in _stack_networks(pendulum):
        X = rng.normal(scale=0.5, size=(256, nn.n_x))
        R = rng.normal(scale=0.5, size=(256, nn.n_r))
        U = evaluate(nn, X, R)
        rows = np.array([evaluate(nn, x, r) for x, r in zip(X, R)])
        assert U.shape == rows.shape == (256, nn.n_u)
        assert U.tobytes() == rows.tobytes()


def test_xtil_star_stack_matches_single_calls(pendulum):
    # Stack mode of the steady-state map: one aligned copy of the references
    # serves M, M_u and the network; each row is the single call's bytes,
    # for a strided column view of references, for a fresh stack, and at
    # r = +-0.0, where a 1x1 M_u or k_xi^-1 multiplied as a scalar would
    # give -0.0 where a matrix product gives 0.0.
    plant, _nn, k_xi = pendulum
    ssmap = nl.steady_state_map(plant)
    rng = np.random.default_rng(34)
    for nn in _stack_networks(pendulum):
        xtil_star = xtil_star_map(ssmap, nn, k_xi)
        for R in (np.linspace(-0.4, 0.4, 61)[:, None],
                  rng.uniform(-0.4, 0.4, size=(64, 1)),
                  np.array([[0.0], [-0.0]])):
            stack = xtil_star(R)
            single = np.array([xtil_star(r) for r in R])
            assert stack.shape == single.shape == (R.shape[0], 3)
            assert stack.tobytes() == single.tobytes()


def test_forward_dimension_mismatch(pendulum):
    _plant, nn, _k_xi = pendulum
    with pytest.raises(DimensionMismatch):
        nl.forward(nn, np.zeros(3), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        nl.forward(nn, np.zeros(2), np.zeros(2))


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_linear_activation_is_affine(xs, ys):
    rng = np.random.default_rng(7)
    nn = nl.FeedForwardNN(
        Hx0=rng.normal(size=(3, 2)), Hr0=rng.normal(size=(3, 2)),
        layers=((rng.normal(size=(4, 3)), rng.normal(size=4)),),
        Wl=rng.normal(size=(2, 4)), bl=rng.normal(size=2),
        activation=nl.Activation.linear(),
    )
    x1, r1 = np.array(xs[:2]), np.array(xs[2:])
    x2, r2 = np.array(ys[:2]), np.array(ys[2:])
    lhs = (nl.forward(nn, x1, r1).u + nl.forward(nn, x2, r2).u
           - nl.forward(nn, np.zeros(2), np.zeros(2)).u)
    rhs = nl.forward(nn, x1 + x2, r1 + r2).u
    scale = 1.0 + np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["tanh", "relu"])
def test_chord_slopes_within_global_bounds(kind):
    act = nl.Activation.tanh() if kind == "tanh" else nl.Activation.relu()
    rng = np.random.default_rng(11)
    v1 = rng.normal(scale=3.0, size=20000)
    v2 = rng.normal(scale=3.0, size=20000)
    keep = np.abs(v1 - v2) > 1e-9
    chords = (act(v1[keep]) - act(v2[keep])) / (v1[keep] - v2[keep])
    assert np.all(chords >= act.alpha - 1e-12)
    assert np.all(chords <= act.beta + 1e-12)


def test_network_json_roundtrip(tmp_path, pendulum):
    _plant, nn, _k_xi = pendulum
    path = tmp_path / "nn.json"
    save_nn(nn, path)
    back = load_nn(path)
    assert back.activation.kind == nn.activation.kind
    assert np.array_equal(back.Hx0, nn.Hx0)
    assert np.array_equal(back.Wl, nn.Wl)
    for (W1, b1), (W2, b2) in zip(back.layers, nn.layers):
        assert np.array_equal(W1, W2)
        assert np.array_equal(b1, b2)


def test_activation_validation():
    # An activation is its kind: the slopes are not arguments, and each kind
    # reports its own global slope bounds.
    with pytest.raises(ValueError):
        nl.Activation("sigmoid")
    with pytest.raises(TypeError):
        nl.Activation("tanh", 0.0, 0.5)
    slopes = {kind: (act.alpha, act.beta) for kind, act in (
        ("tanh", nl.Activation.tanh()), ("relu", nl.Activation.relu()),
        ("linear", nl.Activation.linear()))}
    assert slopes == {"tanh": (0.0, 1.0), "relu": (0.0, 1.0), "linear": (1.0, 1.0)}
    assert nl.Activation("tanh") == nl.Activation.tanh()
