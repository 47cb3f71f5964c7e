import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nnloop as nl
from conftest import stable_tanh_chords
from nnloop.errors import DimensionMismatch, NonPositiveD, StarOutsideBox
from nnloop.sectors import global_sectors, local_sectors, propagate_box


def tanh_net(widths, weights, biases=None, n_x=1):
    layers = []
    for i, W in enumerate(weights[:-1]):
        b = np.zeros(W.shape[0]) if biases is None else biases[i]
        layers.append((np.asarray(W, dtype=float), b))
    Wl = np.asarray(weights[-1], dtype=float)
    return nl.FeedForwardNN(
        Hx0=np.eye(n_x), Hr0=np.zeros((n_x, 1)),
        layers=tuple(layers), Wl=Wl, bl=np.zeros(Wl.shape[0]),
        activation=nl.Activation.tanh(),
    )


def chord_oracle(act, lo, hi, vs, n=200001):
    """Dense anchored-chord extrema, independent of the implementation."""
    v = np.linspace(lo, hi, n)
    if act.kind == "tanh":
        ch = stable_tanh_chords(v, vs)
    else:
        dv = v - vs
        keep = np.abs(dv) > 1e-12
        ch = (act(v[keep]) - act(vs)) / dv[keep]
    cands = np.concatenate([ch, [float(act.deriv(np.array([vs]))[0])]])
    return float(np.min(cands)), float(np.max(cands))


def test_box_collapses_with_tiny_d(pendulum):
    _plant, nn, _k = pendulum
    center = np.zeros(5)
    box = propagate_box(nn, center, 1e-9)
    for lo, hi in zip(box.v_lo, box.v_hi):
        assert np.all(hi - lo <= 1e-6)


def test_single_neuron_tanh_image():
    nn = tanh_net([1], [np.array([[1.0]]), np.array([[1.0]])])
    box = propagate_box(nn, np.zeros(1), 0.345)
    assert np.allclose(box.w_lo[0], [-math.tanh(0.345)])
    assert np.allclose(box.w_hi[0], [math.tanh(0.345)])


def test_sign_split_against_monte_carlo():
    W1 = np.array([[1.0], [-1.0]])
    nn = tanh_net([1, 2], [np.array([[1.0]]), W1, np.ones((1, 2))])
    box = propagate_box(nn, np.zeros(1), 0.7)
    rng = np.random.default_rng(0)
    v1 = rng.uniform(-0.7, 0.7, size=10000)
    v2 = W1 @ np.tanh(v1)[None, :]
    assert np.all(v2.min(axis=1) >= box.v_lo[1] - 1e-12)
    assert np.all(v2.max(axis=1) <= box.v_hi[1] + 1e-12)
    # enclosure is tight for this one-signed-row case
    assert np.allclose(v2.min(axis=1), box.v_lo[1], atol=1e-3)


def test_box_soundness_monte_carlo(pendulum):
    _plant, nn, _k = pendulum
    center = np.zeros(5)
    box = propagate_box(nn, center, 0.345)
    rng = np.random.default_rng(1)
    W1, b1 = nn.layers[1]
    for _ in range(10000 // 100):
        v1 = rng.uniform(box.v_lo[0], box.v_hi[0], size=(100, 5))
        v2 = np.tanh(v1) @ W1.T + b1
        assert np.all(v2 >= box.v_lo[1][None, :] - 1e-12)
        assert np.all(v2 <= box.v_hi[1][None, :] + 1e-12)


def test_nonpositive_d(pendulum):
    _plant, nn, _k = pendulum
    with pytest.raises(NonPositiveD):
        propagate_box(nn, np.zeros(5), 0.0)
    with pytest.raises(NonPositiveD):
        propagate_box(nn, np.zeros(5), np.array([0.3, 0.3, -0.1, 0.3, 0.3]))


def test_box_center_of_wrong_shape(pendulum):
    _plant, nn, _k = pendulum
    with pytest.raises(DimensionMismatch):
        propagate_box(nn, np.zeros(4), 0.3)


def test_tanh_sector_at_zero_anchor():
    nn = tanh_net([1], [np.array([[1.0]]), np.array([[1.0]])])
    box = propagate_box(nn, np.zeros(1), 0.345)
    trace = nl.forward(nn, np.zeros(1), np.zeros(1))
    secs = local_sectors(nn, box, trace.v)
    oracle_lo, oracle_hi = chord_oracle(nl.Activation.tanh(), -0.345, 0.345, 0.0)
    assert abs(secs.alpha_phi[0] - oracle_lo) <= 1e-6
    assert abs(secs.beta_phi[0] - oracle_hi) <= 1e-6
    assert secs.beta_phi[0] == 1.0
    # frozen oracle value: tanh(0.345)/0.345
    assert abs(oracle_lo - math.tanh(0.345) / 0.345) < 1e-9


@pytest.mark.parametrize("lo,hi,vs,expect", [
    (-1.0, 2.0, 1.0, (0.5, 1.0)),
    (-2.0, -0.5, -1.0, (0.0, 0.0)),
    (0.5, 2.0, 1.0, (1.0, 1.0)),
    (-1.0, 1.0, 0.0, (0.0, 1.0)),
    (-1.0, 3.0, -0.5, (0.0, 3.0 / 3.5)),
])
def test_relu_sectors_closed_form(lo, hi, vs, expect):
    from nnloop.sectors import _relu_sector

    assert _relu_sector(lo, hi, vs) == pytest.approx(expect, abs=1e-12)


def test_linear_sector_constant():
    nn = nl.FeedForwardNN(
        Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
        layers=((np.array([[1.0]]), np.zeros(1)),),
        Wl=np.ones((1, 1)), bl=np.zeros(1),
        activation=nl.Activation.linear(),
    )
    box = propagate_box(nn, np.array([0.3]), 5.0)
    secs = local_sectors(nn, box, [np.array([0.3])])
    assert secs.alpha_phi[0] == 1.0
    assert secs.beta_phi[0] == 1.0


@given(st.floats(-2.0, 2.0), st.floats(0.05, 3.0), st.floats(0.0, 1.0))
def test_tanh_sector_soundness(center, half, frac):
    from nnloop.sectors import _tanh_sector

    lo, hi = center - half, center + half
    vs = lo + frac * (hi - lo)
    a, b = _tanh_sector(lo, hi, vs)
    act = nl.Activation.tanh()
    o_lo, o_hi = chord_oracle(act, lo, hi, vs, n=20001)
    assert a <= o_lo + 1e-9
    assert b >= o_hi - 1e-9
    assert 0.0 <= a <= b <= 1.0


@given(st.floats(-1.5, 1.5), st.floats(0.05, 1.0), st.floats(1.01, 4.0))
def test_tanh_sector_monotone_in_box(vs, half, grow):
    from nnloop.sectors import _tanh_sector

    a1, b1 = _tanh_sector(vs - half, vs + half, vs)
    a2, b2 = _tanh_sector(vs - grow * half, vs + grow * half, vs)
    assert a2 <= a1 + 1e-12
    assert b2 >= b1 - 1e-12


def test_sector_monotonicity_full_network(pendulum):
    _plant, nn, _k = pendulum
    trace = nl.forward(nn, np.zeros(2), np.zeros(1))
    prev = None
    for d in (0.1, 0.2, 0.345, 0.7, 1.5):
        box = propagate_box(nn, trace.v[0], d)
        secs = local_sectors(nn, box, trace.v)
        if prev is not None:
            assert np.all(secs.alpha_phi <= prev.alpha_phi + 1e-12)
            assert np.all(secs.beta_phi >= prev.beta_phi - 1e-12)
        prev = secs


def test_global_bound_consistency(pendulum):
    _plant, nn, _k = pendulum
    trace = nl.forward(nn, np.array([0.05, -0.1]), np.zeros(1))
    box = propagate_box(nn, trace.v[0], 0.9)
    secs = local_sectors(nn, box, trace.v)
    assert np.all(secs.alpha_phi >= nn.activation.alpha)
    assert np.all(secs.beta_phi <= nn.activation.beta)


def test_sector_soundness_random_draws(pendulum):
    _plant, nn, _k = pendulum
    trace = nl.forward(nn, np.array([0.1, 0.05]), np.zeros(1))
    box = propagate_box(nn, trace.v[0], 0.345)
    secs = local_sectors(nn, box, trace.v)
    rng = np.random.default_rng(5)
    idx = 0
    for layer in range(nn.depth):
        lo, hi = box.v_lo[layer], box.v_hi[layer]
        vs = trace.v[layer]
        for j in range(lo.shape[0]):
            v = rng.uniform(lo[j], hi[j], size=2000)
            ch = stable_tanh_chords(v, float(vs[j]))
            assert np.all(ch >= secs.alpha_phi[idx] - 1e-9)
            assert np.all(ch <= secs.beta_phi[idx] + 1e-9)
            idx += 1


def test_star_outside_box(pendulum):
    _plant, nn, _k = pendulum
    box = propagate_box(nn, np.zeros(5), 0.1)
    bad = [np.full(5, 0.5), np.zeros(5)]
    with pytest.raises(StarOutsideBox):
        local_sectors(nn, box, bad)


def test_global_sectors_helper():
    secs = global_sectors(nl.Activation.tanh(), 7)
    assert np.all(secs.alpha_phi == 0.0)
    assert np.all(secs.beta_phi == 1.0)
    assert secs.n == 7


def sinh_chord(v, vs):
    """Anchored tanh chord from sinh(dv) / (dv cosh v cosh vs), an identity
    independent of the implementation's tanh-difference form (dv != 0)."""
    dv = v - vs
    return np.sinh(dv) / (dv * np.cosh(v) * np.cosh(vs))


def test_tanh_sector_contains_endpoint_chords_of_narrow_boxes():
    from nnloop.sectors import _tanh_chord, _tanh_sector

    rng = np.random.default_rng(11)
    for _ in range(4000):
        center = rng.uniform(-3.0, 3.0)
        half = 10.0 ** rng.uniform(-6.0, -3.0)
        lo, hi = center - half, center + half
        vs = rng.uniform(lo, hi)
        a, b = _tanh_sector(lo, hi, vs)
        for v in (lo, hi):
            exact = sinh_chord(v, vs)
            assert abs(float(_tanh_chord(v, vs)) - exact) <= 1e-15
            assert a <= exact <= b


def test_tanh_tangent_point_splits_chord_monotonicity():
    from nnloop.sectors import _tanh_chord, _tanh_tangent_root

    rng = np.random.default_rng(12)
    draws = np.concatenate([rng.uniform(-5.0, 5.0, 60),
                            rng.choice([-1.0, 1.0], 20) * 10.0 ** rng.uniform(-3, -1, 20)])
    for vs in draws:
        v_t = math.copysign(_tanh_tangent_root(abs(vs)), -vs)
        # the chord from vs touches tanh at v_t, on the other side of zero
        h = (1.0 - math.tanh(v_t) ** 2) * (v_t - vs) - (math.tanh(v_t) - math.tanh(vs))
        assert abs(h) <= 1e-10
        assert v_t * vs < 0.0
        left = v_t - np.linspace(6.0, 0.0, 601)
        right = v_t + np.linspace(0.0, 6.0, 601)
        assert np.all(np.diff(_tanh_chord(left, vs)) >= -1e-15)
        assert np.all(np.diff(_tanh_chord(right, vs)) <= 1e-15)
