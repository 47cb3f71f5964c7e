"""The solver-free infeasibility proof at a sector vertex (sdp.unstable_vertex)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nnloop as nl
from nnloop import lmi, sdp
from nnloop.cli import run_verify
from nnloop.errors import NonPositiveGamma, UnattainableTolerance
from test_metamorphic import duplicated_nn


def one_neuron_loop(k_xi, activation="tanh"):
    """Plant x+ = u, y = x, and a one-neuron network with zero output weight:
    every sector gain gives A_cl = Atil = [[0, k_xi], [-1, 1]], whose
    characteristic polynomial is z^2 - z + k_xi."""
    plant = nl.Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
        layers=((np.array([[0.7]]), np.zeros(1)),),
        Wl=np.zeros((1, 1)), bl=np.zeros(1),
        activation=nl.Activation(activation),
    )
    return plant, nn, k_xi


def global_vertices(nn):
    act = nn.activation
    return {"alpha": np.full(nn.n_hidden, act.alpha),
            "beta": np.full(nn.n_hidden, act.beta)}


def gate(plant, nn, k_xi, vertices=None):
    aug = nl.augment(plant, k_xi)
    sel = lmi.build_selectors(nn, aug.n_xtil)
    return sdp.unstable_vertex(aug, sel, vertices or global_vertices(nn))


def exact_matrix(A):
    """A float matrix as integers N and e with A == N / 2**e exactly."""
    return sdp._align([sdp._vec(row) for row in A])


def float_loop(aug, sel, s):
    """A_cl(s) in floating point, the reference for the exact one."""
    n = s.shape[0]
    M = np.hstack([aug.Atil, aug.Btil]) @ sel.RV
    K = np.linalg.solve(np.eye(n) - s[:, None] * sel.N1lm1,
                        s[:, None] * sel.Rphi[:n, :aug.n_xtil])
    return M[:, :aug.n_xtil] + M[:, aug.n_xtil:] @ K


def no_assembly(monkeypatch):
    """Make every LMI build and solve raise, so a verdict must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("LMI assembled or solved")
    for name in ("build_global", "build_local_fixed", "build_local_range"):
        monkeypatch.setattr(lmi, name, refuse)
    monkeypatch.setattr(sdp, "solve_conic", refuse)


def test_unit_circle_loop_is_proved():
    # z^2 - z + 1 has its roots e^{+-i pi/3} on the unit circle: not Schur,
    # and the strict stability block asks for strict decrease.
    plant, nn, k_xi = one_neuron_loop(1.0)
    N, e = exact_matrix(nl.augment(plant, k_xi).Atil)
    assert N == [[0, 1 << e], [-1 << e, 1 << e]]
    assert sdp._charpoly([[0, 1], [-1, 1]]) == [1, -1, 1]
    cert = gate(plant, nn, k_xi)
    assert cert["kind"] == "unstable_vertex"
    assert cert["vertex"] == "alpha"
    assert cert["spectral_radius"] == pytest.approx(1.0, abs=1e-12)
    rep = run_verify(plant, nn, k_xi, "global")
    assert rep["status"] == "infeasible"
    assert rep["iterations"] == 0
    assert rep["certificate"] == cert


@pytest.mark.parametrize("k_xi,proved", [(1.0 - 2.0**-30, False),
                                         (1.0 + 2.0**-30, True)])
def test_exact_test_decides_next_to_the_circle(k_xi, proved):
    # rho = sqrt(k_xi) lies within 1e-9 of one: the float pre-test sends
    # both loops on, and only the exact test tells them apart.
    plant, nn, k_xi = one_neuron_loop(k_xi)
    assert (gate(plant, nn, k_xi) is not None) == proved


def test_stable_vertex_yields_no_certificate(schur_scalar):
    plant, nn, k_xi = schur_scalar
    assert gate(plant, nn, k_xi) is None
    rep = run_verify(plant, nn, k_xi, "global")
    assert rep["status"] == "feasible"
    assert rep["certificate"] is None


@pytest.mark.parametrize("theorem,d", [("global", None)] + [
    ("local-fixed", d) for d in (3.0, 10.0, 30.0, 100.0, 1e4, 1e6)])
def test_pendulum_infeasible_at_a_vertex(pendulum, monkeypatch, theorem, d):
    plant, nn, k_xi = pendulum
    no_assembly(monkeypatch)
    rep = run_verify(plant, nn, k_xi, theorem, r=np.zeros(1), d=d)
    assert rep["status"] == "infeasible"
    assert rep["iterations"] == 0
    assert rep["certificate"]["kind"] == "unstable_vertex"
    assert rep["certificate"]["vertex"] == "alpha"
    assert rep["certificate"]["spectral_radius"] >= 1.0
    if theorem == "global":
        assert rep["certificate"]["spectral_radius"] == pytest.approx(1.0511, abs=1e-4)


def test_pendulum_d_2_5_infeasible_by_farkas_ray(pendulum, pendulum_aug):
    # Every vertex loop at d = 2.5 is stable (rho 0.991, 0.810, 0.810), yet
    # the LMI is infeasible: the verdict comes from a checked ray.
    plant, nn, k_xi = pendulum
    rep = run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=2.5)
    assert rep["status"] == "infeasible"
    assert rep["certificate"] is None
    assert rep["iterations"] > 0
    sel = lmi.build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    secs = nl.local_sectors(nn, nl.propagate_box(nn, trace.v[0], 2.5), trace.v)
    sol = sdp.solve(lmi.build_local_fixed(pendulum_aug, sel, secs, 2.5))
    assert sol.status == sdp.INFEASIBLE
    assert sol.farkas is not None


def test_wide_duplicate_global_proved_without_assembly(pendulum, monkeypatch):
    plant, nn, k_xi = pendulum
    wide = duplicated_nn(nn, 16, np.random.default_rng(2024))
    assert wide.n_hidden == 160
    no_assembly(monkeypatch)
    rep = run_verify(plant, wide, k_xi, "global")
    assert rep["status"] == "infeasible"
    assert rep["certificate"]["kind"] == "unstable_vertex"


def test_input_checked_before_a_vertex_proof(pendulum):
    # d = 3 is proved infeasible at a vertex; a bad tol or gamma is still
    # an input error, a NaN or infinite tol as much as one below MIN_TOL.
    plant, nn, k_xi = pendulum
    for tol, message in [(1e-14, "below 1e-12"), (np.nan, "finite"),
                         (np.inf, "finite")]:
        with pytest.raises(UnattainableTolerance, match=message):
            run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=3.0, tol=tol)
    with pytest.raises(NonPositiveGamma, match="finite and positive"):
        run_verify(plant, nn, k_xi, "local-range", r_nom=np.zeros(1), d=3.0,
                   gamma=np.inf)


@pytest.mark.parametrize("copies", [1, 3])
def test_exact_loop_is_the_float_loop(pendulum, pendulum_aug, copies):
    # The integer forward substitution through both hidden layers agrees with
    # the float closed loop to rounding, at every vertex of a local sector.
    plant, nn, k_xi = pendulum
    nn = duplicated_nn(nn, copies, np.random.default_rng(5))
    sel = lmi.build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    secs = nl.local_sectors(nn, nl.propagate_box(nn, trace.v[0], 3.0), trace.v)
    slope = nn.activation.deriv(np.concatenate(trace.v))
    for s in (secs.alpha_phi, secs.beta_phi, slope, np.zeros(nn.n_hidden)):
        N, e = sdp._exact_loop(pendulum_aug, sel, s)
        exact = np.array([[float(Fraction(v, 2**e)) for v in row] for row in N])
        assert np.allclose(exact, float_loop(pendulum_aug, sel, s),
                           rtol=0.0, atol=1e-13)


@settings(max_examples=300)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(0.05, 1.5))
def test_schur_cohn_agrees_with_eigvals(n, seed, scale):
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n)) * scale
    rho = float(np.max(np.abs(np.linalg.eigvals(A))))
    assume(abs(rho - 1.0) >= 1e-6)
    assert sdp._is_schur(*exact_matrix(A)) == (rho < 1.0)


def random_loop(rng):
    """A random plant with 1-2 states and a random tanh or relu network with
    1-2 hidden layers of 1-3 neurons each."""
    n_x = int(rng.integers(1, 3))
    plant = nl.Plant(A=rng.normal(size=(n_x, n_x)) * rng.uniform(0.2, 0.8),
                     B=rng.normal(size=(n_x, 1)), C=rng.normal(size=(1, n_x)))
    gain = rng.uniform(0.1, 1.5)
    layers, width = [], n_x
    for w in rng.integers(1, 4, size=int(rng.integers(1, 3))):
        layers.append((rng.normal(size=(w, width)) * gain, rng.normal(size=w) * 0.1))
        width = w
    nn = nl.FeedForwardNN(
        Hx0=np.eye(n_x), Hr0=np.zeros((n_x, 1)), layers=tuple(layers),
        Wl=rng.normal(size=(1, width)) * gain, bl=np.zeros(1),
        activation=nl.Activation(("tanh", "relu")[int(rng.integers(2))]))
    return plant, nn, rng.uniform(0.05, 0.5)


def test_no_vertex_proof_beside_a_certified_point():
    # A vertex proof claims that the global LMI has no point; sdp.solve must
    # then find none that certify passes.  The population has proofs at
    # both vertices and certified points, so a sign slip in the Lambda term
    # of the stability block shows here.
    rng = np.random.default_rng(11)
    seen = {"alpha": 0, "beta": 0, "feasible": 0}
    for _ in range(150):
        plant, nn, k_xi = random_loop(rng)
        aug = nl.augment(plant, k_xi)
        sel = lmi.build_selectors(nn, aug.n_xtil)
        act = nn.activation
        cert = sdp.unstable_vertex(aug, sel, global_vertices(nn))
        sol = sdp.solve(lmi.build_global(aug, sel, act.alpha, act.beta))
        if sol.status == sdp.FEASIBLE:
            assert cert is None, (plant, nn, k_xi, cert)
            seen["feasible"] += 1
        elif cert is not None:
            seen[cert["vertex"]] += 1
    assert min(seen.values()) >= 10, seen
