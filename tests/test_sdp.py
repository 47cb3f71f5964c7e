import dataclasses
import time

import numpy as np
import pytest

import nnloop as nl
from nnloop import sdp
from nnloop.ipm import ConeBlock, solve_conic
from nnloop.lmi import LMIBlock, LMISystem, VarSpec, build_selectors


def scalar_system(objective=True):
    """One scalar variable P with P > 0 (margin delta) and min-trace."""
    var = VarSpec("P", "sym", 1)
    blk = LMIBlock(name="P_pd", sense="strict_pos",
                   F0=np.zeros((1, 1)), coeffs=np.ones((1, 1, 1)),
                   delta=1e-7)
    obj = np.ones(1) if objective else None
    return LMISystem(variables=(var,), blocks=(blk,), objective=obj)


def contradictory_system():
    var = VarSpec("P", "sym", 1)
    b1 = LMIBlock(name="ge_one", sense="nonneg",
                  F0=-np.eye(1), coeffs=np.ones((1, 1, 1)))
    b2 = LMIBlock(name="le_minus_one", sense="nonneg",
                  F0=-np.eye(1), coeffs=-np.ones((1, 1, 1)))
    return LMISystem(variables=(var,), blocks=(b1, b2), objective=None)


def test_scalar_toy_minimum_at_margin():
    # optimum sits at the strictness margin; accuracy tracks the gap tol
    sol = nl.solve_certified(scalar_system())
    assert sol.status == "feasible"
    assert abs(sol.P[0, 0] - 1e-7) <= 2e-8
    tight = nl.solve(scalar_system(), nl.SolveOptions(tol=1e-12))
    assert abs(tight.P[0, 0] - 1e-7) <= 1e-10


def test_contradictory_system_infeasible():
    sol = nl.solve_certified(contradictory_system())
    assert sol.status == "infeasible"
    assert sol.farkas is not None
    assert sol.farkas["violation"] < -0.5  # <F0, X> = -1 at the certificate


def test_thm1_scalar_schur_with_lyapunov_decrease(schur_scalar):
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    sol = nl.solve_certified(nl.build_global(aug, sel, 1.0, 1.0))
    assert sol.status == "feasible"
    P = sol.P
    rng = np.random.default_rng(0)
    xt = rng.normal(size=2)
    for _ in range(1000):
        v_now = xt @ P @ xt
        xt = nl.step(aug, nn, xt, np.zeros(1))
        v_next = xt @ P @ xt
        if v_now < 1e-18:
            break
        assert v_next < v_now


def test_certified_decrease_rate(schur_scalar):
    # V decreases by at least the certified stability-block margin per step:
    # V(x+) - V(x) <= -(delta + margin) |z|^2 <= -eps |e|^2.
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    system = nl.build_global(aug, sel, 1.0, 1.0)
    sol = nl.solve_certified(system)
    assert sol.status == "feasible"
    stab = next(b for b in system.blocks if b.name == "stability")
    eps = stab.delta + sol.margins["stability"]
    P = sol.P
    rng = np.random.default_rng(2)
    xt = rng.normal(size=2)
    for _ in range(1000):
        e = xt.copy()
        v_now = float(e @ P @ e)
        if v_now < 1e-18:
            break
        xt = nl.step(aug, nn, xt, np.zeros(1))
        v_next = float(xt @ P @ xt)
        slack = 1e-9 * (1.0 + v_now)
        assert v_next - v_now <= -eps * float(e @ e) + slack


def test_certify_downgrades_perturbed_P(thm2_report, pendulum, pendulum_aug,
                                        d_ship):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    box = nl.propagate_box(nn, trace.v[0], d_ship)
    secs = nl.local_sectors(nn, box, trace)
    system = nl.build_local_fixed(pendulum_aug, sel, secs, d_ship)
    sol = nl.solve(system)
    assert sol.status == "feasible"
    cert = nl.certify(system, sol)
    assert cert.ok and cert.status == "feasible"

    rng = np.random.default_rng(1)
    S = rng.normal(size=(3, 3))
    bad_values = dict(sol.values)
    bad_values["P"] = sol.P + 0.1 * (S + S.T)
    bad = dataclasses.replace(sol, values=bad_values)
    cert_bad = nl.certify(system, bad)
    assert not cert_bad.ok
    assert cert_bad.status == "inaccurate"


def test_certify_flags_negative_lambda(schur_scalar):
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    system = nl.build_global(aug, sel, 1.0, 1.0)
    sol = nl.solve(system)
    assert sol.status == "feasible"
    bad_values = dict(sol.values)
    lam = np.array(sol.Lambda, dtype=float)
    lam[0, 0] = -1e-6
    bad_values["Lambda"] = lam
    cert = nl.certify(system, dataclasses.replace(sol, values=bad_values))
    assert not cert.ok


def test_certify_requires_feasible(schur_scalar):
    sol = nl.solve(contradictory_system())
    with pytest.raises(ValueError):
        nl.certify(contradictory_system(), sol)


def test_deterministic_resolve(schur_scalar):
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    system = nl.build_global(aug, sel, 1.0, 1.0)
    s1 = nl.solve(system)
    s2 = nl.solve(system)
    assert s1.status == s2.status
    assert np.array_equal(s1.y, s2.y)
    assert s1.iterations == s2.iterations


def test_feasible_margins_never_negative(thm2_report):
    assert min(thm2_report["margins"].values()) >= 0.0


def test_solve_options_tolerance():
    sol = nl.solve(scalar_system(), nl.SolveOptions(tol=1e-6))
    assert sol.status == "feasible"


def test_loose_tol_does_not_loosen_farkas_gate():
    # A feasible loop (global margin about +0.07) must not be reported
    # infeasible because --tol is loose: the Farkas re-check on the raw data
    # runs at the default tolerance however large tol is.
    from nnloop.cli import run_verify

    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
        layers=((np.array([[0.3]]), np.zeros(1)),),
        Wl=np.zeros((1, 1)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    rep = run_verify(plant, nn, 0.1, "global")
    assert rep["status"] == "feasible"
    assert min(rep["margins"].values()) > 0.05
    loose = run_verify(plant, nn, 0.1, "global", options=nl.SolveOptions(tol=0.1))
    assert loose["status"] != "infeasible"


def test_ipm_simple_bound_problem():
    # minimize y subject to y >= 1 (one 1x1 block), solved to tolerance
    blk = ConeBlock("b", -np.eye(1), np.ones((1, 1, 1)))
    res = solve_conic([blk], np.ones(1), tol=1e-9)
    assert res.status == "optimal"
    assert res.y[0] == pytest.approx(1.0, abs=1e-6)


def test_desk_scale_capability():
    # total matrix order ~150, 200 scalar variables, under 30 s.
    rng = np.random.default_rng(42)
    n_p, n_lam = 19, 10
    var_p = VarSpec("P", "sym", n_p)      # 190 scalars
    var_l = VarSpec("Lambda", "diag", n_lam)  # 10 scalars -> 200 total
    m = var_p.n_scalars + var_l.n_scalars
    assert m == 200

    blocks = []
    orders = []
    # five Lyapunov blocks built as contractions in a common random metric,
    # so a shared P is guaranteed to exist
    W = rng.normal(size=(n_p, n_p))
    P0 = W @ W.T + n_p * np.eye(n_p)
    evals, evecs = np.linalg.eigh(P0)
    P0_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    P0_ihalf = evecs @ np.diag(evals**-0.5) @ evecs.T
    for k in range(5):
        Ck = rng.normal(size=(n_p, n_p))
        Ck *= 0.9 / np.linalg.norm(Ck, 2)
        A = P0_ihalf @ Ck @ P0_half

        def assemble(P, Lambda, A=A):
            return A.T @ P @ A - P

        F0, coeffs = _materialize_for_test((var_p, var_l), assemble, n_p)
        blocks.append(LMIBlock(name=f"lyap_{k}", sense="strict_neg",
                               F0=F0, coeffs=coeffs, delta=1e-7))
        orders.append(n_p)
    F0, coeffs = _materialize_for_test((var_p, var_l), lambda P, Lambda: P, n_p)
    blocks.append(LMIBlock(name="P_pd", sense="strict_pos", F0=F0,
                           coeffs=coeffs, delta=1e-7))
    F0, coeffs = _materialize_for_test((var_p, var_l),
                                       lambda P, Lambda: Lambda, n_lam)
    blocks.append(LMIBlock(name="Lam", sense="nonneg", F0=F0, coeffs=coeffs))
    orders += [n_p, n_lam]

    # one coupling row block to reach total order ~150
    row = rng.normal(size=(1, n_p))

    def assemble_row(P, Lambda):
        return np.block([[np.array([[25.0]]), row], [row.T, P]])

    F0, coeffs = _materialize_for_test((var_p, var_l), assemble_row, n_p + 1)
    blocks.append(LMIBlock(name="row", sense="nonneg", F0=F0, coeffs=coeffs))
    orders.append(n_p + 1)

    def assemble_head(P, Lambda):
        return Lambda[:6, :6]

    F0, coeffs = _materialize_for_test((var_p, var_l), assemble_head, 6)
    blocks.append(LMIBlock(name="lam_head", sense="nonneg", F0=F0, coeffs=coeffs))
    orders.append(6)
    assert sum(orders) == 150

    system = LMISystem(variables=(var_p, var_l), blocks=tuple(blocks),
                       objective=None)
    t0 = time.perf_counter()
    sol = nl.solve(system)
    elapsed = time.perf_counter() - t0
    assert sol.status == "feasible"
    assert elapsed < 30.0


def _materialize_for_test(variables, assemble, size):
    zeros = {v.name: np.zeros((v.dim, v.dim)) for v in variables}
    F0 = np.asarray(assemble(**zeros), dtype=float)
    coeffs = []
    for v in variables:
        for E in v.basis():
            args = dict(zeros)
            args[v.name] = E
            coeffs.append(np.asarray(assemble(**args), dtype=float) - F0)
    return F0, np.array(coeffs)
