"""Optional cross-check of the built-in backend against an external conic
solver (skipped when cvxpy is not installed)."""

import numpy as np
import pytest

import nnloop as nl
from nnloop.lmi import build_selectors

cp = pytest.importorskip("cvxpy")


def _solve_with_cvxpy(system):
    theta = {v.name: (cp.Variable((v.dim, v.dim), symmetric=True)
                      if v.kind == "sym" else cp.Variable(v.dim))
             for v in system.variables}

    def matvar(v):
        return theta[v.name] if v.kind == "sym" else cp.diag(theta[v.name])

    def scalar_components():
        comps = []
        for v in system.variables:
            if v.kind == "sym":
                iu = np.triu_indices(v.dim)
                comps.extend(matvar(v)[i, j] for i, j in zip(*iu))
            else:
                comps.extend(theta[v.name][i] for i in range(v.dim))
        return comps

    cons = []
    for blk in system.blocks:
        # assemble via the stored coefficients: G0 + sum_i theta_i coeffs_i
        expr = blk.G0 + sum(c * Cm for c, Cm in zip(scalar_components(),
                                                    blk.coeffs))
        cons.append(expr >> blk.delta * np.eye(blk.order))
    if system.objective is None:
        objective = cp.Minimize(0)
    else:
        objective = cp.Minimize(
            sum(w * c for w, c in zip(system.objective, scalar_components())))
    prob = cp.Problem(objective, cons)
    try:
        prob.solve(solver=cp.CLARABEL)
    except cp.error.SolverError:
        return "solver_error", None
    return prob.status, prob.value


def test_local_fixed_objective_matches_external(pendulum, pendulum_aug, d_ship):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    box = nl.propagate_box(nn, trace.v[0], d_ship)
    secs = nl.local_sectors(nn, box, trace.v)
    system = nl.build_local_fixed(pendulum_aug, sel, secs, d_ship)
    ours = nl.solve_certified(system)
    assert ours.status == "feasible"
    status, value = _solve_with_cvxpy(system)
    assert status in ("optimal", "optimal_inaccurate")
    assert ours.objective_value == pytest.approx(value, rel=1e-4)


def test_status_agreement_on_random_global_instances():
    rng = np.random.default_rng(321)
    checked = 0
    while checked < 8:
        n_x = int(rng.integers(2, 4))
        plant = nl.Plant(A=rng.normal(size=(n_x, n_x)) * 0.6,
                         B=rng.normal(size=(n_x, 1)),
                         C=rng.normal(size=(1, n_x)))
        W0 = rng.normal(size=(3, n_x)) * 0.5
        Wl = rng.normal(size=(1, 3)) * 0.5
        nn = nl.FeedForwardNN(Hx0=np.eye(n_x), Hr0=np.zeros((n_x, 1)),
                              layers=((W0, np.zeros(3)),), Wl=Wl,
                              bl=np.zeros(1),
                              activation=nl.Activation.linear())
        aug = nl.augment(plant, 0.5)
        K = Wl @ W0
        rho = max(abs(np.linalg.eigvals(
            aug.Atil + aug.Btil @ np.hstack([K, np.zeros((1, 1))]))))
        if 0.9 <= rho <= 1.1:
            continue
        checked += 1
        sel = build_selectors(nn, aug.n_xtil)
        system = nl.build_global(aug, sel, 1.0, 1.0)
        ours = nl.solve_certified(system)
        status, _ = _solve_with_cvxpy(system)
        if status in ("optimal", "optimal_inaccurate"):
            assert ours.status == "feasible"
        elif status in ("infeasible", "infeasible_inaccurate"):
            assert ours.status == "infeasible"
        # external solver errors carry no information to compare against
