import dataclasses
import time

import numpy as np
import pytest

import nnloop as nl
from nnloop import sdp
from nnloop.ipm import solve_conic
from nnloop.sdp import check_farkas
from nnloop.lmi import LMIBlock, LMISystem, VarSpec, build_selectors


def scalar_system(objective=True):
    """One scalar variable P with P > 0 (margin delta) and min-trace."""
    var = VarSpec("P", "sym", 1)
    blk = LMIBlock(name="P_pd", G0=np.zeros((1, 1)), coeffs=np.ones((1, 1, 1)),
                   delta=1e-7)
    obj = np.ones(1) if objective else None
    return LMISystem(variables=(var,), blocks=(blk,), objective=obj)


def contradictory_system():
    var = VarSpec("P", "sym", 1)
    b1 = LMIBlock(name="ge_one", G0=-np.eye(1), coeffs=np.ones((1, 1, 1)))
    b2 = LMIBlock(name="le_minus_one", G0=-np.eye(1), coeffs=-np.ones((1, 1, 1)))
    return LMISystem(variables=(var,), blocks=(b1, b2), objective=None)


def test_scalar_toy_minimum_at_margin():
    # optimum sits at the strictness margin; accuracy tracks the gap tol
    sol = nl.solve_certified(scalar_system())
    assert sol.status == "feasible"
    assert abs(sol.P[0, 0] - 1e-7) <= 2e-8
    tight = nl.solve(scalar_system(), tol=1e-12)
    assert abs(tight.P[0, 0] - 1e-7) <= 1e-10


def test_contradictory_system_infeasible():
    sol = nl.solve_certified(contradictory_system())
    assert sol.status == "infeasible"
    assert sol.farkas is not None
    assert sol.farkas["violation"] < -0.5  # <G0, X> = -1 at the certificate


def _gate_blocks(g0_first=-1.0):
    """Raw blocks g0_first + P > 0 and -1 - P > 0, contradictory for
    g0_first <= 1: X = (1/2, 1/2) has equality residual 0 and
    <G0, X> = (g0_first - 1) / 2."""
    return [LMIBlock("ge", np.array([[g0_first]]), np.ones((1, 1, 1))),
            LMIBlock("le", -np.eye(1), -np.ones((1, 1, 1)))]


def _gate_ray(skew=0.0):
    return [np.array([[0.5 + skew]]), np.array([[0.5 - skew]])]


def test_farkas_gate_accepts_exact_certificate():
    cert = check_farkas(_gate_blocks(), _gate_ray(), 1e-8)
    assert cert is not None
    assert cert["equality_residual"] == 0.0
    assert cert["violation"] == -1.0
    # a matrix block: sum_i y_i E_ii >= I and -y_1 - y_2 >= 1
    basis = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    blocks = [LMIBlock("diag", -np.eye(2), basis),
              LMIBlock("sum", -np.eye(1), -np.ones((2, 1, 1)))]
    cert = check_farkas(blocks, [np.eye(2) / 3, np.eye(1) / 3], 1e-8)
    assert cert is not None and cert["violation"] == pytest.approx(-1.0)


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_farkas_gate_rejects_equality_residual(tol):
    # the residual 2 skew is divided by 1 + max|coeffs| = 2
    eq_tol = max(1e3 * tol, 1e-6)
    assert check_farkas(_gate_blocks(), _gate_ray(0.5 * eq_tol), tol) is not None
    assert check_farkas(_gate_blocks(), _gate_ray(2.0 * eq_tol), tol) is None


def test_farkas_gate_rejects_positive_g0_term():
    # <G0, X> = v is allowed up to eq_tol (1 + max|G0|) = eq_tol (2 + 2 v)
    eq_tol = 1e-5
    for v, passes in ((1.5 * eq_tol, True), (3.0 * eq_tol, False)):
        cert = check_farkas(_gate_blocks(1.0 + 2.0 * v), _gate_ray(), 1e-8)
        assert (cert is not None) == passes
        if passes:
            assert cert["violation"] == pytest.approx(v)


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
    assert cert.status == "feasible"

    rng = np.random.default_rng(1)
    S = rng.normal(size=(3, 3))
    bad_values = dict(sol.values)
    bad_values["P"] = sol.P + 0.1 * (S + S.T)
    bad = dataclasses.replace(sol, values=bad_values)
    cert_bad = nl.certify(system, bad)
    assert cert_bad.status == "inaccurate"
    assert min(cert_bad.margins.values()) < 0.0


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
    assert cert.status == "inaccurate"
    assert cert.margins["Lambda_nn"] < 0.0


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


def test_solve_tol_argument():
    sol = nl.solve(scalar_system(), tol=1e-6)
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
    loose = run_verify(plant, nn, 0.1, "global", tol=0.1)
    assert loose["status"] != "infeasible"


def test_feasible_verdict_certifies_once(pendulum, d_ship, monkeypatch):
    from nnloop.cli import run_verify

    calls = []
    margins = sdp._margins
    monkeypatch.setattr(sdp, "_margins",
                        lambda *args: calls.append(1) or margins(*args))
    plant, nn, k_xi = pendulum
    rep = run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=d_ship)
    assert rep["status"] == "feasible"
    assert len(calls) == 1


@pytest.mark.parametrize("d", [30.0, 100.0, 1e4, 1e6])
def test_tau_underflow_warns_nothing(pendulum, pendulum_aug, recwarn, d):
    # Large boxes are provably infeasible: tau heads to 0 along the ray, and
    # the run must end with a checked Farkas certificate, not a
    # divide-by-zero warning.
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    secs = nl.local_sectors(nn, nl.propagate_box(nn, trace.v[0], d), trace)
    sol = sdp.solve(nl.build_local_fixed(pendulum_aug, sel, secs, d))
    assert sol.status == sdp.INFEASIBLE
    assert sol.farkas is not None
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_ipm_simple_bound_problem():
    # minimize y subject to y >= 1 (one 1x1 block), solved to tolerance
    blk = LMIBlock("b", -np.eye(1), np.ones((1, 1, 1)))
    res = solve_conic([blk], np.ones(1), tol=1e-9)
    assert res.status == "optimal"
    assert res.y[0] == pytest.approx(1.0, abs=1e-6)


def _sym(rng, k):
    A = rng.normal(size=(k, k))
    return A + A.T


def _bounded_blocks(rng, orders, m):
    """Blocks I + sum_i y_i C_i with random symmetric C_i: y = 0 is strictly
    feasible, and with c_i = sum_b tr C_{b,i} so is Z = I, so the minimum is
    attained."""
    return [LMIBlock(f"b{j}", np.eye(k), np.stack([_sym(rng, k) for _ in range(m)]))
            for j, k in enumerate(orders)]


def _block_diag(name, a, b):
    ka, kb = a.order, b.order

    def join(A, B):
        return np.block([[A, np.zeros((ka, kb))], [np.zeros((kb, ka)), B]])

    return LMIBlock(name, join(a.G0, b.G0),
                    np.stack([join(A, B) for A, B in zip(a.coeffs, b.coeffs)]))


def test_solve_conic_invariant_to_block_order_and_splitting():
    # Blocks are stacked by order inside the solver; neither the order of the
    # caller's list nor splitting a block-diagonal block into its diagonal
    # blocks (same iterates in exact arithmetic) may change the run.
    rng = np.random.default_rng(3)
    m = 4
    blocks = _bounded_blocks(rng, [3, 2, 3, 2, 4, 1], m)
    c = sum(np.einsum("ijj->i", blk.coeffs) for blk in blocks)
    ref = solve_conic(blocks, c)
    assert ref.status == "optimal"

    perm = [4, 1, 5, 3, 0, 2]
    permuted = solve_conic([blocks[i] for i in perm], c)
    joined = [blocks[0], blocks[1], _block_diag("d", blocks[2], blocks[3]),
              blocks[4], blocks[5]]
    merged = solve_conic(joined, c)
    for res in (permuted, merged):
        assert res.status == ref.status
        assert res.iterations == ref.iterations
        assert np.max(np.abs(res.y - ref.y)) <= 1e-9


def test_solve_conic_ray_in_caller_order(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    system = nl.build_global(pendulum_aug, sel, nn.activation.alpha,
                             nn.activation.beta)
    blocks, _ = sdp._solver_blocks(system)
    c = np.zeros(system.n_scalars)
    tol = 1e-8

    def ray(given):
        res = solve_conic(given, c, tol=tol)
        assert res.status == "infeasible"
        assert [Zb.shape for Zb in res.Z] == [(blk.order,) * 2 for blk in given]
        cert = check_farkas(given, res.Z, tol)
        assert cert is not None
        assert cert["equality_residual"] <= tol
        return res

    ref = ray(blocks)
    for perm in ([2, 0, 1], [1, 2, 0]):
        res = ray([blocks[i] for i in perm])
        assert res.iterations == ref.iterations
        for Zb, i in zip(res.Z, perm):
            assert np.max(np.abs(Zb - ref.Z[i])) <= 1e-9
    # A repeated order-3 block after the order-10 one interleaves the order
    # groups, so the stacked ray must be put back into the caller's order.
    ray(blocks + [blocks[1]])


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
        blocks.append(LMIBlock(name=f"lyap_{k}", G0=-F0, coeffs=-coeffs,
                               delta=1e-7))
        orders.append(n_p)
    F0, coeffs = _materialize_for_test((var_p, var_l), lambda P, Lambda: P, n_p)
    blocks.append(LMIBlock(name="P_pd", G0=F0, coeffs=coeffs, delta=1e-7))
    F0, coeffs = _materialize_for_test((var_p, var_l),
                                       lambda P, Lambda: Lambda, n_lam)
    blocks.append(LMIBlock(name="Lam", G0=F0, coeffs=coeffs))
    orders += [n_p, n_lam]

    # one coupling row block to reach total order ~150
    row = rng.normal(size=(1, n_p))

    def assemble_row(P, Lambda):
        return np.block([[np.array([[25.0]]), row], [row.T, P]])

    F0, coeffs = _materialize_for_test((var_p, var_l), assemble_row, n_p + 1)
    blocks.append(LMIBlock(name="row", G0=F0, coeffs=coeffs))
    orders.append(n_p + 1)

    def assemble_head(P, Lambda):
        return Lambda[:6, :6]

    F0, coeffs = _materialize_for_test((var_p, var_l), assemble_head, 6)
    blocks.append(LMIBlock(name="lam_head", G0=F0, coeffs=coeffs))
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
