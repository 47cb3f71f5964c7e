import dataclasses
import time

import numpy as np
import pytest

import nnloop as nl
from nnloop import ipm, sdp
from nnloop.ipm import solve_conic
from nnloop.sdp import check_farkas
from nnloop.cli import run_verify
from nnloop.lmi import LMIBlock, LMISystem, VarSpec, build_selectors
from test_metamorphic import REF_HALF_INTERVAL, REF_TRACE_P, duplicated_nn


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
    secs = nl.local_sectors(nn, box, trace.v)
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


def test_shipped_local_solves_keep_iterations_and_values(thm2_report, thm3_report):
    # Both shipped local theorems, run_verify at default options, are decided
    # in 22-26 iterations, so a faster solver cannot buy its time with
    # iterations; trace(P) and the interval stay where the solves land them.
    for rep in (thm2_report, thm3_report):
        assert rep["status"] == "feasible"
        assert 22 <= rep["iterations"] <= 26
    assert abs(np.trace(np.array(thm2_report["P"])) - 12.3017319185) <= 1e-8
    lo, hi = thm3_report["admissible_references"]["interval"]
    assert abs(hi - 0.26516668867) <= 1e-8
    assert abs(lo + 0.26516668867) <= 1e-8


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


@pytest.mark.parametrize("max_iter,status", [(22, sdp.FEASIBLE),
                                             (16, sdp.SOLVER_ERROR)])
def test_verdict_from_evidence_at_iteration_budget(pendulum, d_ship, monkeypatch,
                                                   max_iter, status):
    # A run cut by the iteration budget is judged by what it returns: at 22
    # iterations the shipped local-fixed run has a point that certify
    # passes, at 16 it has no point and no ray.
    from nnloop import ipm

    monkeypatch.setattr(ipm, "MAX_ITER", max_iter)
    plant, nn, k_xi = pendulum
    rep = run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=d_ship)
    assert rep["status"] == status
    if status == sdp.FEASIBLE:
        assert min(rep["margins"].values()) >= 0.0


def _record_iterates(monkeypatch):
    """(iteration, y, objective) of every iterate of the next runs, from the
    IPMResult the solver makes of it (a ray or a run without a point makes
    one with no y)."""
    seen, make = [], ipm.IPMResult

    def record(*args, **kwargs):
        res = make(*args, **kwargs)
        if res.y is not None:
            seen.append((res.iterations, res.y, res.objective))
        return res

    monkeypatch.setattr(ipm, "IPMResult", record)
    return seen


@pytest.mark.parametrize("theorem,max_iter,tol", [
    (theorem, max_iter, 1e-8) for theorem in ("local-fixed", "local-range")
    for max_iter in (21, 22, 23)] + [("local-fixed", 200, 1e-10)])
def test_deferred_gate_returns_the_every_iterate_choice(
        pendulum, pendulum_aug, d_ship, monkeypatch, theorem, max_iter, tol):
    # The solver factors only an iterate that meets the tolerances, and a run
    # cut by MAX_ITER or stalled (tol 1e-10) checks the rest at its end.  Its
    # y must be the one that checking every iterate as it comes gives: the
    # lowest objective among the iterates whose blocks pass Cholesky, the
    # later one on ties.
    system = _pendulum_system(pendulum, pendulum_aug, theorem, d_ship)
    monkeypatch.setattr(ipm, "MAX_ITER", max_iter)
    seen = _record_iterates(monkeypatch)
    res = solve_conic(system.blocks, system.objective, tol=tol)
    assert res.status == ("stalled" if max_iter == 200 else "max_iter")
    assert [it for it, _, _ in seen] == list(range(res.iterations + 1))
    cone = ipm._group(system.blocks, system.n_scalars)
    best = None
    for _, y, objective in seen:
        if ipm._positive_definite(cone, y) and (best is None or objective <= best[1]):
            best = y, objective
    if best is None:
        assert res.y is None and max_iter != 200
    else:
        assert np.array_equal(res.y, best[0]) and res.objective == best[1]


def test_optimal_run_factors_one_iterate(pendulum, pendulum_aug, d_ship, monkeypatch):
    # Cholesky decides nothing before an iterate meets the tolerances: the
    # shipped local-fixed run factors its blocks at the optimum only.
    system = _pendulum_system(pendulum, pendulum_aug, "local-fixed", d_ship)
    calls, gate = [], ipm._positive_definite
    monkeypatch.setattr(ipm, "_positive_definite",
                        lambda *args: calls.append(1) or gate(*args))
    res = solve_conic(system.blocks, system.objective)
    assert res.status == res.reason == "optimal" and len(calls) == 1


def test_gate_refuses_blocks_that_overflow():
    # y is finite, but S(y) = I + y_1 C_1 + y_2 C_2 overflows to inf in its
    # (0, 0) entry, which Cholesky passes through: in a stack of order 2 and
    # in the orthant alike.
    C = np.array([[[1.0, 0.5], [0.5, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    for blk, shape in ((LMIBlock("stack", np.eye(2), C), (1, 2, 2)),
                       (LMIBlock("orthant", np.eye(1), C[:, :1, :1]), (1,))):
        cone = ipm._group([blk], 2)
        assert [grp.shape for grp in cone] == [shape]
        assert ipm._positive_definite(cone, np.array([1.0, 1.0]))
        with np.errstate(over="ignore"):  # as inside solve_conic
            assert not ipm._positive_definite(cone, np.array([1e308, 1e308]))


@pytest.mark.parametrize("P01,P00", [(1e10, 1.0), (0.0, np.nan)], ids=["inf", "nan"])
def test_certify_refuses_a_block_value_that_is_not_finite(P01, P00):
    # One block [[P00, 1e300 P01], [1e300 P01, P11]]: at P01 = 1e10 its value
    # holds inf, and with P00 nan eigvalsh can return finite eigenvalues.
    # Neither point is certified.
    var = VarSpec("P", "sym", 2)
    weight = np.array([[1.0, 1e300], [1e300, 1.0]])
    coeffs = np.stack([weight * var.unpack(e) for e in np.eye(var.n_scalars)])
    system = LMISystem(variables=(var,), blocks=(LMIBlock("B", np.zeros((2, 2)), coeffs),))
    P = np.array([[P00, P01], [P01, 1.0]])
    with np.errstate(over="ignore"):
        value = system.block_value(system.blocks[0], system.pack({"P": P}))
    assert not np.isfinite(value).all()
    sol = sdp.certify(system, sdp.SDPSolution(status=sdp.FEASIBLE, values={"P": P}))
    assert sol.status == sdp.INACCURATE and np.isnan(sol.margins["B"])


@pytest.mark.parametrize("d", [30.0, 100.0, 1e4, 1e6])
def test_tau_underflow_warns_nothing(pendulum, pendulum_aug, recwarn, d):
    # Large boxes are provably infeasible: tau heads to 0 along the ray, and
    # the run must end with a checked Farkas certificate, not a
    # divide-by-zero warning.
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    secs = nl.local_sectors(nn, nl.propagate_box(nn, trace.v[0], d), trace.v)
    sol = sdp.solve(nl.build_local_fixed(pendulum_aug, sel, secs, d))
    assert sol.status == sdp.INFEASIBLE
    assert sol.farkas is not None
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


TOL_LADDER = [1e-12, 2e-12, 5e-12, 1e-11, 2e-11, 5e-11, 1e-10, 2e-10, 5e-10,
              1e-9, 2e-9, 5e-9, 1e-8, 2e-8, 5e-8, 1e-7, 2e-7, 5e-7, 1e-6]
# (theorem, tol, permutation seed of the shipped network or None)
ACCEPTED_TOL_CASES = (
    [(theorem, tol, None) for theorem in ("global", "local-fixed", "local-range")
     for tol in TOL_LADDER]
    + [("local-fixed", 1e-12, 36), ("local-fixed", 1e-12, 37),
       ("local-range", 1e-12, 16), ("local-range", 1e-12, 40)])


@pytest.mark.parametrize(
    "theorem,tol,seed", ACCEPTED_TOL_CASES,
    ids=[f"{th}-{tol:g}" + ("" if seed is None else f"-seed{seed}")
         for th, tol, seed in ACCEPTED_TOL_CASES])
def test_decided_at_every_accepted_tol(pendulum, pendulum_aug, d_ship,
                                       theorem, tol, seed):
    # Every tol down to MIN_TOL decides the shipped theorems and these
    # permuted networks: the last iterates outside the cone must not end the
    # run before its first certified interior iterate.
    plant, nn, k_xi = pendulum
    if seed is not None:
        nn = duplicated_nn(nn, 1, np.random.default_rng(seed))
    if theorem == "global":
        sel = build_selectors(nn, pendulum_aug.n_xtil)
        sol = sdp.solve(nl.build_global(pendulum_aug, sel, nn.activation.alpha,
                                        nn.activation.beta), tol)
        assert sol.status == sdp.INFEASIBLE
        assert sol.farkas is not None
        return
    rep = run_verify(plant, nn, k_xi, theorem, r=np.zeros(1), r_nom=np.zeros(1),
                     d=d_ship, tol=tol)
    assert rep["status"] == "feasible"
    if theorem == "local-fixed" and tol <= 1e-8:
        # looser tolerances leave trace(P) further above its optimum
        assert abs(np.trace(np.array(rep["P"])) - REF_TRACE_P) <= 1e-4
    if theorem == "local-range":
        lo, hi = rep["admissible_references"]["interval"]
        assert abs(hi - REF_HALF_INTERVAL) <= 1e-4
        assert abs(lo + REF_HALF_INTERVAL) <= 1e-4


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


def _unit_scaled(system):
    """The blocks with delta moved into G0, each divided by its largest entry
    when that exceeds one: every piece has scale one, so the solver runs
    them as given."""
    out = []
    for blk in system.blocks:
        G0 = blk.G0 - blk.delta * np.eye(blk.order)
        scale = max(1.0, float(np.max(np.abs(G0))), float(np.max(np.abs(blk.coeffs))))
        out.append(LMIBlock(blk.name, G0 / scale, blk.coeffs / scale))
    return out


def test_solve_conic_invariant_to_block_order_and_splitting():
    # Blocks are stacked by order inside the solver; neither the order of the
    # caller's list nor splitting a block-diagonal block into its diagonal
    # blocks (same iterates in exact arithmetic) may change the run.  The
    # second input has diagonal blocks only, so it runs in the orthant alone.
    rng = np.random.default_rng(3)
    m = 4
    dense = _bounded_blocks(rng, [3, 2, 3, 2, 4, 1], m)
    diagonal = [dataclasses.replace(blk, coeffs=np.stack([np.diag(np.diag(C))
                                                          for C in blk.coeffs]))
                for blk in _bounded_blocks(rng, [3, 2, 3, 2, 4, 1], m)]
    for blocks in (dense, diagonal):
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


def _population_problem(seed, m):
    """One SDP of the fixed random population: blocks of orders 3, 2, 3, 2, 4
    and 1 with random symmetric coefficients, G0 = I - sum_i y0_i C_i so that
    a random y0 meets every block with margin I, and c_i = sum_b <C_{b,i},
    Z0_b> for a random positive definite Z0, so the optimum is attained."""
    rng = np.random.default_rng(seed)
    orders = [3, 2, 3, 2, 4, 1]
    coeffs = [np.stack([_sym(rng, k) for _ in range(m)]) for k in orders]
    y0 = rng.normal(size=m)
    blocks = [LMIBlock(f"b{j}", np.eye(k) - np.einsum("i,ijk->jk", y0, C), C)
              for j, (k, C) in enumerate(zip(orders, coeffs))]
    Z0 = [A @ A.T + np.eye(len(A)) for A in (rng.normal(size=(k, k)) for k in orders)]
    c = sum(np.einsum("ijk,jk->i", C, Z) for C, Z in zip(coeffs, Z0))
    return blocks, c


POPULATION = [(seed, m, tol) for seed in range(30) for m in (4, 8)
              for tol in (1e-9, 1e-8)]


def test_random_population_decided_at_loose_tols():
    # Every run of the population at tol 1e-9 and 1e-8 ends with an iterate
    # whose blocks are positive definite (or a checked ray, though each
    # problem is strictly feasible).  Tighter tolerances still leave some
    # runs with neither; CHANGES.md records their counts per solver change.
    undecided = []
    for seed, m, tol in POPULATION:
        blocks, c = _population_problem(seed, m)
        res = solve_conic(blocks, c, tol=tol)
        if res.status == "infeasible":
            if check_farkas(blocks, res.Z, 1e-8) is None:
                undecided.append((seed, m, tol, "unchecked ray"))
        elif res.y is None or any(
                np.linalg.eigvalsh(blk.G0 + np.einsum("i,ijk->jk", res.y, blk.coeffs))[0]
                <= 0.0 for blk in blocks):
            undecided.append((seed, m, tol, res.status))
    assert undecided == []


def test_affine_step_length_from_dz_alone():
    # The predictor's ds = -diag(lam) - dz, so on the scale sqrt(lam lam') its
    # smallest eigenvalue is -1 - max eig(dz): the step length from the dz
    # half alone equals the one from both halves, here on stacks of order 13
    # and 3 and an orthant of four entries.
    rng = np.random.default_rng(5)
    cone = ipm._group(_bounded_blocks(rng, [3, 13, 3, 13, 1, 1, 1, 1], 2), 2)
    assert sorted(grp.shape for grp in cone) == [(2, 3, 3), (2, 13, 13), (4,)]

    def views(Q):  # each stack's view, as the solver binds them
        return [grp.view(Q) for grp in cone]

    ds_binds = []
    for size in (0.1, 1.0, 10.0):
        lam = np.empty(cone.eye.size)  # each entry holds its column's lambda
        for grp in cone:
            col = np.exp(rng.uniform(-3.0, 3.0, grp.shape[:2]))
            grp.view(lam)[...] = col if grp.orthant else col[:, None, :]
        x = size * rng.normal(size=cone.eye.size)
        dz = 0.5 * (x + x[cone.T])
        scale = np.sqrt(lam[cone.T] * lam)
        both = ipm._step_length(cone, views(np.stack([-cone.eye * lam - dz, dz]) / scale),
                                ())
        alone = ipm._step_length(cone, views(dz / scale), (), affine=True)
        assert abs(alone - both) <= 1e-12 * both
        ds_binds.append(alone < ipm._step_length(cone, views(dz / scale), ()))
    assert any(ds_binds)  # the ds half, read from dz's largest eigenvalue, counted


def test_nt_update_from_one_symmetric_eigenproblem():
    # The NT update factors B = L2' L1 = U diag(lam_new) V' from the
    # eigenvectors U of B B', with lam_new the column norms of B'U.  Here, on
    # a stack of order 13 (bins of pieces 13 and 8 + 3 + 2) and one of order
    # 3, with lambda spread over four decades, lam_new matches the singular
    # values of B to 1e-12 relative, where the square roots of the
    # eigenvalues of B B' miss them on both stacks.  The new R and R^-T meet
    # R' R^-T = I and R' Z R = R^-1 S R^-T = diag(lam_new) at the NT point
    # (S, Z) to k eps cond(B)^2, the accuracy of U.  The old R is a random
    # diagonal, so that R L1 V is told apart from L1 V R.
    rng = np.random.default_rng(0)
    m = 2
    cone = ipm._group(_bounded_blocks(rng, [13, 8, 3, 2, 13, 3, 3], m), m)
    assert [grp.shape for grp in cone] == [(3, 13, 13), (2, 3, 3)]
    cone.bind()
    W = []
    for grp in cone:
        g, k = grp.shape[:2]
        lam = rng.permuted(np.tile(np.logspace(-2.0, 2.0, k), (g, 1)), axis=1)
        grp.lam[...] = lam[:, None, :]
        r = np.exp(rng.normal(size=(g, k, 1)))
        W.append(np.stack([r * np.eye(k), np.eye(k) / r]))
    mu = float(cone.lam[cone.diag].dot(cone.lam[cone.diag])) / len(cone.diag)
    step = ipm._newton_step(cone, rng.normal(size=m), W, 1.0, 1.0, rng.normal(size=m),
                            0.0, mu)
    assert step is not None
    for grp, (R, Rit), (Rn, Rnit) in zip(cone, W, step[0]):
        k, lam = grp.shape[-1], grp.lam[:, 0, :]
        L = np.linalg.cholesky(grp.ahead)
        B = L[1].swapaxes(1, 2) @ L[0]
        sv = np.sort(np.linalg.svd(B, compute_uv=False), axis=1)
        shortcut = np.sqrt(np.linalg.eigvalsh(B @ B.swapaxes(1, 2)))
        assert np.max(np.abs(np.sort(lam, axis=1) - sv) / sv) <= 1e-12
        assert np.max(np.abs(shortcut - sv) / sv) > 1e-12

        S = R @ grp.ahead[0] @ R.swapaxes(1, 2)
        Z = Rit @ grp.ahead[1] @ Rit.swapaxes(1, 2)
        D = np.eye(k) * lam[:, None, :]
        scale = np.sqrt(lam[:, :, None] * lam[:, None, :])
        tol = k * np.finfo(float).eps * (sv[:, -1] / sv[:, 0]) ** 2
        for err in (Rn.swapaxes(1, 2) @ Rnit - np.eye(k),
                    (Rn.swapaxes(1, 2) @ Z @ Rn - D) / scale,
                    (Rnit.swapaxes(1, 2) @ S @ Rnit - D) / scale):
            assert np.all(np.abs(err).max(axis=(1, 2)) <= tol)


def _lp_blocks(g0, C):
    """The LP g0 + C' y >= 0 as one 1x1 block per row, and as one diagonal
    block."""
    rows = [LMIBlock(f"r{j}", np.array([[g]]), C[:, j].reshape(-1, 1, 1))
            for j, g in enumerate(g0)]
    return rows, [LMIBlock("d", np.diag(g0), np.stack([np.diag(Ci) for Ci in C]))]


def test_solve_conic_reaches_the_linprog_optimum_of_random_lps():
    # Exact oracle: bounded random LPs (y = 0 strictly feasible, z = 1 dual
    # feasible for c = C 1) solved by HiGHS.  The solver's interior shift tol
    # moves the optimum by about tol sum(z), well inside 1e-6.  Both forms run
    # in the orthant alone, so they give the same run.
    from scipy.optimize import linprog
    rng = np.random.default_rng(11)
    for n, m in [(3, 1), (6, 2), (9, 4), (14, 5), (20, 8)]:
        g0 = rng.uniform(0.5, 2.0, n)
        C = rng.normal(size=(m, n))
        c = C @ rng.uniform(0.5, 2.0, n)
        lp = linprog(c, A_ub=-C.T, b_ub=g0, bounds=(None, None), method="highs")
        assert lp.status == 0
        rows, diag = _lp_blocks(g0, C)
        res = solve_conic(rows, c)
        assert res.status == "optimal"
        assert abs(res.objective - lp.fun) <= 1e-6 * max(1.0, abs(lp.fun))
        same = solve_conic(diag, c)
        assert same.iterations == res.iterations
        assert np.max(np.abs(same.y - res.y)) <= 1e-9
        # Feasibility (c = 0) of rows h0 + C' y that y = 0 violates (the row of
        # the largest |v| reads -0.1 there, the least of them) and another
        # point meets with margin 0.5: the first iterate that passes the
        # orthant's positivity test is returned, so it must meet every row.
        u = rng.normal(size=m)
        v = C.T @ u
        h0 = 0.5 - C.T @ (0.6 * u / v[np.argmax(np.abs(v))])
        feas = solve_conic(_lp_blocks(h0, C)[0], np.zeros(m))
        assert feas.status == "optimal"
        assert np.min(h0 + C.T @ feas.y) > 0.0


def test_infeasible_lp_returns_a_ray_in_caller_order():
    # y >= 1 and -y >= 0: the ray weighs both rows equally.  Given as two
    # 1x1 blocks it comes back one matrix per block; given as one diagonal
    # block it comes back on that block's diagonal, zero off it.
    rows, diag = _lp_blocks(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]))
    for blocks in (rows, diag):
        res = solve_conic(blocks, np.zeros(1))
        assert res.status == "infeasible"
        assert [Zb.shape for Zb in res.Z] == [(blk.order,) * 2 for blk in blocks]
        assert check_farkas(blocks, res.Z, 1e-8) is not None
        weights = np.concatenate([np.diag(Zb) for Zb in res.Z])
        assert np.max(np.abs(weights - 0.5)) <= 1e-6
    assert res.Z[0][0, 1] == res.Z[0][1, 0] == 0.0


def test_solve_conic_ray_in_caller_order(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    system = nl.build_global(pendulum_aug, sel, nn.activation.alpha,
                             nn.activation.beta)
    blocks = _unit_scaled(system)
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


def _pendulum_system(pendulum, aug, theorem, d, nn=None):
    plant, shipped, k_xi = pendulum
    nn = shipped if nn is None else nn
    sel = build_selectors(nn, aug.n_xtil)
    if theorem == "global":
        return nl.build_global(aug, sel, nn.activation.alpha, nn.activation.beta)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    secs = nl.local_sectors(nn, nl.propagate_box(nn, trace.v[0], d), trace.v)
    if theorem == "local-fixed":
        return nl.build_local_fixed(aug, sel, secs, d)
    S = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    return nl.build_local_range(aug, sel, secs, d, S)


@pytest.mark.parametrize("theorem,stacks", [
    ("global", [(2, 13, 13)]),
    ("local-fixed", [(3, 13, 13), (2,)]),
    ("local-range", [(3, 13, 13), (8,)])])
def test_pendulum_runs_in_packed_stacks(pendulum, pendulum_aug, d_ship,
                                        theorem, stacks):
    # Lambda_nn splits into 10 order-1 pieces.  First-fit decreasing into
    # bins of the largest order, 13, keeps only exactly full bins: global
    # [13], [3, 1 x 10]; local-fixed [13], [3, 3, 3, 3, 1], [3, 3, 1 x 7]
    # and two order-1 pieces left over; local-range [13], [4, 4, 4, 1],
    # [4, 4, 3, 1, 1] and eight left over (Q_pd and seven of Lambda_nn).
    # The order-1 pieces left over run as one orthant of vectors.
    system = _pendulum_system(pendulum, pendulum_aug, theorem, d_ship)
    groups = ipm._group(system.blocks, system.n_scalars)
    assert [grp.shape for grp in groups] == stacks


def test_wide_lambda_runs_as_unpacked_order_one_pieces(pendulum, pendulum_aug,
                                                        d_ship):
    # At 40 neurons the largest order, 43, is above _PACK_MAX: nothing is
    # packed, and Lambda_nn runs as an orthant of 40, whose entries are the
    # diagonal of Lambda_nn in order, in the caller's blocks laid end to end.
    wide = duplicated_nn(pendulum[1], 4, np.random.default_rng(2024))
    system = _pendulum_system(pendulum, pendulum_aug, "local-fixed", d_ship, wide)
    blocks = system.blocks
    groups = ipm._group(blocks, system.n_scalars)
    assert [grp.shape for grp in groups] == [(1, 43, 43), (21, 3, 3), (40,)]
    lam = [blk.name for blk in blocks].index("Lambda_nn")
    start = sum(blk.order ** 2 for blk in blocks[:lam])
    assert groups[-1].src.tolist() == [start + 41 * i for i in range(40)]


def test_pack_and_unstack_return_every_caller_block():
    # Blocks made of dense diagonal pieces on scattered indices.  Stacking
    # G0 and every coefficient into slots and unstacking them gives back the
    # caller's matrices divided by their piece scales bit for bit, each
    # piece's scale is the largest |entry| of its G0 and coefficients, and an
    # all-ones stack comes back as the blocks' piece pattern, with zeros
    # outside it.
    rng = np.random.default_rng(7)
    m = 3
    blocks, labels = [], []
    for j, sizes in enumerate([[4], [2, 1, 1], [3, 1], [1, 1, 2], [3]]):
        label = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        mask = label[:, None] == label[None, :]
        blocks.append(LMIBlock(f"b{j}", mask * _sym(rng, len(label)),
                               np.stack([mask * _sym(rng, len(label))
                                         for _ in range(m)])))
        labels.append(label)
    cone = ipm._group(blocks, m)
    # bins [4], [3, 1], [3, 1], [2, 2]; [1, 1, 1] is not full and its pieces
    # run in the orthant
    assert [grp.shape for grp in cone] == [(4, 4, 4), (3,)]

    def back(x):
        return zip(ipm._unstack(blocks, cone, x), blocks, scales, strict=True)

    def scaled(A, scale):
        return np.divide(A, scale, out=np.zeros_like(A), where=scale != 0.0)

    scales = ipm._unstack(blocks, cone, cone.scale)
    for blk, label, scale in zip(blocks, labels, scales):
        for piece in np.unique(label):
            on = label == piece
            size = max(np.abs(blk.G0[np.ix_(on, on)]).max(),
                       np.abs(blk.coeffs[:, on][:, :, on]).max())
            assert np.all(scale[np.ix_(on, on)] == max(1.0, size))
    assert max(scale.max() for scale in scales) > 1.0
    for X, blk, scale in back(cone.G0):
        assert np.array_equal(X, scaled(blk.G0, scale))
    for i in range(m):
        for X, blk, scale in back(cone.F[i]):
            assert np.array_equal(X, scaled(blk.coeffs[i], scale))
    for X, blk, _ in back(np.ones_like(cone.G0)):
        assert np.array_equal(X, (blk.G0 != 0).astype(float))


def test_block_diagonal_caller_block_gets_its_ray_back(pendulum, pendulum_aug):
    # P_pd and Lambda_nn of the global system joined into one order-13
    # caller block on interleaved indices: the solver runs the same pieces,
    # so the ray of the joined block is the two rays put in place, bit for
    # bit, with exact zeros between them, in either caller order.
    system = _pendulum_system(pendulum, pendulum_aug, "global", None)
    stab, p_pd, lam_nn = _unit_scaled(system)
    at_p = np.array([1, 5, 9])
    at_l = np.setdiff1d(np.arange(13), at_p)

    def place(Xp, Xl):
        X = np.zeros((Xp.shape[0], 13, 13))
        X[:, at_p[:, None], at_p] = Xp
        X[:, at_l[:, None], at_l] = Xl
        return X

    joined = LMIBlock("joined", place(p_pd.G0[None], lam_nn.G0[None])[0],
                      place(p_pd.coeffs, lam_nn.coeffs))
    c = np.zeros(system.n_scalars)
    ref = solve_conic([stab, p_pd, lam_nn], c)
    assert ref.status == "infeasible"
    want = place(ref.Z[1][None], ref.Z[2][None])[0]
    for given, at in ([stab, joined], 1), ([joined, stab], 0):
        res = solve_conic(given, c)
        assert res.status == "infeasible"
        assert res.iterations == ref.iterations
        assert np.array_equal(res.Z[at], want)
        assert np.array_equal(res.Z[1 - at], ref.Z[0])
        assert check_farkas(given, res.Z, 1e-8) is not None


def test_solve_invariant_to_grouping_of_pieces(pendulum, pendulum_aug, d_ship):
    # The solver scales each piece by its own largest entry, so joining the
    # strict blocks stability (scale about 37) and P_pd (scale 1) into one
    # block-diagonal caller block runs the same pieces: the same status and
    # iterations, and the same y bit for bit.
    system = _pendulum_system(pendulum, pendulum_aug, "local-fixed", d_ship)
    stab, p_pd, *rest = system.blocks
    assert (stab.name, p_pd.name) == ("stability", "P_pd")
    assert stab.delta == p_pd.delta
    joined = dataclasses.replace(_block_diag("joined", stab, p_pd), delta=stab.delta)
    ref = sdp.solve(system)
    res = sdp.solve(dataclasses.replace(system, blocks=(joined, *rest)))
    assert ref.status == res.status == sdp.FEASIBLE
    assert res.iterations == ref.iterations
    assert np.array_equal(res.y, ref.y)


def test_solve_keeps_no_second_copy_of_the_coefficients(pendulum, pendulum_aug,
                                                        d_ship):
    # The solver gathers the used entries of each block's coefficients
    # straight into its cone, scaled per piece, and keeps no scaled copy of
    # the blocks: the traced peak of a 40-neuron local-fixed solve stays
    # below twice the bytes of the system's coefficients.
    import tracemalloc

    wide = duplicated_nn(pendulum[1], 4, np.random.default_rng(2024))
    system = _pendulum_system(pendulum, pendulum_aug, "local-fixed", d_ship, wide)
    coeff_bytes = sum(blk.coeffs.nbytes for blk in system.blocks)
    tracemalloc.start()
    try:
        sol = sdp.solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == sdp.FEASIBLE
    assert peak < 2.0 * coeff_bytes


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
