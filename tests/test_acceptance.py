"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import time

import numpy as np

from conftest import stable_tanh_chords

import nnloop as nl
from nnloop import roa, sdp
from nnloop.lmi import build_selectors
from nnloop.sectors import local_sectors, propagate_box


def report(n, name, ok):
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _random_affine_instance(rng):
    n_x = int(rng.integers(2, 5))
    plant = nl.Plant(A=rng.normal(size=(n_x, n_x)) * 0.5,
                     B=rng.normal(size=(n_x, 1)),
                     C=rng.normal(size=(1, n_x)))
    h = 3
    W0 = rng.normal(size=(h, n_x)) * 0.5
    Wl = rng.normal(size=(1, h)) * 0.5
    nn = nl.FeedForwardNN(Hx0=np.eye(n_x), Hr0=np.zeros((n_x, 1)),
                          layers=((W0, np.zeros(h)),), Wl=Wl, bl=np.zeros(1),
                          activation=nl.Activation.linear())
    k_xi = 0.3 + rng.uniform()
    aug = nl.augment(plant, k_xi)
    K = Wl @ W0
    Abar = aug.Atil + aug.Btil @ np.hstack([K, np.zeros((1, 1))])
    rho = float(max(abs(np.linalg.eigvals(Abar))))
    return plant, nn, k_xi, aug, rho


def test_criterion_1_linear_reduction_oracle():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    n_feas = n_infeas = 0
    agree = True
    feasible_instances = []
    while n_feas < 20 or n_infeas < 20:
        plant, nn, k_xi, aug, rho = _random_affine_instance(rng)
        if 0.95 <= rho <= 1.05 or rho > 3.0:
            continue
        want = "feasible" if rho < 0.95 else "infeasible"
        if want == "feasible" and n_feas >= 20:
            continue
        if want == "infeasible" and n_infeas >= 20:
            continue
        sel = build_selectors(nn, aug.n_xtil)
        sol = nl.solve_certified(nl.build_global(aug, sel, 1.0, 1.0))
        agree = agree and (sol.status == want)
        if want == "feasible":
            n_feas += 1
            if len(feasible_instances) < 3:
                feasible_instances.append((plant, nn, k_xi, aug, sol))
        else:
            n_infeas += 1
    elapsed = time.perf_counter() - t0
    test_criterion_1_linear_reduction_oracle.instances = feasible_instances
    report(1, "linear-reduction oracle",
           agree and n_feas == 20 and n_infeas == 20 and elapsed < 60.0)


def test_criterion_2_sector_soundness(pendulum):
    rng = np.random.default_rng(7)
    ok = True
    fixtures = []
    for k in range(5):  # five tanh boxes and five relu boxes
        vs = float(rng.uniform(-1.0, 1.0))
        half = float(rng.uniform(0.2, 2.0))
        fixtures.append(("tanh", vs - half, vs + half, vs))
        vs2 = float(rng.uniform(-1.0, 1.0))
        half2 = float(rng.uniform(0.2, 2.0))
        fixtures.append(("relu", vs2 - half2, vs2 + half2, vs2))
    from nnloop.sectors import _relu_sector, _tanh_sector

    for kind, lo, hi, vs in fixtures:
        v = rng.uniform(lo, hi, size=100000)
        if kind == "tanh":
            a, b = _tanh_sector(lo, hi, vs)
            ch = stable_tanh_chords(v, vs)
        else:
            a, b = _relu_sector(lo, hi, vs)
            dv = v - vs
            keep = np.abs(dv) > 1e-12
            ch = (np.maximum(v[keep], 0.0) - max(vs, 0.0)) / dv[keep]
        ok = ok and np.all(ch >= a - 1e-9) and np.all(ch <= b + 1e-9)

    a_ship, _ = _tanh_sector(-0.345, 0.345, 0.0)
    ok = ok and abs(a_ship - 0.9629) <= 1e-3
    report(2, "sector-bound soundness", bool(ok))


def test_criterion_3_lyapunov_decrease(pendulum, pendulum_aug, thm2_report):
    rng = np.random.default_rng(99)
    plant, nn, k_xi = pendulum
    instances = []
    # the shipped Thm-2 instance
    ss0 = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    instances.append((pendulum_aug, nn, np.zeros(1), ss0.xtil_star,
                      np.array(thm2_report["P"])))
    # Thm-1 feasible instances carried over from criterion 1
    carried = getattr(test_criterion_1_linear_reduction_oracle, "instances", [])
    for plant_i, nn_i, k_xi_i, aug_i, sol_i in carried:
        r = np.array([rng.uniform(-0.3, 0.3)])
        ss = nl.steady_state(plant_i, nn_i, k_xi_i, r)
        instances.append((aug_i, nn_i, r, ss.xtil_star, sol_i.P))

    violations = 0
    for aug_i, nn_i, r, center, P in instances:
        evals, evecs = np.linalg.eigh(P)
        half = evecs @ np.diag(evals**-0.5) @ evecs.T
        for _ in range(20):
            u = rng.normal(size=aug_i.n_xtil)
            u /= np.linalg.norm(u)
            xt = center + rng.uniform(0.05, 0.95) * (half @ u)
            for _ in range(1000):
                e = xt - center
                v_now = float(e @ P @ e)
                if v_now < 1e-18:
                    break
                xt = nl.step(aug_i, nn_i, xt, r)
                e = xt - center
                if float(e @ P @ e) >= v_now:
                    violations += 1
                    break
    report(3, "Lyapunov decrease", violations == 0)


def test_criterion_4_thm2_invariance(pendulum, pendulum_aug, thm2_report):
    t0 = time.perf_counter()
    plant, nn, k_xi = pendulum
    P = np.array(thm2_report["P"])
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    E = nl.Ellipsoid(center=ss.xtil_star, shape=P)
    rng = np.random.default_rng(4)
    escapes = 0
    not_converged = 0
    for _ in range(100):
        u = rng.normal(size=3)
        states = nl.simulate(pendulum_aug, nn, E.point_at(u), np.zeros(1),
                             2000).states
        if any(E.quad(xt) > 1.0 + 1e-9 for xt in states[1:]):
            escapes += 1
        err = float(np.abs(pendulum_aug.Ctil @ states[-1])[0])
        if err >= 1e-6:
            not_converged += 1
    elapsed = time.perf_counter() - t0
    report(4, "Thm-2 RoA invariance",
           escapes == 0 and not_converged == 0 and elapsed < 120.0)


def test_criterion_5_thm3_joint_set(pendulum, pendulum_aug, thm3_report,
                                    joint_set):
    plant, nn, k_xi = pendulum
    lo, hi = nl.admissible_references(joint_set).interval
    nonempty = lo < hi
    P, Q = joint_set.P, joint_set.Q
    M = np.block([[P, np.zeros((3, 1))], [np.zeros((1, 3)), Q]])
    evals, evecs = np.linalg.eigh(M)
    half = evecs @ np.diag(evals**-0.5) @ evecs.T
    rng = np.random.default_rng(5)
    bad = 0
    for _ in range(200):
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        z = rng.uniform(0.0, 0.99) * (half @ u)
        r = z[3:] + joint_set.r_nom
        xt0 = joint_set.xtil_star(r) + z[:3]
        states = nl.simulate(pendulum_aug, nn, xt0, r, 3000).states
        # one stacked form per trajectory, each row bit for bit joint_quad
        quads = roa._quads(states - joint_set.xtil_star(r), P) + joint_set.ref_quad(r)
        ok_member = bool(np.all(quads <= 1.0 + 1e-9))
        err = float(np.abs(pendulum_aug.Ctil @ states[-1] - r)[0])
        if not ok_member or err >= 1e-6:
            bad += 1
    report(5, "Thm-3 joint set", nonempty and bad == 0)


def test_criterion_6_schur_equivalence():
    rng = np.random.default_rng(6)
    agree = 0
    for k in range(500):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        P = A @ A.T + 0.05 * np.eye(n)
        use_q = k % 2 == 0
        if use_q:
            Qm = np.array([[rng.uniform(0.1, 5.0)]])
            row = rng.normal(size=(1, n + 1))
        else:
            Qm = None
            row = rng.normal(size=(1, n))
        d = rng.uniform(0.1, 2.0)
        got = nl.schur_row_check(P, row, d, Q=Qm, atol=1e-9)[0]
        Mfull = P if Qm is None else np.block([
            [P, np.zeros((n, 1))], [np.zeros((1, n)), Qm]])
        blk = np.block([[np.array([[d * d]]), row], [row.T, Mfull]])
        eig_ok = np.linalg.eigvalsh(blk)[0] >= -1e-9
        agree += int(got == eig_ok)
    report(6, "Schur-complement equivalence", agree == 500)


def test_criterion_7_governor(pendulum, pendulum_aug, joint_set):
    plant, nn, k_xi = pendulum
    lo, hi = nl.admissible_references(joint_set).interval
    E0 = nl.slice_at(joint_set, np.zeros(1))
    rng = np.random.default_rng(77)

    # optimality vs a 1e4-point grid oracle
    grid = np.linspace(lo, hi, 10000)
    queries = 0
    opt_ok = True
    while queries < 100:
        u = rng.normal(size=3)
        xt = E0.point_at(u, radius=rng.uniform(0.0, 1.3))
        r_des = float(rng.uniform(-1.5, 1.5))
        feas = joint_set.joint_quad_many(xt, grid[:, None]) <= 1.0
        inside = joint_set.joint_quad(xt, np.array([r_des])) <= 1.0
        if not feas.any() and not inside:
            continue
        queries += 1
        rhat = nl.govern(joint_set, xt, np.array([r_des]))
        opt_ok = opt_ok and joint_set.joint_quad(xt, rhat) <= 1.0
        if inside:
            opt_ok = opt_ok and rhat[0] == r_des
            continue
        cand = grid[feas]
        oracle = cand[np.argmin(np.abs(cand - r_des))]
        # the governor may only improve on the grid oracle's objective
        opt_ok = opt_ok and (
            abs(rhat[0] - r_des) <= abs(oracle - r_des) + 1e-6)
        opt_ok = opt_ok and abs(rhat[0] - oracle) <= (hi - lo) / 9999 + 1e-6

    # safety along governed trajectories to an out-of-range reference
    safety_ok = True
    endpoint_ok = True
    for _ in range(20):
        u = rng.normal(size=3)
        xt0 = E0.point_at(u, radius=rng.uniform(0.0, 0.9))
        traj = nl.simulate_with_governor(pendulum_aug, nn, joint_set, xt0,
                                         np.array([-1.0]), 2500)
        margins = [nl.joint_contains(joint_set, traj.states[k],
                                     traj.applied_refs[k]).margin
                   for k in range(traj.steps)]
        safety_ok = safety_ok and min(margins) >= 0.0
        endpoint_ok = endpoint_ok and abs(traj.applied_refs[-1][0] - lo) <= 1e-6
    report(7, "governor optimality and safety",
           bool(opt_ok and safety_ok and endpoint_ok))


def test_criterion_8_solver_honesty(pendulum, pendulum_aug, d_ship):
    import dataclasses

    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    box = propagate_box(nn, trace.v[0], d_ship)
    secs = local_sectors(nn, box, trace.v)
    system = nl.build_local_fixed(pendulum_aug, sel, secs, d_ship)
    sol = nl.solve(system)
    assert sol.status == sdp.FEASIBLE

    rng = np.random.default_rng(8)
    downgraded = 0
    preserved = 0
    for case in range(50):
        bad_values = {k: np.array(v, dtype=float) for k, v in sol.values.items()}
        if case % 2 == 0:
            lam = bad_values["Lambda"]
            lam[case % lam.shape[0], case % lam.shape[0]] = -1e-6
        else:
            P = bad_values["P"]
            w = np.linalg.eigvalsh(P)[0]
            bad_values["P"] = P - (w + 1e-3) * np.eye(P.shape[0])
        cert = nl.certify(system, dataclasses.replace(sol, values=bad_values))
        downgraded += int(cert.status == sdp.INACCURATE)
    for _ in range(10):
        cert = nl.certify(system, sol)
        preserved += int(cert.status == sdp.FEASIBLE)
    report(8, "solver honesty", downgraded == 50 and preserved == 10)


def test_criterion_9_performance(pendulum, d_ship):
    from nnloop.cli import run_verify

    plant, nn, k_xi = pendulum
    t0 = time.perf_counter()
    rep2 = run_verify(plant, nn, k_xi, "local-fixed", r=np.zeros(1), d=d_ship)
    t2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    rep3 = run_verify(plant, nn, k_xi, "local-range", r_nom=np.zeros(1),
                      d=d_ship)
    t3 = time.perf_counter() - t0
    ok = (rep2["status"] == "feasible" and rep3["status"] == "feasible"
          and t2 < 30.0 and t3 < 30.0)
    report(9, "performance sanity", ok)
