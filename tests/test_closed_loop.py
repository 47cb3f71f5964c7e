import csv

import numpy as np
import pytest

import nnloop as nl
from nnloop import closed_loop as cl
from nnloop.errors import GovernorInfeasible


def zero_nn(n_x, n_r=1):
    return nl.FeedForwardNN(
        Hx0=np.zeros((1, n_x)), Hr0=np.zeros((1, n_r)),
        layers=((np.zeros((1, 1)), np.zeros(1)),),
        Wl=np.zeros((n_r, 1)), bl=np.zeros(n_r),
        activation=nl.Activation.tanh(),
    )


def test_step_fixed_point(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    r = np.array([0.15])
    ss = nl.steady_state(plant, nn, k_xi, r)
    xt = ss.xtil_star
    for _ in range(5):
        xt = nl.step(pendulum_aug, nn, xt, r)
    assert np.linalg.norm(xt - ss.xtil_star) <= 1e-9


def test_step_geometric_decay_rate():
    # zero network, scalar Schur loop: |eig| = sqrt(0.6) governs the decay
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    aug = nl.augment(plant, 0.1)
    nn = zero_nn(1)
    xt = np.array([1.0, 0.3])
    norms = []
    for _ in range(80):
        xt = nl.step(aug, nn, xt, np.zeros(1))
        norms.append(np.linalg.norm(xt))
    rate = (norms[-1] / norms[39]) ** (1.0 / 40.0)
    assert rate == pytest.approx(np.sqrt(0.6), abs=0.02)


def test_step_affine_in_reference():
    plant = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]])
    aug = nl.augment(plant, 0.1)
    nn = zero_nn(1)
    rng = np.random.default_rng(0)
    xt = rng.normal(size=2)
    r1, r2 = np.array([0.4]), np.array([-0.7])
    lhs = (nl.step(aug, nn, xt, r1) + nl.step(aug, nn, xt, r2)
           - nl.step(aug, nn, xt, np.zeros(1)))
    rhs = nl.step(aug, nn, xt, r1 + r2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_simulate_records_consistent_dynamics(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.array([0.1, 0.0, 0.0]),
                       np.array([0.1]), 400)
    for k in range(traj.steps):
        want = nl.step(pendulum_aug, nn, traj.states[k], traj.applied_refs[k])
        assert np.linalg.norm(traj.states[k + 1] - want) <= 1e-12
        y = pendulum_aug.Ctil @ traj.states[k]
        assert np.allclose(traj.outputs[k], y)
        u_nn = nl.forward(nn, traj.states[k][:2], traj.applied_refs[k]).u
        u = pendulum_aug.k_xi @ traj.states[k][2:] + u_nn
        assert np.allclose(traj.inputs[k], u)
    assert traj.converged


def test_simulate_from_steady_state_converged_immediately(pendulum, pendulum_aug):
    plant, nn, k_xi = pendulum
    ss = nl.steady_state(plant, nn, k_xi, np.array([0.05]))
    traj = nl.simulate(pendulum_aug, nn, ss.xtil_star, np.array([0.05]), 60)
    assert traj.converged
    assert np.max(traj.tracking_errors()) <= 1e-9


def test_simulate_diverged_flag(pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.zeros(3), np.array([-3.0]), 30000)
    assert traj.diverged
    assert not traj.converged
    assert traj.steps < 30000


def test_schedule_helpers():
    sched = [(0, 0.0), (50, 0.3), (100, -0.2)]
    assert cl.schedule_at(sched, 0, 1) == pytest.approx([0.0])
    assert cl.schedule_at(sched, 75, 1) == pytest.approx([0.3])
    assert cl.schedule_at(sched, 100, 1) == pytest.approx([-0.2])
    assert cl.schedule_at(0.5, 3, 1) == pytest.approx([0.5])


def test_govern_inside_returns_unchanged(joint_set):
    r = np.array([0.1])
    xt = joint_set.xtil_star(r)
    rhat = nl.govern(joint_set, xt, r)
    assert np.array_equal(rhat, r)


def test_govern_far_reference_hits_interval_end(joint_set):
    lo, hi = nl.admissible_references(joint_set).interval
    xt = joint_set.xtil_star(np.zeros(1))
    rhat = nl.govern(joint_set, xt, np.array([-5.0]))
    # grid oracle at 1e4 points
    grid = np.linspace(lo, hi, 10001)
    feas = joint_set.joint_quad_many(xt, grid[:, None]) <= 1.0
    oracle = grid[feas][np.argmin(np.abs(grid[feas] + 5.0))]
    assert abs(rhat[0] - oracle) <= 1e-4
    assert abs(joint_set.joint_quad(xt, rhat) - 1.0) <= 1e-6


def test_govern_infeasible_far_state(joint_set):
    xt = np.array([50.0, 50.0, 50.0])
    with pytest.raises(GovernorInfeasible):
        nl.govern(joint_set, xt, np.array([0.0]))


def test_govern_idempotent(joint_set):
    rng = np.random.default_rng(1)
    E0 = nl.slice_at(joint_set, np.zeros(1))
    for _ in range(20):
        u = rng.normal(size=3)
        xt = E0.point_at(u, radius=rng.uniform(0.1, 1.2))
        r = np.array([rng.uniform(-1.0, 1.0)])
        try:
            r1 = nl.govern(joint_set, xt, r)
        except GovernorInfeasible:
            continue
        r2 = nl.govern(joint_set, xt, r1)
        assert abs(r2[0] - r1[0]) <= 1e-9


def test_govern_constraint_residual(joint_set):
    rng = np.random.default_rng(2)
    E0 = nl.slice_at(joint_set, np.zeros(1))
    for _ in range(20):
        u = rng.normal(size=3)
        xt = E0.point_at(u, radius=rng.uniform(0.0, 1.0))
        r = np.array([rng.uniform(-2.0, 2.0)])
        rhat = nl.govern(joint_set, xt, r)
        assert joint_set.joint_quad(xt, rhat) <= 1.0 + 1e-9


def test_output_error_mode_matches_full_with_negligible_q():
    # affine steady map (output-error-style loop); Q -> 0 in full mode
    plant = nl.Plant(A=[[0.3]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=-plant.C, Hr0=np.eye(1),
        layers=((np.array([[0.4]]), np.zeros(1)),),
        Wl=np.array([[0.2]]), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    k_xi = 0.5
    P = np.diag([2.0, 1.0])
    J_tiny = nl.joint_ellipsoid_for(plant, nn, k_xi, P, np.array([[1e-10]]),
                                    np.zeros(1))
    J_oe = nl.joint_ellipsoid_for(plant, nn, k_xi, P, np.array([[1.0]]),
                                  np.zeros(1))
    cfg_oe = nl.GovernorConfig(mode="output-error")
    rng = np.random.default_rng(3)
    for _ in range(100):
        xt = rng.normal(size=2, scale=0.4)
        r = np.array([rng.uniform(-3.0, 3.0)])
        try:
            r_full = nl.govern(J_tiny, xt, r)
            r_oe = nl.govern(J_oe, xt, r, cfg_oe)
        except GovernorInfeasible:
            continue
        assert abs(r_full[0] - r_oe[0]) <= 1e-4


def test_governed_simulation_tracks_endpoint(pendulum, pendulum_aug, joint_set):
    _plant, nn, _k = pendulum
    lo, hi = nl.admissible_references(joint_set).interval
    traj = nl.simulate_with_governor(pendulum_aug, nn, joint_set,
                                     np.zeros(3), np.array([-1.0]), 1500)
    assert not traj.diverged
    assert abs(traj.applied_refs[-1][0] - lo) <= 1e-6
    margins = [nl.joint_contains(joint_set, traj.states[k],
                                 traj.applied_refs[k]).margin
               for k in range(traj.steps)]
    assert min(margins) >= -1e-9


def test_governed_simulation_in_range_reference(pendulum, pendulum_aug,
                                                joint_set):
    # an admissible desired reference is eventually applied unchanged and
    # tracked with zero offset
    _plant, nn, _k = pendulum
    r_des = np.array([0.1])
    traj = nl.simulate_with_governor(pendulum_aug, nn, joint_set,
                                     np.zeros(3), r_des, 1200)
    assert traj.converged
    assert np.array_equal(traj.applied_refs[-1], r_des)
    assert traj.tracking_errors()[-1] <= 1e-9


def test_closest_feasible_tie_breaks_to_smaller():
    from nnloop.closed_loop import _closest_feasible_1d

    grid = np.linspace(-1.0, 1.0, 21)
    mask = np.abs(grid) >= 0.5 - 1e-12  # feasible outside (-0.5, 0.5)
    got = _closest_feasible_1d(grid, mask, lambda r: abs(r) >= 0.5,
                               0.0, iters=40)
    assert got == pytest.approx(-0.5)


def test_governor_descent_2d_smoke():
    # two-reference joint set with an affine steady map
    def xtil_star(r):
        return np.concatenate([r, [0.0]])

    J = nl.JointEllipsoid(P=np.eye(3), Q=np.eye(2) * 4.0, r_nom=np.zeros(2),
                          xtil_star=xtil_star)
    xt = np.zeros(3)
    r_des = np.array([3.0, 0.0])
    rhat = nl.govern(J, xt, r_des)
    assert J.joint_quad(xt, rhat) <= 1.0 + 1e-9
    # oracle on a dense 2-D grid
    g = np.linspace(-0.5, 0.5, 201)
    best = None
    for a in g:
        for b in g:
            r = np.array([a, b])
            if J.joint_quad(xt, r) <= 1.0:
                d = np.linalg.norm(r - r_des)
                if best is None or d < best:
                    best = d
    assert np.linalg.norm(rhat - r_des) <= best + 1e-2


def test_trajectory_csv(tmp_path, pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.array([0.05, 0.0, 0.0]),
                       np.array([0.05]), 40)
    path = tmp_path / "traj.csv"
    cl.write_trajectory_csv(path, traj)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "xtil_1", "xtil_2", "xtil_3", "u_1", "y_1", "rhat_1"]
    assert len(rows) == 41
    assert float(rows[1][0]) == 0
    back = np.array([[float(v) for v in row[1:4]] for row in rows[1:]])
    assert np.allclose(back, traj.states[:-1])


def test_governor_config_validation():
    with pytest.raises(ValueError):
        nl.GovernorConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        nl.GovernorConfig(mode="hybrid")


# ---------------------------------------------------------------- exact oracle
#
# The loop as first written: a traced forward pass per step, the schedule
# looked up at every step, and a governor that rebuilds its grid and always
# bisects refine_iters times.  The lean loop must reproduce it bit for bit.

def _full_bisection(grid, mask, feasible, target, iters):
    cand = grid[mask]
    dist = np.abs(cand - target)
    p = float(np.min(cand[dist == float(np.min(dist))]))
    goal = float(np.clip(target, grid[0], grid[-1]))
    if feasible(goal) and abs(goal - target) <= abs(p - target):
        return goal
    a, b = p, goal
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if feasible(mid):
            a = mid
        else:
            b = mid
    return a


def _reference_govern(J, xtil, r_des):
    cfg = nl.GovernorConfig()
    if J.joint_quad(xtil, r_des) <= 1.0 + cfg.tolerance:
        return r_des
    lo, hi = nl.admissible_references(J).interval
    grid = np.linspace(lo, hi, cfg.grid_points)
    mask = J.joint_quad_many(xtil, grid[:, None]) <= 1.0
    assert mask.any()
    return np.array([_full_bisection(
        grid, mask, lambda r: J.joint_quad(xtil, np.array([r])) <= 1.0,
        float(r_des[0]), cfg.refine_iters)])


def _reference_run(aug, nn, xtil0, schedule, T, J=None, conv_tol=1e-6):
    xtil = np.asarray(xtil0, dtype=float)
    states, inputs, outputs, applied, desired = [xtil], [], [], [], []
    diverged = False
    for k in range(T):
        r_des = cl.schedule_at(schedule, k, aug.n_r)
        r = r_des if J is None else _reference_govern(J, xtil, r_des)
        outputs.append(aug.Ctil @ xtil)
        u_nn = nl.forward(nn, xtil[:aug.n_x], r).u
        inputs.append(aug.k_xi @ xtil[aug.n_x:] + u_nn)
        xtil = aug.Atil @ xtil + aug.Btil @ u_nn + aug.Br @ r
        states.append(xtil)
        applied.append(r)
        desired.append(r_des)
        if np.linalg.norm(xtil) > cl.DIVERGENCE_NORM:
            diverged = True
            break
    outputs.append(aug.Ctil @ xtil)
    errs = [np.linalg.norm(y - r) for y, r in zip(outputs[:-1], applied)]
    converged = (not diverged and len(inputs) >= cl.CONVERGENCE_WINDOW
                 and all(e < conv_tol for e in errs[-cl.CONVERGENCE_WINDOW:]))
    return (np.array(states), np.array(inputs), np.array(outputs),
            np.array(applied), np.array(desired), converged, diverged)


def _assert_same_run(traj, ref):
    states, inputs, outputs, applied, desired, converged, diverged = ref
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.inputs, inputs)
    assert np.array_equal(traj.outputs, outputs)
    assert np.array_equal(traj.applied_refs, applied)
    assert np.array_equal(traj.desired_refs, desired)
    assert (traj.converged, traj.diverged) == (converged, diverged)


def test_simulate_matches_reference_loop(pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    sched = [(0, 0.05), (200, -0.1)]
    x0 = np.array([0.1, 0.0, 0.0])
    traj = nl.simulate(pendulum_aug, nn, x0, sched, 400)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, x0, sched, 400))
    assert traj.converged


def test_governed_simulation_matches_reference_loop(pendulum, pendulum_aug,
                                                    joint_set):
    _plant, nn, _k = pendulum
    sched = [[0, -1.0], [1500, 0.1]]
    traj = nl.simulate_with_governor(pendulum_aug, nn, joint_set, np.zeros(3),
                                     sched, 1600)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, np.zeros(3),
                                          sched, 1600, J=joint_set))
    assert traj.applied_refs[1499][0] != -1.0
    assert traj.applied_refs[-1][0] == 0.1


def test_diverging_run_matches_reference_loop(pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.zeros(3), np.array([-3.0]), 30000)
    ref = _reference_run(pendulum_aug, nn, np.zeros(3), np.array([-3.0]), 30000)
    _assert_same_run(traj, ref)
    assert traj.diverged and traj.steps == len(ref[1]) < 30000


def test_grid_quads_match_joint_quad_many(joint_set):
    lo, hi = nl.admissible_references(joint_set).interval
    E0 = nl.slice_at(joint_set, np.zeros(1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        xt = E0.point_at(rng.normal(size=3), radius=rng.uniform(0.0, 1.5))
        grid, quads = joint_set.grid_quads(xt, 256)
        assert np.array_equal(grid, np.linspace(lo, hi, 256))
        many = joint_set.joint_quad_many(xt, grid[:, None])
        assert np.array_equal(quads, many)
        assert np.array_equal(quads <= 1.0, many <= 1.0)
        single = [joint_set.joint_quad(xt, np.array([g])) for g in grid]
        assert np.allclose(quads, single, rtol=1e-12, atol=1e-12)


def test_closest_feasible_early_stop_matches_full_bisection():
    from nnloop.closed_loop import _closest_feasible_1d

    rng = np.random.default_rng(12)
    grid = np.linspace(-1.0, 1.0, 33)
    for _ in range(200):
        t = float(rng.uniform(-0.9, 0.9))
        target = float(rng.uniform(-3.0, 3.0))
        if rng.random() < 0.5:
            def feasible(r, t=t):
                return r <= t
        else:
            def feasible(r, t=t):
                return r >= t
        mask = np.array([feasible(g) for g in grid])
        got = _closest_feasible_1d(grid, mask, feasible, target, iters=60)
        want = _full_bisection(grid, mask, feasible, target, 60)
        assert got == want

    def wavy(r):  # not monotone between grid points
        return np.sin(40.0 * r) > 0.3

    mask = np.array([wavy(g) for g in grid])
    for target in (-2.0, -0.37, 0.0, 0.51, 2.0):
        got = _closest_feasible_1d(grid, mask, wavy, target, iters=60)
        assert got == _full_bisection(grid, mask, wavy, target, 60)


BAD_SCHEDULES = [
    ({"a": 1}, "not numeric"),
    ([[0]], "pair"),
    ([], "empty"),
    ([[0, "x"]], "not numeric"),
    ([[0, [0.1, 0.2]]], "1 entries"),
    ([[5, 0.1], [0, 0.2]], "increase"),
    ([[0, 0.1], [0, 0.2]], "increase"),
    ([[-1, 0.1]], ">= 0"),
    ([[0.5, 0.1]], "integer"),
    ([[0, float("nan")]], "finite"),
    ([[0, 0.1], [3, float("inf")]], "finite"),
]


@pytest.mark.parametrize("schedule,message", BAD_SCHEDULES,
                         ids=[repr(s) for s, _ in BAD_SCHEDULES])
def test_bad_schedule_raises_value_error(pendulum, pendulum_aug, schedule,
                                         message):
    _plant, nn, _k = pendulum
    with pytest.raises(ValueError, match=message):
        nl.simulate(pendulum_aug, nn, np.zeros(3), schedule, 10)
    with pytest.raises(ValueError, match=message):
        cl.schedule_at(schedule, 0, 1)
