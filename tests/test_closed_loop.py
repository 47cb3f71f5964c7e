import contextlib
import csv
import math
import sys
import types

import numpy as np
import pytest

import nnloop as nl
from nnloop import closed_loop as cl
from nnloop import roa
from nnloop.errors import BadSchedule, DimensionMismatch, GovernorInfeasible


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
        assert joint_set.joint_quad(xt, rhat) <= 1.0


def test_govern_applies_no_reference_outside_the_set(joint_set):
    # A desired reference just outside the set, at its own slice centre:
    # its joint quadratic exceeds 1 by about 5e-10, so it is not applied.
    r = joint_set.r_nom + np.sqrt((1.0 + 5e-10) / joint_set.Q[0, 0])
    xt = joint_set.xtil_star(r)
    assert joint_set.joint_quad(xt, r) > 1.0
    rhat = nl.govern(joint_set, xt, r)
    assert joint_set.joint_quad(xt, rhat) <= 1.0
    assert abs(rhat[0] - r[0]) <= 1e-6


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
    assert min(margins) >= 0.0


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


def _closest_on_predicate(grid, mask, feasible, target):
    """_closest_feasible_1d on the quadratics of a feasibility predicate, 0
    where it holds and 2 elsewhere; on the grid, where ``mask`` holds."""
    from nnloop.closed_loop import _closest_feasible_1d

    def quad(r):
        return 0.0 if feasible(r) else 2.0

    return _closest_feasible_1d(
        grid, np.where(mask, 0.0, 2.0),
        lambda refs: np.array([quad(r) for r in refs]), target, quad(target))


def test_closest_feasible_tie_breaks_to_smaller():
    grid = np.linspace(-1.0, 1.0, 21)
    mask = np.abs(grid) >= 0.5 - 1e-12  # feasible outside (-0.5, 0.5)
    got = _closest_on_predicate(grid, mask, lambda r: abs(r) >= 0.5, 0.0)
    assert got == pytest.approx(-0.5)


def test_governor_descent_2d_smoke():
    # two-reference joint set with an affine steady map; like every slice
    # center map it takes a reference (2,) or a stack (N, 2), one per row
    def xtil_star(r):
        return np.concatenate([r, np.zeros(r.shape[:-1] + (1,))], axis=-1)

    J = nl.JointEllipsoid(P=np.eye(3), Q=np.eye(2) * 4.0, r_nom=np.zeros(2),
                          xtil_star=xtil_star)
    xt = np.zeros(3)
    r_des = np.array([3.0, 0.0])
    rhat = nl.govern(J, xt, r_des)
    assert J.joint_quad(xt, rhat) <= 1.0
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


def _curved_joint_set():
    # two-reference joint set whose slice centers bend with r: tanh of each
    # entry and a cross term, all elementwise, so each row of a stack is the
    # center of its reference alone
    def xtil_star(r):
        return np.concatenate([np.tanh(r), 0.5 * r[..., :1] * r[..., 1:]],
                              axis=-1)

    P = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    Q = np.array([[3.0, 0.7], [0.7, 1.9]])
    return nl.JointEllipsoid(P=P, Q=Q, r_nom=np.array([0.1, -0.2]),
                             xtil_star=xtil_star)


def test_governor_descent_is_each_starts_bisection():
    # The lockstep bisections of the n_r > 1 governor: each row is bit for
    # bit its own start's plain bisection, one joint_quad_many row per step,
    # and the result is the first of the nearest ends.  The starts are formed
    # as the governor forms them; rounding the product in another order gives
    # other starts.
    J = _curved_joint_set()
    refs = roa.admissible_references(J)
    starts = [J.r_nom]
    for k in range(2):
        axis = refs.axes[:, k] * refs.semi_lengths[k]
        starts += [J.r_nom + 0.7 * axis, J.r_nom - 0.7 * axis]
    rng = np.random.default_rng(43)
    compared = 0
    for _ in range(120):
        # a state near the slice of an admissible reference, and a desired
        # reference outside the admissible set
        turn = rng.uniform(0.0, 2.0 * np.pi, size=2)
        r0 = J.r_nom + refs.axes @ (refs.semi_lengths * rng.uniform(0.0, 0.9)
                                    * [np.cos(turn[0]), np.sin(turn[0])])
        r_des = J.r_nom + refs.axes @ (refs.semi_lengths * rng.uniform(1.2, 3.0)
                                       * [np.cos(turn[1]), np.sin(turn[1])])
        xtil = J.xtil_star(r0) + rng.normal(scale=0.2, size=3)
        assert J.joint_quad(xtil, r_des) > 1.0
        ends = []
        for lo in [s for s in starts
                   if J.joint_quad_many(xtil, s[None])[0] <= 1.0]:
            hi = r_des
            for _ in range(cl.REFINE_ITERS):
                mid = 0.5 * (lo + hi)
                if J.joint_quad_many(xtil, mid[None])[0] <= 1.0:
                    lo = mid
                else:
                    hi = mid
            ends.append(lo)
        if not ends:
            with pytest.raises(GovernorInfeasible):
                nl.govern(J, xtil, r_des)
            continue
        want = ends[int(np.argmin([np.linalg.norm(e - r_des) for e in ends]))]
        assert cl._govern_descent(J, xtil, r_des).tobytes() == want.tobytes()
        assert nl.govern(J, xtil, r_des).tobytes() == want.tobytes()
        compared += 1
    assert compared >= 100


def test_govern_refuses_a_state_or_reference_of_the_wrong_length(joint_set):
    # n_xtil = 3 and n_r = 1 on the pendulum; numpy raised its own matmul or
    # broadcast ValueError before.
    xt = joint_set.xtil_star(np.zeros(1))
    with pytest.raises(DimensionMismatch, match=r"reference must have shape \(1,\)"):
        nl.govern(joint_set, xt, [0.1, 0.2])
    with pytest.raises(DimensionMismatch, match=r"xtil must have shape \(3,\)"):
        nl.govern(joint_set, np.zeros(2), [0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_govern_refuses_a_non_finite_reference(joint_set, bad):
    # As a schedule does, and before any quadratic: no RuntimeWarning (an
    # error in this suite) and no failed bracketing.
    xt = joint_set.xtil_star(np.zeros(1))
    with pytest.raises(BadSchedule, match="finite"):
        nl.govern(joint_set, xt, [bad])
    J = _curved_joint_set()
    with pytest.raises(BadSchedule, match="finite"):
        nl.govern(J, np.zeros(3), [0.1, bad])


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


def _csv_writer_reference(path, traj):
    """The trajectory file as csv.writer writes it, with repr floats."""
    n_xt, n_u, n_r = (traj.states.shape[1], traj.inputs.shape[1],
                      traj.applied_refs.shape[1])
    header = (["k"] + [f"xtil_{i + 1}" for i in range(n_xt)]
              + [f"u_{i + 1}" for i in range(n_u)]
              + [f"y_{i + 1}" for i in range(n_r)]
              + [f"rhat_{i + 1}" for i in range(n_r)])
    table = np.hstack([traj.states[:-1], traj.inputs, traj.outputs[:-1],
                       traj.applied_refs])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, row in enumerate(table):
            writer.writerow([k] + [repr(float(v)) for v in row])


def test_trajectory_csv_bytes_match_csv_writer(tmp_path, pendulum,
                                               pendulum_aug):
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.array([0.05, -0.3, 1e-7]),
                       [(0, 0.05), (20, -0.1)], 40)
    cl.write_trajectory_csv(tmp_path / "streamed.csv", traj)
    _csv_writer_reference(tmp_path / "reference.csv", traj)
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "reference.csv").read_bytes()
    assert streamed.count(b"\r\n") == 41


def test_trajectory_csv_formats_rows_by_bytes(tmp_path):
    # Repeated rows are written once per occurrence; rows that compare equal
    # as floats but differ in bits (-0.0 and 0.0, two NaN payloads) keep
    # their own text.  The formatter gets the four arrays it reads on a
    # plain namespace.
    inf = float("inf")
    nan_a, nan_b = np.array([0x7FF8000000000000, 0x7FF8000000000001],
                            dtype=np.uint64).view(np.float64)
    distinct = np.array([[0.0, 1.5, -2.0],
                         [-0.0, 1.5, -2.0],
                         [nan_a, inf, -inf],
                         [nan_b, inf, -inf],
                         [5e-324, -1e300, 0.1]])
    states = distinct[[0, 1, 0, 2, 3, 2, 4, 4, 4, 1, 0]]
    traj = types.SimpleNamespace(states=states, inputs=states[:-1, 1:2],
                                 outputs=states[:, :1],
                                 applied_refs=-states[:-1, :1])
    cl.write_trajectory_csv(tmp_path / "written.csv", traj)
    _csv_writer_reference(tmp_path / "reference.csv", traj)
    written = (tmp_path / "written.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    lines = written.split(b"\r\n")
    assert lines[1].startswith(b"0,0.0,") and lines[2].startswith(b"1,-0.0,")
    assert lines[4] == b"3,nan,inf,-inf,inf,nan,nan"


def test_trajectory_csv_bytes_match_csv_writer_long_runs(tmp_path, pendulum,
                                                         pendulum_aug,
                                                         joint_set):
    # The plain run at r = 0 enters its orbit of subnormal states after about
    # 3,400 steps; the governed run switches its desired reference once.
    # Both span several CSV_CHUNK_ROWS chunks.
    _plant, nn, _k = pendulum
    x0 = np.array([0.05, -0.3, 0.01])
    plain = nl.simulate(pendulum_aug, nn, x0, np.array([0.0]), 5000)
    governed = nl.simulate_with_governor(pendulum_aug, nn, joint_set, x0,
                                         [(0, -1.0), (1000, 0.1)], 2000)
    last = np.abs(plain.states[-1])
    assert np.all(last < np.finfo(float).tiny) and np.any(last > 0)
    for traj in (plain, governed):
        cl.write_trajectory_csv(tmp_path / "written.csv", traj)
        _csv_writer_reference(tmp_path / "reference.csv", traj)
        written = (tmp_path / "written.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.count(b"\r\n") == traj.steps + 1


def test_trajectory_csv_traced_memory_is_bounded(tmp_path, pendulum,
                                                 pendulum_aug):
    # Rows are formatted and written a chunk at a time: writing the
    # 10,000-step plain run (0.8 MB of text) peaks below 2 MB of
    # traced memory, most of it the text of the 3,648 distinct rows.
    import tracemalloc

    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.array([0.05, -0.3, 0.01]),
                       np.array([0.0]), 10000)
    tracemalloc.start()
    try:
        cl.write_trajectory_csv(tmp_path / "traj.csv", traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


# ---------------------------------------------------------------- exact oracle
#
# The loop as first written: a traced forward pass per step, the schedule
# looked up at every step, and a governor that rebuilds its grid and always
# bisects REFINE_ITERS times.  The lean loop must reproduce it bit for bit.

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
    if J.joint_quad(xtil, r_des) <= 1.0:
        return r_des
    lo, hi = nl.admissible_references(J).interval
    grid = np.linspace(lo, hi, roa.GRID_POINTS)
    mask = J.joint_quad_many(xtil, grid[:, None]) <= 1.0
    assert mask.any()
    return np.array([_full_bisection(
        grid, mask, lambda r: J.joint_quad(xtil, np.array([r])) <= 1.0,
        float(r_des[0]), cl.REFINE_ITERS)])


def _reference_run(aug, nn, xtil0, schedule, T, J=None):
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
                 and all(e < cl.CONVERGENCE_TOL
                         for e in errs[-cl.CONVERGENCE_WINDOW:]))
    return (np.array(states), np.array(inputs), np.array(outputs),
            np.array(applied), np.array(desired), converged, diverged)


def _assert_same_run(traj, ref):
    # Bytes, not values: a moved signed zero or NaN payload is a difference.
    states, inputs, outputs, applied, desired, converged, diverged = ref
    for got, want in ((traj.states, states), (traj.inputs, inputs),
                      (traj.outputs, outputs), (traj.applied_refs, applied),
                      (traj.desired_refs, desired)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (traj.converged, traj.diverged) == (converged, diverged)


def test_simulate_matches_reference_loop(pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    sched = [(0, 0.05), (200, -0.1)]
    x0 = np.array([0.1, 0.0, 0.0])
    traj = nl.simulate(pendulum_aug, nn, x0, sched, 400)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, x0, sched, 400))
    assert traj.converged


def test_signed_zero_segments_match_reference_loop(pendulum, pendulum_aug,
                                                   nominal_slice):
    # 0.0 and -0.0 compare equal but differ in bits, so every entry of this
    # schedule starts a segment that computes its own reference terms; the
    # applied and desired references keep each sign.
    _plant, nn, _k = pendulum
    x0 = _slice_point(nominal_slice)
    sched = [(0, 0.0), (40, -0.0), (90, 0.0), (91, -0.0), (300, 0.0)]
    traj = nl.simulate(pendulum_aug, nn, x0, sched, 400)
    ref = _reference_run(pendulum_aug, nn, x0, sched, 400)
    _assert_same_run(traj, ref)
    assert np.signbit(traj.applied_refs[[0, 40, 90, 91, 300], 0]).tolist() == \
        [False, True, False, True, False]


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


def test_governor_bisects_in_stacked_passes(pendulum, pendulum_aug, joint_set,
                                            monkeypatch):
    # joint_quad is asked once per govern call, about the desired reference;
    # bisection midpoints go through joint_quad_many, in at most 2.5 passes
    # per bisecting govern call on average (2.14 measured: 389 passes over
    # 182 bisecting calls).
    _plant, nn, _k = pendulum
    calls = []  # per govern call: [desired, scalar references, passes]
    joint_quad = roa.JointEllipsoid.joint_quad
    joint_quad_many = roa.JointEllipsoid.joint_quad_many
    govern = cl.govern

    def spy_quad(J, xtil, r):
        calls[-1][1].append(float(np.asarray(r)[0]))
        return joint_quad(J, xtil, r)

    def spy_many(J, xtil, R):
        calls[-1][2] += 1
        return joint_quad_many(J, xtil, R)

    def spy_govern(J, xtil, r):
        calls.append([float(r[0]), [], 0])
        return govern(J, xtil, r)

    monkeypatch.setattr(roa.JointEllipsoid, "joint_quad", spy_quad)
    monkeypatch.setattr(roa.JointEllipsoid, "joint_quad_many", spy_many)
    monkeypatch.setattr(cl, "govern", spy_govern)
    nl.simulate_with_governor(pendulum_aug, nn, joint_set, np.zeros(3),
                              [[0, -1.0], [1500, 0.1]], 3000)
    for desired, scalars, _passes in calls:
        assert scalars == [desired]
    bisecting = [passes for _r, _s, passes in calls if passes]
    assert bisecting and sum(bisecting) <= 2.5 * len(bisecting)


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["low", "high"])
@pytest.mark.parametrize("case", ["end", "inner", "none"])
def test_governor_beyond_interval_end(joint_set, monkeypatch, side, case):
    # A desired reference beyond an end of the interval, from a slice centre
    # whose nearest feasible grid point is the end itself, an inner point of
    # the GRID_END_POINTS at that end, or none of them.  The governor reads
    # the whole grid only in the last case, and always answers as plain
    # bisection over the whole grid does.
    grid = joint_set.grid
    centre = {"end": grid[0] if side < 0 else grid[-1], "inner": 0.2 * side,
              "none": 0.0}[case]
    xt = joint_set.xtil_star(np.array([centre]))
    feasible = np.flatnonzero(joint_set.grid_quads(xt)[1] <= 1.0)
    gap = int(feasible[0] if side < 0 else roa.GRID_POINTS - 1 - feasible[-1])
    assert {"end": gap == 0, "inner": 0 < gap < cl.GRID_END_POINTS,
            "none": gap >= cl.GRID_END_POINTS}[case]
    lengths = []
    grid_quads = roa.JointEllipsoid.grid_quads

    def spy(J, xtil, *part):
        refs, quads = grid_quads(J, xtil, *part)
        lengths.append(refs.shape[0])
        return refs, quads

    monkeypatch.setattr(roa.JointEllipsoid, "grid_quads", spy)
    r_des = np.array([2.0 * side])
    rhat = nl.govern(joint_set, xt, r_des)
    assert rhat.tobytes() == _reference_govern(joint_set, xt, r_des).tobytes()
    assert lengths[0] == cl.GRID_END_POINTS
    assert (roa.GRID_POINTS in lengths) == (case == "none")
    assert (rhat[0] == grid[0 if side < 0 else -1]) == (case == "end")


def test_diverging_run_matches_reference_loop(pendulum, pendulum_aug):
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.zeros(3), np.array([-3.0]), 30000)
    ref = _reference_run(pendulum_aug, nn, np.zeros(3), np.array([-3.0]), 30000)
    _assert_same_run(traj, ref)
    assert traj.diverged and traj.steps == len(ref[1]) < 30000


@pytest.mark.parametrize("x0", [
    pytest.param([1e200, -1e200, 0.0], id="1e+200"),
    pytest.param([1e308, -1e308, 0.0], id="1e+308"),
    pytest.param([1.79e308] * 3, id="1.79e308-all"),
])
def test_divergence_near_float_limit_warns_nothing(recwarn, pendulum,
                                                   pendulum_aug, x0):
    # x . x overflows in the divergence test; inf still flags divergence.
    # From the last start the first step itself overflows: the run keeps its
    # non-finite row, and its outputs are computed without a warning.
    _plant, nn, _k = pendulum
    traj = nl.simulate(pendulum_aug, nn, np.array(x0), np.zeros(1), 100)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert traj.diverged and traj.steps == 1
    assert traj.states.shape == (2, 3) and traj.outputs.shape == (2, 1)
    assert np.array_equal(traj.states[0], x0)


def test_grid_quads_match_joint_quad_many(joint_set):
    lo, hi = nl.admissible_references(joint_set).interval
    E0 = nl.slice_at(joint_set, np.zeros(1))
    rng = np.random.default_rng(11)
    for _ in range(20):
        xt = E0.point_at(rng.normal(size=3), radius=rng.uniform(0.0, 1.5))
        grid, quads = joint_set.grid_quads(xt)
        assert np.array_equal(grid, np.linspace(lo, hi, roa.GRID_POINTS))
        many = joint_set.joint_quad_many(xt, grid[:, None])
        assert np.array_equal(quads, many)
        assert np.array_equal(quads <= 1.0, many <= 1.0)
        single = [joint_set.joint_quad(xt, np.array([g])) for g in grid]
        assert np.array(single).tobytes() == quads.tobytes()


def test_closest_feasible_early_stop_matches_full_bisection():
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
        got = _closest_on_predicate(grid, mask, feasible, target)
        want = _full_bisection(grid, mask, feasible, target, 60)
        assert got == want

    def wavy(r):  # not monotone between grid points
        return np.sin(40.0 * r) > 0.3

    mask = np.array([wavy(g) for g in grid])
    for target in (-2.0, -0.37, 0.0, 0.51, 2.0):
        got = _closest_on_predicate(grid, mask, wavy, target)
        assert got == _full_bisection(grid, mask, wavy, target, 60)


def _path_bisection(grid, quad_fn, target):
    """_closest_feasible_1d on the quadratics quad_fn (vectorized), with the
    references of every path pass."""
    from nnloop.closed_loop import _closest_feasible_1d

    passes = []

    def path_quads(refs):
        passes.append(refs.tolist())
        return quad_fn(refs)

    # A target beyond the grid is clipped, and its own quadratic goes unused.
    goal = float(np.clip(target, grid[0], grid[-1]))
    got = _closest_feasible_1d(grid, quad_fn(grid), path_quads, target,
                               float(quad_fn(np.array([goal]))[0]))
    return got, passes


def test_path_bisection_matches_full_bisection():
    # Smooth quadratics: wavy ones, not monotone between grid points, and
    # steep convex ones, whose secant guess lies short of the boundary, so
    # that midpoints beyond it are predicted on the wrong side.
    grid = np.linspace(-1.0, 1.0, 33)
    rng = np.random.default_rng(13)
    cases = [(lambda R: 1.3 - np.sin(40.0 * R), t, False)
             for t in (-2.0, -0.37, 0.0, 0.51, 2.0)]
    for _ in range(100):
        t = float(rng.uniform(-0.9, 0.9))
        c = float(rng.choice([1.0, 30.0, 300.0])) * rng.choice([-1.0, 1.0])
        cases.append((lambda R, t=t, c=c: np.exp(c * (R - t)),
                      float(rng.uniform(-3.0, 3.0)), True))
    convex_repaths = 0
    for quad_fn, target, convex in cases:
        mids = []

        def feasible(r, quad_fn=quad_fn):
            mids.append(r)
            return bool(quad_fn(np.array([r]))[0] <= 1.0)

        mask = quad_fn(grid) <= 1.0
        want = _full_bisection(grid, mask, feasible, target, 60)
        got, passes = _path_bisection(grid, quad_fn, target)
        assert got == want
        # Every midpoint plain bisection tests before its bracket stops
        # shrinking is in a pass; the clipped target's quadratic is given.
        goal = float(np.clip(target, grid[0], grid[-1]))
        evaluated = {r for refs in passes for r in refs} | {goal}
        assert set(mids) - evaluated <= set(grid.tolist())
        if convex:
            convex_repaths += max(len(passes) - 1, 0)
    assert convex_repaths > 0


# ---------------------------------------------------------------- replay
#
# A run that settles onto an exact periodic orbit replays it instead of
# stepping it again; every replayed row must be the row the reference loop
# computes.

def _slice_point(nominal_slice):
    return nominal_slice.point_at([1.0, -2.0, 0.5], radius=0.8)


@contextlib.contextmanager
def _spy_passes(monkeypatch):
    """Record, at every network pass of the loop, the number of states its
    replay window holds; the list's length is the number of passes.  Every
    pass goes through the transition that ``_stepper`` binds for the run,
    and the block must make at least one."""
    sizes = []
    stepper = cl._stepper

    def spy_stepper(aug, nn):
        transition = stepper(aug, nn)

        def spy(*args):
            loop = sys._getframe(1).f_locals
            sizes.append(len(loop["recent"]) + len(loop["older"]))
            return transition(*args)

        return spy

    monkeypatch.setattr(cl, "_stepper", spy_stepper)
    yield sizes
    assert sizes, "no network pass went through the spy"


def test_replay_settled_run_matches_reference_loop(pendulum, pendulum_aug,
                                                   nominal_slice, monkeypatch):
    _plant, nn, _k = pendulum
    x0 = _slice_point(nominal_slice)
    with _spy_passes(monkeypatch) as passes:
        traj = nl.simulate(pendulum_aug, nn, x0, np.zeros(1), 10000)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, x0, np.zeros(1),
                                          10000))
    assert traj.converged
    # From this start the loop enters a period-70 orbit of subnormal states
    # at step 3,621 and replays it from step 3,691 (3,691 passes measured).
    assert len(passes) <= 4000


def test_replay_window_is_cleared_between_segments(pendulum, pendulum_aug,
                                                   nominal_slice, monkeypatch):
    # Each segment settles onto a fixed point; the state that ends the middle
    # segment was seen under r = -0.1 and must not be replayed under 0.05.
    _plant, nn, _k = pendulum
    x0 = _slice_point(nominal_slice)
    sched = [(0, 0.05), (1500, -0.1), (3000, 0.05)]
    with _spy_passes(monkeypatch) as passes:
        traj = nl.simulate(pendulum_aug, nn, x0, sched, 4000)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, x0, sched, 4000))
    assert len(passes) < 1000


def test_replay_stops_mid_period_at_segment_end(pendulum, pendulum_aug,
                                                nominal_slice):
    _plant, nn, _k = pendulum
    x0 = _slice_point(nominal_slice)
    switch = 3796
    sched = [(0, 0.0), (switch, 0.05)]
    traj = nl.simulate(pendulum_aug, nn, x0, sched, switch + 300)
    ref = _reference_run(pendulum_aug, nn, x0, sched, switch + 300)
    _assert_same_run(traj, ref)
    # the first segment's orbit (first state seen again: step j + period)
    # is cut mid-period by the switch
    seen = {}
    for k, state in enumerate(ref[0][:switch + 1]):
        j = seen.setdefault(state.tobytes(), k)
        if j < k:
            break
    period = k - j
    assert period > 1 and k < switch and (switch - j) % period != 0


def test_replay_window_is_bounded(pendulum, pendulum_aug, nominal_slice,
                                  monkeypatch):
    # The first 3,000 steps from this start never repeat a state.
    _plant, nn, _k = pendulum
    x0 = _slice_point(nominal_slice)
    with _spy_passes(monkeypatch) as sizes:
        traj = nl.simulate(pendulum_aug, nn, x0, np.zeros(1), 3000)
    _assert_same_run(traj, _reference_run(pendulum_aug, nn, x0, np.zeros(1),
                                          3000))
    assert len(sizes) == 3000
    assert max(sizes) <= 2 * cl.REPLAY_WINDOW + 1


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


@pytest.mark.parametrize("schedule", [0.0, []], ids=["constant", "malformed"])
def test_zero_steps_raise_value_error(pendulum, pendulum_aug, joint_set,
                                      schedule):
    # T is checked before the schedule is read, so a malformed schedule
    # still names the step count.
    _plant, nn, _k = pendulum
    with pytest.raises(ValueError, match="T must be at least 1"):
        nl.simulate(pendulum_aug, nn, np.zeros(3), schedule, 0)
    with pytest.raises(ValueError, match="T must be at least 1"):
        nl.simulate_with_governor(pendulum_aug, nn, joint_set, np.zeros(3),
                                  schedule, 0)
