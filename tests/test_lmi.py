import numpy as np
import pytest

import nnloop as nl
from nnloop.lmi import MARGIN_COEFF, VarSpec, build_selectors
from nnloop.sectors import global_sectors


def two_layer_nn(rng, n_x=2, n_r=1, widths=(5, 5)):
    layers = []
    fan_in = n_x
    for w in widths:
        layers.append((rng.normal(size=(w, fan_in)) * 0.4, rng.normal(size=w) * 0.1))
        fan_in = w
    return nl.FeedForwardNN(
        Hx0=np.eye(n_x), Hr0=np.zeros((n_x, n_r)),
        layers=tuple(layers),
        Wl=rng.normal(size=(n_r, widths[-1])), bl=np.zeros(n_r),
        activation=nl.Activation.tanh(),
    )


def test_selectors_single_layer():
    rng = np.random.default_rng(0)
    nn = two_layer_nn(rng, widths=(4,))
    sel = build_selectors(nn, 3)
    assert sel.N1lm1.shape == (4, 4)
    assert not np.any(sel.N1lm1)
    W1 = nn.Wl
    assert np.array_equal(sel.Nl[:, 3:], W1)
    assert not np.any(sel.Nl[:, :3])


def test_selectors_two_layer_placement():
    rng = np.random.default_rng(1)
    nn = two_layer_nn(rng, widths=(5, 5))
    sel = build_selectors(nn, 3)
    assert sel.N1lm1.shape == (10, 10)
    W1, _ = nn.layers[1]
    assert np.array_equal(sel.N1lm1[5:, :5], W1)
    assert not np.any(sel.N1lm1[:5, :])
    assert not np.any(sel.N1lm1[5:, 5:])


def test_selectors_state_feedback_layout():
    rng = np.random.default_rng(2)
    nn = two_layer_nn(rng)
    sel = build_selectors(nn, 3)
    W0, _ = nn.layers[0]
    assert np.array_equal(sel.N0_1[:, :2], W0)
    assert not np.any(sel.N0_1[:, 2:])


def test_selector_identity_on_traces():
    # R_V and R_phi reproduce the network's incremental relations exactly.
    rng = np.random.default_rng(3)
    nn = two_layer_nn(rng)
    n_xtil = 3
    sel = build_selectors(nn, n_xtil)
    for _ in range(100):
        x1, x2 = rng.normal(size=2), rng.normal(size=2)
        xi1, xi2 = rng.normal(size=1), rng.normal(size=1)
        r = rng.normal(size=1)
        t1 = nl.forward(nn, x1, r)
        t2 = nl.forward(nn, x2, r)
        e = np.concatenate([x1 - x2, xi1 - xi2])
        dw = t1.stacked_w() - t2.stacked_w()
        dv = t1.stacked_v() - t2.stacked_v()
        du = t1.u - t2.u
        z = np.concatenate([e, dw])
        rv = sel.RV @ z
        assert np.linalg.norm(rv - np.concatenate([e, du])) <= 1e-12 * (1 + np.linalg.norm(du))
        rphi = sel.Rphi @ z
        assert np.linalg.norm(rphi - np.concatenate([dv, dw])) <= 1e-12 * (1 + np.linalg.norm(dv))


def test_block_symmetry(schur_scalar):
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    system = nl.build_global(aug, sel, 1.0, 1.0)
    for blk in system.blocks:
        assert np.max(np.abs(blk.G0 - blk.G0.T)) <= 1e-14
        for Cm in blk.coeffs:
            assert np.max(np.abs(Cm - Cm.T)) <= 1e-14


@pytest.mark.parametrize("theorem", ["global", "local-fixed", "local-range"])
def test_stability_block_matches_formula(pendulum, pendulum_aug, d_ship, theorem):
    # Independent reassembly of every block of each theorem's LMI for random
    # (P, Lambda, Q), in the PSD orientation G0 + sum_i theta_i G_i >= delta I.
    plant, nn, k_xi = pendulum
    aug = pendulum_aug
    sel = build_selectors(nn, aug.n_xtil)
    n = nn.n_hidden
    rows = sel.N0_1
    if theorem == "global":
        a = np.full(n, nn.activation.alpha)
        b = np.full(n, nn.activation.beta)
        system = nl.build_global(aug, sel, nn.activation.alpha, nn.activation.beta)
    else:
        ss = nl.steady_state(plant, nn, k_xi, np.zeros(1))
        trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
        box = nl.propagate_box(nn, trace.v[0], d_ship)
        secs = nl.local_sectors(nn, box, trace)
        a, b = secs.alpha_phi, secs.beta_phi
        if theorem == "local-fixed":
            system = nl.build_local_fixed(aug, sel, secs, d_ship)
        else:
            refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
            rows = np.hstack([sel.N0_1, refsens.S])
            system = nl.build_local_range(aug, sel, secs, d_ship, refsens)
    rng = np.random.default_rng(4)
    Pm = rng.normal(size=(3, 3))
    Pm = Pm + Pm.T
    lam = rng.uniform(0.1, 2.0, size=n)
    Qm = np.array([[rng.uniform(0.1, 2.0)]])
    theta = system.pack({"P": Pm, "Lambda": np.diag(lam), "Q": Qm})

    At, Bt = aug.Atil, aug.Btil
    Lam = np.diag(lam)
    lyap = np.block([[At.T @ Pm @ At - Pm, At.T @ Pm @ Bt],
                     [Bt.T @ Pm @ At, Bt.T @ Pm @ Bt]])
    qc = np.block([[np.diag(-2.0 * a * b) @ Lam, np.diag(a + b) @ Lam],
                   [Lam @ np.diag(a + b), -2.0 * Lam]])
    want = {"stability": -(sel.RV.T @ lyap @ sel.RV + sel.Rphi.T @ qc @ sel.Rphi),
            "P_pd": Pm, "Lambda_nn": Lam}
    PQ = Pm
    if theorem == "local-range":
        want["Q_pd"] = Qm
        PQ = np.block([[Pm, np.zeros((3, 1))], [np.zeros((1, 3)), Qm]])
    if theorem != "global":
        for j, row in enumerate(rows / d_ship):
            want[f"roa_row_{j}"] = PQ - np.outer(row, row)
    assert sorted(blk.name for blk in system.blocks) == sorted(want)
    for blk in system.blocks:
        got = system.block_value(blk, theta) + blk.delta * np.eye(blk.order)
        ref = want[blk.name]
        assert np.max(np.abs(got - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref))), blk.name


def test_margin_rule():
    spec = VarSpec("P", "sym", 2)
    system = nl.build_global(
        nl.augment(nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]]), 0.1),
        build_selectors(
            nl.FeedForwardNN(Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
                             layers=((np.array([[0.3]]), np.zeros(1)),),
                             Wl=np.zeros((1, 1)), bl=np.zeros(1),
                             activation=nl.Activation.linear()), 2),
        1.0, 1.0)
    for blk in system.blocks:
        if blk.name in ("stability", "P_pd"):   # the strict blocks
            want = MARGIN_COEFF * (1.0 + np.max(np.abs(blk.G0)))
            assert blk.delta == pytest.approx(want)
        else:
            assert blk.delta == 0.0
    assert spec.n_scalars == 3


def test_ref_sensitivity_output_error_vanishes():
    rng = np.random.default_rng(5)
    plant = nl.Plant(A=rng.normal(size=(3, 3)) * 0.4,
                     B=rng.normal(size=(3, 1)), C=rng.normal(size=(1, 3)))
    nn = nl.FeedForwardNN(
        Hx0=-plant.C, Hr0=np.eye(1),
        layers=((rng.normal(size=(4, 1)), np.zeros(4)),),
        Wl=rng.normal(size=(1, 4)), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    assert np.max(np.abs(refsens.S)) <= 1e-10


def test_ref_sensitivity_state_feedback(pendulum):
    plant, nn, _k = pendulum
    ssmap = nl.steady_state_map(plant)
    refsens = nl.ref_sensitivity(nn, ssmap)
    W0, _ = nn.layers[0]
    assert np.allclose(refsens.S, W0 @ ssmap.M)


def test_local_fixed_block_count(pendulum, pendulum_aug, d_ship):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    secs = global_sectors(nn.activation, nn.n_hidden)
    system = nl.build_local_fixed(pendulum_aug, sel, secs, d_ship)
    rows = [b for b in system.blocks if b.name.startswith("roa_row_")]
    assert len(rows) == 5
    assert all(b.order == pendulum_aug.n_xtil for b in rows)
    assert all(b.delta == 0.0 for b in rows)


def test_local_fixed_huge_d_reduces_to_global(schur_scalar):
    # The rows are divided by d_j, which keeps their P entries of order one,
    # so the trace-minimized LMI stays decisive however large the box.
    plant, nn, k_xi = schur_scalar
    aug = nl.augment(plant, k_xi)
    sel = build_selectors(nn, aug.n_xtil)
    secs = global_sectors(nl.Activation.linear(), nn.n_hidden)
    for d in (10.0, 1e3, 1e4, 1e6):
        sol = nl.solve_certified(nl.build_local_fixed(aug, sel, secs, d))
        assert sol.status == "feasible", d
    sol_global = nl.solve_certified(nl.build_global(aug, sel, 1.0, 1.0))
    assert sol_global.status == "feasible"


@pytest.mark.parametrize("d", [0.0, -0.345])
def test_local_builders_reject_nonpositive_d(pendulum, pendulum_aug, d):
    # The containment rows are divided by d_j, so d must be positive.
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    secs = global_sectors(nn.activation, nn.n_hidden)
    refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    with pytest.raises(nl.NonPositiveD):
        nl.build_local_fixed(pendulum_aug, sel, secs, d)
    with pytest.raises(nl.NonPositiveD):
        nl.build_local_range(pendulum_aug, sel, secs, d, refsens)


def test_local_range_scalar_q(pendulum, pendulum_aug, d_ship, thm3_report):
    assert np.array(thm3_report["Q"]).shape == (1, 1)
    q = thm3_report["Q"][0][0]
    lo, hi = thm3_report["admissible_references"]["interval"]
    assert hi == pytest.approx(1.0 / np.sqrt(q), rel=1e-9)
    assert lo == pytest.approx(-1.0 / np.sqrt(q), rel=1e-9)


def test_local_range_output_error_decouples_q():
    # S = 0: the containment rows put no pressure on Q, so trace
    # minimization drives Q to its positivity margin and the admissible
    # reference set becomes very large.
    rng = np.random.default_rng(6)
    plant = nl.Plant(A=[[0.3]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=-plant.C, Hr0=np.eye(1),
        layers=((np.array([[0.4], [0.2]]), np.zeros(2)),),
        Wl=np.array([[0.05, 0.05]]), bl=np.zeros(1),
        activation=nl.Activation.tanh(),
    )
    aug = nl.augment(plant, 0.5)
    sel = build_selectors(nn, aug.n_xtil)
    ss = nl.steady_state(plant, nn, 0.5, np.zeros(1))
    trace = nl.steady_forward(nn, ss.x_star, np.zeros(1))
    box = nl.propagate_box(nn, trace.v[0], 0.5)
    secs = nl.local_sectors(nn, box, trace)
    refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    assert np.max(np.abs(refsens.S)) <= 1e-10
    system = nl.build_local_range(aug, sel, secs, 0.5, refsens)
    sol = nl.solve_certified(system)
    assert sol.status == "feasible"
    assert sol.Q[0, 0] <= 1e-4  # decoupled Q shrinks to its margin scale


def test_objective_trace_weights(pendulum, pendulum_aug, d_ship):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    secs = global_sectors(nn.activation, nn.n_hidden)
    refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    system = nl.build_local_range(pendulum_aug, sel, secs, d_ship, refsens, gamma=2.5)
    rng = np.random.default_rng(8)
    Pm = rng.normal(size=(3, 3))
    Pm = Pm + Pm.T
    Qm = np.array([[1.7]])
    theta = system.pack({"P": Pm, "Lambda": np.diag(np.ones(10)), "Q": Qm})
    assert system.objective @ theta == pytest.approx(np.trace(Pm) + 2.5 * 1.7)


@pytest.mark.parametrize("gamma", [-1.0, 0.0, np.inf, np.nan])
def test_local_range_rejects_nonpositive_gamma(pendulum, pendulum_aug, d_ship,
                                               gamma):
    plant, nn, k_xi = pendulum
    sel = build_selectors(nn, pendulum_aug.n_xtil)
    secs = global_sectors(nn.activation, nn.n_hidden)
    refsens = nl.ref_sensitivity(nn, nl.steady_state_map(plant))
    with pytest.raises(nl.NonPositiveGamma):
        nl.build_local_range(pendulum_aug, sel, secs, d_ship, refsens, gamma=gamma)
