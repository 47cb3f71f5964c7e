import numpy as np
import pytest

from conftest import schur_row_check

import nnloop as nl
from nnloop import roa


def test_contains_center_and_outside():
    E = nl.Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    inside, margin = nl.contains(E, np.zeros(2))
    assert inside and margin == pytest.approx(1.0)
    inside, margin = nl.contains(E, np.array([2.0, 0.0]))
    assert not inside and margin == pytest.approx(-3.0)


def test_contains_boundary_sample():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3))
    P = A @ A.T + np.eye(3)
    E = nl.Ellipsoid(center=rng.normal(size=3), shape=P)
    for _ in range(20):
        u = rng.normal(size=3)
        x = E.point_at(u)
        assert E.quad(x) == pytest.approx(1.0, abs=1e-10)


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        nl.Ellipsoid(center=np.zeros(2), shape=-np.eye(2))
    with pytest.raises(ValueError):
        nl.Ellipsoid(center=np.zeros(2), shape=np.array([[1.0, 5.0], [0.0, 1.0]]))


def make_joint(q=25.0, r_nom=0.0):
    # affine steady map for a standalone joint set, for one reference (1,)
    # or a stack (N, 1) of them, one per row
    def xtil_star(r):
        return np.concatenate([r, 0.5 * r], axis=-1)

    return nl.JointEllipsoid(P=np.eye(2), Q=np.array([[q]]),
                             r_nom=np.array([r_nom]), xtil_star=xtil_star)


def test_slice_levels():
    J = make_joint(q=25.0)
    E = nl.slice_at(J, np.array([0.0]))
    assert E.level == pytest.approx(1.0)
    E = nl.slice_at(J, np.array([0.1]))
    assert E.level == pytest.approx(0.75)
    E = nl.slice_at(J, np.array([0.2]))  # boundary reference: point set
    assert E.level == pytest.approx(0.0, abs=1e-12)
    assert nl.slice_at(J, np.array([0.3])) is None


def test_admissible_interval():
    J = make_joint(q=25.0)
    lo, hi = nl.admissible_references(J).interval
    assert (lo, hi) == pytest.approx((-0.2, 0.2))


@pytest.mark.parametrize("q", [14.22204568607481, 14.222045686069984, 25.0, 3.7])
def test_admissible_interval_ends_have_slices(q):
    # r_nom -+ Q^-1/2 can round one ulp outside the set (q = 14.22204568607481
    # gives a form of 1.0000000000000002 there); the ends are stepped inward,
    # as little as that takes.
    J = make_joint(q=q, r_nom=0.3)
    half = float(nl.admissible_references(J).semi_lengths[0])
    lo, hi = nl.admissible_references(J).interval
    for end, naive, inward in ((lo, 0.3 - half, 1.0), (hi, 0.3 + half, -1.0)):
        assert nl.slice_at(J, end) is not None
        assert J.ref_quad(end) <= 1.0
        assert abs(end - naive) <= 4 * abs(np.spacing(naive))
        if end != naive:
            assert J.ref_quad(np.nextafter(end, end - inward)) > 1.0


def test_shipped_interval_ends_have_slices(joint_set, thm3_report):
    # The governor clips a far desired reference to an interval end, so
    # both ends of the shipped report's interval lie in the reference set.
    lo, hi = nl.admissible_references(joint_set).interval
    assert [lo, hi] == thm3_report["admissible_references"]["interval"]
    for end in (lo, hi):
        assert nl.slice_at(joint_set, np.array([end])) is not None


def test_admissible_axes_identity():
    def xtil_star(r):
        return np.zeros(3)

    J = nl.JointEllipsoid(P=np.eye(3), Q=np.eye(2), r_nom=np.zeros(2),
                          xtil_star=xtil_star)
    refs = nl.admissible_references(J)
    assert np.allclose(refs.semi_lengths, 1.0)
    with pytest.raises(ValueError):
        refs.interval


def test_slice_consistency(joint_set):
    rng = np.random.default_rng(1)
    lo, hi = nl.admissible_references(joint_set).interval
    for _ in range(200):
        r = np.array([rng.uniform(1.3 * lo, 1.3 * hi)])
        x = rng.normal(size=3, scale=0.5)
        E = nl.slice_at(joint_set, r)
        joint_in, joint_margin = nl.joint_contains(joint_set, x, r)
        if E is None:
            assert not joint_in
            continue
        inside, margin = nl.contains(E, x)
        assert inside == joint_in
        assert margin == pytest.approx(joint_margin, abs=1e-12)


def test_union_growth(joint_set, nominal_slice):
    # a point of a non-nominal slice center lies outside the nominal slice
    lo, hi = nl.admissible_references(joint_set).interval
    r_edge = np.array([0.95 * hi])
    E_edge = nl.slice_at(joint_set, r_edge)
    assert E_edge is not None and E_edge.level > 0.0
    E_nom = nl.slice_at(joint_set, np.zeros(1))
    center_in_nom, _ = nl.contains(E_nom, E_edge.center)
    assert not center_in_nom  # union strictly exceeds the nominal slice


def test_schur_row_check_examples():
    assert schur_row_check(np.eye(2), np.array([[1.0, 0.0]]), 1.0)[0]
    assert not schur_row_check(np.eye(2), np.array([[2.0, 0.0]]), 1.0)[0]


def test_schur_row_check_matches_eigenvalue_test():
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(500):
        n = rng.integers(2, 5)
        A = rng.normal(size=(n, n))
        P = A @ A.T + 0.1 * np.eye(n)
        row = rng.normal(size=(1, n))
        d = rng.uniform(0.1, 2.0)
        block = np.block([[np.array([[d * d]]), row], [row.T, P]])
        eig_ok = np.linalg.eigvalsh(block)[0] >= -1e-9
        schur_ok = schur_row_check(P, row, d, atol=1e-9)[0]
        agree += int(eig_ok == schur_ok)
    assert agree == 500


def test_schur_row_check_joint(joint_set):
    # same test with the blkdiag(P, Q) variant
    rng = np.random.default_rng(3)
    P, Q = joint_set.P, joint_set.Q
    rows = rng.normal(size=(5, 4))
    d = rng.uniform(0.5, 2.0, size=5)
    got = schur_row_check(P, rows, d, Q=Q, atol=1e-9)
    M = np.block([[P, np.zeros((3, 1))], [np.zeros((1, 3)), Q]])
    for j in range(5):
        blk = np.block([[np.array([[d[j] ** 2]]), rows[j: j + 1]],
                        [rows[j: j + 1].T, M]])
        assert got[j] == (np.linalg.eigvalsh(blk)[0] >= -1e-9)


def test_boundary_polyline_circle():
    E = nl.Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    pts = nl.boundary_polyline(E, (0, 1), 64)
    assert pts.shape == (65, 2)
    assert np.allclose(pts[0], pts[-1])
    radii = np.linalg.norm(pts, axis=1)
    assert np.max(np.abs(radii - 1.0)) <= 1e-10


def test_boundary_polyline_semi_axes():
    E = nl.Ellipsoid(center=np.zeros(2), shape=np.diag([4.0, 1.0]))
    pts = nl.boundary_polyline(E, (0, 1), 256)
    assert np.max(np.abs(pts[:, 0])) == pytest.approx(0.5, abs=1e-9)
    assert np.max(np.abs(pts[:, 1])) == pytest.approx(1.0, abs=1e-9)


def test_boundary_polyline_projection_vs_monte_carlo():
    # the projected shape matrix must enclose every projected boundary sample
    # and be touched (to 1e-3) by the per-angle extreme samples
    rng = np.random.default_rng(4)
    A = rng.normal(size=(3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    E = nl.Ellipsoid(center=np.zeros(3), shape=P)
    pts = nl.boundary_polyline(E, (0, 1), 64)[:-1]
    # recover the projected quadratic form from the polyline itself
    G = np.column_stack([pts[:, 0] ** 2, 2 * pts[:, 0] * pts[:, 1], pts[:, 1] ** 2])
    coef, *_ = np.linalg.lstsq(G, np.ones(len(pts)), rcond=None)
    P_proj = np.array([[coef[0], coef[1]], [coef[1], coef[2]]])

    U = rng.normal(size=(200000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(P)
    samples = (U * evals**-0.5) @ evecs.T
    proj = samples[:, :2]
    forms = np.einsum("ni,ij,nj->n", proj, P_proj, proj)
    assert np.max(forms) <= 1.0 + 1e-9  # containment
    ang = np.arctan2(proj[:, 1], proj[:, 0])
    bins = np.digitize(ang, np.linspace(-np.pi, np.pi, 73))
    touched = 0
    for b in range(1, 73):
        sel = bins == b
        if sel.any():
            touched += int(np.max(forms[sel]) >= 1.0 - 2e-3)
    assert touched >= 70  # the hull touches the ellipse all around


def test_boundary_polyline_min_points():
    E = nl.Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    with pytest.raises(ValueError):
        nl.boundary_polyline(E, (0, 1), 4)


def test_polyline_svg(tmp_path):
    E = nl.Ellipsoid(center=np.zeros(2), shape=np.eye(2))
    pts = nl.boundary_polyline(E, (0, 1), 32)
    svg_path = tmp_path / "poly.svg"
    roa.polylines_to_svg(svg_path, [(pts, "#123456")])
    import xml.etree.ElementTree as ET

    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root)


def test_joint_quad_batch_consistency(joint_set):
    rng = np.random.default_rng(5)
    x = rng.normal(size=3, scale=0.3)
    R = rng.uniform(-0.3, 0.3, size=(40, 1))
    batch = joint_set.joint_quad_many(x, R)
    scalar = np.array([joint_set.joint_quad(x, r) for r in R])
    assert np.max(np.abs(batch - scalar)) <= 1e-12 * (1.0 + np.max(np.abs(scalar)))


@pytest.mark.parametrize("k_xi", [1.0, 0.7, 3.0])
def test_xtil_star_batch_matches_rows(pendulum, k_xi):
    plant, nn, _k = pendulum
    J = nl.joint_ellipsoid_for(plant, nn, k_xi, np.eye(3), np.eye(1),
                               np.zeros(1))
    R = np.linspace(-0.4, 0.4, 61)[:, None]
    batch = J.xtil_star_batch(R)
    rows = np.array([J.xtil_star(r) for r in R])
    assert batch.shape == rows.shape == (61, 3)
    assert batch.tobytes() == rows.tobytes()


@pytest.mark.parametrize("k_xi", [0.7, 1.3, 3.0])
def test_slice_centers_are_the_reported_steady_states(pendulum, k_xi):
    # One map: the center a joint set uses is bit for bit the steady state
    # steady_state (and so a verification report) gives for that reference.
    plant, nn, _k = pendulum
    J = nl.joint_ellipsoid_for(plant, nn, k_xi, np.eye(3), np.eye(1),
                               np.zeros(1))
    for r in np.linspace(-0.3, 0.3, 61):
        r = np.array([r])
        ss = nl.steady_state(plant, nn, k_xi, r)
        assert ss.xtil_star.tobytes() == J.xtil_star(r).tobytes()


def _counting_copy(J):
    """J with a slice-center map that records each call, and the call list."""
    calls = []

    def xtil_star(r):
        calls.append(r.copy())
        return J.xtil_star(r)

    return roa.JointEllipsoid(P=J.P, Q=J.Q, r_nom=J.r_nom,
                              xtil_star=xtil_star), calls


def test_joint_quad_memo_is_bit_identical(joint_set):
    J, calls = _counting_copy(joint_set)
    rng = np.random.default_rng(17)
    for _ in range(200):
        r = rng.uniform(-0.3, 0.3, size=1)
        for repeat in range(2):
            x = rng.normal(size=3, scale=0.3)
            e = x - joint_set.xtil_star(r)
            expected = float(e @ J.P @ e) + J.ref_quad(r)
            assert J.joint_quad(x, r).hex() == expected.hex()
            # the first call computes the center, the repeat reads the memo
            assert len(calls) == len(set(map(bytes, calls)))
    assert len(calls) == 200


def test_joint_quad_memo_ignored_by_eq_and_repr():
    def center(r):
        return 2.0 * r

    J1 = roa.JointEllipsoid(P=[[2.0]], Q=[[4.0]], r_nom=[0.0], xtil_star=center)
    J2 = roa.JointEllipsoid(P=[[2.0]], Q=[[4.0]], r_nom=[0.0], xtil_star=center)
    for r in (0.1, -0.2, 0.3):
        J1.joint_quad([0.5], r)
    # one entry, the last reference's, replaced as a whole
    key, centre, ref_term = J1._last
    assert key == np.array([0.3]).tobytes() and J2._last is None
    assert np.array_equal(centre, [0.6]) and ref_term == J1.ref_quad(0.3)
    assert J1 == J2
    assert repr(J1) == repr(J2)


def test_sets_compare_by_value_and_are_unhashable():
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    E1 = roa.Ellipsoid(center=np.zeros(2), shape=P)
    E2 = roa.Ellipsoid(center=np.zeros(2), shape=P.copy())
    assert E1 == E2 and not E1 != E2
    assert E1 != roa.Ellipsoid(center=np.array([0.0, 0.1]), shape=P)
    assert E1 != roa.Ellipsoid(center=np.zeros(2), shape=2.0 * P)
    assert E1 != roa.Ellipsoid(center=np.zeros(2), shape=P, level=0.5)
    assert E1 != roa.Ellipsoid(center=np.zeros(3), shape=np.eye(3))
    assert E1 != "E1"

    def center(r):
        return np.concatenate([r, r])

    def other_center(r):
        return np.concatenate([r, r])

    Q = np.array([[4.0]])
    J1 = roa.JointEllipsoid(P=P, Q=Q, r_nom=[0.0], xtil_star=center)
    J2 = roa.JointEllipsoid(P=P.copy(), Q=Q.copy(), r_nom=[0.0],
                            xtil_star=center)
    assert J1 == J2
    assert J1 != roa.JointEllipsoid(P=2.0 * P, Q=Q, r_nom=[0.0],
                                    xtil_star=center)
    assert J1 != roa.JointEllipsoid(P=P, Q=2.0 * Q, r_nom=[0.0],
                                    xtil_star=center)
    assert J1 != roa.JointEllipsoid(P=P, Q=Q, r_nom=[0.1], xtil_star=center)
    assert J1 != roa.JointEllipsoid(P=P, Q=Q, r_nom=[0.0],
                                    xtil_star=other_center)
    for s in (E1, J1):
        with pytest.raises(TypeError, match="unhashable"):
            hash(s)
