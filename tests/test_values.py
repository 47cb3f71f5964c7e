"""Value equality of every frozen array-holding record (plant._Value)."""

import copy
import dataclasses

import numpy as np
import pytest

import nnloop as nl
from nnloop.assets import PENDULUM_D, pendulum_example

# Each value type with the field in which one entry is changed: an array, or
# a tuple led by an array.
CHANGED_FIELD = {
    "Plant": "A", "AugmentedPlant": "Btil", "SteadyStateMap": "M",
    "SteadyState": "xtil_star", "FeedForwardNN": "layers", "LayerTrace": "w",
    "BoundBox": "v_hi", "SectorBounds": "alpha_phi", "Selectors": "RV",
    "LMIBlock": "coeffs", "LMISystem": "objective", "Trajectory": "outputs",
    "Ellipsoid": "center", "JointEllipsoid": "P", "AdmissibleRefs": "semi_lengths",
}


def _centers(r):
    return np.concatenate([r, r, -r], axis=-1)


def _values() -> dict:
    """One value of each type, built from scratch, by type name."""
    plant, nn, k_xi = pendulum_example()
    aug = nl.augment(plant, k_xi)
    r = np.array([0.1])
    ss = nl.steady_state(plant, nn, k_xi, r)
    trace = nl.forward(nn, ss.x_star, r)
    box = nl.propagate_box(nn, trace.v[0], PENDULUM_D)
    sel = nl.build_selectors(nn, aug.n_xtil)
    secs = nl.local_sectors(nn, box, trace.v)
    values = [
        plant, aug, nl.steady_state_map(plant), ss, nn, trace, box, secs, sel,
        nl.build_global(aug, sel, 0.0, 1.0).blocks[0],
        nl.build_local_fixed(aug, sel, secs, PENDULUM_D),
        nl.simulate(aug, nn, np.array([0.1, 0.0, 0.0]), r, 30),
        nl.Ellipsoid(center=np.array([0.1, -0.2]),
                     shape=[[2.0, 0.3], [0.3, 1.0]], level=0.5),
        nl.JointEllipsoid(P=np.diag([2.0, 1.5, 1.0]), Q=[[4.0]], r_nom=r,
                          xtil_star=_centers),
        nl.admissible_references([[4.0]], r),
    ]
    return {type(v).__name__: v for v in values}


def _changed(a):
    """A copy of the array a, or of a tuple led by one, whose first entry
    is one ulp lower."""
    if isinstance(a, tuple):
        return (_changed(a[0]),) + a[1:]
    a = np.array(a, dtype=float)
    a.flat[0] = np.nextafter(a.flat[0], -np.inf)
    return a


def test_values_cover_every_type():
    assert list(_values()) == list(CHANGED_FIELD)


@pytest.mark.parametrize("name", CHANGED_FIELD)
def test_values_compare_by_value_and_are_unhashable(name):
    # Equal to a rebuild and a deep copy; unequal with one entry one ulp
    # lower, and to a value of another type; like their arrays, no hash.
    values = _values()
    value = values[name]
    assert value == _values()[name] and not value != _values()[name]
    assert value == copy.deepcopy(value)
    field = CHANGED_FIELD[name]
    changed = dataclasses.replace(value, **{field: _changed(getattr(value, field))})
    assert value != changed and changed != value
    for other in values.values():
        assert (value == other) is (other is value)
    assert value != name
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_filled_joint_set_caches_leave_equality_alone(pendulum, thm3_report):
    plant, nn, k_xi = pendulum
    J = nl.joint_ellipsoid_for(plant, nn, k_xi, np.array(thm3_report["P"]),
                               np.array(thm3_report["Q"]), np.zeros(1))
    fresh = dataclasses.replace(J)
    J.grid
    J.joint_quad(J.xtil_star(np.zeros(1)), np.array([0.1]))
    assert J._grid is not None and J._last is not None
    assert fresh._grid is None and fresh._last is None
    assert J == fresh and fresh == J


def test_diverged_trajectory_equals_its_rebuild(pendulum, pendulum_aug):
    # The CI's overflowing start: the first step overflows, and the run
    # keeps its non-finite last row; its last output is NaN.
    _plant, nn, _k = pendulum

    def run():
        return nl.simulate(pendulum_aug, nn, np.full(3, 1.79e308),
                           np.zeros(1), 10)

    traj = run()
    assert traj.diverged and np.isnan(traj.outputs[-1]).all()
    assert traj == run() and traj == copy.deepcopy(traj)
