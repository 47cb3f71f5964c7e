"""_floatrepr.reprs against Python's own repr, float by float."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nnloop._floatrepr import reprs


def assert_reprs_match(values):
    x = np.asarray(values, dtype=np.float64).ravel()
    got = reprs(x).tolist()
    want = [repr(v).encode() for v in x.tolist()]
    bad = [(w, g) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} of {x.size} differ, e.g. {bad[:5]}"


@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_reprs_match_repr_on_hypothesis_floats(values):
    # st.floats() draws NaN, both infinities, both zeros and subnormals.
    assert_reprs_match(values)


def test_reprs_match_repr_on_random_bit_patterns():
    rng = np.random.default_rng(20201231)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_reprs_match(bits.view(np.float64))


def test_reprs_match_repr_at_powers_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # Where the layout switches between positional and exponent form.
    switches = np.array([1e16, 1e-4, 1e-5, 9999999999999998.0, 1e15,
                         0.0001, 0.00009999999999999999, 123456789012345.6])
    for x in (twos, tens, switches):
        near = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
        assert_reprs_match(np.concatenate([near, -near]))


def test_reprs_special_values_and_smallest_subnormals():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                     0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64).view(np.float64)
    x = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-323,
                         8e-323, 1e-322, np.finfo(float).max,
                         -np.finfo(float).max, np.finfo(float).tiny], nans])
    assert_reprs_match(x)
    assert reprs(x[:6]).tolist() == [b"0.0", b"-0.0", b"inf", b"-inf",
                                     b"5e-324", b"-5e-324"]
    assert set(reprs(nans).tolist()) == {b"nan"}
    # The 2^14 smallest subnormals, where the shortest digits are fewest.
    assert_reprs_match(np.arange(1, 2**14, dtype=np.uint64).view(np.float64))


def test_reprs_of_an_empty_array():
    assert reprs(np.zeros(0)).tolist() == []
