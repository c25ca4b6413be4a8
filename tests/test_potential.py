"""Geometry and symmetry of the alternating imaginary square-well family:
the library's SquareWell, and its segment layout in the product oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from product_oracle import CirclePotential, is_pt_symmetric, layout, rotate_segments

from ptring import SquareWell, build_square_well


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("Z", [0.1, 1.0, 10.0])
def test_square_well_structure(M, Z):
    well = build_square_well(M, Z)
    assert (well.M, well.Z) == (M, Z)
    pot = layout(well)
    assert pot.circumference == 4.0
    assert pot.start == -2.0
    assert len(pot.segments) == 4 * M
    for j, (width, value) in enumerate(pot.segments):
        assert width == pytest.approx(1.0 / M, rel=1e-15)
        assert value.real == 0.0
        # +iZ first, alternating strictly
        assert value.imag == pytest.approx((-1) ** j * Z if j % 2 else Z)
    assert abs(sum(w for w, _ in pot.segments) - 4.0) < 1e-12
    assert is_pt_symmetric(pot)


@pytest.mark.parametrize("M", [1, 2, 5])
def test_value_at_midpoints(M):
    """Sign of Im V at every segment midpoint follows the alternation."""
    Z = 1.0
    pot = layout(build_square_well(M, Z))
    h = 1.0 / M
    for j in range(4 * M):
        mid = -2.0 + (j + 0.5) * h
        v = pot.value_at(mid)
        assert v == complex(0.0, Z if j % 2 == 0 else -Z)


def test_value_at_boundaries_left_closed():
    pot = layout(build_square_well(1, 2.0))
    assert pot.value_at(-2.0) == 2j
    assert pot.value_at(-1.0) == -2j
    assert pot.value_at(0.0) == 2j
    assert pot.value_at(1.0) == -2j
    # x = 2 wraps around to the start
    assert pot.value_at(2.0) == 2j


def test_value_at_periodic_wrap():
    pot = layout(build_square_well(2, 1.0))
    for x in (-1.3, -0.2, 0.45, 1.9):
        assert pot.value_at(x + 4.0) == pot.value_at(x)
        assert pot.value_at(x - 4.0) == pot.value_at(x)


def test_boundaries_m1():
    pot = layout(build_square_well(1, 1.0))
    assert pot.boundaries() == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad_m", [0, -1, 2.5, "3"])
def test_build_rejects_bad_m(bad_m):
    with pytest.raises(ValueError):
        build_square_well(bad_m, 1.0)


@pytest.mark.parametrize("bad_z", [0.0, -1.0])
def test_build_rejects_bad_z(bad_z):
    with pytest.raises(ValueError):
        build_square_well(1, bad_z)


def test_potential_rejects_real_values():
    with pytest.raises(ValueError):
        CirclePotential(
            circumference=4.0,
            start=-2.0,
            segments=((2.0, 1.0 + 1j), (2.0, -1j)),
        )


def test_potential_rejects_bad_width_sum():
    with pytest.raises(ValueError):
        CirclePotential(
            circumference=4.0,
            start=-2.0,
            segments=((1.0, 1j), (1.0, -1j)),
        )


def test_potential_is_a_value():
    """repr, equality and hashing see M and Z alone, only another SquareWell
    can equal one, and no attribute can be assigned."""
    well = build_square_well(1, 1.0)
    assert repr(well) == "SquareWell(M=1, Z=1.0)"
    same = SquareWell(M=1, Z=1.0)
    assert same == well and hash(same) == hash(well)
    assert well != build_square_well(1, 2.0)
    assert well != build_square_well(2, 1.0)
    assert well != (1, 1.0)
    with pytest.raises(AttributeError):
        well.M = 2
    with pytest.raises(AttributeError):
        well.label = "well"
    assert well.M == 1 and not hasattr(well, "label")


def test_rotation_full_turn_is_identity():
    for M in (1, 3):
        pot = layout(build_square_well(M, 1.0))
        assert rotate_segments(pot, 4 * M).segments == pot.segments


def test_rotation_by_one_starts_negative():
    pot = layout(build_square_well(2, 1.0))
    rot = rotate_segments(pot, 1)
    assert rot.segments[0][1] == -1j
    assert len(rot.segments) == len(pot.segments)


def test_rotation_by_two_preserves_alternation():
    """A shift by a full period of the alternation reproduces the pattern."""
    pot = layout(build_square_well(1, 1.0))
    rot = rotate_segments(pot, 2)
    assert rot.segments == pot.segments


def test_rotation_by_one_keeps_pt_symmetry():
    # a half-period shift flips the sign of V, which is PT-symmetric too
    pot = layout(build_square_well(1, 1.0))
    assert is_pt_symmetric(rotate_segments(pot, 1))


def test_pt_symmetry_detects_asymmetric_layout():
    pot = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((0.5, 1j), (1.5, -1j), (1.0, 1j), (1.0, -1j)),
    )
    assert not is_pt_symmetric(pot)


def test_pt_symmetry_detects_a_slightly_moved_boundary():
    """A boundary moved by 1e-3 breaks the symmetry on a piece of width
    1e-3, however few points a sampling check would put there."""
    pot = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((1.001, 1j), (0.999, -1j), (1.0, 1j), (1.0, -1j)),
    )
    assert not is_pt_symmetric(pot)


def test_pt_symmetry_ignores_an_edge_between_equal_values():
    """An edge between two segments of one value has no mirror edge, yet
    V(-x) = conj(V(x)) holds everywhere: +i on [-2, 0), -i on [0, 2)."""
    pot = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((1.0, 1j), (1.0, 1j), (2.0, -1j)),
    )
    assert is_pt_symmetric(pot)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    z=st.floats(min_value=1e-3, max_value=1e3),
    x=st.floats(min_value=-2.0, max_value=2.0),
)
def test_pt_symmetry_pointwise(m, z, x):
    """V(-x) = conj(V(x)) away from segment edges."""
    pot = layout(build_square_well(m, z))
    h = 1.0 / m
    # skip points too close to an edge: the half-open convention makes the
    # two sides land in different segments there
    if abs(x / h - round(x / h)) * h < 1e-9:
        return
    assert pot.value_at(-x) == pot.value_at(x).conjugate()
