"""Level assembly, difference tables, branches and doublet partners."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from product_oracle import layout, rotate_segments, secular_product

from ptring import (
    EnergyLevel,
    LevelShortfallWarning,
    RootRecord,
    analyze_series,
    build_square_well,
    energies_from_roots,
    find_roots,
    first_differences,
    secular_explicit,
    secular_monodromy,
)

# frozen 18-level reference spectrum of the eight-by-eight system at Z = 1
E_Z1 = [
    0.149312338812174895,
    1.45996483336400377,
    3.46468578188012108,
    9.7927706883418701,
    9.89511071189826787,
    20.1273564582467584,
    24.2732365650552435,
    39.4593893557492856,
    39.4847704916667678,
    58.9545646075870649,
    64.4107486185106332,
    88.8179909328031566,
    88.8292584382865741,
    117.648136788085012,
    124.154734888991336,
    157.908919413918169,
    157.915254975028347,
    196.154021887847198,
]
T_Z1 = [
    0.656419569606386165771,
    0.3934710176605069340951,
    0.2659198624354214277554,
    0.1595707645052334930822,
    0.1587476660683445053169,
    0.1114147664453410750752,
    0.1014644909004648103075,
    0.07959026804746830444437,
    0.07956469150039351410166,
    0.06511719261341520152622,
    0.06229852252045557359147,
    0.0530533302387008456488,
    0.05304996558285919536241,
    0.04609709480078567164293,
    0.04487297248872351844684,
    0.03978913487008050862374,
    0.03978833670789681931525,
    0.03570014539314851402317,
]
# the factor of the explicit closure whose root each level is: k(a - b1),
# k(a + b1), k(a - b2) and k(a + b2) are 0-3
F_Z1 = [0, 2, 0, 2, 3, 1, 3, 1, 0, 2, 0, 2, 3, 1, 3, 1, 0, 2]


def _record(t, factor=0, unresolved=False):
    return RootRecord(
        t=t,
        residual_logmag=-30.0,
        bracket_width=1e-13,
        unresolved_doublet=unresolved,
        factor=factor,
    )


def _level(n, E, branch=None, partner=None):
    """Level n at energy E, of its own t."""
    return EnergyLevel(n, 1.0 / (n + 1), 0.5, E, n % 4, partner, branch)


@pytest.fixture(scope="module")
def levels_z1():
    return energies_from_roots([_record(t, factor=k) for t, k in zip(T_Z1, F_Z1)], 1.0)


@pytest.fixture(scope="module")
def report_z1(levels_z1):
    return analyze_series(levels_z1)


# --- energies_from_roots -----------------------------------------------------


def test_energy_reconstruction(levels_z1):
    for lvl, t, e in zip(levels_z1, T_Z1, E_Z1):
        s = 1.0 / (2.0 * t)
        assert lvl.s == s
        assert lvl.E == s * s - t * t
        assert lvl.E == pytest.approx(e, rel=1e-12)
    assert [lvl.n for lvl in levels_z1] == list(range(18))
    assert [lvl.series for lvl in levels_z1] == [n % 4 for n in range(18)]
    assert [lvl.branch for lvl in levels_z1] == F_Z1


def test_zero_energy_point():
    # s = t makes E vanish up to rounding
    z = 1.0
    t = math.sqrt(z / 2.0)
    lv = energies_from_roots([_record(t)], z)
    assert abs(lv[0].E) < 1e-14


def test_levels_and_reports_are_frozen_records():
    """EnergyLevel and SpectrumReport keep the reprs they had as
    dataclasses, refuse assignment, and are copied with _replace."""
    level = EnergyLevel(3, 0.5, 1.0, 0.75, 3)
    assert repr(level) == (
        "EnergyLevel(n=3, t=0.5, s=1.0, E=0.75, series=3, doublet_partner=None, "
        "branch=None)"
    )
    linked = level._replace(doublet_partner=1)
    assert linked.doublet_partner == 1 and level.doublet_partner is None
    assert linked == EnergyLevel(n=3, t=0.5, s=1.0, E=0.75, series=3, doublet_partner=1)
    report = analyze_series([EnergyLevel(0, 0.5, 1.0, 0.75, 0, branch=2)])
    assert repr(report) == (
        "SpectrumReport(levels=(EnergyLevel(n=0, t=0.5, s=1.0, E=0.75, series=0, "
        "doublet_partner=None, branch=2),), delta1=(None,), even_second=(), "
        "odd_second=(), odd_third=(), odd_third_nested=(), quasi_pairs=())"
    )
    for value, field in (
        (level, "E"), (level, "doublet_partner"), (level, "branch"), (report, "levels")
    ):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_doublet_expansion_partners():
    """An unresolved record expands into two levels at one E, both of its
    factor's branch; the partner link between them comes from
    analyze_series, not from the expansion."""
    recs = [_record(0.5, factor=1), _record(0.1, unresolved=True, factor=2)]
    lv = energies_from_roots(recs, 1.0)
    assert len(lv) == 3
    assert lv[1].E == lv[2].E
    assert [lvl.doublet_partner for lvl in lv] == [None, None, None]
    assert [lvl.branch for lvl in lv] == [1, 2, 2]
    tagged = analyze_series(lv).levels
    assert [lvl.doublet_partner for lvl in tagged] == [None, 2, 1]


def test_rejects_non_descending_roots():
    """Records of ascending t, or of one t and one factor, are out of
    order; so is a Z below the floor."""
    for ts in ([0.1, 0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match="strictly descending"):
            energies_from_roots([_record(t, factor=0) for t in ts], 1.0)
    with pytest.raises(ValueError):
        energies_from_roots([_record(0.5, factor=0)], -1.0)


def test_equal_t_roots_of_two_factors():
    """Roots of two factors at one t are two levels of one E, each of its
    own branch, in ascending factor; one factor twice, or a descending
    factor, at one t is an order fault. analyze_series links a +- pair of
    them once, and two factors of two b's not at all."""
    recs = [_record(0.5, factor=0), _record(0.5, factor=1)]
    lv = energies_from_roots(recs, 1.0)
    assert [(lvl.n, lvl.t, lvl.branch) for lvl in lv] == [(0, 0.5, 0), (1, 0.5, 1)]
    assert lv[0].E == lv[1].E
    assert analyze_series(lv).quasi_pairs == ((0, 1, 0.0),)
    # of two b's, not a +- pair: one t alone does not link them
    lv = energies_from_roots([_record(0.5, factor=1), _record(0.5, factor=2)], 1.0)
    assert analyze_series(lv).quasi_pairs == ()
    for factors in ((0, 0), (1, 0), (1, 1)):
        with pytest.raises(ValueError, match="by ascending factor at equal t"):
            energies_from_roots([_record(0.5, factor=k) for k in factors], 1.0)


@pytest.mark.parametrize("t", [0.0, -0.5])
def test_rejects_non_positive_roots(t):
    with pytest.raises(ValueError, match="every root must have t > 0"):
        energies_from_roots([_record(1.0), _record(t)], 1.0)


@pytest.mark.parametrize("t", [0.0, -0.5, math.nan])
def test_non_positive_root_is_named_before_an_order_fault(t):
    """A t <= 0 (or NaN) anywhere is the error, even after the order fault
    of 0.1 before 0.5."""
    with pytest.raises(ValueError, match="every root must have t > 0"):
        energies_from_roots([_record(0.1), _record(0.5), _record(t)], 1.0)


# --- difference tables --------------------------------------------------------


def test_first_differences(levels_z1):
    d = first_differences(levels_z1)
    assert d[0] is None
    assert d[4] == pytest.approx(0.102340023557, rel=1e-9)
    assert d[16] == pytest.approx(0.006335561110, rel=1e-6)
    assert len(d) == 18


def test_second_difference_tables(report_z1):
    even = dict(report_z1.even_second)
    assert sorted(even) == [6, 8, 10, 12, 14, 16]
    assert even[6] == pytest.approx(2.14115915838, rel=1e-9)
    assert even[8] == pytest.approx(-0.0769588876600, rel=1e-9)
    assert even[10] == pytest.approx(1.31030390400, rel=1e-8)
    assert even[12] == pytest.approx(-0.0141136304, rel=1e-6)
    assert even[14] == pytest.approx(1.05041409010, rel=1e-8)
    assert even[16] == pytest.approx(-0.0049319445, rel=1e-5)

    odd = dict(report_z1.odd_second)
    assert sorted(odd) == [3, 5, 7, 9, 11, 13, 15, 17]
    printed = [5.018, 3.904, 4.954, 4.283, 4.938, 4.422, 4.935, 4.485]
    for n, want in zip(range(3, 18, 2), printed):
        assert odd[n] == pytest.approx(want, abs=0.05)


def test_third_difference_tables(report_z1):
    delta = report_z1.delta1
    lit = dict(report_z1.odd_third)
    assert sorted(lit) == [9, 11, 13, 15, 17]
    for n, v in report_z1.odd_third:
        assert v == pytest.approx(delta[n] - 2 * delta[n - 4] + delta[n - 8], rel=1e-12)
    assert lit[11] == pytest.approx(0.36302163956, rel=1e-7)
    assert lit[13] == pytest.approx(0.1115358642, rel=1e-6)

    nested = dict(report_z1.odd_third_nested)
    assert sorted(nested) == [5, 7, 9, 11, 13, 15, 17]
    for n, v in report_z1.odd_third_nested:
        assert v == pytest.approx(delta[n] - 2 * delta[n - 2] + delta[n - 4], rel=1e-12)
    # the nested form is the one that alternates in sign with shrinking size
    assert nested[5] == pytest.approx(-1.1132715721, rel=1e-7)
    assert nested[7] == pytest.approx(1.04974620446, rel=1e-7)
    assert nested[9] == pytest.approx(-0.670265719, rel=1e-6)
    assert nested[11] == pytest.approx(0.6538068731, rel=1e-7)
    assert nested[13] == pytest.approx(-0.525812163, rel=1e-7)
    assert nested[15] == pytest.approx(0.5236701399, rel=1e-7)
    assert nested[17] == pytest.approx(-0.4507237873, rel=1e-7)


# --- doublet partners ------------------------------------------------------------


def test_quasi_pairs_z1(report_z1):
    idx = [(i, j) for i, j, _ in report_z1.quasi_pairs]
    assert idx == [(3, 4), (7, 8), (11, 12), (15, 16)]
    gaps = [g for _, _, g in report_z1.quasi_pairs]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[0] == pytest.approx(0.102340, abs=1e-5)
    assert gaps[3] == pytest.approx(0.006336, abs=1e-5)


def test_quasi_pairs_tag_partners(report_z1):
    lv = report_z1.levels
    for i, j, _ in report_z1.quasi_pairs:
        assert lv[i].doublet_partner == j
        assert lv[j].doublet_partner == i
        assert {lv[i].branch, lv[j].branch} in ({0, 1}, {2, 3})
    assert lv[5].doublet_partner is None
    assert lv[6].doublet_partner is None


def test_levels_of_two_bs_are_not_linked(levels_z1):
    """Levels 5 and 6 are roots of k(a + b1) and k(a + b2), of two b's, and
    stay apart; so do 1 and 2, roots of k(a - b2) and k(a - b1)."""
    pairs = [(i, j) for i, j, _ in analyze_series(levels_z1).quasi_pairs]
    assert (5, 6) not in pairs and (1, 2) not in pairs


def test_plus_minus_rule_ignores_the_gap():
    """Branches 2j and 2j + 1 link however wide their gap, branches of two
    b's do not however narrow it, and a level without a branch links by
    branch to nothing; greedy from below, a level joins at most one pair."""
    lv = [
        _level(0, 1.0, branch=1),
        _level(1, 5.0, branch=0),
        _level(2, 5.0 + 1e-9, branch=2),
        _level(3, 7.0, branch=1),
        _level(4, 7.1, branch=0),
        _level(5, 7.2, branch=1),
        _level(6, 7.3),
        _level(7, 7.4, branch=0),
    ]
    report = analyze_series(lv)
    assert report.quasi_pairs == ((0, 1, 4.0), (3, 4, pytest.approx(0.1)))
    assert [lvl.doublet_partner for lvl in report.levels] == [
        1, 0, None, 4, 3, None, None, None
    ]
    assert [lvl.branch for lvl in report.levels] == [lvl.branch for lvl in lv]


def test_quasi_pairs_exact_degeneracy():
    """The two levels of one record, at one t and of one branch (none,
    as read from a file), link."""
    lv = [
        EnergyLevel(n=0, t=1.0, s=0.5, E=1.0, series=0, branch=0),
        EnergyLevel(n=1, t=0.9, s=0.55, E=5.0, series=1),
        EnergyLevel(n=2, t=0.9, s=0.55, E=5.0, series=2),
    ]
    assert analyze_series(lv).quasi_pairs == ((1, 2, 0.0),)


def test_given_partners_link_levels_without_branches():
    """A spectrum read from a file has no branches: its own partner column
    links two adjacent levels, and a level without one stays single."""
    lv = [
        _level(0, 1.0, partner=1),
        _level(1, 3.0, partner=0),
        _level(2, 3.01),
        _level(3, 3.02),
    ]
    report = analyze_series(lv)
    assert report.quasi_pairs == ((0, 1, 2.0),)
    assert [lvl.doublet_partner for lvl in report.levels] == [1, 0, None, None]


def test_quasi_pairs_tag_partners_by_level_number():
    """Partners are keyed by n, so levels that do not start at n = 0 (a
    slice of a longer spectrum) are tagged too, and untagged ones are
    returned as given."""
    lv = [
        _level(n, e, branch=k)
        for n, e, k in zip(range(10, 14), [1.0, 5.0, 5.0, 9.0], [0, 2, 3, 1])
    ]
    report = analyze_series(lv)
    assert report.quasi_pairs == ((11, 12, 0.0),)
    assert [lvl.doublet_partner for lvl in report.levels] == [None, 12, 11, None]
    assert report.levels[0] is lv[0] and report.levels[3] is lv[3]


def _solve(closure, Z, n_levels):
    """The lowest n_levels levels of the closure ("explicit" or the
    monodromy's cell count M) at Z, as the CLI cuts them."""
    well = None if closure == "explicit" else build_square_well(closure, Z)

    def f(t):
        return secular_explicit(Z, t) if well is None else secular_monodromy(well, Z, t)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # M = 1 finds 63 of 100
        return energies_from_roots(find_roots(f, Z, n_levels), Z)[:n_levels]


def test_branches_of_the_explicit_closure():
    """The factor sequences of the module docstring; at Z = 4 a pair has
    left the real axis, so the series moved but the branches did not."""
    assert [lvl.branch for lvl in _solve("explicit", 1.0, 12)] == F_Z1[:12]
    assert [lvl.branch for lvl in _solve("explicit", 4.0, 12)] == [
        2, 2, 3, 1, 3, 1, 0, 2, 0, 2, 3, 1
    ]
    # at M = 8 each Bloch doublet is one root of the count-2 factor, index 2
    lv = _solve(8, 1.0, 5)
    assert [lvl.branch for lvl in lv] == [0, 2, 2, 2, 2]


def test_no_partner_outside_the_input():
    """Partners are decided after the level cut, among the levels given: at
    Z = 1 the explicit level 99, of k(a - b2), has its +- partner at 100,
    and is returned without one when the cut is at 100 levels."""
    lv = _solve("explicit", 1.0, 101)
    assert [lvl.doublet_partner for lvl in lv] == [None] * 101
    assert (lv[99].branch, lv[100].branch) == (2, 3)
    assert analyze_series(lv).levels[99].doublet_partner == 100
    cut = analyze_series(lv[:100])
    assert cut.levels[99].doublet_partner is None
    assert all(j < 100 for _, j, _ in cut.quasi_pairs)


@pytest.mark.parametrize("closure", ["explicit", 1, 2, 8])
@pytest.mark.parametrize("Z", [0.1, 0.5, 1.0, 2.0])
def test_partners_follow_the_doublet_law(closure, Z):
    """Every linked pair of distinct t is split by Delta E = Z^2 / E_n to
    1%; the worst is 0.81%, explicit at Z = 2. Exact Bloch doublets (equal
    t) are excluded. Adjacent levels of two b's read thousands, and stay
    apart: (29, 30) at Z = 1, within 2% of E, about 5.3e3."""
    report = analyze_series(_solve(closure, Z, 100))
    lv = report.levels
    law = [g * lv[i].E / Z**2 for i, j, g in report.quasi_pairs if lv[i].t != lv[j].t]
    assert law and max(abs(x - 1.0) for x in law) <= 0.01, law
    if closure == "explicit" and Z == 1.0:
        assert lv[29].doublet_partner is None
        assert (lv[30].E - lv[29].E) * lv[29].E / Z**2 == pytest.approx(5.3e3, rel=0.01)


# --- rotation invariance ---------------------------------------------------------


def test_spectrum_invariant_under_rotation():
    """Rotating the segment pattern leaves secular roots in place: the
    propagator product of a rotated layout has the closed form's roots, at
    M = 1 and, through the product's count-2 factor U_(M-1)(tau/2), at
    M = 2 and 8, whose doublets it finds as the closed form does."""
    z = 1.0
    for M in (1, 2, 8):
        well = build_square_well(M, z)
        rot = rotate_segments(layout(well), 3)
        a = find_roots(lambda t: secular_monodromy(well, z, t), z, 3)
        b = find_roots(lambda t: secular_product(rot, z, t), z, 3)
        assert [r.unresolved_doublet for r in a] == [r.unresolved_doublet for r in b]
        for ra, rb in zip(a, b):
            assert abs(ra.t - rb.t) < 1e-9


@settings(max_examples=40, deadline=None)
@given(Z=st.floats(0.05, 4.0), M=st.sampled_from([1, 2, 3, 8]), data=st.data())
def test_spectrum_invariant_under_any_rotation(Z, M, data):
    """The property behind the test above, over couplings, cell counts and
    every rotation k in 1..4M - 1 of the 4M segments: the product of the
    rotated layout gives the closed form's records, with the same doublet
    flags and each t within 1e-9."""
    k = data.draw(st.integers(1, 4 * M - 1), label="k")
    well = build_square_well(M, Z)
    rot = rotate_segments(layout(well), k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        a = find_roots(lambda t: secular_monodromy(well, Z, t), Z, 3)
        b = find_roots(lambda t: secular_product(rot, Z, t), Z, 3)
    assert [r.unresolved_doublet for r in a] == [r.unresolved_doublet for r in b]
    assert [r.t for r in b] == pytest.approx([r.t for r in a], rel=0, abs=1e-9)
