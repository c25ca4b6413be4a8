"""Level assembly, difference tables, and quasi-degeneracy flags."""

import math
from dataclasses import replace

import pytest

from ptring import (
    EnergyLevel,
    RootRecord,
    analyze_series,
    build_square_well,
    energies_from_roots,
    find_roots,
    first_differences,
    quasi_degenerate_pairs,
    rotate_segments,
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


def _record(t, unresolved=False):
    return RootRecord(
        t=t,
        residual_logmag=-30.0,
        bracket_width=1e-13,
        unresolved_doublet=unresolved,
    )


@pytest.fixture(scope="module")
def levels_z1():
    return energies_from_roots([_record(t) for t in T_Z1], 1.0)


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


def test_zero_energy_point():
    # s = t makes E vanish up to rounding
    z = 1.0
    t = math.sqrt(z / 2.0)
    lv = energies_from_roots([_record(t)], z)
    assert abs(lv[0].E) < 1e-14


def test_doublet_expansion_partners():
    """An unresolved record expands into two levels at one E; the partner
    link between them comes from analyze_series, not from the expansion."""
    recs = [_record(0.5), _record(0.1, unresolved=True)]
    lv = energies_from_roots(recs, 1.0)
    assert len(lv) == 3
    assert lv[1].E == lv[2].E
    assert [lvl.doublet_partner for lvl in lv] == [None, None, None]
    tagged = analyze_series(lv).levels
    assert [lvl.doublet_partner for lvl in tagged] == [None, 2, 1]


def test_rejects_non_descending_roots():
    with pytest.raises(ValueError):
        energies_from_roots([_record(0.1), _record(0.5)], 1.0)
    with pytest.raises(ValueError):
        energies_from_roots([_record(0.5)], -1.0)


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


# --- quasi-degeneracy ----------------------------------------------------------


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
    assert lv[5].doublet_partner is None
    assert lv[6].doublet_partner is None


def test_quasi_pairs_wide_gap_not_flagged(levels_z1):
    # levels 5 and 6 sit 4.146 apart, far above threshold
    pairs = quasi_degenerate_pairs(levels_z1)
    assert (5, 6) not in [(i, j) for i, j, _ in pairs]


def test_quasi_pairs_exact_degeneracy():
    lv = [
        EnergyLevel(n=0, t=1.0, s=0.5, E=1.0, series=0),
        EnergyLevel(n=1, t=0.9, s=0.55, E=5.0, series=1),
        EnergyLevel(n=2, t=0.9, s=0.55, E=5.0, series=2),
    ]
    pairs = quasi_degenerate_pairs(lv)
    assert pairs == [(1, 2, 0.0)]


def test_quasi_pairs_tag_partners_by_level_number():
    """Partners are keyed by n, so levels that do not start at n = 0 (a
    slice of a longer spectrum) are tagged too, and untagged ones are
    returned as given."""
    lv = [
        EnergyLevel(n=n, t=1.0 / (n + 1), s=0.5, E=e, series=n % 4)
        for n, e in zip(range(10, 14), [1.0, 5.0, 5.0, 9.0])
    ]
    report = analyze_series(lv)
    assert report.quasi_pairs == ((11, 12, 0.0),)
    assert [lvl.doublet_partner for lvl in report.levels] == [None, 12, 11, None]
    assert report.levels[0] is lv[0] and report.levels[3] is lv[3]


# --- rotation invariance ---------------------------------------------------------


def test_spectrum_invariant_under_rotation():
    """Rotating the segment pattern leaves secular roots in place."""
    z = 1.0
    pot = build_square_well(2, z)
    rot = rotate_segments(pot, 3)

    def f(p):
        return lambda t: secular_monodromy(p, z, t)

    a = find_roots(f(pot), z, 3)
    b = find_roots(f(rot), z, 3)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert abs(ra.t - rb.t) < 1e-9
