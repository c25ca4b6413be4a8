"""Acceptance gate: nine criteria, each with pinned reference values.

Every test prints one line, "acceptance criterion N (label): PASS/FAIL",
before asserting, and the same lines are echoed in the terminal summary.
Two criteria (4 and 7) fail by design of the artifact and are expected
red; the detail text and README record why. They are asserted as stated, not
weakened: a red line here documents a real property of the system.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES
from fd_oracle import fd_eigenvalues
from product_oracle import _product_closure, layout, monodromy, rotate_segments

from ptring import (
    ScanConfig,
    SpectralPoint,
    analyze_series,
    build_square_well,
    energies_from_roots,
    find_roots,
    secular_explicit,
    secular_monodromy,
)

# reference 18-level regression table at Z = 1: printed t (string keeps the
# rounding precision) and printed E per level
REF_T = [
    "0.656", "0.393", "0.266", "0.1596", "0.1587", "0.111", "0.101",
    "0.07959", "0.07956", "0.0651", "0.0623", "0.053053", "0.053050",
    "0.0461", "0.0449", "0.039789", "0.039788", "0.0357",
]
REF_E = [
    0.149312, 1.459965, 3.464686, 9.792771, 9.895111, 20.127356, 24.273237,
    39.459389, 39.484770, 58.954565, 64.410749, 88.817991, 88.829258,
    117.64814, 124.15474, 157.90892, 157.91526, 196.15402,
]

# criterion-3 targets Delta_n - Delta_{n-4}, Delta_n = E_n - E_{n-1}. The
# n=8 row follows from REF_E: (39.484770 - 39.459389) - (9.895111 - 9.792771)
# = -0.076959, so the value once stated as -0.77 was -0.077 with a zero
# dropped (every spectrum within criterion 1's 1e-4 gives [-0.087, -0.067]).
EVEN_SECOND_TARGETS = {
    6: 2.142, 8: -0.077, 10: 1.310, 12: -0.014, 14: 1.051, 16: -0.0049,
}
EVEN_SECOND_TOL = 0.05


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def levels_z1():
    recs = find_roots(lambda t: secular_explicit(1.0, t), 1.0, 18)
    return energies_from_roots(recs, 1.0)[:18]


@pytest.fixture(scope="module")
def report_z1(levels_z1):
    return analyze_series(levels_z1)


def test_criterion_1_spectrum_regression(levels_z1):
    """Z=1, M=1, 18 levels: E within 1e-4 relative (tight ends absolute),
    t within the reference column's printed precision."""
    bad = []
    for n, (lvl, t_str, e_ref) in enumerate(zip(levels_z1, REF_T, REF_E)):
        if abs(lvl.E - e_ref) > 1e-4 * abs(e_ref):
            bad.append(f"E_{n}")
        decimals = len(t_str.split(".")[1])
        if abs(lvl.t - float(t_str)) > 0.5 * 10.0 ** (-decimals) + 1e-15:
            bad.append(f"t_{n}")
    if abs(levels_z1[0].E - 0.149312) > 5e-6:
        bad.append("E_0 absolute")
    if abs(levels_z1[17].E - 196.15402) > 2e-2:
        bad.append("E_17 absolute")
    ok = len(levels_z1) == 18 and not bad
    _report(1, "18-level spectrum regression", ok,
            "all 18 (t, E) rows within stated tolerance" if ok else ", ".join(bad))
    assert ok


def test_criterion_2_weak_coupling_roots():
    """Z=0.1 lowest two roots and energies."""
    recs = find_roots(lambda t: secular_explicit(0.1, t), 0.1, 2)
    levels = energies_from_roots(recs, 0.1)[:2]
    checks = [
        abs(recs[0].t - 0.2219819562) <= 1e-6,
        abs(recs[1].t - 0.03467067057) <= 1e-6,
        abs(levels[0].E - 0.00153255) <= 1e-4,
        abs(levels[1].E - 2.078577) <= 1e-4,
    ]
    ok = all(checks)
    detail = (
        f"t=({recs[0].t:.10f}, {recs[1].t:.11f}), "
        f"E=({levels[0].E:.8f}, {levels[1].E:.6f})"
    )
    _report(2, "weak-coupling roots", ok, detail)
    assert ok


def test_criterion_3_even_second_differences(report_z1):
    """Even-level second differences against the stated six values."""
    want = EVEN_SECOND_TARGETS
    got = dict(report_z1.even_second)
    bad = {
        n: got[n] for n, w in want.items() if abs(got[n] - w) > EVEN_SECOND_TOL
    }
    ok = not bad
    detail = (
        f"all six within {EVEN_SECOND_TOL}"
        if ok
        else "; ".join(
            f"n={n} computed {got[n]:+.4f} vs stated {want[n]:+.4f}"
            for n in sorted(bad)
        )
    )
    _report(3, "even second differences", ok, detail)
    assert ok, f"out of tolerance: {bad}"


def test_even_second_targets_follow_pinned_energies():
    """The criterion-3 table agrees with the criterion-1 pins: each
    Delta_n - Delta_{n-4} computed from REF_E alone lies within criterion
    3's tolerance of its stated target, so the two criteria can both pass."""
    delta = {n: REF_E[n] - REF_E[n - 1] for n in range(1, len(REF_E))}
    from_pins = {n: delta[n] - delta[n - 4] for n in EVEN_SECOND_TARGETS}
    off = {
        n: v for n, v in from_pins.items()
        if abs(v - EVEN_SECOND_TARGETS[n]) > EVEN_SECOND_TOL
    }
    assert not off, f"targets inconsistent with REF_E: {off}"


def test_even_second_n8_from_finite_differences():
    """A periodic second-order finite-difference discretization of
    -psi'' + V psi = E psi on the circle (Z=1, M=1, N=4000, cell-centred
    grid) gives two real pairs near 9.84 and 39.47 that match the monodromy
    backend to 1e-4 relative, and (E8 - E7) - (E4 - E3) = -0.077 within
    criterion 3's tolerance. No secular function enters the levels."""
    z, m = 1.0, 1
    pot = build_square_well(m, z)
    recs = find_roots(lambda t: secular_monodromy(pot, z, t), z, 5)
    mono = [lvl.E for lvl in energies_from_roots(recs, z)]

    gaps = []
    for sigma in (9.84, 39.47):
        pair = fd_eigenvalues(z, m, sigma)
        assert np.all(np.abs(pair.imag) < 1e-8), pair
        ref = sorted(e for e in mono if abs(e - sigma) < 1.0)
        assert len(ref) == 2, mono
        assert np.allclose(pair.real, ref, rtol=1e-4, atol=0.0), (pair, ref)
        gaps.append(pair[1].real - pair[0].real)
    second = gaps[1] - gaps[0]
    assert abs(second - EVEN_SECOND_TARGETS[8]) <= EVEN_SECOND_TOL, second


def test_criterion_4_odd_difference_tables(report_z1):
    """Odd-level second differences, and lag-4 third differences at n>=11."""
    second = dict(report_z1.odd_second)
    want2 = dict(zip(range(3, 18, 2),
                     [5.018, 3.904, 4.954, 4.283, 4.938, 4.422, 4.935, 4.485]))
    bad2 = {n: second[n] for n, w in want2.items() if abs(second[n] - w) > 0.05}

    third = dict(report_z1.odd_third)
    want3 = {11: 0.655, 13: -0.516, 15: 0.513, 17: -0.450}
    bad3 = {n: third[n] for n, w in want3.items() if abs(third[n] - w) > 0.05}
    ok = not bad2 and not bad3
    if ok:
        detail = "all rows within 0.05"
    else:
        nested = dict(report_z1.odd_third_nested)
        detail = (
            "second differences all match; the lag-4 third difference gives "
            + ", ".join(f"n={n}: {third[n]:+.4f}" for n in sorted(bad3))
            + "; the stated values instead follow the nested lag-2 form "
            + ", ".join(f"{nested[n]:+.4f}" for n in sorted(want3))
        )
    _report(4, "odd difference tables", ok, detail)
    assert ok, f"second: {bad2}, third: {bad3}"


def test_criterion_5_sign_constant_beyond_ground():
    """Both secular functions stay negative above their own ground root."""
    cases = {
        "explicit": (lambda t: secular_explicit(1.0, t), 0.6564195696),
        "monodromy": (
            (lambda p: (lambda t: secular_monodromy(p, 1.0, t)))(
                build_square_well(1, 1.0)
            ),
            0.6780547978,
        ),
    }
    flips = {}
    for name, (f, t0) in cases.items():
        signs = {f(float(t)).sign for t in np.linspace(t0 + 1e-4, 2.0, 400)}
        if signs != {-1}:
            flips[name] = signs
    ok = not flips
    _report(5, "sign constant beyond ground root", ok,
            "negative on (t_0 + 1e-4, 2] for both backends" if ok else str(flips))
    assert ok


def test_criterion_6_quasi_degenerate_pairs(report_z1):
    """Flagged pairs are exactly (3,4), (7,8), (11,12), (15,16), gaps
    strictly decreasing."""
    idx = [(i, j) for i, j, _ in report_z1.quasi_pairs]
    gaps = [g for _, _, g in report_z1.quasi_pairs]
    ok = idx == [(3, 4), (7, 8), (11, 12), (15, 16)] and all(
        a > b for a, b in zip(gaps, gaps[1:])
    )
    detail = "pairs " + str(idx) + ", gaps " + ", ".join(f"{g:.4f}" for g in gaps)
    _report(6, "quasi-degenerate pair structure", ok, detail)
    assert ok


def test_criterion_7_cross_backend_agreement():
    """Root sets of the two backends on t in [0.03, 1] at Z in {0.1, 1}."""
    problems = []
    for z in (0.1, 1.0):
        pot = build_square_well(1, z)
        cfg = ScanConfig(t_min=0.03, t_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re = find_roots(lambda t: secular_explicit(z, t), z, 1, cfg)
            rm = find_roots(lambda t: secular_monodromy(pot, z, t), z, 1, cfg)
        if len(re) != len(rm):
            problems.append(f"Z={z}: {len(re)} vs {len(rm)} roots")
        else:
            worst = max((abs(a.t - b.t) for a, b in zip(re, rm)), default=0.0)
            if worst > 1e-10:
                problems.append(f"Z={z}: worst |dt|={worst:.3e}")
    ok = not problems
    detail = (
        "root sets agree pairwise within 1e-10"
        if ok
        else "; ".join(problems)
        + " (the eight-by-eight system encodes a unimodular-twist closure, "
        "the transfer matrix a strictly periodic one; their root sets "
        "differ by construction)"
    )
    _report(7, "cross-backend root agreement", ok, detail)
    assert ok


def test_criterion_8_free_particle_limit():
    """Z=1e-6: lowest five energies approach the free circle values."""
    z = 1e-6
    pot = build_square_well(1, z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = find_roots(lambda t: secular_monodromy(pot, z, t), z, 5)
    levels = energies_from_roots(recs, z)[:5]
    q = math.pi * math.pi / 4.0
    want = [0.0, q, q, 4 * q, 4 * q]
    devs = [abs(l.E - e) for l, e in zip(levels, want)]
    ok = len(levels) == 5 and max(devs) <= 1e-3
    _report(8, "free-particle limit", ok,
            f"worst deviation {max(devs):.3e}" if devs else "no levels found")
    assert ok


def test_criterion_9_property_suite():
    """Wronskian, trace cyclicity, and the reality assertion over the
    family M in 1..6, Z in {0.1, 1, 10}, 1000 t points in [0.02, 2], on
    the propagator product of product_oracle.py.

    Each layout is evaluated in one array call, as find_roots calls it."""
    t_grid = np.linspace(0.02, 2.0, 1000)
    worst_det = 0.0
    worst_cyc = 0.0
    fired = []
    for m in range(1, 7):
        for z in (0.1, 1.0, 10.0):
            pot = layout(build_square_well(m, z))
            rot = rotate_segments(pot, 1)
            p = SpectralPoint.from_zt(z, t_grid)
            T = monodromy(pot, p)
            worst_det = max(worst_det, float(np.max(np.abs(T.det_true() - 1.0))))
            tr0 = T.trace() * np.exp(T.logscale)
            Tr = monodromy(rot, p)
            tr1 = Tr.trace() * np.exp(Tr.logscale)
            worst_cyc = max(
                worst_cyc,
                float(np.max(np.abs(tr1 - tr0) / np.maximum(1.0, np.abs(tr0)))),
            )
            try:
                # the closed form of secular_monodromy is real by
                # construction; the product carries the assertion
                _product_closure(pot, p)
            except Exception as e:  # the assertion must never fire
                fired.append((m, z, getattr(e, "t", None), repr(e)))
    ok = worst_det <= 1e-10 and worst_cyc <= 1e-10 and not fired
    _report(9, "transfer-matrix property suite", ok,
            f"worst |det-1|={worst_det:.2e}, worst cyclicity drift={worst_cyc:.2e}, "
            f"reality assertion fired on {len(fired)} of 18 layouts")
    assert ok
