"""Scanning, bisection, bump refinement, and full root discovery."""

import math
import warnings

import numpy as np
import pytest

from test_secular import EXPLICIT_ROOTS_Z1

from ptring import (
    CirclePotential,
    LevelShortfallWarning,
    LogScaledValue,
    RootRecord,
    ScanConfig,
    ScanSample,
    SecularEvaluationError,
    SecularRealityError,
    bisect,
    build_square_well,
    default_scan_config,
    detect_bumps,
    energies_from_roots,
    find_roots,
    level_count,
    scan_secular,
    secular_explicit,
    secular_monodromy,
)

T_EXPLICIT_Z01 = [0.2219819562431546437372, 0.03467067057228565555074]
# roots of the strictly periodic secular function at Z = 1
T_MONODROMY_Z1 = [
    0.6780547977525431307031,
    0.15956944385821,
    0.15874892020837,
    0.079590257945388,
    0.079564701570071,
]


def _f_explicit(Z):
    return lambda t: secular_explicit(Z, t)


def _f_monodromy(Z, M=1):
    pot = build_square_well(M, Z)
    return lambda t: secular_monodromy(pot, Z, t)


def _linear(root):
    return lambda t: LogScaledValue.from_float(t - root)


# --- ScanConfig -------------------------------------------------------------


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.5, t_max=0.5)
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.1, t_max=1.0, initial_samples=8)
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.1, t_max=1.0, bump_drop=0.0)


def test_default_scan_config_overrides():
    cfg = default_scan_config(1.0, 18)
    assert cfg.t_max == 5.0
    assert 0.02 < cfg.t_min < 0.03
    cfg2 = default_scan_config(1.0, 18, t_min=0.1, t_max=2.0)
    assert (cfg2.t_min, cfg2.t_max) == (0.1, 2.0)
    with pytest.raises(ValueError):
        default_scan_config(1.0, 0)


# --- scan_secular ------------------------------------------------------------


def test_scan_all_negative_beyond_ground():
    cfg = ScanConfig(t_min=0.66, t_max=1.0, initial_samples=256)
    samples = scan_secular(_f_explicit(1.0), cfg)
    assert len(samples) == 256
    assert all(s.sign == -1 for s in samples)


def test_scan_single_crossing():
    cfg = ScanConfig(t_min=0.35, t_max=0.45, initial_samples=256)
    samples = scan_secular(_f_explicit(1.0), cfg)
    flips = [
        (a.t, b.t)
        for a, b in zip(samples, samples[1:])
        if a.sign * b.sign < 0
    ]
    assert len(flips) == 1
    lo, hi = flips[0]
    assert lo < EXPLICIT_ROOTS_Z1[1] < hi


def test_scan_wraps_evaluation_errors():
    def f(t):
        raise RuntimeError("boom")

    cfg = ScanConfig(t_min=0.1, t_max=0.2, initial_samples=16)
    with pytest.raises(SecularEvaluationError) as ei:
        scan_secular(f, cfg)
    assert ei.value.t == pytest.approx(0.1)


# --- bisect ------------------------------------------------------------------


def test_bisect_explicit_ground_z1():
    rec = bisect(_f_explicit(1.0), (0.6, 0.7))
    assert rec.t == pytest.approx(EXPLICIT_ROOTS_Z1[0], abs=1e-8)
    assert rec.detection == "sign_change"
    assert rec.bracket_width <= 1e-13 * 0.7 * 2


def test_bisect_explicit_ground_z01():
    rec = bisect(_f_explicit(0.1), (0.2, 0.25))
    assert rec.t == pytest.approx(T_EXPLICIT_Z01[0], abs=1e-6)


def test_bisect_linear_function():
    rec = bisect(_linear(0.5), (0.3, 0.9), t_tol=1e-13)
    assert rec.t == pytest.approx(0.5, rel=1e-12)


def test_bisect_exact_endpoint_is_the_root():
    rec = bisect(_linear(0.5), (0.5, 0.9))
    assert (rec.t, rec.bracket_width) == (0.5, 0.0)
    assert rec.residual_logmag == float("-inf")


def test_bisect_exact_midpoint_closes_bracket():
    # 0.75 is the first midpoint and an exact root
    rec = bisect(_linear(0.75), (0.5, 1.0))
    assert (rec.t, rec.bracket_width) == (0.75, 0.0)


def test_bisect_rejects_same_sign():
    with pytest.raises(ValueError):
        bisect(_linear(0.5), (0.6, 0.9))


# --- detect_bumps ------------------------------------------------------------


def test_detect_bumps_doublet_window():
    """The unresolved pair near t = 0.159 shows up as one deep dip."""
    cfg = ScanConfig(t_min=0.15, t_max=0.17, initial_samples=16)
    samples = []
    for t in np.linspace(0.15, 0.17, 11):
        v = secular_explicit(1.0, float(t))
        samples.append(ScanSample(float(t), v.sign, v.logmag))
    wins = detect_bumps(samples, cfg)
    assert len(wins) == 1
    w = wins[0]
    assert w.t_lo < EXPLICIT_ROOTS_Z1[4] < EXPLICIT_ROOTS_Z1[3] < w.t_hi
    assert w.drop >= 3.0


def test_detect_bumps_monotone_is_empty():
    cfg = ScanConfig(t_min=0.1, t_max=1.0, initial_samples=16)
    samples = [ScanSample(0.1 + 0.05 * i, 1, float(i)) for i in range(16)]
    assert detect_bumps(samples, cfg) == []


def test_detect_bumps_shallow_dip_rejected():
    cfg = ScanConfig(t_min=0.1, t_max=1.0, initial_samples=16)
    lm = [2.0, 1.5, 1.0, 1.5, 2.0]
    samples = [ScanSample(0.1 + 0.1 * i, 1, v) for i, v in enumerate(lm)]
    assert detect_bumps(samples, cfg) == []


def test_detect_bumps_requires_single_sign():
    cfg = ScanConfig(t_min=0.1, t_max=1.0, initial_samples=16)
    lm = [4.0, 2.0, -3.0, 2.0, 4.0]
    signs = [1, 1, -1, 1, 1]
    samples = [
        ScanSample(0.1 + 0.1 * i, s, v) for i, (s, v) in enumerate(zip(signs, lm))
    ]
    # the crossing channel owns this dip
    assert detect_bumps(samples, cfg) == []


# --- find_roots --------------------------------------------------------------


def test_find_roots_explicit_z1_prefix():
    """The whole 18-level spectrum against the 22-digit frozen roots."""
    recs = find_roots(_f_explicit(1.0), 1.0, 18)
    ts = [r.t for r in recs[:18]]
    assert ts == pytest.approx(EXPLICIT_ROOTS_Z1, rel=1e-12, abs=0)
    assert all(
        r.detection == "sign_change" and not r.unresolved_doublet for r in recs[:18]
    )
    assert [r.t for r in recs] == sorted((r.t for r in recs), reverse=True)


def test_find_roots_explicit_z01():
    recs = find_roots(_f_explicit(0.1), 0.1, 2)
    assert recs[0].t == pytest.approx(T_EXPLICIT_Z01[0], abs=1e-9)
    assert recs[1].t == pytest.approx(T_EXPLICIT_Z01[1], abs=1e-9)


def test_find_roots_single_level_window():
    cfg = ScanConfig(t_min=0.45, t_max=1.0)
    recs = find_roots(_f_explicit(1.0), 1.0, 1, cfg)
    assert len(recs) == 1
    assert recs[0].t == pytest.approx(EXPLICIT_ROOTS_Z1[0], abs=1e-9)
    assert not recs[0].unresolved_doublet


def test_find_roots_sample_count_stability():
    """Refining the master grid must not change the discovered roots."""
    cfg_a = ScanConfig(t_min=0.1, t_max=1.0, initial_samples=256)
    cfg_b = ScanConfig(t_min=0.1, t_max=1.0, initial_samples=512)
    ra = find_roots(_f_explicit(1.0), 1.0, 5, cfg_a)
    rb = find_roots(_f_explicit(1.0), 1.0, 5, cfg_b)
    assert len(ra) == len(rb)
    for a, b in zip(ra, rb):
        assert a.t == pytest.approx(b.t, abs=1e-10)


def test_find_roots_monodromy_z1_shortfall():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recs = find_roots(_f_monodromy(1.0), 1.0, 18)
    assert any(issubclass(w.category, LevelShortfallWarning) for w in caught)
    # the real levels that do exist are found precisely
    ts = [r.t for r in recs[:5]]
    assert ts == pytest.approx(T_MONODROMY_Z1, abs=1e-9)
    assert level_count(recs) < 18


def test_find_roots_free_limit_doublets():
    """Near zero coupling, bump records stand in for the free doublets."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = find_roots(_f_monodromy(1e-6), 1e-6, 5)
    levels = energies_from_roots(recs, 1e-6)[:5]
    q = math.pi * math.pi / 4.0
    want = [0.0, q, q, 4 * q, 4 * q]
    assert len(levels) == 5
    for lvl, e in zip(levels, want):
        assert lvl.E == pytest.approx(e, abs=1e-3)
    assert recs[1].unresolved_doublet and recs[1].detection == "bump"


def test_find_roots_synthetic_tight_pair():
    """A real pair split below bisection resolution reports as one doublet."""

    def f(t):
        return LogScaledValue.from_float((t - 0.5) * (t - 0.5 - 5e-13))

    cfg = ScanConfig(t_min=0.3, t_max=0.7)
    recs = find_roots(f, 1.0, 2, cfg)
    assert level_count(recs) == 2
    assert len(recs) == 1
    assert recs[0].unresolved_doublet
    assert recs[0].t == pytest.approx(0.5, abs=1e-6)


def test_find_roots_residual_dominance():
    recs = find_roots(_f_explicit(1.0), 1.0, 3)
    for r in recs[:3]:
        nearby = secular_explicit(1.0, r.t * 1.01).logmag
        assert nearby - r.residual_logmag > 5.0


def test_scan_reality_error_carries_first_failing_t(monkeypatch):
    """An array call raises at its first failing point, and find_roots
    wraps that error with the same t, not the first t of the chunk."""
    asym = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((0.5, 1j), (1.5, -1j), (1.0, 1j), (1.0, -1j)),
    )
    # |Im|/(1+|Re|) of this layout stays below 0.5 for t in [0.85, 3] and
    # exceeds it for t in [0.6, 0.8]
    monkeypatch.setenv("PT_CIRCLE_TOL", "0.5")
    cfg = ScanConfig(t_min=0.6, t_max=3.0, initial_samples=256)
    # find_roots' master grid at Z=1: 256 points uniform in s = 1/(2t),
    # in descending t
    s_grid = np.linspace(1.0 / (2.0 * cfg.t_max), 1.0 / (2.0 * cfg.t_min), 256)
    ts = 1.0 / (2.0 * s_grid)

    def fails(t):
        try:
            secular_monodromy(asym, 1.0, t)
        except SecularRealityError:
            return True
        return False

    first = next(float(t) for t in ts if fails(float(t)))
    assert first < ts[0]
    with pytest.raises(SecularRealityError) as ei:
        secular_monodromy(asym, 1.0, ts)
    assert ei.value.t == first
    with pytest.raises(SecularEvaluationError) as ej:
        find_roots(lambda t: secular_monodromy(asym, 1.0, t), 1.0, 5, cfg)
    assert ej.value.t == first


@pytest.mark.parametrize("backend", ["explicit", "monodromy"])
def test_scan_overflow_error_carries_first_failing_t(backend):
    """A window reaching t where the secular value overflows fails at the
    first overflowing grid point, as the pointwise calls do."""
    f = _f_explicit(1.0) if backend == "explicit" else _f_monodromy(1.0)
    cfg = ScanConfig(t_min=0.03, t_max=1000.0, initial_samples=256)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.initial_samples)

    def fails(t):
        try:
            f(t)
        except OverflowError:
            return True
        return False

    first = next(float(t) for t in ts if fails(float(t)))
    with pytest.raises(SecularEvaluationError) as ei:
        scan_secular(f, cfg)
    assert ei.value.t == first


@pytest.mark.parametrize(
    "backend,Z,M",
    [("monodromy", z, m) for z in (1e-6, 0.1, 1.0, 4.0) for m in (1, 8)]
    + [("explicit", z, 1) for z in (0.1, 1.0, 4.0)],
)
def test_solve_raises_no_numpy_warning(backend, Z, M):
    """The CLI prints every warning a solve raises; only the level
    shortfall may come out of one."""
    f = _f_explicit(Z) if backend == "explicit" else _f_monodromy(Z, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(f, Z, 18)
        scan_secular(f, ScanConfig(t_min=0.03, t_max=1.0, initial_samples=512))


def test_shortfall_warning_message():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_roots(_f_monodromy(1.0), 1.0, 18)
    msgs = [str(w.message) for w in caught if w.category is LevelShortfallWarning]
    assert len(msgs) == 1
    assert "13 of 18" in msgs[0]
    assert "complex conjugate pairs" in msgs[0]
