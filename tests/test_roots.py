"""Scanning, bracket closing, and full root discovery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import fd_eigenvalues
from test_secular import EXPLICIT_ROOTS_Z1, NON_ALTERNATING

from ptring import (
    CirclePotential,
    LevelShortfallWarning,
    LogScaledValue,
    RootRecord,
    ScanConfig,
    SecularEvaluationError,
    SecularRealityError,
    build_square_well,
    default_scan_config,
    energies_from_roots,
    find_roots,
    level_count,
    scan_secular,
    secular_explicit,
    secular_monodromy,
)
import ptring.roots
from ptring.potential import Z_FLOOR
from ptring.roots import _brackets_and_windows, _close_brackets, _evaluate

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


def _steps(root, lo_logmag, hi_logmag):
    """Sign -1 below root, +1 above it and 0 at it, with constant
    log-magnitudes on each side."""

    def f(t):
        t = np.asarray(t, dtype=float)
        logmag = np.where(t < root, lo_logmag, hi_logmag)
        return LogScaledValue.from_float(np.sign(t - root) * np.exp(logmag))

    return f


def _counted(f):
    """f, and the list of array sizes it was called with."""
    sizes = []

    def g(t):
        sizes.append(np.size(t))
        return f(t)

    return g, sizes


# --- ScanConfig -------------------------------------------------------------


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.5, t_max=0.5)
    with pytest.raises(ValueError):
        ScanConfig(t_min=0.0, t_max=1.0)


def test_default_scan_config_overrides():
    cfg = default_scan_config(1.0, 18)
    assert cfg.t_max == 5.0
    assert 0.02 < cfg.t_min < 0.03
    cfg2 = default_scan_config(1.0, 18, t_min=0.1, t_max=2.0)
    assert (cfg2.t_min, cfg2.t_max) == (0.1, 2.0)
    with pytest.raises(ValueError):
        default_scan_config(1.0, 0)
    # a default floor whose window holds no positive energy is an error; a
    # given one is taken as it is
    with pytest.raises(ValueError, match="t_min"):
        default_scan_config(1e4, 18)
    assert default_scan_config(1e4, 18, t_min=1.0).t_min == 1.0


# --- scan_secular ------------------------------------------------------------


def test_scan_all_negative_beyond_ground():
    cfg = ScanConfig(t_min=0.66, t_max=1.0)
    samples = scan_secular(_f_explicit(1.0), cfg)
    assert len(samples) == 256
    assert all(s.sign == -1 for s in samples)


def test_scan_single_crossing():
    cfg = ScanConfig(t_min=0.35, t_max=0.45)
    samples = scan_secular(_f_explicit(1.0), cfg, 256)
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

    cfg = ScanConfig(t_min=0.1, t_max=0.2)
    with pytest.raises(SecularEvaluationError) as ei:
        scan_secular(f, cfg, 16)
    assert ei.value.t == pytest.approx(0.1)


@pytest.mark.parametrize("samples", [1, 15, 2**22 + 1])
def test_scan_sample_count_is_checked_first(samples):
    """A sample count below 16 or above _MAX_GRID_POINTS is a ValueError
    naming --samples, raised before f is called."""

    def f(t):
        raise AssertionError("f was called")

    with pytest.raises(ValueError, match=rf"\b{samples}\b.*--samples"):
        scan_secular(f, ScanConfig(t_min=0.1, t_max=0.2), samples)


# --- the lock-step closer -----------------------------------------------------


def _close_on(f, bracket):
    """The root on the two-point grid (lo, hi), as find_roots' scan and
    closer give it: an end where a factor vanishes (lo before hi), else the
    first factor's sign change, closed without a seed, so that its first
    step takes the midpoint."""
    ts = np.array(bracket, dtype=float)
    brackets, _ = _brackets_and_windows(ts, _evaluate(f, ts))
    return _close_brackets(f, tuple(e[..., :1] for e in brackets))[0]


def test_bisect_explicit_ground_z1():
    rec = _close_on(_f_explicit(1.0), (0.6, 0.7))
    assert rec.t == pytest.approx(EXPLICIT_ROOTS_Z1[0], abs=1e-8)
    assert rec.bracket_width <= 1e-13 * 0.7 * 2


def test_bisect_explicit_ground_z01():
    rec = _close_on(_f_explicit(0.1), (0.2, 0.25))
    assert rec.t == pytest.approx(T_EXPLICIT_Z01[0], abs=1e-6)


def test_bisect_linear_function():
    rec = _close_on(_linear(0.5), (0.3, 0.9))
    assert rec.t == pytest.approx(0.5, rel=1e-12)


def test_bisect_exact_endpoint_is_the_root():
    rec = _close_on(_linear(0.5), (0.5, 0.9))
    assert (rec.t, rec.bracket_width) == (0.5, 0.0)
    assert rec.residual_logmag == float("-inf")


def test_bisect_exact_midpoint_closes_bracket():
    # 0.75 is the first midpoint and an exact root
    rec = _close_on(_linear(0.75), (0.5, 1.0))
    assert (rec.t, rec.bracket_width) == (0.75, 0.0)


def test_bisect_exact_step_point_closes_bracket():
    # t^2 - 0.3, zero on [0.54772, 0.54773] around its root: without a seed
    # the first estimate is the midpoint 0.75, the next interpolates to
    # 0.5456, whose stencil misses the run, and the third to 0.54772373,
    # whose stencil, taken from below, first reaches the run at 0.54772371
    def f(t):
        t = np.asarray(t, dtype=float)
        return LogScaledValue.from_float(
            np.where((0.54772 <= t) & (t <= 0.54773), 0.0, t * t - 0.3)
        )

    counted, sizes = _counted(f)
    rec = _close_on(counted, (0.5, 1.0))
    assert rec.bracket_width == 0.0
    assert rec.t == pytest.approx(0.5477237066763219, abs=1e-15)
    assert rec.residual_logmag == float("-inf")
    assert len(sizes) == 4  # the grid and three steps

    # on the grid 0.5, 1.0, 1.5 beside a second factor, t - 1.2, the first
    # bracket is seeded from above (1.5, so that 1.0 is its x1) and the
    # second from below (0.5); in lock step each still exits as it does
    # alone, the first on the run after the estimates 0.538, 0.5641,
    # 0.547718 and 0.54772256
    def g(t):
        y = f(t).factors[0][0]
        v = LogScaledValue.from_float(y * (t - 1.2))
        return LogScaledValue(v.sign, v.logmag, ((y, 1), (t - 1.2, 1)))

    ts = np.array([0.5, 1.0, 1.5])
    brackets, _ = _brackets_and_windows(ts, _evaluate(g, ts))
    np.testing.assert_array_equal(brackets[0], [[1.0, 1.0], [0.5, 1.5], [1.5, 0.5]])
    records = _close_brackets(g, brackets)
    assert records[0].bracket_width == 0.0
    assert records[0].t == pytest.approx(0.5477225325051647, abs=1e-15)
    assert records == _lone(g, brackets)


def test_value_without_factors_is_rejected():
    """Root finding reads only factors: a value that carries none is a
    ValueError."""

    def f(t):
        g = LogScaledValue.from_float(np.asarray(t) - 0.5)
        return LogScaledValue(g.sign, g.logmag)

    with pytest.raises(ValueError, match="with factors"):
        find_roots(f, 1.0, 1, ScanConfig(t_min=0.3, t_max=0.9))


@settings(max_examples=200, deadline=None)
@given(
    bracket=st.sampled_from([(0.3, 0.9), (0.02, 0.05), (0.0265, 0.02651)]),
    where=st.one_of(
        st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        st.sampled_from([1e-9, 1e-6, 1e-4, 1.0 - 1e-4, 1.0 - 1e-6]),
    ),
    jump=st.sampled_from([-700.0, -30.0, -10.0, -2.0, 2.0, 10.0, 30.0, 700.0]),
)
def test_bisect_worst_case_bound(bracket, where, jump):
    """A jump of the log-magnitude at the root, +700 nats included, skews
    interpolation toward one end; ITP's projection still allows at most one
    step more than bisection's count, each step one stencil, on a bracket
    closed without a seed from the two-point grid of its ends."""
    lo, hi = bracket
    root = lo + where * (hi - lo)
    f, sizes = _counted(_steps(root, max(-jump, 0.0), max(jump, 0.0)))
    rec = _close_on(f, bracket)
    # the ends, the bisection count plus n0 = 1 steps, and two calls spare
    bound = math.ceil(math.log2((hi - lo) / (1e-13 * lo))) + 1 + 3
    assert len(sizes) <= bound
    assert sum(sizes) <= ptring.roots._STENCIL.size * bound
    assert rec.bracket_width <= 1e-13 * hi
    assert abs(rec.t - root) <= rec.bracket_width


def _lone(f, brackets):
    """Each bracket of a lock-step closer call closed alone."""
    return [
        _close_brackets(f, tuple(e[..., j : j + 1] for e in brackets))[0]
        for j in range(brackets[2].size)
    ]


def _closer_call(f, Z, n_levels, config=None):
    """The brackets find_roots hands its lock-step closer, and what each
    scan before it found (brackets and extremum windows): the
    master grid's first, then each refinement pass's."""
    seen, scans = [], []

    def spy(g, brackets):
        seen.append(brackets)
        return _close_brackets(g, brackets)

    def scan_spy(ts, scan):
        scans.append(_brackets_and_windows(ts, scan))
        return scans[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(ptring.roots, "_close_brackets", spy)
        mp.setattr(ptring.roots, "_brackets_and_windows", scan_spy)
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(f, Z, n_levels, config)
    (brackets,) = seen
    return brackets, scans


_CLOSE_CASES = {
    "explicit-Z1": (_f_explicit(1.0), 1.0, 50),
    # holds the tight criterion-1 doublet brackets near t = 0.05305 and 0.03979
    "explicit-Z1-100": (_f_explicit(1.0), 1.0, 100),
    "monodromy-M1": (_f_monodromy(2.5), 2.5, 18),
    "monodromy-M8": (_f_monodromy(1.0, 8), 1.0, 18),
}
_CLOSE_POOLS = {name: _closer_call(*case) for name, case in _CLOSE_CASES.items()}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lock_step_equals_lone_brackets(data):
    """On the seeded brackets find_roots hands the closer, each record of
    one lock-step call over any selection of them equals the record of its
    bracket closed alone, and every bracket closes to width 1e-13 times its
    upper end."""
    name = data.draw(st.sampled_from(sorted(_CLOSE_POOLS)))
    pool, _ = _CLOSE_POOLS[name]
    picks = np.array(
        data.draw(st.lists(st.integers(0, pool[2].size - 1), min_size=1, max_size=40))
    )
    brackets = tuple(e[..., picks] for e in pool)
    f = _CLOSE_CASES[name][0]
    records = _close_brackets(f, brackets)
    assert records == _lone(f, brackets)
    for x1, x2, r in zip(*brackets[0][:2], records):
        lo, hi = min(x1, x2), max(x1, x2)
        assert lo <= r.t <= hi
        assert r.bracket_width <= 1e-13 * hi


def test_every_bracket_is_seeded():
    """Every bracket find_roots hands the closer has a seed, the grid point
    beyond one end with that end's sign: below lo on the pools' solves, and
    above hi where the window's first interval holds the root, as it does
    for the ground state of a window that starts just below it. That solve
    takes the master call and two closer steps."""
    for pool, _ in _CLOSE_POOLS.values():
        X = pool[0]
        assert np.isfinite(X[2]).all()
        assert (X[0] < X[1]).all() and (X[2] < X[0]).all()
    t0 = 0.656419569606386  # the ground root at Z = 1
    cfg = ScanConfig(t_min=t0 * (1 - 1e-4), t_max=1.5 * t0)
    f, sizes = _counted(_f_explicit(1.0))
    (X, *_), _ = _closer_call(f, 1.0, 1, cfg)
    # one bracket, the first interval: x1 = hi, x2 = lo, the seed above hi
    assert X.shape == (3, 1) and X[1, 0] < t0 < X[0, 0] < X[2, 0]
    assert len(sizes) == 3
    recs = find_roots(_f_explicit(1.0), 1.0, 1, cfg)
    assert recs[0].t == pytest.approx(t0, rel=1e-13)


# --- find_roots --------------------------------------------------------------


def test_find_roots_explicit_z1_prefix():
    """The whole 18-level spectrum against the 22-digit frozen roots."""
    recs = find_roots(_f_explicit(1.0), 1.0, 18)
    ts = [r.t for r in recs[:18]]
    assert ts == pytest.approx(EXPLICIT_ROOTS_Z1, rel=1e-12, abs=0)
    assert not any(r.unresolved_doublet for r in recs[:18])
    assert [r.t for r in recs] == sorted((r.t for r in recs), reverse=True)


@pytest.mark.parametrize(
    "f,Z,calls,points",
    [(_f_explicit(1.0), 1.0, 4, 1700), (_f_monodromy(1.0, 8), 1.0, 3, 1400)],
    ids=["explicit-Z1", "monodromy-M8"],
)
def test_find_roots_batched_call_count(f, Z, calls, points):
    """The master grid and every closer step: a slower bracket closer fails
    here, not only in the benchmark. The point total is a ceiling, because
    the points a step takes hang on the last bits of the secular value."""
    g, sizes = _counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) == calls
    assert sum(sizes) <= points


@pytest.mark.parametrize(
    "case,n_levels,ceiling",
    [
        pytest.param("explicit", 18, 3, id="explicit-18"),
        pytest.param("explicit", 100, 4, id="explicit-100"),
        pytest.param("M8", 18, 3, id="M8-18"),
        pytest.param("M32", 18, 4, id="M32-18"),
        pytest.param("M1-Z0.1734", 18, 3, id="M1-Z0.1734-18"),
        pytest.param("M1-Z1.6547", 18, 3, id="M1-Z1.6547-18"),
    ],
)
def test_closer_steps_per_bracket(case, n_levels, ceiling):
    """No bracket find_roots hands the closer stalls: each closes alone,
    with its grid seed, in at most ceiling steps. These solves hold
    brackets beside a near-degenerate partner, where the value is
    near-quadratic and a regula-falsi step stalls; at M = 1 the two were
    the slowest of the strictly periodic solves closed on the value itself
    (14 and 11 steps)."""
    f, Z = {
        "explicit": (_f_explicit(1.0), 1.0),
        "M8": (_f_monodromy(1.0, 8), 1.0),
        "M32": (_f_monodromy(1.0, 32), 1.0),
        "M1-Z0.1734": (_f_monodromy(0.1734), 0.1734),
        "M1-Z1.6547": (_f_monodromy(1.6547), 1.6547),
    }[case]
    brackets, _ = _closer_call(f, Z, n_levels)
    for j in range(brackets[2].size):
        g, sizes = _counted(f)
        _close_brackets(g, tuple(e[..., j : j + 1] for e in brackets))
        assert len(sizes) <= ceiling, brackets[0][:, j]


@pytest.mark.parametrize("Z", np.linspace(0.05, 4.0, 24).tolist())
def test_pt_sweep_solve_takes_three_calls(Z):
    """An M = 1 solve of the benchmark's coupling range takes the master
    call and two closer steps: each bracket starts from an interpolation
    through the grid point beyond it, and the stencil around that estimate
    brackets the root to about 1e3 times the estimate's error."""
    g, sizes = _counted(_f_monodromy(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) <= 3


MULTICELL_LEVELS = {1: 13, 2: 19, 8: 23, 32: 25}


@pytest.mark.parametrize("Z", [0.01, 0.1, 1.0, 4.0])
@pytest.mark.parametrize("M", sorted(MULTICELL_LEVELS))
def test_find_roots_multicell_doublet_widths(M, Z):
    """Each record's level is a root of tau = 2 cos(pi j / M) (tau the cell
    trace), computed at 40 digits; t lies within 1e-12 relative of it and
    within the record's bracket_width. Interior-band levels (0 < j < M) are
    exact double roots of 2 - tr T, each reported as one record that stands
    for two levels, never as two sign changes split by rounding."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def tau(t):
        s = Z / (2 * t)
        k2, h = s * s + t * t, mp.mpf(1) / M
        return (
            2 * mp.cos(s * h) ** 2
            - 2 * (s * s - t * t) / k2 * mp.sin(s * h) ** 2
            + 4 * t * t / k2 * mp.sinh(t * h) ** 2
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(_f_monodromy(Z, M), Z, 18)
    assert level_count(recs) == MULTICELL_LEVELS[M]
    roots = []
    for r in recs:
        band = M * mp.acos(max(min(tau(mp.mpf(r.t)) / 2, 1), -1)) / mp.pi
        j = int(mp.nint(band))
        root = float(mp.findroot(lambda t: tau(t) - 2 * mp.cos(mp.pi * j / M), r.t))
        assert abs(root - r.t) <= 1e-12 * root, r
        assert abs(root - r.t) <= r.bracket_width, r
        assert r.unresolved_doublet == (0 < j < M), r
        roots.append(root)
    # band-edge pairs (j = 0) split by as little as 4e-10 relative at
    # Z = 0.01 are two roots; no root is reported twice (two records within
    # 1e-12 of one root would give roots at most 2e-12 apart)
    roots.sort()
    assert all(b - a > 2e-12 * b for a, b in zip(roots, roots[1:]))


# The two tightest criterion-1 doublets of the twisted closure at Z = 1, as
# 40-digit roots in t of det Q's factors 2 Re c -+ |c| tau (c = cos(kappa),
# tau the trace of one unit cell; see secular_explicit), by mpmath; each
# pair is two roots of one factor, its sign in -+ given first
TIGHT_DOUBLETS_Z1 = [
    (1, "0.05305333023870084564880166968171966463665",
     "0.05304996558285919536240713170751389734852"),
    (-1, "0.03978913487008050862374134803875500846309",
     "0.03978833670789681931524699014552590302195"),
]


@pytest.mark.parametrize("sign,upper,lower", TIGHT_DOUBLETS_Z1, ids=["t053", "t0398"])
def test_tightest_twisted_doublets_against_mpmath(sign, upper, lower):
    """find_roots gives each root of the doublet its own record, whose t
    lies within its own bracket_width of the 40-digit root; mpmath
    reproduces the pinned roots from brackets 1e-9 relative around them."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def det_factor(t):
        s = 1 / (2 * t)
        c = mp.cos(mp.mpc(s, -t))
        k2 = s * s + t * t
        tau = (
            2 * mp.cos(s) ** 2
            - 2 * (s * s - t * t) / k2 * mp.sin(s) ** 2
            + 4 * t * t / k2 * mp.sinh(t) ** 2
        )
        return 2 * mp.re(c) + sign * abs(c) * tau

    roots = []
    for pin in (mp.mpf(upper), mp.mpf(lower)):
        bracket = (pin * (1 - mp.mpf("1e-9")), pin * (1 + mp.mpf("1e-9")))
        root = mp.findroot(det_factor, bracket, solver="anderson")
        assert abs(root - pin) <= mp.mpf("1e-38") * pin
        roots.append(root)
    recs = find_roots(_f_explicit(1.0), 1.0, 18)
    near = [r for r in recs if abs(r.t - float(roots[0])) < 1e-5]
    assert len(near) == 2 and not any(r.unresolved_doublet for r in near), near
    for r, root in zip(near, roots):
        assert abs(mp.mpf(r.t) - root) <= r.bracket_width, (r, root)


def _with_double_factor(root, other):
    """(t - root)^2 (t - other), with factors t - other (count 1) and
    t - root (count 2)."""

    def f(t):
        g = LogScaledValue.from_float((t - root) ** 2 * (t - other))
        return LogScaledValue(g.sign, g.logmag, ((t - other, 1), (t - root, 2)))

    return f


def test_find_roots_counts_double_factor_roots_twice():
    """A root of a count-2 factor is a simple sign change of that factor,
    closed like any other and reported as one record standing for two
    levels."""
    recs = find_roots(
        _with_double_factor(0.5, 0.7), 1.0, 3, ScanConfig(t_min=0.3, t_max=0.9)
    )
    assert [r.unresolved_doublet for r in recs] == [False, True]
    assert [r.t for r in recs] == pytest.approx([0.7, 0.5], rel=1e-13)
    assert level_count(recs) == 3


def test_bisect_exact_zero_of_double_factor():
    """An exact zero of a count-2 factor, at a bracket end or at a step
    point, is a root standing for two levels; a simple root at a bracket end
    is not."""
    f = _with_double_factor(0.5, 0.7)
    for bracket in [(0.5, 0.6), (0.4, 0.6)]:
        rec = _close_on(f, bracket)
        assert (rec.t, rec.bracket_width, rec.unresolved_doublet) == (0.5, 0.0, True)
    assert not _close_on(f, (0.6, 0.7)).unresolved_doublet
    # an exact end comes before a sign change of an earlier factor
    rec = _close_on(f, (0.5, 0.8))
    assert (rec.t, rec.bracket_width, rec.unresolved_doublet) == (0.5, 0.0, True)


def _zero_on_grid(*factors):
    """A value with the factor t - root of count n for each (root, n) of
    factors, where a root of None is c, the master-grid point t[t.size // 3]
    of the first call, so that its factors are exactly zero there; and a
    list that holds c after that call."""
    c = []

    def f(t):
        t = np.asarray(t, dtype=float)
        if not c:
            c.append(float(t[t.size // 3]))
        fs = tuple((t - (c[0] if root is None else root), n) for root, n in factors)
        g = LogScaledValue.from_float(np.prod([y**n for y, n in fs], axis=0))
        return LogScaledValue(g.sign, g.logmag, fs)

    return f, c


@pytest.mark.parametrize("n", [1, 2])
def test_find_roots_exact_grid_root(n):
    """A master-grid point where a factor is zero is a root of that factor,
    of width 0 and residual -inf, standing for as many levels as the
    factor's count, beside the sign change of another factor."""
    f, c = _zero_on_grid((0.4321, 1), (None, n))
    recs = find_roots(f, 1.0, 1, ScanConfig(0.1, 1.0))
    (rec,) = [r for r in recs if r.t == c[0]]
    assert (rec.bracket_width, rec.residual_logmag) == (0.0, -math.inf)
    assert rec.unresolved_doublet is (n == 2)
    (other,) = [r for r in recs if r is not rec]
    assert other.t == pytest.approx(0.4321, rel=1e-13)
    assert level_count(recs) == 1 + n


@pytest.mark.parametrize("counts,levels", [((1, 2), 1), ((2, 1), 2)])
def test_find_roots_exact_grid_root_of_two_factors(counts, levels):
    """A grid point where two factors are zero is one root, of the first of
    them, whose count decides its levels."""
    f, c = _zero_on_grid(*((None, n) for n in counts))
    recs = find_roots(f, 1.0, 1, ScanConfig(0.1, 1.0))
    assert [(r.t, r.bracket_width) for r in recs] == [(c[0], 0.0)]
    assert level_count(recs) == levels


def test_bisect_width_floor(monkeypatch):
    """A bracket closed to adjacent floats reports the few ulps within which
    a computed sign is rounding noise, not the last step's width."""
    a = 0.3

    def f(t):
        return LogScaledValue.from_float(np.where(np.asarray(t) <= a, -1.0, 1.0))

    monkeypatch.setattr(ptring.roots, "_T_TOL", 1e-20)
    rec = _close_on(f, (0.1, 0.9))
    assert rec.t in (a, np.nextafter(a, 1.0))
    assert rec.bracket_width == 8 * np.spacing(rec.t)


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


def test_find_roots_sample_count_stability(monkeypatch):
    """Refining the master grid must not change the discovered roots: at
    t in [0.1, 1] the grid derives 254 points, which a floor of 256 or
    512 points splits two or three ways (507 or 760 points)."""
    cfg = ScanConfig(t_min=0.1, t_max=1.0)
    ra = find_roots(_f_explicit(1.0), 1.0, 5, cfg)
    monkeypatch.setattr(ptring.roots, "_LEAST_GRID_POINTS", 512)
    rb = find_roots(_f_explicit(1.0), 1.0, 5, cfg)
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
    """Near zero coupling, roots of the count-2 factor k c stand in for the
    free doublets of the odd levels."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        recs = find_roots(_f_monodromy(1e-6), 1e-6, 5)
    levels = energies_from_roots(recs, 1e-6)[:5]
    q = math.pi * math.pi / 4.0
    want = [0.0, q, q, 4 * q, 4 * q]
    assert len(levels) == 5
    for lvl, e in zip(levels, want):
        assert lvl.E == pytest.approx(e, abs=1e-3)
    assert recs[1].unresolved_doublet


WEAK_Z = (1e-100, 1e-30, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3)


@pytest.mark.parametrize(
    "M,Z,levels",
    [(1, z, 25) for z in WEAK_Z]
    + [(1, 2e-3, 13)]
    + [(2, z, 25) for z in WEAK_Z]
    + [(2, 2e-3, 19)]
    + [("explicit", z, 25) for z in WEAK_Z],
)
def test_free_limit_pairs_all_or_none(M, Z, levels):
    """The tau = -2 pairs count as doublets either all together, up to
    FREE_LIMIT_Z, or not at all above it; never an arbitrary subset of them
    as their distance from the real axis varies. Their t scales with Z, so
    at Z = 1e-8 and below pairs of distinct levels lie closer than 1e-12 in
    t and must stay apart; the twisted closure gets all of them too."""
    f = _f_explicit(Z) if M == "explicit" else _f_monodromy(Z, M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(f, Z, 18)
    assert level_count(recs) == levels


@pytest.mark.parametrize("M", ["explicit", 1, 2, 8, 32])
def test_z_floor(M):
    """At Z_FLOOR every closure still finds every level, 25 at 18 requested
    and 125 at 100; the next smaller double is a ValueError wherever Z
    enters, not a miscount (the twisted closure overcounts from Z = 1e-243)
    or an overflow in the grid sizing (below about 1e-308), and so is an
    infinite or NaN Z."""
    Z = Z_FLOOR
    f = _f_explicit(Z) if M == "explicit" else _f_monodromy(Z, M)
    for n_levels, levels in ((18, 25), (100, 125)):
        assert level_count(find_roots(f, Z, n_levels)) == levels
    for bad in (math.nextafter(Z_FLOOR, 0.0), math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and at least 1e-200"):
            build_square_well(1, bad)
        with pytest.raises(ValueError, match="finite and at least 1e-200"):
            default_scan_config(bad, 18)
        with pytest.raises(ValueError, match="finite and at least 1e-200"):
            secular_explicit(bad, 1e-201)
        with pytest.raises(ValueError, match="finite and at least 1e-200"):
            energies_from_roots([], bad)


@pytest.mark.parametrize(
    "M,Z,t_ground",
    [
        (1, 1e-6, 0.0007071067517237697),
        (2, 1e-6, 0.0007071067738208599),
        (1, 1e-5, 0.0022360670458050303),
        (2, 1e-5, 0.002236067744576053),
    ],
)
def test_weak_coupling_ground_bracket_is_split(M, Z, t_ground):
    """The ground state at s = sqrt(Z/2) lies where the master grid is
    geometric in s, so its bracket spans a small t ratio at any coupling
    and closes in as few calls as any other (in one interval of t ratio
    5e4 at Z = 1e-6, as a uniform grid in s left it, a solve took 58 and
    57 calls with one point per closer step and 49-53 with the stencil).
    t_ground is the root closed on that whole interval."""
    g, sizes = _counted(_f_monodromy(Z, M))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(g, Z, 18)
    assert level_count(recs) == 25
    assert recs[0].t == pytest.approx(t_ground, rel=1e-13, abs=0)
    assert len(sizes) <= 4


def _split_pair(split):
    """(t - 0.5)(t - 0.5 - split), one root of each of two factors."""

    def f(t):
        g = LogScaledValue.from_float((t - 0.5) * (t - 0.5 - split))
        return LogScaledValue(g.sign, g.logmag, ((t - 0.5, 1), (t - 0.5 - split, 1)))

    return f


def test_find_roots_synthetic_tight_pair():
    """A real pair split below bisection resolution (5e-14 at t = 0.5), one
    root of each of two factors, reports as one doublet."""
    cfg = ScanConfig(t_min=0.3, t_max=0.7)
    recs = find_roots(_split_pair(2e-14), 1.0, 2, cfg)
    assert level_count(recs) == 2
    assert len(recs) == 1
    assert recs[0].unresolved_doublet
    assert recs[0].t == pytest.approx(0.5, abs=1e-6)


def test_find_roots_synthetic_resolved_pair():
    """A pair split by ten times bisection resolution closes into two
    brackets that do not overlap, so it is two records of one level each,
    however small the split is in absolute t."""
    cfg = ScanConfig(t_min=0.3, t_max=0.7)
    recs = find_roots(_split_pair(5e-13), 1.0, 2, cfg)
    assert [r.unresolved_doublet for r in recs] == [False, False]
    assert [r.t for r in recs] == pytest.approx([0.5 + 5e-13, 0.5], rel=0, abs=5e-14)


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
    # |Im|/(1+|Re|) of this layout stays below 0.5 for t in [0.05, 0.64]
    # and [0.85, 3] and exceeds it for t in [0.65, 0.8]
    monkeypatch.setenv("PT_CIRCLE_TOL", "0.5")
    cfg = ScanConfig(t_min=0.3, t_max=3.0)
    # find_roots' master grid at Z=1, in ascending t, as its first call
    # receives it
    grids = []

    def f(t):
        grids.append(np.array(t))
        return secular_monodromy(asym, 1.0, t)

    with pytest.raises(SecularEvaluationError) as ej:
        find_roots(f, 1.0, 5, cfg)
    ts = grids[0]

    def fails(t):
        try:
            secular_monodromy(asym, 1.0, t)
        except SecularRealityError:
            return True
        return False

    first = next(float(t) for t in ts if fails(float(t)))
    assert first > ts[0]
    with pytest.raises(SecularRealityError) as ei:
        secular_monodromy(asym, 1.0, ts)
    assert ei.value.t == first
    assert ej.value.t == first


@pytest.mark.parametrize("backend", ["explicit", "monodromy", "product"])
def test_scan_overflow_error_carries_first_failing_t(backend):
    """A window reaching t where the secular value overflows fails at the
    first overflowing grid point, as the pointwise calls do: from t = 710.x
    on the propagator product, and where the energy leaves the double range
    on the closed forms."""
    f = {
        "explicit": _f_explicit(1.0),
        "monodromy": _f_monodromy(1.0),
        "product": lambda t: secular_monodromy(NON_ALTERNATING, 1.0, t),
    }[backend]
    t_max = 1000.0 if backend == "product" else 1e200
    cfg = ScanConfig(t_min=0.03, t_max=t_max)
    ts = np.linspace(cfg.t_min, cfg.t_max, 256)

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
    shortfall may come out of one. Nor does a value read after its call,
    outside the closure, on the roots and on a grid across the window."""
    f = _f_explicit(Z) if backend == "explicit" else _f_monodromy(Z, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", LevelShortfallWarning)
        records = find_roots(f, Z, 18)
        scan_secular(f, ScanConfig(t_min=0.03, t_max=1.0), 512)
        cfg = default_scan_config(Z, 18)
        ts = np.concatenate(
            [[r.t for r in records], np.geomspace(cfg.t_min, cfg.t_max, 4096)]
        )
        v = f(ts)
        assert v.sign.shape == v.logmag.shape == ts.shape


@pytest.mark.parametrize("Z", [1e-6, 1e-3, 1.0, 17.9012])
def test_find_roots_never_computes_a_closed_form_value(monkeypatch, Z):
    """Root finding reads only the factors of the closed forms: with the
    deferred value stage made to raise, every solve still finds its
    levels."""
    solves = {M: _f_monodromy(Z, M) for M in (1, 2, 8, 32)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        expected = {M: find_roots(f, Z, 18) for M, f in solves.items()}
        expected["explicit"] = find_roots(_f_explicit(Z), Z, 18)

        def refuse(self):
            raise AssertionError("a closed-form value was computed")

        monkeypatch.setattr(LogScaledValue, "_read", refuse)
        for M, f in solves.items():
            assert find_roots(f, Z, 18) == expected[M]
        assert find_roots(_f_explicit(Z), Z, 18) == expected["explicit"]
        with pytest.raises(AssertionError, match="closed-form value"):
            _f_explicit(Z)(np.array([0.5])).sign


@pytest.mark.parametrize(
    "cfg,least",
    [
        (ScanConfig(t_min=1e-300, t_max=5.0), 256),
        (ScanConfig(t_min=5e-324, t_max=5.0), 256),
        (ScanConfig(t_min=0.1, t_max=1.0), 2**22 + 1),
    ],
    ids=["tiny-t_min", "s-overflow", "samples"],
)
def test_find_roots_rejects_oversized_grid(monkeypatch, cfg, least):
    """A master grid above _MAX_GRID_POINTS points, derived or raised to
    the floor _LEAST_GRID_POINTS, is a ValueError naming its size, raised
    before f is called."""

    def f(t):
        raise AssertionError("f was called")

    monkeypatch.setattr(ptring.roots, "_LEAST_GRID_POINTS", least)
    with pytest.raises(ValueError, match=r"would take \S+ points, more than the 4194304"):
        find_roots(f, 1.0, 18, cfg)


def test_shortfall_warning_message():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        find_roots(_f_monodromy(1.0), 1.0, 18)
    msgs = [str(w.message) for w in caught if w.category is LevelShortfallWarning]
    assert len(msgs) == 1
    assert "13 of 18" in msgs[0]
    assert "complex conjugate pairs" in msgs[0]


@pytest.mark.parametrize(
    "case",
    [("explicit", 1.0, n) for n in (18, 50, 100)]
    + [(M, 1.0, 18) for M in (1, 8, 32)]
    + [(1, Z, 18) for Z in np.linspace(0.05, 4.0, 80).tolist()],
    ids=str,
)
def test_guard_spends_nothing_on_benchmark_solves(case):
    """The benchmark's solves (the explicit ladder, M = 8 and 32, the
    strictly periodic M = 1 at Z = 1 and across pt-sweep's coupling range)
    flag no extremum on the master grid and make no refinement pass, so the
    exceptional-point guard adds no point and no secular call to them; in
    particular U_(M-1) touching zero at each band edge, where another factor
    has its root, is no window."""
    M, Z, n_levels = case
    f = _f_explicit(Z) if M == "explicit" else _f_monodromy(Z, M)
    (master,) = _closer_call(f, Z, n_levels)[1]
    assert master[1].size == 0


@pytest.mark.parametrize("M,Z,levels", [(2, 0.01, 19), (2, 0.1, 19), (8, 0.01, 23)])
def test_guard_refines_once_without_a_pair(M, Z, levels):
    """Where the master grid flags a window but no pair hides there, one
    refinement pass shows it: the closer gets the master grid's brackets,
    the solve takes one call more than the master call and the closer's
    two steps, and finds the same levels as without the guard."""
    f = _f_monodromy(Z, M)
    brackets, (master, refined) = _closer_call(f, Z, 18)
    assert master[1].size > 0 and refined[1].size == 0
    for a, b in zip(brackets, master[0]):
        np.testing.assert_array_equal(a, b)
    g, sizes = _counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(g, Z, 18)
    assert len(sizes) == 4
    assert level_count(recs) == levels


def _band_edge_roots(Z, guesses):
    """Roots in t of k (a + b) at M = 1, s sin(s) + t sinh(t) with
    s = Z / (2 t), by 30-digit mpmath from each guess."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    Z = mp.mpf(Z)

    def g(t):
        s = Z / (2 * t)
        return s * mp.sin(s) + t * mp.sinh(t)

    return [float(mp.findroot(g, mp.mpf(t))) for t in guesses]


@pytest.mark.parametrize("Z", [17.9012, 17.901234, 17.9012344])
def test_exceptional_point_pair_is_found(Z):
    """Just below the M = 1 exceptional point Z_c = 17.9012344088, where
    two real levels near E = 25.6 meet, both roots of k (a + b) are found,
    each within 1e-9 relative of its 30-digit root, however far inside one
    master grid interval they lie (without the guard, 9 levels at
    Z = 17.9012344)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(_f_monodromy(Z), Z, 18)
    assert level_count(recs) == 11
    pair = sorted(r.t for r in recs if 1.67 < r.t < 1.69)
    assert len(pair) == 2 and not any(r.unresolved_doublet for r in recs)
    roots = _band_edge_roots(Z, pair)
    assert roots[0] < roots[1]
    assert pair == pytest.approx(roots, rel=1e-9, abs=0)


@pytest.mark.parametrize("Z", [17.9012345, 17.9013])
def test_exceptional_point_no_pair_above(Z):
    """Just above Z_c the pair is complex: no root appears near it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(_f_monodromy(Z), Z, 18)
    assert level_count(recs) == 9
    assert not [r for r in recs if 1.6 < r.t < 1.75]


@pytest.mark.parametrize("Z,real", [(17.9, True), (17.95, False)])
def test_exceptional_point_against_finite_differences(Z, real):
    """The finite-difference oracle (N = 4000) sees the pair near E = 25.6
    real below Z_c and complex above it, as find_roots does; below Z_c its
    two eigenvalues lie within 1e-3 relative of the levels found (the pair's
    sensitivity to Z near Z_c magnifies the O(h^2) discretization error)."""
    pair = fd_eigenvalues(Z, 1, 25.6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(_f_monodromy(Z), Z, 18)
    found = [lvl.E for lvl in energies_from_roots(recs, Z) if 20.0 < lvl.E < 30.0]
    if real:
        assert np.all(np.abs(pair.imag) < 1e-6), pair
        assert pair.real == pytest.approx(found, rel=1e-3, abs=0)
    else:
        assert np.all(np.abs(pair.imag) > 0.5), pair
        assert pair[0] == pytest.approx(np.conj(pair[1]), rel=1e-9), pair
        assert found == []
