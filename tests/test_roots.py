"""Scanning, bracket closing, and full root discovery."""

import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracle import fd_eigenvalues
from product_oracle import CirclePotential, SecularRealityError, layout, secular_product
from test_secular import EXPLICIT_ROOTS_Z1, NON_ALTERNATING

from ptring import (
    LevelShortfallWarning,
    LogScaledValue,
    RootRecord,
    ScanConfig,
    SecularEvaluationError,
    build_square_well,
    default_scan_config,
    energies_from_roots,
    find_roots,
    level_count,
    scan_secular,
    secular_explicit,
    secular_monodromy,
)
import ptring.estimate
import ptring.roots
from ptring.potential import Z_FLOOR
from ptring.secular import FREE_LIMIT_Z
from ptring.roots import (
    _brackets,
    _close_brackets,
    _evaluate,
    _itp_project,
    _vertex,
    _windows,
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


# (t_min, t_max, the text of the ValueError); the checks run in this order:
# t_min, then t_max, then the order of the two
SCAN_CONFIG_ERRORS = [
    (0.0, 1.0, "t_min must be positive, got 0.0; set a positive t_min (--t-min)"),
    (math.nan, math.inf, "t_min must be positive, got nan; set a positive t_min (--t-min)"),
    (0.1, math.inf, "t_max must be finite, got inf; set a finite t_max (--t-max)"),
    (2.0, math.nan, "t_max must be finite, got nan; set a finite t_max (--t-max)"),
    (0.5, 0.5, "need t_min < t_max, got [0.5, 0.5]; "
               "set t_min (--t-min) below t_max (--t-max)"),
]


def test_scan_config_validation():
    for t_min, t_max, text in SCAN_CONFIG_ERRORS:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            ScanConfig(t_min=t_min, t_max=t_max)


@pytest.mark.parametrize(
    "value,text,field",
    [
        (ScanConfig(0.03, 1.0), "ScanConfig(t_min=0.03, t_max=1.0)", "t_min"),
        (
            RootRecord(0.5, -math.inf, 0.0, True, 2),
            "RootRecord(t=0.5, residual_logmag=-inf, bracket_width=0.0, "
            "unresolved_doublet=True, factor=2)",
            "t",
        ),
        (
            RootRecord(0.25, -3.5, 1e-14, False, 0),
            "RootRecord(t=0.25, residual_logmag=-3.5, bracket_width=1e-14, "
            "unresolved_doublet=False, factor=0)",
            "unresolved_doublet",
        ),
    ],
)
def test_roots_values_are_frozen(value, text, field):
    """Each value keeps the repr it had as a dataclass, equals and hashes
    as a copy of itself, and refuses assignment to a field or a new name."""
    assert repr(value) == text
    again = pickle.loads(pickle.dumps(value))
    assert again == value and hash(again) == hash(value)
    for name in (field, "label"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert repr(value) == text


def test_scan_values_equal_only_their_own_class():
    assert ScanConfig(0.1, 1.0) == ScanConfig(t_min=0.1, t_max=1.0)
    assert ScanConfig(0.1, 1.0) != ScanConfig(0.1, 2.0)
    assert ScanConfig(0.1, 1.0) != (0.1, 1.0)
    # the records are NamedTuples, with tuple semantics
    assert RootRecord(0.5, -1.0, 1e-14, False, 1) == (0.5, -1.0, 1e-14, False, 1)
    assert RootRecord(0.5, -1.0, 1e-14, False, 1)._replace(unresolved_doublet=True).unresolved_doublet


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
    """The table is three arrays of length samples, t and logmag float and
    sign int, and each row is the scalar call at its t."""
    f = _f_explicit(1.0)
    t, sign, logmag = scan_secular(f, ScanConfig(t_min=0.66, t_max=1.0))
    assert t.shape == sign.shape == logmag.shape == (256,)
    assert (t.dtype, logmag.dtype) == (np.float64, np.float64)
    assert np.issubdtype(sign.dtype, np.integer)
    assert (sign == -1).all()
    assert (t[0], t[-1]) == (0.66, 1.0)
    for x, s, y in zip(t.tolist(), sign.tolist(), logmag.tolist()):
        v = f(x)
        assert (s, y) == (v.sign, v.logmag)


def test_scan_single_crossing():
    t, sign, _ = scan_secular(_f_explicit(1.0), ScanConfig(t_min=0.35, t_max=0.45), 256)
    (flips,) = np.nonzero(sign[:-1] * sign[1:] < 0)
    assert flips.size == 1
    assert t[flips[0]] < EXPLICIT_ROOTS_Z1[1] < t[flips[0] + 1]


def test_scan_wraps_evaluation_errors():
    def f(t):
        raise RuntimeError("boom")

    cfg = ScanConfig(t_min=0.1, t_max=0.2)
    with pytest.raises(SecularEvaluationError) as ei:
        scan_secular(f, cfg, 16)
    assert ei.value.t == pytest.approx(0.1)


@pytest.mark.parametrize("solve", ["scan", "find_roots"])
@pytest.mark.parametrize(
    "f",
    [
        # one value per call, from the first t alone
        lambda t: LogScaledValue.from_float(0.5 - float(np.ravel(t)[0])),
        # one value too few
        lambda t: LogScaledValue.from_float(0.5 - np.asarray(t)[1:]),
    ],
    ids=["scalar", "short"],
)
def test_value_of_another_length_than_t_is_refused(f, solve):
    """A secular callable must give sign, logmag and every factor one entry
    per t; one that does not is a ValueError stating that, not a table of
    the wrong rows or an error deep in root finding."""
    with pytest.raises(ValueError, match=r"every factor with one entry per t, \d+ "):
        if solve == "scan":
            scan_secular(f, ScanConfig(t_min=0.1, t_max=1.0), 16)
        else:
            find_roots(f, 1.0, 3, ScanConfig(t_min=0.1, t_max=1.0))


@pytest.mark.parametrize("samples", [1, 15, 2**22 + 1])
def test_scan_sample_count_is_checked_first(samples):
    """A sample count below 16 or above _MAX_GRID_POINTS is a ValueError
    naming --samples, raised before f is called."""

    def f(t):
        raise AssertionError("f was called")

    with pytest.raises(ValueError, match=rf"\b{samples}\b.*--samples"):
        scan_secular(f, ScanConfig(t_min=0.1, t_max=0.2), samples)


# --- the lock-step closer -----------------------------------------------------


def _scan_brackets(ts, scan, Z=1.0):
    """The brackets find_roots makes on the grid ts from scan, what
    _evaluate returns there, with the window scan's sign changes."""
    return _brackets(ts, scan, _windows(ts, scan[0][: scan[1].size])[0], Z)


def _close_on(f, bracket):
    """The root on the two-point grid (lo, hi), as find_roots' scan and
    closer give it: the first factor's sign change, a value of 0 counting as
    positive, closed without a first estimate (a grid of fewer than
    _FIT_POINTS points has none), so that its first step takes the
    midpoint."""
    ts = np.array(bracket, dtype=float)
    brackets = _scan_brackets(ts, _evaluate(f, ts))
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
    """A grid point where the factor is 0 counts as positive: it ends the
    sign change from below, whose record is that point, residual -inf, and
    makes none with a positive neighbour."""
    rec = _close_on(_linear(0.5), (0.3, 0.5))
    assert (rec.t, rec.residual_logmag) == (0.5, -math.inf)
    assert 8 * np.spacing(0.5) <= rec.bracket_width <= 1e-13 * 0.5
    ts = np.array([0.5, 0.9])
    assert _scan_brackets(ts, _evaluate(_linear(0.5), ts))[3].size == 0


def test_bisect_exact_midpoint_closes_bracket():
    """0.75 is the first midpoint and an exact root: the stencil point
    epsilon below it is negative, so the first step closes the bracket to
    (0.75 - epsilon, 0.75), of width epsilon, not 0."""
    counted, sizes = _counted(_linear(0.75))
    rec = _close_on(counted, (0.5, 1.0))
    assert (rec.t, rec.residual_logmag) == (0.75, -math.inf)
    assert rec.bracket_width == pytest.approx(0.5e-13 * 0.5, rel=1e-3, abs=0)
    assert len(sizes) == 2  # the grid and one step


def test_bisect_exact_step_point_closes_bracket():
    # t^2 - 0.3, zero on [0.54772, 0.54773] around its root: the zeros
    # count as positive, so the sign change the closer closes is the run's
    # lower end, where the first zero is the record's t
    def f(t):
        t = np.asarray(t, dtype=float)
        return LogScaledValue.from_float(
            np.where((0.54772 <= t) & (t <= 0.54773), 0.0, t * t - 0.3)
        )

    rec = _close_on(f, (0.5, 1.0))
    assert rec.residual_logmag == -math.inf
    assert 0.0 < rec.t - 0.54772 <= rec.bracket_width <= 1e-13 * rec.t

    # on the grid 0.2, 0.3, ..., 1.5, of _FIT_POINTS points, beside a
    # second factor, t - 1.23, both brackets have a first estimate: t - 1.23
    # is linear in its value, so its estimate is its root, an exact zero,
    # and its first step closes it on (1.23 - epsilon, 1.23); the first
    # bracket closes on the run's lower end in later steps, alone as in
    # lock step
    def g(t):
        y = f(t).factors[0][0]
        v = LogScaledValue.from_float(y * (t - 1.23))
        return LogScaledValue(v.sign, v.logmag, ((y, 1), (t - 1.23, 1)))

    ts = np.linspace(0.2, 1.5, 14)
    brackets = _scan_brackets(ts, _evaluate(g, ts))
    (lo, hi), _, q, _, _ = brackets
    np.testing.assert_allclose(lo + q * (hi - lo), [0.5477636, 1.23], rtol=1e-7)
    counted, sizes = _counted(g)
    records = _close_brackets(counted, brackets)
    assert sizes[0] == 18 and set(sizes[1:]) == {9}
    assert records[0].t - 0.54772 <= records[0].bracket_width
    assert (records[1].t, records[1].residual_logmag) == (1.23, -math.inf)
    assert records[1].bracket_width == pytest.approx(0.5e-13 * 1.2, rel=1e-3, abs=0)
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
    closed without a first estimate from the two-point grid of its ends."""
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
    window scan before it found (its sign-change count and extremum
    windows) with the grid it scanned: the master grid's first, then each
    refinement pass's."""
    seen, scans = [], []

    def spy(g, brackets):
        seen.append(brackets)
        return _close_brackets(g, brackets)

    def scan_spy(ts, factors):
        change, windows = _windows(ts, factors)
        scans.append((np.count_nonzero(change), windows, ts))
        return change, windows

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(ptring.roots, "_close_brackets", spy)
        mp.setattr(ptring.roots, "_windows", scan_spy)
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
    # brackets that close at different steps: calls of 1457, 225, 225, 108,
    # 99, 90, 63, 18 and 9 points, so the working set shrinks step by step
    "explicit-Z1e-3": (_f_explicit(1e-3), 1e-3, 18),
}
_CLOSE_POOLS = {name: _closer_call(*case) for name, case in _CLOSE_CASES.items()}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_lock_step_equals_lone_brackets(data):
    """On the brackets find_roots hands the closer, each record of
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


def test_every_bracket_has_a_first_estimate():
    """Every sign-change bracket find_roots hands the closer runs from lo to
    hi, and on the pools' solves away from the weak coupling every one has
    a first estimate strictly inside it. So has the ground state of a window
    that starts just below it, in the grid's first interval, where the
    points of the fit are the grid's first ones: that solve takes the
    master call and one closer step."""
    for name, (pool, _) in _CLOSE_POOLS.items():
        (lo, hi), _, q, _, _ = pool
        assert (lo < hi).all()
        if name != "explicit-Z1e-3":
            assert ((0.0 < q) & (q < 1.0)).all(), name
    t0 = 0.656419569606386  # the ground root at Z = 1
    cfg = ScanConfig(t_min=t0 * (1 - 1e-4), t_max=1.5 * t0)
    f, sizes = _counted(_f_explicit(1.0))
    ((lo, hi), _, q, _, _), _ = _closer_call(f, 1.0, 1, cfg)
    assert lo.size == 1 and lo[0] < t0 < hi[0] and 0.0 < q[0] < 1.0
    assert len(sizes) == 2
    recs = find_roots(_f_explicit(1.0), 1.0, 1, cfg)
    assert recs[0].t == pytest.approx(t0, rel=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    degree=st.integers(1, ptring.estimate._FIT_POINTS - 1),
    coefficients=st.lists(st.floats(-0.5, 0.5), min_size=10, max_size=10),
    steps=st.lists(st.floats(0.5, 2.0), min_size=29, max_size=29),
    crossing=st.integers(0, 28),
    where=st.floats(0.01, 0.99),
)
def test_first_estimate_recovers_a_polynomial_root(
    degree, coefficients, steps, crossing, where
):
    """Where t is a polynomial of degree below _FIT_POINTS in the factor's
    value y, the first estimate is its root t(0) to rounding, on uneven
    values and with the bracket anywhere on the grid: within 8 ulps where
    the fit's points lie around the bracket, and within 1e-9 where they are
    the grid's first or last ones. A fit shifted to one side of its bracket
    amplifies rounding, as the Lebesgue function of points spread on one
    side grows: over 40000 uneven grids the error reached 4.1e-11 in the
    first interval, 5.1e-12 in the second and 8.2e-13 in the third."""
    y = np.cumsum([0.0, *steps])
    y -= y[crossing] + where * steps[crossing]  # zero inside the crossing
    u = 0.01 * y
    t = 1.0 + u + sum(c * u**d for d, c in zip(range(2, degree + 1), coefficients))
    (lo, hi), _, q, k, _ = _scan_brackets(t, (y[None, :], np.array([1])))
    assert k.tolist() == [0] and lo[0] == t[crossing]
    start = crossing - (ptring.estimate._FIT_POINTS // 2 - 1)
    centred = 0 <= start <= t.size - ptring.estimate._FIT_POINTS
    tol = 8 * math.ulp(1.0) if centred else 1e-9
    assert abs(lo[0] + q[0] * (hi[0] - lo[0]) - 1.0) <= tol


@pytest.mark.parametrize("Z", [17.9012, 17.901234, 17.9012344])
def test_non_monotone_fit_takes_the_midpoint(Z):
    """Near the exceptional point the factor k (a + b) turns between the
    pair of roots, so the fit around either holds a turn and no first
    estimate is taken: the closer's first step evaluates its stencil around
    the bracket's midpoint. The other brackets of the solve have one."""
    f = _f_monodromy(Z)
    (lo, hi), _, q, _, _ = brackets = _closer_call(f, Z, 18)[0]
    pair = (1.67 < lo) & (lo < 1.69)
    assert pair.sum() == 2
    assert np.isnan(q[pair]).all() and np.isfinite(q[~pair]).all()
    for j in np.flatnonzero(pair):
        calls = []
        _close_brackets(
            lambda t: calls.append(t.copy()) or f(t),
            tuple(e[..., j : j + 1] for e in brackets),
        )
        centre = calls[0][ptring.roots._CENTRE - 1]
        assert centre == 0.5 * (lo[j] + hi[j])


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
    [(_f_explicit(1.0), 1.0, 2, 1400), (_f_monodromy(1.0, 8), 1.0, 2, 1400)],
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
        pytest.param("explicit", 18, 1, id="explicit-18"),
        pytest.param("explicit", 100, 1, id="explicit-100"),
        pytest.param("M8", 18, 3, id="M8-18"),
        pytest.param("M32", 18, 4, id="M32-18"),
        pytest.param("M1-Z0.1734", 18, 3, id="M1-Z0.1734-18"),
        pytest.param("M1-Z1.6547", 18, 3, id="M1-Z1.6547-18"),
    ],
)
def test_closer_steps_per_bracket(case, n_levels, ceiling):
    """No bracket find_roots hands the closer stalls: each closes alone,
    from its first estimate, in at most ceiling steps. These solves hold
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
    """An M = 1 solve of the benchmark's coupling range takes at most three
    calls, on a fixed grid of couplings; the property below holds it to
    two."""
    g, sizes = _counted(_f_monodromy(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) <= 3


@settings(max_examples=40, deadline=None)
@given(Z=st.floats(0.05, 4.0))
def test_pt_sweep_solve_takes_two_calls(Z):
    """An M = 1 solve of the benchmark's coupling range takes the master
    call and one closer step: the first estimate of every bracket lands
    within epsilon = _T_TOL t / 2 of its root, where the stencil around it
    closes the bracket."""
    g, sizes = _counted(_f_monodromy(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) == 2


@pytest.mark.parametrize("n_levels", [18, 50, 100])
def test_explicit_z1_takes_two_calls(n_levels):
    """The benchmark's ladder: the master call and one closer step."""
    g, sizes = _counted(_f_explicit(1.0))
    find_roots(g, 1.0, n_levels)
    assert len(sizes) == 2


@settings(max_examples=40, deadline=None)
@given(Z=st.floats(0.055, 2.75))
def test_explicit_solve_takes_two_calls(Z):
    """An 18-level solve of the twisted closure takes the master call and one
    closer step: the forward estimate from its analytic form lands within
    epsilon of every root, the b1 doublets' included. Measured on grids of
    Z, two calls hold from Z = 0.0513 to 2.780; below, pairs closer than the
    interpolant resolves, and above, the exceptional point at Z = 2.9248,
    take more."""
    g, sizes = _counted(_f_explicit(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) == 2


@pytest.mark.parametrize(
    "Z,n_levels,levels", [(0.01, 1, 3), (0.01, 2, 5), (0.1, 18, 25), (0.5, 100, 125)]
)
def test_settled_forward_estimates_take_two_calls(Z, n_levels, levels):
    """Twisted solves whose forward estimates have converged by the error
    bound of their last Newton step, though on some brackets that step is
    5800 to 32000 epsilon long: each takes the forward estimates, closes
    every bracket in one closer step and finds all its levels."""
    g, sizes = _counted(_f_explicit(Z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        records = find_roots(g, Z, n_levels)
    assert len(sizes) == 2
    assert level_count(records) == levels


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
    assert [r.factor for r in recs] == [0, 1]
    assert [r.t for r in recs] == pytest.approx([0.7, 0.5], rel=1e-13)
    assert level_count(recs) == 3


def test_bisect_exact_zero_of_double_factor():
    """An exact zero of a count-2 factor, at a bracket's upper end or at a
    step point, is a root standing for two levels, of positive width; a
    simple root at a bracket end is not; and a zero at a bracket's lower
    end, which counts as positive, is no sign change of its factor."""
    f = _with_double_factor(0.5, 0.7)
    for bracket in [(0.4, 0.5), (0.4, 0.6)]:
        rec = _close_on(f, bracket)
        assert (rec.t, rec.residual_logmag, rec.unresolved_doublet) == (0.5, -math.inf, True)
        assert rec.bracket_width >= 8 * np.spacing(0.5)
    assert not _close_on(f, (0.6, 0.7)).unresolved_doublet
    rec = _close_on(f, (0.5, 0.8))
    assert (rec.t, rec.unresolved_doublet, rec.factor) == (pytest.approx(0.7), False, 0)


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
    found at that point with residual -inf and a width of at least 8 ulps,
    standing for as many levels as the factor's count, beside the sign
    change of another factor."""
    f, c = _zero_on_grid((0.4321, 1), (None, n))
    recs = find_roots(f, 1.0, 1, ScanConfig(0.1, 1.0))
    (rec,) = [r for r in recs if r.t == c[0]]
    assert rec.residual_logmag == -math.inf
    assert 8 * np.spacing(c[0]) <= rec.bracket_width <= 1e-13 * c[0]
    assert rec.unresolved_doublet is (n == 2)
    (other,) = [r for r in recs if r is not rec]
    assert other.t == pytest.approx(0.4321, rel=1e-13)
    assert level_count(recs) == 1 + n


@pytest.mark.parametrize("counts,levels", [((1, 2), 1), ((2, 1), 2)])
def test_find_roots_exact_grid_root_of_two_factors(counts, levels):
    """A grid point where two factors are zero is a root of each: two
    records at that point, in ascending factor, each standing for its
    factor's count of levels, three together, at any level count
    requested."""
    f, c = _zero_on_grid(*((None, n) for n in counts))
    recs = find_roots(f, 1.0, levels, ScanConfig(0.1, 1.0))
    assert [(r.t, r.factor) for r in recs] == [(c[0], 0), (c[0], 1)]
    assert [r.unresolved_doublet for r in recs] == [n == 2 for n in counts]
    assert level_count(recs) == 3


def test_find_roots_common_root_of_two_simple_factors_is_a_doublet():
    """A grid point where two simple factors are zero is a double root of
    the value: two records of one level each at that point, factor 0
    first."""
    f, c = _zero_on_grid((None, 1), (None, 1))
    recs = find_roots(f, 1.0, 2, ScanConfig(0.1, 1.0))
    assert [(r.t, r.unresolved_doublet, r.factor) for r in recs] == [
        (c[0], False, 0), (c[0], False, 1)
    ]
    assert [r.residual_logmag for r in recs] == [-math.inf, -math.inf]


def test_nan_factor_is_refused():
    """A NaN factor value has no sign: on the master grid or at a closer
    step it is one ValueError naming the factor and its t."""

    def nan_over(lo, hi):
        def f(t):
            t = np.asarray(t, dtype=float)
            y = np.where((lo <= t) & (t <= hi), np.nan, t - 0.5)
            return LogScaledValue.deferred(None, ((t - 0.7, 1), (y, 1)))  # factors only

        return f

    config = ScanConfig(0.1, 1.0)
    with pytest.raises(ValueError, match=r"^secular factor 1 is NaN at t=0\.8"):
        find_roots(nan_over(0.8, 0.9), 1.0, 2, config)
    # too narrow for the grid: the closer's first step reaches it
    with pytest.raises(ValueError, match=r"^secular factor 1 is NaN at t=") as e:
        find_roots(nan_over(0.5 - 1e-9, 0.5 + 1e-9), 1.0, 2, config)
    t = float(re.search(r"t=(\S+),", str(e.value)).group(1))
    assert abs(t - 0.5) <= 1e-9


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


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(min_value=1e-6, max_value=1e3),
    rel=st.floats(min_value=1e-12, max_value=0.05),
    where=st.floats(min_value=0.0, max_value=1.0),
    spare=st.floats(min_value=1.0, max_value=4.0),
)
def test_itp_projection_keeps_every_estimate_within_budget(lo, rel, where, spare):
    """Where budget >= w, ITP's projection returns any estimate the closer
    makes, which lies in its bracket at least epsilon = _T_TOL lo / 2 from
    either end, unchanged, the ends of that range and the midpoint
    included: so the closer may skip it on a step where every open bracket
    has such a budget."""
    a, b = lo, lo * (1.0 + rel)
    w, m = b - a, 0.5 * (a + b)
    eps = 0.5 * ptring.roots._T_TOL * a
    xt = np.array([a + eps + where * (w - 2.0 * eps), a + eps, b - eps, m])
    full = np.full(xt.size, 1.0)
    x = _itp_project(xt, m * full, w * full, spare * w * full)
    assert x.tolist() == xt.tolist()


@settings(max_examples=300, deadline=None)
@given(
    rel=st.floats(min_value=1e-12, max_value=0.05),
    where=st.floats(min_value=0.0, max_value=1.0),
    spare=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_itp_projection_pulls_toward_the_midpoint(rel, where, spare):
    """Where budget < w, r = max(budget - w/2, 0) < w/2: an estimate within
    r of the midpoint stays, any other moves to distance r from it, on its
    own side, nearer the midpoint than it was; at r = 0 every estimate
    becomes the midpoint, a bisection step."""
    a, b = 1.0, 1.0 + rel
    w, m = b - a, 0.5 * (a + b)
    xt = a + where * w
    budget = spare * w
    r = max(budget - 0.5 * w, 0.0)
    (x,) = _itp_project(np.array([xt]), np.array([m]), np.array([w]), np.array([budget]))
    ulp = np.spacing(m)  # x and m carry rounding at the scale of m
    if abs(m - xt) <= r:
        assert x == xt
    else:
        assert abs(abs(x - m) - r) <= 2.0 * ulp
        assert (x - m) * (xt - m) >= 0.0 and abs(x - m) <= abs(xt - m) + 2.0 * ulp
    if r == 0.0:
        assert x == m


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
    root of each of two factors, is two records of one level each, each
    closed on its own factor to within its width of that factor's root."""
    cfg = ScanConfig(t_min=0.3, t_max=0.7)
    recs = find_roots(_split_pair(2e-14), 1.0, 2, cfg)
    assert [(r.unresolved_doublet, r.factor) for r in recs] == [(False, 1), (False, 0)]
    for r in recs:
        root = 0.5 + 2e-14 * (r.factor == 1)
        assert abs(r.t - root) <= r.bracket_width, r


def test_find_roots_touching_roots_of_one_factor_are_refused():
    """Two roots of one factor that touch, split below bisection resolution
    at t = 0.5, are what rounding noise makes of an exceptional point: a
    ValueError naming Z and the factor. Split by ten times that, they are
    two records of that factor, beside the root of the other."""

    def one_factor_pair(split):
        def f(t):
            y = (t - 0.5) * (t - 0.5 - split)
            g = LogScaledValue.from_float(y)
            return LogScaledValue(g.sign, g.logmag, ((t - 0.7, 1), (y, 1)))

        return f

    cfg = ScanConfig(t_min=0.3, t_max=0.9)
    with pytest.raises(ValueError, match=r"^at Z=1\.0 two roots of factor 1 at t="):
        find_roots(one_factor_pair(2e-14), 1.0, 3, cfg)
    recs = find_roots(one_factor_pair(5e-13), 1.0, 3, cfg)
    assert [r.factor for r in recs] == [0, 1, 1]
    assert [r.t for r in recs] == pytest.approx([0.7, 0.5 + 5e-13, 0.5], rel=0, abs=5e-14)


def test_find_roots_synthetic_resolved_pair():
    """A pair split by ten times bisection resolution closes into two
    brackets that do not overlap, so it is two records of one level each,
    however small the split is in absolute t."""
    cfg = ScanConfig(t_min=0.3, t_max=0.7)
    recs = find_roots(_split_pair(5e-13), 1.0, 2, cfg)
    assert [r.unresolved_doublet for r in recs] == [False, False]
    assert [r.factor for r in recs] == [1, 0]
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
        return secular_product(asym, 1.0, t)

    with pytest.raises(SecularEvaluationError) as ej:
        find_roots(f, 1.0, 5, cfg)
    ts = grids[0]

    def fails(t):
        try:
            secular_product(asym, 1.0, t)
        except SecularRealityError:
            return True
        return False

    first = next(float(t) for t in ts if fails(float(t)))
    assert first > ts[0]
    with pytest.raises(SecularRealityError) as ei:
        secular_product(asym, 1.0, ts)
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
        "product": lambda t: secular_product(NON_ALTERNATING, 1.0, t),
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
    + [("explicit", z, 1) for z in (0.1, 1.0, 4.0, 28.546)],
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
    levels, and so does a solve of LogScaledValue.from_float values or of
    the propagator product."""
    solves = {M: _f_monodromy(Z, M) for M in (1, 2, 8, 32)}
    solves["from_float"] = _linear(0.5 * default_scan_config(Z, 18).t_max)
    # below FREE_LIMIT_Z the product, which carries no k c, cannot tell its
    # near-axis pairs at tau = -2 from rounding noise
    if Z >= FREE_LIMIT_Z:
        pot = layout(build_square_well(2, Z))
        solves["product"] = lambda t: secular_product(pot, Z, t)
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
    exceptional-point guard adds no point and no secular call to them."""
    M, Z, n_levels = case
    f = _f_explicit(Z) if M == "explicit" else _f_monodromy(Z, M)
    (master,) = _closer_call(f, Z, n_levels)[1]
    assert master[1].size == 0


@pytest.mark.parametrize("M", [2, 3, 8, 32])
@pytest.mark.parametrize("Z", [0.01, 0.1, 0.5, 2.0])
def test_guard_flags_no_window_on_chebyshev_u(M, Z):
    """The count-2 factor u = U_(M-1)(tau/2) touches zero only at its own
    roots, so an 18-level solve at M > 1 away from an exceptional point
    flags no master-grid window, at weak coupling too, and makes no
    refinement pass."""
    (master,) = _closer_call(_f_monodromy(Z, M), Z, 18)[1]
    assert master[1].size == 0


def test_guard_finds_the_count_two_pair_at_m8():
    """Just below the M = 8 exceptional point of u (Z_c between
    61.79719740186384 and 61.79719740186385) the master grid flags one
    window on u, whose one refinement pass shows the pair: two roots of u,
    each a doublet, inside the window, and no level is missing."""
    Z = 61.7971
    f = _f_monodromy(Z, 8)
    brackets, (master, refined) = _closer_call(f, Z, 18)
    ((lo,), _, (hi,)) = master[1]
    assert master[0] + 2 == refined[0] and refined[1].size == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", LevelShortfallWarning)
        recs = find_roots(f, Z, 18)
    pair = [r for r in recs if lo < r.t < hi]
    assert [(r.factor, r.unresolved_doublet) for r in pair] == [(2, True)] * 2


def test_guard_refines_without_a_pair():
    """Where the master grid flags a window but no pair hides there, as just
    above the M = 1 exceptional point Z_c = 17.9012344088, the refinement
    passes show none: the closer gets the master grid's brackets, the solve
    takes one call per pass more than the master call and the closer's one
    step, and finds the 9 levels left once the pair has turned complex."""
    Z = 17.9012345
    f = _f_monodromy(Z)
    brackets, scans = _closer_call(f, Z, 18)
    assert scans[0][1].size > 0 and scans[-1][1].size == 0
    master = scans[0][2]
    for a, b in zip(brackets, _scan_brackets(master, _evaluate(f, master), Z)):
        np.testing.assert_array_equal(a, b)
    g, sizes = _counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        recs = find_roots(g, Z, 18)
    assert len(sizes) == len(scans) + 1
    assert level_count(recs) == 9


def test_window_vertex_is_the_parabolas():
    """The vertex _vertex returns is that of numpy.polyfit's parabola
    through three points, to 1e-9 relative, at any t; on flat or exactly
    straight values it is the middle point."""
    rng = np.random.default_rng(2024)
    n = 2000
    mid = 10.0 ** rng.uniform(-3.0, 3.0, n)
    steps = mid * rng.uniform(0.005, 0.05, (2, n))
    x = np.stack([mid - steps[0], mid, mid + steps[1]])
    # a parabola with its vertex among the points and a cubic term, in units
    # of the mean spacing h, at any scale and of either sign
    h, xv = steps.mean(0), rng.uniform(x[0], x[2])
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    y = a * (((x - xv) / h) ** 2 + rng.normal(size=n)
             + 0.1 * rng.normal(size=n) * ((x - mid) / h) ** 3)
    vertex = _vertex(x, y)
    for j in range(n):
        c2, c1, _ = np.polyfit(x[:, j] - mid[j], y[:, j], 2)
        assert vertex[j] == pytest.approx(mid[j] - c1 / (2.0 * c2), rel=1e-9)
    flat_x = np.array([[1e-7, 30.0, 1.0], [2e-7, 40.0, 2.0], [3e-7, 50.0, 4.0]])
    for flat_y in (np.full((3, 3), 0.25), np.full((3, 3), -7e10)):
        np.testing.assert_array_equal(_vertex(flat_x, flat_y), flat_x[1])
    # a line whose divided differences are exact: the second one is 0
    line_x = np.array([1.5, 2.0, 2.5])[:, None]
    assert _vertex(line_x, 3.0 * line_x - 1.0) == [2.0]


def test_guard_flags_every_window_the_bound_admits():
    """Just above the M = 1 exceptional point Z_c = 33.5449505906 the
    master grid flags one window, whose middle value lies within five times
    its neighbours' largest difference from it; refinement shows no pair
    there and ends with no window, and the solve finds the 7 levels left
    once the pair has turned complex."""
    Z = 33.55
    f = _f_monodromy(Z)
    _, scans = _closer_call(f, Z, 18)
    assert scans[0][1].shape[1] == 1 and scans[-1][1].size == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        assert level_count(find_roots(f, Z, 18)) == 7


def _factor_and_pair(root, centre, half):
    """Two factors: t - root, and (t - centre)^2 - half^2, whose pair of
    roots lies at centre -+ half."""

    def f(t):
        t = np.asarray(t, dtype=float)
        y0, y1 = t - root, (t - centre) ** 2 - half * half
        v = LogScaledValue.from_float(y0 * y1)
        return LogScaledValue(v.sign, v.logmag, ((y0, 1), (y1, 1)))

    return f


def _master_grid(Z, config):
    """The master grid of find_roots over config at Z, its first call."""
    grids = []
    find_roots(lambda t: grids.append(t) or _linear(0.55)(t), Z, 1, config)
    return grids[0]


_PAIR_CFG = ScanConfig(t_min=0.3, t_max=0.8)
_PAIR_GRID = _master_grid(1.0, _PAIR_CFG)


def test_guard_finds_a_pair_beside_another_factors_root():
    """Factor 1 keeps its sign on the master grid around its pair at
    0.50019 and 0.50021, in the grid interval that holds factor 0's root at
    0.5: its least magnitude there flags a window of its own, and the solve
    finds all three levels. A guard that left out every window beside any
    factor's sign change found 1."""
    i = np.searchsorted(_PAIR_GRID, 0.5)
    assert _PAIR_GRID[i - 1] < 0.5 < 0.50021 < _PAIR_GRID[i]
    with warnings.catch_warnings():
        warnings.simplefilter("error", LevelShortfallWarning)
        recs = find_roots(_factor_and_pair(0.5, 0.5002, 1e-5), 1.0, 3, _PAIR_CFG)
    assert [r.factor for r in recs] == [1, 1, 0]
    assert [r.t for r in recs] == pytest.approx([0.50021, 0.50019, 0.5], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    root=st.floats(0.35, 0.75),
    offset=st.floats(-1.0, 1.0),
    gap=st.floats(1e-4, 0.999),
)
def test_guard_finds_every_pair_beside_another_factors_root(root, offset, gap):
    """A pair of factor 1 centred within one master grid interval h of
    factor 0's root, and gap h apart, gap < 1, is found with that root:
    every one of the three levels, each to 1e-12 relative."""
    i = np.searchsorted(_PAIR_GRID, root)
    h = _PAIR_GRID[i] - _PAIR_GRID[i - 1]
    centre, half = root + offset * h, 0.5 * gap * h
    with warnings.catch_warnings():
        warnings.simplefilter("error", LevelShortfallWarning)
        recs = find_roots(_factor_and_pair(root, centre, half), 1.0, 3, _PAIR_CFG)
    assert sorted((r.factor, r.t) for r in recs) == [
        (0, pytest.approx(root, rel=1e-12)),
        (1, pytest.approx(centre - half, rel=1e-12)),
        (1, pytest.approx(centre + half, rel=1e-12)),
    ]


@pytest.mark.parametrize(
    "M,Z,least_calls",
    [(1, 17.9012345, 4), (8, 61.7971, 3), (1, 1.0, 2)],
    ids=["M1-above-EP", "M8-count-two-pair", "M1-Z1"],
)
def test_first_estimates_run_once_per_solve(monkeypatch, M, Z, least_calls):
    """The refinement passes re-run only the window scan: the brackets and
    their first estimates are built once, on the final grid, however many
    passes the solve takes (at least least_calls - 2)."""
    runs = []

    def spy(*args):
        runs.append(args)
        return ptring.estimate.first_estimates(*args)

    monkeypatch.setattr(ptring.roots, "first_estimates", spy)
    g, sizes = _counted(_f_monodromy(Z, M))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LevelShortfallWarning)
        find_roots(g, Z, 18)
    assert len(sizes) >= least_calls
    assert len(runs) == 1


def test_windows_hold_their_vertex():
    """Every extremum window (lo, vertex, hi) of the solve just below the
    M = 1 exceptional point, on the master grid and on each refinement
    pass, holds its vertex."""
    Z = 17.9012344
    _, scans = _closer_call(_f_monodromy(Z), Z, 18)
    W = np.concatenate([windows for _, windows, _ in scans], axis=1)
    assert W.shape[0] == 3 and W.shape[1] > 0
    assert ((W[0] <= W[1]) & (W[1] <= W[2])).all()


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


@pytest.mark.parametrize(
    "M,Z_c",
    [
        # the twisted closure's first two, and three of the M = 1 closure
        ("explicit", 2.9247978864107296),
        ("explicit", 5.260797355826909),
        (1, 5.542309700412016),
        (1, 17.901234408773018),
        (1, 33.54495059060428),
    ],
)
def test_rounding_noise_at_an_exceptional_point_is_an_error(M, Z_c):
    """Within 8 ulps of an exceptional point Z_c the refinement passes
    sample the rounding noise of the factor that holds the meeting pair; a
    solve of 18 levels returns no more levels than at Z_c - 8 ulps, or is
    one ValueError naming Z, never one level per noise flip."""
    Zs = [Z_c + k * math.ulp(Z_c) for k in range(-8, 9)]
    counts, errors = [], 0
    for Z in Zs:
        f = _f_explicit(Z) if M == "explicit" else _f_monodromy(Z, M)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LevelShortfallWarning)
                counts.append(level_count(find_roots(f, Z, 18)))
        except ValueError as e:
            assert str(e).startswith(
                f"at Z={Z!r} a pair lies within rounding noise of an exceptional point"
            )
            errors += 1
    assert max(counts) == counts[0]
    assert errors < len(Zs)


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
