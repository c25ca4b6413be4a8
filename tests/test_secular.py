"""Both secular backends against frozen reference roots, exact identities
and the two independent oracles: the eight-by-eight matching matrix (by LU)
for the twisted closure and the propagator product (product_oracle.py) for
the periodic one.

Reference t values were computed independently at 40-digit precision with a
multiprecision propagator and det evaluation, then frozen here; tests assert
sign changes across tight brackets around them rather than re-deriving.
"""

import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from product_oracle import (
    CirclePotential,
    SecularRealityError,
    _product_closure,
    kappa,
    layout,
    monodromy,
    rotate_segments,
    secular_product,
    segment_propagator,
)

from ptring import (
    LogScaledValue,
    SecularOverflowError,
    SpectralPoint,
    build_square_well,
    find_roots,
    roots,
    secular_explicit,
    secular_monodromy,
)
from ptring.secular import FREE_LIMIT_Z

# 22-digit roots of the eight-by-eight determinant at Z = 1, ascending E
EXPLICIT_ROOTS_Z1 = [
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
EXPLICIT_ROOTS_Z01 = [0.2219819562431546437372, 0.03467067057228565555074]
# roots of the strictly periodic (transfer-matrix) secular function
MONODROMY_GROUND_Z1 = 0.6780547977525431307031
MONODROMY_GROUND_Z01 = 0.2226769781898852005535
# PT-symmetric but not alternating, so only the propagator product
# evaluates it; its unit-width propagators overflow from t = 710.x
NON_ALTERNATING = CirclePotential(
    circumference=4.0,
    start=-2.0,
    segments=((1.0, 1j), (1.0, 1j), (1.0, -1j), (1.0, -1j)),
)


def _sign_flips(f, t0, rel=1e-6):
    lo, hi = f(t0 * (1 - rel)), f(t0 * (1 + rel))
    return lo.sign * hi.sign < 0


# --- SpectralPoint ---------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    z=st.floats(min_value=1e-6, max_value=100.0),
    t=st.floats(min_value=1e-6, max_value=100.0),
)
def test_spectral_point_identities(z, t):
    p = SpectralPoint.from_zt(z, t)
    assert abs(2.0 * p.s * p.t - z) <= 1e-14 * z
    k2 = kappa(p) * kappa(p)
    assert abs(k2 - complex(p.E, -z)) <= 1e-13 * abs(k2)


def test_spectral_point_is_a_frozen_record():
    p = SpectralPoint.from_zt(1.0, 0.5)
    assert repr(p) == "SpectralPoint(Z=1.0, t=0.5, s=1.0, E=0.75)"
    assert p == SpectralPoint(Z=1.0, t=0.5, s=1.0, E=0.75)
    with pytest.raises(AttributeError):
        p.E = 0.0


@pytest.mark.parametrize("z,t", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_spectral_point_domain(z, t):
    with pytest.raises(ValueError):
        SpectralPoint.from_zt(z, t)


@pytest.mark.parametrize("t", [1e155, 1e-320])
def test_spectral_point_overflow_scalar(t):
    """E = s^2 - t^2 leaves the double range: above t = 1.3e154, and where
    s = Z/(2t) overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SecularOverflowError) as ei:
            SpectralPoint.from_zt(1.0, t)
    assert (ei.value.Z, ei.value.t) == (1.0, t)


def test_spectral_point_positivity_first():
    """A t <= 0 anywhere in the array is named before an energy that leaves
    the double range at an earlier t."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"t must be positive, got 0\.0$"):
            SpectralPoint.from_zt(1.0, np.array([1e-320, 0.0, 2.0]))


def test_spectral_point_overflow_array():
    ts = np.array([1.0, 1e100, 1e-320, 1e155, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SecularOverflowError) as ei:
            SpectralPoint.from_zt(1.0, ts)
        assert ei.value.t == 1e-320
        assert np.isfinite(SpectralPoint.from_zt(1.0, ts[:2]).E).all()


# --- LogScaledValue --------------------------------------------------------


def test_log_scaled_value_roundtrip():
    v = LogScaledValue.from_float(-123.456)
    assert v.sign == -1
    assert math.exp(v.logmag) == pytest.approx(123.456, rel=1e-15)
    z = LogScaledValue.from_float(0.0)
    assert z.sign == 0 and z.logmag == -math.inf
    assert type(v.sign) is int and type(v.logmag) is float
    assert v.factors == ((-123.456, 1),)


def test_log_scaled_value_from_float_array():
    x = np.array([2.0, 0.0, -3.0])
    v = LogScaledValue.from_float(x)
    assert v.sign.tolist() == [1, 0, -1]
    assert v.logmag.tolist() == [math.log(2.0), -math.inf, math.log(3.0)]
    # the one factor is x itself, a copy the caller cannot change
    ((y, count),) = v.factors
    x[0] = 5.0
    assert (y.tolist(), count) == ([2.0, 0.0, -3.0], 1)


def test_log_scaled_value_validation():
    """The constructor checks at once; a deferred value checks on its first
    read, after one call of its value function."""
    with pytest.raises(ValueError):
        LogScaledValue(2, 0.0)
    with pytest.raises(ValueError):
        LogScaledValue(0, 1.0)
    calls = []

    def value(pair):
        return lambda: calls.append(pair) or pair

    bad = LogScaledValue.deferred(value((0, 1.0)))
    with pytest.raises(ValueError):
        bad.logmag
    good = LogScaledValue.deferred(value((-1, 2.0)))
    assert (good.sign, good.logmag, good.sign) == (-1, 2.0, -1)
    assert calls == [(0, 1.0), (-1, 2.0)]


# --- propagator and monodromy ---------------------------------------------


def test_propagator_short_segment_is_near_identity():
    P = segment_propagator(1e-12, 1.0 + 0j)
    assert abs(P.a - 1) < 1e-11 and abs(P.d - 1) < 1e-11
    assert abs(P.b - 1e-12) < 1e-23 and abs(P.c) < 1e-11


def test_propagator_half_wave():
    P = segment_propagator(1.0, complex(math.pi))
    # cos(pi) = -1, sin(pi) ~ 0: half a wavelength flips the state
    assert abs(P.a + 1) < 1e-12 and abs(P.d + 1) < 1e-12
    assert abs(P.b) < 1e-12 and abs(P.c) < 1e-12


def test_propagator_unit_determinant():
    P = segment_propagator(0.7, 1.3 - 0.4j)
    assert abs(P.det_true() - 1) < 1e-12


def test_propagator_tiny_kappa_limit():
    P = segment_propagator(0.3, 1e-200 + 0j)
    assert (P.a, P.b, P.c, P.d) == (1.0, 0.3, 0.0, 1.0)


def test_propagator_rejects_bad_width():
    with pytest.raises(ValueError):
        segment_propagator(0.0, 1.0 + 0j)


def test_unit_det_secular_identity():
    """det(T - 1) = 2 - tr(T) for any unit-determinant 2x2 matrix."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m /= np.sqrt(np.linalg.det(m))
        lhs = np.linalg.det(m - np.eye(2))
        rhs = 2.0 - np.trace(m)
        assert abs(lhs - rhs) < 1e-10


def test_monodromy_unit_determinant():
    pot = layout(build_square_well(3, 1.0))
    T = monodromy(pot, SpectralPoint.from_zt(1.0, 0.2))
    assert abs(T.det_true() - 1) < 1e-12
    # at small logscale the entry-based extraction agrees with the
    # factor-accumulated value
    stored = T.a * T.d - T.b * T.c
    assert abs(stored * math.exp(2.0 * T.logscale) - T.det_true()) < 1e-10


def test_monodromy_det_stable_at_large_logscale():
    # deep in the hyperbolic regime the entries span e^(2 logscale) ~ 1e7;
    # the factor-accumulated determinant must not inherit that cancellation
    pot = layout(build_square_well(1, 10.0))
    T = monodromy(pot, SpectralPoint.from_zt(10.0, 2.0))
    assert T.logscale > 5.0
    assert abs(T.det_true() - 1) < 1e-12


def test_monodromy_free_limit_trace():
    # at vanishing coupling the circle is free: tr = 2 cos(4 sqrt(E))
    pot = layout(build_square_well(1, 1e-12))
    p = SpectralPoint.from_zt(1e-12, 5e-13)
    T = monodromy(pot, p)
    tr = T.trace() * math.exp(T.logscale)
    assert abs(tr - 2.0 * math.cos(4.0)) < 1e-9


def test_monodromy_trace_cyclicity():
    pot = layout(build_square_well(2, 1.0))
    p = SpectralPoint.from_zt(1.0, 0.37)
    t0 = monodromy(pot, p)
    tr0 = t0.trace() * math.exp(t0.logscale)
    for k in (1, 3, 6):
        tk = monodromy(rotate_segments(pot, k), p)
        trk = tk.trace() * math.exp(tk.logscale)
        assert abs(trk - tr0) <= 1e-10 * abs(tr0)


def test_monodromy_rejects_mismatched_coupling():
    pot = layout(build_square_well(1, 2.0))
    with pytest.raises(ValueError):
        monodromy(pot, SpectralPoint.from_zt(1.0, 0.5))


def test_square_well_rejects_another_coupling():
    """A square well takes the closed form at its own coupling, to 1e-12
    relative; called at another Z it is a ValueError naming both."""
    well = build_square_well(3, 1.0)
    assert [c for _, c in secular_monodromy(well, 1.0, 0.3).factors] == [1, 1, 2]
    near = secular_monodromy(well, 1.0 + 1e-13, 0.3)
    assert [c for _, c in near.factors] == [1, 1, 2]
    with pytest.raises(ValueError, match=r"coupling 1\.0 called at Z=2\.0"):
        secular_monodromy(well, 2.0, 0.3)
    with pytest.raises(ValueError, match=r"coupling 1\.0 called at Z=1\.000000000001"):
        secular_monodromy(well, 1.000000000001, 0.3)


# --- reality assertion -----------------------------------------------------


@pytest.mark.parametrize("M", [1, 2, 4, 6])
@pytest.mark.parametrize("Z", [0.1, 1.0, 10.0])
def test_reality_never_fires_on_family(M, Z):
    """On the propagator product of the square wells."""
    pot = layout(build_square_well(M, Z))
    _product_closure(pot, SpectralPoint.from_zt(Z, np.linspace(0.02, 2.0, 100)))


def test_reality_fires_on_pt_broken_layouts():
    asym = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((0.5, 1j), (1.5, -1j), (1.0, 1j), (1.0, -1j)),
    )
    with pytest.raises(SecularRealityError) as ei:
        secular_product(asym, 1.0, 0.4)
    assert ei.value.t == 0.4 and ei.value.Z == 1.0


def test_reality_accepts_pt_symmetric_non_alternating():
    v = secular_product(NON_ALTERNATING, 1.0, 0.4)
    assert v.sign in (-1, 1)


@settings(max_examples=30, deadline=None)
@given(
    z=st.floats(min_value=0.05, max_value=4.0),
    m=st.integers(min_value=1, max_value=4),
    ts=st.lists(
        st.floats(min_value=0.025, max_value=5.0), min_size=1, max_size=300
    ).map(sorted),
)
def test_array_call_equals_pointwise_calls(z, m, ts):
    """One array call gives each point's own value: every point is rescaled
    and checked by itself, never against the rest of the batch. The factors
    are read first, as root finding reads them; the sign and log-magnitude,
    computed on their later first read, match as well."""
    pot = build_square_well(m, z)
    ts = np.array(ts)
    for f in (
        lambda t: secular_explicit(z, t),
        lambda t: secular_monodromy(pot, z, t),
    ):
        batch = f(ts)
        single = [f(float(t)) for t in ts]
        # every factor and its count, bit for bit
        for j, (y, count) in enumerate(batch.factors):
            assert [v.factors[j][1] for v in single] == [count] * len(ts)
            assert y.tolist() == [v.factors[j][0] for v in single]
        assert {len(v.factors) for v in single} == {len(batch.factors)}
        assert batch.sign.tolist() == [v.sign for v in single]
        np.testing.assert_allclose(
            batch.logmag, [v.logmag for v in single], rtol=0, atol=1e-12
        )


def _same_value(u, v):
    """Whether two secular values agree bit for bit: sign, log-magnitude
    and every factor with its count."""
    same = np.array_equal(u.sign, v.sign) and np.array_equal(u.logmag, v.logmag)
    return same and len(u.factors) == len(v.factors) and all(
        np.array_equal(y, z) and c == d for (y, c), (z, d) in zip(u.factors, v.factors)
    )


@pytest.mark.parametrize("M", [None, 1, 8])
def test_deferred_value_ignores_later_changes_to_t(M):
    """A closure's sign and logmag, computed on their first read, are those
    of t at the call, however the caller changes its array before that read:
    the twisted closure (M None) and the periodic one at M = 1 and 8."""
    t = np.array([0.3, 0.4])
    if M is None:
        value, fresh = (secular_explicit(1.0, x) for x in (t, t.copy()))
    else:
        well = build_square_well(M, 1.0)
        value, fresh = (secular_monodromy(well, 1.0, x) for x in (t, t.copy()))
    t[:] = [0.7, 0.9]
    assert value.sign.tolist() == fresh.sign.tolist()
    assert value.logmag.tolist() == fresh.logmag.tolist()


@pytest.mark.parametrize("backend", ["explicit", "monodromy"])
def test_secular_entry_takes_t_as_before(backend):
    """Both closures take t as a float or a 1-D array of any real dtype: a
    list or an int array gives the float array's value, a 0-d value the
    float's, and an empty array an empty value. Finite energies whose sum
    overflows are no error."""
    f = _closure(backend)
    ts = np.array([0.3, 0.5, 1.0, 2.0])
    assert _same_value(f(ts.tolist()), f(ts))
    assert _same_value(f(np.array([1, 2])), f(np.array([1.0, 2.0])))
    for t in (np.array(0.5), np.float64(0.5)):
        v = f(t)
        assert type(v.sign) is int and type(v.logmag) is float
        assert _same_value(v, f(0.5))
    empty = f(np.array([]))
    assert empty.sign.shape == empty.logmag.shape == (0,)
    assert all(y.shape == (0,) for y, _ in empty.factors)
    # E = s^2 - t^2 is about 1.6e308 at each point, 3.1e308 for the two
    tiny = np.array([4e-155, 4e-155])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        both, one = f(tiny), f(float(tiny[0]))
        assert [y.tolist() for y, _ in both.factors] == [[y, y] for y, _ in one.factors]
        assert both.sign.tolist() == [one.sign] * 2


@pytest.mark.parametrize("backend", ["explicit", "monodromy"])
@pytest.mark.parametrize(
    "t,error",
    [
        (np.ones((2, 2)), r"t must be a float or a 1-D array, got shape \(2, 2\)$"),
        (np.array([0.5, -1.0, 0.0]), r"t must be positive, got -1\.0$"),
        (np.array([0.5, np.nan, -1.0]), r"t must be positive, got nan$"),
        ([0.5, 0.0], r"t must be positive, got 0\.0$"),
        (np.array([1.0, 1e155, -1.0]), r"t must be positive, got -1\.0$"),
    ],
)
def test_secular_entry_names_the_first_bad_t(backend, t, error):
    """A 2-D t, and a t <= 0 or NaN anywhere, are refused with the same
    texts as ever, naming the first bad t; a bad t is named before an
    energy that leaves the double range at an earlier one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=error):
            _closure(backend)(t)


def test_scalar_call_returns_python_scalars():
    pot = build_square_well(2, 1.0)
    for v in (secular_explicit(1.0, 0.3), secular_monodromy(pot, 1.0, 0.3)):
        assert type(v.sign) is int and type(v.logmag) is float


def _closure(backend, M=1):
    """The square-well closures by backend name, and "product" for the
    propagator product on NON_ALTERNATING, all at Z = 1."""
    pot = build_square_well(M, 1.0)
    return {
        "explicit": lambda t: secular_explicit(1.0, t),
        "monodromy": lambda t: secular_monodromy(pot, 1.0, t),
        "product": lambda t: secular_product(NON_ALTERNATING, 1.0, t),
    }[backend]


@pytest.mark.parametrize(
    "backend,first_bad",
    # the closed forms fail only where E = s^2 - t^2 leaves the double range
    [("product", 800.0), ("explicit", 1e155), ("monodromy", 1e155)],
)
def test_overflow_raises_at_first_failing_t(backend, first_bad):
    """Overflow is an error naming the first failing t, never a NaN value
    or a numpy warning."""
    f = _closure(backend)
    ts = np.array([1.0, 300.0, 360.0, 700.0, 800.0, 1000.0, 1e155, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ok = f(ts[ts < first_bad])
        assert not np.isnan(ok.logmag).any()
        with pytest.raises(SecularOverflowError) as ei:
            f(ts)
        assert ei.value.t == first_bad
        with pytest.raises(OverflowError):
            f(1e200)


@pytest.mark.parametrize("backend,M", [("explicit", 1), ("monodromy", 1), ("monodromy", 32)])
def test_square_well_closures_finite_to_t_1000(backend, M):
    """The closed forms stay finite, nonzero and warning-free past t = 710,
    where the propagators overflow; the LU of the matching matrix returned
    exact zeros at most t above 18.8 (778 of 991 points on [1, 100])."""
    ts = np.r_[np.linspace(1.0, 100.0, 991), np.linspace(100.0, 1000.0, 901)[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = _closure(backend, M)(ts)
    assert np.isfinite(v.logmag).all()
    assert (v.sign != 0).all()


def test_reality_tolerance_env_override(monkeypatch):
    asym = CirclePotential(
        circumference=4.0,
        start=-2.0,
        segments=((0.5, 1j), (1.5, -1j), (1.0, 1j), (1.0, -1j)),
    )
    # measured |Im|/(1+|Re|) is about 0.21 at this point; a huge tolerance
    # lets the value through
    monkeypatch.setenv("PT_CIRCLE_TOL", "10.0")
    secular_product(asym, 1.0, 0.4)
    monkeypatch.setenv("PT_CIRCLE_TOL", "not-a-number")
    with pytest.raises(ValueError):
        secular_product(asym, 1.0, 0.4)


@pytest.mark.parametrize("layout", ["non-alternating", "asymmetric"])
def test_product_factor_has_the_value_sign(monkeypatch, layout):
    """The propagator product's one factor, count 1, has the sign of its
    value at every point, zeros included, so it has the value's roots: on
    a PT-symmetric layout, and on an asymmetric one let through by
    PT_CIRCLE_TOL."""
    pot = NON_ALTERNATING
    if layout == "asymmetric":
        pot = CirclePotential(
            circumference=4.0,
            start=-2.0,
            segments=((0.5, 1j), (1.5, -1j), (1.0, 1j), (1.0, -1j)),
        )
        monkeypatch.setenv("PT_CIRCLE_TOL", "10.0")
    ts = np.geomspace(0.02, 5.0, 2000)
    v = secular_product(pot, 1.0, ts)
    ((y, count),) = v.factors
    assert count == 1
    assert (np.sign(y) == v.sign).all()
    assert (np.diff(v.sign) != 0).any()
    for t in ts[::100]:
        w = secular_product(pot, 1.0, float(t))
        assert w.factors[0][1] == 1 and np.sign(w.factors[0][0]) == w.sign


# --- oracles -----------------------------------------------------------------


def build_Q(Z: float, t) -> np.ndarray:
    """The eight-by-eight matching matrix of the four-segment (M=1) system.

    Columns order the ansatz coefficients (A, B) per segment from -2:
    far-left, near-left, near-right, far-right; psi = A sin(kappa x)
    + B cos(kappa x) with the global coordinate x. Rows 1-2 match at x=-1,
    rows 3-4 at x=0, rows 5-6 at x=+1, rows 7-8 close the circle at x=+-2.
    Only the listed entries are nonzero; conjugate-paired positions hold
    conjugate values with the signs encoded below. For an array of t the
    result is the stack of shape t.shape + (8, 8).
    """
    k = kappa(SpectralPoint.from_zt(Z, t))
    kc = np.conj(k)
    sk, ck = np.sin(k), np.cos(k)
    s2k, c2k = np.sin(2 * k), np.cos(2 * k)
    skc, ckc = np.conj(sk), np.conj(ck)
    s2kc, c2kc = np.conj(s2k), np.conj(c2k)

    Q = np.zeros(np.shape(k) + (8, 8), dtype=complex)
    # x = -1: psi and psi' continuity between far-left and near-left
    Q[..., 0, 0], Q[..., 0, 1], Q[..., 0, 2], Q[..., 0, 3] = -sk, ck, skc, -ckc
    Q[..., 1, 0], Q[..., 1, 1] = k * ck, k * sk
    Q[..., 1, 2], Q[..., 1, 3] = -kc * ckc, -kc * skc
    # x = 0: the inner-boundary rows; note the cos(kappa) weights, which make
    # the system quasi-periodic rather than strictly periodic (see README)
    Q[..., 2, 3], Q[..., 2, 5] = ckc, -ck
    Q[..., 3, 2], Q[..., 3, 4] = kc * ckc, -k * ck
    # x = +1: near-right to far-right
    Q[..., 4, 4], Q[..., 4, 5], Q[..., 4, 6], Q[..., 4, 7] = sk, ck, -skc, -ckc
    Q[..., 5, 4], Q[..., 5, 5] = k * ck, -k * sk
    Q[..., 5, 6], Q[..., 5, 7] = -kc * ckc, kc * skc
    # x = +-2: circular closure between far-right and far-left
    Q[..., 6, 0], Q[..., 6, 1], Q[..., 6, 6], Q[..., 6, 7] = -s2k, c2k, -s2kc, -c2kc
    Q[..., 7, 0], Q[..., 7, 1] = k * c2k, k * s2k
    Q[..., 7, 6], Q[..., 7, 7] = -kc * c2kc, kc * s2kc
    return Q


# Conjugation pairing of the nonzero Q positions: each tuple is
# (row, col, row', col', sign) asserting Q[row, col] == sign * conj(Q[row', col']).
Q_CONJUGATE_PAIRS: tuple[tuple[int, int, int, int, int], ...] = (
    (0, 0, 0, 2, -1), (0, 1, 0, 3, -1),
    (1, 0, 1, 2, -1), (1, 1, 1, 3, -1),
    (2, 3, 2, 5, -1), (3, 2, 3, 4, -1),
    (4, 4, 4, 6, -1), (4, 5, 4, 7, -1),
    (5, 4, 5, 6, -1), (5, 5, 5, 7, -1),
    (6, 0, 6, 6, 1), (6, 1, 6, 7, -1),
    (7, 0, 7, 6, -1), (7, 1, 7, 7, 1),
    # cross-row ties between the two half-circle matchings
    (0, 0, 4, 6, 1), (0, 1, 4, 7, -1),
    (1, 0, 5, 6, -1), (1, 1, 5, 7, 1),
)


@pytest.mark.parametrize("Z", [0.1, 1.0, 4.0, 10.0])
def test_explicit_equals_matching_determinant(Z):
    """secular_explicit is det Q times 8 |kappa|^6, here by partial-pivot
    LU (numpy slogdet) on t in [0.03, 5], below where the LU starts to
    cancel pivots to zero."""
    ts = np.geomspace(0.03, 5.0, 400)
    phase, logdet = np.linalg.slogdet(build_Q(Z, ts))
    p = SpectralPoint.from_zt(Z, ts)
    v = secular_explicit(Z, ts)
    assert v.sign.tolist() == np.sign(phase.real).astype(int).tolist()
    want = logdet + math.log(8.0) + 3.0 * np.log(p.s**2 + p.t**2)
    np.testing.assert_allclose(v.logmag, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("M", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("Z", [0.1, 1.0, 10.0])
def test_periodic_closure_equals_propagator_product(M, Z):
    """The Chebyshev closed form of a square well against 2 - tr T from the
    product of its 4M propagators, for its layout and a rotation of it.

    Signs agree where |g| > e^-20. Values agree to 1e-9 relative plus the
    product's rounding floor: about 2 eps e^L per segment was measured
    (L its logscale), and the floor allows 16, which leaves the log-magnitude
    within 1e-9 wherever |g| exceeds 1e-6 e^L."""
    well = build_square_well(M, Z)
    ts = np.geomspace(0.02, 5.0, 1000)
    v = secular_monodromy(well, Z, ts)
    floor = 64 * M * np.finfo(float).eps
    pot = layout(well)
    for segments in (pot, rotate_segments(pot, 1)):
        T = monodromy(segments, SpectralPoint.from_zt(Z, ts))
        g = (2.0 * np.exp(-T.logscale) - T.trace()).real  # g e^-L
        big = np.log(np.abs(g)) + T.logscale > -20.0
        assert (v.sign[big] == np.sign(g[big])).all()
        diff = np.abs(v.sign * np.exp(v.logmag - T.logscale) - g)
        assert (diff <= 1e-9 * np.abs(g) + floor).all()


@pytest.mark.parametrize("M", [2, 3, 8, 32])
@pytest.mark.parametrize("Z", [0.1, 1.0, 10.0])
def test_double_factor_is_chebyshev_u(M, Z):
    """The one count-2 factor is u = U_(M-1)(tau/2) itself, tau the cell
    trace: it equals mpmath's chebyu at 30 digits to 1e-11 relative, in the
    band and above it. A square well at M = 1 and the explicit closure carry
    no count-2 factor above FREE_LIMIT_Z."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    ts = np.geomspace(0.01, 20.0, 120)
    factors = secular_monodromy(build_square_well(M, Z), Z, ts).factors
    (u,) = [y for y, count in factors if count == 2]
    assert (np.diff(np.sign(u)) != 0).any()  # roots of u lie in the window
    for t, y in zip(ts, u):
        s, t = Z / (2 * mp.mpf(t)), mp.mpf(t)
        k2, h = s * s + t * t, mp.mpf(1) / M
        tau = (
            2 * mp.cos(s * h) ** 2
            - 2 * (s * s - t * t) / k2 * mp.sin(s * h) ** 2
            + 4 * t * t / k2 * mp.sinh(t * h) ** 2
        )
        assert y == pytest.approx(float(mp.chebyu(M - 1, tau / 2)), rel=1e-11, abs=0)
    m1 = secular_monodromy(build_square_well(1, Z), Z, ts)
    for v in (m1, secular_explicit(Z, ts)):
        assert [count for _, count in v.factors] == [1] * len(v.factors)


@settings(max_examples=100, deadline=None)
@given(
    z=st.floats(min_value=-6.0, max_value=2.0).map(lambda e: 10.0**e),
    m=st.integers(min_value=1, max_value=32),
    ts=st.lists(
        st.floats(min_value=1e-3, max_value=20.0), min_size=1, max_size=200
    ),
)
def test_factor_signs_give_value_sign(z, m, ts):
    """The value is read off its factors: its sign is the product of the
    factor signs, each to the power of its count, and its logmag the log of
    a positive envelope plus the sum of count log|f|, within rounding,
    wherever the value is nonzero. On the periodic closure the envelope is
    (2 + tau) e^(2t/M), tau the cell trace, and the k c factor carried at
    Z <= FREE_LIMIT_Z stays out of the product; the twisted closure's value
    is -(a - b1)(a + b1)(a - b2)(a + b2) times 8 |kappa|^10 |cos kappa|^2
    e^(4t)."""
    ts = np.array(ts)
    p = SpectralPoint.from_zt(z, ts)
    s, t, h = p.s, p.t, 1.0 / m
    mod_sq = s * s + t * t
    # 2 + tau as a sum of squares (tau of _cell_trace)
    plus = 4.0 * np.cos(s * h) ** 2 + 4.0 * t * t * (
        np.sin(s * h) ** 2 + np.sinh(t * h) ** 2
    ) / mod_sq
    v = secular_monodromy(build_square_well(m, z), z, ts)
    cases = [(v, v.factors[: len(v.factors) - (z <= FREE_LIMIT_Z)], 1,
              np.log(plus) + 2.0 * t * h)]
    if m == 1:
        w = secular_explicit(z, ts)
        envelope = math.log(8.0) + 5.0 * np.log(mod_sq) + 4.0 * t
        envelope += np.log(np.cos(s) ** 2 + np.sinh(t) ** 2)
        cases.append((w, w.factors, -1, envelope))
    for v, factors, closure_sign, logmag in cases:
        product = np.ones(ts.size)
        for y, count in factors:
            product *= np.sign(y) ** count
            with np.errstate(divide="ignore"):  # an exact root: -inf
                logmag = logmag + count * np.log(np.abs(y))
        nonzero = v.sign != 0
        assert (closure_sign * product[nonzero] == v.sign[nonzero]).all()
        np.testing.assert_allclose(
            v.logmag[nonzero], logmag[nonzero], rtol=1e-12, atol=1e-12
        )


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(min_value=-6.0, max_value=1.6).map(lambda e: 10.0**e),
    t=st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0**e),
)
def test_explicit_analytic_form(z, t):
    """The twisted closure's analytic form is -|c|^2 e^(-2t) times the
    product of its four factors, c = cos(kappa): that is
    (4 (Re c)^2 - |c|^2 tau^2) e^(-6t), tau the cell trace, which mpmath
    gives at 30 digits, at the s = Z/(2t) the closure computes. It agrees to
    1e-14 of (4 (Re c)^2 + |c|^2 tau^2) e^(-6t), the size of its terms, and
    carries the value's sign. The periodic closure and from_float carry
    none."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    v = secular_explicit(z, t)
    s, t_ = mp.mpf(z / (2.0 * t)), mp.mpf(t)
    k2 = s * s + t_ * t_
    tau = (
        2 * mp.cos(s) ** 2
        - 2 * (s * s - t_ * t_) / k2 * mp.sin(s) ** 2
        + 4 * t_ * t_ / k2 * mp.sinh(t_) ** 2
    )
    c = mp.cos(mp.mpc(s, -t_))
    terms = 4 * mp.re(c) ** 2, abs(c) ** 2 * tau**2
    decay = mp.exp(-6 * t_)
    exact = float((terms[0] - terms[1]) * decay)
    assert abs(v.analytic - exact) <= 1e-14 * float((terms[0] + terms[1]) * decay)
    if v.analytic != 0.0:
        assert np.sign(v.analytic) == v.sign
    assert secular_monodromy(build_square_well(1, z), z, t).analytic is None
    assert LogScaledValue.from_float(t).analytic is None


def test_q_matrix_shape_and_sparsity():
    Q = build_Q(1.0, 0.5)
    assert Q.shape == (8, 8)
    # the closure rows touch only the outermost coefficient pairs
    assert np.count_nonzero(Q[7]) == 4
    assert np.count_nonzero(Q[2]) == 2
    assert np.count_nonzero(Q[3]) == 2


def test_q_matrix_stack_matches_single_builds():
    ts = np.array([0.05, 0.3, 2.0])
    Q = build_Q(1.0, ts)
    assert Q.shape == (3, 8, 8)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(Q[i], build_Q(1.0, float(t)), rtol=1e-15)


def test_q_matrix_corner_entry():
    # kappa = s - i t with s = Z/(2t) = 1, so Q[0,0] = -sin(1 - 0.5i)
    Q = build_Q(1.0, 0.5)
    assert Q[0, 0] == pytest.approx(-cmath.sin(1 - 0.5j), rel=1e-15)


def test_q_conjugate_pairing():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = float(rng.uniform(0.05, 5.0))
        t = float(rng.uniform(0.01, 2.0))
        Q = build_Q(z, t)
        for r, c, r2, c2, sign in Q_CONJUGATE_PAIRS:
            assert Q[r, c] == pytest.approx(sign * np.conj(Q[r2, c2]), rel=1e-14)


def test_explicit_sign_flip_at_ground():
    assert _sign_flips(lambda t: secular_explicit(1.0, t), EXPLICIT_ROOTS_Z1[0])


@pytest.mark.parametrize("t0", EXPLICIT_ROOTS_Z1)
def test_explicit_frozen_roots_z1(t0):
    assert _sign_flips(lambda t: secular_explicit(1.0, t), t0, rel=1e-8)


def test_explicit_roots_are_the_ring_at_phase_two_arg_cos_kappa():
    """The twisted closure is the M = 1 ring under the Bloch condition
    psi(x + 4) = e^(i theta) psi(x) at the energy-dependent phase
    theta(E) = 2 arg cos kappa(E): every frozen explicit root at Z = 1 is a
    sign change of Re tr T - 2 cos theta within 1e-12 relative, T the
    propagator product of the well. So the explicit and periodic (theta = 0)
    closures are different eigenproblems, which is why criterion 7 fails."""
    pot = layout(build_square_well(1, 1.0))
    for t0 in EXPLICIT_ROOTS_Z1:
        p = SpectralPoint.from_zt(1.0, np.array([t0 * (1 - 1e-12), t0 * (1 + 1e-12)]))
        T = monodromy(pot, p)
        theta = 2.0 * np.angle(np.cos(kappa(p)))
        f = (T.trace() * np.exp(T.logscale)).real - 2.0 * np.cos(theta)
        assert f[0] * f[1] < 0, t0


@pytest.mark.parametrize("t0", EXPLICIT_ROOTS_Z01)
def test_explicit_frozen_roots_z01(t0):
    assert _sign_flips(lambda t: secular_explicit(0.1, t), t0, rel=1e-8)


def test_monodromy_frozen_ground_roots():
    pot1 = build_square_well(1, 1.0)
    assert _sign_flips(lambda t: secular_monodromy(pot1, 1.0, t), MONODROMY_GROUND_Z1)
    pot01 = build_square_well(1, 0.1)
    assert _sign_flips(
        lambda t: secular_monodromy(pot01, 0.1, t), MONODROMY_GROUND_Z01
    )


def test_explicit_negative_beyond_ground():
    for t in np.linspace(0.66, 2.0, 60):
        assert secular_explicit(1.0, float(t)).sign == -1


def test_explicit_crest_envelope():
    """Near the anti-node points t = 1/(2 pi k) the normalized magnitude
    approaches cosh(t)^6 / (2 t^4)."""
    for k in (5, 10, 20, 40):
        t = 1.0 / (2.0 * math.pi * k)
        v = secular_explicit(1.0, t)
        crest = math.log(math.cosh(t) ** 6 / (2.0 * t**4))
        assert v.logmag == pytest.approx(crest, abs=2e-3)


def test_explicit_dynamic_range_at_root():
    """log|F| at a root sits many orders below the surrounding window."""
    t1 = EXPLICIT_ROOTS_Z1[1]
    at_root = secular_explicit(1.0, t1).logmag
    window_max = max(
        secular_explicit(1.0, float(t)).logmag for t in np.linspace(0.35, 0.45, 41)
    )
    assert window_max - at_root > 6.0 * math.log(10.0)


def test_explicit_requires_positive_inputs():
    with pytest.raises(ValueError):
        secular_explicit(1.0, 0.0)
    with pytest.raises(ValueError):
        secular_explicit(-1.0, 0.5)
    with pytest.raises(ValueError, match="-0.5"):
        secular_explicit(1.0, np.array([0.3, -0.5, 0.2]))


def _traced_peak(fn) -> int:
    """The tracemalloc peak of fn(), in bytes above what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_explicit_grid_call_holds_few_arrays_at_once(monkeypatch):
    """Root finding's call of the twisted closure on the master grid of a
    100-level solve at Z = 1 (5391 points) peaks at 13.2 arrays of the
    grid's length under tracemalloc, since each array is dropped after its
    last use, and the whole solve at 15.3, since it keeps only the grid's t;
    with every array held to the end of the call they were 25.2 and 28.2.
    The bounds are 15 and 17."""
    grids = []
    evaluate = roots._evaluate

    def spy(f, ts):
        grids.append(ts)
        return evaluate(f, ts)

    monkeypatch.setattr(roots, "_evaluate", spy)
    f = lambda t: secular_explicit(1.0, t)  # noqa: E731
    find_roots(f, 1.0, 100)
    monkeypatch.undo()
    ts = grids[0]
    assert ts.size == 5391
    assert _traced_peak(lambda: evaluate(f, ts)) <= 15 * ts.nbytes
    assert _traced_peak(lambda: find_roots(f, 1.0, 100)) <= 17 * ts.nbytes
