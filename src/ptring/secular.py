"""Secular functions whose real roots t_n determine the spectrum.

Two independent backends are provided:

- secular_monodromy: for any M, the ordered product T of segment propagators
  around the circle, with strictly periodic closure g(t) = 2 - tr(T)
  (a periodic eigenstate exists where the unit-determinant monodromy has
  eigenvalue 1, i.e. det(T - 1) = 2 - tr(T) = 0).

- secular_explicit: M=1 only, the determinant of an eight-by-eight matching
  system assembled from the per-segment sine/cosine ansatz. Its rows 3 and 4
  couple the two inner half-waves through an energy-dependent unimodular
  factor cos(kappa)/cos(kappa*), so this system is equivalent to a
  quasi-periodic closure and its root set is NOT the periodic one; it is the
  reference spectrum the regression suite pins. See README for the relation
  between the two backends.

Both backends substitute s = Z/(2t) and work at purely real energy
E = s^2 - t^2; values are returned in sign/log-magnitude form to survive the
huge dynamic range of the secular determinant.

Both take t as a float or a 1-D float array. A float is evaluated as a
one-point array and comes back as a scalar LogScaledValue; an array comes
back as a LogScaledValue of sign and log-magnitude arrays. Every point is
computed, rescaled and checked (finite, then real) on its own, so an array
call equals the element-by-element calls.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .potential import CirclePotential

DEFAULT_REALITY_RTOL = 1e-8
# Calibrated ceiling for LU determinant imaginary-part rounding noise, in
# units of eps * exp(Hadamard row bound). Measured maximum over the working
# (Z, t) domain is 0.29; 64 leaves two orders of margin.
_NOISE_FLOOR_C = 64.0

_TINY_KAPPA = 1e-150


class SecularRealityError(RuntimeError):
    """The secular value failed its reality assertion.

    Signals either a PT-asymmetric input potential or a numerical fault;
    carries the offending (Z, t) and the imaginary magnitude seen. For an
    array call, t is the first failing point.
    """

    def __init__(self, what: str, Z: float, t: float, im_mag: float):
        super().__init__(
            f"{what} not real at Z={Z!r}, t={t!r}: |Im| = {im_mag:.3e}"
        )
        self.Z = Z
        self.t = t
        self.im_mag = im_mag


class SecularOverflowError(OverflowError):
    """The secular value left the double range (sin/cos of kappa overflow
    once |Im(kappa * width)| passes about 710); carries the offending (Z, t).
    For an array call, t is the first failing point.
    """

    def __init__(self, what: str, Z: float, t: float):
        super().__init__(f"{what} overflowed at Z={Z!r}, t={t!r}")
        self.Z = Z
        self.t = t


def _check_finite(what: str, Z: float, ts: np.ndarray, finite: np.ndarray) -> None:
    """Raise SecularOverflowError at the first t whose point is not finite."""
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise SecularOverflowError(what, Z, float(ts[bad[0]]))


def reality_rtol() -> float:
    """Reality tolerance, overridable via the PT_CIRCLE_TOL environment variable."""
    raw = os.environ.get("PT_CIRCLE_TOL")
    if raw is None:
        return DEFAULT_REALITY_RTOL
    try:
        val = float(raw)
    except ValueError as e:
        raise ValueError(f"PT_CIRCLE_TOL must be a float, got {raw!r}") from e
    if not val > 0:
        raise ValueError(f"PT_CIRCLE_TOL must be positive, got {val!r}")
    return val


@dataclass(frozen=True)
class SpectralPoint:
    """The (t, s, kappa, E) bundle tied by 2st = Z and E = s^2 - t^2.

    kappa = s - i t is the wavenumber in +iZ segments (kappa^2 = E - iZ);
    its conjugate belongs to -iZ segments. The branch is fixed by s > 0,
    t > 0 by construction, never by a complex square root. t may be a float
    or a float array; s, kappa and E then have its shape.
    """

    Z: float
    t: float
    s: float
    kappa: complex
    E: float

    @classmethod
    def from_zt(cls, Z: float, t) -> "SpectralPoint":
        if not Z > 0:
            raise ValueError(f"Z must be positive, got {Z!r}")
        bad = np.flatnonzero(~(np.asarray(t) > 0))
        if bad.size:
            first = float(np.ravel(t)[bad[0]])
            raise ValueError(f"t must be positive, got {first!r}")
        s = Z / (2.0 * t)
        return cls(Z=Z, t=t, s=s, kappa=s - 1j * t, E=s * s - t * t)


@dataclass(frozen=True)
class LogScaledValue:
    """sign * e^(logmag) with sign in {-1, 0, +1}; logmag = -inf when sign = 0.

    logmag is exactly the L(t) = log|F(t)| quantity plotted by the scan
    command, so near-tangent zero crossings appear as deep dips. sign and
    logmag are both scalars or both arrays of one shape.
    """

    sign: int
    logmag: float

    def __post_init__(self) -> None:
        sign, logmag = np.asarray(self.sign), np.asarray(self.logmag)
        if not np.all((sign == -1) | (sign == 0) | (sign == 1)):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign!r}")
        if np.any((sign == 0) & (logmag != -np.inf)):
            raise ValueError("zero value must carry logmag = -inf")

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.logmag)
        except OverflowError:
            return self.sign * float("inf")

    @classmethod
    def from_float(cls, x) -> "LogScaledValue":
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):  # log(0) = -inf marks the zeros
            logmag = np.log(np.abs(xs))
        return _log_scaled(np.sign(xs).astype(int), logmag, np.ndim(x) == 0)


def _points(Z: float, t) -> tuple[SpectralPoint, bool]:
    """The spectral points of t as a 1-D array, and whether t was a scalar."""
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {ts.shape}")
    return SpectralPoint.from_zt(Z, ts), scalar


def _log_scaled(sign: np.ndarray, logmag: np.ndarray, scalar: bool) -> LogScaledValue:
    """The per-point value, unwrapped to Python scalars for a scalar call."""
    if scalar:
        return LogScaledValue(int(sign[0]), float(logmag[0]))
    return LogScaledValue(sign, logmag)


@dataclass(frozen=True)
class TransferMatrix2:
    """2x2 complex transfer matrix with an accumulated log scale factored out.

    The represented (true) matrix is e^(logscale) * [[a, b], [c, d]], so the
    stored determinant a d - b c equals e^(-2 logscale) times the true one.
    Wronskian conservation makes every true determinant here equal 1.

    det_factors carries the determinant accumulated factor by factor as
    products are built; extracting it from the final entries instead would
    lose up to e^(2 logscale) digits to cancellation. Callers constructing
    a matrix directly with a non-unit determinant must pass it explicitly.

    Every field may instead be an array of one shape: a batch of matrices,
    one per spectral point, each with its own logscale.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    logscale: float = 0.0
    det_factors: complex = 1.0 + 0j

    def trace(self) -> complex:
        return self.a + self.d

    def det_true(self) -> complex:
        return self.det_factors


def segment_propagator(width: float, kappa) -> TransferMatrix2:
    """Map (psi, psi') across one constant-kappa segment of the given width.

    [[cos(kd), sin(kd)/k], [-k sin(kd), cos(kd)]]; unit determinant by the
    sine/cosine Wronskian. For |kappa| below 1e-150 the analytic kappa -> 0
    limit [[1, d], [0, 1]] is used. kappa may be a complex array.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width!r}")
    tiny = np.abs(kappa) < _TINY_KAPPA
    k = np.where(tiny, 1.0, kappa)
    kd = k * width
    c = np.cos(kd)
    s = np.sin(kd)
    return TransferMatrix2(
        np.where(tiny, 1.0 + 0j, c),
        np.where(tiny, complex(width), s / k),
        np.where(tiny, 0j, -k * s),
        np.where(tiny, 1.0 + 0j, c),
        det_factors=np.where(tiny, 1.0 + 0j, c * c + s * s),
    )


def _rescaled_multiply(P: TransferMatrix2, T: TransferMatrix2) -> TransferMatrix2:
    """P @ T with each matrix's max entry magnitude factored out into logscale."""
    a = P.a * T.a + P.b * T.c
    b = P.a * T.b + P.b * T.d
    c = P.c * T.a + P.d * T.c
    d = P.c * T.b + P.d * T.d
    m = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    if (m == 0.0).any():
        raise ArithmeticError("transfer matrix product vanished")
    return TransferMatrix2(
        a / m, b / m, c / m, d / m,
        P.logscale + T.logscale + np.log(m),
        det_factors=P.det_factors * T.det_factors,
    )


def monodromy(pot: CirclePotential, point: SpectralPoint) -> TransferMatrix2:
    """Ordered product of segment propagators once around the circle.

    Segments with value +iZ use kappa, segments with value -iZ use its
    conjugate; entries are rescaled to O(1) after every multiplication.
    Each distinct (width, value) propagator is computed once.
    """
    props: dict[tuple[float, complex], TransferMatrix2] = {}
    T = TransferMatrix2(1.0 + 0j, 0j, 0j, 1.0 + 0j)
    for width, value in pot.segments:
        P = props.get((width, value))
        if P is None:
            if abs(abs(value.imag) - point.Z) > 1e-12 * point.Z:
                raise ValueError(
                    f"segment value {value!r} does not match coupling Z={point.Z!r}"
                )
            kappa = point.kappa if value.imag > 0 else np.conj(point.kappa)
            P = props[width, value] = segment_propagator(width, kappa)
        T = _rescaled_multiply(P, T)
    return T


def secular_monodromy(pot: CirclePotential, Z: float, t) -> LogScaledValue:
    """g(t) = 2 - tr(T) for the monodromy T, as a log-scaled real value.

    The monodromy logscale is folded in (the returned value is e^L times the
    normalized 2 e^(-L) - tr(T_scaled)), which leaves root positions intact.
    Per point, raises SecularOverflowError unless the normalized value and
    L are finite, then asserts |Im g| <= rtol (1 + |Re g|).
    """
    point, scalar = _points(Z, t)
    # an overflowing propagator turns the value non-finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        T = monodromy(pot, point)
        v = 2.0 * np.exp(-T.logscale) - T.trace()
    _check_finite(
        "monodromy secular value", Z, point.t,
        np.isfinite(v) & np.isfinite(T.logscale),
    )
    rtol = reality_rtol()
    bad = np.flatnonzero(np.abs(v.imag) > rtol * (1.0 + np.abs(v.real)))
    if bad.size:
        i = bad[0]
        raise SecularRealityError(
            "monodromy secular value", Z, float(point.t[i]), float(abs(v.imag[i]))
        )
    with np.errstate(divide="ignore"):  # Re g = 0 is an exact root: -inf
        logmag = T.logscale + np.log(np.abs(v.real))
    return _log_scaled(np.sign(v.real).astype(int), logmag, scalar)


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
    point = SpectralPoint.from_zt(Z, t)
    k = point.kappa
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
# This is the internal redundancy of the element list; the build_Q tests
# verify it numerically.
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


def secular_explicit(Z: float, t) -> LogScaledValue:
    """det Q via partial-pivot LU with log-accumulated pivots, M=1 only.

    Per point, raises SecularOverflowError unless every entry of Q and the
    determinant are finite. The determinant is then asserted real:
    |Im| <= rtol |Re| plus a rounding floor of 64 eps exp(sum log ||row||),
    below which the phase of a vanishing determinant is rounding noise;
    both are taken per point. The returned log-magnitude is envelope
    normalized by the smooth positive factor 8 (s^2 + t^2)^3, which gives
    the value the cosh^6(t) / (2 t^4) small-t crest growth of the closed
    form (verified numerically); roots and signs are unaffected.
    """
    point, scalar = _points(Z, t)
    # overflowing entries of Q make it or its determinant non-finite,
    # checked below
    with np.errstate(over="ignore", invalid="ignore"):
        Q = build_Q(Z, point.t)
        # slogdet runs LAPACK getrf (partial pivoting) on each matrix
        phase, logmag = np.linalg.slogdet(Q)
    _check_finite(
        "explicit secular determinant", Z, point.t,
        np.isfinite(Q).all(axis=(-2, -1)) & ((phase == 0) | np.isfinite(logmag)),
    )
    rtol = reality_rtol()
    with np.errstate(over="ignore"):  # an infinite floor: phase is all noise
        # log of the Hadamard bound prod ||row||, without a complex temporary
        rows = np.einsum("...ij,...ij->...i", Q.real, Q.real)
        rows += np.einsum("...ij,...ij->...i", Q.imag, Q.imag)
        hadamard = 0.5 * np.sum(np.log(rows), axis=-1)
        floor = _NOISE_FLOOR_C * np.finfo(float).eps * np.exp(hadamard - logmag)
    bad = np.flatnonzero(np.abs(phase.imag) > rtol * np.abs(phase.real) + floor)
    if bad.size:
        i = bad[0]
        raise SecularRealityError(
            "explicit secular determinant", Z, float(point.t[i]),
            float(abs(phase.imag[i]) * math.exp(logmag[i])),
        )
    sign = np.where(phase == 0, 0, np.where(phase.real > 0, 1, -1))
    norm = math.log(8.0) + 3.0 * np.log(point.s * point.s + point.t * point.t)
    return _log_scaled(sign, logmag + norm, scalar)
