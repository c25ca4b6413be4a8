"""Secular functions whose real roots t_n determine the spectrum.

The ring of a square well, a SquareWell(M, Z), is 2M copies of one
(+iZ, -iZ) cell of width 1/M, and both closures are elementary functions
of the real cell trace tau:

- secular_monodromy: the strictly periodic closure g(t) = 2 - tr(T) of the
  monodromy T once around the circle (a periodic eigenstate exists where
  the unit-determinant monodromy has eigenvalue 1, i.e. det(T - 1) =
  2 - tr(T) = 0). For a square well, tr T = 2 T_2M(tau/2) (Chebyshev);
  a square well of another coupling than the call's is a ValueError.

- secular_explicit: M=1 only, the determinant of the eight-by-eight
  matching system assembled from the per-segment sine/cosine ansatz, in
  closed form. Its rows 3 and 4 couple the two inner half-waves through an
  energy-dependent unimodular factor cos(kappa)/cos(kappa*), so this system
  is the ring at the Bloch phase theta(E) = 2 arg cos(kappa(E)) and its
  root set is NOT the periodic one; it is the reference spectrum the
  regression suite pins. See README for the relation between the two
  backends.

Both backends substitute s = Z/(2t) and work at purely real energy
E = s^2 - t^2; values are returned in sign/log-magnitude form to survive the
huge dynamic range of the secular functions. Every value also carries
closed-form real factors (see LogScaledValue), whose simple roots are the
levels, and the twisted closure's value also its analytic form. The call
computes these, and the sign and log-magnitude only when one of them is
first read, since root finding reads only these.

Both take t as a float or a 1-D float array. A float is evaluated as a
one-point array and comes back as a scalar LogScaledValue; an array comes
back as a LogScaledValue of sign and log-magnitude arrays. Every point is
computed and checked on its own, so an array call equals the
element-by-element calls.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import SecularOverflowError
from .potential import SquareWell, check_coupling

# Coupling up to which the near-axis complex pairs at tau = -2 count as real
# doublets of the free circle: their first-order |Im E| is at most 2Z/pi.
FREE_LIMIT_Z = 1e-3


class SpectralPoint(NamedTuple):
    """The (t, s, E) bundle tied by 2st = Z and E = s^2 - t^2.

    s - i t is the wavenumber kappa in +iZ segments (kappa^2 = E - iZ), its
    conjugate that in -iZ segments; s > 0 and t > 0 fix the branch by
    construction, never a complex square root. t may be a float or a float
    array; s and E then have its shape.
    """

    Z: float
    t: float
    s: float
    E: float

    @classmethod
    def from_zt(cls, Z: float, t) -> "SpectralPoint":
        """The point of (Z, t). Raises ValueError unless Z is finite and at
        least Z_FLOOR and t > 0, and SecularOverflowError at the first t
        whose energy leaves the double range (t above about 1.3e154, or
        s = Z/(2t) overflowing)."""
        return _spectral(Z, t)[0]


def _spectral(Z: float, t) -> tuple[SpectralPoint, object]:
    """SpectralPoint.from_zt(Z, t), and |kappa|^2 = s^2 + t^2 from the s^2
    and t^2 of its energy. Two reductions check t > 0 and E finite; only
    where they fail (or the sum of finite energies overflows) does a mask
    find the first bad t, the positivity error first."""
    check_coupling(Z)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
        try:
            s = Z / (2.0 * t)
        except ZeroDivisionError:  # a float t of 0, refused below
            s = math.inf
        ss, tt = s * s, t * t
        E = ss - tt
        fine = np.minimum.reduce(t, initial=np.inf) > 0 and math.isfinite(np.add.reduce(E))
    if not (fine or (ok := (t > 0.0) & np.isfinite(E)).all()):
        positive = np.asarray(t) > 0.0
        if not positive.all():
            first = float(np.ravel(t)[np.argmin(positive)])
            raise ValueError(f"t must be positive, got {first!r}")
        raise SecularOverflowError("energy", Z, float(np.ravel(t)[np.argmin(ok)]))
    return SpectralPoint(Z, t, s, E), ss + tt


class LogScaledValue:
    """sign * e^(logmag) with sign in {-1, 0, +1}; logmag = -inf when sign = 0.

    logmag is exactly the L(t) = log|F(t)| quantity plotted by the scan
    command, so near-tangent zero crossings appear as deep dips. sign and
    logmag are both scalars or both arrays of one shape.

    factors are real factors of the value as (value, count) pairs, each
    value a float or array of the value's shape and bounded where its roots
    lie. Every real root of the value is a simple root of exactly one
    factor and stands for count (1 or 2) levels; the product of the factor
    signs, each to the power count, is the value's sign up to a sign fixed
    per closure. A factor value of exactly 0 counts as positive in root
    finding, so a root where several factors vanish is a root of each. The
    band-edge factors come first, in +- pairs: k(a -
    b) at index 2j and k(a + b) at 2j + 1, one pair per b, and the count-2
    factors follow them; a level's index there is its branch, and the two
    factors of one pair hold its quasi-degenerate doublets.

    analytic is None, or the value over a positive envelope as a float or
    array of the value's shape: the product of the factors times a function
    of one sign, with the value's sign and real roots, but analytic in s
    near the real axis, where a factor need not be. Root finding interpolates it
    to place its first estimates (see estimate), and reads the sum of a
    +- pair, positive at the roots of k (a - b) and negative at those of
    k (a + b), to tell which root of a pair is whose, so a value with an
    analytic form has only band-edge factors. Root finding reads
    only the factors and the analytic form, and rejects a value without
    factors; from_float(x) carries x as its one factor and no analytic
    form, and so does the periodic closure.

    The secular functions return a deferred value (see deferred): its
    factors are computed by the call, its sign and logmag only when one of
    them is first read. The checks on sign and logmag run then; the
    constructor runs them at once.
    """

    __slots__ = ("factors", "analytic", "_value", "_pair")

    def __init__(self, sign, logmag, factors: tuple = ()):
        self.factors, self.analytic = factors, None
        self._value = None
        self._pair = _checked(sign, logmag)

    @classmethod
    def deferred(cls, value, factors: tuple = (), analytic=None) -> "LogScaledValue":
        """The value whose sign and logmag value() returns, called once, on
        the first read of either, with its analytic form, if any."""
        v = cls.__new__(cls)
        v.factors, v.analytic, v._value, v._pair = factors, analytic, value, None
        return v

    @property
    def sign(self):
        return self._read()[0]

    @property
    def logmag(self):
        return self._read()[1]

    def _read(self) -> tuple:
        if self._pair is None:
            self._pair = _checked(*self._value())
            self._value = None
        return self._pair

    def __repr__(self) -> str:
        return (
            f"LogScaledValue(sign={self.sign!r}, logmag={self.logmag!r}, "
            f"factors={self.factors!r})"
        )

    @classmethod
    def from_float(cls, x) -> "LogScaledValue":
        """x in log-scaled form, with x itself as its one factor, count 1."""
        xs = np.array(x, dtype=float, ndmin=1)
        with np.errstate(divide="ignore"):  # log(0) = -inf marks the zeros
            pair = np.sign(xs).astype(int), np.log(np.abs(xs))
        return _log_scaled(lambda: pair, np.ndim(x) == 0, [(xs, 1)])


def _checked(sign, logmag) -> tuple:
    """(sign, logmag), after checking that every sign is -1, 0 or +1 and
    that every zero carries logmag = -inf."""
    sign_a, logmag_a = np.asarray(sign), np.asarray(logmag)
    if not ((sign_a == -1) | (sign_a == 0) | (sign_a == 1)).all():
        raise ValueError(f"sign must be -1, 0 or +1, got {sign!r}")
    if ((sign_a == 0) & (logmag_a != -np.inf)).any():
        raise ValueError("zero value must carry logmag = -inf")
    return sign, logmag


def _points(Z: float, t) -> tuple[SpectralPoint, object, bool]:
    """The spectral points of t as a 1-D array, |kappa|^2 there (see
    _spectral), and whether t was a scalar. The points hold a copy of t,
    so a deferred value that reads them (see _log_scaled) does not see
    the caller change t before it is read."""
    scalar = np.ndim(t) == 0
    ts = np.array(t, dtype=float, ndmin=1)
    if ts.ndim != 1:
        raise ValueError(f"t must be a float or a 1-D array, got shape {ts.shape}")
    return *_spectral(Z, ts), scalar


def _log_scaled(value, scalar: bool, factors=(), analytic=None) -> LogScaledValue:
    """The deferred value whose sign and log-magnitude arrays value()
    returns, with its (value, count) factors and its analytic form (see
    LogScaledValue), unwrapped to Python scalars for a scalar call. value()
    must read only arrays the call computed or copied (_points), not the
    caller's t, which the caller may change before the value is read."""
    if not scalar:
        return LogScaledValue.deferred(value, tuple(factors), analytic)

    def first():
        sign, logmag = value()
        return int(sign[0]), float(logmag[0])

    return LogScaledValue.deferred(
        first,
        tuple((float(v[0]), c) for v, c in factors),
        None if analytic is None else float(analytic[0]),
    )


def _cell_trace(point: SpectralPoint, mod_sq, h: float):
    """k^2, a and b for one (+iZ, -iZ) cell, and sh, th, e^(-th), sin(sh)
    and e^(-2th) - 1, from the point and its |kappa|^2 = s^2 + t^2.

    The cell trace is real: with segment width h,
    tau = 2 cos^2(sh) - 2 (E/|kappa|^2) sin^2(sh) + 4 (t^2/|kappa|^2) sinh^2(th).
    With k = 2/|kappa|, a = s sin(sh) e^(-th), b = t sinh(th) e^(-th),
    c = s cos(sh) e^(-th) and d = t cosh(th) e^(-th), it is taken through
    the factored forms (2 - tau) e^(-2th) = k^2 (a - b)(a + b) and
    (2 + tau) e^(-2th) = k^2 (c^2 + d^2) > 0, which keep full relative
    precision at the band edge tau = 2 and stay finite at every t. The
    factors read only k, a and b, so c and d come from _cell_cd, where a
    value needs them.
    """
    s, t = point.s, point.t
    # a unit width (M = 1) skips the two exact products: with them, the
    # find_roots stage of a pt-sweep solve took 3-4 us more (336.5 -> 339.8
    # and 329.0 -> 333.0 us, least of tools/solve_ab.py --interleave over
    # 25 s, one core of a shared 2-vCPU host)
    sh, th = (s, t) if h == 1.0 else (s * h, t * h)
    decay = np.exp(-th)
    sin_sh = np.sin(sh)
    em = np.expm1(-2.0 * th)
    return 4.0 / mod_sq, s * sin_sh * decay, -0.5 * t * em, sh, th, decay, sin_sh, em


def _cell_cd(point: SpectralPoint, b, decay, sh):
    """c = s cos(sh) e^(-th) and d = t cosh(th) e^(-th) = t - b of _cell_trace."""
    return point.s * np.cos(sh) * decay, point.t - b


def _chebyshev_u(minus, plus, th, M: int):
    """u = U_(M-1)(tau/2) and log|u|, from minus = (2 - tau) e^(-2th),
    plus = (2 + tau) e^(-2th) > 0 and th of _cell_trace.

    In the band, minus >= 0, tau = 2 cos(theta) and u = sin(M theta) /
    sin(theta), M at theta = 0; above it, tau = 2 cosh(phi) and
    u = sinh(M phi) / sinh(phi) > 0, whose log (M - 1) phi +
    log((1 - e^(-2 M phi)) / (1 - e^(-2 phi))) stays finite where u
    overflows to inf. q = sqrt(|minus| / plus) is tan(theta/2) or
    tanh(phi/2), free of cancellation near tau = 2, and sin(theta) =
    2q / (1 + q^2) keeps its precision near tau = -2 too.
    """
    above = minus < 0.0
    q = np.sqrt(np.abs(minus) / plus)
    # each form is taken where it holds; the other's inf and NaN are dropped
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.where(q > 0.0, np.sin(2.0 * M * np.arctan(q)) * (0.5 / q + 0.5 * q), M)
        # phi = 2 artanh(q); for q > 1/2 through 1 - q^2 = 4 / (2 + tau)
        phi = np.where(
            q <= 0.5,
            2.0 * np.arctanh(np.minimum(q, 0.5)),
            2.0 * (np.log1p(q) + th) + np.log(0.25 * plus),
        )
        ratio = np.expm1(-2.0 * M * phi) / np.expm1(-2.0 * phi)
        log_u = np.where(above, (M - 1) * phi + np.log(ratio), np.log(np.abs(u)))
        return np.where(above, np.exp(log_u), u), log_u


def _edge_pair(k, a, b) -> list:
    """The band-edge factors k (a - b) and k (a + b) of one b, count 1 each:
    the +- pair of the j-th b sits at indices 2j and 2j + 1."""
    return [(k * (a - b), 1), (k * (a + b), 1)]


def _read_off(sign, logmag, factors, log_u=None) -> tuple:
    """The int sign and the log-magnitude of a value read off its (f, count)
    factors: sign prod sign(f)^count and logmag + sum count log|f|, where
    sign and logmag are those of the envelope the factors leave out. A
    factor of count 2 is u, whose log|u| is log_u (_chebyshev_u), finite
    where u overflows."""
    for y, count in factors:
        sign = sign * np.sign(y) ** count
        logmag = logmag + count * (log_u if count == 2 else np.log(np.abs(y)))
    return sign.astype(int), logmag


def _periodic_closure(point: SpectralPoint, mod_sq, M: int, h: float):
    """Factors of g = 2 - tr T for T the product of 2M cells, and a function
    of no arguments that returns g's sign and log-magnitude.

    tr T = 2 T_2M(tau/2) (Chebyshev), so g = (2 - tau)(2 + tau) u^2 with
    u = U_(M-1)(tau/2), and with k, a, b, c and d of _cell_trace
    g = k (a - b) k (a + b) u^2 k^2 (c^2 + d^2) e^(4th).

    The factors are k (a - b) and k (a + b), count 1, whose roots are the
    band edges tau = 2; for M > 1, u (_chebyshev_u), count 2, whose roots
    tau = 2 cos(pi j / M), 0 < j < M, are the exact double roots of g (the
    Bloch pair +-pi j / M); and for Z <= FREE_LIMIT_Z, k c, count 2, whose
    roots are the near-axis complex pairs at tau = -2, where
    2 + tau = k^2 (c^2 + d^2) e^(2th) nearly vanishes. The value is read
    off the product (_read_off), which leaves k c out, with the positive
    envelope k^2 (c^2 + d^2) e^(4th) and log|u| from _chebyshev_u, finite
    where u overflows. u needs c and d (_cell_cd); for M = 1 they are
    computed only when the value is, c at once for Z <= FREE_LIMIT_Z.
    """
    k_sq, a, b, sh, th, decay = _cell_trace(point, mod_sq, h)[:6]
    k = np.sqrt(k_sq)
    factors, log_u = _edge_pair(k, a, b), None
    cd = _cell_cd(point, b, decay, sh) if M > 1 or point.Z <= FREE_LIMIT_Z else None

    def plus():  # (2 + tau) e^(-2th)
        c, d = cd or _cell_cd(point, b, decay, sh)
        return k_sq * (c * c + d * d)

    if M > 1:
        u, log_u = _chebyshev_u(factors[0][0] * factors[1][0], plus(), th, M)
        factors.append((u, 2))
    if point.Z <= FREE_LIMIT_Z:
        factors.append((k * cd[0], 2))

    def value():
        with np.errstate(divide="ignore"):  # an exact root: -inf
            envelope = np.log(plus()) + 4.0 * th
            return _read_off(1, envelope, factors[: 2 + (M > 1)], log_u)

    return factors, value


def secular_monodromy(well: SquareWell, Z: float, t) -> LogScaledValue:
    """g(t) = 2 - tr(T) for the monodromy T of the well's 2M cells, as a
    log-scaled real value.

    well.Z must equal Z to 1e-12 relative, else a ValueError names both
    couplings. The value is the closed form in the cell trace, which is real
    by construction, with its factors (see _periodic_closure); the sign and
    logmag are computed on first read. A point whose energy leaves the
    double range raises SecularOverflowError.
    """
    if abs(well.Z - Z) > 1e-12 * Z:
        raise ValueError(f"square well of coupling {well.Z!r} called at Z={Z!r}")
    point, mod_sq, scalar = _points(Z, t)
    factors, value = _periodic_closure(point, mod_sq, well.M, 1.0 / well.M)
    return _log_scaled(value, scalar, factors)


def secular_explicit(Z: float, t) -> LogScaledValue:
    """The twisted closure of the four-segment (M=1) circle.

    This is the determinant of the eight-by-eight matching system whose
    inner-boundary rows carry cos(kappa)/cos(kappa*) weights, in closed
    form: with c = cos(kappa) and tau the trace of one unit-width cell,
    det Q = |kappa|^4 (2 Re c - |c| tau)(2 Re c + |c| tau). Since
    |Re c| / |c| = |cos(arg c)|, its roots are those of the ring under
    psi(x + 4) = e^(i theta) psi(x), where tr T = tau^2 - 2 = 2 cos(theta),
    at the energy-dependent Bloch phase theta(E) = 2 arg cos(kappa(E));
    secular_monodromy is the ring at theta = 0. The returned
    value is det Q times the smooth positive envelope 8 |kappa|^6, which
    gives the value the cosh^6(t) / (2 t^4) small-t crest growth; roots and
    signs are unaffected. Per point, raises SecularOverflowError when the
    energy leaves the double range.

    With k, a and b of _cell_trace and gap = 2 (1 - |Re c| / |c|) e^(-2t),
    det Q is proportional to -(a - b1)(a + b1)(a - b2)(a + b2), where
    b1 = sqrt(b^2 + gap / k^2) and b2 = sqrt(b^2 + (4 e^(-2t) - gap) / k^2),
    both positive and free of cancellation, swapped where Re c < 0 so that
    each factor is smooth. Its factors are k (a -+ b1) and k (a -+ b2),
    count 1 each, and the value is read off them on first read (_read_off)
    with the negative envelope, of logmag log 8 + 5 log|kappa|^2 +
    log(|c|^2 e^(-2t)) + 6t. b1 and b2 are square roots whose radicands
    vanish near the real axis, b1's beside sin s = 0 and both where |c|
    does, at cos s = +-i sinh t, so the factors are not analytic there, but
    their product is: the value's analytic form is -|c|^2 e^(-2t) times it,
    (4 (Re c)^2 - |c|^2 tau^2) e^(-6t), computed from the factors.
    """
    point, mod_sq, scalar = _points(Z, t)
    k_sq, a, b, sh, th, decay, sin_s, em = _cell_trace(point, mod_sq, 1.0)
    cos_s = np.cos(sh)
    decay = np.exp(-2.0 * th)
    sinh2 = (0.5 * em) ** 2  # sinh^2(t) e^(-2t)
    # each array is dropped after its last use: e^(-t) as decay is rebound,
    # then s and the energy, which _points checked. That holds the call's
    # peak to 13 arrays of its length, from 25, and on the 100-level master
    # grid keeps the allocator from handing the memory back to the OS after
    # every call and faulting it in again on the next (see README,
    # "Performance")
    del point, sh, em
    c2 = cos_s * cos_s * decay + sinh2  # |c|^2 e^(-2t)
    rho = np.abs(cos_s) * (0.5 + 0.5 * decay) / np.sqrt(c2)  # |Re c| / |c|
    # 2 (1 - rho) e^(-2t), through 1 - rho^2 = (Im c)^2 / |c|^2
    gap = 2.0 * sin_s ** 2 * sinh2 / (c2 * (1.0 + rho)) * decay
    del sin_s, sinh2, rho
    b_sq = b * b
    b1, b2 = np.sqrt(b_sq + gap / k_sq), np.sqrt(b_sq + (4.0 * decay - gap) / k_sq)
    flip, k = cos_s < 0.0, np.sqrt(k_sq)
    del b, b_sq, gap, decay, cos_s, k_sq
    b1, b2 = np.where(flip, b2, b1), np.where(flip, b1, b2)
    factors = _edge_pair(k, a, b1) + _edge_pair(k, a, b2)
    (f0, _), (f1, _), (f2, _), (f3, _) = factors

    def value():
        with np.errstate(divide="ignore"):  # an exact root: -inf
            envelope = math.log(8.0) + 5.0 * np.log(mod_sq) + np.log(c2) + 6.0 * th
            return _read_off(-1, envelope, factors)

    return _log_scaled(value, scalar, factors, -c2 * (f0 * f1) * (f2 * f3))
