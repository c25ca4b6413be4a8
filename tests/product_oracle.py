"""Propagator-product oracle: the strictly periodic secular value
g(t) = 2 - tr T of any layout, T the ordered product of its segment
propagators once around the circle, with no closed form involved.

The library solves square wells, each the pair (M, Z), through the closed
cell trace alone; this product is its independent check, and the only path
that evaluates layouts other than square wells. A layout is a
CirclePotential, an ordered tuple of (width, purely imaginary value)
segments; layout(well) gives a square well's. A PT-symmetric layout has a
real g, which secular_product asserts to the relative tolerance
reality_rtol(): 1e-8, or the PT_CIRCLE_TOL environment variable, a bad
value of which is a ValueError.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from ptring.errors import SecularOverflowError
from ptring.potential import CIRCUMFERENCE, START, SquareWell
from ptring.secular import LogScaledValue, SpectralPoint, _log_scaled, _points

DEFAULT_REALITY_RTOL = 1e-8

_TINY_KAPPA = 1e-150

_WIDTH_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CirclePotential:
    """Ordered segments (width, purely imaginary value) covering the circle.

    Segments are left-closed, [a, b); the value at a boundary point is that
    of the segment starting there, so at M = 1 x = 0 gives +iZ, from [0, 1),
    not -iZ, from [-1, 0). Matching conditions never evaluate V at a
    boundary, so this choice is inert.
    """

    circumference: float
    start: float
    segments: tuple[tuple[float, complex], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("potential needs at least one segment")
        for width, value in self.segments:
            if not width > 0:
                raise ValueError(f"segment width must be positive, got {width}")
            if value.real != 0.0:
                raise ValueError(f"segment value must be purely imaginary, got {value}")
        total = math.fsum(w for w, _ in self.segments)
        if abs(total - self.circumference) > _WIDTH_SUM_TOL:
            raise ValueError(
                f"segment widths sum to {total!r}, expected {self.circumference!r}"
            )

    def boundaries(self) -> list[float]:
        """All segment edges from start to start + circumference."""
        edges = [self.start]
        for width, _ in self.segments:
            edges.append(edges[-1] + width)
        return edges

    def value_at(self, x: float) -> complex:
        """V(x) for x in [start, start + circumference), left-closed segments."""
        offset = (x - self.start) % self.circumference
        acc = 0.0
        for width, value in self.segments:
            acc += width
            if offset < acc:
                return value
        return self.segments[-1][1]


def layout(well: SquareWell) -> CirclePotential:
    """The well's 4M segments: +iZ first from START, width 1/M each."""
    h, Z = 1.0 / well.M, well.Z
    segments = tuple(
        (h, complex(0.0, Z) if j % 2 == 0 else complex(0.0, -Z))
        for j in range(4 * well.M)
    )
    return CirclePotential(CIRCUMFERENCE, START, segments)


def rotate_segments(pot: CirclePotential, k: int) -> CirclePotential:
    """Cyclically shift the segment list by k positions (k taken mod count)."""
    n = len(pot.segments)
    k = k % n
    return CirclePotential(
        pot.circumference, pot.start, pot.segments[k:] + pot.segments[:k]
    )


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


def reality_rtol() -> float:
    """Reality tolerance of the propagator product; overridable via the
    PT_CIRCLE_TOL environment variable."""
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


def kappa(point: SpectralPoint):
    """kappa = s - i t, the wavenumber in +iZ segments (kappa^2 = E - iZ);
    its conjugate belongs to -iZ segments."""
    return point.s - 1j * point.t


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
            k = kappa(point) if value.imag > 0 else np.conj(kappa(point))
            P = props[width, value] = segment_propagator(width, k)
        T = _rescaled_multiply(P, T)
    return T


def _cells(pot: CirclePotential) -> int:
    """How many times the layout repeats its first two segments, its cell;
    0 where it does not."""
    n, odd = divmod(len(pot.segments), 2)
    return 0 if odd or pot.segments != pot.segments[:2] * n else n


def _product_closure(pot: CirclePotential, point: SpectralPoint):
    """The factors of 2 - tr T from the propagator product, and a function
    of no arguments that returns its sign and log-magnitude.

    The value is the normalized real value 2 e^(-L) - Re tr(T_scaled) for
    T = e^L T_scaled, which has the value's roots and sign since e^(-L) > 0,
    and in general it is the one factor, count 1. A layout of 2M equal
    cells, M > 1, as every square well and its rotations, has
    g = (2 - tau)(2 + tau) u^2 with tau the trace of its cell's propagator
    product and u = U_(M-1)(tau/2), here by the three-term recurrence
    U_(n+1) = tau U_n - U_(n-1) from U_0 = 1 and U_1 = tau: its factors are
    (2 - tau)(2 + tau), count 1, and u, count 2, whose roots are g's double
    roots. Per point it raises SecularOverflowError unless the value and L
    are finite, then SecularRealityError unless |Im g| <= reality_rtol()
    (1 + |Re g|).
    """
    Z = point.Z
    # an overflowing propagator turns the value non-finite, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        T = monodromy(pot, point)
        v = 2.0 * np.exp(-T.logscale) - T.trace()
    bad = np.flatnonzero(~(np.isfinite(v) & np.isfinite(T.logscale)))
    if bad.size:
        raise SecularOverflowError("monodromy secular value", Z, float(point.t[bad[0]]))
    rtol = reality_rtol()
    bad = np.flatnonzero(np.abs(v.imag) > rtol * (1.0 + np.abs(v.real)))
    if bad.size:
        i = bad[0]
        raise SecularRealityError(
            "monodromy secular value", Z, float(point.t[i]), float(abs(v.imag[i]))
        )
    factors = [(v.real, 1)]
    M = _cells(pot) // 2
    if M > 1:
        (w1, _), (w2, _) = pot.segments[:2]
        C = monodromy(CirclePotential(w1 + w2, pot.start, pot.segments[:2]), point)
        tau = (C.trace() * np.exp(C.logscale)).real
        u_low, u = np.ones_like(tau), tau
        for _ in range(M - 2):
            u_low, u = u, tau * u - u_low
        factors = [((2.0 - tau) * (2.0 + tau), 1), (u, 2)]

    def value():
        with np.errstate(divide="ignore"):  # Re g = 0 is an exact root: -inf
            logmag = T.logscale + np.log(np.abs(v.real))
        return np.sign(v.real).astype(int), logmag

    return factors, value


def secular_product(pot: CirclePotential, Z: float, t) -> LogScaledValue:
    """g(t) = 2 - tr(T) of any layout from the propagator product, as a
    log-scaled real value with its factors (see _product_closure), called
    as the library's secular functions are: t a float or a 1-D array.

    Its propagators overflow from t of about 710 over the widest segment
    width, long before the energy leaves the double range, so an array that
    reaches both fails at the first point either fails.
    """
    try:
        point, _, scalar = _points(Z, t)
    except SecularOverflowError as e:
        ts = np.atleast_1d(t)
        _product_closure(pot, SpectralPoint.from_zt(Z, ts[: np.argmax(ts == e.t)]))
        raise
    factors, value = _product_closure(pot, point)
    return _log_scaled(value, scalar, factors)


def is_pt_symmetric(pot: CirclePotential) -> bool:
    """Whether V(-x) == conj(V(x)) away from segment boundaries, decided
    from the layout itself.

    The edges and their mirrors cut the circle into pieces on each of
    which both V(x) and V(-x) are constant, so one point per piece
    decides it. A piece no wider than the width-sum tolerance, where an
    edge and a mirrored edge coincide up to rounding, is skipped; any
    wider mismatch of mirrored edges, or a mirror without the conjugate
    value, is asymmetry.
    """
    C, x0 = pot.circumference, pot.start
    cuts = sorted({(x - x0) % C for e in pot.boundaries() for x in (e, -e)})
    cuts.append(cuts[0] + C)
    for a, b in zip(cuts, cuts[1:]):
        x = x0 + 0.5 * (a + b)
        mirrored = pot.value_at(-x) == pot.value_at(x).conjugate()
        if b - a > _WIDTH_SUM_TOL and not mirrored:
            return False
    return True
