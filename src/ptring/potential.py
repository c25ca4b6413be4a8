"""Piecewise-constant purely imaginary potentials on a circle of circumference 4.

The solver's potential family consists of 4M equal segments of width h = 1/M
alternating between +iZ and -iZ, the first segment (starting at -2) carrying
+iZ. Such a layout is PT-symmetric: V(-x) equals the complex conjugate of V(x)
away from segment boundaries.
"""

import functools
import math
from dataclasses import dataclass

CIRCUMFERENCE = 4.0
START = -2.0
# Least coupling Z that the potential, the scan window and the secular
# functions accept. Down to it both square-well closures find every level
# (25 at 18 requested, 125 at 100); the twisted closure overcounts from
# Z = 1e-243 on (26 levels there, 215 at 1e-300), and below about 1e-308
# the scan window's extent in s = Z/(2t) overflows.
Z_FLOOR = 1e-200
# Most segments of a potential that build_square_well builds, and most rows
# of a potential_to_csv table, checked before either is built. At it,
# `ptring potential --M 131072 --format json` peaked at 304 MB RSS, the
# spectrum at 106 MB and `ptring potential --samples 524288` at 105 MB; at
# twice it the JSON took 593 MB
MAX_SEGMENTS = 2**19

_WIDTH_SUM_TOL = 1e-12


def check_coupling(Z: float) -> None:
    """Raise ValueError unless Z is a finite coupling of at least Z_FLOOR."""
    if not Z_FLOOR <= Z < math.inf:
        raise ValueError(f"Z must be finite and at least {Z_FLOOR:g}, got {Z!r}")


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

    @functools.cached_property
    def cell_layout(self) -> tuple[int, float] | None:
        """(M, |Im V|) for 2M alternating cells, else None.

        A square well has a multiple of four segments, all of one width and
        one |Im V|, alternating between positive and negative Im V; any
        rotation qualifies. Whether |Im V| equals the coupling Z of a call
        is the caller's check. Computed once per potential: the cached
        value is no field, so equality, hashing and repr ignore it.
        """
        ims = [value.imag for _, value in self.segments]
        mags = {abs(im) for im in ims}
        if (
            len(ims) % 4
            or len(mags) != 1
            or len({width for width, _ in self.segments}) != 1
            or any(a * b > 0 for a, b in zip(ims, ims[1:]))
        ):
            return None
        return len(ims) // 4, mags.pop()

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


def build_square_well(M: int, Z: float) -> CirclePotential:
    """The 4M-segment alternating potential: +iZ first from -2, width 1/M each.

    Raises ValueError before building anything unless M is a positive
    integer with 4M <= MAX_SEGMENTS and Z passes check_coupling."""
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    if 4 * M > MAX_SEGMENTS:
        raise ValueError(
            f"M={M} gives {4 * M} segments, more than the {MAX_SEGMENTS} "
            f"allowed; request a smaller M (--M)"
        )
    check_coupling(Z)
    h = 1.0 / M
    segments = tuple(
        (h, complex(0.0, Z) if j % 2 == 0 else complex(0.0, -Z)) for j in range(4 * M)
    )
    return CirclePotential(CIRCUMFERENCE, START, segments)


def rotate_segments(pot: CirclePotential, k: int) -> CirclePotential:
    """Cyclically shift the segment list by k positions (k taken mod count)."""
    n = len(pot.segments)
    k = k % n
    return CirclePotential(
        pot.circumference, pot.start, pot.segments[k:] + pot.segments[:k]
    )
