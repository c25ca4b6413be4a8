"""The PT-symmetric imaginary square well on a circle of circumference 4.

The solver's potential family consists of 4M equal segments of width h = 1/M
alternating between +iZ and -iZ, the first segment (starting at -2) carrying
+iZ. Such a layout is PT-symmetric: V(-x) equals the complex conjugate of V(x)
away from segment boundaries. The pair (M, Z) describes it fully, so a
SquareWell holds that pair and nothing else; the serializers write its
segments from it.
"""

import math

CIRCUMFERENCE = 4.0
START = -2.0
# Least coupling Z that the potential, the scan window and the secular
# functions accept. Down to it both square-well closures find every level
# (25 at 18 requested, 125 at 100); the twisted closure overcounts from
# Z = 1e-243 on (26 levels there, 215 at 1e-300), and below about 1e-308
# the scan window's extent in s = Z/(2t) overflows.
Z_FLOOR = 1e-200
# Most segments of a well that build_square_well builds, and most rows of a
# potential_to_csv table, checked before either is written. At it (CPython
# 3.11, x86-64), `ptring potential --M 131072` peaked at 140 MB RSS with
# --format json and at 69 MB as CSV, `ptring spectrum --M 131072` at 30 MB
# and `ptring potential --samples 524288` at 105 MB; at twice it the JSON
# alone, 60 MiB of text, took 263 MB
MAX_SEGMENTS = 2**19


def check_coupling(Z: float) -> None:
    """Raise ValueError unless Z is a finite coupling of at least Z_FLOOR."""
    if not Z_FLOOR <= Z < math.inf:
        raise ValueError(f"Z must be finite and at least {Z_FLOOR:g}, got {Z!r}")


_set = object.__setattr__


class _Frozen:
    """Base of the package's small immutable values. A subclass names its
    fields in __slots__ and sets each in __init__ with _set; repr, ==
    (only with an instance of the same class) and hash read them in that
    order, and assigning or deleting any attribute raises AttributeError.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({body})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SquareWell(_Frozen):
    """The 4M-segment alternating potential of coupling Z: +iZ first from
    START, width 1/M each, segments left-closed, [a, b).

    Constructing one raises ValueError unless M is a positive integer with
    4M <= MAX_SEGMENTS and Z passes check_coupling.
    """

    __slots__ = ("M", "Z")

    def __init__(self, M: int, Z: float) -> None:
        if not isinstance(M, int) or M < 1:
            raise ValueError(f"M must be a positive integer, got {M!r}")
        if 4 * M > MAX_SEGMENTS:
            raise ValueError(
                f"M={M} gives {4 * M} segments, more than the {MAX_SEGMENTS} "
                f"allowed; request a smaller M (--M)"
            )
        check_coupling(Z)
        _set(self, "M", M)
        _set(self, "Z", Z)


def build_square_well(M: int, Z: float) -> SquareWell:
    """The square well of M periods and coupling Z: SquareWell(M, Z)."""
    return SquareWell(M, Z)
