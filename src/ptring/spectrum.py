"""Energy levels from secular roots, and the series structure of the gaps.

Roots arrive in descending t; energies E = s^2 - t^2 with s = Z/(2t) then
ascend. Levels are indexed n = 0, 1, 2, ... and labeled by series = n mod 4,
an ordinal label that the difference tables read: second differences of
the gaps Delta_n = E_n - E_{n-1} are taken at lag 4 for even n and lag 2
for odd n. It names no branch of the spectrum.

A level's branch does: the index of the closed-form factor whose simple
root it is (RootRecord.factor). The band-edge factors come in +- pairs,
k(a - b) at index 2j and k(a + b) at 2j + 1: on the explicit closure
k(a - b1), k(a + b1), k(a - b2) and k(a + b2), numbered 0-3, and on the
periodic one k(a - b) and k(a + b), 0 and 1. The count-2 factors follow
them, and both levels of one of their roots take its index.
At Z = 1 the explicit levels 0-11 are roots of factors
0,2,0,2,3,1,3,1,0,2,0,2, so each series takes two factors in turn. At
Z = 4 they are roots of 2,2,3,1,3,1,0,2,0,2,3,1: a pair left the real
axis between Z = 2.9 and 3.0, and the series of every level above it
moved, while its branch did not.

A quasi-degenerate doublet is one +- pair of one b, split by about Z^2/E
at large E. analyze_series alone cross-links doublet partners, by n, and
links two adjacent levels when the given partner of the lower one is the
upper one (a spectrum read from a file has no branches), when they
expand one record (equal t and branch), or when their branches are 2j and
2j + 1.
"""

import operator
from typing import NamedTuple, Sequence

from .potential import check_coupling

# builds a level from the tuple of its fields in C, not through the named
# tuple's generated __new__, on the per-level path of every solve
_new = tuple.__new__


class EnergyLevel(NamedTuple):
    """One real eigenvalue with its (t, s) root coordinates.

    doublet_partner is the index n of the other member of a quasi-degenerate
    pair, or None for a singlet. Only analyze_series sets it; a root of a
    count-2 factor expands into two levels at the same E, which it pairs.
    branch is the index of the factor whose root the level is, None only for
    a level read from a file.
    """

    n: int
    t: float
    s: float
    E: float
    series: int
    doublet_partner: int | None = None
    branch: int | None = None


class SpectrumReport(NamedTuple):
    """Difference tables over a spectrum; see analyze_series."""

    levels: tuple[EnergyLevel, ...]
    delta1: tuple[float | None, ...]
    even_second: tuple[tuple[int, float], ...]
    odd_second: tuple[tuple[int, float], ...]
    odd_third: tuple[tuple[int, float], ...]
    odd_third_nested: tuple[tuple[int, float], ...]
    quasi_pairs: tuple[tuple[int, int, float], ...]


def energies_from_roots(roots: Sequence, Z: float) -> list[EnergyLevel]:
    """Expand root records (descending t) into indexed ascending levels.

    Unresolved doublet records produce two coincident levels, every other
    record one level, and each level's branch is its record's factor; no
    level carries a doublet_partner (see analyze_series). Raises ValueError
    unless Z is finite and at least Z_FLOOR and the records are strictly
    descending in t, by strictly ascending factor at equal t, as find_roots
    returns them; a t <= 0 anywhere is named before an order fault.
    """
    check_coupling(Z)
    levels: list[EnergyLevel] = []
    order = []
    for t, _, _, doublet, factor in roots:
        if not t > 0:
            raise ValueError("every root must have t > 0")
        s = Z / (2.0 * t)
        e = s * s - t * t
        for _ in range(2 if doublet else 1):
            n = len(levels)
            levels.append(_new(EnergyLevel, (n, t, s, e, n % 4, None, factor)))
        order.append((-t, factor))
    if any(map(operator.ge, order, order[1:])):
        raise ValueError(
            "roots must be strictly descending in t, by ascending factor at equal t"
        )
    return levels


def first_differences(levels: Sequence[EnergyLevel]) -> list[float | None]:
    """Delta_n = E_n - E_{n-1}, aligned with levels (None at n = 0)."""
    energies = [lvl.E for lvl in levels]
    out: list[float | None] = [None] if levels else []
    out.extend(map(operator.sub, energies[1:], energies))
    return out


def analyze_series(levels: Sequence[EnergyLevel]) -> SpectrumReport:
    """Difference tables resolving the four-series gap structure.

    even_second pairs each even n >= 6 with Delta_n - Delta_{n-4}
    (within-family curvature of the even series). odd_second pairs each odd
    n >= 3 with Delta_n - Delta_{n-2}. Two third-difference tables are
    kept: odd_third uses lag-4 outer steps, Delta_n - 2 Delta_{n-4}
    + Delta_{n-8} for odd n >= 9, while odd_third_nested iterates the lag-2
    step, Delta_n - 2 Delta_{n-2} + Delta_{n-4} for odd n >= 5. This is
    the one place doublet partners are decided, greedy from below among
    adjacent levels of the input (see the module docstring): quasi_pairs
    lists each pair as (n, n', gap), its levels are returned linked to each
    other by n, and every other level is returned as given.
    """
    delta = first_differences(levels)
    n_max = len(levels) - 1

    even_second = tuple(
        (n, delta[n] - delta[n - 4])
        for n in range(6, n_max + 1, 2)
    )
    odd_second = tuple(
        (n, delta[n] - delta[n - 2])
        for n in range(3, n_max + 1, 2)
    )
    odd_third = tuple(
        (n, delta[n] - 2.0 * delta[n - 4] + delta[n - 8])
        for n in range(9, n_max + 1, 2)
    )
    odd_third_nested = tuple(
        (n, delta[n] - 2.0 * delta[n - 2] + delta[n - 4])
        for n in range(5, n_max + 1, 2)
    )

    tagged, pairs = list(levels), []
    i = 0
    while i < n_max:
        lo, hi = levels[i], levels[i + 1]
        # branches 2j and 2j + 1 differ in their last bit alone
        linked = (
            lo.doublet_partner == hi.n
            or (lo.t, lo.branch) == (hi.t, hi.branch)
            or (None not in (lo.branch, hi.branch) and lo.branch ^ hi.branch == 1)
        )
        if linked:
            pairs.append((lo.n, hi.n, delta[i + 1]))
            tagged[i] = _new(EnergyLevel, (*lo[:5], hi.n, lo.branch))
            tagged[i + 1] = _new(EnergyLevel, (*hi[:5], lo.n, hi.branch))
        i += 2 if linked else 1
    return SpectrumReport(
        levels=tuple(tagged),
        delta1=tuple(delta),
        even_second=even_second,
        odd_second=odd_second,
        odd_third=odd_third,
        odd_third_nested=odd_third_nested,
        quasi_pairs=tuple(pairs),
    )
