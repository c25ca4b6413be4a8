"""Energy levels from secular roots, and the series structure of the gaps.

Roots arrive in descending t; energies E = s^2 - t^2 with s = Z/(2t) then
ascend. Levels are indexed n = 0, 1, 2, ... and labeled by series = n mod 4,
an ordinal label that the difference tables read: second differences of
the gaps Delta_n = E_n - E_{n-1} are taken at lag 4 for even n and lag 2
for odd n. It names no branch of the spectrum. Each real level is a simple
root of one of the explicit closure's four factors k(a - b1), k(a + b1),
k(a - b2) and k(a + b2), numbered 0-3. At Z = 1 levels 0-11 are roots of
factors 0,2,0,2,3,1,3,1,0,2,0,2, so each series takes two factors in turn.
At Z = 4 they are roots of 2,2,3,1,3,1,0,2,0,2,3,1: a pair left the real
axis between Z = 2.9 and 3.0, and the label of every level above it moved.

Quasi-degenerate pairs (adjacent levels separated by far less than the
local level scale) are flagged by analyze_series, which alone cross-links
them via doublet_partner. At Z = 1 the gap rule finds exactly the
doublets of the explicit closure, the (3,4), (7,8), (11,12), ... slots, up
to 30 levels. From 31 levels on, where the gap between two branches
falls below QUASI_TOL of E, it also pairs levels of different branches:
(29,30), (33,34), (37,38), (41,42) and (45,46) at 50 levels. At Z = 0.1 it
adds pairs that cross branches as well, and from Z = 2 up it drops the
lowest pair, whose split has outgrown the tolerance.
"""

from typing import NamedTuple, Sequence

from .potential import check_coupling

QUASI_TOL = 2e-2


class EnergyLevel(NamedTuple):
    """One real eigenvalue with its (t, s) root coordinates.

    doublet_partner is the index n of the other member of a quasi-degenerate
    pair, or None for a singlet. Only analyze_series sets it; an unresolved
    root pair expands into two levels at the same E, which it pairs.
    """

    n: int
    t: float
    s: float
    E: float
    series: int
    doublet_partner: int | None = None


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

    Unresolved doublet records produce two coincident levels; no level
    carries a doublet_partner (see analyze_series). Raises ValueError
    unless Z is finite and at least Z_FLOOR and the records are strictly
    descending in t; a t <= 0 anywhere is named before an order fault.
    """
    check_coupling(Z)
    levels: list[EnergyLevel] = []
    for r in roots:
        if not r.t > 0:
            raise ValueError("every root must have t > 0")
        s = Z / (2.0 * r.t)
        e = s * s - r.t * r.t
        for _ in range(2 if getattr(r, "unresolved_doublet", False) else 1):
            n = len(levels)
            levels.append(EnergyLevel(n, r.t, s, e, n % 4))
    if any(b.t >= a.t for a, b in zip(roots, roots[1:])):
        raise ValueError("roots must be strictly descending in t")
    return levels


def first_differences(levels: Sequence[EnergyLevel]) -> list[float | None]:
    """Delta_n = E_n - E_{n-1}, aligned with levels (None at n = 0)."""
    out: list[float | None] = [None] if levels else []
    out.extend(
        levels[i].E - levels[i - 1].E for i in range(1, len(levels))
    )
    return out


def quasi_degenerate_pairs(levels: Sequence[EnergyLevel]) -> list[tuple[int, int, float]]:
    """Adjacent (n, n+1) pairs with gap below QUASI_TOL * max(1, E_n).

    The threshold scales with the lower level's energy so that the shrinking
    absolute splittings of high doublets keep qualifying. Greedy from below;
    a level joins at most one pair.
    """
    pairs = []
    i = 0
    while i < len(levels) - 1:
        gap = levels[i + 1].E - levels[i].E
        if gap < QUASI_TOL * max(1.0, levels[i].E):
            pairs.append((levels[i].n, levels[i + 1].n, gap))
            i += 2
        else:
            i += 1
    return pairs


def analyze_series(levels: Sequence[EnergyLevel]) -> SpectrumReport:
    """Difference tables resolving the four-series gap structure.

    even_second pairs each even n >= 6 with Delta_n - Delta_{n-4}
    (within-family curvature of the even series). odd_second pairs each odd
    n >= 3 with Delta_n - Delta_{n-2}. Two third-difference tables are
    kept: odd_third uses lag-4 outer steps, Delta_n - 2 Delta_{n-4}
    + Delta_{n-8} for odd n >= 9, while odd_third_nested iterates the lag-2
    step, Delta_n - 2 Delta_{n-2} + Delta_{n-4} for odd n >= 5. This is
    the one place doublet partners are decided: each quasi pair's levels are
    returned linked to each other by n, and every other level is returned
    as given.
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

    pairs = quasi_degenerate_pairs(levels)
    partner = {}
    for i, j, _gap in pairs:
        partner[i], partner[j] = j, i
    tagged = [
        EnergyLevel(lvl.n, lvl.t, lvl.s, lvl.E, lvl.series, partner[lvl.n])
        if lvl.n in partner
        else lvl
        for lvl in levels
    ]
    return SpectrumReport(
        levels=tuple(tagged),
        delta1=tuple(delta),
        even_second=even_second,
        odd_second=odd_second,
        odd_third=odd_third,
        odd_third_nested=odd_third_nested,
        quasi_pairs=tuple(pairs),
    )
