"""Reference result path: level assembly, difference tables and spectrum CSV
written as plain per-field loops, to check the library's versions against.

The library builds each level as a tuple in one call, links doublet
partners without _replace, takes first differences with map and writes a
CSV row through one %-template. These are the same steps one field at a
time: every EnergyLevel through its constructor, every float through
fmt_float. Their levels, reports and text must equal the library's, and
they raise the same errors with the same messages, in the same order.
"""

from typing import Sequence

from ptring.potential import check_coupling
from ptring.serialize import SPECTRUM_COLUMNS, fmt_float
from ptring.spectrum import EnergyLevel, SpectrumReport


def energies_from_roots(roots: Sequence, Z: float) -> list[EnergyLevel]:
    """ptring.spectrum.energies_from_roots, one level at a time."""
    check_coupling(Z)
    levels: list[EnergyLevel] = []
    for r in roots:
        if not r.t > 0:
            raise ValueError("every root must have t > 0")
        s = Z / (2.0 * r.t)
        e = s * s - r.t * r.t
        for _ in range(2 if r.unresolved_doublet else 1):
            n = len(levels)
            levels.append(EnergyLevel(n, r.t, s, e, n % 4, None, r.factor))
    order = [(-r.t, r.factor) for r in roots]
    if any(a >= b for a, b in zip(order, order[1:])):
        raise ValueError(
            "roots must be strictly descending in t, by ascending factor at equal t"
        )
    return levels


def first_differences(levels: Sequence[EnergyLevel]) -> list[float | None]:
    """ptring.spectrum.first_differences, by index."""
    out: list[float | None] = [None] if levels else []
    out.extend(levels[i].E - levels[i - 1].E for i in range(1, len(levels)))
    return out


def analyze_series(levels: Sequence[EnergyLevel]) -> SpectrumReport:
    """ptring.spectrum.analyze_series, linking partners with _replace."""
    delta = first_differences(levels)
    n_max = len(levels) - 1
    even_second = tuple((n, delta[n] - delta[n - 4]) for n in range(6, n_max + 1, 2))
    odd_second = tuple((n, delta[n] - delta[n - 2]) for n in range(3, n_max + 1, 2))
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
        linked = (
            lo.doublet_partner == hi.n
            or (lo.t, lo.branch) == (hi.t, hi.branch)
            or (None not in (lo.branch, hi.branch) and lo.branch ^ hi.branch == 1)
        )
        if linked:
            pairs.append((lo.n, hi.n, delta[i + 1]))
            tagged[i] = lo._replace(doublet_partner=hi.n)
            tagged[i + 1] = hi._replace(doublet_partner=lo.n)
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


def spectrum_to_csv(
    levels: Sequence[EnergyLevel], delta1: Sequence[float | None]
) -> str:
    """ptring.serialize.spectrum_to_csv, one fmt_float call per float."""
    if len(levels) != len(delta1):
        raise ValueError("levels and delta1 must have equal length")
    lines = [",".join(SPECTRUM_COLUMNS)]
    for lvl, d in zip(levels, delta1):
        row = [
            str(lvl.n),
            fmt_float(lvl.t),
            fmt_float(lvl.s),
            fmt_float(lvl.E),
            "" if d is None else fmt_float(d),
            str(lvl.series),
            "" if lvl.doublet_partner is None else str(lvl.doublet_partner),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
