"""Canonical CSV/JSON emitters and parsers for spectra, scans, potentials.

Every float is rendered with fmt_float (12 significant digits, lowercase
e-notation) and emitters build their output byte-by-byte, so parsing an
emitted document and re-emitting it reproduces the input exactly. CSV uses
a comma separator, a header row, and LF line endings.
"""

import csv
import io
import json
from dataclasses import dataclass
from typing import Sequence

from .potential import CirclePotential
from .spectrum import EnergyLevel, SpectrumReport


def fmt_float(x: float) -> str:
    """12-significant-digit lowercase scientific notation, round-trip stable."""
    return f"{x:.11e}"


@dataclass(frozen=True)
class SpectrumDocument:
    """A parsed spectrum file: level rows plus run metadata (JSON only)."""

    levels: tuple[EnergyLevel, ...]
    delta1: tuple[float | None, ...]
    Z: float | None = None
    M: int | None = None
    backend: str | None = None


def spectrum_to_csv(
    levels: Sequence[EnergyLevel], delta1: Sequence[float | None]
) -> str:
    """One row per level: n, t, s, E, delta1, series, doublet_partner.

    None fields (delta1 at n=0, missing partner) are left empty.
    """
    if len(levels) != len(delta1):
        raise ValueError("levels and delta1 must have equal length")
    lines = ["n,t,s,E,delta1,series,doublet_partner"]
    for lvl, d in zip(levels, delta1):
        lines.append(
            f"{lvl.n},{fmt_float(lvl.t)},{fmt_float(lvl.s)},{fmt_float(lvl.E)},"
            f"{'' if d is None else fmt_float(d)},{lvl.series},"
            f"{'' if lvl.doublet_partner is None else lvl.doublet_partner}"
        )
    return "\n".join(lines) + "\n"


def parse_spectrum_csv(text: str) -> SpectrumDocument:
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows or rows[0] != ["n", "t", "s", "E", "delta1", "series", "doublet_partner"]:
        raise ValueError("not a spectrum CSV: bad or missing header")
    levels = []
    delta1: list[float | None] = []
    for row in rows[1:]:
        if len(row) != 7:
            raise ValueError(f"spectrum CSV row has {len(row)} fields, want 7")
        levels.append(
            EnergyLevel(
                n=int(row[0]),
                t=float(row[1]),
                s=float(row[2]),
                E=float(row[3]),
                series=int(row[5]),
                doublet_partner=int(row[6]) if row[6] else None,
            )
        )
        delta1.append(float(row[4]) if row[4] else None)
    return SpectrumDocument(levels=tuple(levels), delta1=tuple(delta1))


def spectrum_to_json(
    levels: Sequence[EnergyLevel],
    delta1: Sequence[float | None],
    Z: float,
    M: int,
    backend: str,
) -> str:
    if len(levels) != len(delta1):
        raise ValueError("levels and delta1 must have equal length")
    lines = [
        "{",
        f'  "Z": {fmt_float(Z)},',
        f'  "M": {M},',
        f'  "backend": {json.dumps(backend)},',
        '  "levels": [',
    ]
    for i, (lvl, d) in enumerate(zip(levels, delta1)):
        dd = "null" if d is None else fmt_float(d)
        dp = "null" if lvl.doublet_partner is None else str(lvl.doublet_partner)
        tail = "," if i < len(levels) - 1 else ""
        lines.append(
            f'    {{"n": {lvl.n}, "t": {fmt_float(lvl.t)}, '
            f'"s": {fmt_float(lvl.s)}, "E": {fmt_float(lvl.E)}, '
            f'"delta1": {dd}, "series": {lvl.series}, '
            f'"doublet_partner": {dp}}}{tail}'
        )
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


def parse_spectrum_json(text: str) -> SpectrumDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not a spectrum JSON document: {e}") from e
    try:
        raw_levels = obj["levels"]
        levels = tuple(
            EnergyLevel(
                n=int(d["n"]),
                t=float(d["t"]),
                s=float(d["s"]),
                E=float(d["E"]),
                series=int(d["series"]),
                doublet_partner=(
                    None if d["doublet_partner"] is None else int(d["doublet_partner"])
                ),
            )
            for d in raw_levels
        )
        delta1 = tuple(
            None if d["delta1"] is None else float(d["delta1"]) for d in raw_levels
        )
        return SpectrumDocument(
            levels=levels,
            delta1=delta1,
            Z=float(obj["Z"]),
            M=int(obj["M"]),
            backend=str(obj["backend"]),
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"spectrum JSON missing or malformed field: {e}") from e


def analysis_to_csv(report: SpectrumReport) -> str:
    """Long-format difference tables: kind, n, value.

    kind is one of even_second, odd_second, odd_third, odd_third_nested,
    quasi_pair; for quasi_pair rows n is the lower level of the pair and
    value is the energy gap.
    """
    lines = ["kind,n,value"]
    for kind, table in (
        ("even_second", report.even_second),
        ("odd_second", report.odd_second),
        ("odd_third", report.odd_third),
        ("odd_third_nested", report.odd_third_nested),
    ):
        lines.extend(f"{kind},{n},{fmt_float(v)}" for n, v in table)
    lines.extend(
        f"quasi_pair,{i},{fmt_float(gap)}" for i, _j, gap in report.quasi_pairs
    )
    return "\n".join(lines) + "\n"


def potential_to_json(pot: CirclePotential) -> str:
    lines = [
        "{",
        f'  "circumference": {fmt_float(pot.circumference)},',
        f'  "start": {fmt_float(pot.start)},',
        '  "segments": [',
    ]
    for i, (width, value) in enumerate(pot.segments):
        tail = "," if i < len(pot.segments) - 1 else ""
        lines.append(
            f'    {{"width": {fmt_float(width)}, "im": {fmt_float(value.imag)}}}{tail}'
        )
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


def potential_to_csv(pot: CirclePotential, samples: int) -> str:
    """Imaginary part of V on a uniform midpoint grid, columns s, im_V.

    A leading comment line lists the segment boundaries so block edges can
    be drawn exactly rather than read off the grid.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    edges = ",".join(fmt_float(b) for b in pot.boundaries())
    lines = [f"# boundaries,{edges}", "s,im_V"]
    step = pot.circumference / samples
    for i in range(samples):
        x = pot.start + (i + 0.5) * step
        lines.append(f"{fmt_float(x)},{fmt_float(pot.value_at(x).imag)}")
    return "\n".join(lines) + "\n"


def scan_to_csv(samples: Sequence) -> str:
    """Secular scan table, columns t, sign, logmag (logmag is log|F|)."""
    lines = ["t,sign,logmag"]
    lines.extend(
        f"{fmt_float(p.t)},{p.sign},{fmt_float(p.logmag)}" for p in samples
    )
    return "\n".join(lines) + "\n"
