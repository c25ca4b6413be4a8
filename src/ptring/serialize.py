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
from typing import Iterable, Sequence

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


# one spectrum row, in the order both formats write it
SPECTRUM_COLUMNS = ("n", "t", "s", "E", "delta1", "series", "doublet_partner")


def _spectrum_rows(
    levels: Sequence[EnergyLevel], delta1: Sequence[float | None], none: str
) -> list[list[str]]:
    """Each level's SPECTRUM_COLUMNS values as text, with none for None."""
    if len(levels) != len(delta1):
        raise ValueError("levels and delta1 must have equal length")
    return [
        [
            str(lvl.n),
            fmt_float(lvl.t),
            fmt_float(lvl.s),
            fmt_float(lvl.E),
            none if d is None else fmt_float(d),
            str(lvl.series),
            none if lvl.doublet_partner is None else str(lvl.doublet_partner),
        ]
        for lvl, d in zip(levels, delta1)
    ]


def _read_spectrum(rows: Iterable[Sequence], none, **meta) -> SpectrumDocument:
    """Invert _spectrum_rows: rows of SPECTRUM_COLUMNS values, none for None."""
    levels, delta1 = [], []
    for n, t, s, E, d, series, partner in rows:
        levels.append(
            EnergyLevel(
                n=int(n),
                t=float(t),
                s=float(s),
                E=float(E),
                series=int(series),
                doublet_partner=None if partner == none else int(partner),
            )
        )
        delta1.append(None if d == none else float(d))
    return SpectrumDocument(tuple(levels), tuple(delta1), **meta)


def _json_document(fields: Sequence, key: str, names: Sequence, rows: Sequence) -> str:
    """A JSON object: fields, then key's array of flat objects, one a line.

    fields are (name, JSON text) pairs; each row holds the JSON texts of
    the values of names, in order.
    """
    lines = ["{", *(f'  "{k}": {v},' for k, v in fields), f'  "{key}": [']
    cells = ", ".join(f'"{k}": {{}}' for k in names)
    for i, values in enumerate(rows):
        tail = "," if i < len(rows) - 1 else ""
        lines.append(f"    {{{cells.format(*values)}}}{tail}")
    lines.extend(["  ]", "}"])
    return "\n".join(lines) + "\n"


def spectrum_to_csv(
    levels: Sequence[EnergyLevel], delta1: Sequence[float | None]
) -> str:
    """One row per level, columns SPECTRUM_COLUMNS.

    None fields (delta1 at n=0, missing partner) are left empty.
    """
    lines = [",".join(SPECTRUM_COLUMNS)]
    lines.extend(",".join(row) for row in _spectrum_rows(levels, delta1, ""))
    return "\n".join(lines) + "\n"


def parse_spectrum_csv(text: str) -> SpectrumDocument:
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows or tuple(rows[0]) != SPECTRUM_COLUMNS:
        raise ValueError("not a spectrum CSV: bad or missing header")
    for row in rows[1:]:
        if len(row) != len(SPECTRUM_COLUMNS):
            raise ValueError(
                f"spectrum CSV row has {len(row)} fields, "
                f"want {len(SPECTRUM_COLUMNS)}"
            )
    return _read_spectrum(rows[1:], "")


def spectrum_to_json(
    levels: Sequence[EnergyLevel],
    delta1: Sequence[float | None],
    Z: float,
    M: int,
    backend: str,
) -> str:
    fields = [("Z", fmt_float(Z)), ("M", str(M)), ("backend", json.dumps(backend))]
    rows = _spectrum_rows(levels, delta1, "null")
    return _json_document(fields, "levels", SPECTRUM_COLUMNS, rows)


def parse_spectrum_json(text: str) -> SpectrumDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"not a spectrum JSON document: {e}") from e
    try:
        return _read_spectrum(
            ([d[k] for k in SPECTRUM_COLUMNS] for d in obj["levels"]),
            None,
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
    fields = [
        ("circumference", fmt_float(pot.circumference)),
        ("start", fmt_float(pot.start)),
    ]
    rows = [(fmt_float(width), fmt_float(v.imag)) for width, v in pot.segments]
    return _json_document(fields, "segments", ("width", "im"), rows)


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
