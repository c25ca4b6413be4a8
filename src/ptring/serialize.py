"""Canonical CSV/JSON emitters and parsers for spectra, scans, potentials.

Every float is rendered with fmt_float (12 significant digits, lowercase
e-notation) and emitters build their output byte-by-byte, so parsing an
emitted document and re-emitting it reproduces the input exactly. CSV uses
a comma separator, a header row, and LF line endings. A potential is
written from its SquareWell's (M, Z) alone. The spectrum parsers accept
only what the emitters can write: finite floats, and levels numbered by
their row, ascending in E, whose doublet partners are adjacent and name
each other.
"""

import csv
import io
import itertools
import json
import math
import re
from typing import Iterable, NamedTuple, Sequence

from .potential import CIRCUMFERENCE, MAX_SEGMENTS, START, SquareWell
from .spectrum import EnergyLevel, SpectrumReport


# the format spec of every float's text: fmt_float's, and in the %-templates
# of spectrum_to_csv, where "%" + spec writes the same text
_FLOAT_SPEC = ".11e"


def fmt_float(x: float) -> str:
    """12-significant-digit lowercase scientific notation, round-trip stable."""
    return f"{x:{_FLOAT_SPEC}}"


class SpectrumDocument(NamedTuple):
    """A parsed spectrum file: level rows plus run metadata (JSON only)."""

    levels: tuple[EnergyLevel, ...]
    delta1: tuple[float | None, ...]
    Z: float | None = None
    M: int | None = None
    backend: str | None = None


# an integer field as str(int) writes it, and a float field as a JSON
# number with a fraction or an exponent, the form fmt_float writes; each is
# compiled on the first parse
_INTEGER = r"-?(0|[1-9][0-9]*)"
_FLOAT = _INTEGER + r"(?=[.eE])(\.[0-9]+)?([eE][-+]?[0-9]+)?"
# one spectrum row, in the order both formats write it
SPECTRUM_COLUMNS = ("n", "t", "s", "E", "delta1", "series", "doublet_partner")
# the text rule and the type of each column's CSV cells
_CSV_CELLS = ((_INTEGER, int), *[(_FLOAT, float)] * 4, *[(_INTEGER, int)] * 2)
# a level's CSV row, and one without its delta1, which %.0s leaves empty: n,
# series and doublet_partner as str() writes them, the floats as fmt_float does
_CSV_ROW = "%s,{0},{0},{0},{0},%s,%s".format("%" + _FLOAT_SPEC)
_CSV_ROW_NO_DELTA = "%s,{0},{0},{0},%.0s,%s,%s".format("%" + _FLOAT_SPEC)


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


def _finite(name: str, value) -> float:
    """value itself; a ValueError naming the field unless it is a finite
    float as the emitters write one: a JSON number with a fraction or an
    exponent, or in CSV its text, which parse_spectrum_csv reads as a
    float. NaN, Infinity and 1e400, which json reads as floats, are
    refused, and so are an integer, a boolean, a JSON string and CSV text
    that float() would read, such as "5_0.0", " 1" or "+1"."""
    if type(value) is float and math.isfinite(value):
        return value
    raise ValueError(
        f"spectrum field {name} must be finite and written as a float, got {value!r}"
    )


def _integer(name: str, value) -> int:
    """value itself; a ValueError naming the field unless it is an int as
    the emitters write one: a JSON integer, or in CSV its decimal text,
    which parse_spectrum_csv reads as an int. A float such as 2.5 or 1e400,
    a boolean and a JSON string are refused."""
    if type(value) is int:
        return value
    raise ValueError(f"spectrum field {name} must be an integer, got {value!r}")


def _read_spectrum(rows: Iterable[Sequence], none, **meta) -> SpectrumDocument:
    """Invert _spectrum_rows: rows of SPECTRUM_COLUMNS values, none for None.

    A t, s, E or delta1 that is no finite float (_finite), a series or
    doublet_partner that is no integer (_integer), or an n that is not the
    row's index as an integer, is a ValueError: analysis pairs levels by
    their place in the list. So are an E below the level before it and a
    doublet_partner that is not n - 1 or n + 1 or whose level does not name
    n back, which analyze_series never writes."""
    levels, delta1 = [], []
    for i, (n, t, s, E, d, series, p) in enumerate(rows):
        if type(n) is not int or n != i:
            raise ValueError(f"spectrum level {i} has n={n!r}, want n={i}")
        levels.append(
            EnergyLevel(
                n=i,
                t=_finite("t", t),
                s=_finite("s", s),
                E=_finite("E", E),
                series=_integer("series", series),
                doublet_partner=None if p == none else _integer("doublet_partner", p),
            )
        )
        delta1.append(None if d == none else _finite("delta1", d))
        if i and E < levels[i - 1].E:
            raise ValueError(f"spectrum level {i} has E={E!r}, below level {i - 1}'s")
    partner = [lvl.doublet_partner for lvl in levels]
    for n, p in enumerate(partner):
        # the slice is empty for p = -1 and p = len(levels)
        if p is not None and (abs(p - n) != 1 or partner[p : p + 1] != [n]):
            raise ValueError(
                f"spectrum level {n} has doublet_partner={p}, "
                f"not an adjacent level that names it back"
            )
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

    None fields (delta1 at n=0, missing partner) are left empty. A row is
    one %-template (_CSV_ROW); where a level is no 7-field tuple of fields
    the template takes, or delta1 has another length, the rows are written
    field by field (_spectrum_rows), which raises its own error.
    """
    lines = [",".join(SPECTRUM_COLUMNS)]
    try:
        lines += [
            (_CSV_ROW if d is not None else _CSV_ROW_NO_DELTA)
            % (n, t, s, E, d, q, "" if p is None else p)
            for (n, t, s, E, q, p, _), d in zip(levels, delta1, strict=True)
        ]
    except (TypeError, ValueError):
        lines += map(",".join, _spectrum_rows(levels, delta1, ""))
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
        # each cell as the JSON reader gets it: the text of an integer or a
        # float as the emitters write it read as one, any other kept as text
        row[:] = [
            kind(c) if re.fullmatch(rule, c) else c
            for c, (rule, kind) in zip(row, _CSV_CELLS)
        ]
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
            Z=_finite("Z", obj["Z"]),
            M=_integer("M", obj["M"]),
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


def potential_to_json(well: SquareWell) -> str:
    """The circle and the well's 4M segments, one (width, im) row each."""
    fields = [
        ("circumference", fmt_float(CIRCUMFERENCE)),
        ("start", fmt_float(START)),
    ]
    width = fmt_float(1.0 / well.M)
    rows = [(width, fmt_float(well.Z)), (width, fmt_float(-well.Z))] * (2 * well.M)
    return _json_document(fields, "segments", ("width", "im"), rows)


def potential_to_csv(well: SquareWell, samples: int) -> str:
    """Imaginary part of V on a uniform midpoint grid, columns s, im_V.

    A leading comment line lists the segment boundaries so block edges can
    be drawn exactly rather than read off the grid. Each edge is the
    running sum of the widths from START, not START + j/M, which differ in
    the last place (the x = 0 edge of M = 3 is -3.33066907388e-16). A sample
    count below 1 or above MAX_SEGMENTS is a ValueError, raised before any
    row is built.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    if samples > MAX_SEGMENTS:
        raise ValueError(
            f"a table of {samples} samples is more than the {MAX_SEGMENTS} "
            f"allowed; request fewer (--samples)"
        )
    h, last = 1.0 / well.M, 4 * well.M - 1
    edges = itertools.accumulate(itertools.repeat(h, last + 1), initial=START)
    lines = [f"# boundaries,{','.join(map(fmt_float, edges))}", "s,im_V"]
    values = fmt_float(well.Z), fmt_float(-well.Z)
    # the offsets ascend, so one walk over the segments serves every sample.
    # It compares each offset with the running width sum: a sample on an
    # edge then falls on the side that sum puts it, which an exact integer
    # rule would move for many (M, samples)
    step = CIRCUMFERENCE / samples
    j, acc = 0, h
    for i in range(samples):
        x = START + (i + 0.5) * step
        offset = (x - START) % CIRCUMFERENCE
        while j < last and not offset < acc:
            j += 1
            acc += h
        lines.append(f"{fmt_float(x)},{values[j % 2]}")
    return "\n".join(lines) + "\n"


def scan_to_csv(t, sign, logmag) -> str:
    """Secular scan table, columns t, sign, logmag (logmag is log|F|), one
    row per entry of the equal-length numpy arrays scan_secular returns."""
    lines = ["t,sign,logmag"]
    # the row lists live only as long as the generator, not through the join
    lines.extend(
        f"{fmt_float(x)},{s},{fmt_float(y)}"
        for x, s, y in zip(t.tolist(), sign.tolist(), logmag.tolist())
    )
    return "\n".join(lines) + "\n"
