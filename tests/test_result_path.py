"""The result path, record to CSV row, against its per-field reference.

energies_from_roots, analyze_series and spectrum_to_csv must give the
levels, reports and bytes of the plain loops in result_reference.py, and
raise what they raise, for any record list find_roots may return.
"""

import math
import random

import pytest
import result_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ptring import (
    EnergyLevel,
    RootRecord,
    analyze_series,
    energies_from_roots,
    fmt_float,
    spectrum_to_csv,
    spectrum_to_json,
)


@st.composite
def record_lists(draw):
    """0-130 records as find_roots returns them: strictly descending t and,
    at one t, ascending factors; some stand for a doublet."""
    ts = draw(st.lists(st.floats(1e-4, 20.0), max_size=130, unique=True))
    records = []
    for t in sorted(ts, reverse=True):
        for k in sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3))):
            records.append(
                RootRecord(t, -30.0, 1e-13 * t, draw(st.booleans()), k)
            )
    return records[:130]


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (AttributeError, TypeError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(records=record_lists(), Z=st.floats(1e-6, 60.0), data=st.data())
def test_result_path_matches_the_per_field_reference(records, Z, data):
    """Equal levels, each an EnergyLevel, equal reports on the whole
    spectrum and on a cut of it, and byte-equal CSV and JSON."""
    levels = energies_from_roots(records, Z)
    assert levels == ref.energies_from_roots(records, Z)
    assert all(type(lvl) is EnergyLevel for lvl in levels)
    cut = data.draw(st.integers(0, len(levels)))
    for part in (levels, levels[:cut]):
        report = analyze_series(part)
        want = ref.analyze_series(part)
        assert report == want
        assert all(type(lvl) is EnergyLevel for lvl in report.levels)
        assert spectrum_to_csv(report.levels, report.delta1) == ref.spectrum_to_csv(
            want.levels, want.delta1
        )
        assert spectrum_to_json(
            report.levels, report.delta1, Z, 1, "explicit"
        ) == spectrum_to_json(want.levels, want.delta1, Z, 1, "explicit")


@settings(max_examples=100, deadline=None)
@given(records=record_lists(), seed=st.integers(0, 2**32 - 1))
def test_energies_raise_what_the_reference_raises(records, seed):
    """Records out of order, or with a t <= 0 anywhere, raise the
    reference's error: a non-positive t is named before an order fault."""
    rng = random.Random(seed)
    records = list(records)
    rng.shuffle(records)
    if records and rng.random() < 0.5:
        i = rng.randrange(len(records))
        records[i] = records[i]._replace(t=rng.choice([0.0, -1.0, math.nan]))
    assert _outcome(energies_from_roots, records, 1.0) == _outcome(
        ref.energies_from_roots, records, 1.0
    )


@pytest.mark.parametrize(
    "x", [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
def test_csv_row_template_writes_what_fmt_float_writes(x):
    """A row's floats, with and without delta1, as fmt_float writes them."""
    levels = [EnergyLevel(0, x, x, x, 0, None), EnergyLevel(1, x, x, x, 1, 0)]
    text = spectrum_to_csv(levels, [None, x])
    f = fmt_float(x)
    assert text.splitlines()[1:] == [f"0,{f},{f},{f},,0,", f"1,{f},{f},{f},{f},1,0"]
    assert text == ref.spectrum_to_csv(levels, [None, x])


@pytest.mark.parametrize(
    "levels,delta1",
    [
        ([EnergyLevel(0, 0.5, 1.0, 0.75, 0)], []),
        ([EnergyLevel(0, 0.5, 1.0, 0.75, 0)], [None, 1.0]),
        ([EnergyLevel(0, "0.5", 1.0, 0.75, 0)], [None]),
        ([EnergyLevel(0, 0.5, None, 0.75, 0)], [None]),
        (
            [EnergyLevel(0, 0.5, 1.0, 0.75, 0), EnergyLevel(1, 0.5, 1.0, 0.75, 1)],
            [None, "1"],
        ),
        ([(0, 0.5, 1.0)], [None]),
    ],
)
def test_csv_raises_what_the_reference_raises(levels, delta1):
    """A length mismatch, a field fmt_float cannot format or a level of
    other fields than an EnergyLevel's raises the per-field path's error."""
    got = _outcome(spectrum_to_csv, levels, delta1)
    assert isinstance(got, tuple)
    assert got == _outcome(ref.spectrum_to_csv, levels, delta1)
