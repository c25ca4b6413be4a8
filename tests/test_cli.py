"""End-to-end command behavior: formats, exit codes, round trips."""

import ast
import contextlib
import functools
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ptring
import ptring.cli
from product_oracle import layout

from ptring import (
    EnergyLevel,
    SpectrumDocument,
    build_square_well,
    fmt_float,
    parse_spectrum_csv,
    parse_spectrum_json,
    potential_to_csv,
    potential_to_json,
    scan_to_csv,
    spectrum_to_csv,
    spectrum_to_json,
)
from ptring.cli import main
from ptring.potential import MAX_SEGMENTS, Z_FLOOR


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _process_env() -> dict:
    """The environment of a child interpreter that imports this ptring."""
    src = os.path.dirname(os.path.dirname(ptring.__file__))
    return dict(os.environ, PYTHONPATH=src)


# --- spectrum -----------------------------------------------------------------


def test_spectrum_csv_18_rows(capsys):
    code, out, err = _run(
        capsys, ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "18"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,t,s,E,delta1,series,doublet_partner"
    assert len(lines) == 19
    row0 = lines[1].split(",")
    assert row0[0] == "0"
    assert float(row0[1]) == pytest.approx(0.6564195696, abs=1e-9)
    assert row0[4] == ""  # no gap below the ground state
    row4 = lines[5].split(",")
    assert float(row4[4]) == pytest.approx(0.102340, abs=1e-5)
    assert row4[6] == "3"


def test_spectrum_rejects_zero_m(capsys):
    code, _out, err = _run(capsys, ["spectrum", "--Z", "1", "--M", "0"])
    assert code == 1
    assert "error" in err


def test_spectrum_backend_requires_m1(capsys):
    code, _out, err = _run(
        capsys, ["spectrum", "--Z", "1", "--M", "2", "--backend", "explicit"]
    )
    assert code == 1
    assert "explicit backend requires M=1" in err


def test_spectrum_monodromy_z1_partial(capsys):
    """The strictly periodic system has only 13 real levels below the window
    ceiling at Z = 1; the other slots hold complex conjugate pairs."""
    code, out, err = _run(capsys, ["spectrum", "--Z", "1", "--levels", "18"])
    assert code == 2
    assert "13 of 18" in err
    assert len(out.strip().split("\n")) == 1 + 13


def test_spectrum_explicit_strong_coupling_has_no_spurious_levels(capsys):
    """At Z = 16 every level has E >= -Z; an LU of the matching matrix that
    cancels pivots to exact zeros above t = 18.8 once reported five levels
    near E = -400 here."""
    code, out, _err = _run(
        capsys, ["spectrum", "--Z", "16", "--backend", "explicit", "--levels", "5"]
    )
    assert code in (0, 2)
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert rows
    assert all(float(row[3]) >= -16.0 for row in rows)


def test_spectrum_json_round_trip(capsys):
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "0.1", "--backend", "explicit", "--levels", "2",
         "--format", "json"],
    )
    assert code == 0
    doc = parse_spectrum_json(out)
    assert doc.Z == 0.1 and doc.M == 1 and doc.backend == "explicit"
    assert len(doc.levels) == 2
    again = spectrum_to_json(doc.levels, doc.delta1, doc.Z, doc.M, doc.backend)
    assert again == out


def test_spectrum_csv_round_trip(capsys):
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "6"],
    )
    assert code == 0
    doc = parse_spectrum_csv(out)
    assert spectrum_to_csv(doc.levels, doc.delta1) == out


def test_spectrum_document_is_a_frozen_record():
    level = EnergyLevel(0, 0.5, 1.0, 0.75, 0)
    doc = SpectrumDocument((level,), (None,))
    assert repr(doc) == (
        "SpectrumDocument(levels=(EnergyLevel(n=0, t=0.5, s=1.0, E=0.75, "
        "series=0, doublet_partner=None, branch=None),), delta1=(None,), Z=None, "
        "M=None, backend=None)"
    )
    assert doc._replace(Z=1.0).Z == 1.0
    with pytest.raises(AttributeError):
        doc.Z = 1.0


def test_spectrum_writes_file(tmp_path, capsys):
    target = tmp_path / "levels.csv"
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "3",
         "--output", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,t,s,E,")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "3"],
        ["potential", "--Z", "1"],
        ["scan", "--Z", "1", "--samples", "16"],
    ],
    ids=["spectrum", "potential", "scan"],
)
def test_output_in_missing_directory_exits_1(tmp_path, capsys, argv):
    """An unwritable --output is an error line and exit 1, not a
    traceback."""
    target = tmp_path / "missing" / "out.csv"
    code, out, err = _run(capsys, argv + ["--output", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err


def test_spectrum_at_the_z_floor(capsys):
    """Z = Z_FLOOR still finds every level; the next smaller double is a
    domain error."""
    code, out, _err = _run(capsys, ["spectrum", "--Z", repr(Z_FLOOR), "--levels", "3"])
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 3
    below = repr(math.nextafter(Z_FLOOR, 0.0))
    code, out, err = _run(capsys, ["spectrum", "--Z", below])
    assert code == 1
    assert out == ""
    assert err == f"error: Z must be finite and at least 1e-200, got {below}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--Z", "inf"],
        ["spectrum", "--Z", "inf", "--t-min", "1", "--t-max", "2"],
        ["scan", "--Z", "inf"],
        ["potential", "--Z", "inf"],
    ],
    ids=["spectrum", "spectrum-window", "scan", "potential"],
)
def test_infinite_coupling_exits_1(capsys, argv):
    """An infinite Z is a domain error with one error line, not a table of
    infinities or a complaint about the master grid's size."""
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: Z must be finite and at least 1e-200, got inf\n"


@pytest.mark.parametrize(
    "argv,ceiling",
    [
        # t_min = 5096.06 lies above t_max = 5000
        (["--Z", "1e6", "--levels", "100"], "-2.59602e+07"),
        # t_min = 259.9 lies below t_max = 500, but the window holds no E > 0
        (["--Z", "1e4", "--levels", "18"], "-67177.3"),
        # t_min^2 leaves the double range: float ** would raise OverflowError
        (["--Z", "1e200", "--levels", "2"], "-inf"),
        (["--Z", "1.7e308", "--levels", "18"], "-inf"),
    ],
)
def test_spectrum_default_window_without_positive_energy_exits_1(capsys, argv, ceiling):
    """At large Z the default t floor ignores the -t^2 of E = s^2 - t^2;
    where its window reaches no positive energy, the run is a domain error
    naming Z, the level count and --t-min, not a silent "no roots found"."""
    code, out, err = _run(capsys, ["spectrum", *argv])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: the default scan window")
    assert f"levels at Z={float(argv[1])!r}" in err and argv[3] + " levels" in err
    assert f"E up to {ceiling};" in err and "--t-min" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--Z", "5.542309700412018"],
        ["--Z", "2.9247978864107305", "--backend", "explicit", "--levels", "18"],
    ],
)
def test_spectrum_within_rounding_noise_of_an_exceptional_point_exits_1(capsys, argv):
    """A few ulps from an exceptional point, where the sign of the factor
    that holds the meeting pair is rounding noise, the run is one error
    naming Z, not a spectrum of noise roots."""
    code, out, err = _run(capsys, ["spectrum", *argv])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(
        f"error: at Z={float(argv[1])!r} a pair lies within rounding noise of an "
        f"exceptional point"
    )


@pytest.mark.parametrize(
    "argv,points",
    [
        (["--t-min", "1e-300"], "2.714e+301"),
        (["--t-min", "5e-324"], "inf"),
        (["--levels", "10000000"], "5.222e+08"),
    ],
)
def test_spectrum_oversized_master_grid_exits_1(capsys, monkeypatch, argv, points):
    """A window whose master grid would exceed its bound is a domain error
    naming the point count, --t-min and --levels, raised before the grid is
    allocated or the secular function is called."""

    def refuse(f, ts):
        raise AssertionError("the grid was evaluated")

    monkeypatch.setattr(ptring.roots, "_evaluate", refuse)
    code, out, err = _run(capsys, ["spectrum", "--Z", "1", *argv])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"would take {points} points" in err
    assert "--t-min" in err and "--levels" in err


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["scan", "--Z", "1", "--t-min", "0"], ["--t-min"]),
        (["spectrum", "--Z", "1", "--t-min", "2", "--t-max", "1"],
         ["--t-min", "--t-max"]),
        # not finite, or so large that s = Z/(2 t_max) underflows to 0
        (["spectrum", "--Z", "1", "--t-max", "inf"], ["--t-max"]),
        (["scan", "--Z", "1", "--t-max", "inf"], ["--t-max"]),
        (["spectrum", "--Z", "1", "--t-max", "1e308"], ["--t-max"]),
        (["spectrum", "--Z", "1e-200", "--t-max", "1e200"], ["--t-max"]),
        # a given t_max is checked before the default floor's energy
        (["spectrum", "--Z", "1", "--t-max", "nan"], ["--t-max"]),
        # a t_max at or below the default t_min, which the message calls so
        (["spectrum", "--Z", "1", "--t-max", "0.001"],
         ["--t-max", "--t-min", "t_min is the default for 18 levels at Z=1.0"]),
    ],
)
def test_bad_window_names_its_flags(capsys, argv, flags):
    """A window that is not positive, not ordered or not finite is a domain
    error naming the flags that set it, as a bad sample count names
    --samples, and calling a t_min the user did not set the default."""
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert all(flag in err for flag in flags)


@pytest.mark.parametrize(
    "levels,partners",
    [
        ("6", ["", "2", "1", "4", "3", ""]),
        ("7", ["", "2", "1", "4", "3", "6", "5"]),
    ],
)
def test_spectrum_partner_column_where_levels_cuts_a_doublet(capsys, levels, partners):
    """At M = 8 the levels from n = 1 on come in unresolved doublets; a level
    whose partner lies beyond --levels is printed without one."""
    code, out, _err = _run(
        capsys, ["spectrum", "--Z", "1", "--M", "8", "--levels", levels]
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[6] for row in rows] == partners


# --- scan ----------------------------------------------------------------------


def test_scan_csv_columns_and_signs(capsys):
    code, out, _err = _run(
        capsys,
        ["scan", "--Z", "1", "--t-min", "0.66", "--t-max", "1.2",
         "--samples", "128", "--backend", "explicit"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,sign,logmag"
    assert len(lines) == 129
    assert all(line.split(",")[1] == "-1" for line in lines[1:])


def test_scan_to_csv_formats_each_row():
    text = scan_to_csv(
        np.array([0.5, 0.25]), np.array([0, -1]), np.array([-np.inf, 2.5])
    )
    assert text == (
        "t,sign,logmag\n"
        "5.00000000000e-01,0,-inf\n"
        "2.50000000000e-01,-1,2.50000000000e+00\n"
    )


def test_scan_peak_memory_is_a_few_times_its_text(capsys, tmp_path):
    """A scan holds its t, sign and logmag arrays and its text, not one
    object per row: the traced peak of a 10^5-sample scan, once numpy and
    the command are loaded, is at most six times the bytes it writes (7.4
    with one object per row, 5.1 without)."""
    out = tmp_path / "scan.csv"
    assert main(["scan", "--Z", "1", "--samples", "16", "--output", str(out)]) == 0
    tracemalloc.start()
    try:
        code = main(["scan", "--Z", "1", "--samples", "100000", "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 6 * out.stat().st_size


def test_scan_doublet_crossings(capsys):
    code, out, _err = _run(
        capsys,
        ["scan", "--Z", "1", "--t-min", "0.155", "--t-max", "0.165",
         "--samples", "2048", "--backend", "explicit"],
    )
    assert code == 0
    signs = [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    assert flips == 2


def test_scan_monodromy_ground_crossing(capsys):
    # the strictly periodic ground root sits at 0.678, inside this window
    code, out, _err = _run(
        capsys,
        ["scan", "--Z", "1", "--t-min", "0.66", "--t-max", "0.70",
         "--samples", "64"],
    )
    assert code == 0
    signs = [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)
    assert flips == 1


@pytest.mark.parametrize("backend", ["explicit", "monodromy"])
def test_scan_overflow_exits_1(capsys, backend):
    """From t = 1.4e154 on, E = s^2 - t^2 leaves the double range."""
    code, out, err = _run(
        capsys, ["scan", "--Z", "1", "--t-max", "1e200", "--backend", backend]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "overflowed" in err


def test_scan_rejects_tiny_sample_count(capsys):
    """A sample count below the least is a domain error naming --samples,
    as one above the bound is."""
    for samples in ("1", "10"):
        code, out, err = _run(capsys, ["scan", "--Z", "1", "--samples", samples])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert f"at least 16, got {samples}" in err and "--samples" in err


@pytest.mark.parametrize("samples", ["4194305", "100000000000000"])
def test_scan_oversized_table_exits_1(capsys, monkeypatch, samples):
    """A sample count above the bound is a domain error naming --samples,
    raised before the table is allocated or the secular function called."""

    def refuse(*args, **kwargs):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(ptring.roots.np, "linspace", refuse)
    code, out, err = _run(capsys, ["scan", "--Z", "1", "--samples", samples])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"a scan of {samples} samples" in err and "--samples" in err


# --- potential -------------------------------------------------------------------


def test_potential_blocks_m3(capsys):
    code, out, _err = _run(
        capsys, ["potential", "--M", "3", "--Z", "1", "--samples", "600"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# boundaries,")
    assert lines[1] == "s,im_V"
    vals = [float(line.split(",")[1]) for line in lines[2:]]
    assert set(vals) == {1.0, -1.0}
    blocks = 1 + sum(1 for a, b in zip(vals, vals[1:]) if a != b)
    assert blocks == 12


def test_potential_blocks_m1_z2(capsys):
    code, out, _err = _run(capsys, ["potential", "--M", "1", "--Z", "2"])
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.strip().split("\n")[2:]]
    assert set(vals) == {2.0, -2.0}
    blocks = 1 + sum(1 for a, b in zip(vals, vals[1:]) if a != b)
    assert blocks == 4


def test_potential_json_schema(capsys):
    code, out, _err = _run(
        capsys, ["potential", "--M", "1", "--Z", "1", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["circumference"] == 4.0
    assert obj["start"] == -2.0
    assert [seg["im"] for seg in obj["segments"]] == [1.0, -1.0, 1.0, -1.0]
    assert all(seg["width"] == 1.0 for seg in obj["segments"])


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["spectrum", "--Z", "1", "--M", str(MAX_SEGMENTS // 4 + 1)], "--M"),
        (["scan", "--Z", "1", "--M", "100000000"], "--M"),
        (["potential", "--Z", "1", "--M", "100000000", "--format", "json"], "--M"),
        (["potential", "--Z", "1", "--samples", str(MAX_SEGMENTS + 1)], "--samples"),
        (["potential", "--Z", "1", "--samples", "100000000"], "--samples"),
    ],
)
def test_oversized_potential_exits_1(capsys, monkeypatch, argv, flag):
    """More than MAX_SEGMENTS segments (4M of them) or potential table rows
    is a domain error naming its flag, raised before either is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(ptring.serialize, "fmt_float", refuse)
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"more than the {MAX_SEGMENTS} allowed" in err and f"({flag})" in err


WELLS = [build_square_well(M, 2.0 if M % 3 else 0.75) for M in range(1, 13)]


@pytest.mark.parametrize("pot", WELLS)
def test_potential_csv_rows_follow_value_at(pot):
    """potential_to_csv of a well is the walk over its segment layout in the
    product oracle: the boundaries line and, in each row, value_at of its
    sample. Odd and even sample counts, and samples that land exactly on a
    segment edge included (every sample at 2M, every third at 6M)."""
    segments = layout(pot)
    edges = ",".join(fmt_float(b) for b in segments.boundaries())
    M = pot.M
    for samples in [*range(1, 41), 64, 400, 997, *(k * M for k in (2, 6, 10, 14))]:
        step = segments.circumference / samples
        xs = [segments.start + (i + 0.5) * step for i in range(samples)]
        lines = potential_to_csv(pot, samples).splitlines()
        assert lines[:2] == [f"# boundaries,{edges}", "s,im_V"]
        assert lines[2:] == [
            f"{fmt_float(x)},{fmt_float(segments.value_at(x).imag)}" for x in xs
        ]


@pytest.mark.parametrize("pot", WELLS)
def test_potential_json_follows_the_layout(pot):
    """potential_to_json of a well writes the circle, then one row per
    segment of its layout in the product oracle, in order."""
    segments = layout(pot)
    rows = [
        f'    {{"width": {fmt_float(w)}, "im": {fmt_float(v.imag)}}}'
        for w, v in segments.segments
    ]
    want = [
        "{",
        f'  "circumference": {fmt_float(segments.circumference)},',
        f'  "start": {fmt_float(segments.start)},',
        '  "segments": [',
        *(row + "," for row in rows[:-1]),
        rows[-1],
        "  ]",
        "}",
    ]
    assert potential_to_json(pot) == "\n".join(want) + "\n"


# --- analyze ----------------------------------------------------------------------


def test_analyze_full_spectrum(tmp_path, capsys):
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "1", "--backend", "explicit", "--format", "json"],
    )
    assert code == 0
    src = tmp_path / "z1.json"
    src.write_text(out)
    code, out, err = _run(capsys, ["analyze", "--input", str(src)])
    assert code == 0
    assert "notice" not in err
    lines = out.strip().split("\n")
    assert lines[0] == "kind,n,value"
    table = {}
    for line in lines[1:]:
        kind, n, value = line.split(",")
        table[(kind, int(n))] = float(value)
    assert table[("even_second", 6)] == pytest.approx(2.1412, abs=1e-3)
    assert table[("even_second", 8)] == pytest.approx(-0.07696, abs=1e-4)
    assert table[("odd_second", 3)] == pytest.approx(5.0174, abs=1e-3)
    assert table[("odd_third", 11)] == pytest.approx(0.3630, abs=1e-3)
    assert table[("odd_third_nested", 11)] == pytest.approx(0.6538, abs=1e-3)
    assert table[("quasi_pair", 3)] == pytest.approx(0.10234, abs=1e-4)
    pair_rows = [k for k in table if k[0] == "quasi_pair"]
    assert sorted(n for _, n in pair_rows) == [3, 7, 11, 15]


def test_analyze_short_input_notice(tmp_path, capsys):
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "3",
         "--format", "json"],
    )
    assert code == 0
    src = tmp_path / "z1_short.json"
    src.write_text(out)
    code, out, err = _run(capsys, ["analyze", "--input", str(src)])
    assert code == 0
    assert "notice" in err
    assert out.startswith("kind,n,value")


def test_analyze_reads_stdin(monkeypatch, capsys):
    code, out, _err = _run(
        capsys,
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "12",
         "--format", "json"],
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _err = _run(capsys, ["analyze"])
    assert code == 0
    assert "even_second,6," in out


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--Z", "1"],
        ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "30"],
    ],
)
def test_analyze_reads_csv_and_json_alike(monkeypatch, capsys, argv):
    """analyze reads the CSV that spectrum writes by default, chosen by the
    first non-blank character, and prints what it prints for the JSON."""
    outputs = []
    for fmt in ("csv", "json"):
        _code, text, _err = _run(capsys, argv + ["--format", fmt])
        assert text.startswith("{" if fmt == "json" else "n,t,s,E,")
        monkeypatch.setattr("sys.stdin", io.StringIO("\n" + text))
        outputs.append(_run(capsys, ["analyze"]))
    csv_run, json_run = outputs
    assert csv_run == json_run
    assert csv_run[0] == 0 and "quasi_pair,3," in csv_run[1]


@pytest.mark.parametrize(
    "argv,pair",
    [
        # a +- pair split by 4.4% of its energy
        (["spectrum", "--Z", "2", "--backend", "explicit"], (3, 4)),
        (["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "50"], (43, 44)),
        (["spectrum", "--Z", "1", "--M", "8"], (1, 2)),
    ],
)
def test_saved_partners_survive_analyze(monkeypatch, capsys, argv, pair):
    """A saved spectrum has no branches, so analyze links its levels by the
    partner column spectrum wrote: in CSV and JSON alike, the quasi_pair
    rows are the printed pairs with their gaps, and analyzing the document
    again leaves every level as it was read."""
    for fmt, parse in (("csv", parse_spectrum_csv), ("json", parse_spectrum_json)):
        code, text, _err = _run(capsys, argv + ["--format", fmt])
        assert code == 0
        levels = parse(text).levels
        printed = [(v.n, v.doublet_partner) for v in levels if (v.doublet_partner or 0) > v.n]
        assert pair in printed
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _err = _run(capsys, ["analyze"])
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("quasi_pair,")]
        assert rows == [
            f"quasi_pair,{i},{fmt_float(levels[j].E - levels[i].E)}" for i, j in printed
        ]
        assert ptring.analyze_series(levels).levels == levels


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{<not json>}")
    code, _out, err = _run(capsys, ["analyze", "--input", str(src)])
    assert code == 1
    assert "error" in err


def _analyze_error(capsys, monkeypatch, text):
    """analyze on text: exit 1, no output and one "error:" line, returned."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run(capsys, ["analyze"])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err


@functools.cache
def _spectrum_text(fmt):
    """Six explicit levels at Z = 1, as the spectrum command prints them."""
    argv = ["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "6",
            "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", ["t", "s", "E", "delta1", "Z"])
def test_analyze_rejects_non_finite_json_fields(capsys, monkeypatch, field, token):
    """json reads NaN, Infinity and 1e400 as floats; in any float field of
    a level, or in Z, analyze names the field rather than print nan rows.
    delta1 is replaced on level 1, the first that has one."""
    lines = _spectrum_text("json").split("\n")
    i = 6 if field == "delta1" else 1 if field == "Z" else 5
    assert f'"{field}": ' in lines[i]
    lines[i] = re.sub(rf'"{field}": [^,}}]+', f'"{field}": {token}', lines[i])
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert f"field {field} must be finite" in err


@pytest.mark.parametrize("n", ["1", "2", "5", "-1", "0.0", "true", '"00"', '"0"'])
def test_analyze_rejects_levels_out_of_sequence(capsys, monkeypatch, n):
    """Each level's n must be its index, or the difference tables would pair
    the wrong levels."""
    lines = _spectrum_text("json").split("\n")
    assert lines[5].startswith('    {"n": 0, ')
    lines[5] = lines[5].replace('"n": 0', f'"n": {n}')
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert "spectrum level 0 has n=" in err


@pytest.mark.parametrize(
    "field,value",
    [
        *((f, v) for f in ("t", "s", "E", "delta1") for v in ("nan", "-inf", "1e400")),
        ("n", "0"), ("n", "2"), ("n", "01"),
    ],
)
def test_spectrum_csv_rejects_non_finite_values_and_bad_n(field, value):
    """The CSV reader applies the JSON reader's checks to level 1: every
    float field finite and n its row's index."""
    text = _spectrum_text("csv")
    assert parse_spectrum_csv(text).levels[1].n == 1
    rows = [line.split(",") for line in text.splitlines()]
    rows[2][rows[0].index(field)] = value
    bad = "\n".join(",".join(row) for row in rows) + "\n"
    message = "level 1 has n=" if field == "n" else f"field {field} must be finite"
    with pytest.raises(ValueError, match=message):
        parse_spectrum_csv(bad)


@pytest.mark.parametrize("token", ["1e400", "2.5", "1.0", "true", "false", '"1"'])
@pytest.mark.parametrize("field", ["M", "series", "doublet_partner"])
def test_analyze_rejects_non_integral_json_fields(capsys, monkeypatch, field, token):
    """M, series and doublet_partner are integers as the emitter writes
    them: a float (1e400 too, which ended in an OverflowError traceback), a
    boolean or a string of digits is one error naming the field, never a
    value truncated to an integer. The partner is replaced on level 0."""
    lines = _spectrum_text("json").split("\n")
    i = 2 if field == "M" else 5
    assert f'"{field}": ' in lines[i]
    lines[i] = re.sub(rf'"{field}": [^,}}]+', f'"{field}": {token}', lines[i])
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert f"field {field} must be an integer" in err


@pytest.mark.parametrize("token", ["true", "false", "1", '"1.0"', "null"])
@pytest.mark.parametrize("field", ["t", "s", "E", "Z"])
def test_analyze_rejects_non_float_json_fields(capsys, monkeypatch, field, token):
    """t, s, E and Z are floats as the emitter writes them: a boolean, which
    float() reads as 1.0, an integer, a string or null is one error naming
    the field."""
    lines = _spectrum_text("json").split("\n")
    i = 1 if field == "Z" else 5
    assert f'"{field}": ' in lines[i]
    lines[i] = re.sub(rf'"{field}": [^,}}]+', f'"{field}": {token}', lines[i])
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert f"field {field} must be finite and written as a float" in err


@pytest.mark.parametrize("token", ["null", "7", '["x"]'])
def test_analyze_rejects_a_backend_that_is_no_json_string(capsys, monkeypatch, token):
    """backend is a JSON string as the emitter writes it: null, a number or
    a list, which were read as the strings "None", "7" and "['x']", is one
    error naming the field."""
    lines = _spectrum_text("json").split("\n")
    assert lines[3].startswith('  "backend": ')
    lines[3] = f'  "backend": {token},'
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert "spectrum field backend must be a string, got" in err


@pytest.mark.parametrize("line,where", [(1, "spectrum JSON"), (5, "spectrum level 0")])
def test_analyze_rejects_json_keys_the_emitter_never_writes(
    capsys, monkeypatch, line, where
):
    """A top-level key other than Z, M, backend and levels, or a level key
    outside SPECTRUM_COLUMNS, is one error naming it, never ignored."""
    lines = _spectrum_text("json").split("\n")
    lines[line] = lines[line].replace('"', '"units": "eV", "', 1)
    err = _analyze_error(capsys, monkeypatch, "\n".join(lines))
    assert f"{where} has a field the emitters never write: 'units'" in err


@pytest.mark.parametrize("value", ["5_0.0", " 1", "+1", "1", "1.", ".5", "0x1p0"])
@pytest.mark.parametrize("field", ["t", "s", "E", "delta1"])
def test_analyze_rejects_csv_float_text_the_emitters_never_write(
    capsys, monkeypatch, field, value
):
    """The CSV reader reads a float field of level 1 only as JSON would read
    the number: "5_0.0", " 1", "+1" and the others, which float() reads,
    are one error naming the field."""
    text = _spectrum_text("csv")
    rows = [line.split(",") for line in text.splitlines()]
    rows[2][rows[0].index(field)] = value
    bad = "\n".join(",".join(row) for row in rows) + "\n"
    err = _analyze_error(capsys, monkeypatch, bad)
    assert f"field {field} must be finite and written as a float" in err


def _csv_edited(levels, cells):
    """The first levels rows of the six-level CSV, with the cells {(row,
    column): text} replaced."""
    rows = [line.split(",") for line in _spectrum_text("csv").splitlines()]
    rows = rows[: levels + 1]
    for (i, field), text in cells.items():
        rows[i + 1][rows[0].index(field)] = text
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_rejects_energies_that_descend(capsys, monkeypatch, fmt):
    """The emitters write levels in ascending E: a level below the one
    before it, here E = 5.0 then 1.0 in a two-level spectrum, is one error
    naming it, in either format."""
    if fmt == "csv":
        E = {(0, "E"): "5.00000000000e+00", (1, "E"): "1.00000000000e+00"}
        text = _csv_edited(2, E)
    else:
        lines = _spectrum_text("json").split("\n")
        lines[5] = re.sub(r'"E": [^,]+', '"E": 5.00000000000e+00', lines[5])
        text = "\n".join(lines)
    err = _analyze_error(capsys, monkeypatch, text)
    assert "spectrum level 1 has E=1." in err and "below level 0's" in err


def test_analyze_reads_equal_energies(capsys, monkeypatch):
    """An exact doublet prints two levels at one E, which is no descent."""
    E0 = _spectrum_text("csv").splitlines()[1].split(",")[3]
    monkeypatch.setattr("sys.stdin", io.StringIO(_csv_edited(2, {(1, "E"): E0})))
    assert _run(capsys, ["analyze"])[0] == 0


@pytest.mark.parametrize(
    "levels,partners,bad",
    [
        # beyond a two-level spectrum
        (2, {0: "5"}, (0, 5)),
        # an adjacent index past the last level, and one before the first
        (2, {1: "2"}, (1, 2)),
        (6, {0: "-1"}, (0, -1)),
        # not adjacent, though each names the other
        (6, {1: "3", 3: "1", 4: ""}, (1, 3)),
        # adjacent, but the other level names no partner, or another one
        (6, {1: "2"}, (1, 2)),
        (6, {2: "3"}, (2, 3)),
        # a level that names itself
        (6, {5: "5"}, (5, 5)),
    ],
)
def test_analyze_rejects_partners_the_emitters_never_write(
    capsys, monkeypatch, levels, partners, bad
):
    """analyze_series links only adjacent levels, each naming the other: a
    doublet_partner that is not n - 1 or n + 1, or whose level does not name
    n back, is one error naming the first such level. Level 3 and 4 of the
    six-level spectrum are partners as printed."""
    text = _csv_edited(levels, {(i, "doublet_partner"): p for i, p in partners.items()})
    err = _analyze_error(capsys, monkeypatch, text)
    n, p = bad
    assert f"spectrum level {n} has doublet_partner={p}, not an adjacent" in err


@pytest.mark.parametrize("value", ["2.5", "1e400", "true", "+1", "01", " 1", "1_0"])
@pytest.mark.parametrize("field", ["series", "doublet_partner"])
def test_spectrum_csv_rejects_non_integral_fields(field, value):
    """The CSV reader applies the JSON reader's rule to level 1: series and
    doublet_partner as str(int) writes them, else an error naming the
    field, where int() would have read "+1", "01", " 1" and "1_0"."""
    text = _spectrum_text("csv")
    rows = [line.split(",") for line in text.splitlines()]
    rows[2][rows[0].index(field)] = value
    bad = "\n".join(",".join(row) for row in rows) + "\n"
    with pytest.raises(ValueError, match=f"field {field} must be an integer"):
        parse_spectrum_csv(bad)


# --- validate ---------------------------------------------------------------------


def test_validate_rejects_m_other_than_1(capsys):
    """validate solves the M=1 problem only and has no --M; any M is a
    usage error, never a silent check of the wrong potential."""
    with pytest.raises(SystemExit) as ei:
        main(["validate", "--Z", "1e-6", "--M", "8"])
    assert ei.value.code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --M 8" in out.err


def test_validate_free_limit(capsys):
    code, out, _err = _run(capsys, ["validate", "--Z", "1e-6"])
    assert code == 0
    assert "free-limit spectrum: ok" in out


@pytest.mark.parametrize("Z", ["1e-5", "1e-4", "1e-3"])
def test_validate_free_limit_up_to_its_bound(capsys, Z):
    """Up to FREE_LIMIT_Z the tau = -2 pairs, complex for every Z > 0 but
    within 2Z/pi of the real axis, count as the free doublets, so the check
    passes at every Z up to its bound."""
    code, out, _err = _run(capsys, ["validate", "--Z", Z])
    assert code == 0
    assert "free-limit spectrum: ok" in out


def test_validate_exits_1_when_nothing_is_checked(capsys):
    """Above FREE_LIMIT_Z the free-limit check, validate's only check,
    cannot run: an explicit error before any solve, never a report."""
    for Z in ("0.0015", "1"):
        code, out, err = _run(capsys, ["validate", "--Z", Z])
        assert code == 1
        assert out == ""
        assert err == (
            "error: validate checks the free-particle limit, "
            "which needs Z <= 0.001\n"
        )


# --- parser ------------------------------------------------------------------------


def test_missing_required_flag_exits_1():
    with pytest.raises(SystemExit) as ei:
        main(["spectrum"])
    assert ei.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1


# --- exit-code contract ----------------------------------------------------------

_Z_EDGES = ["0", "-1", "nan", "inf", "1e-320", "1e-12", "0.01", "1", "1e6"]


@st.composite
def _argv(draw, unwritable):
    command = draw(st.sampled_from(["spectrum", "scan", "potential", "validate"]))
    z = draw(
        st.sampled_from(_Z_EDGES)
        | st.floats(min_value=-320.0, max_value=308.0).map(lambda e: repr(10.0**e))
    )
    argv = [command, "--Z", z]
    if command == "validate":
        return argv
    argv += ["--M", str(draw(st.integers(0, 32)))]
    if command == "spectrum":
        argv += ["--levels", str(draw(st.integers(-1, 100)))]
    else:
        argv += ["--samples", str(draw(st.integers(0, 2000)))]
    if command != "potential":
        argv += ["--backend", draw(st.sampled_from(["monodromy", "explicit"]))]
    if draw(st.booleans()) and draw(st.booleans()):
        argv += ["--output", unwritable]
    return argv


def test_exit_code_contract(tmp_path_factory):
    """Every command ends in 0, 1 or 2 (argparse's usage errors exit 1),
    whatever the coupling, cell count, level count, sample count, backend
    or output path, the oversized cell and sample counts included; no
    exception and no warning escapes main."""
    unwritable = str(tmp_path_factory.mktemp("exit") / "missing" / "out.csv")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_argv(unwritable))
    # more segments or potential rows than MAX_SEGMENTS
    @example(["spectrum", "--Z", "1", "--M", "100000000"])
    @example(["potential", "--Z", "1", "--samples", "100000000"])
    # an infinite t_max, or one where s = Z/(2 t_max) underflows to 0
    @example(["spectrum", "--Z", "1", "--t-max", "inf"])
    @example(["spectrum", "--Z", "1", "--t-max", "1e308"])
    @example(["spectrum", "--Z", "1e-200", "--t-max", "1e200"])
    @example(["scan", "--Z", "1", "--t-max", "inf"])
    # a coupling whose default window's t_min^2 leaves the double range
    @example(["spectrum", "--Z", "1e200", "--levels", "2"])
    @example(["spectrum", "--Z", "1.7e308"])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # a warning that escapes main prints as a "...Warning:" line
        assert not caught, (argv, [str(w.message) for w in caught])
        assert "Warning" not in err.getvalue()

    check()


# --- environment -----------------------------------------------------------------


def test_pt_circle_tol_changes_nothing(capsys, monkeypatch):
    """PT_CIRCLE_TOL sets the reality tolerance of the product oracle in the
    tests alone: a value that is no number leaves every output, exit code
    and root record of the library as it is unset."""
    argvs = [
        ["spectrum", "--Z", "1"],
        ["spectrum", "--Z", "1", "--backend", "explicit"],
        ["scan", "--Z", "1", "--samples", "64"],
    ]

    def results():
        runs = [_run(capsys, argv) for argv in argvs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ptring.LevelShortfallWarning)
            for M in (1, 8):
                pot = ptring.build_square_well(M, 1.0)
                f = functools.partial(ptring.secular_monodromy, pot, 1.0)
                runs.append(ptring.find_roots(f, 1.0, 18))
        return runs

    monkeypatch.delenv("PT_CIRCLE_TOL", raising=False)
    unset = results()
    monkeypatch.setenv("PT_CIRCLE_TOL", "not-a-number")
    assert results() == unset
    assert [code for code, _, _ in unset[:3]] == [2, 0, 0]
    assert all(unset[3:])


# --- imports ---------------------------------------------------------------------


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy only; scipy is a test dependency."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ptring.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=_process_env(), check=True,
    )
    assert out.stdout.strip() == "False"


# --- process entry ---------------------------------------------------------------


def _gc_state():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--Z", "1", "--backend", "explicit"], ["--help"], ["spectrum"]],
)
def test_main_leaves_gc_state_to_its_caller(capsys, argv):
    """main() is the in-process API: a command, --help and a usage error
    each leave the collector as the caller had it."""
    before = _gc_state()
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert _gc_state() == before


def test_run_turns_the_collector_off_and_freezes(capsys, monkeypatch):
    """run() is the process entry: the collector is off while main() runs
    and every object is frozen when it ends, argparse's SystemExit too."""
    seen = []
    monkeypatch.setattr(ptring.cli, "main", lambda: seen.append(gc.isenabled()) or 2)
    monkeypatch.setattr(sys, "argv", ["ptring", "--help"])
    try:
        with pytest.raises(SystemExit) as ei:
            ptring.cli.run()
        assert (seen, ei.value.code) == ([False], 2)
        assert not gc.isenabled() and gc.get_freeze_count() > 0
        gc.unfreeze()
        monkeypatch.setattr(ptring.cli, "main", main)
        with pytest.raises(SystemExit) as ei:
            ptring.cli.run()
        assert ei.value.code == 0 and "usage: ptring" in capsys.readouterr().out
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()


@pytest.mark.parametrize(
    "argv,code",
    [
        (["spectrum", "--Z", "1", "--backend", "explicit"], 0),
        (["spectrum", "--Z", "1", "--levels", "18"], 2),  # monodromy shortfall
        (["spectrum", "--Z", "inf"], 1),
    ],
)
def test_process_exit_code_and_stdout_match_main(capsys, argv, code):
    """`python -m ptring.cli` exits with main()'s code and prints its bytes."""
    proc = subprocess.run(
        [sys.executable, "-m", "ptring.cli", *argv],
        capture_output=True, env=_process_env(), timeout=120, check=False,
    )
    assert proc.returncode == code, proc.stderr
    assert (main(argv), proc.stdout) == (code, capsys.readouterr().out.encode())


def test_reader_closing_the_pipe_early_gets_exit_1():
    """With stdout buffered, the output meets the closed pipe at the final
    flush, which the process entry makes itself: exit 1 and a quiet stderr,
    not the interpreter's exit 120 and its "Exception ignored" report."""
    env = _process_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ptring.cli",
             "spectrum", "--Z", "1", "--levels", "5", "--backend", "explicit"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Exception ignored" not in proc.stderr and proc.stderr == b""


def test_console_script_is_the_main_block_entry():
    """The `ptring` script and `python -m ptring.cli` start one function."""
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.dirname(ptring.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["ptring"]
    tree = ast.parse(inspect.getsource(ptring.cli))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    module, entry = script.split(":")
    assert module == "ptring.cli"
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{entry}()"]
