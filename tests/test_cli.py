"""End-to-end command behavior: formats, exit codes, round trips."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptring
from ptring import parse_spectrum_csv, parse_spectrum_json, spectrum_to_csv, spectrum_to_json
from ptring.cli import main
from ptring.potential import Z_FLOOR


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
    ],
)
def test_bad_window_names_its_flags(capsys, argv, flags):
    """A window that is not positive or not ordered is a domain error naming
    the flags that set it, as a bad sample count names --samples."""
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


def test_analyze_rejects_malformed_input(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text("{<not json>}")
    code, _out, err = _run(capsys, ["analyze", "--input", str(src)])
    assert code == 1
    assert "error" in err


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
        | st.floats(min_value=-320.0, max_value=6.0).map(lambda e: repr(10.0**e))
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
    or output path; no exception escapes main."""
    unwritable = str(tmp_path_factory.mktemp("exit") / "missing" / "out.csv")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_argv(unwritable))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()


# --- imports ---------------------------------------------------------------------


def test_cli_import_leaves_scipy_unloaded():
    """The runtime needs numpy only; scipy is a test dependency."""
    src = os.path.dirname(os.path.dirname(ptring.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ptring.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
