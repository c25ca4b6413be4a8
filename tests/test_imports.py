"""`import ptring` loads errors and potential alone, numpy loads only when a
command solves, and the package's names survive the lazy loading of the
other modules."""

import json
import os
import subprocess
import sys

import pytest

import ptring
import ptring.cli
from ptring import errors, roots, secular, serialize, spectrum
from ptring.cli import main

SRC = os.path.dirname(os.path.dirname(ptring.__file__))

# Every name that `from ptring import ...` served when roots and secular
# were imported with the package, by the module that defines it
SOLVER_EXPORTS = {
    roots: (
        "RootRecord", "ScanConfig", "default_scan_config", "find_roots",
        "level_count", "scan_secular",
    ),
    secular: (
        "FREE_LIMIT_Z", "LogScaledValue", "SpectralPoint", "secular_explicit",
        "secular_monodromy",
    ),
}
# The propagator product's names and the general segment layout's, which
# moved to the tests' product oracle, and the gap rule's pair finder, which
# analyze_series' +- rule replaced
REMOVED = (
    "SecularRealityError", "TransferMatrix2", "monodromy", "segment_propagator",
    "CirclePotential", "rotate_segments", "quasi_degenerate_pairs",
)
# The same for serialize and spectrum, also loaded on first use
REPORT_EXPORTS = {
    serialize: (
        "SpectrumDocument", "analysis_to_csv", "fmt_float", "parse_spectrum_csv",
        "parse_spectrum_json", "potential_to_csv", "potential_to_json",
        "scan_to_csv", "spectrum_to_csv", "spectrum_to_json",
    ),
    spectrum: (
        "EnergyLevel", "SpectrumReport", "analyze_series", "energies_from_roots",
        "first_differences",
    ),
}
ERROR_BASES = {
    "SecularEvaluationError": RuntimeError,
    "SecularOverflowError": OverflowError,
    "LevelShortfallWarning": UserWarning,
}
EAGER_EXPORTS = (
    "SquareWell", "build_square_well", "__version__",
    *ERROR_BASES,
)

# Modules are compared against those of an interpreter that has imported
# the standard modules errors, potential and the package import themselves,
# since what site preloads differs by machine
FOOTPRINT = """
import sys
import functools, importlib, math
bare = set(sys.modules)
import ptring
ptring.build_square_well(8, 1.0)
print(*sorted(set(sys.modules) - bare))
ptring.spectrum_to_csv
print("ptring.serialize" in sys.modules)
"""

# What `import ptring.cli`, --help and a usage error load, against the
# modules the interpreter had before
CLI_FOOTPRINT = """
import sys
bare = set(sys.modules)
from ptring.cli import main
for argv in (["--help"], ["spectrum"]):
    try:
        main(argv)
    except SystemExit:
        pass
print(*sorted(set(sys.modules) - bare))
"""

PROBE = """
import json, sys
import ptring, ptring.cli
from ptring.cli import main

ptring.build_square_well(8, 1.0)
codes = [
    main(["analyze", "--input", sys.argv[1], "--output", sys.argv[2]]),
    main(["potential", "--M", "8", "--Z", "1", "--output", sys.argv[2]]),
]
before = "numpy" in sys.modules
codes.append(main(["spectrum", "--Z", "1", "--levels", "2", "--output", sys.argv[2]]))
print(json.dumps({"codes": codes, "before": before, "after": "numpy" in sys.modules}))
"""

# Whether the commands that run without numpy load dataclasses or inspect
# (which dataclasses imports), and then whether `from ptring import *`,
# which loads numpy and with it inspect, loads dataclasses
VALUE_TYPES_PROBE = """
import json, sys
bare = set(sys.modules)
from ptring.cli import main

codes = [
    main(["analyze", "--input", sys.argv[1], "--output", sys.argv[2]]),
    main(["potential", "--M", "8", "--Z", "1", "--output", sys.argv[2]]),
]
commands = sorted({"dataclasses", "inspect"} & (set(sys.modules) - bare))
from ptring import *
star = sorted({"dataclasses"} & (set(sys.modules) - bare))
print(json.dumps({"codes": codes, "commands": commands, "star": star}))
"""


def _spectrum_json(tmp_path):
    spectrum = tmp_path / "spectrum.json"
    assert main(["spectrum", "--Z", "1", "--backend", "explicit", "--format", "json",
                 "--output", str(spectrum)]) == 0
    return str(spectrum)


def test_analyze_and_potential_leave_numpy_unloaded(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", PROBE, _spectrum_json(tmp_path), str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    assert json.loads(out.stdout) == {"codes": [0, 0, 0], "before": False, "after": True}


def test_no_module_loads_dataclasses(tmp_path):
    """The value types are built without dataclasses: neither the commands
    that run without numpy nor the whole package load it, or inspect."""
    out = subprocess.run(
        [sys.executable, "-c", VALUE_TYPES_PROBE, _spectrum_json(tmp_path),
         str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    assert json.loads(out.stdout) == {"codes": [0, 0], "commands": [], "star": []}


def test_building_a_potential_loads_only_errors_and_potential():
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    added, serialized = out.stdout.splitlines()
    assert set(added.split()) <= {"ptring", "ptring.errors", "ptring.potential"}
    assert serialized == "True"


def test_cli_help_and_usage_errors_load_no_command_module():
    out = subprocess.run(
        [sys.executable, "-c", CLI_FOOTPRINT], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    added = set(out.stdout.split())
    assert {"ptring.cli", "ptring.errors", "ptring.potential", "argparse"} <= added
    unloaded = {"ptring.serialize", "ptring.spectrum", "csv", "json", "numpy"}
    assert not added & unloaded, added & unloaded


def test_solver_names_are_the_submodules_objects():
    for module, names in {**SOLVER_EXPORTS, **REPORT_EXPORTS}.items():
        for name in names:
            assert getattr(ptring, name) is getattr(module, name), name
    assert ptring.roots is roots and ptring.secular is secular
    assert ptring.serialize is serialize and ptring.spectrum is spectrum
    star = {}
    exec("from ptring import *", star)
    assert star["find_roots"] is roots.find_roots
    assert star["spectrum_to_csv"] is serialize.spectrum_to_csv
    assert star["build_square_well"] is ptring.build_square_well


def test_error_classes_are_one_object_each():
    for name, base in ERROR_BASES.items():
        cls = getattr(errors, name)
        assert issubclass(cls, base), name
        assert getattr(ptring, name) is cls, name
    assert roots.SecularEvaluationError is errors.SecularEvaluationError
    assert roots.LevelShortfallWarning is errors.LevelShortfallWarning
    assert secular.SecularOverflowError is errors.SecularOverflowError


def test_dir_lists_every_name():
    listed = set(dir(ptring))
    expected = {*EAGER_EXPORTS, "roots", "secular", "serialize", "spectrum"}
    for table in (SOLVER_EXPORTS, REPORT_EXPORTS):
        expected.update(name for names in table.values() for name in names)
    assert expected <= listed


def test_product_names_are_gone():
    for name in REMOVED:
        assert name not in ptring.__all__ and name not in dir(ptring), name
        with pytest.raises(AttributeError):
            getattr(ptring, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptring.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        ptring.cli.no_such_name
    with pytest.raises(ImportError):
        from ptring import no_such_name  # noqa: F401


def test_submodule_resolves_after_bare_package_import():
    """The form test_cli.py relies on when it runs alone: a patch on
    ptring.roots.np after nothing but `import ptring`."""
    probe = (
        "import sys, ptring\n"
        "assert 'numpy' not in sys.modules\n"
        "print(ptring.roots.np.__name__, ptring.secular.np is ptring.roots.np)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), check=True,
    )
    assert out.stdout.split() == ["numpy", "True"]


def test_patch_on_cli_reaches_spectrum(monkeypatch, capsys):
    """A solver name patched on ptring.cli is the one a command calls, as
    the benchmark's traced run patches it."""
    calls = []
    real = secular.secular_monodromy

    def spy(pot, Z, t):
        calls.append(t)
        return real(pot, Z, t)

    # unbound, as in a fresh process: reading the name binds the solvers
    monkeypatch.delitem(vars(ptring.cli), "secular_monodromy", raising=False)
    monkeypatch.setattr(ptring.cli, "secular_monodromy", spy)
    assert main(["spectrum", "--Z", "1", "--M", "8", "--levels", "4"]) == 0
    capsys.readouterr()
    assert calls
    assert ptring.cli.secular_monodromy is spy


def test_emitter_patched_on_cli_is_the_one_spectrum_calls(monkeypatch, capsys):
    """An emitter patched on ptring.cli is the one a command calls, as the
    benchmark's traced run patches every emitter."""
    calls = []
    real = serialize.spectrum_to_csv

    def spy(levels, delta1):
        calls.append(len(levels))
        return real(levels, delta1)

    monkeypatch.delitem(vars(ptring.cli), "spectrum_to_csv", raising=False)
    monkeypatch.setattr(ptring.cli, "spectrum_to_csv", spy)
    assert main(["spectrum", "--Z", "1", "--backend", "explicit"]) == 0
    capsys.readouterr()
    assert calls == [18]
    assert ptring.cli.spectrum_to_csv is spy
