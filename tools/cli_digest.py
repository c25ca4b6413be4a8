"""Digest what `python -m ptring.cli` prints for a fixed list of commands.

    python tools/cli_digest.py path/to/src > digests.txt

Runs every command of COMMANDS with this interpreter, the given src
directory as PYTHONPATH and an empty temporary working directory, and
without PT_CIRCLE_TOL: the library does not read it, but the src of
earlier commits does, and their digests must not depend on the caller's
environment. Nor does PYTHONUNBUFFERED reach a command, so that its
stdout is buffered as a user's is. Prints one line per command: the SHA-256 of its stdout,
stderr and exit code, then the command. Each spectrum command that
prints a spectrum, CSV or JSON, is followed by an `analyze` command that
reads it from stdin in the same run, and each document of ANALYZE_INPUTS
is read by `analyze` from stdin last. Diffing the output
for two checkouts' src/ compares what the CLI prints in each, byte for
byte.
"""

import hashlib
import os
import subprocess
import sys
import tempfile


def _spectra() -> list[list[str]]:
    z1 = ["spectrum", "--Z", "1"]
    out = []
    for extra in (
        ["--backend", "explicit"],
        ["--backend", "explicit", "--levels", "100"],
        [],
        *(["--M", "8", "--levels", n] for n in ("6", "7", "12", "13", "18")),
        ["--M", "32"],
    ):
        out += [z1 + extra, z1 + extra + ["--format", "json"]]
    for backend in ("monodromy", "explicit"):
        out += [["spectrum", "--Z", "1e-4", "--levels", n, "--backend", backend]
                for n in ("2", "4", "5")]
        # the windows where the master grid's floor of 256 points binds
        out += [["spectrum", "--Z", z, "--levels", n, "--backend", backend]
                for z in ("1", "4", "17.9") for n in ("1", "2", "3")]
    out += [["spectrum", "--Z", "17.9012344", "--levels", n]
            for n in ("11", "18", "30")]
    out.append(["spectrum", "--Z", "0.1", "--backend", "explicit", "--levels", "30"])
    # doublet partners: levels of two branches within 2% of E at Z = 1 past
    # 30 levels, a lowest +- pair split by more than that from Z = 2 up, an
    # M = 2 band edge, the free ring's b1/b2 splits and an EP pair at M = 1
    out.append(["spectrum", "--Z", "1", "--backend", "explicit", "--levels", "50"])
    out += [["spectrum", "--Z", "2", "--levels", "18", "--backend", backend]
            for backend in ("monodromy", "explicit")]
    out += [
        ["spectrum", "--Z", "8", "--M", "2", "--levels", "18"],
        ["spectrum", "--Z", "1e-6", "--backend", "explicit", "--levels", "18"],
        ["spectrum", "--Z", "5.5423", "--levels", "18"],
    ]
    # roots of two factors within each other's widths at small Z: the +-
    # pairs of the periodic closure, and two explicit roots 1.2e-13 apart
    # relative near t = 1.0610329539459e-05
    out += [
        ["spectrum", "--Z", "1e-6", "--levels", "18"],
        ["spectrum", "--Z", "1e-3", "--backend", "explicit", "--levels", "100"],
    ]
    return out


COMMANDS = (
    _spectra()
    + [["scan", "--Z", "1", "--samples", n] for n in ("16", "512", "2048")]
    + [
        ["scan", "--Z", "1", "--samples", "512", "--backend", "explicit"],
        # the monodromy's value read off its factors, U_(M-1)(tau/2) among them
        ["scan", "--Z", "1", "--M", "8", "--samples", "512"],
        ["scan", "--Z", "1", "--M", "32", "--samples", "512"],
        # the weak-coupling value, which carries the k c factor
        ["scan", "--Z", "1e-4", "--samples", "512"],
        ["validate", "--Z", "1e-4"],
        ["validate", "--Z", "1e-6"],
        ["potential", "--M", "3", "--Z", "1", "--samples", "600"],
        ["potential", "--M", "1", "--Z", "1", "--format", "json"],
        # samples that fall on a segment edge
        ["potential", "--M", "1", "--Z", "1", "--samples", "49"],
        ["potential", "--M", "3", "--Z", "1", "--samples", "6"],
        # the x = 0 edge, a running sum of 1/3, prints -3.33066907388e-16
        ["potential", "--M", "3", "--Z", "1", "--format", "json"],
        # errors: each one "error:" line and exit 1
        ["scan", "--Z", "1", "--samples", "10"],
        ["scan", "--Z", "1", "--t-min", "0"],
        ["spectrum", "--Z", "inf"],
        ["spectrum", "--Z", "1", "--t-min", "2", "--t-max", "1"],
        ["spectrum", "--Z", "1e4"],
        ["spectrum", "--Z", "1", "--t-min", "1e-300"],
        # an infinite t_max, or one where s = Z/(2 t_max) underflows to 0
        ["spectrum", "--Z", "1", "--t-max", "inf"],
        ["spectrum", "--Z", "1", "--t-max", "1e308"],
        ["spectrum", "--Z", "1e-200", "--t-max", "1e200"],
        ["scan", "--Z", "1", "--t-max", "inf"],
        # a default window whose t_min^2 leaves the double range
        ["spectrum", "--Z", "1e200", "--levels", "2"],
        ["spectrum", "--Z", "1.7e308"],
        # a given t_max is checked before the default floor's energy
        ["spectrum", "--Z", "1", "--t-max", "nan"],
        # a given t_max at or below the default t_min
        ["spectrum", "--Z", "1", "--t-max", "0.001"],
        ["spectrum", "--Z", "1", "--levels", "0"],
        # the explicit closure needs M = 1
        ["spectrum", "--Z", "1", "--M", "2", "--backend", "explicit"],
        ["scan", "--Z", "1", "--M", "2", "--backend", "explicit"],
        ["validate", "--Z", "0.002"],
    ]
)


# two levels as the spectrum command writes them, but for the E and
# doublet_partner cells
_TWO_LEVELS = (
    "n,t,s,E,delta1,series,doublet_partner\n"
    "0,6.56419569606e-01,7.61707942833e-01,{},,0,{}\n"
    "1,3.93471017661e-01,1.27074162405e+00,{},1.31065249455e+00,1,{}\n"
)
# documents that analyze reads from stdin, each refused with one "error:"
# line and exit 1: the emitters write levels in ascending E, and partners
# only as adjacent levels that name each other
_ONE, _FIVE = "1.00000000000e+00", "5.00000000000e+00"
ANALYZE_INPUTS = (
    ("E descending", _TWO_LEVELS.format(_FIVE, "", _ONE, "")),
    ("partner beyond the levels", _TWO_LEVELS.format(_ONE, "5", _FIVE, "")),
    ("partner not named back", _TWO_LEVELS.format(_ONE, "1", _FIVE, "")),
)


def _run(argv: list[str], env: dict, cwd: str, stdin: bytes = b""):
    return subprocess.run(
        [sys.executable, "-m", "ptring.cli", *argv],
        input=stdin, capture_output=True, env=env, cwd=cwd, check=False,
    )


def _digest(proc) -> str:
    h = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/cli_digest.py SRC_DIR", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=os.path.abspath(argv[0]))
    for name in ("PT_CIRCLE_TOL", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    with tempfile.TemporaryDirectory() as cwd:
        for cmd in COMMANDS:
            proc = _run(cmd, env, cwd)
            print(_digest(proc), " ".join(cmd))
            if cmd[0] == "spectrum" and proc.stdout:
                print(_digest(_run(["analyze"], env, cwd, proc.stdout)),
                      "analyze <", " ".join(cmd))
        for name, text in ANALYZE_INPUTS:
            print(_digest(_run(["analyze"], env, cwd, text.encode())), "analyze <", name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
