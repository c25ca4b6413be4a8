"""Digest the records find_roots returns for a fixed list of solves.

    python tools/records_digest.py path/to/src > digests.txt

Imports ptring from the given src directory and runs every solve of
SOLVES: each coupling of COUPLINGS at each level count of LEVELS, on the
explicit closure and on the monodromy at each cell count of CELLS, in the
default window, then the solves of WINDOWS in a window of their own. Prints
one line per solve: the SHA-256 of its records' t, residual_logmag and
bracket_width as hex floats and their unresolved_doublet flags, then the
solve. A solve whose window is refused prints the error text instead of a
digest. Diffing the output for two checkouts' src/ compares their records
bit for bit.
"""

import hashlib
import os
import sys
import warnings

COUPLINGS = (
    1e-6, 1e-4, 1e-3, 0.05, 0.1, 0.5, 1.0, 1.3, 2.0, 4.0, 5.5423, 8.0,
    17.9012, 17.901234, 17.9012344, 17.9012345, 20.0, 33.55,
)
LEVELS = (1, 2, 3, 5, 18, 50, 100)
# "explicit" is the twisted closure; an integer is the monodromy's cell count
CELLS = ("explicit", 1, 2, 3, 8, 32)
# (closure, Z, levels, t_min, t_max)
WINDOWS = (
    # the ground state in the first grid interval: its bracket is seeded
    # from above
    ("explicit", 1.0, 1, 0.6562 * (1 - 1e-4), 1.5 * 0.6562),
    ("explicit", 1.0, 2, 0.1, 1.0),
    # the tight criterion-1 doublet near t = 0.05305
    ("explicit", 1.0, 100, 0.0530, 0.0531),
    # the M = 1 exceptional-point pair near E = 25.6
    (1, 17.9012344, 18, 0.3, 2.0),
    (8, 1.0, 18, 0.05, 2.0),
    (2, 0.01, 19, 1e-4, 0.05),
    (32, 4.0, 5, 0.2, 10.0),
    # refused: the master grid would be too large
    ("explicit", 1.0, 18, 1e-300, 5.0),
)
SOLVES = [
    (closure, Z, n, None, None)
    for closure in CELLS for Z in COUPLINGS for n in LEVELS
] + list(WINDOWS)


def _digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(
            " ".join([
                r.t.hex(), r.residual_logmag.hex(), r.bracket_width.hex(),
                str(int(r.unresolved_doublet)),
            ]).encode() + b"\n"
        )
    return h.hexdigest()


def _solve(ptring, closure, Z, n_levels, t_min, t_max):
    if closure == "explicit":
        def f(t):
            return ptring.secular_explicit(Z, t)
    else:
        pot = ptring.build_square_well(closure, Z)

        def f(t):
            return ptring.secular_monodromy(pot, Z, t)

    config = None if t_min is None else ptring.ScanConfig(t_min=t_min, t_max=t_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ptring.LevelShortfallWarning)
        return ptring.find_roots(f, Z, n_levels, config)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/records_digest.py SRC_DIR", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(argv[0]))
    import ptring

    for solve in SOLVES:
        closure, Z, n_levels, t_min, t_max = solve
        name = f"{closure} Z={Z!r} levels={n_levels}"
        if t_min is not None:
            name += f" t=[{t_min!r}, {t_max!r}]"
        try:
            out = _digest(_solve(ptring, *solve))
        except ValueError as e:
            out = f"error: {e}"
        print(out, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
