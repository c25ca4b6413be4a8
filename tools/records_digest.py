"""Digest the records find_roots returns for a fixed list of solves.

    python tools/records_digest.py path/to/src > digests.txt
    python tools/records_digest.py SRC_A --compare SRC_B

Imports ptring from the given src directory and runs every solve of
SOLVES: each coupling of COUPLINGS at each level count of LEVELS, on the
explicit closure and on the monodromy at each cell count of CELLS, in the
default window, then the solves of PAIRS, also in the default window, and
those of WINDOWS in a window of their own. Prints
one line per solve: the SHA-256 of its records' t, residual_logmag and
bracket_width as hex floats and their unresolved_doublet flags, the number
of calls the solve made to its secular function and the number of t values
they evaluated, then the solve. A solve whose window is refused prints the
error text instead. Diffing the output for two checkouts' src/ compares
their records bit for bit, and the work that found them.

With --compare, both trees are imported side by side and each solve is
run with both. It prints one line per solve whose record structure (the
records' count and doublet flags), call count or refusal differs, then
each closure's call total and the overall one for A and B. It fails a
solve whose level count differs, or where a level's t in B lies farther
from A's than the two records' bracket widths together (one ulp of A's t
where both are 0, at an exact zero), a doublet record standing for two
levels; it prints a FAIL line for each and exits 1 if there is any.
"""

import hashlib
import math
import os
import sys
import warnings

# the guard flags master-grid windows only near an exceptional point: at
# M = 1 from Z = 17.9012 to 17.9012345, at 5.5423 (1 and 3 levels) and at
# 33.55 (18, 50 and 100 levels), and in PAIRS
COUPLINGS = (
    1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 1.3, 2.0, 4.0, 5.5423, 8.0,
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
# (closure, Z, levels): one refinement pass of the exceptional-point guard
# shows a real pair, just below an exceptional point of the twisted closure
# (Z_c = 2.92479788641073 and 5.26079735582691) and of the count-2 factor at
# M = 8 (Z_c between 61.79719740186384 and 61.79719740186385)
PAIRS = (("explicit", 2.9247978, 18), ("explicit", 5.2607973, 18), (8, 61.7971, 18))
SOLVES = [
    (closure, Z, n, None, None)
    for closure in CELLS for Z in COUPLINGS for n in LEVELS
] + [(*pair, None, None) for pair in PAIRS] + list(WINDOWS)


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
    """The records of one solve and the sizes of its secular calls."""
    pot = None if closure == "explicit" else ptring.build_square_well(closure, Z)
    sizes = []

    def f(t):
        sizes.append(t.size)
        if pot is None:
            return ptring.secular_explicit(Z, t)
        return ptring.secular_monodromy(pot, Z, t)

    config = None if t_min is None else ptring.ScanConfig(t_min=t_min, t_max=t_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ptring.LevelShortfallWarning)
        return ptring.find_roots(f, Z, n_levels, config), sizes


def _name(solve) -> str:
    closure, Z, n_levels, t_min, t_max = solve
    name = f"{closure} Z={Z!r} levels={n_levels}"
    if t_min is not None:
        name += f" t=[{t_min!r}, {t_max!r}]"
    return name


def _levels(records) -> list:
    """(t, bracket_width) per level the records stand for, a doublet's twice."""
    return [(r.t, r.bracket_width) for r in records for _ in range(1 + r.unresolved_doublet)]


def _faults(a, b) -> list[str]:
    """Why the records b of one solve disagree with the records a, if they do.

    Levels are compared in order, a record standing for two levels taken
    twice at its t, so that a doublet record of one tree, as older trees
    merged two roots of two factors at rounding level into, and the two
    records of the other agree within their widths."""
    la, lb = _levels(a), _levels(b)
    if len(la) != len(lb):
        return [f"level count {len(la)} -> {len(lb)}"]
    return [
        f"level {j}: t {ta!r} -> {tb!r}, beyond the widths {wa!r} + {wb!r}"
        for j, ((ta, wa), (tb, wb)) in enumerate(zip(la, lb))
        if abs(tb - ta) > (wa + wb or math.ulp(ta))
    ]


def compare(ptring_a, ptring_b, solves) -> int:
    """Run each solve with both packages and print what differs (see above);
    returns 1 if any solve fails, else 0."""
    calls: dict = {}
    failed = 0
    for solve in solves:
        outcome = []
        for ptring in (ptring_a, ptring_b):
            try:
                outcome.append(_solve(ptring, *solve))
            except ValueError as e:
                outcome.append((str(e), None))
        (a, sa), (b, sb) = outcome
        name = _name(solve)
        if sa is None or sb is None:
            if sa is not sb:
                failed += 1
                print(f"FAIL {name}: refused by one tree only")
            elif a != b:
                print(f"changed {name}: error text")
            continue
        total = calls.setdefault(solve[0], [0, 0])
        total[0], total[1] = total[0] + len(sa), total[1] + len(sb)
        for fault in _faults(a, b):
            failed += 1
            print(f"FAIL {name}: {fault}")
        shape = [[r.unresolved_doublet for r in rs] for rs in (a, b)]
        if len(sa) != len(sb) or shape[0] != shape[1]:
            print(
                f"changed {name}: calls {len(sa)} -> {len(sb)}, records "
                f"{len(a)} -> {len(b)}, doublets {sum(shape[0])} -> {sum(shape[1])}"
            )
    for closure, (ca, cb) in calls.items():
        print(f"calls {closure}: {ca} -> {cb}")
    ca, cb = (sum(c) for c in zip(*calls.values()))
    print(f"calls in all: {ca} -> {cb} ({100.0 * (cb - ca) / ca:+.1f}%)")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if not (
        len(argv) in (1, 3)
        and all(map(os.path.isdir, argv[::2]))
        and argv[1:2] in ([], ["--compare"])
    ):
        print(
            "usage: python tools/records_digest.py SRC_DIR [--compare SRC_DIR_B]",
            file=sys.stderr,
        )
        return 1
    if len(argv) == 3:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from solve_ab import load

        return compare(load(argv[0], "ptring_a"), load(argv[2], "ptring_b"), SOLVES)
    sys.path.insert(0, os.path.abspath(argv[0]))
    import ptring

    for solve in SOLVES:
        try:
            records, sizes = _solve(ptring, *solve)
            out = f"{_digest(records)} calls={len(sizes)} points={sum(sizes)}"
        except ValueError as e:
            out = f"error: {e}"
        print(out, _name(solve))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
