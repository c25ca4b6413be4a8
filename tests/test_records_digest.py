"""tools/records_digest.py --compare, the record-by-record check of two trees."""

import importlib.util
import math
import pathlib
import types

import ptring
from ptring import RootRecord

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "records_digest", ROOT / "tools" / "records_digest.py"
)
records_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records_digest)

SOLVES = [
    ("explicit", 1.0, 18, None, None),
    (1, 1.0, 18, None, None),
    # refused: the master grid would be too large
    ("explicit", 1.0, 18, 1e-300, 5.0),
]


def _with_find_roots(find_roots):
    """ptring's names that records_digest uses, with find_roots replaced."""
    names = ("build_square_well", "secular_explicit", "secular_monodromy",
             "ScanConfig", "LevelShortfallWarning")
    return types.SimpleNamespace(
        find_roots=find_roots, **{n: getattr(ptring, n) for n in names}
    )


def test_a_tree_against_itself_changes_nothing(capsys):
    """The same package on both sides: no solve is listed, and each
    closure's call total and the overall one are equal."""
    assert records_digest.compare(ptring, ptring, SOLVES) == 0
    lines = capsys.readouterr().out.splitlines()
    calls = {line.split(":")[0]: line.split(": ")[1] for line in lines}
    assert list(calls) == ["calls explicit", "calls 1", "calls in all"]
    for totals in calls.values():
        a, b = totals.split(" (")[0].split(" -> ")
        assert a == b
    assert calls["calls in all"].endswith("(+0.0%)")


def test_a_moved_or_lost_level_fails(capsys):
    """A t moved beyond the two records' widths, or a lost level, is a FAIL
    line naming the solve, and compare returns 1."""

    def moved(f, Z, n, config):
        return [r._replace(t=r.t * (1 + 1e-9)) for r in ptring.find_roots(f, Z, n, config)]

    def lost(f, Z, n, config):
        return ptring.find_roots(f, Z, n, config)[1:]

    solve = SOLVES[:1]
    assert records_digest.compare(ptring, _with_find_roots(moved), solve) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails and all(f.startswith("FAIL explicit Z=1.0 levels=18: level ") for f in fails)
    assert records_digest.compare(ptring, _with_find_roots(lost), solve) == 1
    out = capsys.readouterr().out
    assert "FAIL explicit Z=1.0 levels=18: level count 25 -> 24" in out


def test_faults_compare_levels_a_doublet_standing_for_two():
    """A record standing for two levels, such as older trees made of two
    roots of two factors at rounding level, and the two records of those
    roots are the same two levels within their widths; two exact roots
    must agree to an ulp."""
    pair = [RootRecord(1.0 + 2e-13, -30.0, 1e-13, False, 1),
            RootRecord(1.0, -30.0, 1e-13, False, 0)]
    merged = [RootRecord(1.0 + 1e-13, -30.0, 4e-13, True, 2)]
    assert records_digest._faults(pair, merged) == []
    assert records_digest._faults(merged, pair) == []
    exact = [RootRecord(0.5, -math.inf, 0.0, False, 0)]
    nearby = [RootRecord(math.nextafter(0.5, 1), -math.inf, 0.0, False, 0)]
    assert records_digest._faults(exact, nearby) == []
    moved = [RootRecord(0.5 + 2 * math.ulp(0.5), -math.inf, 0.0, False, 0)]
    assert records_digest._faults(exact, moved) == [
        f"level 0: t 0.5 -> {moved[0].t!r}, beyond the widths 0.0 + 0.0"
    ]


def test_every_digest_record_is_a_closed_bracket():
    """Every record of every solve in the digest is the closing of a
    sign-change bracket of one factor, named by an int: its bracket_width
    is at least 8 ulps of its t, a root hit exactly included, and no two
    neighbouring roots of one factor touch. A solve is refused only for its
    window; none lies within rounding noise of an exceptional point."""
    solved = 0
    for solve in records_digest.SOLVES:
        try:
            records, _ = records_digest._solve(ptring, *solve)
        except ValueError as e:
            assert str(e).startswith(("the default scan window", "the master grid")), e
            continue
        solved += 1
        by_factor: dict = {}
        for r in records:
            assert r.bracket_width >= 8 * math.ulp(r.t), (solve, r)
            assert type(r.factor) is int, (solve, r)
            by_factor.setdefault(r.factor, []).append(r)
        for rs in by_factor.values():  # each in descending t
            for a, b in zip(rs, rs[1:]):
                assert a.t - b.t > a.bracket_width + b.bracket_width, (solve, a, b)
    assert solved == 766
