"""tools/solve_ab.py, the in-process A/B timing of the benchmark's solve shape."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("solve_ab", ROOT / "tools" / "solve_ab.py")
solve_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solve_ab)


def test_couplings_one_per_stratum():
    zs = solve_ab.couplings(7)
    assert len(zs) == 16 and zs == solve_ab.couplings(7) != solve_ab.couplings(8)
    width = 3.95 / 16
    assert all(0.05 + k * width <= z < 0.05 + (k + 1) * width for k, z in enumerate(zs))


def test_one_pair_prints_both_sides_and_the_ratio(capsys):
    """One short pair of the same tree against itself: a row per side with
    its least and median time per solve, one per stage and its minor page
    faults per solve, then the pair's two ratios and a summary of each."""
    src = str(ROOT / "src")
    assert solve_ab.main([src, src, "--workload", "pt-sweep", "--pairs", "1",
                          "--seconds", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("workload pt-sweep, seed 1, 1 pairs")
    assert lines[1].split() == ["side", "least", "median", *solve_ab.STAGES, "faults"]
    for side, line in zip("AB", lines[2:4]):
        fields = line.split()
        assert fields[0] == side and len(fields) == 4 + len(solve_ab.STAGES)
        least, median = map(float, fields[1:3])
        assert 0.0 < least <= median
        assert float(fields[-1]) >= 0.0
    assert lines[4].split() == [
        "pair", "first", "A_least", "B_least", "B/A", "A_median", "B_median", "B/A"
    ]
    pair = lines[5].split()
    assert pair[:2] == ["0", "A"]
    for a, b, ratio in (pair[2:5], pair[5:8]):
        assert abs(float(ratio) - float(b) / float(a)) < 2e-3
    for line, kind in zip(lines[6:], ("least", "median")):
        assert line.startswith(f"median B/A of the runs' {kind} times ")
        assert line.endswith("of 1 pairs")
    assert len(lines) == 8


def test_interleave_prints_each_side_and_the_ratio(capsys):
    """--interleave with the same tree on both sides: a row per side with
    its least time per solve and per stage and its mean minor page faults
    per solve, then the ratio B/A of the least times and the count of
    inputs B solved faster."""
    src = str(ROOT / "src")
    assert solve_ab.main([src, src, "--workload", "ladder", "--interleave",
                          "--seconds", "0.02"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("workload ladder, seed 1, A and B interleaved")
    assert lines[0].endswith("averaged over the 3 inputs")
    assert lines[1].split() == ["side", "least", *solve_ab.STAGES, "faults"]
    for side, line in zip("AB", lines[2:4]):
        fields = line.split()
        assert fields[0] == side and len(fields) == 3 + len(solve_ab.STAGES)
        least, *stages, faults = map(float, fields[1:])
        assert 0.0 < sum(stages) <= least * 1.001
        assert faults >= 0.0
    a, b = (float(line.split()[1]) for line in lines[2:4])
    ratio = lines[4].split()
    assert lines[4].startswith("B/A of the least time per solve ")
    assert abs(float(ratio[7].rstrip(";")) - b / a) < 2e-3
    assert lines[4].endswith("of 3 inputs") and len(lines) == 5
