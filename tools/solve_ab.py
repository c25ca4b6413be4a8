"""Time the benchmark's library solve shape for two source trees, A and B.

    python tools/solve_ab.py SRC_A SRC_B --workload pt-sweep [--pairs 12]
        [--seconds 1.5] [--seed 1]
    python tools/solve_ab.py SRC_A SRC_B --workload pt-sweep --interleave
        [--seconds 30] [--seed 1]

Each pair runs one fresh interpreter per side, A first in even pairs and B
first in odd ones, each importing ptring from its src directory and pinned
to the lowest core this process may run on (start it under `taskset -c N`
to choose the core). A run repeats the workload's solves, in rounds of one
solve of each input, for the given seconds after one untimed round. A solve
is what `ptring spectrum` does: find_roots under a recording warnings
filter, energies_from_roots, the cut to the requested levels,
analyze_series and spectrum_to_csv; each of those stages is timed too.
The minor page faults of each solve are read with getrusage just before
its first time mark and just after its last, so the reads are not timed.

The inputs are defined here, not imported from the benchmark:

- ladder: the explicit closure at Z = 1, 18, 50 and 100 levels;
- multicell: the periodic closure at Z = 1, M = 8 and 32, 18 levels;
- pt-sweep: the periodic closure at M = 1, 18 levels, at 16 couplings, one
  drawn from the seed in each equal part of [0.05, 4], the couplings the
  benchmark's pt-sweep workload draws for the same seed.

Prints, per side, its least time per solve over all rounds, the median of
its runs' median times per solve and the like median for each stage, in
microseconds, and the like median of its minor page faults per solve; then,
per pair, the two runs' least and median times per solve and their ratios
B/A, and last, for each, the median ratio and the number of pairs in which
B was faster. On a shared host, load from
elsewhere that lasts seconds moves a run's median; its least time, the
cost of a solve when nothing else ran, moves far less.

With --interleave, A and B are imported side by side into this one
process, pinned to one core, and each round solves every input with A and
then B, or B and then A in odd rounds, for the given seconds after one
untimed round. It prints, per side, the least time of each input's solve
and of each stage, averaged over the inputs, in microseconds, and its mean
minor page faults per solve over all timed rounds, then the
ratio B/A of the least times per solve and the number of inputs that B
solved faster. Load from elsewhere then falls on both sides alike, so a
change of 1-2% in the least time per solve, which pairs of fresh
interpreters do not resolve on a shared host, shows; but both trees share
one interpreter and one numpy, and a change that acts through them (import
time, memory, a module-level cache) is the pairs' to measure.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings

WORKLOADS = ("ladder", "multicell", "pt-sweep")
STAGES = ("find_roots", "energies", "analyze", "csv")


def couplings(seed: int) -> list[float]:
    """One Z per equal sixteenth of [0.05, 4], drawn from the seed."""
    rng = random.Random(f"pt-sweep/{seed}")
    return [0.05 + (k + rng.random()) * (3.95 / 16) for k in range(16)]


def inputs(ptring, workload: str, seed: int) -> list[tuple]:
    """(secular callable, Z, levels) per solve of the workload."""
    if workload == "ladder":
        return [
            (lambda t: ptring.secular_explicit(1.0, t), 1.0, n) for n in (18, 50, 100)
        ]
    if workload == "multicell":
        wells = [ptring.build_square_well(m, 1.0) for m in (8, 32)]
    else:
        wells = [ptring.build_square_well(1, z) for z in couplings(seed)]
    return [(periodic(ptring, w), w.Z, 18) for w in wells]


def periodic(ptring, well):
    """The periodic closure of the well, as a callable of t."""
    return lambda t: ptring.secular_monodromy(well, well.Z, t)


def load(src: str, name: str):
    """The ptring package of the tree src, imported as the package name."""
    init = os.path.join(os.path.abspath(src), "ptring", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def solver(ptring):
    """A function of one input (f, Z, levels) that solves it as `ptring
    spectrum` does with the package ptring and returns the time of each of
    STAGES in seconds and the solve's minor page faults."""
    spectrum = importlib.import_module(f"{ptring.__name__}.spectrum")
    to_csv = importlib.import_module(f"{ptring.__name__}.serialize").spectrum_to_csv
    clock = time.perf_counter

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def solve(f, Z, n):
        faults = minflt()
        marks = [clock()]
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            records = ptring.find_roots(f, Z, n)
        marks.append(clock())
        levels = spectrum.energies_from_roots(records, Z)[:n]
        marks.append(clock())
        report = spectrum.analyze_series(levels)
        marks.append(clock())
        to_csv(report.levels, report.delta1)
        marks.append(clock())
        faults = minflt() - faults
        return [stop - start for start, stop in zip(marks, marks[1:])], faults

    return solve


def run(src: str, workload: str, seconds: float, seed: int) -> dict:
    """Time the workload's solves in this process, importing ptring from src:
    per round, the time per solve, the time per solve of each stage and the
    minor page faults per solve."""
    ptring = load(src, "ptring")
    solve, solves = solver(ptring), inputs(ptring, workload, seed)
    rounds = []
    end = None
    while end is None or time.perf_counter() < end:
        spent = dict.fromkeys(("solve", *STAGES, "faults"), 0.0)
        for f, Z, n in solves:
            times, faults = solve(f, Z, n)
            spent["solve"] += sum(times) / len(solves)
            spent["faults"] += faults / len(solves)
            for stage, dt in zip(STAGES, times):
                spent[stage] += dt / len(solves)
        if end is None:  # the untimed round
            end = time.perf_counter() + seconds
        else:
            rounds.append(spent)
    return {key: [r[key] for r in rounds] for key in ("solve", *STAGES, "faults")}


def interleave(args) -> int:
    """Solve each input with A and B in turn in this process (--interleave)
    and print each side's least times."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sides = {}
    for side, src in (("A", args.src_a), ("B", args.src_b)):
        ptring = load(src, f"ptring_ab_{side.lower()}")
        sides[side] = solver(ptring), inputs(ptring, args.workload, args.seed)
    count = len(sides["A"][1])
    for solve, solves in sides.values():  # one untimed round
        for case in solves:
            solve(*case)
    # per side and input, the least time of the solve and of each stage
    least = {side: [[math.inf] * (1 + len(STAGES))] * count for side in sides}
    faults = dict.fromkeys(sides, 0)
    order, end, rounds = "AB", time.perf_counter() + args.seconds, 0
    while time.perf_counter() < end:
        for i in range(count):
            for side in order:
                solve, solves = sides[side]
                times, faults_i = solve(*solves[i])
                least[side][i] = list(map(min, least[side][i], [sum(times), *times]))
                faults[side] += faults_i
        order, rounds = order[::-1], rounds + 1
    print(
        f"workload {args.workload}, seed {args.seed}, A and B interleaved for "
        f"{args.seconds:g} s on one core; least microseconds per solve, "
        f"averaged over the {count} inputs"
    )
    print("side   least  " + "  ".join(f"{s:>10}" for s in STAGES) + "   faults")
    mean = {}
    for side, rows in least.items():
        mean[side] = [statistics.fmean(col) * 1e6 for col in zip(*rows)]
        stages = "  ".join(f"{t:10.1f}" for t in mean[side][1:])
        per_solve = faults[side] / max(1, rounds * count)
        print(f"{side:<4} {mean[side][0]:7.1f}  {stages}  {per_solve:7.1f}")
    wins = sum(b[0] < a[0] for a, b in zip(least["A"], least["B"]))
    print(
        f"B/A of the least time per solve {mean['B'][0] / mean['A'][0]:.3f}; "
        f"B faster on {wins} of {count} inputs"
    )
    return 0


def spawn(src: str, args) -> dict:
    """One run in a fresh interpreter pinned to one core."""
    cpu = min(os.sched_getaffinity(0))
    code = (
        f"import os, sys, json; os.sched_setaffinity(0, {{{cpu}}}); "
        f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r}); "
        f"import solve_ab; print(json.dumps(solve_ab.run("
        f"{os.path.abspath(src)!r}, {args.workload!r}, {args.seconds!r}, {args.seed!r})))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pairs", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--interleave",
        action="store_true",
        help="solve with A and B in turn in this one process (see above)",
    )
    args = parser.parse_args(argv)
    if args.interleave:
        return interleave(args)
    sides = {"A": args.src_a, "B": args.src_b}
    runs = {"A": [], "B": []}
    for p in range(args.pairs):
        for side in ("AB" if p % 2 == 0 else "BA"):
            runs[side].append(spawn(sides[side], args))
    us = 1e6

    def median_us(rs, key):
        return statistics.median(statistics.median(r[key]) for r in rs) * us

    print(
        f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of "
        f"{args.seconds:g} s runs, one core each; microseconds per solve"
    )
    print("side   least  median  " + "  ".join(f"{s:>10}" for s in STAGES) + "   faults")
    for side, rs in runs.items():
        least = min(min(r["solve"]) for r in rs) * us
        stages = "  ".join(f"{median_us(rs, s):10.1f}" for s in STAGES)
        faults = statistics.median(statistics.median(r["faults"]) for r in rs)
        median = median_us(rs, "solve")
        print(f"{side:<4} {least:7.1f} {median:7.1f}  {stages}  {faults:7.1f}")
    print("pair first   A_least   B_least     B/A  A_median  B_median     B/A")
    ratios = {"least": [], "median": []}
    for p, (a, b) in enumerate(zip(runs["A"], runs["B"])):
        row = []
        for kind, stat in (("least", min), ("median", statistics.median)):
            ta, tb = stat(a["solve"]) * us, stat(b["solve"]) * us
            ratios[kind].append(tb / ta)
            row.append(f"{ta:9.1f} {tb:9.1f} {tb / ta:7.3f}")
        print(f"{p:4d} {'AB'[p % 2]:>5} " + " ".join(row))
    for kind, rs in ratios.items():
        wins = sum(r < 1.0 for r in rs)
        print(
            f"median B/A of the runs' {kind} times {statistics.median(rs):.3f}; "
            f"B faster in {wins} of {len(rs)} pairs"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
