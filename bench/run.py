"""Benchmark launcher for ptring: one workload, one seed, one JSON result.

    python3 bench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the repository root. It pins BLAS and OpenMP threads to 1, puts
src on PYTHONPATH and runs bench/worker.py in a fresh process, which does
the solves, the CLI commands, the set-up probes and their checks. The last
line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0, times in nominal seconds, see
bench/speed.py) or the per-layer ones (--trace 1); the line before it gives
the end-to-end figures in wall seconds.
It exits 2 without a result when the checkout has no ptring sources, and 1
when the worker does not finish. See bench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the whole run must end within 180 s
RUN_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ptring", "__init__.py")):
        print(f"error: no ptring sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + old if old else "")
    env.update({name: "1" for name in PINNED_THREADS})
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = perf_counter()
    # a SIGTERM to this launcher unwinds through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # its own process group, so that stopping it also stops the processes it started
    proc = subprocess.Popen(worker, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("error: the worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['rounds']} wall_s={perf_counter() - start:.1f}")
    if result["wall"]:
        print("wall clock, not nominal: " + " ".join(
            f"{k}={v:.4g}" for k, v in result["wall"].items()))
    for finding in result["findings"]:
        print(f"FAILED {finding}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
