"""Run one nnloop benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pendulum-verify --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload runs in a child Python process
that imports ``nnloop`` from ``src/`` and whose BLAS is limited to one thread
(``OPENBLAS_NUM_THREADS=1``, set only on that process): on a two-core
virtual machine a second BLAS thread made the pendulum global verify three to
four times slower, which measures the scheduler, not the solver.  The last line of standard output is the JSON
result; see README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "nnloop" / "cli.py").is_file():
        print(f"error: no nnloop sources under {src}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = dict(os.environ)
    env["PERFBENCH_OPENBLAS_AT_START"] = env.get("OPENBLAS_NUM_THREADS", "unset")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "bench.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(BENCH_DIR / "work" / f"{tag}-{os.getpid()}"),
           "--results", str(BENCH_DIR / "results" / f"{tag}.json")]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload exceeded {TIMEOUT_S:g} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
