"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py

1. The widened and permuted controllers the verify workloads feed to
   ``nnloop`` compute the shipped controller's function: the same
   ``forward`` output to 1e-12 on seeded samples, for two seeds.
2. The counts later changes may cite as counts (EXACT_COUNTS in bench.py)
   repeat exactly across two traced runs with the same seed, on every
   workload.

Takes about two minutes on a two-core machine.  Exits non-zero on failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import bench  # noqa: E402
from nnloop.assets import load_example_nn  # noqa: E402
from nnloop.network import forward, load_nn  # noqa: E402

SEEDS = (1, 2)
SAMPLES = 200
FORWARD_TOL = 1e-12


def check_widened_forward() -> list:
    errors = []
    shipped = load_example_nn()
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for copies in (1, bench.WIDE_COPIES):
            for seed in SEEDS:
                path = Path(tmp) / f"nn-{copies}-{seed}.json"
                bench.write_network(path, copies, seed)
                wide = load_nn(path)
                if wide.n_hidden != copies * shipped.n_hidden:
                    errors.append(f"copies={copies}: {wide.n_hidden} neurons")
                rng = np.random.default_rng(seed)
                worst = 0.0
                for _ in range(SAMPLES):
                    x = rng.normal(scale=2.0, size=shipped.n_x)
                    r = rng.normal(size=shipped.n_r)
                    diff = forward(wide, x, r).u - forward(shipped, x, r).u
                    worst = max(worst, float(np.max(np.abs(diff))))
                print(f"forward copies={copies} seed={seed}: "
                      f"max |difference| {worst:.3g}")
                if worst > FORWARD_TOL:
                    errors.append(f"copies={copies} seed={seed}: {worst:.3g}")
    return errors


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True,
                          text=True, timeout=300, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[f"{op}.{name}"]["value"]
            for op in bench.OPS for name in bench.EXACT_COUNTS
            if f"{op}.{name}" in metrics}


def check_counts_repeat() -> list:
    errors = []
    for workload in bench.WORKLOADS:
        first = traced_counts(workload, SEEDS[0])
        second = traced_counts(workload, SEEDS[0])
        print(f"counts {workload}: "
              f"{'identical' if first == second else 'DIFFER'}")
        errors.extend(f"{workload} {name}: {first[name]} != {second[name]}"
                      for name in first if first[name] != second[name])
    return errors


def main() -> int:
    errors = check_widened_forward() + check_counts_repeat()
    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
