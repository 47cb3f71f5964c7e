"""Benchmark worker: runs one workload in this process and prints its result.

Started by ``run.py`` in a child process whose BLAS runs one thread.  Every
command goes through ``nnloop.cli.main([...])`` exactly as a user would type
it, with default solver options, one caller in a closed loop: the next command
starts when the previous one returns.  Each command's outputs are checked
against pinned reference outcomes after its timing has stopped.  Times are
scaled to a machine of fixed speed by SpeedGauge.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
from scipy.linalg import solve_triangular

import nnloop.cli
from nnloop import roa
from nnloop.assets import PENDULUM_D, example_nn_path
from nnloop.network import load_nn
from nnloop.plant import build_pendulum

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PENDULUM = "m=0.15,L=0.5,mu=0.5,g=9.81,Ts=0.02,disc=exact-zoh"
COMMON = ["--pendulum", PENDULUM, "--kxi", "1.0"]
SETUP_REPEATS = 5
# Reported seconds are those of a machine on which reference_kernel() takes
# this long; see SpeedGauge.
REFERENCE_S = 0.02

# Pinned reference outcomes of the shipped pendulum scenario.  Neuron
# duplication and permutation keep the network's function, so the widened
# controller must reproduce them too.
REF_TRACE_P = 12.3016457
REF_TRACE_RTOL = 1e-4
REF_HALF_INTERVAL = 0.26517
REF_INTERVAL_RTOL = 1e-4
SAFETY_TOL = 1e-9
ENDPOINT_TOL = 1e-6
TRACKING_TOL = 1e-6
CONVERGENCE_WINDOW = 50

PLAIN_STEPS = 10000
GOVERNED_STEPS = 3000
GOVERNED_SCHEDULE = [[0, -1.0], [1500, 0.1]]
GOVERNED_SWITCH = 1500
CLOSED_LOOP_STATES = 4
WIDE_COPIES = 2

OPS = ("global", "local-fixed", "local-range", "simulate", "governed")
VERIFY_OPS = OPS[:3]

# Per-layer metrics, reported for every op of its kind as "<op>.<metric>".
# Times are per-command means, so that self times add up to trace.wall_s:
#   verify:   cli.self_s + plant.s + network.s + sectors.s + lmi.build_s
#             + sdp.self_s + sdp.certify_s + ipm.s + roa.s
#   simulate: cli.self_s + plant.s + network.s + roa.s + closed_loop.self_s
VERIFY_LAYER_METRICS = (
    ("ipm.calls", "count"), ("ipm.iterations", "count"),
    ("ipm.phase1_iterations", "count"), ("ipm.s", "s"),
    ("ipm.s_per_iter", "s"), ("ipm.max_iter_exits", "count"),
    ("ipm.numerical_exits", "count"), ("ipm.search_iterations", "count"),
    ("ipm.search_s", "s"), ("sdp.search_runs", "count"),
    ("sdp.search_success_ratio", "ratio"), ("sdp.self_s", "s"),
    ("sdp.certify_s", "s"), ("sectors.s", "s"), ("lmi.build_s", "s"),
    ("lmi.n_scalars", "count"), ("lmi.block_order_sum", "count"),
    ("plant.s", "s"), ("network.s", "s"), ("network.forward_calls", "count"),
    ("roa.s", "s"), ("cli.self_s", "s"), ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
SIM_LAYER_METRICS = (
    ("network.forward_calls", "count"), ("network.forward_s", "s"),
    ("network.s", "s"), ("closed_loop.govern_calls", "count"),
    ("closed_loop.govern_us_p50", "us"), ("closed_loop.govern_us_p99", "us"),
    ("closed_loop.govern_active_ratio", "ratio"),
    ("roa.joint_quad_calls", "count"), ("roa.joint_quad_many_calls", "count"),
    ("roa.joint_quad_s", "s"), ("roa.s", "s"), ("closed_loop.self_s", "s"),
    ("plant.s", "s"), ("ipm.calls", "count"), ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
)
# Counts that must repeat exactly between runs with the same seed.
EXACT_COUNTS = ("ipm.iterations", "ipm.calls", "network.forward_calls",
                "closed_loop.govern_calls", "roa.joint_quad_calls")


def layer_metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for op in OPS:
        table = VERIFY_LAYER_METRICS if op in VERIFY_OPS else SIM_LAYER_METRICS
        out.extend((f"{op}.{name}", unit) for name, unit in table)
    return out


# ---------------------------------------------------------------- inputs

def widen_network(data: dict, copies: int, rng) -> dict:
    """Function-preserving copy of a network JSON.

    Every hidden neuron is duplicated ``copies`` times; the next layer's
    weights on the copies are divided by ``copies`` (exact for a power of
    two), and the neurons of each hidden layer are permuted by ``rng``.
    ``copies=1`` gives a pure permutation.
    """
    layers, prev = [], None
    for layer in data["layers"]:
        W = np.array(layer["W"], dtype=float)
        b = np.array(layer["b"], dtype=float)
        if prev is not None:
            W = (np.repeat(W, copies, axis=1) / copies)[:, prev]
        perm = rng.permutation(W.shape[0] * copies)
        W = np.repeat(W, copies, axis=0)[perm]
        b = np.repeat(b, copies)[perm]
        layers.append({"W": W.tolist(), "b": b.tolist()})
        prev = perm
    Wl = (np.repeat(np.array(data["Wl"], dtype=float), copies, axis=1)
          / copies)[:, prev]
    return {"activation": data["activation"], "Hx0": data["Hx0"],
            "Hr0": data["Hr0"], "layers": layers, "Wl": Wl.tolist(),
            "bl": data["bl"]}


def write_network(path: Path, copies: int, seed: int) -> None:
    with open(example_nn_path()) as fh:
        data = json.load(fh)
    widened = widen_network(data, copies, np.random.default_rng(seed))
    path.write_text(json.dumps(widened))


# ---------------------------------------------------------------- checks

@dataclass(frozen=True)
class Failure:
    reason: str
    wrong: bool  # a decisive answer that contradicts the reference


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_verify(op: str, code: int, out: Path):
    path = out / "verify_report.json"
    if not path.exists():
        return Failure(f"exit {code}, no report", True)
    report = json.loads(path.read_text())
    status = report["status"]
    if status in ("inaccurate", "solver_error"):
        return Failure(f"{status}, exit {code}", code != 2)
    expect = ("infeasible", 1) if op == "global" else ("feasible", 0)
    if (status, code) != expect:
        return Failure(f"{status}, exit {code}", True)
    if op == "local-fixed":
        trace_p = float(np.trace(np.array(report["P"])))
        if _rel(trace_p, REF_TRACE_P) > REF_TRACE_RTOL:
            return Failure(f"trace(P) {trace_p!r}", True)
    if op == "local-range":
        lo, hi = report["admissible_references"]["interval"]
        if max(_rel(-lo, REF_HALF_INTERVAL),
               _rel(hi, REF_HALF_INTERVAL)) > REF_INTERVAL_RTOL:
            return Failure(f"interval [{lo!r}, {hi!r}]", True)
    return None


def _read_trajectory(out: Path, steps: int):
    path = out / "trajectory.csv"
    if not path.exists():
        return None
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows if rows.shape[0] == steps else None


def _settled(rows, r) -> bool:
    """The last window tracks reference r (columns: k, xtil.., u, y, rhat)."""
    tail = rows[-CONVERGENCE_WINDOW:]
    return bool(np.all(tail[:, -1] == r)
                and np.all(np.abs(tail[:, -2] - r) < TRACKING_TOL))


def check_simulate(code: int, stdout: str, out: Path, steps: int):
    if code != 0:
        return Failure(f"exit {code}", True)
    rows = _read_trajectory(out, steps)
    if rows is None:
        return Failure("trajectory missing or truncated", True)
    if "converged: True" not in stdout or not _settled(rows, 0.0):
        return Failure("did not converge to r = 0", True)
    return None


def check_governed(code: int, stdout: str, out: Path, J, lo: float):
    if code != 0:
        return Failure(f"exit {code}", True)
    rows = _read_trajectory(out, GOVERNED_STEPS)
    if rows is None:
        return Failure("trajectory missing or truncated", True)
    states, rhat = rows[:, 1:4], rows[:, -1:]
    err = states - J.xtil_star_batch(rhat)
    dr = rhat - J.r_nom[None, :]
    quad = np.einsum("ni,ij,nj->n", err, J.P, err) + \
        np.einsum("ni,ij,nj->n", dr, J.Q, dr)
    if float(np.min(1.0 - quad)) < -SAFETY_TOL:
        return Failure(f"joint-set margin {float(np.min(1.0 - quad))!r}", True)
    end = float(rhat[GOVERNED_SWITCH - 1, 0])
    if abs(end - lo) > ENDPOINT_TOL:
        return Failure(f"reference {end!r} at step {GOVERNED_SWITCH - 1}", True)
    if "converged: True" not in stdout or not _settled(rows, 0.1):
        return Failure("did not converge to r = 0.1", True)
    return None


# ---------------------------------------------------------------- workloads

@dataclass
class Command:
    op: str
    argv: list
    out: Path
    steps: int = 0
    check: Callable = None  # (exit code, stdout) -> Failure | None


def run_cli(argv, tracer=None):
    """One CLI command; returns (exit code, stdout, wall seconds).

    An exception escaping the CLI is reported as exit code -1, so that it
    fails its check instead of ending the run.
    """
    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
        stack.enter_context(contextlib.redirect_stdout(buf))
        t0 = time.perf_counter()
        try:
            code = nnloop.cli.main(argv)
        except Exception as exc:
            code = -1
            print(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
    return code, buf.getvalue(), wall


def _verify_cmd(op, nn: Path, work: Path) -> Command:
    extra = {"global": [],
             "local-fixed": ["--r", "0", "--d", str(PENDULUM_D)],
             "local-range": ["--rnom", "0", "--d", str(PENDULUM_D)]}[op]
    out = work / f"out-{op}"
    argv = ["verify", *COMMON, "--nn", str(nn), "--theorem", op, *extra,
            "--out", str(out)]
    return Command(op, argv, out,
                   check=lambda code, _stdout: check_verify(op, code, out))


def _warm_up(work: Path) -> None:
    """First calls pay for lazy imports and BLAS start-up; users pay that
    once per process, so it belongs to set-up, not to the timed commands."""
    cmd = _verify_cmd("global", Path(example_nn_path()), work / "warm")
    code, _, _ = run_cli(cmd.argv)
    if cmd.check(code, ""):
        raise RuntimeError("warm-up verify failed")


def setup_verify(seed: int, work: Path, copies: int, ops):
    nn = work / "nn.json"
    write_network(nn, copies, seed)
    _warm_up(work)
    return [[_verify_cmd(op, nn, work) for op in ops]]


def setup_closed_loop(seed: int, work: Path):
    nn = Path(example_nn_path())
    verify = _verify_cmd("local-range", nn, work / "joint")
    code, _, _ = run_cli(verify.argv)
    failure = verify.check(code, "")
    if failure:
        raise RuntimeError(f"set-up verify failed: {failure.reason}")
    report_path = verify.out / "verify_report.json"
    report = json.loads(report_path.read_text())
    J = roa.joint_ellipsoid_for(build_pendulum(), load_nn(nn), 1.0,
                                np.array(report["P"]), np.array(report["Q"]),
                                np.array(report["r_nom"]))
    lo, _ = roa.admissible_references(J).interval
    slice0 = roa.slice_at(J, np.zeros(1))
    schedule = work / "schedule.json"
    schedule.write_text(json.dumps(GOVERNED_SCHEDULE))
    rng = np.random.default_rng(seed)
    cycle = []
    for i in range(CLOSED_LOOP_STATES):
        x0 = slice0.point_at(rng.normal(size=3), radius=rng.uniform(0.0, 0.9))
        x0_arg = "--x0=" + ",".join(repr(float(v)) for v in x0)
        plain_out = work / f"out-simulate-{i}"
        gov_out = work / f"out-governed-{i}"
        plain = Command(
            "simulate",
            ["simulate", *COMMON, "--nn", str(nn), "--r", "0", x0_arg,
             "--steps", str(PLAIN_STEPS), "--out", str(plain_out)],
            plain_out, PLAIN_STEPS,
            check=lambda code, stdout, out=plain_out:
                check_simulate(code, stdout, out, PLAIN_STEPS))
        governed = Command(
            "governed",
            ["simulate", *COMMON, "--nn", str(nn), "--governed",
             "--report", str(report_path), "--ref-schedule", str(schedule),
             x0_arg, "--steps", str(GOVERNED_STEPS), "--out", str(gov_out)],
            gov_out, GOVERNED_STEPS,
            check=lambda code, stdout, out=gov_out:
                check_governed(code, stdout, out, J, lo))
        cycle.append([plain, governed])
    # A short governed run warms the simulation path the same way.
    warm = cycle[0][1].argv[:-4] + ["--steps", "60", "--out", str(work / "warm")]
    if run_cli(warm)[0] != 0:
        raise RuntimeError("warm-up simulate failed")
    return cycle


WORKLOADS = {
    "pendulum-verify": lambda seed, work: setup_verify(
        seed, work, 1, ("global", "local-fixed", "local-range")),
    "wide-verify": lambda seed, work: setup_verify(
        seed, work, WIDE_COPIES, ("global", "local-fixed")),
    "closed-loop": setup_closed_loop,
}


# ---------------------------------------------------------------- metrics

def high_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(values, p))
    return None


def command_layer_metrics(op: str, s: tracing.CommandStats) -> dict:
    """Per-layer numbers of one traced command (before averaging)."""
    ipm_s = sum(rec[3] for rec in s.ipm)
    search = [rec for rec in s.ipm if rec[0] == "search"]
    if op in VERIFY_OPS:
        return {
            "ipm.calls": len(s.ipm),
            "ipm.iterations": sum(rec[1] for rec in s.ipm),
            "ipm.phase1_iterations": sum(rec[1] for rec in s.ipm
                                         if rec[0] == "phase1"),
            "ipm.s": ipm_s,
            "ipm.max_iter_exits": sum(rec[2] == "max_iter" for rec in s.ipm),
            "ipm.numerical_exits": sum(rec[2] == "numerical" for rec in s.ipm),
            "ipm.search_iterations": sum(rec[1] for rec in search),
            "ipm.search_s": sum(rec[3] for rec in search),
            "sdp.search_runs": len(search),
            "sdp.search_successes": s.search_successes,
            "sdp.self_s": s.self_s.get("sdp", 0.0),
            "sdp.certify_s": s.self_s.get("sdp.certify", 0.0),
            "sectors.s": s.self_s.get("sectors", 0.0),
            "lmi.build_s": s.self_s.get("lmi", 0.0),
            "lmi.n_scalars": s.n_scalars or 0,
            "lmi.block_order_sum": s.block_order_sum,
            "plant.s": s.self_s.get("plant", 0.0),
            "network.s": s.self_s.get("network", 0.0),
            "network.forward_calls": s.count("closed_loop.forward"),
            "roa.s": s.self_s.get("roa", 0.0),
            "cli.self_s": s.self_s.get("cli", 0.0),
            "trace.wall_s": s.wall_s,
        }
    return {
        "network.forward_calls": s.count("closed_loop.forward"),
        "network.forward_s": s.total_s("closed_loop.forward"),
        "network.s": s.self_s.get("network", 0.0),
        "closed_loop.govern_calls": s.count("closed_loop.govern"),
        "closed_loop.govern_active": s.govern_active,
        "roa.joint_quad_calls": s.count("JointEllipsoid.joint_quad"),
        "roa.joint_quad_many_calls": s.count("JointEllipsoid.joint_quad_many"),
        "roa.joint_quad_s": s.total_s("JointEllipsoid.joint_quad")
        + s.total_s("JointEllipsoid.joint_quad_many"),
        "roa.s": s.self_s.get("roa", 0.0),
        "closed_loop.self_s": s.self_s.get("closed_loop", 0.0),
        "plant.s": s.self_s.get("plant", 0.0),
        "ipm.calls": len(s.ipm),
        "cli.self_s": s.self_s.get("cli", 0.0),
        "trace.wall_s": s.wall_s,
    }


def op_layer_metrics(op, traced, untraced_walls) -> dict:
    """Average the traced commands of one op into its per-layer metrics."""
    table = VERIFY_LAYER_METRICS if op in VERIFY_OPS else SIM_LAYER_METRICS
    out = {name: 0.0 for name, _ in table}
    if not traced:
        return out
    rows = [command_layer_metrics(op, s) for s in traced]
    mean = {k: statistics.fmean(r[k] for r in rows) for k in rows[0]}
    for name in out:
        if name in mean:
            out[name] = mean[name]
    out["trace.overhead_s"] = mean["trace.wall_s"] - statistics.fmean(
        untraced_walls)
    if op in VERIFY_OPS:
        if mean["ipm.iterations"]:
            out["ipm.s_per_iter"] = mean["ipm.s"] / mean["ipm.iterations"]
        if mean["sdp.search_runs"]:
            out["sdp.search_success_ratio"] = (
                mean["sdp.search_successes"] / mean["sdp.search_runs"])
    else:
        durations = [d for s in traced for d in s.govern_s]
        if durations:
            out["closed_loop.govern_us_p50"] = 1e6 * float(
                np.percentile(durations, 50))
            out["closed_loop.govern_us_p99"] = 1e6 * float(
                np.percentile(durations, 99))
            out["closed_loop.govern_active_ratio"] = (
                mean["closed_loop.govern_active"]
                / mean["closed_loop.govern_calls"])
    return out


def self_time_residual(s: tracing.CommandStats) -> float:
    """Traced wall time minus the sum of the layer self times."""
    return s.wall_s - sum(s.self_s.values())


# ---------------------------------------------------------------- environment

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "nnloop"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_num_threads_at_start": os.environ.get(
            "PERFBENCH_OPENBLAS_AT_START"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------- machine speed

def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work that does not involve nnloop:
    interpreter-bound operations on tiny arrays, then small and mid-sized
    dense factorizations, the same mix as the commands it brackets."""
    rng = np.random.default_rng(0)
    W, v = rng.normal(size=(5, 5)), rng.normal(size=5)
    mats = []
    for n in (20, 150):
        A = rng.normal(size=(n, n))
        mats.append(A @ A.T + n * np.eye(n))
    t0 = time.perf_counter()
    for _ in range(2000):
        v = np.atleast_1d(np.tanh(W @ v + 0.1))
    for S, reps in zip(mats, (200, 8)):
        eye = np.eye(S.shape[0])
        for _ in range(reps):
            Linv = solve_triangular(np.linalg.cholesky(S), eye, lower=True)
            Linv @ S @ Linv.T
    return time.perf_counter() - t0


class SpeedGauge:
    """Scales wall times to a machine of fixed speed.

    A shared host can change the speed of this process's CPU by a factor of
    two within minutes, slowing all work alike; medians of raw wall times
    then drift by far more than any change worth detecting.  Every timed
    interval is bracketed by reference_kernel(), and its wall time is
    multiplied by REFERENCE_S over the mean of the two kernel times.  Call
    ``normalize`` right after the timed work ends.
    """

    def __init__(self):
        reference_kernel()  # first call pays for lazy imports
        self.kernel_s = [reference_kernel()]

    def normalize(self, wall: float) -> float:
        self.kernel_s.append(reference_kernel())
        return wall * REFERENCE_S / statistics.fmean(self.kernel_s[-2:])


# ---------------------------------------------------------------- main loop

def measure(cycle, seconds: float, tracer, gauge: SpeedGauge):
    """Run rounds of commands until ``seconds`` have passed, finishing the
    cycle of rounds under way so every input is measured equally often.

    With a tracer, every round runs once untraced and then once traced.
    Returns the command records and, per untraced round, the normalized and
    the wall time.
    """
    commands, round_s, round_wall_s = [], [], []
    t_end = time.perf_counter() + seconds
    passes = (None,) if tracer is None else (None, tracer)
    i = 0
    while i == 0 or i % len(cycle) or time.perf_counter() < t_end:
        for tr in passes:
            recs = []
            for cmd in cycle[i % len(cycle)]:
                shutil.rmtree(cmd.out, ignore_errors=True)
                if tr is not None:
                    tr.begin(len(commands))
                code, stdout, wall = run_cli(cmd.argv, tr)
                stats = tr.end() if tr is not None else None
                recs.append({
                    "op": cmd.op, "round": i, "input": i % len(cycle),
                    "traced": tr is not None, "wall_s": wall,
                    "norm_s": gauge.normalize(wall), "steps": cmd.steps,
                    "failure": cmd.check(code, stdout), "stats": stats,
                })
            commands.extend(recs)
            if tr is None:
                round_s.append(sum(r["norm_s"] for r in recs))
                round_wall_s.append(sum(r["wall_s"] for r in recs))
        i += 1
    return commands, round_s, round_wall_s


def counts_repeat(commands) -> bool:
    """Exact counts of each command equal those of every other traced run
    of the same command on the same input."""
    first = {}
    for rec in commands:
        if rec["stats"] is None:
            continue
        m = command_layer_metrics(rec["op"], rec["stats"])
        key = (rec["op"], rec["input"])
        counts = tuple(m.get(name) for name in EXACT_COUNTS)
        if first.setdefault(key, counts) != counts:
            return False
    return True


PER_OP_NAMES = {"global": "verify_global_s",
                "local-fixed": "verify_local_fixed_s",
                "local-range": "verify_local_range_s",
                "simulate": "sim_steps_per_s",
                "governed": "governed_steps_per_s"}


def _summary(values, unit, wall_values) -> str:
    """Median with its sample count and high percentile, then the median
    of the raw wall-clock values."""
    high = high_percentile(values)
    tail = (f"p{high[0]:g} {high[1]:.6g}" if high
            else "no percentile has 10 samples beyond it")
    return (f"{statistics.median(values):.6g} {unit} median "
            f"(n={len(values)}; {tail}; wall-clock "
            f"{statistics.median(wall_values):.6g})")


def per_op_report(commands) -> dict:
    """Print the per-command end-to-end metrics of the untraced commands."""
    per_op = {}
    for op in OPS:
        name = PER_OP_NAMES[op]
        recs = [r for r in commands if r["op"] == op and not r["traced"]]
        if not recs:
            print(f"  {name:<24} n/a (not in this workload)")
            continue
        if op in VERIFY_OPS:
            unit = "s"
            values = [r["norm_s"] for r in recs]
            walls = [r["wall_s"] for r in recs]
        else:
            unit = "steps/s"
            values = [r["steps"] / r["norm_s"] for r in recs]
            walls = [r["steps"] / r["wall_s"] for r in recs]
        per_op[name] = {"median": statistics.median(values), "unit": unit,
                        "samples": values, "wall_clock_samples": walls}
        print(f"  {name:<24} {_summary(values, unit, walls)}")
    return per_op


def traced_report(commands, result: dict) -> dict:
    """Per-layer metrics of the traced commands; prints the self-time and
    count-repeat checks and the tracing overhead."""
    metrics, units, worst = {}, dict(layer_metric_names()), 0.0
    for op in OPS:
        traced = [r["stats"] for r in commands
                  if r["op"] == op and r["traced"]]
        walls = [r["wall_s"] for r in commands
                 if r["op"] == op and not r["traced"]]
        values = op_layer_metrics(op, traced, walls)
        for name, value in values.items():
            metrics[f"{op}.{name}"] = {"value": value,
                                       "unit": units[f"{op}.{name}"]}
        worst = max([worst] + [abs(self_time_residual(s)) for s in traced])
        if traced:
            print(f"  {op}: traced wall {values['trace.wall_s']:.6g} s, "
                  f"tracing overhead {values['trace.overhead_s']:+.6g} s")
    repeat = counts_repeat(commands)
    print(f"  self times sum to traced wall time within {worst:.3g} s")
    print(f"  exact counts repeat across cycles: {repeat}")
    result["self_time_residual_s"] = worst
    result["counts_repeat"] = repeat
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--results", required=True, help="result JSON path")
    args = parser.parse_args(argv)

    work = Path(args.work)
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))

    gauge = SpeedGauge()
    setup_s, setup_wall_s = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        cycle = WORKLOADS[args.workload](args.seed, work)
        setup_wall_s.append(time.perf_counter() - t0)
        setup_s.append(gauge.normalize(setup_wall_s[-1]))

    tracer = tracing.Tracer() if args.trace else None
    commands, round_s, round_wall_s = measure(cycle, args.seconds, tracer,
                                              gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in commands if r["failure"] is not None]
    for rec in failures:
        print(f"FAILED {rec['op']} round {rec['round']}: "
              f"{rec['failure'].reason}")
    attempted = len(commands)
    fail_ratio = len(failures) / attempted
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(round_s)}  commands {attempted}")
    per_op = per_op_report(commands)
    print(f"  {'fail_ratio':<24} {fail_ratio:.6g} ratio  "
          f"({len(failures)} of {attempted})")
    print(f"  {'peak_rss_mb':<24} {peak_rss_mb:.6g} MB")
    print(f"  {'round_s':<24} {_summary(round_s, 's', round_wall_s)}")
    print(f"  {'setup_s':<24} {_summary(setup_s, 's', setup_wall_s)}")
    print(f"  {'reference_kernel_s':<24} "
          f"{statistics.median(gauge.kernel_s):.6g} s median "
          f"(n={len(gauge.kernel_s)}; {min(gauge.kernel_s):.6g} to "
          f"{max(gauge.kernel_s):.6g})")

    result = {"environment": env, "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace,
              "reference_s": REFERENCE_S, "kernel_s": gauge.kernel_s,
              "setup_s": setup_s, "setup_wall_s": setup_wall_s,
              "round_s": round_s, "round_wall_s": round_wall_s,
              "per_op": per_op,
              "failures": [{"op": r["op"], "round": r["round"],
                            "reason": r["failure"].reason,
                            "wrong": r["failure"].wrong} for r in failures]}
    if args.trace:
        metrics = traced_report(commands, result)
        result["spans"] = tracer.spans
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "round_s": {"value": statistics.median(round_s), "unit": "s"},
            "success_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result["metrics"] = metrics
    Path(args.results).parent.mkdir(parents=True, exist_ok=True)
    Path(args.results).write_text(json.dumps(result))
    print(f"results: {args.results}")
    print(json.dumps({
        "correct": not any(r["failure"].wrong for r in failures),
        "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
