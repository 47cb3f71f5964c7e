"""Command-line front end: verify, simulate, bounds, roa-plot.

Exit codes: 0 feasible-certified (or successful non-verification command),
1 infeasible, 2 inaccurate / solver error (and any unexpected exception),
3 input error (usage errors, unreadable or malformed files too).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import numpy as np

from . import closed_loop, ipm, lmi, roa, sdp, sectors
from .errors import NNLoopError, NonPositiveD
from .network import io_maps, load_nn, steady_forward
from .plant import (Plant, _read_json, augment, build_pendulum, load_plant,
                    steady_state, steady_state_map)

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_INACCURATE = 2
EXIT_INPUT = 3

_STATUS_EXIT = {
    sdp.FEASIBLE: EXIT_FEASIBLE,
    sdp.INFEASIBLE: EXIT_INFEASIBLE,
    sdp.INACCURATE: EXIT_INACCURATE,
    sdp.SOLVER_ERROR: EXIT_INACCURATE,
}


class CliError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit EXIT_INPUT; its own code, 2, is
    EXIT_INACCURATE here.  Subcommand parsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _parse_vector(text: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise CliError(f"cannot parse vector {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise CliError(f"vector entries must be finite: {text!r}")
    return vec


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
        mat = np.array(rows, dtype=float)
    except ValueError as exc:
        raise CliError(f"cannot parse matrix {text!r}") from exc
    if not np.all(np.isfinite(mat)):
        raise CliError(f"matrix entries must be finite: {text!r}")
    return mat


def _parse_dims(text: str, n: int) -> tuple:
    try:
        dims = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"cannot parse --dims {text!r}") from exc
    if len(dims) != 2 or dims[0] == dims[1] or not all(0 <= i < n for i in dims):
        raise CliError(f"--dims must be two distinct indices in 0..{n - 1}, got {text!r}")
    return dims


def _parse_pendulum(text: str) -> Plant:
    kwargs = {}
    seen = set()
    for item in text.split(","):
        if not item:
            continue
        try:
            key, val = item.split("=")
        except ValueError as exc:
            raise CliError(f"bad pendulum parameter {item!r}") from exc
        key = key.strip()
        val = val.strip()
        if key in seen:
            raise CliError(f"pendulum parameter {key!r} given twice")
        seen.add(key)
        if key in ("m", "L", "mu", "g", "Ts"):
            try:
                kwargs["T_s" if key == "Ts" else key] = float(val)
            except ValueError as exc:
                raise CliError(f"pendulum parameter {key!r} must be a number, "
                               f"got {val!r}") from exc
        elif key == "disc":
            kwargs["method"] = val
        elif key == "out":
            kwargs["output"] = val
        else:
            raise CliError(f"unknown pendulum parameter {key!r}")
    try:
        return build_pendulum(**kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _load_inputs(args):
    if bool(args.plant) == bool(args.pendulum):
        raise CliError("exactly one of --plant / --pendulum is required")
    plant = load_plant(args.plant) if args.plant else _parse_pendulum(args.pendulum)
    if not args.nn:
        raise CliError("--nn is required")
    nn = load_nn(args.nn)
    k_xi = _parse_matrix(args.kxi)
    if k_xi.shape == (1, 1) and plant.n_r > 1:
        k_xi = float(k_xi[0, 0]) * np.eye(plant.n_r)
    return plant, nn, k_xi


def _listify(x):
    if x is None:
        return None
    return np.asarray(x, dtype=float).tolist()


def _local_sector_pipeline(plant, nn, k_xi, r_anchor, d):
    ss = steady_state(plant, nn, k_xi, r_anchor)
    trace = steady_forward(nn, ss.x_star, r_anchor)
    box = sectors.propagate_box(nn, trace.v[0], d)
    secs = sectors.local_sectors(nn, box, trace.v)
    return ss, trace, box, secs


def _admissible_entry(Q, r_nom) -> dict:
    """The admissible references of a feasible local-range run."""
    refs = roa.admissible_references(Q, r_nom)
    entry = {
        "r_nom": r_nom.tolist(),
        "axes": refs.axes.tolist(),
        "semi_lengths": refs.semi_lengths.tolist(),
    }
    if r_nom.size == 1:
        entry["interval"] = list(refs.interval)
    return entry


def run_verify(plant, nn, k_xi, theorem: str, r=None, r_nom=None, d=None,
               gamma: float = 1.0, tol: float = 1e-8) -> dict:
    """Full verification pipeline; returns a JSON-ready report dict.

    The tolerance and, for local-range, gamma are checked before any work.
    Before the theorem's LMI is built, :func:`sdp.unstable_vertex` tries the
    sector vertices alpha and beta and, for a local theorem, the
    linearization clip(phi'(v_*), alpha, beta).  A vertex whose linear loop
    is not Schur proves the LMI infeasible: the report is "infeasible" with
    0 iterations and that vertex as its ``certificate``, and no LMI is
    assembled or solved.  Otherwise the LMI is solved and checked by
    :func:`sdp.solve`, and ``certificate`` is None.
    """
    t_start = time.perf_counter()
    anchors = {"global": None, "local-fixed": r, "local-range": r_nom}
    if theorem not in anchors:
        raise CliError(f"unknown theorem {theorem!r}")
    ipm.check_tol(tol)
    if theorem == "local-range":
        lmi.check_gamma(gamma)
    local = theorem != "global"
    if local and d is None:
        raise NonPositiveD("local theorems require a box half-width d")
    anchor = (np.zeros(plant.n_r) if anchors[theorem] is None
              else np.atleast_1d(anchors[theorem]).astype(float))

    aug = augment(plant, k_xi)
    sel = lmi.build_selectors(nn, aug.n_xtil)
    act = nn.activation
    if local:
        ss, trace, _, secs = _local_sector_pipeline(plant, nn, k_xi, anchor, d)
        slope = np.clip(act.deriv(np.concatenate(trace.v)),
                        secs.alpha_phi, secs.beta_phi)
        vertices = {"linearization": slope}
    else:
        ss = None  # computed below, for a feasible verdict only
        secs = sectors.global_sectors(act, nn.n_hidden)
        vertices = {}
    certificate = sdp.unstable_vertex(
        aug, sel, {"alpha": secs.alpha_phi, "beta": secs.beta_phi, **vertices})
    if certificate is not None:
        sol = sdp.SDPSolution(status=sdp.INFEASIBLE)
    else:
        if theorem == "local-fixed":
            system = lmi.build_local_fixed(aug, sel, secs, d)
        elif theorem == "local-range":
            S = lmi.ref_sensitivity(nn, steady_state_map(plant))
            system = lmi.build_local_range(aug, sel, secs, d, S, gamma=gamma)
        else:
            system = lmi.build_global(aug, sel, act.alpha, act.beta)
        sol = sdp.solve_certified(system, tol)
    feasible = sol.status == sdp.FEASIBLE
    if feasible and ss is None:
        ss = steady_state(plant, nn, k_xi, anchor)
    return {
        "theorem": theorem,
        "k_xi": np.atleast_2d(k_xi).tolist(),
        "plant": {"A": plant.A.tolist(), "B": plant.B.tolist(),
                  "C": plant.C.tolist()},
        "activation": nn.activation.kind,
        "solver": {"tol": tol, "status": sol.ipm_status, "reason": sol.ipm_reason},
        "d": _listify(d),
        "gamma": gamma if theorem == "local-range" else None,
        ("r_nom" if theorem == "local-range" else "r"):
            anchor.tolist() if local else None,
        "status": sol.status,
        "objective": sol.objective_value,
        "iterations": sol.iterations,
        "certificate": certificate,
        "margins": {k: float(v) for k, v in sorted(sol.margins.items())},
        "P": _listify(sol.P),
        "Lambda": None if sol.Lambda is None else np.diag(sol.Lambda).tolist(),
        "Q": _listify(sol.Q),
        "steady_state": {
            "r": anchor.tolist(),
            "xtil_star": ss.xtil_star.tolist(),
            "u_star": ss.u_star.tolist(),
        } if feasible else None,
        "admissible_references": (_admissible_entry(sol.Q, anchor)
                                  if feasible and theorem == "local-range" else None),
        "meta": {"elapsed_s": time.perf_counter() - t_start},
    }


def _write_report(report: dict, out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_verify(args) -> int:
    for flag, value, reads in (("--r", args.r, ("local-fixed",)),
                               ("--rnom", args.rnom, ("local-range",)),
                               ("--gamma", args.gamma, ("local-range",)),
                               ("--d", args.d, ("local-fixed", "local-range"))):
        if value is not None and args.theorem not in reads:
            raise CliError(f"{flag} is read only by --theorem {' or '.join(reads)}, "
                           f"not {args.theorem}")
    plant, nn, k_xi = _load_inputs(args)
    d = None
    if args.d is not None:
        d = _parse_vector(args.d)
        d = float(d[0]) if d.size == 1 else d
    if not (np.isfinite(args.tol) and args.tol > 0.0):
        raise CliError(f"--tol must be finite and positive, got {args.tol}")
    given = {} if args.gamma is None else {"gamma": args.gamma}
    report = run_verify(
        plant, nn, k_xi, args.theorem,
        r=None if args.r is None else _parse_vector(args.r),
        r_nom=None if args.rnom is None else _parse_vector(args.rnom),
        d=d, tol=args.tol, **given,
    )
    path = _write_report(report, args.out, "verify_report.json")
    print(f"status: {report['status']}  report: {path}")
    return _STATUS_EXIT[report["status"]]


def _load_report(path) -> dict:
    """A verification report read from JSON; anything but an object is refused."""
    report = _read_json(path, "report", CliError)
    if not isinstance(report, dict):
        raise CliError(f"report {path} is not a JSON object")
    return report


def _report_array(report: dict, key: str, shape: tuple) -> np.ndarray:
    """Field ``key`` of a verification report as a finite array of ``shape``."""
    if key not in report:
        raise CliError(f"report has no field {key!r}")
    try:
        arr = np.array(report[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliError(f"report {key} is not numeric") from exc
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise CliError(f"report {key} must be finite with shape {shape}, "
                       f"got shape {arr.shape}")
    return arr


def _report_matrix(report: dict, key: str, n: int) -> np.ndarray:
    """Matrix ``key`` of a verification report, checked to be a symmetric
    positive definite n x n matrix (an inaccurate run's P need not be)."""
    mat = _report_array(report, key, (n, n))
    if not (np.max(np.abs(mat - mat.T)) <= 1e-10 * (1.0 + np.max(np.abs(mat)))
            and np.linalg.eigvalsh(mat)[0] > 0.0):
        raise CliError(f"report {key} is not symmetric positive definite")
    return mat


def _joint_from_report(report: dict, plant, nn, k_xi):
    if report.get("Q") is None or report.get("P") is None:
        raise CliError("report does not contain a local-range (P, Q) pair")
    r_nom = _report_array(report, "r_nom", (plant.n_r,))
    return roa.joint_ellipsoid_for(
        plant, nn, k_xi,
        _report_matrix(report, "P", plant.n_x + plant.n_r),
        _report_matrix(report, "Q", plant.n_r),
        r_nom,
    )


def _slice_curves(J, fracs, dims) -> list:
    """Boundary curves of the joint set's slices at r_nom + frac * h a, with
    a the longest axis of the admissible references and h its half-length,
    one for each fraction whose slice is not a point."""
    refs = roa.admissible_references(J)
    step = refs.semi_lengths[0] * refs.axes[:, 0]
    curves = []
    for frac in fracs:
        E = roa.slice_at(J, J.r_nom + frac * step)
        if E is not None and E.level > 0.0:
            curves.append((roa.boundary_polyline(E, dims), "#c62828"))
    return curves


def cmd_simulate(args) -> int:
    if args.report and not args.governed:
        raise CliError("--report is read only with --governed")
    if (args.r is None) == (not args.ref_schedule):
        raise CliError("exactly one of --r or --ref-schedule is required")
    plant, nn, k_xi = _load_inputs(args)
    aug = augment(plant, k_xi)
    if args.steps < 1:
        raise CliError(f"--steps must be at least 1, got {args.steps}")
    schedule = (_read_json(args.ref_schedule, "reference schedule", CliError)
                if args.ref_schedule else _parse_vector(args.r))
    x0 = (np.zeros(aug.n_xtil) if args.x0 is None else _parse_vector(args.x0))
    if x0.shape != (aug.n_xtil,):
        raise CliError(f"--x0 must have {aug.n_xtil} entries")

    if args.governed:
        if not args.report:
            raise CliError("--governed requires --report from a local-range run")
        J = _joint_from_report(_load_report(args.report), plant, nn, k_xi)
        traj = closed_loop.simulate_with_governor(
            aug, nn, J, x0, schedule, args.steps)
    else:
        J = None
        traj = closed_loop.simulate(aug, nn, x0, schedule, args.steps)

    csv_path = os.path.join(args.out, "trajectory.csv")
    closed_loop.write_trajectory_csv(csv_path, traj)
    print(f"steps: {traj.steps}  converged: {traj.converged}  "
          f"diverged: {traj.diverged}  csv: {csv_path}")
    if args.svg:
        svg_path = os.path.join(args.out, "trajectory.svg")
        curves = [] if J is None else _slice_curves(
            J, (-0.99, -0.5, 0.0, 0.5, 0.99), (0, 1))
        # A diverged run may end in non-finite rows; they are not drawn.
        finite = traj.states[np.isfinite(traj.states).all(axis=1), :2]
        if finite.shape[0] >= 2:
            curves.append((finite, "#1565c0"))
        roa.polylines_to_svg(svg_path, curves)
        print(f"svg: {svg_path}")
    return EXIT_FEASIBLE


def cmd_bounds(args) -> int:
    plant, nn, k_xi = _load_inputs(args)
    if args.d is None:
        raise CliError("--d is required")
    d = _parse_vector(args.d)
    d = float(d[0]) if d.size == 1 else d
    r = np.zeros(plant.n_r) if args.r is None else _parse_vector(args.r)
    _, trace, box, secs = _local_sector_pipeline(plant, nn, k_xi, r, d)
    neurons = []
    idx = 0
    for layer in range(len(box.v_lo)):
        for j in range(box.v_lo[layer].shape[0]):
            neurons.append({
                "layer": layer + 1,
                "neuron": j,
                "v_star": float(trace.v[layer][j]),
                "v_lo": float(box.v_lo[layer][j]),
                "v_hi": float(box.v_hi[layer][j]),
                "w_lo": float(box.w_lo[layer][j]),
                "w_hi": float(box.w_hi[layer][j]),
                "alpha_phi": float(secs.alpha_phi[idx]),
                "beta_phi": float(secs.beta_phi[idx]),
            })
            idx += 1
    report = {
        "r": r.tolist(),
        "d": np.broadcast_to(np.asarray(d, dtype=float),
                             (nn.hidden_widths[0],)).tolist(),
        "activation": nn.activation.kind,
        "io": io_maps(nn, plant.C)._asdict(),
        "neurons": neurons,
    }
    path = _write_report(report, args.out, "bounds_report.json")
    print(f"bounds report: {path}")
    return EXIT_FEASIBLE


def cmd_roa_plot(args) -> int:
    plant, nn, k_xi = _load_inputs(args)
    report = _load_report(args.report)
    if report.get("P") is None:
        raise CliError("report has no P matrix (was the run feasible?)")
    P = _report_matrix(report, "P", plant.n_x + plant.n_r)
    dims = _parse_dims(args.dims, P.shape[0])
    if report.get("Q") is not None:
        J = _joint_from_report(report, plant, nn, k_xi)
        curves = _slice_curves(J, (-0.99, -0.6, -0.3, 0.0, 0.3, 0.6, 0.99),
                               dims)
    else:
        anchor = (_report_array(report, "r", (plant.n_r,)) if report.get("r")
                  else np.zeros(plant.n_r))
        ss = steady_state(plant, nn, k_xi, anchor)
        E = roa.Ellipsoid(center=ss.xtil_star, shape=P)
        curves = [(roa.boundary_polyline(E, dims), "#1565c0")]
    path = os.path.join(args.out, "roa.svg")
    roa.polylines_to_svg(path, curves)
    print(f"svg: {path}")
    return EXIT_FEASIBLE


COMMANDS = ("verify", "simulate", "bounds", "roa-plot")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``command`` names one of COMMANDS, only its
    subparser is built, the one that parses a command line starting with it;
    otherwise all four are, for help and for a missing or unknown command."""
    parser = _ArgumentParser(
        prog="nnloop",
        description="LMI certification of NN-controlled setpoint tracking loops",
    )
    built = [command] if command in COMMANDS else COMMANDS
    sub = parser.add_subparsers(  # a lone subparser's usage still names all four
        dest="command", required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if len(built) == 1 else None)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plant", help="plant JSON file")
    common.add_argument("--pendulum",
                        help='pendulum parameters "m=..,L=..,mu=..,g=..,Ts=..,disc=.."')
    common.add_argument("--nn", help="network JSON file")
    common.add_argument("--kxi", default="1.0", help="integrator gain (matrix syntax a,b;c,d)")
    common.add_argument("--out", default=".", help="output directory")

    if "verify" in built:
        p_ver = sub.add_parser("verify", parents=[common], help="run an LMI verification")
        p_ver.add_argument("--theorem", required=True,
                           choices=["global", "local-fixed", "local-range"])
        p_ver.add_argument("--r", help="fixed reference (CSV)")
        p_ver.add_argument("--rnom", help="nominal reference (CSV)")
        p_ver.add_argument("--d", help="layer-1 box half-width (scalar or CSV)")
        p_ver.add_argument("--gamma", type=float,
                           help="weight of trace(Q) in the local-range objective "
                                "(default 1.0)")
        p_ver.add_argument("--tol", type=float, default=1e-8)
        p_ver.set_defaults(func=cmd_verify)

    if "simulate" in built:
        p_sim = sub.add_parser("simulate", parents=[common], help="simulate the loop")
        p_sim.add_argument("--r", help="constant desired reference (CSV)")
        p_sim.add_argument("--ref-schedule", help="JSON file with [k_start, r] pairs")
        p_sim.add_argument("--x0", help="initial augmented state (CSV)")
        p_sim.add_argument("--steps", type=int, default=2000)
        p_sim.add_argument("--governed", action="store_true")
        p_sim.add_argument("--report", help="verification report for governed mode")
        p_sim.add_argument("--svg", action="store_true")
        p_sim.set_defaults(func=cmd_simulate)

    if "bounds" in built:
        p_bnd = sub.add_parser("bounds", parents=[common], help="sector-bound report")
        p_bnd.add_argument("--r", help="anchor reference (CSV)")
        p_bnd.add_argument("--d", help="layer-1 box half-width (scalar or CSV)")
        p_bnd.set_defaults(func=cmd_bounds)

    if "roa-plot" in built:
        p_plot = sub.add_parser("roa-plot", parents=[common], help="SVG of RoA ellipses")
        p_plot.add_argument("--report", required=True)
        p_plot.add_argument("--dims", default="0,1")
        p_plot.set_defaults(func=cmd_roa_plot)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (CliError, NNLoopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    """The console script: ``main``'s exit code, or EXIT_INACCURATE with the
    traceback for any other exception (Python's own 1 reads as infeasible)."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EXIT_INACCURATE
    sys.exit(code)


if __name__ == "__main__":
    entry()
