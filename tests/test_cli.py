import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import nnloop as nl
from nnloop.assets import PENDULUM_D, example_nn_path
from nnloop.cli import build_parser, main
from nnloop.network import save_nn
from nnloop.plant import save_plant

PENDULUM_FLAG = "m=0.15,L=0.5,mu=0.5,g=9.81,Ts=0.02,disc=exact-zoh"


@pytest.fixture
def scalar_files(tmp_path, schur_scalar):
    plant, nn, k_xi = schur_scalar
    plant_path = tmp_path / "plant.json"
    nn_path = tmp_path / "nn.json"
    save_plant(plant, plant_path)
    save_nn(nn, nn_path)
    return str(plant_path), str(nn_path), str(k_xi)


def read_report(out_dir, name="verify_report.json"):
    with open(f"{out_dir}/{name}") as fh:
        return json.load(fh)


def test_verify_global_feasible_exit_zero(tmp_path, scalar_files, capsys):
    plant_path, nn_path, k_xi = scalar_files
    code = main(["verify", "--plant", plant_path, "--nn", nn_path,
                 "--kxi", k_xi, "--theorem", "global",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = read_report(tmp_path / "out")
    assert report["status"] == "feasible"
    assert min(report["margins"].values()) >= 0.0


def test_verify_global_infeasible_exit_one(tmp_path, scalar_files):
    plant_path, nn_path, k_xi = scalar_files
    unstable = nl.Plant(A=[[2.0]], B=[[1.0]], C=[[1.0]])
    bad_path = tmp_path / "unstable.json"
    save_plant(unstable, bad_path)
    code = main(["verify", "--plant", str(bad_path), "--nn", nn_path,
                 "--kxi", k_xi, "--theorem", "global",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert read_report(tmp_path / "out")["status"] == "infeasible"


def test_verify_missing_nn_exit_three(tmp_path, scalar_files, capsys):
    plant_path, _nn, k_xi = scalar_files
    code = main(["verify", "--plant", plant_path, "--nn",
                 str(tmp_path / "missing.json"), "--kxi", k_xi,
                 "--theorem", "global", "--out", str(tmp_path)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_verify_requires_one_plant_source(tmp_path):
    code = main(["verify", "--plant", "a.json", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "global",
                 "--out", str(tmp_path)])
    assert code == 3


def test_verify_local_range_pendulum(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--theorem", "local-range", "--rnom", "0",
                 "--d", str(PENDULUM_D), "--out", out])
    assert code == 0
    report = read_report(out)
    assert report["status"] == "feasible"
    lo, hi = report["admissible_references"]["interval"]
    assert lo < 0.0 < hi


def test_verify_local_fixed_large_box_exit_one(tmp_path):
    # A box far wider than the certified one is decided infeasible, not left
    # to the solver-error exit.
    out = str(tmp_path / "out")
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "local-fixed",
                 "--r", "0", "--d", "1e4", "--out", out])
    assert code == 1
    assert read_report(out)["status"] == "infeasible"


def test_verify_local_missing_d_exit_three(tmp_path):
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "local-fixed",
                 "--out", str(tmp_path)])
    assert code == 3


UNREAD_FLAGS = [("local-fixed", "--rnom"), ("global", "--rnom"),
                ("local-range", "--r"), ("global", "--r"),
                ("local-fixed", "--gamma"), ("global", "--gamma"), ("global", "--d")]


@pytest.mark.parametrize("theorem,flag", UNREAD_FLAGS,
                         ids=[f"{th}{flag}" for th, flag in UNREAD_FLAGS])
def test_verify_refuses_reference_its_theorem_does_not_read(tmp_path, capsys,
                                                            theorem, flag):
    # --r anchors local-fixed, --rnom and --gamma local-range, and --d both
    # local theorems; given to another theorem, the flag would be dropped and
    # the report made without it.
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--theorem", theorem, flag, "0.1", "--d", str(PENDULUM_D),
                 "--out", str(tmp_path)])
    assert code == 3
    assert f"error: {flag} is read only by --theorem" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("argv,message", [
    (["--r", "0.5", "--ref-schedule", "SCHEDULE"],
     "exactly one of --r or --ref-schedule is required"),
    (["--r", "0", "--report", "REPORT"], "--report is read only with --governed"),
], ids=["r-and-schedule", "report-without-governed"])
def test_simulate_refuses_flag_it_would_drop(tmp_path, capsys, argv, message):
    # The schedule would decide every reference, and only a governed run
    # reads a report.
    (tmp_path / "SCHEDULE").write_text("[[0, 0.1]]")
    (tmp_path / "REPORT").write_text("{}")
    argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
    out = tmp_path / "out"
    code = main(["simulate", *argv, "--pendulum", PENDULUM_FLAG, "--nn",
                 example_nn_path(), "--steps", "10", "--out", str(out)])
    assert code == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("gamma", ["-1", "0"])
def test_verify_local_range_nonpositive_gamma_exit_three(tmp_path, capsys, gamma):
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "local-range",
                 "--rnom", "0", "--d", str(PENDULUM_D), "--gamma", gamma,
                 "--out", str(tmp_path)])
    assert code == 3
    assert "gamma must be finite and positive" in capsys.readouterr().err


def test_verify_tiny_d_message_is_a_plain_float(tmp_path, capsys):
    # The half-width in the NonPositiveD message is printed as a Python float,
    # so the message does not depend on how numpy prints its scalars.
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--theorem", "local-fixed", "--r", "0", "--d", "1e-320",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "d = 1e-320 is too small" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("gamma", ["1e160", "1e300"])
def test_verify_overflowing_objective_is_not_infeasible(tmp_path, capsys, recwarn,
                                                       gamma):
    # norm(c) overflows: the solver ends the run as stalled instead of letting
    # a LinAlgError escape, which the shell would see as exit 1 (infeasible).
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "local-range",
                 "--rnom", "0", "--d", str(PENDULUM_D), "--gamma", gamma,
                 "--out", str(tmp_path)])
    assert code != 1
    assert "Traceback" not in capsys.readouterr().err
    # the overflow is reported by the verdict, not by numpy warnings
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_bounds_report_values(tmp_path):
    out = str(tmp_path / "out")
    code = main(["bounds", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--r", "0", "--d", "0.345", "--out", out])
    assert code == 0
    report = read_report(out, "bounds_report.json")
    assert len(report["neurons"]) == 10
    first = report["neurons"][0]
    assert first["alpha_phi"] == pytest.approx(np.tanh(0.345) / 0.345, abs=1e-4)
    assert first["beta_phi"] == pytest.approx(1.0, abs=1e-9)
    assert report["io"]["state_feedback"] is True


def test_bounds_relu_fixture(tmp_path):
    # relu anchored at v_* = 1 with box [-1, 2] gives sectors [0.5, 1]
    plant = nl.Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
    nn = nl.FeedForwardNN(
        Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
        layers=((np.array([[1.0]]), np.zeros(1)),),
        Wl=np.ones((1, 1)), bl=np.zeros(1),
        activation=nl.Activation.relu(),
    )
    ppath, npath = tmp_path / "p.json", tmp_path / "n.json"
    save_plant(plant, ppath)
    save_nn(nn, npath)
    out = str(tmp_path / "out")
    # x_*(1) = 1 so v_* = 1; d = 2 gives the box [-1, 3]
    code = main(["bounds", "--plant", str(ppath), "--nn", str(npath),
                 "--kxi", "1.0", "--r", "1", "--d", "2", "--out", out])
    assert code == 0
    rep = read_report(out, "bounds_report.json")
    assert rep["neurons"][0]["alpha_phi"] == pytest.approx(0.5, abs=1e-12)
    assert rep["neurons"][0]["beta_phi"] == pytest.approx(1.0, abs=1e-12)


def test_bounds_zero_d_exit_three(tmp_path):
    code = main(["bounds", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--r", "0", "--d", "0", "--out", str(tmp_path)])
    assert code == 3


def test_simulate_from_steady_state_constant_rows(tmp_path):
    out = str(tmp_path / "out")
    plant, nn, k_xi = nl.Plant(A=[[0.5]], B=[[1.0]], C=[[1.0]]), None, None
    ss_plant, ss_nn, k = (plant,
                          nl.FeedForwardNN(Hx0=np.eye(1), Hr0=np.zeros((1, 1)),
                                           layers=((np.zeros((1, 1)), np.zeros(1)),),
                                           Wl=np.zeros((1, 1)), bl=np.zeros(1),
                                           activation=nl.Activation.tanh()),
                          1.0)
    ppath, npath = tmp_path / "p.json", tmp_path / "n.json"
    save_plant(ss_plant, ppath)
    save_nn(ss_nn, npath)
    ss = nl.steady_state(ss_plant, ss_nn, k, np.array([0.2]))
    x0 = ",".join(repr(float(v)) for v in ss.xtil_star)
    code = main(["simulate", "--plant", str(ppath), "--nn", str(npath),
                 "--kxi", "1.0", "--r", "0.2", "--x0", x0,
                 "--steps", "60", "--out", out])
    assert code == 0
    with open(f"{out}/trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    states = np.array([[float(v) for v in row[1:4]] for row in rows[1:]])
    assert np.max(np.abs(states - states[0])) <= 1e-9


def test_simulate_governed_with_svg(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--theorem", "local-range", "--rnom", "0",
                 "--d", str(PENDULUM_D), "--out", out])
    assert code == 0
    sim_out = str(tmp_path / "sim")
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--governed", "--report", f"{out}/verify_report.json",
                 "--r", "-1.0", "--steps", "1200", "--svg",
                 "--out", sim_out])
    assert code == 0
    with open(f"{sim_out}/trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    report = read_report(out)
    lo = report["admissible_references"]["interval"][0]
    assert float(rows[-1][-1]) == pytest.approx(lo, abs=1e-6)
    root = ET.parse(f"{sim_out}/trajectory.svg").getroot()
    polylines = [c for c in root if c.tag.endswith("polyline")]
    assert len(polylines) >= 2  # ellipse slices plus the trajectory


def test_simulate_overflowing_state_reports_divergence(tmp_path, capsys):
    # The first step overflows to inf; the run is reported as diverged.
    out = str(tmp_path / "out")
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--r", "0",
                 "--x0=1.79e308,1.79e308,1.79e308", "--out", out])
    assert code == 0
    assert "steps: 1  converged: False  diverged: True" in capsys.readouterr().out
    with open(f"{out}/trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and float(rows[1][1]) == 1.79e308


def test_simulate_overflowing_state_svg_draws_finite_rows(tmp_path, recwarn):
    # Only rows whose entries are all finite are drawn; the one finite row of
    # this run is no curve, so the picture is empty and holds no NaN.
    out = tmp_path / "out"
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--r", "0",
                 "--x0=1.79e308,1.79e308,1.79e308", "--svg", "--out", str(out)])
    assert code == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    svg = (out / "trajectory.svg").read_text()
    assert "nan" not in svg
    root = ET.fromstring(svg)
    assert not [c for c in root if c.tag.endswith("polyline")]


@pytest.fixture(scope="module")
def range_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("range"))
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--theorem", "local-range",
                 "--rnom", "0", "--d", str(PENDULUM_D), "--out", out])
    assert code == 0
    return f"{out}/verify_report.json"


BAD_NUMERIC_INPUT = [
    (["verify", "--theorem", "global", "--tol", "nan"], "--tol"),
    (["verify", "--theorem", "global", "--tol=-1e-8"], "--tol"),
    (["verify", "--theorem", "global", "--tol", "0"], "--tol"),
    (["verify", "--theorem", "global", "--tol", "1e-14"], "below 1e-12"),
    (["verify", "--theorem", "local-fixed", "--d", "0.345", "--r", "nan"], "finite"),
    (["verify", "--theorem", "local-range", "--d", "0.345", "--gamma", "inf"],
     "gamma must be finite and positive"),
    (["verify", "--theorem", "local-fixed", "--r", "0", "--d", "0.345,0.3"],
     "one entry per layer-1 neuron (5)"),
    (["verify", "--theorem", "local-fixed", "--r", "0", "--d", "1e-160"],
     "too small"),
    (["bounds", "--d", "0.345", "--r", "nan"], "finite"),
    (["bounds", "--r", "0", "--d", "0.345,0.3"],
     "one entry per layer-1 neuron (5)"),
    (["simulate", "--r", "0", "--steps", "0"], "--steps"),
    (["simulate", "--r", "0", "--steps=-3"], "--steps"),
    (["simulate", "--r", "nan"], "finite"),
    (["simulate", "--r", "0", "--x0", "nan,0,0"], "finite"),
    (["verify", "--theorem", "global", "--pendulum", "m=abc"],
     "pendulum parameter 'm' must be a number"),
    (["verify", "--theorem", "global", "--pendulum", "m=0.15,len=0.5"],
     "unknown pendulum parameter 'len'"),
    (["verify", "--theorem", "global", "--pendulum", "m=0.15,m=0.2,L=0.5"],
     "pendulum parameter 'm' given twice"),
    (["verify", "--theorem", "global", "--pendulum", "disc=zoh,disc=euler"],
     "pendulum parameter 'disc' given twice"),
    (["verify", "--theorem", "global", "--pendulum", "L=1e-170"],
     "m L^2 = 0.0 must be positive and finite"),
    (["verify", "--theorem", "global", "--pendulum", "g=1e300,L=1e-300"],
     "must be positive and finite"),
    (["roa-plot", "--dims", "0,7"], "--dims"),
    (["roa-plot", "--dims", "0"], "--dims"),
    (["roa-plot", "--dims", "1,1"], "--dims"),
    (["roa-plot", "--report", "P-indefinite"], "positive definite"),
    (["roa-plot", "--report", "P-indefinite-no-Q"], "positive definite"),
    (["roa-plot", "--report", "Q-negative"], "positive definite"),
    (["roa-plot", "--report", "P-2x2"], "shape (3, 3)"),
    (["roa-plot", "--report", "r_nom-2"], "shape (1,)"),
    (["roa-plot", "--report", "r-2-no-Q"], "shape (1,)"),
    (["simulate", "--r", "0", "--governed", "--report", "P-indefinite"],
     "positive definite"),
    (["simulate", "--r", "0", "--governed", "--report", "Q-negative"],
     "positive definite"),
    (["simulate", "--r", "0", "--governed", "--report", "P-2x2"], "shape (3, 3)"),
    (["simulate", "--r", "0", "--governed", "--report", "r_nom-2"], "shape (1,)"),
]

# Fields replaced in the local-range report by a "--report NAME" entry above.
REPORT_PATCHES = {
    "P-indefinite": {"P": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]},
    "P-indefinite-no-Q": {"P": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]],
                          "Q": None},
    "Q-negative": {"Q": [[-1.0]]},
    "P-2x2": {"P": [[1.0, 0.0], [0.0, 1.0]]},
    "r_nom-2": {"r_nom": [0.0, 0.0]},
    "r-2-no-Q": {"r": [0.0, 1.0], "Q": None},
}


@pytest.mark.parametrize("argv,message", BAD_NUMERIC_INPUT,
                         ids=[" ".join(argv) for argv, _ in BAD_NUMERIC_INPUT])
def test_bad_numeric_input_exit_three(tmp_path, capsys, range_report, argv, message):
    if "--report" in argv:
        i = argv.index("--report") + 1
        with open(range_report) as fh:
            report = json.load(fh)
        report.update(REPORT_PATCHES[argv[i]])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        argv = argv[:i] + [str(path)] + argv[i + 1:]
    elif argv[0] == "roa-plot":
        argv = argv + ["--report", range_report]
    if "--pendulum" not in argv:
        argv = argv + ["--pendulum", PENDULUM_FLAG]
    code = main(argv + ["--nn", example_nn_path(), "--out", str(tmp_path)])
    assert code == 3
    assert message in capsys.readouterr().err


def test_plant_file_without_key_exit_three(tmp_path, capsys):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]]}))
    code = main(["verify", "--plant", str(path), "--nn", example_nn_path(),
                 "--theorem", "global", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "has no key 'C'" in capsys.readouterr().err


@pytest.mark.parametrize("data", [[[0.5], [1.0], [1.0]],
                                  {"A": [[0.5]], "B": [[1.0]], "C": "x"}],
                         ids=["top-level-list", "C-string"])
def test_plant_file_with_wrong_type_exit_three(tmp_path, capsys, data):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--plant", str(path), "--nn", example_nn_path(),
                 "--theorem", "global", "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"plant file {path} is malformed" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (lambda data: data["layers"][0].update(W="x"), "is malformed"),
    (lambda data: data.update(activation=["tanh"]), "unknown activation ['tanh']"),
], ids=["W-string", "activation-list"])
def test_network_file_with_wrong_type_exit_three(tmp_path, capsys, edit, message):
    with open(example_nn_path()) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "nn.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", str(path),
                 "--theorem", "global", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"network file {path} " in err
    assert message in err


@pytest.mark.parametrize("command", [["roa-plot"], ["simulate", "--governed", "--r", "0"]],
                         ids=["roa-plot", "simulate-governed"])
def test_report_not_an_object_exit_three(tmp_path, capsys, command):
    path = tmp_path / "report.json"
    path.write_text("[1, 2]")
    code = main(command + ["--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                           "--report", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"report {path} is not a JSON object" in capsys.readouterr().err


MALFORMED_JSON = {
    "--plant": (["verify", "--theorem", "global", "--nn", example_nn_path()],
                "plant file"),
    "--nn": (["verify", "--theorem", "global", "--pendulum", PENDULUM_FLAG],
             "network file"),
    "--report": (["roa-plot", "--pendulum", PENDULUM_FLAG,
                  "--nn", example_nn_path()], "report"),
    "--ref-schedule": (["simulate", "--pendulum", PENDULUM_FLAG,
                        "--nn", example_nn_path()], "reference schedule"),
}


@pytest.mark.parametrize("flag", list(MALFORMED_JSON))
def test_malformed_json_names_file_exit_three(tmp_path, capsys, flag):
    path = tmp_path / "bad.json"
    path.write_text("{'A': [[0.5]]}")
    argv, what = MALFORMED_JSON[flag]
    code = main(argv + [flag, str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert (f"{what} {path} is not valid JSON: Expecting property name"
            in capsys.readouterr().err)


def test_nn_directory_names_it_exit_three(tmp_path, capsys):
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", str(tmp_path),
                 "--theorem", "global", "--out", str(tmp_path / "out")])
    assert code == 3
    assert (f"network file {tmp_path} cannot be read: Is a directory"
            in capsys.readouterr().err)


def test_out_beneath_a_file_exit_three(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--theorem", "global", "--out", str(blocker / "out")])
    assert code == 3
    assert "Not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "local-range", "--rnom", "0", "--d", str(PENDULUM_D)],
    ["simulate", "--r", "0", "--steps", "10"],
], ids=["verify", "simulate"])
def test_out_beneath_a_file_exits_before_any_work(tmp_path, capsys, monkeypatch,
                                                  argv):
    # --out is made before any command computes, so a solve or a
    # simulation is never spent on a run that cannot write its result.
    calls = []
    for module, name in ((nl.sdp, "solve_certified"), (nl.closed_loop, "simulate")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, **k: calls.append(name))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(argv + ["--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                        "--out", str(blocker / "x")])
    assert code == 3
    assert "Not a directory" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag,text,what", [
    ("--plant", '{"A": [[NaN]], "B": [[1.0]], "C": [[1.0]]}', "plant file"),
    ("--nn", None, "network file"),
], ids=["plant-NaN", "nn-Infinity"])
def test_non_finite_model_file_exit_three(tmp_path, capsys, flag, text, what):
    # Python's json reads NaN and Infinity; the model refuses them.
    if text is None:  # json.dumps writes inf as Infinity
        with open(example_nn_path()) as fh:
            data = json.load(fh)
        data["Wl"][0][0] = float("inf")
        text = json.dumps(data)
    path = tmp_path / "model.json"
    path.write_text(text)
    argv = ["verify", "--theorem", "global", "--out", str(tmp_path / "out"),
            flag, str(path)]
    argv += (["--nn", example_nn_path()] if flag == "--plant"
             else ["--pendulum", PENDULUM_FLAG])
    code = main(argv)
    assert code == 3
    assert (f"{what} {path} is malformed: matrix entries must be finite"
            in capsys.readouterr().err)


def test_report_missing_field_named_exit_three(tmp_path, capsys, range_report):
    with open(range_report) as fh:
        report = json.load(fh)
    del report["r_nom"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code = main(["roa-plot", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--report", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "report has no field 'r_nom'" in capsys.readouterr().err


def test_entry_crash_exits_two_with_traceback(monkeypatch, capsys):
    # Python's own exit code for an uncaught exception, 1, would read as
    # "infeasible".
    from nnloop import cli

    def crash(argv=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", crash)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: boom" in err


USAGE_ERRORS = [
    (["simulate", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
    (["verify", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["verify", "--theorem", "bogus"], "argument --theorem: invalid choice: 'bogus'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS,
                         ids=[" ".join(argv) or "no command" for argv, _ in USAGE_ERRORS])
def test_usage_error_exit_three(capsys, argv, message):
    # argparse's own exit code 2 would read as an inaccurate verdict.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: nnloop")
    assert message in err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nnloop")


def test_parser_builds_only_the_named_command(capsys):
    # The first argument picks the one subparser built, and its usage still
    # names all four commands; no command or an unknown one builds all four.
    with pytest.raises(SystemExit) as exc:
        build_parser("verify").parse_args(["simulate", "--r", "0"])
    assert exc.value.code == 3
    assert "usage: nnloop [-h] {verify,simulate,bounds,roa-plot}" in capsys.readouterr().err
    for command in (None, "bogus", "--help"):
        assert build_parser(command).parse_args(["simulate", "--r", "0"]).r == "0"


def test_commands_in_one_process_leave_nothing_behind(tmp_path, capsys):
    # A usage error, a verify and two simulates through main in one process:
    # none leaves anything behind for the next command.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "bogus"])
    assert exc.value.code == 3
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--theorem", "local-fixed", "--r", "0", "--d", str(PENDULUM_D),
                 "--out", str(tmp_path / "verify")])
    assert code == 0
    assert read_report(tmp_path / "verify")["status"] == "feasible"
    sim = ["simulate", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
           "--steps", "10", "--out", str(tmp_path / "sim")]
    assert main(sim[:1] + ["--r", "0.5"] + sim[1:]) == 0
    assert main(sim) == 3
    assert "--r or --ref-schedule is required" in capsys.readouterr().err


def test_network_file_with_unknown_activation_exit_three(tmp_path, capsys):
    with open(example_nn_path()) as fh:
        data = json.load(fh)
    data["activation"] = "sigmoid"
    path = tmp_path / "nn.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", str(path),
                 "--theorem", "global", "--out", str(tmp_path / "out")])
    assert code == 3
    assert ("unknown activation 'sigmoid'; known: tanh, relu, linear"
            in capsys.readouterr().err)


BAD_REF_SCHEDULES = [
    ('{"a": 1}', "not numeric"),
    ("[[0]]", "pair"),
    ("[]", "empty"),
    ('[[0, "x"]]', "not numeric"),
    ("[[0, [0.1, 0.2]]]", "1 entries"),
    ("[[5, 0.1], [0, 0.2]]", "increase"),
    ("[[-2, 0.1]]", ">= 0"),
    ("[[1.5, 0.1]]", "integer"),
    ("[[0, NaN]]", "finite"),
]


@pytest.mark.parametrize("text,message", BAD_REF_SCHEDULES,
                         ids=[text for text, _ in BAD_REF_SCHEDULES])
def test_bad_ref_schedule_exit_three(tmp_path, capsys, text, message):
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(text)
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--ref-schedule", str(sched_path),
                 "--steps", "20", "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "reference schedule" in err and message in err


def test_simulate_requires_reference(tmp_path):
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--out", str(tmp_path)])
    assert code == 3


def test_report_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        code = main(["verify", "--pendulum", PENDULUM_FLAG,
                     "--nn", example_nn_path(), "--kxi", "1.0",
                     "--theorem", "local-fixed", "--r", "0",
                     "--d", str(PENDULUM_D), "--out", out])
        assert code == 0
        rep = read_report(out)
        rep.pop("meta")  # wall-clock time is the only varying field
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("tol,ended,reason", [(None, "optimal", "optimal"),
                                              ("1e-10", "stalled", "factorization")],
                         ids=["default-tol", "tol-1e-10"])
def test_report_says_how_the_solver_run_ended(tmp_path, tol, ended, reason):
    # Both verdicts are feasible, but at --tol 1e-10 the shipped local-fixed
    # run stalls (29 iterations) before the tolerance is met, when the Schur
    # matrix fails its Cholesky factorization, and its certified iterate is
    # the one reported.
    out = str(tmp_path / "out")
    argv = ["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
            "--kxi", "1.0", "--theorem", "local-fixed", "--r", "0",
            "--d", str(PENDULUM_D), "--out", out]
    assert main(argv + ([] if tol is None else ["--tol", tol])) == 0
    rep = read_report(out)
    assert rep["status"] == "feasible"
    assert rep["solver"] == {"tol": 1e-8 if tol is None else float(tol),
                             "status": ended, "reason": reason}


def test_report_names_an_overflow(tmp_path):
    # --gamma 1e300 overflows the objective: the first step length's
    # eigenvalue problem fails on nan data, which is an overflow, not a
    # failed factorization, and no point is left to certify.
    out = str(tmp_path / "out")
    assert main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--theorem", "local-range", "--rnom", "0", "--d", str(PENDULUM_D),
                 "--gamma", "1e300", "--out", out]) == 2
    rep = read_report(out)
    assert rep["status"] == "solver_error" and rep["iterations"] == 0
    assert rep["solver"] == {"tol": 1e-8, "status": "stalled", "reason": "overflow"}


def test_report_solver_status_is_null_for_a_vertex_proof(tmp_path):
    # The global theorem is proved infeasible at a sector vertex; no
    # interior-point run is made.
    out = str(tmp_path / "out")
    assert main(["verify", "--pendulum", PENDULUM_FLAG, "--nn", example_nn_path(),
                 "--kxi", "1.0", "--theorem", "global", "--out", out]) == 1
    rep = read_report(out)
    assert rep["certificate"]["kind"] == "unstable_vertex"
    assert rep["iterations"] == 0
    assert rep["solver"]["status"] is None and rep["solver"]["reason"] is None


def test_roa_plot(tmp_path):
    out = str(tmp_path / "out")
    code = main(["verify", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--theorem", "local-fixed", "--r", "0",
                 "--d", str(PENDULUM_D), "--out", out])
    assert code == 0
    plot_out = str(tmp_path / "plot")
    code = main(["roa-plot", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--report", f"{out}/verify_report.json", "--out", plot_out])
    assert code == 0
    root = ET.parse(f"{plot_out}/roa.svg").getroot()
    assert any(c.tag.endswith("polyline") for c in root)


def test_roa_plot_two_references(tmp_path):
    # slices of a joint set with n_r = 2 are taken along the longest axis of
    # the admissible references
    plant = nl.Plant(A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2))
    nn = nl.FeedForwardNN(
        Hx0=np.eye(2), Hr0=np.zeros((2, 2)),
        layers=((0.3 * np.eye(2), np.zeros(2)),),
        Wl=0.1 * np.eye(2), bl=np.zeros(2),
        activation=nl.Activation.tanh(),
    )
    save_plant(plant, tmp_path / "plant.json")
    save_nn(nn, tmp_path / "nn.json")
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(
        {"P": np.eye(4).tolist(), "Q": np.eye(2).tolist(), "r_nom": [0.0, 0.0]}))
    plot_out = str(tmp_path / "plot")
    code = main(["roa-plot", "--plant", str(tmp_path / "plant.json"),
                 "--nn", str(tmp_path / "nn.json"), "--kxi", "0.1,0;0,0.1",
                 "--report", str(report_path), "--out", plot_out])
    assert code == 0
    root = ET.parse(f"{plot_out}/roa.svg").getroot()
    assert sum(c.tag.endswith("polyline") for c in root) == 7


def test_ref_schedule_file(tmp_path):
    out = str(tmp_path / "out")
    sched_path = tmp_path / "sched.json"
    sched_path.write_text(json.dumps([[0, 0.0], [30, 0.1]]))
    code = main(["simulate", "--pendulum", PENDULUM_FLAG,
                 "--nn", example_nn_path(), "--kxi", "1.0",
                 "--ref-schedule", str(sched_path), "--steps", "80",
                 "--out", out])
    assert code == 0
    with open(f"{out}/trajectory.csv") as fh:
        rows = list(csv.reader(fh))
    rhats = [float(r[-1]) for r in rows[1:]]
    assert rhats[10] == 0.0
    assert rhats[50] == 0.1


def test_scalar_kxi_is_the_identity_times_it(tmp_path):
    # With n_r = 2, --kxi 0.1 means 0.1 I: the same report as the matrix.
    plant = nl.Plant(A=0.5 * np.eye(2), B=np.eye(2), C=np.eye(2))
    nn = nl.FeedForwardNN(
        Hx0=np.eye(2), Hr0=np.zeros((2, 2)),
        layers=((0.3 * np.eye(2), np.zeros(2)),),
        Wl=0.1 * np.eye(2), bl=np.zeros(2),
        activation=nl.Activation.tanh(),
    )
    save_plant(plant, tmp_path / "plant.json")
    save_nn(nn, tmp_path / "nn.json")
    reports = []
    for name, kxi in (("scalar", "0.1"), ("matrix", "0.1,0;0,0.1")):
        out = tmp_path / name
        code = main(["verify", "--plant", str(tmp_path / "plant.json"),
                     "--nn", str(tmp_path / "nn.json"), "--kxi", kxi,
                     "--theorem", "global", "--out", str(out)])
        assert code == 0
        reports.append(read_report(out))
        reports[-1].pop("meta")
    assert reports[0]["k_xi"] == [[0.1, 0.0], [0.0, 0.1]]
    assert reports[0] == reports[1]


def test_pendulum_velocity_output(tmp_path, capsys):
    # out=velocity changes C alone.  The angle integrates the velocity, so
    # the loop has no steady state to anchor a box at: a local command exits
    # 3, and the global theorem is refused at the alpha vertex.
    flag = PENDULUM_FLAG + ",out=velocity"
    code = main(["verify", "--pendulum", flag, "--nn", example_nn_path(),
                 "--theorem", "global", "--out", str(tmp_path / "global")])
    assert code == 1
    report = read_report(tmp_path / "global")
    angle = nl.build_pendulum()
    assert report["plant"] == {"A": angle.A.tolist(), "B": angle.B.tolist(),
                               "C": [[0.0, 1.0]]}
    assert report["certificate"]["vertex"] == "alpha"
    code = main(["bounds", "--pendulum", flag, "--nn", example_nn_path(),
                 "--r", "0", "--d", "0.345", "--out", str(tmp_path / "bounds")])
    assert code == 3
    assert "steady-state system matrix is rank deficient" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]

# Every command on the shipped pendulum, in a process in which scipy cannot be
# imported.  Prints the exit codes as JSON.
WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from nnloop.assets import PENDULUM_D, example_nn_path
from nnloop.cli import main
out = sys.argv[1]
common = ["--pendulum", "m=0.15,L=0.5,mu=0.5,g=9.81,Ts=0.02,disc=exact-zoh",
          "--nn", example_nn_path()]
d = ["--d", str(PENDULUM_D)]
report = out + "/range/verify_report.json"
codes = [
    main(["verify", "--theorem", "global", *common, "--out", out + "/global"]),
    main(["verify", "--theorem", "local-fixed", "--r", "0", *d, *common,
          "--out", out + "/fixed"]),
    main(["verify", "--theorem", "local-range", "--rnom", "0", *d, *common,
          "--out", out + "/range"]),
    main(["simulate", "--r", "0.1", "--steps", "50", *common, "--out", out + "/sim"]),
    main(["simulate", "--governed", "--report", report, "--r", "-1",
          "--steps", "50", *common, "--out", out + "/governed"]),
    main(["bounds", "--r", "0", *d, *common, "--out", out + "/bounds"]),
    main(["roa-plot", "--report", report, *common, "--out", out + "/plot"]),
]
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test requirement only: the package itself needs numpy alone.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [1, 0, 0, 0, 0, 0, 0]
    assert "Error" not in run.stderr
    deps = (ROOT / "pyproject.toml").read_text().split("\ndependencies = [")[1]
    deps = deps.split("]")[0]
    assert "numpy" in deps and "scipy" not in deps
