import ast
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tripwell
from tripwell import GridFunction
from tripwell.cli import build_parser, main

EX1 = {"kind": "polynomial-triple-well", "wells": [-1.0, 1.0 / 3.0, 1.0]}
EX2 = {"kind": "polynomial-triple-well", "wells": [-1.0, 0.5, 1.0]}


# the BLAS threads pinned from outside, which the CLI does itself when nothing is set
BLAS_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_cli(*args, env=None):
    environ = dict(os.environ)
    if env:
        environ.update(env)
    return subprocess.run([sys.executable, "-m", "tripwell.cli", *args],
                          capture_output=True, text=True, env=environ)


def strip_wall_time(text):
    return re.sub(r'"wall_time_s": [-0-9.e+]+', '"wall_time_s": 0', text)


@pytest.fixture()
def spec_files(tmp_path):
    p1 = tmp_path / "ex1.json"
    p2 = tmp_path / "ex2.json"
    p1.write_text(json.dumps(EX1))
    p2.write_text(json.dumps(EX2))
    return str(p1), str(p2)


def test_constants_command(spec_files):
    p1, _ = spec_files
    r = run_cli("constants", "--potential", p1)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert abs(out["constants"]["A0"] - 0.718) <= 1e-3
    assert out["manifest"]["command"] == "constants"
    assert len(out["manifest"]["potential_digest"]) == 64


def test_check_hypotheses_command(spec_files):
    _, p2 = spec_files
    r = run_cli("check-hypotheses", "--potential", p2)
    assert r.returncode == 0
    rep = json.loads(r.stdout)["hypotheses"]
    assert rep["H6"]["status"] == "holds"
    assert rep["H7"]["status"] == "fails"
    assert abs(rep["H7"]["worst_y"] - 0.585) <= 0.02
    assert abs(rep["H8"]["worst_y"] - 0.204) <= 0.02


def test_construct_energy_analyze_roundtrip(spec_files, tmp_path):
    p1, _ = spec_files
    prof = str(tmp_path / "profile.json")
    r = run_cli("construct", "--potential", p1, "--eps", "0.08",
                "--kind", "two-well", "--out", prof)
    assert r.returncode == 0
    r = run_cli("energy", "--profile", prof, "--potential", p1)
    assert r.returncode == 0
    total = json.loads(r.stdout)["energy"]["total"]
    assert 0.4 < total < 0.7
    hist_csv = str(tmp_path / "hist.csv")
    r = run_cli("analyze", "--profile", prof, "--potential", p1,
                "--eta", "0.2", "--hist-csv", hist_csv)
    assert r.returncode == 0
    rep = json.loads(r.stdout)["measure_report"]
    assert abs(rep["lambda"][1] - 0.75) < 0.05
    header = open(hist_csv).readline().strip()
    assert header == "bin_lo,bin_hi,mass"


def test_competitor_construct_requires_yhat(spec_files, tmp_path):
    _, p2 = spec_files
    r = run_cli("construct", "--potential", p2, "--eps", "0.06",
                "--kind", "h7", "--out", str(tmp_path / "x.json"))
    assert r.returncode == 1
    r = run_cli("construct", "--potential", p2, "--eps", "0.06",
                "--kind", "h7", "--yhat", "0.585", "--out", str(tmp_path / "x.json"))
    assert r.returncode == 0


def test_minimize_command_roundtrip(spec_files, tmp_path):
    p1, _ = spec_files
    out = str(tmp_path / "min.json")
    r = run_cli("minimize", "--potential", p1, "--eps", "0.1",
                "--starts", "2", "--max-iters", "25", "--grid-n", "2001",
                "--out", out)
    assert r.returncode == 0
    payload = json.loads(r.stdout)["minimize"]
    assert payload["start_kind"] == "two-well"
    assert payload["per_start"]["two-well"] < payload["per_start"]["three-well"]
    assert [s["start_kind"] for s in payload["starts"]] == ["two-well", "three-well"]
    assert payload["failed_starts"] == []
    for s in payload["starts"]:
        assert set(s) == {"start_kind", "value", "converged", "n_nodes", "iterations",
                          "n_fev", "reason", "descent_s"}
        assert s["value"] == payload["per_start"][s["start_kind"]]
        assert s["n_nodes"] > 0 and 0 < s["iterations"] <= 25 and s["n_fev"] > 0
        assert s["reason"] in ("grad_tol", "max_iters", "line_search")
        assert s["converged"] == (s["reason"] == "grad_tol")
    # the stored profile is accepted unchanged by the other commands
    r = run_cli("energy", "--profile", out, "--potential", p1)
    assert r.returncode == 0
    assert json.loads(r.stdout)["energy"]["total"] == pytest.approx(
        payload["value"], rel=1e-12)


def test_sweep_csv_deterministic(spec_files, tmp_path):
    p1, _ = spec_files
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        r = run_cli("sweep", "--potential", p1, "--eps", "0.1",
                    "--starts", "2", "--max-iters", "20", "--seed", "5",
                    "--grid-n", "2001", "--out", out)
        assert r.returncode == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]
    header = outs[0].decode().split("\n")[0]
    assert header == "eps,best_value,lambda1,lambda2,lambda3,layersA,layersB,start_kind"


def test_sweep_jobs_match_serial(spec_files, tmp_path):
    p1, _ = spec_files
    outs, starts = [], []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}.csv")
        r = run_cli("sweep", "--potential", p1, "--eps", "0.1,0.07",
                    "--starts", "3", "--seed", "11", "--max-iters", "30",
                    "--grid-n", "2001", "--jobs", jobs, "--out", out, env=BLAS_PINNED)
        assert r.returncode == 0, r.stderr
        outs.append(open(out, "rb").read())
        records = json.loads(r.stdout)["sweep"]["records"]
        assert [[s["start_kind"] for s in rec["starts"]] for rec in records] == \
            [["two-well", "three-well", "random-0"]] * 2
        assert all(s["reason"] == "max_iters" for rec in records for s in rec["starts"])
        # every field of every start but its wall time
        starts.append([{k: v for k, v in s.items() if k != "descent_s"}
                       for rec in records for s in rec["starts"]])
    assert outs[0] == outs[1]
    assert starts[0] == starts[1]


def test_sweep_lists_a_start_that_failed_to_build(spec_files, tmp_path):
    # at eps 0.1 the h7 competitor's transitions do not fit inside its plateaus
    _, p2 = spec_files
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--potential", p2, "--eps", "0.1", "--starts", "3",
                "--max-iters", "10", "--grid-n", "2001", "--out", str(out), env=BLAS_PINNED)
    assert r.returncode == 0, r.stderr
    record, = json.loads(r.stdout)["sweep"]["records"]
    assert [s["start_kind"] for s in record["starts"]] == ["two-well", "three-well"]
    failed, = record["failed_starts"]
    assert failed["start_kind"] == "h7-competitor" and failed["error"]
    assert out.read_text().splitlines()[-1].endswith(",two-well")


def test_sweep_stops_at_a_rung_whose_two_well_start_fails(spec_files, tmp_path):
    # at eps 0.5 the tooth rule gives one tooth; this sweep once exited 0 and
    # named random-0 the winner at I_eps 162.12
    p1, _ = spec_files
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--potential", p1, "--eps", "0.5", "--starts", "3",
                "--max-iters", "5", "--grid-n", "2001", "--out", str(out), env=BLAS_PINNED)
    assert r.returncode == 2 and r.stdout == ""
    error = json.loads(r.stderr)["error"]
    assert error["type"] == "ConstructionError"
    assert error["message"].startswith("eps=0.5: the two-well start failed: ")
    assert "tooth rule gives N=1" in error["message"]
    assert not out.exists()


# example 2 times (1 + s^2), a custom density whose sqrt(W) has no closed form
EX2_TIMES_1_PLUS_S2 = {"kind": "custom-polynomial", "wells": [-1.0, 0.5, 1.0],
                       "coeffs": [0.25, -1, 0.75, 1, -1.25, 1, -0.75, -1, 1]}


def test_sweep_on_a_custom_potential_keeps_the_well_seeds(tmp_path):
    # the two-well and three-well seeds once failed to build on every custom
    # density, and this sweep named random-1 the winner (lambda3 0.1695), exit 0
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(EX2_TIMES_1_PLUS_S2))
    out = tmp_path / "s.csv"
    r = run_cli("sweep", "--potential", str(path), "--eps", "0.1", "--starts", "5",
                "--max-iters", "10", "--grid-n", "2001", "--out", str(out),
                env={**BLAS_PINNED, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 0 and r.stderr == "", r.stderr
    last = out.read_text().splitlines()[-1].split(",")
    assert last[-1] == "two-well" and float(last[4]) == 0.0
    starts = json.loads(r.stdout)["sweep"]["records"][0]["starts"]
    assert {"two-well", "three-well"} <= {s["start_kind"] for s in starts}


# every variable that sets the threads of some BLAS
BLAS_THREAD_VARS = {var for family in tripwell.BLAS_THREAD_VARS.values() for var in family}


def test_cli_import_pins_every_blas_variable_unless_set():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    code = ("import json, os, tripwell.cli; "
            "print(json.dumps({v: os.environ.get(v) for v in %r}))" % sorted(BLAS_THREAD_VARS))
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "3"}):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**env, **preset}, check=True).stdout
        assert json.loads(out) == {**dict.fromkeys(BLAS_THREAD_VARS, "1"), **preset}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU runs one BLAS thread anyway")
def test_sweep_output_does_not_depend_on_blas_thread_variables(spec_files, tmp_path):
    # threaded OpenBLAS splits a dot product's additions over its threads:
    # unpinned, this sweep once wrote best_value 0.538953110135 for 0.538953109679
    p1, _ = spec_files
    csvs = []
    for name, pins in (("unpinned", {}), ("pinned", BLAS_PINNED)):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        out = tmp_path / f"{name}.csv"
        r = subprocess.run([sys.executable, "-m", "tripwell.cli", "sweep", "--potential", p1,
                            "--eps", "0.07", "--starts", "2", "--out", str(out)],
                           capture_output=True, text=True, env={**env, **pins})
        assert r.returncode == 0, r.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command", ["construct", "minimize", "sweep"])
def test_eps_past_the_node_limit_exits_2(spec_files, tmp_path, command):
    # at eps 1e-9 the two-well tooth rule asks for 340,710,112 teeth
    p1, _ = spec_files
    out = tmp_path / "out"
    kind = ["--kind", "two-well"] if command == "construct" else []
    r = run_cli(command, "--potential", p1, "--eps", "1e-9", *kind, "--out", str(out))
    assert r.returncode == 2
    err = json.loads(r.stderr)["error"]
    assert err["type"] == "ParameterError" and "MAX_NODES" in err["message"]
    assert not out.exists()


def test_sweep_rejects_rising_ladder_for_every_jobs_value(spec_files, tmp_path):
    p1, _ = spec_files
    errs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        r = run_cli("sweep", "--potential", p1, "--eps", "0.07,0.1", "--grid-n", "2001",
                    "--jobs", jobs, "--out", str(out))
        assert r.returncode == 2
        assert "eps ladder must be strictly decreasing" in r.stderr
        assert not out.exists()
        errs.append(r.stderr)
    assert errs[0] == errs[1]


def test_seed_comes_from_the_flag_alone(spec_files, tmp_path):
    # a TRIPWELL_SEED left in the environment changes nothing
    p1, _ = spec_files
    csvs = []
    for name, env in (("a.csv", {"TRIPWELL_SEED": "9"}), ("b.csv", None)):
        out = str(tmp_path / name)
        r = run_cli("sweep", "--potential", p1, "--eps", "0.1", "--starts", "3",
                    "--max-iters", "10", "--seed", "1", "--grid-n", "2001", "--out", out,
                    env=env)
        assert r.returncode == 0
        assert json.loads(r.stdout)["manifest"]["options"]["seed"] == 1
        csvs.append(open(out, "rb").read())
    assert csvs[0] == csvs[1]


def test_json_output_deterministic(spec_files):
    p1, _ = spec_files
    a = run_cli("check-hypotheses", "--potential", p1).stdout
    b = run_cli("check-hypotheses", "--potential", p1).stdout
    assert strip_wall_time(a) == strip_wall_time(b)


def test_exit_codes(spec_files, tmp_path):
    p1, _ = spec_files
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("constants").returncode == 1          # missing flag
    r = run_cli("construct", "--potential", p1, "--eps", "0.9",
                "--kind", "two-well", "--out", str(tmp_path / "x.json"))
    assert r.returncode == 2
    err = json.loads(r.stderr)
    assert err["error"]["type"] == "ConstructionError"
    r = run_cli("constants", "--potential", str(tmp_path / "missing.json"))
    assert r.returncode == 2
    r = run_cli("sweep", "--potential", p1, "--eps", "0.1", "--out", str(tmp_path / "s.csv"),
                "--step-rule", "quasi-newton")
    assert r.returncode == 1                             # the flag is gone
    # out-of-range numbers: exit 2 with a ParameterError before any work
    for cmd in (["construct", "--eps", "nan", "--kind", "two-well",
                 "--out", str(tmp_path / "x.json")],
                ["check-hypotheses", "--ymax", "nan"],
                ["check-hypotheses", "--ymax", "inf"],
                ["sweep", "--eps", "0.1", "--out", str(tmp_path / "s.csv"), "--grid-n", "2"],
                ["sweep", "--eps", "0.1", "--out", str(tmp_path / "s.csv"), "--max-iters", "0"],
                ["minimize", "--eps", "0.1", "--out", str(tmp_path / "m.json"),
                 "--grad-tol", "nan"],
                ["sweep", "--eps", "0.1", "--out", str(tmp_path / "s.csv"), "--jobs", "-1"],
                ["sweep", "--eps", "0.1", "--out", str(tmp_path / "s.csv"), "--seed", "-1"],
                *(["construct", "--eps", "0.07", "--kind", kind, "--l0", l0,
                   "--out", str(tmp_path / "x.json")]
                  for kind in ("two-well", "three-well")
                  for l0 in ("inf", "nan", "1.5", "0", "1")),
                ["construct", "--eps", "0.07", "--kind", "h7", "--yhat", "nan",
                 "--out", str(tmp_path / "x.json")],
                ["construct", "--eps", "0.07", "--kind", "h8", "--yhat", "inf",
                 "--out", str(tmp_path / "x.json")],
                *(["minimize", "--eps", eps, "--out", str(tmp_path / "m.json")]
                  for eps in ("0", "nan", "inf", "-0.05")),
                *(["sweep", "--eps", f"0.1,{eps}", "--out", str(tmp_path / "s.csv")]
                  for eps in ("0", "nan", "inf", "-0.05"))):
        r = run_cli(*cmd, "--potential", p1)
        assert r.returncode == 2, cmd
        assert r.stderr.startswith("{"), cmd           # no warnings ahead of the error
        assert json.loads(r.stderr)["error"]["type"] == "ParameterError", cmd
    assert not any((tmp_path / name).exists() for name in ("x.json", "s.csv", "m.json"))
    # a given --eps or --eta is checked, not replaced by a default: exit 2
    prof = tmp_path / "p.json"
    GridFunction(np.linspace(0.0, 1.0, 11), np.zeros(11), eps=0.1).save(prof)
    for cmd, msg in ((["energy", "--eps", "-0.05"], "eps must be finite and positive"),
                     (["energy", "--eps", "nan"], "eps must be finite and positive"),
                     (["energy", "--eps", "inf"], "eps must be finite and positive"),
                     (["analyze", "--eta", "nan"], "eta must lie in (0, (z3-z1)/2)")):
        r = run_cli(*cmd, "--profile", str(prof), "--potential", p1)
        assert r.returncode == 2, cmd
        assert json.loads(r.stderr)["error"] == {"type": "ParameterError", "message": msg}, cmd
    # only an absent --eps falls back to the profile's, which must be set
    GridFunction(np.linspace(0.0, 1.0, 11), np.zeros(11)).save(prof)
    r = run_cli("energy", "--profile", str(prof), "--potential", p1)
    assert r.returncode == 1 and "profile carries no eps" in r.stderr
    # malformed input files: exit 2 with a JSON error, not a traceback
    bad = tmp_path / "bad.json"
    for doc in ({}, None, [1, 2], {"nodes": [0.0, 0.5, 1.0]},
                {"nodes": [0.0, 0.5, 1.0], "values": [0.0, 0.1, 0.0], "meta": [1]}):
        bad.write_text(json.dumps(doc))
        r = run_cli("energy", "--profile", str(bad), "--potential", p1, "--eps", "0.1")
        assert r.returncode == 2, doc
        assert json.loads(r.stderr)["error"]["type"] == "GridError"
    for doc in ({"kind": "polynomial-triple-well"}, []):
        bad.write_text(json.dumps(doc))
        r = run_cli("constants", "--potential", str(bad))
        assert r.returncode == 2, doc
        assert json.loads(r.stderr)["error"]["type"] == "SpecificationError"


def test_analyze_rejects_nan_or_negative_profile_eps(spec_files, tmp_path):
    p1, _ = spec_files
    prof = tmp_path / "profile.json"
    r = run_cli("construct", "--potential", p1, "--eps", "0.07",
                "--kind", "three-well", "--out", str(prof))
    assert r.returncode == 0
    data = json.loads(prof.read_text())
    for eps in (float("nan"), -0.07):
        prof.write_text(json.dumps({**data, "eps": eps}))
        r = run_cli("analyze", "--profile", str(prof), "--potential", p1, "--eta", "0.2")
        assert r.returncode == 2, eps
        assert r.stdout == ""
        assert json.loads(r.stderr)["error"] == {
            "type": "GridError", "message": "eps must be finite and non-negative"}


def test_analyze_checks_thresholds_without_profile_eps(spec_files, tmp_path):
    # a profile with eps 0 has no intervals to classify; the flags are still checked
    p1, _ = spec_files
    prof = tmp_path / "p.json"
    x = np.linspace(0.0, 1.0, 11)
    GridFunction(x, 0.01 * np.sin(np.pi * x)).save(prof)
    for flags in (["--r-lo", "nan"], ["--r-hi", "nan"], ["--r-lo", "-0.1"]):
        r = run_cli("analyze", "--profile", str(prof), "--potential", p1, "--eta", "0.2", *flags)
        assert r.returncode == 2, flags
        assert r.stdout == ""
        assert json.loads(r.stderr)["error"] == {
            "type": "ParameterError", "message": "thresholds must satisfy 0 <= R_lo < R_hi"}


def test_non_finite_output_fails(spec_files, tmp_path):
    p1, _ = spec_files
    values = np.zeros(11)
    values[1:-1] = 0.01
    values[5] = np.nan
    prof = str(tmp_path / "nan.json")
    GridFunction(np.linspace(0.0, 1.0, 11), values, eps=0.1).save(prof)
    r = run_cli("energy", "--profile", prof, "--potential", p1)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"]["type"] == "NumericError"


def test_digest_tracks_file_bytes(spec_files, tmp_path):
    p1, _ = spec_files
    d1 = json.loads(run_cli("constants", "--potential", p1).stdout)["manifest"]["potential_digest"]
    assert d1 == hashlib.sha256(open(p1, "rb").read()).hexdigest()
    other = tmp_path / "copy.json"
    other.write_text(open(p1).read())
    d2 = json.loads(run_cli("constants", "--potential", str(other)).stdout)["manifest"]["potential_digest"]
    assert d1 == d2
    other.write_text(json.dumps(EX2))
    d3 = json.loads(run_cli("constants", "--potential", str(other)).stdout)["manifest"]["potential_digest"]
    assert d3 != d1


def test_paper_examples_summary(tmp_path):
    out = str(tmp_path / "summary.json")
    r = run_cli("paper-examples", "--out", out)
    assert r.returncode == 0
    assert open(out, "rb").read() == r.stdout.encode()
    summary = json.loads(r.stdout)["summary"]
    c1 = summary["example-1"]["constants"]
    assert abs(c1["A0"] - 0.718) <= 1e-3
    assert summary["example-1"]["hypotheses"]["H7"]["status"] == "holds"
    comp = summary["example-2"]["competitors"]
    assert comp["h7"]["beats_line_in_the_limit"]
    assert comp["h8"]["beats_line_in_the_limit"]
    ladder = summary["example-1"]["two_well_ladder"]
    assert all(0.9 * e["limit"] <= e["I_eps"] <= 1.25 * e["limit"] for e in ladder)


def test_flag_defaults_match_the_library():
    from tripwell.analysis import measure_report
    from tripwell.constants import check_hypotheses, limit_constants
    from tripwell.minimizer import MinimizeOptions

    def defaults(*argv):
        return vars(build_parser().parse_args([*argv, "--potential", "p.json"]))

    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    opts = dataclasses.asdict(MinimizeOptions())
    for argv in (["minimize", "--eps", "0.1", "--out", "m.json"],
                 ["sweep", "--eps", "0.1", "--out", "s.csv"]):
        flags = defaults(*argv)
        assert {k: flags[k] for k in opts} == opts, argv
    assert defaults("check-hypotheses")["ymax"] == default(check_hypotheses, "y_max")
    analyze = defaults("analyze", "--profile", "u.json", "--eta", "0.2")
    assert analyze["bins"] == default(measure_report, "bins")
    assert (analyze["r_lo"], analyze["r_hi"]) == default(measure_report, "thresholds")
    assert defaults("constants")["tol"] == default(limit_constants, "tol")


def test_main_in_process_usage_error():
    assert main(["bogus"]) == 1


def test_l0_split_intervals(spec_files, tmp_path):
    p1, _ = spec_files
    prof = str(tmp_path / "left.json")
    r = run_cli("construct", "--potential", p1, "--eps", "0.05",
                "--kind", "two-well", "--l0", "0.6", "--out", prof)
    assert r.returncode == 0
    data = json.loads(open(prof).read())
    assert data["nodes"][0] == 0.0
    assert abs(data["nodes"][-1] - 0.6) < 1e-12
    prof2 = str(tmp_path / "right.json")
    r = run_cli("construct", "--potential", p1, "--eps", "0.05",
                "--kind", "three-well", "--l0", "0.6", "--out", prof2)
    assert r.returncode == 0
    data = json.loads(open(prof2).read())
    assert abs(data["nodes"][0] - 0.6) < 1e-12
    assert data["nodes"][-1] == 1.0


def test_sweep_rejects_an_empty_or_malformed_ladder(spec_files, tmp_path):
    p1, _ = spec_files
    out = tmp_path / "s.csv"
    for ladder, msg in ((",,", "eps ladder is empty"), ("", "eps ladder is empty"),
                        ("0.1,abc", "--eps: 'abc' is not a number")):
        r = run_cli("sweep", "--potential", p1, "--eps", ladder, "--out", str(out))
        assert r.returncode == 2, ladder
        assert json.loads(r.stderr)["error"] == {"type": "ParameterError", "message": msg}
        assert not out.exists()


# layers that neither a constants nor an energy command runs
UNUSED_LAYERS = {"tripwell.minimizer", "tripwell.analysis", "tripwell.microstructure"}


@pytest.mark.parametrize("command", ["constants", "energy"])
def test_cold_command_loads_only_its_layers(spec_files, tmp_path, command):
    p1, _ = spec_files
    prof = tmp_path / "p.json"
    x = np.linspace(0.0, 1.0, 101)
    GridFunction(x, 0.01 * x * (1.0 - x), eps=0.1).save(prof)
    args = {"constants": ["constants", "--potential", p1],
            "energy": ["energy", "--profile", str(prof), "--potential", p1]}[command]
    code = ("import sys; from tripwell.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.startswith('tripwell')), "
            "file=sys.stderr); sys.exit(rc)")
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["manifest"]["command"] == command
    loaded = set(ast.literal_eval(r.stderr.strip().splitlines()[-1]))
    assert "tripwell.potential" in loaded and not loaded & UNUSED_LAYERS
