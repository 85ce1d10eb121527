import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from tripwell import GridFunction
from tripwell.cli import main

EX1 = {"kind": "polynomial-triple-well", "wells": [-1.0, 1.0 / 3.0, 1.0]}
EX2 = {"kind": "polynomial-triple-well", "wells": [-1.0, 0.5, 1.0]}


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
    outs = []
    for jobs in ("1", "2"):
        out = str(tmp_path / f"jobs{jobs}.csv")
        r = run_cli("sweep", "--potential", p1, "--eps", "0.1,0.07",
                    "--starts", "2", "--seed", "11", "--max-iters", "30",
                    "--grid-n", "2001", "--jobs", jobs, "--out", out)
        assert r.returncode == 0, r.stderr
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


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


def test_seed_env_override(spec_files, tmp_path):
    p1, _ = spec_files
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    r = run_cli("sweep", "--potential", p1, "--eps", "0.1", "--starts", "3",
                "--max-iters", "10", "--seed", "1", "--grid-n", "2001", "--out", a,
                env={"TRIPWELL_SEED": "9"})
    assert r.returncode == 0
    assert json.loads(r.stdout)["manifest"]["options"]["seed"] == 9
    r = run_cli("sweep", "--potential", p1, "--eps", "0.1", "--starts", "3",
                "--max-iters", "10", "--seed", "9", "--grid-n", "2001", "--out", b)
    assert r.returncode == 0
    assert open(a, "rb").read() == open(b, "rb").read()


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
                 "--grad-tol", "nan"]):
        r = run_cli(*cmd, "--potential", p1)
        assert r.returncode == 2, cmd
        assert r.stderr.startswith("{"), cmd           # no warnings ahead of the error
        assert json.loads(r.stderr)["error"]["type"] == "ParameterError", cmd
    assert not any((tmp_path / name).exists() for name in ("x.json", "s.csv", "m.json"))
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
    summary = json.loads(open(out).read())["summary"]
    c1 = summary["example-1"]["constants"]
    assert abs(c1["A0"] - 0.718) <= 1e-3
    assert summary["example-1"]["hypotheses"]["H7"]["status"] == "holds"
    comp = summary["example-2"]["competitors"]
    assert comp["h7"]["beats_line_in_the_limit"]
    assert comp["h8"]["beats_line_in_the_limit"]
    ladder = summary["example-1"]["two_well_ladder"]
    assert all(0.9 * e["limit"] <= e["I_eps"] <= 1.25 * e["limit"] for e in ladder)


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
