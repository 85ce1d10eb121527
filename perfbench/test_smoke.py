"""Tests of the benchmark harness.  Run with ``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import importtime_layers
from run import tail
from workloads import null_fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        got = summary["workloads"][workload["name"]]
        for kind in ("end_to_end", "per_layer"):
            assert set(got[kind]) == {m["name"] for m in spec[kind]}
            for m in spec[kind]:
                assert got[kind][m["name"]]["unit"] == m["unit"]
        for m in spec["end_to_end"]:
            assert got["end_to_end"][m["name"]]["value"] > 0.0, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_null_fields_allow_only_unset_options_and_open_intervals():
    payload = {"manifest": {"options": {"out": None}},
               "energy": {"total": None, "parts": [1.0, None]},
               "d_intervals": [{"e_span": None}]}
    assert null_fields(payload) == ["/energy/total", "/energy/parts/1"]


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(1, 21))) == (10, 50.0, 20)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_importtime_counts_outermost_modules_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.integrate",
        "import time:        10 |        360 |   tripwell.constants",
        "import time:         5 |        365 | tripwell",
    ])
    assert importtime_layers(stderr) == pytest.approx({"tripwell": 365e-6, "scipy": 350e-6})
