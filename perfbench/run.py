"""Layered benchmark of ``tripwell``: end-to-end metrics, output checks and a
traced run with per-layer metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

After one untimed warm-up, ``--trace 0`` measures the workload for
``--seconds`` seconds with nothing wrapped and prints the end-to-end metrics.
``--trace 1`` spends half the time untraced and half with every layer wrapped,
and prints the per-layer metrics with the tracing overhead (traced minus
untraced) of each end-to-end metric.
``--smoke`` runs one small cycle of every workload both ways, with every
output check; with ``--workload`` it runs that workload only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (seed, versions, node counts, CPU time beside wall time).  The
program is imported from ``src/`` next to this directory.  See README.md.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before anything loads numpy, here and in every child
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 5          # set-ups timed per run; setup_s is their median

UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "throughput_per_s": "1/s",
         "best_value": "I_eps", "best_grad_sup": "1", "peak_rss_mb": "MB"}
# per-workload names of these metrics, printed in the run record
WORKLOAD_NAMES = {
    "sweep": {"rung_s": "latency_p50_s", "best_value": "best_value",
              "best_grad_sup": "best_grad_sup"},
    "profiles": {"profiles_per_s": "throughput_per_s"},
    "cli": {"cli_p50_s": "latency_p50_s", "cli_tail_s": "latency_tail_s"},
}


@contextlib.contextmanager
def work_dir():
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_probe(name: str, traced: bool) -> None:
    """Body of one timed set-up: import ``tripwell`` and prepare a workload."""
    from workloads import WORKLOADS

    with work_dir() as work:
        WORKLOADS[name](0, False, work).setup()
        if traced:
            from spans import Tracer
            Tracer().install()


def time_setup(name: str, traced: bool) -> tuple[float, dict]:
    """Wall time of one fresh process that only sets up, and with ``traced``
    its ``-X importtime`` layers of ``tripwell`` and ``scipy``."""
    from layers import importtime_layers

    argv = [sys.executable, *(["-X", "importtime"] if traced else []), str(Path(__file__)),
            "--setup-probe", name, "--trace", "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return elapsed, importtime_layers(proc.stderr) if traced else {}


def measure(wl, seconds: float, probes: int, traced: bool) -> dict:
    """Run whole cycles of the workload while the next one is expected to end
    less than half a cycle after ``seconds`` of step time; always at least one.

    The ``probes`` set-up probes run between cycles, spread over the same
    stretch of time as the steps, so that ``setup_s`` sees the same drift of
    the machine.  Their time does not count towards ``seconds``.
    """
    wl.start_phase()
    latencies, problems, cycle_times, setups = [], [], [], []
    attempted = failed = results = 0
    cpu0, t0 = os.times(), time.perf_counter()
    probe_wall = probe_cpu = 0.0
    while True:
        busy = sum(cycle_times)
        while len(setups) < probes and busy >= len(setups) * seconds / probes:
            c0, p0 = os.times(), time.perf_counter()
            setups.append(time_setup(wl.name, traced))
            c1 = os.times()
            probe_wall += time.perf_counter() - p0
            probe_cpu += c1.children_user + c1.children_system - c0.children_user - c0.children_system
        t_cycle = time.perf_counter()
        for op in wl.cycle(len(cycle_times)):
            attempted += 1
            start = time.perf_counter()
            try:
                out = op.run()
                latencies.append(time.perf_counter() - start)
                results += op.results
                found = op.check(out)
            except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
                found = [f"{op.name}: {traceback.format_exc(limit=3)}"]
            if found:
                failed += 1
                problems.extend(found)
                print(f"check failed: {found}", file=sys.stderr)
        cycle_times.append(time.perf_counter() - t_cycle)
        if wl.smoke or sum(cycle_times) + 0.5 * statistics.median(cycle_times) >= seconds:
            break
    while len(setups) < probes:
        setups.append(time_setup(wl.name, traced))
    wall, cpu1 = time.perf_counter() - t0 - probe_wall, os.times()
    imports = [layers for _, layers in setups if layers]
    return {"latencies": latencies, "results": results, "attempted": attempted,
            "failed": failed, "problems": problems, "cycles": len(cycle_times),
            "setup_s": statistics.median(t for t, _ in setups),
            "setup_probes_s": [t for t, _ in setups],
            "imports": {k: statistics.median(i[k] for i in imports)
                        for k in ("tripwell", "scipy")} if imports else {},
            "wall_s": wall, "cpu_s": round(cpu1.user + cpu1.system - cpu0.user - cpu0.system, 6),
            "children_cpu_s": round(cpu1.children_user + cpu1.children_system
                                    - cpu0.children_user - cpu0.children_system - probe_cpu, 6),
            "peak_rss_mb": wl.peak_rss_mb()}


def tail(latencies: list) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it (the maximum
    when there are fewer than 11 samples), its percentile and the count."""
    s, n = sorted(latencies), len(latencies)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(phase: dict, wl) -> dict:
    lat = phase["latencies"]
    value, grad_sup = wl.best()
    return {
        "setup_s": phase["setup_s"],
        "latency_p50_s": statistics.median(lat) if lat else 0.0,
        "latency_tail_s": tail(lat)[0],
        "throughput_per_s": phase["results"] / sum(lat) if lat else 0.0,
        "best_value": value,
        "best_grad_sup": grad_sup,
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):   # no git, or not a git checkout
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tripwell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "thread_pins": {v: os.environ[v] for v in THREAD_PINS}}


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, run record)."""
    from workloads import WORKLOADS

    probes = 1 if smoke else PROBES
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              **environment()}
    with work_dir() as work:
        wl = WORKLOADS[name](seed, smoke, work)
        wl.setup()
        record["setup_in_process_s"] = time.perf_counter() - T_START
        if not smoke:
            t0 = time.perf_counter()
            wl.warm_up()
            record["warm_up_s"] = time.perf_counter() - t0
        untraced = measure(wl, seconds / 2 if traced else seconds, probes, traced=False)
        metrics = end_to_end(untraced, wl)
        phases = [untraced]
        if traced:
            from layers import derive, descent_records, metric_units, span_summary, SpanIndex
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
            try:
                traced_phase = measure(wl, seconds / 2, probes, traced=True)
            finally:
                tracer.uninstall()
                wl.tracer = None
            phases.append(traced_phase)
            traced_e2e = end_to_end(traced_phase, wl)
            layer = derive(tracer.spans, len(traced_phase["latencies"]), traced_phase["imports"],
                           getattr(wl, "import_shares", []))
            units = metric_units()
            result_metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items()}
            for k, u in UNITS.items():
                result_metrics[f"trace_overhead.{k}"] = {
                    "value": traced_e2e[k] - metrics[k], "unit": u}
            if name == "sweep":
                record["starts"] = wl.describe_starts(descent_records(SpanIndex(tracer.spans)))
            record["span_summary"] = span_summary(tracer.spans)
            record["traced_end_to_end"] = traced_e2e
            spans_file = OUT / f"spans-{name}-seed{seed}.jsonl"
            tracer.dump(spans_file)
            record["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            result_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    fail_share = failed / attempted if attempted else 1.0
    _, pct, n = tail(untraced["latencies"])
    record.update({
        "nodes": wl.nodes, "attempted": attempted, "failed": failed, "fail_share": fail_share,
        "problems": [q for ph in phases for q in ph["problems"]][:20],
        "phases": [{k: ph[k] for k in ("cycles", "attempted", "results", "failed", "wall_s", "cpu_s",
                                       "children_cpu_s", "peak_rss_mb", "setup_probes_s")}
                   for ph in phases],
        "latency_tail": {"percentile": pct, "samples": n},
        "end_to_end": metrics,
        "workload_metrics": {
            **{alias: {"value": metrics[k], "unit": UNITS[k]}
               for alias, k in WORKLOAD_NAMES[name].items()},
            "setup_s": {"value": metrics["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": metrics["peak_rss_mb"], "unit": "MB"},
            "fail_share": {"value": fail_share, "unit": "ratio"},
        },
    })
    result = {"correct": attempted > 0 and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": result_metrics}
    return result, record


def smoke() -> int:
    """One cycle of every workload, untraced and traced, each in its own process."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "0",
                 "--seconds", "0", "--trace", trace, "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"perfbench: smoke run of {name} failed", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            summary["workloads"].setdefault(name, {})[key] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tripwell" / "__init__.py").is_file():
        print(f"perfbench: no tripwell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.setup_probe, bool(args.trace))
        return 0
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  smoke=args.smoke)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
