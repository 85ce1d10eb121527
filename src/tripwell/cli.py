"""Command-line interface: every operation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 usage error, 2 numeric or construction failure (the
failure detail goes to stderr as JSON).  Every JSON payload opens with a run
manifest; floating-point output is printed with 12 significant digits, and
repeated runs with byte-identical inputs and the same seed produce
byte-identical output apart from the manifest's wall_time_s field.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import measure_report
from .constants import check_hypotheses, limit_constants
from .energy import energy_Ieps
from .errors import NumericError, TripwellError
from .grids import GridFunction
from .microstructure import (
    build_h7_competitor,
    build_h8_competitor,
    build_three_well_profile,
    build_two_well_sawtooth,
    competitor_plan,
)
from .minimizer import MinimizeOptions, eps_ladder, epsilon_sweep, multi_start, sweep_to_csv
from .potential import PotentialSpec, load_potential

EXAMPLE_POTENTIALS = {
    "example-1": {"kind": "polynomial-triple-well", "wells": [-1.0, 1.0 / 3.0, 1.0]},
    "example-2": {"kind": "polynomial-triple-well", "wells": [-1.0, 0.5, 1.0]},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return _digest_bytes(fh.read())


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt_floats(obj):
    """Round every float to 12 significant digits for printing.

    A NaN or infinity raises NumericError: JSON has no spelling for it.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise NumericError(f"non-finite value {x} in the output")
        return float(f"{x:.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _fmt_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_fmt_floats(v) for v in obj]
    return obj


def dumps12(obj) -> str:
    return json.dumps(_fmt_floats(obj), indent=2)


def _manifest(command: str, digest: str | None, options: dict, t0: float) -> dict:
    return {
        "command": command,
        "potential_digest": digest,
        "options": options,
        "tool_version": __version__,
        "wall_time_s": time.time() - t0,
    }


def _emit(command: str, digest, options: dict, t0: float, payload: dict) -> None:
    out = {"manifest": _manifest(command, digest, options, t0)}
    out.update(payload)
    print(dumps12(out))


def _options(args, skip=("func", "command")) -> dict:
    return {k: v for k, v in vars(args).items()
            if k not in skip and not callable(v)}


def _load_spec(args) -> tuple[PotentialSpec, str]:
    spec = load_potential(args.potential)
    return spec, _digest(args.potential)


def _cmd_constants(args, t0):
    spec, dig = _load_spec(args)
    c = limit_constants(spec, tol=args.tol)
    _emit("constants", dig, _options(args), t0, {"constants": c.as_dict()})
    return 0


def _cmd_check_hypotheses(args, t0):
    spec, dig = _load_spec(args)
    rep = check_hypotheses(spec, y_max=args.ymax)
    _emit("check-hypotheses", dig, _options(args), t0, {"hypotheses": rep.as_dict()})
    return 0


def _cmd_construct(args, t0):
    spec, dig = _load_spec(args)
    c = limit_constants(spec)
    if args.kind == "two-well":
        interval = (0.0, args.l0) if args.l0 is not None else (0.0, 1.0)
        gf = build_two_well_sawtooth(spec, args.eps, interval=interval, constants=c)
    elif args.kind == "three-well":
        interval = (args.l0, 1.0) if args.l0 is not None else (0.0, 1.0)
        gf = build_three_well_profile(spec, args.eps, interval=interval, constants=c)
    elif args.kind == "h7":
        _require_yhat(args)
        gf = build_h7_competitor(spec, args.eps, args.yhat, constants=c)
    elif args.kind == "h8":
        _require_yhat(args)
        gf = build_h8_competitor(spec, args.eps, args.yhat, constants=c)
    else:  # pragma: no cover - argparse choices guard this
        raise _UsageError(f"unknown kind {args.kind}")
    gf.save(args.out)
    _emit("construct", dig, _options(args), t0,
          {"profile": {"out": args.out, "nodes": len(gf), "meta": gf.meta}})
    return 0


def _require_yhat(args):
    if args.yhat is None:
        raise _UsageError("--yhat is required for competitor kinds")


def _cmd_energy(args, t0):
    spec, dig = _load_spec(args)
    gf = GridFunction.load(args.profile)
    eps = args.eps if args.eps is not None else gf.eps
    if eps <= 0.0:
        raise _UsageError("profile carries no eps; pass --eps")
    br = energy_Ieps(gf, eps, spec)
    _emit("energy", dig, _options(args), t0, {"energy": br.as_dict()})
    return 0


def _cmd_minimize(args, t0):
    spec, dig = _load_spec(args)
    opts = _make_opts(args)
    best = multi_start(spec, args.eps, opts)
    best.u.meta.update({
        "minimize": {"value": best.value, "converged": best.converged,
                     "start_kind": best.start_kind,
                     "per_start": [[k, v, c] for k, v, c in best.per_start]},
    })
    best.u.save(args.out)
    _emit("minimize", dig, {**_options(args), "seed": opts.seed}, t0, {"minimize": {
        "out": args.out, "value": best.value, "converged": best.converged,
        "start_kind": best.start_kind,
        "per_start": {k: v for k, v, _ in best.per_start},
    }})
    return 0


def _sweep_entry(packed):
    spec_dict, eps, opts_dict = packed
    spec = PotentialSpec.from_dict(spec_dict)
    records = epsilon_sweep(spec, [eps], MinimizeOptions(**opts_dict))
    return records[0]


def _cmd_sweep(args, t0):
    spec, dig = _load_spec(args)
    eps_list = eps_ladder(tok for tok in args.eps.split(",") if tok)
    opts = _make_opts(args)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        packed = [(spec.to_dict(), e, dataclasses.asdict(opts)) for e in eps_list]
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(_sweep_entry, packed))
    else:
        records = epsilon_sweep(spec, eps_list, opts)
    csv_text = sweep_to_csv(records)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit("sweep", dig, {**_options(args), "seed": opts.seed}, t0, {"sweep": {
        "out": args.out,
        "records": [{
            "eps": r.eps, "best_value": r.best_value, "eta": r.eta,
            "lambda": [r.lambda1, r.lambda2, r.lambda3],
            "layersA": r.n_layers_A, "layersB": r.n_layers_B,
            "start_kind": r.start_kind, "start_values": r.start_values,
        } for r in records],
    }})
    return 0


def _make_opts(args) -> MinimizeOptions:
    seed = int(os.environ.get("TRIPWELL_SEED", args.seed))
    return MinimizeOptions(
        grid_n=args.grid_n, max_iters=args.max_iters, grad_tol=args.grad_tol,
        starts=args.starts, seed=seed,
    )


def _cmd_analyze(args, t0):
    spec, dig = _load_spec(args)
    gf = GridFunction.load(args.profile)
    rep = measure_report(gf, spec, args.eta, bins=args.bins,
                         thresholds=(args.r_lo, args.r_hi))
    if args.hist_csv:
        edges, masses = rep.histogram.edges, rep.histogram.masses
        with open(args.hist_csv, "w", encoding="utf-8") as fh:
            fh.write("bin_lo,bin_hi,mass\n")
            for lo, hi, m in zip(edges[:-1], edges[1:], masses):
                fh.write(f"{lo:.12g},{hi:.12g},{m:.12g}\n")
    payload = rep.as_dict()
    payload["thresholds"] = {"R_lo": args.r_lo, "R_hi": args.r_hi}
    _emit("analyze", dig, _options(args), t0, {"measure_report": payload})
    return 0


def _cmd_paper_examples(args, t0):
    summary, held = {}, {}
    for name, data in EXAMPLE_POTENTIALS.items():
        spec = PotentialSpec.from_dict(data)
        c = limit_constants(spec)
        rep = check_hypotheses(spec, constants=c)
        held[name] = (spec, c, rep)
        summary[name] = {
            "potential": data,
            "constants": c.as_dict(),
            "hypotheses": rep.as_dict(),
        }
    # example 1: two-well energy ladder against the predicted limit
    spec1, c1, _ = held["example-1"]
    target = c1.A0 / c1.z21
    ladder = []
    for eps in (0.1, 0.07):
        gf = build_two_well_sawtooth(spec1, eps, constants=c1)
        ladder.append({"eps": eps, "I_eps": energy_Ieps(gf, eps, spec1).total,
                       "limit": target})
    summary["example-1"]["two_well_ladder"] = ladder

    # example 2: competitor energies against the two-well energy line
    spec2, c2, rep2 = held["example-2"]
    comps = {}
    for kind, verdict, builder in (("h7", rep2.h7, build_h7_competitor),
                                   ("h8", rep2.h8, build_h8_competitor)):
        if verdict.status != "fails":
            continue
        yhat = verdict.worst_y
        plan = competitor_plan(spec2, kind, yhat, c2)
        line = c2.A0 * plan.lam[1] + c2.B0 * plan.lam[2]
        eps = 0.07
        gf = builder(spec2, eps, yhat, constants=c2)
        comps[kind] = {
            "yhat": yhat, "lambda": list(plan.lam), "eps": eps,
            "I_eps": energy_Ieps(gf, eps, spec2).total,
            "ideal": plan.ideal, "line_A0l2_B0l3": line,
            "beats_line_in_the_limit": bool(plan.ideal < line),
        }
    summary["example-2"]["competitors"] = comps

    dig = _digest_bytes(json.dumps(EXAMPLE_POTENTIALS, sort_keys=True).encode())
    out = {"manifest": _manifest("paper-examples", dig, _options(args), t0),
           "summary": summary}
    text = dumps12(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="tripwell",
                description="Triple-well singular-perturbation toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[], help="limit constants of a potential")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_constants)

    sp = sub.add_parser("check-hypotheses", help="decide H6-H8")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--ymax", type=float, default=50.0)
    sp.set_defaults(func=_cmd_check_hypotheses)

    sp = sub.add_parser("construct", help="build an explicit profile")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--kind", required=True,
                    choices=["two-well", "three-well", "h7", "h8"])
    sp.add_argument("--l0", type=float, default=None,
                    help="interval split: two-well on (0,l0), three-well on (l0,1)")
    sp.add_argument("--yhat", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("energy", help="evaluate I_eps on a stored profile")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--potential", required=True)
    sp.set_defaults(func=_cmd_energy)

    for name in ("minimize", "sweep"):
        sp = sub.add_parser(name, help=f"{name} the rescaled energy")
        sp.add_argument("--potential", required=True)
        if name == "minimize":
            sp.add_argument("--eps", type=float, required=True)
            sp.add_argument("--out", required=True)
        else:
            sp.add_argument("--eps", required=True,
                            help="comma-separated decreasing ladder, e.g. 0.1,0.07,0.05")
            sp.add_argument("--out", required=True)
            sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--grid-n", dest="grid_n", type=int, default=20001)
        sp.add_argument("--starts", type=int, default=5)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--max-iters", dest="max_iters", type=int, default=200)
        sp.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-4)
        sp.set_defaults(func=_cmd_minimize if name == "minimize" else _cmd_sweep)

    sp = sub.add_parser("analyze", help="measure diagnostics of a profile")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--potential", required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--bins", type=int, default=400)
    sp.add_argument("--hist-csv", default=None)
    sp.add_argument("--r-lo", dest="r_lo", type=float, default=0.1)
    sp.add_argument("--r-hi", dest="r_hi", type=float, default=10.0)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("paper-examples",
                        help="run the two bundled reference potentials end to end")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_paper_examples)
    return p


def main(argv=None) -> int:
    t0 = time.time()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args, t0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TripwellError, OSError, ValueError) as exc:
        detail = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(detail), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
