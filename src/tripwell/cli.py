"""Command-line interface: every operation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 usage error, 2 numeric or construction failure (the
failure detail goes to stderr as JSON).  Every JSON payload opens with a run
manifest; floating-point output is printed with 12 significant digits, and
repeated runs with byte-identical inputs and the same seed produce
byte-identical output apart from the manifest's wall_time_s field and the
descent_s of each start in the minimize and sweep payloads.

Each subcommand imports the layers it runs when it runs, so a cold command
loads only those.  A command pins numpy's BLAS to one thread per process
unless a thread variable is set already.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import BLAS_THREAD_VARS, __version__

if "numpy" not in sys.modules:
    # one BLAS thread per process unless the caller chose: threaded dot
    # products make every descent slower and its result depend on the CPU
    # count; a library caller that loaded numpy first keeps its own setting
    for _vars in BLAS_THREAD_VARS.values():
        for _var in _vars:
            os.environ.setdefault(_var, "1")

import numpy as np

from .errors import NumericError, ParameterError, TripwellError

if TYPE_CHECKING:
    from .minimizer import MinimizeOptions
    from .potential import PotentialSpec

EXAMPLE_POTENTIALS = {
    "example-1": {"kind": "polynomial-triple-well", "wells": [-1.0, 1.0 / 3.0, 1.0]},
    "example-2": {"kind": "polynomial-triple-well", "wells": [-1.0, 0.5, 1.0]},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _digest(data: bytes) -> str:
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


def _emit(args, digest: str, t0: float, payload: dict, out: str | None = None) -> None:
    """Print the run manifest followed by ``payload`` as one JSON document, and
    write the same text to ``out`` if given.  The manifest echoes every option
    of the command."""
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    manifest = {"command": args.command, "potential_digest": digest, "options": options,
                "tool_version": __version__, "wall_time_s": time.time() - t0}
    text = dumps12({"manifest": manifest, **payload})
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _load_spec(args) -> tuple[PotentialSpec, str]:
    """The --potential spec and the SHA-256 of the bytes it was parsed from."""
    from .potential import PotentialSpec

    with open(args.potential, "rb") as fh:
        data = fh.read()
    return PotentialSpec.from_dict(json.loads(data.decode("utf-8"))), _digest(data)


def _cmd_constants(args, t0):
    from .constants import limit_constants

    spec, dig = _load_spec(args)
    c = limit_constants(spec, tol=args.tol)
    _emit(args, dig, t0, {"constants": c.as_dict()})
    return 0


def _cmd_check_hypotheses(args, t0):
    from .constants import check_hypotheses

    spec, dig = _load_spec(args)
    rep = check_hypotheses(spec, y_max=args.ymax)
    _emit(args, dig, t0, {"hypotheses": rep.as_dict()})
    return 0


def _cmd_construct(args, t0):
    from .constants import limit_constants
    from .microstructure import build_profile

    if args.kind in ("h7", "h8"):
        if args.yhat is None or args.l0 is not None:
            raise _UsageError(f"--kind {args.kind} takes --yhat and no --l0")
        extra = (args.yhat,)
    elif args.yhat is not None:
        raise _UsageError(f"--kind {args.kind} takes no --yhat")
    elif args.l0 is None:
        extra = ()
    elif not 0.0 < args.l0 < 1.0:
        raise ParameterError("--l0 must lie in (0, 1)")
    else:
        extra = ((0.0, args.l0) if args.kind == "two-well" else (args.l0, 1.0),)
    spec, dig = _load_spec(args)
    gf = build_profile(spec, args.eps, args.kind, *extra, constants=limit_constants(spec))
    gf.save(args.out)
    _emit(args, dig, t0, {"profile": {"out": args.out, "nodes": len(gf), "meta": gf.meta}})
    return 0


def _cmd_energy(args, t0):
    from .energy import energy_Ieps
    from .grids import GridFunction

    spec, dig = _load_spec(args)
    gf = GridFunction.load(args.profile)
    if args.eps is None and gf.eps == 0.0:
        raise _UsageError("profile carries no eps; pass --eps")
    # a given --eps, valid or not, goes to energy_Ieps, which checks it
    br = energy_Ieps(gf, gf.eps if args.eps is None else args.eps, spec)
    _emit(args, dig, t0, {"energy": br.as_dict()})
    return 0


def _cmd_minimize(args, t0):
    from .minimizer import multi_start

    spec, dig = _load_spec(args)
    opts = _make_opts(args)
    best = multi_start(spec, args.eps, opts)
    best.u.meta.update({
        "minimize": {"value": best.value, "converged": best.converged,
                     "start_kind": best.start_kind,
                     "per_start": [[s.start_kind, s.value, s.converged] for s in best.per_start]},
    })
    best.u.save(args.out)
    _emit(args, dig, t0, {"minimize": {
        "out": args.out, "value": best.value, "converged": best.converged,
        "start_kind": best.start_kind,
        "per_start": {s.start_kind: s.value for s in best.per_start},
        "starts": [dataclasses.asdict(s) for s in best.per_start],
        "failed_starts": [{"start_kind": k, "error": e} for k, e in best.failed],
    }})
    return 0


def _cmd_sweep(args, t0):
    from .minimizer import epsilon_sweep, sweep_to_csv

    spec, dig = _load_spec(args)
    opts = _make_opts(args)
    records = epsilon_sweep(spec, _eps_ladder(args.eps), opts, max_workers=args.jobs)
    csv_text = sweep_to_csv(records)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit(args, dig, t0, {"sweep": {
        "out": args.out,
        "records": [{
            "eps": r.eps, "best_value": r.best_value, "eta": r.eta,
            "lambda": [r.lambda1, r.lambda2, r.lambda3],
            "layersA": r.n_layers_A, "layersB": r.n_layers_B,
            "start_kind": r.start_kind, "start_values": r.start_values,
            "starts": [dataclasses.asdict(s) for s in r.per_start],
            "failed_starts": [{"start_kind": k, "error": e} for k, e in r.failed],
        } for r in records],
    }})
    return 0


def _eps_ladder(text: str) -> list[float]:
    """The --eps ladder of ``sweep``: comma-separated numbers, empty tokens
    skipped.  Range checks (order, NaN, inf) are left to ``epsilon_sweep``."""
    ladder = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            ladder.append(float(tok))
        except ValueError:
            raise ParameterError(f"--eps: {tok!r} is not a number") from None
    return ladder


def _make_opts(args) -> MinimizeOptions:
    from .minimizer import MinimizeOptions

    return MinimizeOptions(
        grid_n=args.grid_n, max_iters=args.max_iters, grad_tol=args.grad_tol,
        starts=args.starts, seed=args.seed,
    )


def _cmd_analyze(args, t0):
    from .analysis import measure_report
    from .grids import GridFunction

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
    _emit(args, dig, t0, {"measure_report": payload})
    return 0


def _cmd_paper_examples(args, t0):
    from .constants import check_hypotheses, limit_constants
    from .energy import energy_Ieps
    from .microstructure import build_profile, competitor_plan, competitor_seeds
    from .potential import PotentialSpec

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
        gf = build_profile(spec1, eps, "two-well", constants=c1)
        ladder.append({"eps": eps, "I_eps": energy_Ieps(gf, eps, spec1).total,
                       "limit": target})
    summary["example-1"]["two_well_ladder"] = ladder

    # example 2: competitor energies against the two-well energy line
    spec2, c2, rep2 = held["example-2"]
    comps = {}
    for kind, yhat in competitor_seeds(rep2):
        plan = competitor_plan(spec2, kind, yhat, c2)
        line = c2.A0 * plan.lam[1] + c2.B0 * plan.lam[2]
        eps = 0.07
        gf = build_profile(spec2, eps, kind, yhat, constants=c2)
        comps[kind] = {
            "yhat": yhat, "lambda": list(plan.lam), "eps": eps,
            "I_eps": energy_Ieps(gf, eps, spec2).total,
            "ideal": plan.ideal, "line_A0l2_B0l3": line,
            "beats_line_in_the_limit": bool(plan.ideal < line),
        }
    summary["example-2"]["competitors"] = comps

    dig = _digest(json.dumps(EXAMPLE_POTENTIALS, sort_keys=True).encode())
    _emit(args, dig, t0, {"summary": summary}, out=args.out)
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="tripwell",
                description="Triple-well singular-perturbation toolbox")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[], help="limit constants of a potential")
    sp.add_argument("--potential", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
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
            sp.add_argument("--jobs", type=int, default=0,
                            help="at most this many worker processes for the ladder's "
                                 "descents (0: one per CPU that BLAS threads leave free)")
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
