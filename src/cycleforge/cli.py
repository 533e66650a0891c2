"""Command-line front end.

Reports are JSON, trajectories are CSV; every file is written atomically
(temp file in the target directory, then rename).  Exit status: 0 on
success, 1 when --strict is set and the analysis reaches a negative
verdict, 2 on input errors, 3 on an internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import bifurcation, centers, dynamics, fields, integrate, lyapunov
from .poly import PolyParseError, parse_poly
from .resultants import cascade


# Longest `simulate` horizon: at the default tolerances one time unit of a
# P9 orbit costs about 1.5 ms of integration, so 1e4 stays near 15 s.
MAX_TMAX = 1.0e4

# Largest `simulate --samples`: the sample times, the trajectory and its CSV
# are all held in memory; 10^6 samples take about 5 s and 0.45 GB.
MAX_SAMPLES = 10**6

# Largest `eliminate --bound` (the library default), the documented input
# range: the bound filters the linear factors a cascade reports, and finding
# them costs the same at every bound.
MAX_BOUND = 4

# Largest deg f * deg g in x, y of a `singular` or `berlinskii` pair, which
# bounds the degree of the resultants they solve: (x-1/3)(y+2), x^500 takes
# about 1 s, and x^2000 11 s.
MAX_BEZOUT = 1000

FAMILIES = {
    "P4": fields.p4_family,
    "P5": fields.p5_family,
    "P7": fields.p7_base,
    "P8": fields.p8_base,
    "P9": fields.p9_family,
}


class InputError(Exception):
    pass


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    d = os.path.dirname(os.path.abspath(out))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".cycleforge-")
        try:
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise InputError(f"cannot write --out {out}: {e.strerror or e}") from None


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2) with every key and scalar through the C
    encoder: the indenting pure-Python encoder leaves a reference cycle."""
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = [json.dumps(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)) and obj:
        items = [_json_text(v, inner) for v in obj]
    else:
        return json.dumps(obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit_json(obj, out: str | None) -> None:
    _write_out(_json_text(obj) + "\n", out)


def _read_json_object(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(str(e))
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def _load_family(args) -> fields.VectorField:
    if getattr(args, "family", None):
        if args.family not in FAMILIES:
            raise InputError(
                f"unknown family {args.family!r}; choose from "
                f"{sorted(FAMILIES)} or use --file"
            )
        return FAMILIES[args.family]()
    if getattr(args, "file", None):
        data = _read_json_object(args.file)
        try:
            vs = tuple(data.get("variables") or ("x", "y"))
            return fields.VectorField(
                parse_poly(data["f"], vs), parse_poly(data["g"], vs)
            )
        except (KeyError, TypeError, PolyParseError, ValueError) as e:
            raise InputError(f"{args.file}: {e}")
    raise InputError("need --family or --file")


def _load_pair(args) -> fields.VectorField:
    fam = _load_family(args)
    m, n = (max(h.graded(("x", "y")), default=0) for h in (fam.f, fam.g))
    if m * n > MAX_BEZOUT:
        raise InputError(f"deg f * deg g = {m} * {n} exceeds {MAX_BEZOUT}")
    return fam


def _check_parameters(flag: str, names, fam: fields.VectorField) -> None:
    unknown = [n for n in names if n not in fam.parameters]
    if unknown:
        raise InputError(f"{flag} names unknown parameter {unknown[0]!r}; "
                         f"the family has {list(fam.parameters)}")


def _parse_binding(spec: str | None, fam: fields.VectorField) -> dict:
    """--bind as {name: Fraction}; every parameter of fam must be bound."""
    out = {}
    for part in spec.split(",") if spec else ():
        if "=" not in part:
            raise InputError(f"bad binding {part!r}; expected name=value")
        name, val = part.split("=", 1)
        try:
            out[name.strip()] = Fraction(val.strip())
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational value {val!r} for {name.strip()!r}")
    _check_parameters("--bind", out, fam)
    unbound = [v for v in fam.parameters if v not in out]
    if unbound:
        raise InputError(f"--bind leaves {', '.join(unbound)} unbound")
    return out


# -- subcommands ------------------------------------------------------------------


def _cmd_lyap(args) -> int:
    fam = _load_family(args)
    rep = lyapunov.lyapunov_quantities(fam.P, fam.Q, args.N)
    _emit_json(rep.to_json(), args.out)
    return 0


def _cmd_center_certify(args) -> int:
    fam = _load_family(args)
    conditions = {"P4": fields.P4_CONDITIONS, "P5": fields.P5_CONDITIONS}.get(
        getattr(args, "family", None) or "", {}
    )
    if args.condition:
        if args.condition in conditions:
            fam_c = fields.apply_condition(fam, conditions[args.condition])
        else:
            try:
                cond = json.loads(args.condition)
            except json.JSONDecodeError:
                cond = None
            if not isinstance(cond, dict):
                raise InputError(
                    f"condition {args.condition!r} is neither a known label "
                    "nor a JSON substitution map"
                )
            _check_parameters("--condition", cond, fam)
            try:
                fam_c = fields.apply_condition(fam, cond)
            except (TypeError, OverflowError) as e:
                raise InputError(f"bad --condition value: {e}")
    else:
        fam_c = fam
    extra = []
    if args.curve:
        for c in args.curve:
            extra.append(parse_poly(c, fam_c.variables))
    cert = centers.certify(fam_c, extra_curves=extra)
    out = {"condition": args.condition, "certificate": cert.to_json()}
    _emit_json(out, args.out)
    if args.strict and cert.kind == "none":
        return 1
    return 0


def _cmd_eliminate(args) -> int:
    if not 1 <= args.bound <= MAX_BOUND:
        raise InputError(f"--bound must be between 1 and {MAX_BOUND}, got {args.bound}")
    fam = _load_family(args)
    order = [s.strip() for s in args.order.split(",")]
    _check_parameters("--order", order, fam)
    repeated = next((n for i, n in enumerate(order) if n in order[:i]), None)
    if repeated is not None:
        raise InputError(f"--order names parameter {repeated!r} more than once")
    rep = lyapunov.lyapunov_quantities(fam.P, fam.Q, args.N)
    traces = cascade(rep.quantities, order, coeff_bound=args.bound)
    _emit_json([t.to_json() for t in traces], args.out)
    return 0


def _load_setup(path: str) -> "bifurcation.PerturbationSetup":
    data = _read_json_object(path)
    try:
        base_data = data["base"]
        vs = tuple(base_data.get("variables") or ("x", "y"))
        base = fields.VectorField(
            parse_poly(base_data["f"], vs), parse_poly(base_data["g"], vs)
        )
        terms = [tuple(t) for t in data["terms"]]
        point = data.get("point", [0, 0])
        if not (isinstance(point, list) and len(point) == 2):
            raise InputError(f"{path}: point must be two rational coordinates")
        point = tuple(Fraction(str(c)) for c in point)
        alpha = data.get("alpha", "alpha")
        return bifurcation.build_perturbation(base, terms, alpha_symbol=alpha, point=point)
    except (KeyError, TypeError, PolyParseError, ValueError) as e:
        raise InputError(f"{path}: {e}")
    except ZeroDivisionError:
        raise InputError(f"{path}: division by zero")


def _cmd_bifurcate(args) -> int:
    if not args.prop and not args.setup:
        raise InputError("need --prop or --setup")
    label = None if args.setup else args.prop
    if label is None or label in bifurcation.CANNED_SETUPS:
        setup = bifurcation.CANNED_SETUPS[label]() if label else _load_setup(args.setup)
        rep = bifurcation.ggt_analyze(setup, N=args.N)
        ok = rep.verdict[0] == "k_plus_ell_cycles"
        out = rep.to_json()
        if label == "P9b":
            out["mirror_total"] = bifurcation.mirror_count(rep) if ok else None
        elif label == "T1c":
            out = {
                "setting": "two nests around the symmetric pair of centers",
                "per_nest": rep.verdict[1] if ok else None,
                "total": bifurcation.mirror_count(rep) if ok else None,
                "report": out,
            }
    elif label == "P9c":
        res = bifurcation.hopf_order_one(bifurcation.p9_setup(), {"mu": Fraction(0)})
        ok = res == "one_cycle"
        out = {"hopf": res, "per_nest": 1 if ok else 0, "total": 2 if ok else 0}
    else:
        raise InputError(f"unknown analysis label {label!r}")
    _emit_json(out, args.out)
    return 1 if (args.strict and not ok) else 0


def _cmd_singular(args) -> int:
    fam = _load_pair(args)
    binding = _parse_binding(args.bind, fam)
    rep = dynamics.singularities_in_delta(fam, binding, region=args.region)
    _emit_json(rep.to_json(), args.out)
    return 1 if (args.strict and rep.degenerate_family) else 0


def _cmd_berlinskii(args) -> int:
    fam = _load_pair(args)
    binding = _parse_binding(args.bind, fam)
    if args.raw_pair:
        fb = fam.bind(binding)
        rep = dynamics.pair_report(fb.f, fb.g)
    else:
        rep = dynamics.singularities_in_delta(fam, binding, region=args.region)
    res = dynamics.berlinskii_check(rep)
    out = {"singularities": rep.to_json(), "berlinskii": res.to_json()}
    _emit_json(out, args.out)
    return 1 if (args.strict and res.configuration == "counterexample") else 0


def _cmd_simulate(args) -> int:
    for flag in ("tmax", "rtol", "atol"):
        value = getattr(args, flag)
        if not (math.isfinite(value) and value > 0):
            raise InputError(f"--{flag} must be finite and positive, got {value}")
    if args.tmax > MAX_TMAX:
        raise InputError(f"--tmax must be at most {MAX_TMAX:g}, got {args.tmax:g}")
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise InputError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")
    try:
        x0 = tuple(float(t) for t in args.start.split(","))
    except ValueError:
        x0 = ()
    if len(x0) != 2 or not all(abs(t) <= 0.5 for t in x0):
        raise InputError(f"bad --start {args.start!r}; expected x,y with "
                         "|x|, |y| <= 1/2")
    fam = _load_family(args)
    binding = _parse_binding(args.bind, fam)
    traj = integrate.integrate(
        fam, binding, x0, args.tmax, rtol=args.rtol, atol=args.atol,
        samples=args.samples,
    )
    _write_out(traj.csv_text(), args.out)
    if traj.status != "ok":
        sys.stderr.write(f"warning: {traj.diagnostic}\n")
        return 1 if args.strict else 0
    return 0


def _cmd_game_build(args) -> int:
    data = _read_json_object(args.file)
    try:
        model = fields.GameModel.from_json(data)
    except (KeyError, TypeError, PolyParseError, ValueError) as e:
        raise InputError(f"{args.file}: {e}")
    fld = fields.build_from_game(model)
    _emit_json(fld.to_json(), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycleforge",
        description="Exact analysis of planar polynomial fields with an "
                    "invariant square",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        if family:
            p.add_argument("--family", help="built-in family label "
                           f"({', '.join(sorted(FAMILIES))})")
            p.add_argument("--file", help="JSON family file with f, g, variables")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on negative analysis verdicts")

    p = sub.add_parser("lyap", help="Lyapunov quantities of a family")
    common(p)
    p.add_argument("--N", type=int, default=2)

    p = sub.add_parser("center-certify", help="certify a center stratum")
    common(p)
    p.add_argument("--condition", help="label (e.g. C5, D7) or JSON map")
    p.add_argument("--curve", action="append",
                   help="extra candidate invariant curve (repeatable)")

    p = sub.add_parser("eliminate", help="resultant cascade on the quantities")
    common(p)
    p.add_argument("--N", type=int, default=4)
    p.add_argument("--order", required=True,
                   help="comma-separated elimination order")
    p.add_argument("--bound", type=int, default=2)

    p = sub.add_parser("bifurcate", help="first-order cycle bifurcation")
    common(p, family=False)
    p.add_argument("--prop", help="P7 | P8 | P9b | P9c | T1c")
    p.add_argument("--setup", help="JSON file with a custom perturbation "
                   "setup: base {f, g, variables}, terms, alpha, point")
    p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("singular", help="certified singular points")
    common(p)
    p.add_argument("--bind", help="comma-separated name=value parameters")
    p.add_argument("--region", choices=("delta", "all"), default="delta")

    p = sub.add_parser("berlinskii", help="four-point configuration check")
    common(p)
    p.add_argument("--bind", help="comma-separated name=value parameters")
    p.add_argument("--region", choices=("delta", "all"), default="delta")
    p.add_argument("--raw-pair", action="store_true",
                   help="classify (f, g) itself instead of the full field")

    p = sub.add_parser("simulate", help="integrate a trajectory to CSV")
    common(p)
    p.add_argument("--bind", help="comma-separated name=value parameters")
    p.add_argument("--start", required=True, help="x,y start point")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("game-build", help="field from 2x2 game payoffs")
    p.add_argument("--file", required=True, help="JSON {A: [[..]], B: [[..]]}")
    common(p, family=False)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse uses 2 for usage errors already
        return int(e.code or 0)
    try:
        if getattr(args, "N", None) is not None and args.N < 1:
            raise InputError(f"--N must be at least 1, got {args.N}")
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (InputError, PolyParseError, ValueError, OverflowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        message = " ".join(str(e).split())
        sys.stderr.write(f"internal error: {type(e).__name__}: {message}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
