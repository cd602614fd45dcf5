"""Command line entry points.

Exit status: 0 on success, 1 on computational failure, 2 on input error.
All output is in the line-structured report format (header line followed by
one JSON record per line).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .chern import (FrobeniusData, IwasawaElement2, fudge_c2,
                    local_length_vertical, theorem_ledger)
from .config import RunConfig
from .coprimality import coprime_certificate
from .curves import CurveData, check_conductor
from .exceptions import InvalidArgument, ResourceLimit, WorkbenchError
from .iwasawa import IwasawaElement1, newton_invariants, pi_cyc
from .reports import render_report
from .table import BUNDLED_ROWS, Workbench, bundled_curve

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_INPUT = 2


def _config_from_args(args):
    return RunConfig(
        p=args.p, n_max=args.n_max, cache_dir=args.cache_dir,
        strict_hypotheses=args.strict_hypotheses,
        auto_extend=not args.no_auto_extend)


def _add_config_args(sp):
    """The RunConfig flags, for the subcommands that build a Workbench."""
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--n-max", type=int, default=6)
    sp.add_argument("--cache-dir", default=None,
                    help="eigensymbol cache directory (or WORKBENCH_CACHE)")
    sp.add_argument("--strict-hypotheses", action="store_true")
    sp.add_argument("--no-auto-extend", action="store_true")
    _add_out_arg(sp)


def _add_out_arg(sp):
    sp.add_argument("--out", default=None, help="write the report to a file")


def _emit(args, kind, records):
    text = render_report(kind, records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgument("cannot read %s: %s" % (path, exc))


def _load_jsonl(path):
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgument("cannot read %s: %s" % (path, exc))
    return out


def _resolve_curve(args):
    if args.curve_file:
        for rec in _load_jsonl(args.curve_file):
            if rec["label"] == args.curve:
                curve = CurveData(rec["label"], rec["a_invariants"],
                                  int(rec["conductor"]))
                check_conductor(curve)
                return curve
        raise InvalidArgument("label %r not found in %s"
                              % (args.curve, args.curve_file))
    return bundled_curve(args.curve)


def _series_from_file(path):
    data = _load_json(path)
    co = [Fraction(c) for c in data["coefficients"]]
    return IwasawaElement1.from_rationals(int(data["p"]), co,
                                          precision=data.get("precision"))


def _twovar_from_file(path):
    data = _load_json(path)
    terms = {}
    for key, val in data["terms"].items():
        i, j = (int(x) for x in key.split(","))
        terms[(i, j)] = Fraction(val)
    return IwasawaElement2.from_dict(int(data["p"]), terms,
                                     trunc_degree=int(data.get("trunc_degree", 200)))


# -- subcommands -------------------------------------------------------------


def cmd_symbols(args):
    curve = _resolve_curve(args)
    if args.level is not None and args.level != curve.conductor:
        raise InvalidArgument("level %d does not match conductor %d"
                              % (args.level, curve.conductor))
    wb = Workbench(_config_from_args(args))
    sign = +1 if args.sign == "+" else -1
    sym, source = wb.symbol(curve, sign)
    rec = sym.to_dict() | {"cache": source}
    _emit(args, "symbols", [rec])
    return EXIT_OK


def cmd_theta(args):
    curve = _resolve_curve(args)
    wb = Workbench(_config_from_args(args))
    series = wb.signed_series(curve, args.discriminant, args.sign)
    _emit(args, "theta", [series.as_dict()])
    return EXIT_OK


def cmd_invariants(args):
    f = _series_from_file(args.series_file)
    prof = newton_invariants(f)
    _emit(args, "invariants", [prof.as_dict()])
    return EXIT_OK


def cmd_table(args):
    wb = Workbench(_config_from_args(args))
    rows = _load_jsonl(args.rows_file) if args.rows_file else BUNDLED_ROWS
    results = wb.run_table(rows)
    ok = True
    for r in results:
        if "error" in r:
            ok = False
        elif "reference_diff" in r and not r["reference_diff"]["match"]:
            ok = False
    summary = {"rows": len(results),
               "failures": sum(1 for r in results if "error" in r),
               "reference_mismatches": sum(
                   1 for r in results
                   if "reference_diff" in r and not r["reference_diff"]["match"]),
               "all_ok": ok}
    _emit(args, "table", results + [{"summary": summary}])
    return EXIT_OK if ok else EXIT_COMPUTATIONAL


def cmd_coprime(args):
    if args.f_file and args.g_file:
        f = _series_from_file(args.f_file)
        g = _series_from_file(args.g_file)
        cert = coprime_certificate(f, g)
    else:
        curve = _resolve_curve(args)
        wb = Workbench(_config_from_args(args))
        Tp = wb.signed_series(curve, args.discriminant, "+")
        Tm = wb.signed_series(curve, args.discriminant, "-")
        cert = coprime_certificate(Tp, Tm)
    _emit(args, "coprime", [cert.as_dict()])
    return EXIT_OK


def cmd_fudge(args):
    curve = _resolve_curve(args)
    sigma = _load_json(args.sigma_file)["primes"] if args.sigma_file else []
    frob = FrobeniusData.from_records(
        _load_json(args.frobenius_file).get("entries")
        if args.frobenius_file else None)
    divisor, ledger = fudge_c2(curve, args.discriminant, args.p, sigma, frob)
    records = [{"divisor": divisor.as_dict()}, {"ledger": ledger},
               {"theorem_ledger": theorem_ledger(fudge_divisor=divisor,
                                                 fudge_report=ledger)}]
    _emit(args, "fudge", records)
    return EXIT_OK


def cmd_c2(args):
    data = _load_json(args.ideal_file)
    p = int(data["p"])

    def parse_terms(d):
        return {tuple(int(x) for x in k.split(",")): Fraction(v)
                for k, v in d.items()}
    f = IwasawaElement2.from_dict(p, parse_terms(data["f"]))
    g = IwasawaElement2.from_dict(p, parse_terms(data["g"]))
    pbar = {tuple(int(x) for x in k.split(",")): int(v)
            for k, v in data["pbar"].items()}
    length = local_length_vertical((f, g), pbar)
    _emit(args, "c2", [{"length": length, "pbar": data["pbar"]}])
    return EXIT_OK


def cmd_specialize(args):
    f = _twovar_from_file(args.twovar_file)
    out = pi_cyc(f)
    rec = {"p": f.p,
           "coefficients": [str(c.as_fraction()) for c in out.coeffs]}
    _emit(args, "specialize", [rec])
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="thetapm",
        description="signed p-adic L-function workbench for supersingular "
                    "elliptic curves")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("symbols", help="compute or load a cached eigensymbol")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--sign", choices=["+", "-"], required=True)
    _add_config_args(sp)
    sp.set_defaults(func=cmd_symbols)

    sp = sub.add_parser("theta", help="reconstruct a signed series")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, default=1)
    sp.add_argument("--sign", choices=["+", "-"], required=True)
    _add_config_args(sp)
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("invariants", help="profile of a series file")
    sp.add_argument("--series-file", required=True)
    _add_out_arg(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("table", help="run the example rows")
    sp.add_argument("--rows-file", default=None)
    _add_config_args(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("coprime", help="coprimality certificate")
    sp.add_argument("--curve", default=None)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, default=1)
    sp.add_argument("--f-file", default=None)
    sp.add_argument("--g-file", default=None)
    _add_config_args(sp)
    sp.set_defaults(func=cmd_coprime)

    sp = sub.add_parser("fudge", help="local fudge factors away from p")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, required=True)
    sp.add_argument("--sigma-file", default=None)
    sp.add_argument("--frobenius-file", default=None)
    sp.add_argument("--p", type=int, default=3)
    _add_out_arg(sp)
    sp.set_defaults(func=cmd_fudge)

    sp = sub.add_parser("c2", help="local length at a vertical prime")
    sp.add_argument("--ideal-file", required=True)
    _add_out_arg(sp)
    sp.set_defaults(func=cmd_c2)

    sp = sub.add_parser("specialize", help="cyclotomic specialization")
    sp.add_argument("--twovar-file", required=True)
    _add_out_arg(sp)
    sp.set_defaults(func=cmd_specialize)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidArgument, ResourceLimit) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except WorkbenchError as exc:
        print("computational failure: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTATIONAL


if __name__ == "__main__":
    sys.exit(main())
