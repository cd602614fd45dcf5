"""Command line entry points.

Exit status: 0 on success, 1 on computational failure, 2 on input error.
All output is in the line-structured report format (header line followed by
one JSON record per line).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .chern import (FrobeniusData, fudge_c2, local_length_vertical,
                    theorem_ledger)
from .config import RunConfig
from .coprimality import coprime_certificate
from .curves import curve_from_record
from .exceptions import InvalidArgument, ResourceLimit, WorkbenchError
from .iwasawa import (IwasawaElement1, IwasawaElement2, newton_invariants,
                      pi_cyc)
from .reports import render_report
from .table import BUNDLED_ROWS, Workbench, bundled_curve

EXIT_OK = 0
EXIT_COMPUTATIONAL = 1
EXIT_INPUT = 2


CONFIG_FLAGS = {"--p": {"type": int}, "--n-max": {"type": int},
                "--cache-dir": {"help": "eigensymbol cache directory (or WORKBENCH_CACHE)"},
                "--strict-hypotheses": {"action": "store_true"},
                "--no-auto-extend": {"action": "store_false", "dest": "auto_extend"}}


def _config_from_args(args):
    return RunConfig(**{k: v for k, v in vars(args).items()
                        if k in RunConfig.__dataclass_fields__})


def _add_config_args(sp, *flags):
    for flag in flags:      # a flag not given keeps the RunConfig default
        sp.add_argument(flag, default=argparse.SUPPRESS, **CONFIG_FLAGS[flag])
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
            if _field(rec, "label", args.curve_file, str) == args.curve:
                return curve_from_record(args.curve, rec)
        raise InvalidArgument("label %r not found in %s"
                              % (args.curve, args.curve_file))
    return bundled_curve(args.curve)


def _field(data, key, path, kind=object):
    """``data[key]`` of an input file; it must be there and be a ``kind``."""
    if not (isinstance(data, dict) and key in data and isinstance(data[key], kind)):
        raise InvalidArgument("%s: %r is missing or malformed" % (path, key))
    return data[key]


def _number(value, path, integer=False):
    """An exact rational, or with ``integer`` an int, given as a string or
    a JSON integer."""
    try:
        q = Fraction(value) if type(value) in (str, int) else None
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or (integer and q.denominator != 1):
        raise InvalidArgument("%s: %r is not %s" % (
            path, value, "an integer" if integer else "a rational number"))
    return int(q) if integer else q


def _terms(data, key, path, integer=False):
    """The ``{"i,j": value}`` terms under ``key``, the exponents of S and T
    two integers >= 0."""
    out = {}
    for k, v in _field(data, key, path, dict).items():
        m = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", k)
        if not m:
            raise InvalidArgument("%s: term %r is not two integers >= 0" % (path, k))
        out[int(m[1]), int(m[2])] = _number(v, path, integer)
    return out


def _series_from_file(path):
    """A file with ``precision`` is a series with an unknown tail; one
    without it is an exact polynomial."""
    data = _load_json(path)
    p = _number(_field(data, "p", path), path, True)
    co = [_number(c, path) for c in _field(data, "coefficients", path, list)]
    prec = data.get("precision")
    f = IwasawaElement1.from_rationals(
        p, co, precision=None if prec is None else _number(prec, path, True))
    f.exact_tail = prec is None
    return f


def _twovar_from_file(path):
    data = _load_json(path)
    return IwasawaElement2.from_dict(_number(_field(data, "p", path), path, True),
                                     _terms(data, "terms", path))


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
    failures = sum("error" in r for r in results)
    mismatches = sum("reference_diff" in r and not r["reference_diff"]["match"]
                     for r in results)
    ok = failures == 0 and mismatches == 0
    summary = {"rows": len(results), "failures": failures,
               "reference_mismatches": mismatches, "all_ok": ok}
    _emit(args, "table", results + [{"summary": summary}])
    return EXIT_OK if ok else EXIT_COMPUTATIONAL


def cmd_coprime(args):
    given = tuple(x is not None for x in (args.curve, args.f_file, args.g_file))
    if given not in ((True, False, False), (False, True, True)):
        raise InvalidArgument("give --curve, or both --f-file and --g-file")
    if args.curve is None:
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
    path = args.sigma_file
    sigma = ([_number(ell, path, True)
              for ell in _field(_load_json(path), "primes", path, list)]
             if path else [])
    frob = FrobeniusData()
    if args.frobenius_file:
        doc = _load_json(args.frobenius_file)
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
            raise InvalidArgument("%s: a Frobenius file is an object with an "
                                  "'entries' list" % args.frobenius_file)
        frob = FrobeniusData.from_records(doc["entries"])
    divisor, ledger = fudge_c2(curve, args.discriminant, _config_from_args(args).p,
                               sigma, frob)
    records = [{"divisor": divisor.as_dict()}, {"ledger": ledger},
               {"theorem_ledger": theorem_ledger(fudge_divisor=divisor,
                                                 fudge_report=ledger)}]
    _emit(args, "fudge", records)
    return EXIT_OK


def cmd_c2(args):
    path = args.ideal_file
    data = _load_json(path)
    p = _number(_field(data, "p", path), path, True)
    f, g = (IwasawaElement2.from_dict(p, _terms(data, key, path)) for key in "fg")
    length = local_length_vertical((f, g), _terms(data, "pbar", path, True))
    _emit(args, "c2", [{"length": length, "pbar": data["pbar"]}])
    return EXIT_OK


def cmd_specialize(args):
    f = _twovar_from_file(args.twovar_file)
    out = pi_cyc(f)
    rec = {"p": f.p,
           "coefficients": [str(c) for c in out.rationals()]}
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
    _add_config_args(sp, "--p", "--cache-dir")
    sp.set_defaults(func=cmd_symbols)

    sp = sub.add_parser("theta", help="reconstruct a signed series")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, default=1)
    sp.add_argument("--sign", choices=["+", "-"], required=True)
    _add_config_args(sp, "--p", "--n-max", "--cache-dir", "--no-auto-extend")
    sp.set_defaults(func=cmd_theta)

    sp = sub.add_parser("invariants", help="profile of a series file")
    sp.add_argument("--series-file", required=True)
    _add_out_arg(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("table", help="run the example rows")
    sp.add_argument("--rows-file", default=None)
    _add_config_args(sp, *CONFIG_FLAGS)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("coprime", help="coprimality certificate")
    sp.add_argument("--curve", default=None)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, default=1)
    sp.add_argument("--f-file", default=None)
    sp.add_argument("--g-file", default=None)
    _add_config_args(sp, "--p", "--n-max", "--cache-dir", "--no-auto-extend")
    sp.set_defaults(func=cmd_coprime)

    sp = sub.add_parser("fudge", help="local fudge factors away from p")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--curve-file", default=None)
    sp.add_argument("--discriminant", type=int, required=True)
    sp.add_argument("--sigma-file", default=None)
    sp.add_argument("--frobenius-file", default=None)
    _add_config_args(sp, "--p")
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
