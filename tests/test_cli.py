import json
import os
import subprocess
import sys
from math import gcd

import pytest

from thetapm import (BUNDLED_CURVES, BUNDLED_ROWS, RunConfig, Workbench,
                     build_space, bundled_curve, mazurtate)
from thetapm.cache import load_symbol, store_symbol
from thetapm.cli import main
from thetapm.reports import comparable, parse_report, render_report


DATA = os.path.join(os.path.dirname(__file__), "..", "data")
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
PINNED = os.path.join(os.path.dirname(__file__), "pinned_reports")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def assert_pinned(out, name):
    """The whole report, timestamp aside, is the one recorded in
    ``pinned_reports/<name>.jsonl``."""
    with open(os.path.join(PINNED, name + ".jsonl")) as fh:
        assert comparable(out) == fh.read().rstrip("\n")


# -- report format ------------------------------------------------------------

def test_report_round_trip():
    text = render_report("demo", [{"a": 1}, {"b": [1, 2]}])
    header, records = parse_report(text)
    assert header["kind"] == "demo"
    assert records == [{"a": 1}, {"b": [1, 2]}]


def test_report_comparable_strips_timestamp():
    t1 = render_report("demo", [{"a": 1}], timestamp="2001-01-01T00:00:00Z")
    t2 = render_report("demo", [{"a": 1}], timestamp="2002-02-02T00:00:00Z")
    assert t1 != t2
    assert comparable(t1) == comparable(t2)


# -- cache ---------------------------------------------------------------------

def test_symbol_cache_roundtrip(tmp_path):
    cfg = RunConfig(cache_dir=str(tmp_path))
    wb = Workbench(cfg)
    c = bundled_curve("32a")
    sym, src1 = wb.symbol(c, +1)
    assert src1 == "computed"
    wb2 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    sym2, src2 = wb2.symbol(c, +1)
    assert src2 == "disk"
    assert sym2.values_on_generators == sym.values_on_generators
    sym3, src3 = wb2.symbol(c, +1)
    assert src3 == "memory"


def test_corrupted_cache_entry_recomputed(tmp_path):
    cfg = RunConfig(cache_dir=str(tmp_path))
    wb = Workbench(cfg)
    c = bundled_curve("32a")
    wb.symbol(c, +1)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
    assert files
    path = os.path.join(tmp_path, files[0])
    with open(path, "w") as fh:
        fh.write("{ corrupted")
    assert load_symbol(str(tmp_path), 32, "32a", 1) is None
    wb2 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    sym, src = wb2.symbol(c, +1)
    assert src == "computed"
    # entry was replaced with a valid one
    assert load_symbol(str(tmp_path), 32, "32a", 1) is not None


def _truncate(values, opposite):
    return values[:10]


def _double_every_third(values, opposite):
    return [2 * v if i % 3 == 0 else v for i, v in enumerate(values)]


def _swap_sign(values, opposite):
    return opposite


def _times_three(values, opposite):
    return [3 * v for v in values]


def _negate(values, opposite):
    return [-v for v in values]


def _other_star_vector(values, opposite):
    """Another vector of the same star eigenspace, normalized as extraction
    normalizes a symbol: it passes every check but T_3 w = a_3 w."""
    from thetapm.modsym import _nullspace
    space = build_space(32)
    look = space.p1.lookup
    sign = 1 if all(values[look(-c, d)] == v
                    for (c, d), v in zip(space.generators, values)) else -1
    rows = [[x - (sign * space.den if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(space.star_matrix())]
    for w in _nullspace(rows, space.dim)[1]:
        ints = [sum(c * w[k] for k, c in row) for row in space.reduction]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        # a_3 = 0, so T_3 w = a_3 w fails when T_3 w is not zero
        if any(sum(t * x for t, x in zip(row, w)) for row in space.hecke_matrix(3)):
            return ints
    raise AssertionError("the star eigenspace holds T_3 eigenvectors only")


@pytest.mark.parametrize("damage", [_truncate, _double_every_third, _swap_sign,
                                    _times_three, _negate, _other_star_vector])
def test_damaged_cache_values_recomputed(tmp_path, damage):
    """Entries that parse but whose values are wrong are misses: the table
    row is computed from fresh symbols and matches the frozen invariants.
    ``damage`` gets an entry's values and those of the opposite sign."""
    c = bundled_curve("32a")
    wb = Workbench(RunConfig(cache_dir=str(tmp_path)))
    fresh = {s: wb.symbol(c, s)[0].values_on_generators for s in (1, -1)}
    for name in os.listdir(tmp_path):
        path = os.path.join(tmp_path, name)
        with open(path) as fh:
            entry = json.load(fh)
        entry["values"] = damage(entry["values"], fresh[-entry["sign"]])
        with open(path, "w") as fh:
            json.dump(entry, fh)
    wb2 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    for s in (1, -1):
        sym, src = wb2.symbol(c, s)
        assert src == "computed"
        assert sym.values_on_generators == fresh[s]
    # the damaged entries were overwritten with valid ones
    wb3 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    for s in (1, -1):
        sym, src = wb3.symbol(c, s)
        assert src == "disk"
        assert sym.values_on_generators == fresh[s]
    (row,) = wb2.run_table([{"curve": "32a", "discriminant": -107, "p": 3}])
    assert "error" not in row, row
    assert row["reference_diff"]["match"]


@pytest.mark.parametrize("damage", [
    {"ap_certificate": [[2, 0], [3, 0]]}, {"ap_certificate": [[4, 0]]},
    {"ap_certificate": [[1000003, 0]]}, {"ap_certificate": [[3, 1]]},
    {"content": "1/0"}, {"content": "0"}, {"content": "7"}, [1, 2]],
    ids=["bad-prime", "not-prime", "past-ell-bound", "wrong-a3",
         "content-zero-denominator", "content-zero", "content-seven", "json-list"])
def test_damaged_cache_record_recomputed(tmp_path, capsys, damage):
    """A certificate with a bad prime, a non-prime, a prime past ELL_BOUND
    or a wrong a_ell, a content other than the derived one, or a file that
    is not an object makes an entry a miss: recomputed and rewritten, and
    the command line reports the fresh record.  ``damage`` is merged into
    the entry, or replaces it when it is not a dict."""
    c = bundled_curve("32a")
    fresh = Workbench(RunConfig(cache_dir=str(tmp_path))).symbol(c, +1)[0].to_dict()
    (path,) = tmp_path.iterdir()
    entry = json.loads(path.read_text())
    damaged = json.dumps(entry | damage if isinstance(damage, dict) else damage)
    path.write_text(damaged)
    for source in ("computed", "disk"):
        sym, src = Workbench(RunConfig(cache_dir=str(tmp_path))).symbol(c, +1)
        assert (src, sym.to_dict()) == (source, fresh)
    path.write_text(damaged)
    code, out = run_cli(["symbols", "--curve", "32a", "--sign", "+",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert parse_report(out)[1] == [fresh | {"cache": "computed"}]


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("WORKBENCH_CACHE", str(tmp_path))
    wb = Workbench(RunConfig())
    c = bundled_curve("32a")
    wb.symbol(c, -1)
    assert any(f.endswith(".json") for f in os.listdir(tmp_path))


def test_cache_results_identical_with_and_without(tmp_path):
    c = bundled_curve("32a")
    wb1 = Workbench(RunConfig(n_max=2))
    wb2 = Workbench(RunConfig(n_max=2, cache_dir=str(tmp_path)))
    wb3 = Workbench(RunConfig(n_max=2, cache_dir=str(tmp_path)))
    s1 = wb1.signed_series(c, 1, "-")
    s2 = wb2.signed_series(c, 1, "-")
    s3 = wb3.signed_series(c, 1, "-")     # symbol from disk this time
    assert s1.rep_exact == s2.rep_exact == s3.rep_exact


# -- subcommands -----------------------------------------------------------------

def test_cmd_symbols_and_cache_hit(tmp_path, capsys):
    code, out = run_cli(["symbols", "--curve", "32a", "--sign", "+",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["cache"] == "computed"
    code, out = run_cli(["symbols", "--curve", "32a", "--sign", "+",
                         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["cache"] == "disk"


def test_cmd_symbols_level_mismatch_is_input_error(capsys):
    code, _ = run_cli(["symbols", "--curve", "32a", "--level", "40",
                       "--sign", "+"], capsys)
    assert code == 2


def test_cmd_symbols_unknown_curve(capsys):
    code, _ = run_cli(["symbols", "--curve", "nope", "--sign", "+"], capsys)
    assert code == 2


def test_cmd_invariants_fixture(capsys):
    code, out = run_cli(["invariants", "--series-file",
                         os.path.join(DATA, "series_example.json")], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["mu"] == 0
    assert recs[0]["lambda"] == 2
    assert recs[0]["slopes"] == [[2, "1/2"]]
    assert_pinned(out, "invariants")


def test_cmd_specialize_fixture(capsys):
    code, out = run_cli(["specialize", "--twovar-file",
                         os.path.join(DATA, "twovar_example.json")], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["coefficients"] == ["1", "2", "1"]
    assert_pinned(out, "specialize")


def test_cmd_specialize_ignores_leftover_trunc_degree(tmp_path, capsys):
    # the field is ignored: a cut at degree 1 would drop S*T
    with open(os.path.join(DATA, "twovar_example.json")) as fh:
        data = json.load(fh)
    path = tmp_path / "twovar.json"
    path.write_text(json.dumps(data | {"trunc_degree": 1}))
    code, out = run_cli(["specialize", "--twovar-file", str(path)], capsys)
    assert code == 0
    assert_pinned(out, "specialize")


def test_cmd_c2_fixture(capsys):
    code, out = run_cli(["c2", "--ideal-file",
                         os.path.join(DATA, "ideal_example.json")], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["length"] == 2
    assert_pinned(out, "c2")


def test_cmd_fudge(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"primes": [2]}')
    code, out = run_cli(["fudge", "--curve", "32a", "--discriminant", "-43",
                         "--p", "5", "--sigma-file", str(sigma)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["divisor"]["terms"] == []
    assert recs[2]["theorem_ledger"]["rhs"]["c2_Z"]["status"] == "out-of-scope"
    assert_pinned(out, "fudge_p5")


def test_cmd_fudge_p3_flagged(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"primes": [2]}')
    code, out = run_cli(["fudge", "--curve", "32a", "--discriminant", "-43",
                         "--p", "3", "--sigma-file", str(sigma)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert any("p >= 5" in f for f in recs[1]["ledger"]["flags"])
    assert_pinned(out, "fudge_p3")


@pytest.mark.parametrize("doc", [
    # each entry check is in test_chern; these reached the command line as
    # exit 0 (a truncated float) or a traceback
    {"entries": [{"ell": 11, "exponents": [1.5, 0, 7]}]},
    {"entries": [{"exponents": [1, 0]}]},
    [{"ell": 11, "exponents": [1, 0]}],
    {"entries": {"ell": 11, "exponents": [1, 0]}},
    {},
])
def test_cmd_fudge_bad_frobenius_file_is_input_error(tmp_path, capsys, doc):
    frob = tmp_path / "frobenius.json"
    frob.write_text(json.dumps(doc))
    code = main(["fudge", "--curve", "32a", "--discriminant", "-43", "--p", "5",
                 "--frobenius-file", str(frob)])
    assert code == 2 and "input error" in capsys.readouterr().err


IDEAL = {"p": 3, "f": {"0,0": "9"}, "g": {"0,1": "1", "1,0": "-1"},
         "pbar": {"0,1": 1, "1,0": -1}}


@pytest.mark.parametrize("command,flag,doc", [
    # each reached the command line as a traceback with exit 1, or, for a
    # negative exponent or a fractional pbar value, as a wrong exit-0 report
    ("invariants", "--series-file", {"p": 3}),
    ("invariants", "--series-file", {"p": 3, "coefficients": ["1", "one"]}),
    ("invariants", "--series-file", {"coefficients": ["1"]}),
    ("specialize", "--twovar-file", {"p": 3}),
    ("specialize", "--twovar-file", {"p": 3, "terms": {"0,0": "x"}}),
    ("specialize", "--twovar-file", {"p": 3, "terms": {"0,1,2": "1"}}),
    ("specialize", "--twovar-file", {"p": 3, "terms": {"-1,2": "1", "0,0": "1"}}),
    ("c2", "--ideal-file", {k: v for k, v in IDEAL.items() if k != "f"}),
    ("c2", "--ideal-file", IDEAL | {"pbar": {"0,1": "1/2", "1,0": -1}}),
    ("c2", "--ideal-file", IDEAL | {"pbar": {"0,1": 1.5, "1,0": -1}}),
    ("c2", "--ideal-file", IDEAL | {"g": {"-1,1": "1", "1,0": "-1"}}),
    ("fudge", "--sigma-file", {"prime": [2]}),
])
def test_malformed_input_file_is_input_error(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    extra = ["--curve", "32a", "--discriminant", "-43"] if command == "fudge" else []
    code = main([command, flag, str(path)] + extra)
    assert code == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("p", [0, 1, 2, 9, -3])
def test_cmd_c2_bad_prime_is_input_error(tmp_path, capsys, p):
    # p = 0 reached the command line as a traceback with exit 1, p = 1 as an
    # input error about pbar, and 2, 9 and -3 as exit-0 reports of lengths
    # 0, 1 and 2
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(IDEAL | {"p": p}))
    code = main(["c2", "--ideal-file", str(path)])
    assert code == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["4", "1", "-3"])
def test_cmd_fudge_bad_prime_is_input_error(capsys, p):
    # each was an exit-0 report; --p now has RunConfig's check and default
    code = main(["fudge", "--curve", "32a", "--discriminant", "-43", "--p=" + p])
    assert code == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    # the first three reached the command line as a traceback with exit 1,
    # the last two as an exit-0 ledger with a place above 4 or -5
    {"primes": [0]}, {"primes": ["x"]}, {"primes": 5}, {"primes": [4]},
    {"primes": [-5]},
])
def test_cmd_fudge_bad_sigma_prime_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc))
    code = main(["fudge", "--curve", "32a", "--discriminant", "-43",
                 "--sigma-file", str(path)])
    assert code == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"primes": [1]}, {"primes": [True]}])
def test_cmd_fudge_sigma_prime_one_is_input_error(tmp_path, doc):
    """ell = 1 (or true, read as 1) once looped forever in the valuation of
    the discriminant; a fresh interpreter with a timeout turns a hang into
    a failure of this test instead of the suite's."""
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-m", "thetapm.cli", "fudge", "--curve",
                          "32a", "--discriminant", "-43", "--sigma-file", str(path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "input error" in out.stderr


def test_cmd_fudge_reads_the_example_frobenius_file(capsys):
    code, out = run_cli(["fudge", "--curve", "32a", "--discriminant", "-43",
                         "--p", "5", "--frobenius-file",
                         os.path.join(DATA, "frobenius_example.json")], capsys)
    assert code == 0 and parse_report(out)[0]["kind"] == "fudge"


def run_coprime_files(tmp_path, capsys, f_coeffs, g_coeffs, precision=None,
                      primes=(3, 3)):
    """``coprime`` on two series files: exact polynomials, or series with
    an unknown tail when ``precision`` is given."""
    paths = []
    for name, co, p in (("f", f_coeffs, primes[0]), ("g", g_coeffs, primes[1])):
        path = tmp_path / ("%s.json" % name)
        data = {"p": p, "coefficients": co}
        if precision is not None:
            data["precision"] = precision
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return run_cli(["coprime", "--f-file", paths[0], "--g-file", paths[1]], capsys)


def test_cmd_coprime_series_files(tmp_path, capsys):
    code, out = run_coprime_files(tmp_path, capsys, ["-3", "0", "1"],
                                  ["-3", "0", "0", "1"])
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["verdict"] == "coprime"
    assert recs[0]["method"] == "slope-disjoint"
    assert_pinned(out, "coprime_slope_disjoint")


def test_cmd_coprime_series_files_sharing_a_slope(tmp_path, capsys):
    # X^2 - 3 and X^2 + 3 both have slope 1/2: the resultant, 36, decides
    code, out = run_coprime_files(tmp_path, capsys, ["-3", "0", "1"],
                                  ["3", "0", "1"])
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["method"] == "resultant"
    assert recs[0]["resultant_valuation"] == "2"
    assert_pinned(out, "coprime_resultant")


def test_cmd_coprime_series_files_honour_precision(tmp_path, capsys):
    # at precision 20 the tails are unknown: X^2 + 3X + 3 + O(X^3) has
    # lambda = 2 at its last known degree, so it cannot be prepared
    code, out = run_coprime_files(tmp_path, capsys, ["3", "3", "1"],
                                  ["-3", "0", "1"], precision=20)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["verdict"] == "inconclusive"
    assert "lambda = 2 exceeds truncation 2" in recs[0]["detail"]


def test_cmd_coprime_series_files_over_different_primes_is_input_error(tmp_path, capsys):
    # X^2 - 3 over Z_3 and X^2 + 5 over Z_5 both have slope 1/2, which used
    # to send them down the resultant route to a "coprime" verdict
    code, out = run_coprime_files(tmp_path, capsys, ["-3", "0", "1"],
                                  ["5", "0", "1"], primes=(3, 5))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("flags", [["--f-file"], ["--g-file"], [],
                                   ["--f-file", "--curve"],
                                   ["--f-file", "--g-file", "--curve"]])
def test_cmd_coprime_names_the_missing_input(tmp_path, capsys, flags):
    # the first three exited 2 with "unknown bundled curve None"; the last
    # two ignored a flag they were given and exited 0
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"p": 3, "coefficients": ["-3", "0", "1"]}))
    values = {"--f-file": str(path), "--g-file": str(path), "--curve": "32a"}
    code = main(["coprime"] + [arg for flag in flags for arg in (flag, values[flag])])
    assert code == 2
    assert "give --curve, or both --f-file and --g-file" in capsys.readouterr().err


def test_cmd_theta_base_curve(capsys):
    code, out = run_cli(["theta", "--curve", "32a", "--sign", "+",
                         "--n-max", "4"], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["profile"]["lambda"] == 0
    assert recs[0]["stabilized"] is True


def test_cmd_table_report_is_pinned(table_results, monkeypatch, capsys):
    """The six-row ``thetapm table`` report, timestamp aside, is the one
    recorded in ``pinned_reports/table.jsonl``.  The command renders the
    session's table results, so no path is evaluated here."""
    monkeypatch.setattr(Workbench, "run_table", lambda self, rows=None: table_results)
    code, out = run_cli(["table"], capsys)
    assert code == 0
    assert_pinned(out, "table")


def test_cmd_table_row_with_wrong_prime_isolates(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"curve": "32a", "discriminant": -43, "p": 5}\n')
    code, out = run_cli(["table", "--rows-file", str(rows)], capsys)
    assert code == 1
    _, recs = parse_report(out)
    assert "error" in recs[0]
    assert recs[-1]["summary"]["failures"] == 1


def test_cmd_table_row_with_wrong_conductor_isolates(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"curve": "x32", "a_invariants": [0, 0, 0, -1, 0], '
                    '"conductor": 160, "discriminant": -43, "p": 3}\n')
    code, out = run_cli(["table", "--rows-file", str(rows)], capsys)
    assert code == 1
    _, recs = parse_report(out)
    assert "does not fit" in recs[0]["error"]
    assert recs[-1]["summary"]["failures"] == 1


def test_curve_file_with_wrong_conductor_is_input_error(tmp_path, capsys):
    curves = tmp_path / "curves.jsonl"
    curves.write_text('{"label": "11x", "a_invariants": [0, -1, 1, -10, -20], '
                      '"conductor": 121}\n')
    code, _ = run_cli(["symbols", "--curve", "11x", "--curve-file", str(curves),
                       "--sign", "+"], capsys)
    assert code == 2
    code, _ = run_cli(["fudge", "--curve", "11x", "--curve-file", str(curves),
                       "--discriminant", "-43"], capsys)
    assert code == 2


@pytest.mark.parametrize("row", [
    # a traceback with exit 1, a traceback with exit 1, a row run at p = 3
    {"discriminant": -43, "p": 3},
    {"curve": "32a", "discriminant": "abc", "p": 3},
    {"curve": "32a", "discriminant": -107, "p": 3.5},
])
def test_cmd_table_malformed_row_is_input_error(tmp_path, capsys, row):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(row) + "\n")
    code = main(["table", "--rows-file", str(rows)])
    assert code == 2 and "input error" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    # each reached the command line as a traceback with exit 1
    {"a_invariants": [0, 0, 0, -1, 0], "conductor": 32},
    {"label": "32a", "a_invariants": [0, 0, 0, -1, 0], "conductor": "x"},
])
def test_malformed_curve_file_record_is_input_error(tmp_path, capsys, record):
    curves = tmp_path / "curves.jsonl"
    curves.write_text(json.dumps(record) + "\n")
    code = main(["symbols", "--curve", "32a", "--curve-file", str(curves),
                 "--sign", "+"])
    assert code == 2 and "input error" in capsys.readouterr().err


def test_reinterpolation_failure_is_row_error(workbench, monkeypatch):
    """A representative that misses its interpolation data yields a row
    error, not a row of invariants."""
    monkeypatch.setattr(mazurtate, "reinterpolation_check", lambda series: [1])
    (row,) = workbench.run_table([{"curve": "32a", "discriminant": -107, "p": 3}])
    assert "reinterpolation failed" in row["error"]
    assert "series" not in row


def test_bundled_data_files_match_the_bundled_tables():
    """``data/curves.jsonl`` and ``data/table1_rows.jsonl`` are copies of
    ``BUNDLED_CURVES`` and ``BUNDLED_ROWS``, the rows in order."""
    def records(name):
        with open(os.path.join(DATA, name)) as fh:
            return [json.loads(line) for line in fh]
    curves = {rec["label"]: {"a_invariants": tuple(rec["a_invariants"]),
                             "conductor": rec["conductor"]}
              for rec in records("curves.jsonl")}
    assert curves == BUNDLED_CURVES
    assert records("table1_rows.jsonl") == BUNDLED_ROWS


def test_cmd_table_bad_file_is_input_error(capsys):
    code, _ = run_cli(["table", "--rows-file", "/nonexistent.jsonl"], capsys)
    assert code == 2


def test_subcommands_take_only_the_flags_they_read():
    from thetapm.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")

    def flags(name):
        return {o for a in sub.choices[name]._actions for o in a.option_strings
                if o not in ("-h", "--help")}
    curve = {"--curve", "--curve-file"}
    series = {"--p", "--n-max", "--cache-dir", "--no-auto-extend", "--out"}
    assert flags("symbols") == curve | {"--level", "--sign", "--p", "--cache-dir",
                                        "--out"}
    assert flags("theta") == curve | {"--discriminant", "--sign"} | series
    assert flags("table") == {"--rows-file", "--strict-hypotheses"} | series
    assert flags("coprime") == curve | {"--discriminant", "--f-file",
                                        "--g-file"} | series
    assert flags("fudge") == curve | {"--discriminant", "--sigma-file",
                                      "--frobenius-file", "--p", "--out"}
    assert flags("invariants") == {"--series-file", "--out"}
    assert flags("c2") == {"--ideal-file", "--out"}
    assert flags("specialize") == {"--twovar-file", "--out"}


def test_out_file_written(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _ = run_cli(["invariants", "--series-file",
                       os.path.join(DATA, "series_example.json"),
                       "--out", str(out_path)], capsys)
    assert code == 0
    header, recs = parse_report(out_path.read_text())
    assert recs[0]["lambda"] == 2


# -- determinism ---------------------------------------------------------------

def test_reports_deterministic_modulo_timestamp(capsys):
    _, out1 = run_cli(["invariants", "--series-file",
                       os.path.join(DATA, "series_example.json")], capsys)
    _, out2 = run_cli(["invariants", "--series-file",
                       os.path.join(DATA, "series_example.json")], capsys)
    assert comparable(out1) == comparable(out2)


def test_cache_hit_row_equals_cache_miss_row(tmp_path):
    c = bundled_curve("32a")
    wb1 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    assert wb1.symbol(c, +1)[1] == "computed"
    r1 = wb1.table_row(c, -43)
    wb2 = Workbench(RunConfig(cache_dir=str(tmp_path)))
    assert wb2.symbol(c, +1)[1] == "disk"
    assert wb2.symbol(c, -1)[1] == "disk"
    assert wb2.table_row(c, -43) == r1


def test_strict_hypothesis_flag_rejects_inert_rows():
    from thetapm import InvalidArgument, UnsupportedHypothesis
    wb = Workbench(RunConfig(strict_hypotheses=True))
    c = bundled_curve("32a")
    with pytest.raises(UnsupportedHypothesis, match="p = 3 does not split"):
        wb.table_row(c, -43)
    with pytest.raises(InvalidArgument, match="negative discriminant"):
        wb.table_row(c, 5)
    with pytest.raises(InvalidArgument, match="-12 is not a fundamental"):
        wb.table_row(c, -12)


def test_strict_hypothesis_row_isolated(tmp_path, capsys):
    """Under --strict-hypotheses an inert-p row becomes a row error and the
    split row beside it still gets its report."""
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"curve": "32a", "discriminant": -43, "p": 3}\n'
                    '{"curve": "32a", "discriminant": -107, "p": 3}\n')
    code, out = run_cli(["table", "--rows-file", str(rows), "--strict-hypotheses",
                         "--n-max", "3"], capsys)
    assert code == 1
    _, (inert, split, summary) = parse_report(out)
    assert (inert["curve"], inert["discriminant"]) == ("32a", -43)
    assert inert["error"].startswith("UnsupportedHypothesis: p = 3 does not split")
    assert "series" not in inert
    assert (split["curve"], split["discriminant"]) == ("32a", -107)
    assert "error" not in split and split["p_splits_in_K"]
    assert set(split["series"]) == {"twist_plus", "twist_minus",
                                    "base_plus", "base_minus"}
    assert summary["summary"]["rows"] == 2 and summary["summary"]["failures"] == 1
