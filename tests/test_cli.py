import json
import os
from math import gcd, lcm

import pytest

from thetapm import RunConfig, Workbench, build_space, bundled_curve, table
from thetapm.cache import load_symbol, store_symbol
from thetapm.cli import main
from thetapm.reports import comparable, parse_report, render_report


DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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
    sign = 1 if space.star_holds(values, 1) else -1
    rows = [[x - (sign if i == j else 0) for j, x in enumerate(row)]
            for i, row in enumerate(space.star_matrix())]
    for w in _nullspace(rows, space.dim):
        gens = [w[space.bindex[i]] if e is None
                else sum(c * w[space.bindex[k]] for k, c in e.items())
                for i, e in enumerate(space.reduction)]
        den = lcm(*(x.denominator for x in gens))
        ints = [int(x * den) for x in gens]
        g = gcd(*ints)
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        if not space.hecke_holds(ints, 3, 0):
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


def test_cmd_specialize_fixture(capsys):
    code, out = run_cli(["specialize", "--twovar-file",
                         os.path.join(DATA, "twovar_example.json")], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["coefficients"] == ["1", "2", "1"]


def test_cmd_c2_fixture(capsys):
    code, out = run_cli(["c2", "--ideal-file",
                         os.path.join(DATA, "ideal_example.json")], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["length"] == 2


def test_cmd_fudge(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"primes": [2]}')
    code, out = run_cli(["fudge", "--curve", "32a", "--discriminant", "-43",
                         "--p", "5", "--sigma-file", str(sigma)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["divisor"]["terms"] == []
    assert recs[2]["theorem_ledger"]["rhs"]["c2_Z"]["status"] == "out-of-scope"


def test_cmd_fudge_p3_flagged(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"primes": [2]}')
    code, out = run_cli(["fudge", "--curve", "32a", "--discriminant", "-43",
                         "--p", "3", "--sigma-file", str(sigma)], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert any("p >= 5" in f for f in recs[1]["ledger"]["flags"])


def test_cmd_coprime_series_files(tmp_path, capsys):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(json.dumps({"p": 3, "precision": 25,
                             "coefficients": ["-3", "0", "1"]}))
    g.write_text(json.dumps({"p": 3, "precision": 25,
                             "coefficients": ["-3", "0", "0", "1"]}))
    code, out = run_cli(["coprime", "--f-file", str(f), "--g-file", str(g)],
                        capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["verdict"] == "coprime"
    assert recs[0]["method"] == "slope-disjoint"


def test_cmd_theta_base_curve(capsys):
    code, out = run_cli(["theta", "--curve", "32a", "--sign", "+",
                         "--n-max", "4"], capsys)
    assert code == 0
    _, recs = parse_report(out)
    assert recs[0]["profile"]["lambda"] == 0
    assert recs[0]["stabilized"] is True


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


def test_reinterpolation_failure_is_row_error(workbench, monkeypatch):
    """A representative that misses its interpolation data yields a row
    error, not a row of invariants."""
    monkeypatch.setattr(table, "reinterpolation_check", lambda series: [1])
    (row,) = workbench.run_table([{"curve": "32a", "discriminant": -107, "p": 3}])
    assert "reinterpolation failed" in row["error"]
    assert "series" not in row


def test_cmd_table_bad_file_is_input_error(capsys):
    code, _ = run_cli(["table", "--rows-file", "/nonexistent.jsonl"], capsys)
    assert code == 2


def test_subcommands_take_only_the_flags_they_read():
    from thetapm.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    config = {"--p", "--n-max", "--cache-dir", "--strict-hypotheses",
              "--no-auto-extend"}

    def flags(name):
        return {o for a in sub.choices[name]._actions for o in a.option_strings
                if o not in ("-h", "--help")}
    for name in ("symbols", "theta", "table", "coprime"):
        assert config | {"--out"} <= flags(name)
    assert flags("fudge") & config == {"--p"} and "--out" in flags("fudge")
    for name in ("invariants", "c2", "specialize"):
        assert not flags(name) & config and "--out" in flags(name)


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
    from thetapm import UnsupportedHypothesis
    from thetapm.table import FieldSpec
    fs = FieldSpec(-43)
    assert not fs.p_splits(3)
    with pytest.raises(UnsupportedHypothesis):
        fs.enforce_split(3, strict=True)
    fs.enforce_split(3, strict=False)
    assert FieldSpec(-107).p_splits(3)


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
