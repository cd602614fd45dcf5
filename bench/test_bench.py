"""Tests of the benchmark itself (smoke inputs; a minute or so in all).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(name, trace, seed=workloads.DEFAULT_SEED, golden=None):
    if golden is None:
        with open(run.GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    return run.run_workload(name, seed, 0, trace, True, golden)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, section):
    proc = bench("--workload", "certify", "--smoke", "--seconds", "0",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_golden_digest_holds_and_a_corrupted_one_fails():
    result, info = smoke("certify", 0)
    assert info["golden_checked"] and result["correct"]
    result, info = smoke("certify", 0, golden={"certify/smoke": "0" * 64})
    assert not result["correct"]
    assert any("golden digest" in p for p in info["problems"])


def smoke_certify(seed=workloads.DEFAULT_SEED):
    return workloads.build("certify", seed, True, None, None)


def place_ops(wl):
    """The synthetic-place fudge operations (their result is a pair of
    divisor terms and one ledger entry)."""
    return [op for op in wl.ops if op.kind == "fudge" and "place" in op.run()[1]]


@pytest.mark.parametrize("kind,corrupt", [
    ("length", lambda x: x + 1),
    ("newton", lambda x: (x[0] + 1,) + x[1:]),
    ("pushforward", lambda x: [c + 1 for c in x]),
    ("certificate", lambda x: "p-factor"),
])
def test_a_corrupted_planted_answer_fails_the_batch(kind, corrupt):
    wl = smoke_certify()
    assert run.run_batch(wl)["failures"] == []
    op = next(o for o in wl.ops if o.kind == kind and o.expected != "p-factor")
    op.expected = corrupt(op.expected)
    batch = run.run_batch(wl)
    assert batch["digest"] is None
    assert [f.split(":")[0] for f in batch["failures"]] == [kind]


def test_fudge_places_reach_both_sides_and_are_checked():
    wl = smoke_certify()
    places = place_ops(wl)
    assert any(op.expected > 0 for op in places) and any(op.expected == 0 for op in places)
    for op in places:
        want = op.expected
        op.expected = 0 if want else 1
        assert op.check(op.run(), op.expected), "corrupted planted length accepted"
        op.expected = want


def test_planted_common_factor_marked_coprime_fails():
    wl = smoke_certify()
    assert run.run_batch(wl)["failures"] == []
    coprime = [op for op in wl.ops if op.kind == "certificate"
               and op.run().verdict == "coprime"]
    coprime[0].expected = "common-factor"     # claim a common factor was planted
    assert run.run_batch(wl)["failures"]


def test_same_seed_regenerates_identical_inputs(tmp_path):
    def inputs(seed):
        wl = workloads.build("certify", seed, False, None, None)
        return wl.notes, [(op.kind, repr(op.expected)) for op in wl.ops]
    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_certify_records_repeat_exactly():
    a = run.run_batch(smoke_certify(3))
    b = run.run_batch(smoke_certify(3))
    assert a["failures"] == b["failures"] == []
    assert a["digest"] == b["digest"] is not None


def spy_on_repeats(monkeypatch, change=None):
    """Record every repeat the runner spawns; ``change`` may alter one."""
    real_spawn = run.spawn_batch
    seen = []

    def spawn(*args):
        batch = real_spawn(*args)
        seen.append(batch)
        return change(args[5], batch) if change else batch
    monkeypatch.setattr(run, "spawn_batch", spawn)
    return seen


def test_a_repeat_that_differs_from_the_first_fails(monkeypatch):
    def tamper(index, batch):
        if index == 1:
            batch["digest"] = "0" * 64
        return batch
    spy_on_repeats(monkeypatch, tamper)
    result, info = run.run_workload("certify", 0, 0, 1, True, {})
    assert info["batches"] == 2 and not result["correct"]
    assert info["problems"] == ["repeat 1: records differ from the first repeat"]


def test_each_repeat_runs_in_its_own_fresh_process(monkeypatch):
    seen = spy_on_repeats(monkeypatch)
    result, info = run.run_workload("certify", 0, 0, 1, True, {})
    assert result["correct"] and len(seen) == 2
    pids = {batch["pid"] for batch in seen}
    assert len(pids) == 2 and os.getpid() not in pids


def test_traced_counts_repeat_and_match_the_phi_formula():
    first = smoke("table", 1)
    second = smoke("table", 1)
    for result, info in (first, second):
        assert result["correct"], info["problems"]
        assert info["hooks_missing"] == [] and info["hooks_uncalled"] == []
        assert result["metrics"]["trace.coverage"]["value"] >= run.COVERAGE_BAR
    assert first[1]["exact_counts"] == second[1]["exact_counts"]
    assert first[1]["exact_counts"]["modsym.path_evals"] > 0


def test_missing_or_broken_hook_is_reported_not_fatal(monkeypatch):
    import thetapm.cache
    import thetapm.mazurtate
    monkeypatch.setitem(tracing.HOOKS, "modsym.gone", "thetapm.modsym:no_such_function")
    monkeypatch.setitem(tracing._ANNOTATE, "cache.load",
                        (None, lambda tracer, a, out, attrs: a["no_such_argument"]))
    t = tracing.Tracer()
    t.install()
    try:
        assert t.missing == ["modsym.gone"]
        assert thetapm.cache.load_symbol(None, 32, "32a", 1) is None
        assert t.broken == {"cache.load"} and t.calls["cache.load"] == 1
    finally:
        t.uninstall()
    assert not hasattr(thetapm.mazurtate.reconstruct_signed, "__wrapped__")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--smoke", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
