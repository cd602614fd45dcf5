#!/usr/bin/env python3
"""thetapm benchmark: end-to-end metrics, correctness gate, per-layer trace.

Run one workload (from the repository root):

    python3 bench/run.py --workload table --seed 0 --seconds 40 --trace 0

Each repeat of the workload's batch runs in a fresh process, so every
repeat is a cold run.  ``--trace 0`` measures the end-to-end metrics with
no hooks installed; ``--trace 1`` alternates traced and untraced repeats and
reports the per-layer metrics, the tracing overhead and the span coverage.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment (Python, nproc, commit, seed) and the details of the run.
The exit status is 0 only when every check passed.

Every workload, untraced and then traced, each in a fresh process:

    python3 bench/run.py --all [--seed N] [--seconds S] [--smoke]

``--smoke`` runs tiny inputs in a few seconds.  The benchmark measures the
library from outside: it builds thetapm from ``src/`` of the checkout it
lives in and refuses to run without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden.json")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("table", "certify")
SETUP_SAMPLES = 9
BATCH_TIMEOUT = 150
COVERAGE_BAR = 0.95
PINNED_HASH_SEED = "0"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p95_s": "s",
             "peak_rss_mib": "MiB"}


def pinned_env():
    """The environment every measured process runs in."""
    env = {k: v for k, v in os.environ.items() if k != "WORKBENCH_CACHE"}
    env["PYTHONHASHSEED"] = PINNED_HASH_SEED
    env["PYTHONPATH"] = SRC
    return env


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "thetapm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def records_digest(kind, records):
    """sha256 of reports.comparable over the records, in canonical order."""
    from thetapm import reports
    lines = sorted(json.dumps(r, sort_keys=True, default=str) for r in records)
    text = reports.render_report(kind, [json.loads(x) for x in lines], timestamp="")
    return hashlib.sha256(reports.comparable(text).encode()).hexdigest()


# -- set-up --------------------------------------------------------------------


def setup_probe(name, cache_dir):
    """Time from ``import thetapm`` until the workload's Workbench is ready."""
    t0 = time.perf_counter()
    import thetapm  # noqa: F401
    workloads.setup(workloads.setup_curves(name), cache_dir)
    return time.perf_counter() - t0


def setup_samples(name, workdir, n):
    """Set-up times of ``n`` fresh processes, each with an empty cache."""
    samples = []
    for i in range(n):
        cache = os.path.join(workdir, "probe%d" % i)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", cache,
             "--workload", name], env=pinned_env(), capture_output=True,
            text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- measurement -------------------------------------------------------------------


def run_batch(wl, tracer=None, first=False):
    """Run the batch once, then check it; checks and records are untimed.

    ``first`` adds the costly checks that the first repeat of a run makes;
    later repeats must reproduce its records, which the digest compares.
    """
    if tracer is not None:
        tracer.install()
    results = []
    for op in wl.ops:
        sid = tracer.open(tracing.OP_SPAN, {"op": op.kind}) if tracer else None
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:      # an operation that raises counts as failed
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid)
        results.append((op, out, err, dt))
    if tracer is not None:
        tracer.uninstall()
    failures, records = [], []
    for op, out, err, dt in results:
        try:
            reason = err or op.check(out, op.expected) or (
                first and op.first_check and op.first_check(out))
            if not reason:
                records.append(op.record(out))
        except Exception as exc:
            reason = "check raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            failures.append("%s: %s" % (op.kind, reason))
    return {"op_s": [r[3] for r in results], "kinds": [op.kind for op in wl.ops],
            "failures": failures,
            "digest": None if failures else records_digest(wl.report_kind, records)}


def batch_main(args):
    """One repeat of the batch in this fresh process; prints it as JSON."""
    wl = workloads.build(args.workload, args.seed, args.smoke, args.workdir, args.cache_dir)
    tracer = tracing.Tracer() if args.trace else None
    batch = run_batch(wl, tracer, first=args.batch == 0)
    batch["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch["pid"] = os.getpid()
    if tracer is not None:
        batch["counts"] = tracer.exact_counts()
        batch["trace"] = tracer.export()
    print(json.dumps(batch, default=str))
    return 0


def spawn_batch(name, seed, smoke, workdir, cache_dir, index, traced):
    """Run repeat ``index`` of the batch in a fresh process.

    Every repeat starts cold, so state a module keeps between calls can
    never make a later repeat cheaper than what a user's single run sees.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--batch", str(index),
           "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", workdir, "--cache-dir", cache_dir] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=pinned_env(), capture_output=True, text=True,
                              timeout=BATCH_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            batch = json.loads(lines[-1])
            batch["traced"] = traced
            return batch
        reason = "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    except subprocess.TimeoutExpired:
        reason = "no result within %d s" % BATCH_TIMEOUT
    return {"op_s": None, "failures": ["repeat %d: %s" % (index, reason)],
            "digest": None, "peak_rss_mib": 0.0, "traced": traced}


def measure(name, seed, seconds, trace, smoke, workdir, cache_dir, min_batches):
    """Closed loop, one client: repeat the batch while the next one is
    expected to end within ``seconds``.  Traced runs alternate traced and
    untraced repeats, starting traced."""
    batches = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        batches.append(spawn_batch(name, seed, smoke, workdir, cache_dir, len(batches),
                                   bool(trace) and len(batches) % 2 == 0))
        last = time.perf_counter() - t0
        if len(batches) >= min_batches and time.perf_counter() - start + last > seconds:
            return batches


def run_workload(name, seed, seconds, trace, smoke, golden):
    """Run one workload from this process; returns (result, info)."""
    workdir = os.path.join(OUT_DIR, "run-%s-%d-%d" % (name, seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return _run(name, seed, seconds, trace, smoke, golden, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def kind_shares(kinds, op_s):
    """Share of the batch time taken by each operation kind."""
    total = sum(op_s)
    out = {}
    for kind, t in zip(kinds, op_s):
        out[kind] = out.get(kind, 0.0) + t / total
    return out


def _run(name, seed, seconds, trace, smoke, golden, workdir):
    setup_s = setup_samples(name, workdir, 1 if smoke else SETUP_SAMPLES)
    cache_dir = os.path.join(workdir, "cache")
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    workloads.setup(workloads.setup_curves(name), cache_dir)
    if tracer is not None:
        setup_mark = tracer.snapshot()
        tracer.uninstall()
    wl = workloads.build(name, seed, smoke, workdir, cache_dir)
    # a traced run needs two traced repeats (to compare counts) and one untraced
    min_batches = (2 if smoke else 3) if trace else (1 if smoke else 2)
    batches = measure(name, seed, seconds, trace, smoke, workdir, cache_dir, min_batches)

    failures = [f for b in batches for f in b["failures"]]
    problems = []
    attempted = len(wl.ops) * len(batches)
    digest = batches[0]["digest"]
    for i, b in enumerate(batches[1:], 1):
        if b["digest"] is not None and b["digest"] != digest:
            problems.append("repeat %d: records differ from the first repeat" % i)
    key = name + ("/smoke" if smoke else "")
    want = golden.get(key) if seed == workloads.DEFAULT_SEED else None
    if want is not None and digest != want:
        problems.append("report digest %s differs from the golden digest %s" % (digest, want))

    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "commit": git_commit(), "source_sha256": source_digest(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "batches": len(batches), "operations": attempted,
            "setup_samples_s": setup_s, "digest": digest,
            "golden_checked": want is not None, "inputs": wl.notes,
            "failures": failures[:20]}

    metrics = {}
    if not trace:
        # each operation's time is its fastest repeat: on a shared machine
        # interference only ever adds time, in spells of seconds to minutes;
        # every repeat ran in a fresh process, so each is a cold run
        repeats = [b["op_s"] for b in batches if b["op_s"] is not None]
        if repeats:
            op_s = [min(ts) for ts in zip(*repeats)]
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_s": sum(op_s),
                "op_p50_s": percentile(op_s, 0.50),
                "op_p95_s": percentile(op_s, 0.95),
                "peak_rss_mib": max(b["peak_rss_mib"] for b in batches),
            }
            metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
            info["kind_share"] = kind_shares(batches[0]["kinds"], op_s)
        info["repeats_per_operation"] = len(repeats)
        info["repeat_wall_s"] = [sum(r) for r in repeats]
    else:
        traced = [b for b in batches if b["traced"] and b["op_s"] is not None]
        untraced = [sum(b["op_s"]) for b in batches if not b["traced"] and b["op_s"] is not None]
        for b in traced:
            tracer.merge(b["trace"])
        if traced and untraced:
            metrics = tracing.layer_metrics(tracer, setup_mark, len(traced),
                                             workloads.TABLE_ROW_NAMES)
            metrics["trace.overhead"] = (statistics.median(sum(b["op_s"]) for b in traced)
                                         / statistics.median(untraced) - 1, "ratio")
            coverage = metrics["trace.coverage"][0]
            if wl.coverage_gate and coverage < COVERAGE_BAR:
                problems.append("trace.coverage %.4f below %.2f" % (coverage, COVERAGE_BAR))
        counts = [b["counts"] for b in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("exact counts differ between traced repeats: %s" % counts)
        problems.extend(sorted(set(tracer.problems)))
        info["exact_counts"] = counts[0] if counts else None
        info["hooks_missing"] = sorted(tracer.missing)
        info["hooks_broken"] = sorted(tracer.broken)
        info["hooks_uncalled"] = sorted(s for s in wl.expected_spans
                                        if s not in tracer.missing and not tracer.calls[s])
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (name, seed))
        tracer.write(spans_file)
        info["spans_file"] = os.path.relpath(spans_file, ROOT)
        info["spans"] = len(tracer.spans)
    # a failed run-level check (digest, counts, coverage) counts as one failure
    failed = min(attempted, len(failures) + len(problems))
    info["problems"] = problems
    info["error_rate"] = failed / attempted
    result = {"correct": not failures and not problems and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


# -- entry points ------------------------------------------------------------------


def run_all(seed, seconds, smoke):
    """Each workload untraced then traced, each in a fresh process."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=ROOT,
                                  capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print("%s trace=%d: FAILED (exit %d) %s" % (
                    name, trace, proc.returncode,
                    (lines[-2] if len(lines) > 1 else proc.stderr.strip()[-2000:])))
                if not lines:
                    continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            rate = result["failed"] / result["attempted"]
            print("%-8s trace=%d correct=%s attempted=%d failed=%d error_rate=%g"
                  % (name, trace, result["correct"], result["attempted"],
                     result["failed"], rate))
            for metric, mv in result["metrics"].items():
                print("  %-34s %14.6g %s" % (metric, mv["value"], mv["unit"]))
                summary["%s.%s" % (name, metric)] = mv
            if trace == 0:
                summary["%s.error_rate" % name] = {"value": rate, "unit": "ratio"}
    print(json.dumps({"correct": ok, "metrics": summary}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, each in a fresh process")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, a few seconds")
    ap.add_argument("--setup-probe", metavar="CACHE_DIR", help=argparse.SUPPRESS)
    ap.add_argument("--batch", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    ap.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    if not os.path.isfile(os.path.join(SRC, "thetapm", "__init__.py")):
        print("bench: no thetapm sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    env = pinned_env()
    if any(os.environ.get(k) != env.get(k) for k in ("PYTHONHASHSEED", "PYTHONPATH",
                                                      "WORKBENCH_CACHE")):
        # re-run in a fresh interpreter with the pinned environment
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else list(argv)), env)

    if args.setup_probe:
        print(setup_probe(args.workload, args.setup_probe))
        return 0
    if args.batch is not None:
        return batch_main(args)
    if args.all:
        return run_all(args.seed, args.seconds, args.smoke)

    import thetapm
    if os.path.dirname(os.path.abspath(thetapm.__file__)) != os.path.join(SRC, "thetapm"):
        print("bench: imported thetapm from %s, not from the checkout" % thetapm.__file__,
              file=sys.stderr)
        return 2
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    result, info = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                args.smoke, golden)
    print(json.dumps({"info": info}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
