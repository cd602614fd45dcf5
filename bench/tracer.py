"""Span tracer that times thetapm from outside the library.

Hooks replace public functions of the layers (the modules of ``thetapm``)
with timing wrappers while a traced batch runs, and put the originals back
afterwards.  A function imported by name into another module is patched in
every module that holds it, because that is where its caller looks it up.

Spans record name, start, end and parent; they stay in memory and are
written out when the run ends.  Each traced batch runs in a fresh process
whose tracer state (``export``) the runner folds into one tracer (``merge``).  Counts (path evaluations, X-basis
operations, levels, verdicts, cache hits) are taken at the same boundaries.
A hook whose target no longer exists is reported by name and skipped; the
timed code is never changed for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# span name -> hooked callable, as "module:attribute" or "module:Class.attr".
# The module is where the function is defined; every thetapm module that
# imported the same object by name is patched too.
HOOKS = {
    "modsym.build_space": "thetapm.modsym:build_space",
    "modsym.extract": "thetapm.modsym:extract_eigensymbol",
    "modsym.twisted_evaluator": "thetapm.modsym:make_twisted_evaluator",
    "mazurtate.build": "thetapm.mazurtate:MazurTateElement.build",
    "mazurtate.interpolation": "thetapm.mazurtate:interpolation_value",
    "mazurtate.reconstruct": "thetapm.mazurtate:reconstruct_signed",
    # the one private hook: the Garner step of reconstruct_signed
    "mazurtate.garner_step": "thetapm.mazurtate:_crt_extend",
    "mazurtate.reinterpolation": "thetapm.mazurtate:reinterpolation_check",
    "cyclotomic.zeta_to_x": "thetapm.cyclotomic:zeta_to_x_basis",
    "cyclotomic.x_at_zeta": "thetapm.cyclotomic:x_poly_at_zeta_minus_one",
    "cyclotomic.mul": "thetapm.cyclotomic:CyclotomicInt.__mul__",
    "cyclotomic.poly_mul": "thetapm.cyclotomic:fraction_poly_mul",
    "iwasawa.newton": "thetapm.iwasawa:newton_invariants",
    "iwasawa.weierstrass": "thetapm.iwasawa:weierstrass_prepare",
    "iwasawa.resultant_in_T": "thetapm.iwasawa:resultant_in_T",
    "iwasawa.pi_cyc": "thetapm.iwasawa:pi_cyc",
    "coprimality.certificate": "thetapm.coprimality:coprime_certificate",
    "chern.length": "thetapm.chern:local_length_vertical",
    "chern.pushforward": "thetapm.chern:pushforward_c2",
    "chern.fudge": "thetapm.chern:fudge_c2",
    "chern.place": "thetapm.chern:place_contribution",
    "cache.load": "thetapm.cache:load_symbol",
    "cache.store": "thetapm.cache:store_symbol",
    "table.run_table": "thetapm.table:Workbench.run_table",
    "table.row": "thetapm.table:Workbench.table_row",
    "reports.render": "thetapm.reports:render_report",
    # counted, not timed: the evaluator it returns counts base path evaluations
    "modsym.evaluator": "thetapm.modsym:EigenSymbol.evaluator",
}

# hooks whose spans count under another name: a fudge contribution of one
# place is part of the fudge ledger, whether fudge_c2 called it or not
SPAN_NAME = {"chern.place": "chern.fudge"}

# spans of these layers orchestrate; coverage counts time in the others
ORCHESTRATION = ("bench", "table")
OP_SPAN = "bench.op"
MAX_LEVEL = 7                 # the deepest level the workloads reach
VERDICTS = ("coprime", "not-certified", "inconclusive")

# counts that must repeat exactly from one traced batch to the next
EXACT_COUNTS = ("modsym.path_evals", "cyclotomic.zeta_to_x_ops",
                "mazurtate.levels", "mazurtate.auto_extensions") + tuple(
    "coprimality.verdicts.%s" % v for v in VERDICTS)


def euler_phi(n):
    """Euler's phi, kept apart from the library's so it can check it."""
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            out -= out // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out -= out // m
    return out


def _resolve(spec):
    """(owner object, attribute name, original) for a hook spec, or None."""
    modname, _, path = spec.partition(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return None
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _import_sites(original, attr):
    """Every loaded thetapm module that holds ``original`` under ``attr``."""
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "thetapm" or name.startswith("thetapm."))
            and getattr(mod, attr, None) is original]


class Tracer:
    """Spans and counts for one traced run; hooks are installed per batch."""

    def __init__(self):
        self.spans = []            # [id, parent, name, start, end, attrs]
        self._stack = []
        self._patched = []         # (owner, attr, original)
        self.missing = []
        self.calls = Counter()
        self.counts = Counter()
        self.path_evals = 0
        self.problems = []
        self.broken = set()        # hooks whose annotation could not read the call

    # -- spans ---------------------------------------------------------

    def open(self, name, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name, fn, before=None, after=None):
        tracer = self
        sig = inspect.signature(fn) if before or after else None

        span = SPAN_NAME.get(name, name)

        def wrapper(*args, **kwargs):
            call = (args, kwargs)
            attrs = tracer._annotate(name, before, sig, call) if before else None
            sid = tracer.open(span, attrs)
            tracer.calls[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after:
                tracer._annotate(name, after, sig, call, out, attrs)
            return out
        return functools.wraps(fn)(wrapper)

    def _annotate(self, name, fn, sig, call, *rest):
        """Run an annotation on the call's arguments by parameter name."""
        try:
            bound = sig.bind(*call[0], **call[1])
            bound.apply_defaults()
            return fn(self, bound.arguments, *rest)
        except Exception:          # a changed signature must not break the traced call
            self.broken.add(name)
            return None

    # -- hooks ---------------------------------------------------------

    def install(self):
        """Patch every hook target; missing targets are recorded, not fatal."""
        self.missing = []
        for name, spec in HOOKS.items():
            found = _resolve(spec)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, original = found
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._set(owner, attr, original, wrapped)
            else:
                for site in _import_sites(original, attr):
                    self._set(site, attr, original, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _set(self, owner, attr, original, wrapped):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, original):
        if name == "modsym.evaluator":
            return self._counting_evaluator(original)
        if isinstance(original, classmethod):
            return classmethod(self._wrap(name, original.__func__))
        before, after = _ANNOTATE.get(name, (None, None))
        return self._timed(name, original, before, after)

    def _counting_evaluator(self, original):
        tracer = self

        def evaluator(symbol):
            ev = original(symbol)

            def counted(x, m):
                tracer.path_evals += 1
                return ev(x, m)
            return counted
        return functools.wraps(original)(evaluator)

    # -- results -------------------------------------------------------

    def snapshot(self):
        """Span count and counters, to tell the set-up from the batches."""
        return len(self.spans), Counter(self.counts), self.path_evals

    def exact_counts(self):
        out = {key: self.counts[key] for key in EXACT_COUNTS}
        out["modsym.path_evals"] = self.path_evals
        return out

    def export(self):
        """This process's spans and counters, as JSON-ready data."""
        return {"spans": self.spans, "counts": dict(self.counts),
                "calls": dict(self.calls), "path_evals": self.path_evals,
                "problems": self.problems, "missing": self.missing,
                "broken": sorted(self.broken)}

    def merge(self, data):
        """Fold in the exported state of a batch traced in another process."""
        offset = len(self.spans)
        for sid, parent, name, start, end, attrs in data["spans"]:
            self.spans.append([sid + offset, None if parent is None else parent + offset,
                               name, start, end, attrs])
        for key, value in data["counts"].items():
            if key == "mazurtate.max_coeff_bits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.calls.update(data["calls"])
        self.path_evals += data["path_evals"]
        self.problems.extend(data["problems"])
        self.missing = sorted(set(self.missing) | set(data["missing"]))
        self.broken |= set(data["broken"])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


# -- per-hook annotations, on the call's arguments by name:
#    before(tracer, args) -> span attrs; after(tracer, args, result, attrs)


def _build_before(tracer, a):
    target = a["target"]
    return {"k": a["n"], "p": target.p, "D": target.discriminant,
            "evals0": tracer.path_evals}


def _build_after(tracer, a, out, attrs):
    p, k, D = attrs["p"], attrs["k"], attrs["D"]
    want = euler_phi(p ** (k + 1)) * (euler_phi(abs(D)) if D != 1 else 1)
    got = tracer.path_evals - attrs.pop("evals0")
    attrs["path_evals"] = got
    if got != want:
        tracer.problems.append(
            "path evaluations for D=%d k=%d: %d, expected phi formula %d"
            % (D, k, got, want))


def _zeta_before(tracer, a):
    tracer.counts["cyclotomic.zeta_to_x_ops"] += sum(
        i + 1 for i, c in enumerate(a["z"].co) if c)
    return {"k": a["k"]}


def _crt_before(tracer, a):
    return {"k": a["k"]}


def _reconstruct_before(tracer, a):
    return {"n_max": a["n_max"]}


def _reconstruct_after(tracer, a, out, attrs):
    tracer.counts["mazurtate.levels"] += len(out.levels)
    tracer.counts["mazurtate.auto_extensions"] += sum(
        1 for k in out.levels if k > attrs["n_max"])
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in out.rep_exact or ()), default=0)
    tracer.counts["mazurtate.max_coeff_bits"] = max(
        tracer.counts["mazurtate.max_coeff_bits"], bits)


def _certificate_after(tracer, a, out, attrs):
    tracer.counts["coprimality.verdicts.%s" % out.verdict] += 1
    if out.method == "resultant":
        tracer.counts["coprimality.resultant_route"] += 1


def _load_after(tracer, a, out, attrs):
    tracer.counts["cache.hits" if out is not None else "cache.misses"] += 1


def _row_before(tracer, a):
    return {"row": "%s_m%d" % (a["curve"].label, abs(a["discriminant"]))}


_ANNOTATE = {
    "mazurtate.build": (_build_before, _build_after),
    "cyclotomic.zeta_to_x": (_zeta_before, None),
    "mazurtate.garner_step": (_crt_before, None),
    "mazurtate.reconstruct": (_reconstruct_before, _reconstruct_after),
    "coprimality.certificate": (None, _certificate_after),
    "cache.load": (None, _load_after),
    "table.row": (_row_before, None),
}


def layer_metrics(tracer, setup_mark, n_batches, row_names):
    """Per-layer metrics: the traced set-up once plus the mean traced batch.

    ``setup_mark`` is the tracer snapshot taken when the set-up ended; spans
    and counts after it belong to the ``n_batches`` traced batches.
    """
    n_setup, setup_counts, setup_evals = setup_mark
    nb = max(n_batches, 1)
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time = Counter()
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start

    inclusive, self_time = Counter(), Counter()
    build_k, garner_k, rows = Counter(), Counter(), Counter()
    covered = op_time = 0.0
    for sid, parent, name, start, end, attrs in spans:
        w = 1.0 if sid < n_setup else 1.0 / nb
        dur = end - start
        self_time[name] += w * (dur - child_time[sid])
        ancestors = []
        node = parent
        while node is not None:
            ancestors.append(by_id[node][2])
            node = by_id[node][1]
        if name not in ancestors:
            inclusive[name] += w * dur
        if name == OP_SPAN:
            op_time += dur
        elif (OP_SPAN in ancestors and name.split(".")[0] not in ORCHESTRATION
              and all(a.split(".")[0] in ORCHESTRATION for a in ancestors)):
            covered += dur
        attrs = attrs or {}             # empty when a hook's annotation broke
        if name == "mazurtate.build":
            build_k[attrs.get("k")] += w * dur
        elif name == "mazurtate.garner_step" or (
                name == "cyclotomic.zeta_to_x" and ancestors[:1] == ["mazurtate.reconstruct"]):
            # the first level has no CRT step, only the basis change
            garner_k[attrs.get("k")] += w * dur
        elif name == "table.row":
            rows[attrs.get("row")] += w * dur

    def count(key):
        return setup_counts[key] + (tracer.counts[key] - setup_counts[key]) / nb

    def t(name):
        return inclusive[name]

    batch_evals = (tracer.path_evals - setup_evals) / nb
    batch_build = sum(build_k.values())
    m = {}
    m["modsym.path_evals"] = (setup_evals + batch_evals, "count")
    m["modsym.path_evals_per_s"] = (batch_evals / batch_build if batch_build else 0.0, "1/s")
    m["modsym.extract_s"] = (t("modsym.extract"), "s")
    m["mazurtate.build_s"] = (t("mazurtate.build"), "s")
    for k in range(1, MAX_LEVEL + 1):
        m["mazurtate.build_s.k%d" % k] = (build_k[k], "s")
    for k in range(1, MAX_LEVEL + 1):
        m["mazurtate.garner_s.k%d" % k] = (garner_k[k], "s")
    m["mazurtate.reinterp_s"] = (t("mazurtate.reinterpolation"), "s")
    m["mazurtate.interp_self_s"] = (self_time["mazurtate.interpolation"], "s")
    m["mazurtate.levels"] = (count("mazurtate.levels"), "count")
    m["mazurtate.auto_extensions"] = (count("mazurtate.auto_extensions"), "count")
    m["mazurtate.max_coeff_bits"] = (tracer.counts["mazurtate.max_coeff_bits"], "bits")
    m["cyclotomic.zeta_to_x_s"] = (t("cyclotomic.zeta_to_x"), "s")
    m["cyclotomic.zeta_to_x_ops"] = (count("cyclotomic.zeta_to_x_ops"), "count")
    m["cyclotomic.x_at_zeta_s"] = (t("cyclotomic.x_at_zeta"), "s")
    m["cyclotomic.mul_s"] = (t("cyclotomic.mul"), "s")
    m["cyclotomic.poly_mul_s"] = (t("cyclotomic.poly_mul"), "s")
    m["iwasawa.newton_s"] = (t("iwasawa.newton"), "s")
    m["iwasawa.weierstrass_s"] = (t("iwasawa.weierstrass"), "s")
    m["iwasawa.resultant_in_T_s"] = (t("iwasawa.resultant_in_T"), "s")
    m["iwasawa.pi_cyc_s"] = (t("iwasawa.pi_cyc"), "s")
    m["coprimality.certificate_s"] = (t("coprimality.certificate"), "s")
    n_cert = tracer.calls["coprimality.certificate"]
    m["coprimality.resultant_share"] = (
        tracer.counts["coprimality.resultant_route"] / n_cert if n_cert else 0.0,
        "ratio")
    for v in VERDICTS:
        key = "coprimality.verdicts.%s" % v
        m[key] = (count(key), "count")
    m["chern.length_s"] = (t("chern.length"), "s")
    m["chern.pushforward_s"] = (t("chern.pushforward"), "s")
    m["chern.fudge_s"] = (t("chern.fudge"), "s")
    m["cache.load_s"] = (t("cache.load"), "s")
    m["cache.store_s"] = (t("cache.store"), "s")
    m["cache.hits"] = (count("cache.hits"), "count")
    m["cache.misses"] = (count("cache.misses"), "count")
    for row in row_names:
        m["table.row_s.%s" % row] = (rows[row], "s")
    m["table.self_s"] = (self_time["table.run_table"] + self_time["table.row"], "s")
    m["reports.render_s"] = (t("reports.render"), "s")
    m["trace.coverage"] = (covered / op_time if op_time else 0.0, "ratio")
    return m
