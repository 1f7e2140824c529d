"""Span tracer that attributes time to qdilate's modules from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``qdilate`` module that holds it: ``opnorm``, ``defect`` and friends are
imported by name into ``hardy``, ``lifts``, ``model`` and others, so patching
only the defining module would miss their calls.  The CLI's suite table and
``Report.to_json`` are patched in place too.  ``uninstall`` restores them.

Each call records a span ``[name, start, end, parent, task]`` in memory.  A
span's self time is its duration minus the durations of its direct children;
calls run in one thread, so children never overlap.  The cheap helpers
(``adj``, ``eye``, ``frob``, ``hermitize``, ``as_cmatrix``) stay unwrapped:
they run hundreds of thousands of times and would mostly time the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from qdilate.errors import QDilateError

# span name -> (module, attribute) of a public function
FUNCTIONS = {
    "matcore.opnorm": ("matcore", "opnorm"),
    "matcore.numerical_rank": ("matcore", "numerical_rank"),
    "matcore.greedy_orbit_rank": ("matcore", "greedy_orbit_rank"),
    "matcore.defect": ("matcore", "defect"),
    "matcore.power_limit": ("matcore", "power_limit"),
    "qpair.validate": ("qpair", "validate"),
    "qpair.cnu_decompose": ("qpair", "cnu_decompose"),
    "ando.special_ando_tuple": ("ando", "special_ando_tuple"),
    "ando.verify_prop1": ("ando", "verify_prop1"),
    "ando.verify_prop2": ("ando", "verify_prop2"),
    "ando.verify_tuple_invariants": ("ando", "verify_tuple_invariants"),
    "hardy.materialize": ("hardy", "materialize"),
    "hardy.obs_op": ("hardy", "obs_op"),
    "hardy.extract_symbol": ("hardy", "extract_symbol"),
    "hardy.defect_tail_norm": ("hardy", "defect_tail_norm"),
    "hardy.choose_trunc": ("hardy", "choose_trunc"),
    "lifts.schaffer_lift": ("lifts", "schaffer_lift"),
    "lifts.douglas_lift": ("lifts", "douglas_lift"),
    "lifts.verify_lift": ("lifts", "verify_lift"),
    "lifts.minimality_check": ("lifts", "minimality_check"),
    "lifts.extract_ando_from_lift": ("lifts", "extract_ando_from_lift"),
    "model.char_fn": ("model", "char_fn"),
    "model.char_triple": ("model", "char_triple"),
    "model.verify_coincidence": ("model", "verify_coincidence"),
    "model.fundamental_ops": ("model", "fundamental_ops"),
    "model.canonical_unitary_pair": ("model", "canonical_unitary_pair"),
    "model.model_compress": ("model", "model_compress"),
    "pseudolift.douglas_pseudo_lift": ("pseudolift", "douglas_pseudo_lift"),
    "pseudolift.is_pseudo_triple": ("pseudolift", "is_pseudo_triple"),
    "pseudolift.is_pseudo_lift": ("pseudolift", "is_pseudo_lift"),
    "pseudolift.taylor_rigidity": ("pseudolift", "taylor_rigidity"),
    "cli.load": ("cli", "_load_pair"),
}
SUITES = ("ando", "schaffer", "douglas", "fundamental", "canonical",
          "triple", "pseudo", "model")
TASK = "task"

# per-layer self-time metric -> the span names whose self time it sums
SELF_TIME = {
    "matcore.opnorm.self_s": ["matcore.opnorm"],
    "matcore.numerical_rank.self_s": ["matcore.numerical_rank"],
    "matcore.greedy_orbit_rank.self_s": ["matcore.greedy_orbit_rank"],
    "matcore.defect.self_s": ["matcore.defect"],
    "matcore.power_limit.self_s": ["matcore.power_limit"],
    "qpair.validate.self_s": ["qpair.validate"],
    "qpair.cnu_decompose.self_s": ["qpair.cnu_decompose"],
    "ando.special_ando_tuple.self_s": ["ando.special_ando_tuple"],
    "ando.verify.self_s": ["ando.verify_prop1", "ando.verify_prop2",
                           "ando.verify_tuple_invariants"],
    "hardy.materialize.self_s": ["hardy.materialize"],
    "hardy.obs_op.self_s": ["hardy.obs_op"],
    "hardy.extract_symbol.self_s": ["hardy.extract_symbol"],
    "hardy.defect_tail_norm.self_s": ["hardy.defect_tail_norm"],
    "hardy.choose_trunc.self_s": ["hardy.choose_trunc"],
    "lifts.build.self_s": ["lifts.schaffer_lift", "lifts.douglas_lift"],
    "lifts.verify_lift.self_s": ["lifts.verify_lift"],
    "lifts.minimality_check.self_s": ["lifts.minimality_check"],
    "lifts.extract_ando_from_lift.self_s": ["lifts.extract_ando_from_lift"],
    "model.char_fn.self_s": ["model.char_fn"],
    "model.char_triple.self_s": ["model.char_triple"],
    "model.verify_coincidence.self_s": ["model.verify_coincidence"],
    "model.fundamental_ops.self_s": ["model.fundamental_ops"],
    "model.canonical_unitary_pair.self_s": ["model.canonical_unitary_pair"],
    "model.model_compress.self_s": ["model.model_compress"],
    "pseudolift.douglas_pseudo_lift.self_s": ["pseudolift.douglas_pseudo_lift"],
    "pseudolift.is_pseudo_triple.self_s": ["pseudolift.is_pseudo_triple"],
    "pseudolift.is_pseudo_lift.self_s": ["pseudolift.is_pseudo_lift"],
    "pseudolift.taylor_rigidity.self_s": ["pseudolift.taylor_rigidity"],
    "cli.load.self_s": ["cli.load"],
    **{f"cli.suite.{s}.self_s": [f"cli.suite.{s}"] for s in SUITES},
    "report.to_json.self_s": ["report.to_json"],
    "task.unattributed_s": [TASK],
}
CALLS = ("matcore.opnorm", "matcore.defect", "matcore.power_limit", "qpair.validate",
         "qpair.cnu_decompose", "ando.special_ando_tuple", "hardy.materialize",
         "model.char_fn", "model.fundamental_ops", "model.canonical_unitary_pair")


class Tracer:
    """Collects spans and boundary counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_space_dim = 0      # largest lift built, over all traced calls
        self._stack = [-1]
        self._task = -1
        self._restore: list = []
        self.wrapped: dict = {}     # span name -> wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        cli = importlib.import_module("qdilate.cli")
        report = importlib.import_module("qdilate.report")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qdilate" or n.startswith("qdilate."))]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(f"qdilate.{modname}"), attr)
            wrapper = self._wrap(name, orig)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._patch(module, key, wrapper)
        for suite in SUITES:
            orig = cli._SUITE_FNS[suite]
            wrapper = self._wrap(f"cli.suite.{suite}", orig)
            self._patch(cli._SUITE_FNS, suite, wrapper)
            self._patch(cli, orig.__name__, wrapper)
        self._patch(report.Report, "to_json",
                    self._wrap("report.to_json", report.Report.to_json))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def _patch(self, target, key, wrapper) -> None:
        if isinstance(target, dict):
            self._restore.append((target, key, target[key]))
            target[key] = wrapper
        else:
            self._restore.append((target, key, getattr(target, key)))
            setattr(target, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        extra = _EXTRA.get(name, _suite_skips if name.startswith("cli.suite.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], self._task]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except QDilateError:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                extra(self, name, args, result)
            return result

        self.wrapped[name] = traced
        return traced

    # -- tasks ----------------------------------------------------------
    def run_task(self, task_id: int, fn, *args):
        """Run fn(*args) under a root span for task `task_id`."""
        self._task = task_id
        rec = [TASK, time.perf_counter(), 0.0, -1, task_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._task = -1

    # -- results --------------------------------------------------------
    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and call count per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals, calls = defaultdict(float), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            calls[name] += 1
        return totals, calls

    def per_layer(self, passes: int, distinct_pairs: int) -> dict:
        """The per-layer table, per pass over the workload's tasks."""
        totals, calls = self.self_times()
        out = {m: (sum(totals[s] for s in names) / passes, "s")
               for m, names in SELF_TIME.items()}
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name] // passes, "count")
        out["matcore.opnorm.flops_computed"] = (self.counts["matcore.opnorm.flops"] // passes,
                                                "flop")
        out["hardy.materialize.bytes_computed"] = (
            self.counts["hardy.materialize.bytes"] // passes, "B")
        out["ando.builds_per_pair"] = (
            calls["ando.special_ando_tuple"] / passes / (2 * distinct_pairs), "ratio")
        out["lifts.space_dim.max"] = (self.max_space_dim, "count")
        for s in SUITES:
            out[f"cli.suite.{s}.errors"] = (self.counts[f"cli.suite.{s}.errors"] // passes,
                                            "count")
            out[f"cli.suite.{s}.skips"] = (self.counts[f"cli.suite.{s}.skips"] // passes,
                                           "count")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _opnorm_flops(tracer, name, args, result):
    a = args[0]
    if getattr(a, "ndim", 0) == 2:
        m, n = a.shape
        tracer.counts["matcore.opnorm.flops"] += m * n * min(m, n)


def _materialize_bytes(tracer, name, args, result):
    tracer.counts["hardy.materialize.bytes"] += result.matrix.nbytes


def _lift_dim(tracer, name, args, result):
    tracer.max_space_dim = max(tracer.max_space_dim, result.space.total_dim)


def _suite_skips(tracer, name, args, result):
    tracer.counts[f"{name}.skips"] += sum(r.skipped for r in result.records)


_EXTRA = {
    "matcore.opnorm": _opnorm_flops,
    "hardy.materialize": _materialize_bytes,
    "lifts.schaffer_lift": _lift_dim,
    "lifts.douglas_lift": _lift_dim,
}
