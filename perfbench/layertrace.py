"""Outside-in layer tracing for conekit.

The tracer replaces the public entry points of each conekit module with
wrappers that record a span (name, start, end, parent, instance) in memory.
A function is patched in every conekit namespace that binds it, so a call
made through ``from .linalg import eigen_decompose`` in ``cones`` or
``copositivity`` is traced like a call through ``linalg`` itself.  Nothing
in the package is edited; the wrappers are removed when the tracer exits.

Counts come from the same boundaries: LP status and pivots from the
returned ``LpSolution``, membership from the returned verdicts, cells and LP
checks inside copositivity probes from the spans nested in each probe.  The
program's own ``CopoResult.stats`` are kept next to them so the two can be
checked against each other.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function, span name); each span name's prefix is its layer
TRACED = (
    ("linalg", "eigen_decompose", "linalg.eigen"),
    ("linalg", "is_psd_cholesky", "linalg.psd"),
    ("linalg", "congruence", "linalg.congruence"),
    ("lp", "solve", "lp.solve"),
    ("cones", "build_lp", "cones.build_lp"),
    ("cones", "check_membership_lp", "cones.check_lp"),
    ("cones", "membership_report", "cones.report"),
    ("copositivity", "test_copositive", "copositivity.probe"),
    ("copositivity", "bisect", "copositivity.bisect"),
    ("instances", "clique_number", "instances.clique"),
    ("instances", "qp_optimum", "instances.qp"),
)
# called from lp.solve; observed only for the standard-form row count
STANDARD_FORM = ("lp", "_to_standard_form")

ROOT = "instance"  # the benchmark's own span around one entry-point call

NAME, START, END, PARENT, INST, ATTRS = range(6)


class TraceError(RuntimeError):
    """The traced surface of conekit is not what the benchmark expects."""


def _attrs(name, args, kwargs, result):
    """Outcome attributes a span keeps, read from the call and its result."""
    if name == "lp.solve":
        return {"status": result.status, "pivots": int(result.iterations)}
    if name == "cones.check_lp":
        ep = args[1] if len(args) > 1 else kwargs["ep"]
        return {"member": bool(result.is_member), "hat": not ep.orthogonal}
    if name == "copositivity.probe":
        stats = result.stats
        return {
            "outcome": result.outcome,
            "iterations": int(stats["iterations"]),
            "lp_calls": int(stats["lp_calls"]),
            "screen": int(stats["removals"]["screen"]),
            "member_hat": int(stats["removals"]["member_hat"]),
        }
    return None


class Tracer:
    """Context manager that patches conekit while active and keeps spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self._instance = -1

    # -- patching -------------------------------------------------------

    def __enter__(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "conekit" or name.startswith("conekit."))
        }
        for modname, attr, span_name in TRACED:
            self._patch(modules, modname, attr, self._span_wrapper(span_name))
        self._patch(modules, *STANDARD_FORM, self._rows_wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False

    def _patch(self, modules, modname, attr, make_wrapper):
        mod = modules.get(f"conekit.{modname}")
        fn = getattr(mod, attr, None)
        if not callable(fn):
            raise TraceError(f"traced entry point conekit.{modname}.{attr} no longer exists")
        wrapper = make_wrapper(fn)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    self._patched.append((module, key, fn))

    def _span_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self._close(idx, name, args, kwargs, result)

            return wrapper

        return make

    def _rows_wrapper(self, fn):
        def wrapper(lp):
            sf, infeasible = fn(lp)
            if sf is not None and self._stack:
                top = self.spans[self._stack[-1]]
                top[ATTRS] = {**(top[ATTRS] or {}), "rows": int(sf.A.shape[0])}
            return sf, infeasible

        return wrapper

    # -- spans ----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._instance, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, args, kwargs, result):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        if result is not None:
            found = _attrs(name, args, kwargs, result)
            if found:
                span[ATTRS] = {**(span[ATTRS] or {}), **found}

    def run_instance(self, instance_id, fn, *args):
        """Call fn(*args) inside a root span tagged with the instance id."""
        self._instance = instance_id
        idx = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self.spans[idx][END] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in microseconds from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_us", "end_us", "parent", "instance", "attrs"]}) + "\n")
            for name, start, end, parent, inst, attrs in self.spans:
                row = [name, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent, inst, attrs]
                fh.write(json.dumps(row) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer counts and self times from one traced run.

    Self time is a span's duration minus the durations of its direct
    children.  Raises TraceError when an outside count disagrees with the
    program's own stats.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s: dict = {}
    calls: dict = {}
    for i, s in enumerate(spans):
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + (s[END] - s[START]) - child[i]
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def in_probe(i):
        """True inside a probe that returned a CopoResult (one that raised
        has no stats to check against and fails its instance anyway)."""
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == "copositivity.probe":
                return spans[p][ATTRS] is not None
            p = spans[p][PARENT]
        return False

    solves = [s[ATTRS] or {} for s in spans if s[NAME] == "lp.solve"]
    checks = [(i, s[ATTRS] or {}) for i, s in enumerate(spans) if s[NAME] == "cones.check_lp"]
    probes = [s[ATTRS] for s in spans if s[NAME] == "copositivity.probe" and s[ATTRS]]
    cells = sum(1 for i, s in enumerate(spans) if s[NAME] == "linalg.congruence" and in_probe(i))
    probe_checks = [a for i, a in checks if in_probe(i)]
    hat_checks = [a for a in probe_checks if a.get("hat")]

    program = {
        "iterations": sum(p.get("iterations", 0) for p in probes),
        "lp_calls": sum(p.get("lp_calls", 0) for p in probes),
        "member_hat": sum(p.get("member_hat", 0) for p in probes),
    }
    outside = {
        "iterations": cells,
        "lp_calls": len(probe_checks),
        "member_hat": sum(1 for a in hat_checks if a.get("member")),
    }
    for key, label in (
        ("iterations", "copositivity.cells (congruence calls in probes)"),
        ("lp_calls", "check_membership_lp calls in probes"),
        ("member_hat", "hat-LP members in probes"),
    ):
        if program[key] != outside[key]:
            raise TraceError(
                f"{label}: traced {outside[key]} but CopoResult.stats gives {program[key]}"
            )

    pivots = sum(a.get("pivots", 0) for a in solves)
    rows = [a["rows"] for a in solves if "rows" in a]
    roots = [i for i, s in enumerate(spans) if s[NAME] == ROOT]
    instance_s = sum(spans[i][END] - spans[i][START] for i in roots)
    # each instance's time outside every traced layer, as a share of it
    unattributed = [1.0 - _ratio(child[i], spans[i][END] - spans[i][START]) for i in roots]
    n_inst = len(roots)
    lp_self = self_s.get("lp.solve", 0.0)
    return {
        "linalg.eigen.calls": calls.get("linalg.eigen", 0),
        "linalg.eigen.self_s": self_s.get("linalg.eigen", 0.0),
        "linalg.psd.calls": calls.get("linalg.psd", 0),
        "linalg.psd.self_s": self_s.get("linalg.psd", 0.0),
        "linalg.congruence.calls": calls.get("linalg.congruence", 0),
        "linalg.congruence.self_s": self_s.get("linalg.congruence", 0.0),
        "cones.build_lp.calls": calls.get("cones.build_lp", 0),
        "cones.build_lp.self_s": self_s.get("cones.build_lp", 0.0),
        "cones.check_lp.calls": len(checks),
        "cones.check_lp.self_s": self_s.get("cones.check_lp", 0.0),
        "cones.report.self_s": self_s.get("cones.report", 0.0),
        "cones.member_ratio": _ratio(sum(1 for _, a in checks if a.get("member")), len(checks)),
        "lp.solve.calls": len(solves),
        "lp.solve.self_s": lp_self,
        "lp.pivots": pivots,
        "lp.pivots_per_solve": _ratio(pivots, len(solves)),
        "lp.us_per_pivot": _ratio(lp_self * 1e6, pivots),
        "lp.rows_per_solve": _ratio(sum(rows), len(rows)),
        "lp.nonoptimal": sum(1 for a in solves if a.get("status") != "optimal"),
        "copositivity.probes": len(probes),
        "copositivity.cells": cells,
        "copositivity.cells_per_probe": _ratio(cells, len(probes)),
        "copositivity.lp_per_cell": _ratio(len(probe_checks), cells),
        "copositivity.hat_ratio": _ratio(outside["member_hat"], len(hat_checks)),
        "copositivity.screen_removals": sum(p.get("screen", 0) for p in probes),
        "copositivity.refuted": sum(1 for p in probes if p.get("outcome") == "not_copositive"),
        "copositivity.inconclusive": sum(1 for p in probes if p.get("outcome") == "inconclusive"),
        "copositivity.self_s": self_s.get("copositivity.probe", 0.0),
        "copositivity.bisect.self_s": self_s.get("copositivity.bisect", 0.0),
        "instances.probes_per_instance": _ratio(len(probes), n_inst),
        "instances.self_s": self_s.get("instances.clique", 0.0) + self_s.get("instances.qp", 0.0),
        "trace.instances": n_inst,
        "trace.instance_s": instance_s,
        "trace.unattributed_frac": _ratio(self_s.get(ROOT, 0.0), instance_s),
        "trace.unattributed_max_frac": max(unattributed, default=0.0),
    }
