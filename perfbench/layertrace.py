"""Per-layer tracing from outside the program.

``Tracer.installed`` wraps every public function of the traced layers
(module-level functions whose names do not start with an underscore, save
``UNWRAPPED``) in every ``detsieve`` module that holds them by name,
including the defining module itself, so calls inside a layer are seen
too.  Each call records a
span ``[name, start, end, parent, op, info, ok]`` in memory; ``info`` holds
the exact counts taken from the call's arguments and return value.
``layer_metrics`` derives the per-layer metrics from one pass's spans.

A layer's self time is the time its spans cover minus the time their
wrapped children cover.  A metric ``<layer>.<function>_s`` is the inclusive
time of that function's outermost spans; ``..._self_s`` is its self time.

Which end-to-end metric each per-layer metric should move:

- cli.*: count.wall_s and certify.wall_s (the largest reports).
- applications.*: count.wall_s.
- enumeration.*: count.wall_s; under 1% of cover and certify.
- exponents.*: cutoff.wall_s and cutoff.peak_rss_mb.
- determinant.pipeline_self_s, determinant.kernel_s: cover.wall_s and
  cover.peak_rss_mb.  determinant.rank_s, certificates_s, minors_checked,
  nonzero_minor_ratio, lambda_total: certify.wall_s.  build_matrix_s and
  matrix_cells: both.
- polynomials.is_coprime_s: certify.wall_s.

An in-program stage trace should reuse these layer and metric names.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "applications", "enumeration", "exponents", "determinant", "polynomials")

# Left unwrapped: the per-term kernel of polynomial evaluation and of
# build_matrix, called about a million times in a count pass, where a span
# would cost more than the call.  Its time counts to its caller.
UNWRAPPED = frozenset({"polynomials.eval_monomial"})

NAME, START, END, PARENT, OP, INFO, OK = range(7)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = tuple(
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("cli.main_self_s", "s", "lower"),
        ("cli.run_self_s", "s", "lower"),
        ("cli.report_bytes", "bytes", "lower"),
        ("applications.count_quadric_self_s", "s", "lower"),
        ("applications.count_unlike_self_s", "s", "lower"),
        ("applications.build_slice_s", "s", "lower"),
        ("applications.gcd_power_sum_s", "s", "lower"),
        ("applications.power_sum_terms", "count", "lower"),
        ("enumeration.enumerate_points_s", "s", "lower"),
        ("enumeration.enumerate_calls", "count", "lower"),
        ("enumeration.points", "count", "higher"),
        ("enumeration.residue_split_s", "s", "lower"),
        ("enumeration.classes", "count", "higher"),
        ("exponents.cutoff_search_s", "s", "lower"),
        ("exponents.cutoff_candidates", "count", "lower"),
        ("exponents.cutoff_hit_ratio", "ratio", "higher"),
        ("exponents.build_exponent_set_s", "s", "lower"),
        ("exponents.members_built", "count", "lower"),
        ("exponents.set_size", "count", "higher"),
        ("exponents.params_s", "s", "lower"),
        ("determinant.pipeline_self_s", "s", "lower"),
        ("determinant.kernel_s", "s", "lower"),
        ("determinant.rank_s", "s", "lower"),
        ("determinant.certificates_s", "s", "lower"),
        ("determinant.minors_checked", "count", "lower"),
        ("determinant.nonzero_minor_ratio", "ratio", "higher"),
        ("determinant.lambda_total", "count", "higher"),
        ("determinant.build_matrix_s", "s", "lower"),
        ("determinant.matrix_cells", "count", "lower"),
        ("polynomials.is_coprime_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _report_bytes(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if result == 0 and "--out" in argv:
        return os.path.getsize(argv[argv.index("--out") + 1])
    return 0


def _matrix_info(args, kwargs, result):
    E = args[1] if len(args) > 1 else kwargs["E"]
    rows, cols = result.shape
    return rows, cols, (E.box.bounds, E.dominant, E.cutoff)


def _certificate_info(args, kwargs, result):
    minors = [cm for cert in result for cm in cert.checked_minors]
    nonzero = sum(1 for cm in minors if not cm.determinant_zero)
    return len(minors), nonzero, sum(cert.lam for cert in result)


# Exact counts taken at a layer boundary: name -> f(args, kwargs, result).
_INFO = {
    "cli.main": _report_bytes,
    "applications.gcd_power_sum": lambda a, k, r: r.terms,
    "enumeration.enumerate_points": lambda a, k, r: len(r),
    "enumeration.residue_split": lambda a, k, r: len(r),
    "exponents.build_exponent_set": lambda a, k, r: len(r),
    "determinant.build_matrix": _matrix_info,
    "determinant.congruence_certificates": _certificate_info,
}


class Tracer:
    """Records spans of wrapped calls; ``op`` tags them with the current op."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            rec[OK] = True
            if info is not None:
                rec[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions for the duration of the block."""
        package = "detsieve"
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass (every METRICS name but trace.overhead_s)."""
    n = len(spans)
    covered = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]

    def under(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    self_s = dict.fromkeys(LAYERS, 0.0)
    fn_self: dict = {}
    fn_incl: dict = {}
    by_name: dict = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        own = s[END] - s[START] - covered[i]
        self_s[name.split(".", 1)[0]] += own
        fn_self[name] = fn_self.get(name, 0.0) + own
        by_name.setdefault(name, []).append(i)
        if not under(i, name):
            fn_incl[name] = fn_incl.get(name, 0.0) + s[END] - s[START]

    def calls(name):
        return [spans[i] for i in by_name.get(name, ())]

    def infos(name):
        return [s[INFO] for s in calls(name) if s[OK]]

    builds = by_name.get("exponents.build_exponent_set", ())
    candidates = sum(1 for i in builds if under(i, "exponents.choose_Y"))
    searches_won = sum(1 for s in calls("exponents.choose_Y") if s[OK])
    matrices = [(s[OP], s[INFO]) for s in calls("determinant.build_matrix") if s[OK]]
    staircases = {(op, key): cols for op, (_, cols, key) in matrices}
    certs = infos("determinant.congruence_certificates")
    minors = sum(c[0] for c in certs)

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "cli.main_self_s": fn_self.get("cli.main", 0.0),
        "cli.run_self_s": fn_self.get("cli.run", 0.0),
        "cli.report_bytes": sum(infos("cli.main")),
        "applications.count_quadric_self_s": fn_self.get("applications.count_quadric", 0.0),
        "applications.count_unlike_self_s": fn_self.get("applications.count_unlike", 0.0),
        "applications.build_slice_s": fn_incl.get("applications.build_slice", 0.0),
        "applications.gcd_power_sum_s": fn_incl.get("applications.gcd_power_sum", 0.0),
        "applications.power_sum_terms": sum(infos("applications.gcd_power_sum")),
        "enumeration.enumerate_points_s": fn_incl.get("enumeration.enumerate_points", 0.0),
        "enumeration.enumerate_calls": len(calls("enumeration.enumerate_points")),
        "enumeration.points": sum(infos("enumeration.enumerate_points")),
        "enumeration.residue_split_s": fn_incl.get("enumeration.residue_split", 0.0),
        "enumeration.classes": sum(infos("enumeration.residue_split")),
        "exponents.cutoff_search_s": fn_incl.get("exponents.choose_Y", 0.0),
        "exponents.cutoff_candidates": candidates,
        "exponents.cutoff_hit_ratio": searches_won / candidates if candidates else 0.0,
        "exponents.build_exponent_set_s": fn_incl.get("exponents.build_exponent_set", 0.0),
        "exponents.members_built": sum(infos("exponents.build_exponent_set")),
        "exponents.set_size": sum(staircases.values()),
        "exponents.params_s": fn_incl.get("exponents.compute_params", 0.0),
        "determinant.pipeline_self_s": fn_self.get("determinant.aux_pipeline", 0.0),
        "determinant.kernel_s": fn_incl.get("determinant.null_space_polynomial", 0.0),
        "determinant.rank_s": fn_incl.get("determinant.rank_over_rationals", 0.0),
        "determinant.certificates_s": fn_incl.get("determinant.congruence_certificates", 0.0),
        "determinant.minors_checked": minors,
        "determinant.nonzero_minor_ratio": sum(c[1] for c in certs) / minors if minors else 0.0,
        "determinant.lambda_total": sum(c[2] for c in certs),
        "determinant.build_matrix_s": fn_incl.get("determinant.build_matrix", 0.0),
        "determinant.matrix_cells": sum(rows * cols for _, (rows, cols, _) in matrices),
        "polynomials.is_coprime_s": fn_incl.get("polynomials.is_coprime", 0.0),
        "trace.spans": n,
    })
    return out
