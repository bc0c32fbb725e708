"""Batch front-end: JSON configs in, deterministic JSON reports out.

Configs carry polynomials as explicit term lists, never expressions.
Reports wrap every number with a provenance tag, serialize counts as
decimal strings, and are byte-identical for a fixed config and seed.
A list config runs its instances one after another, in input order.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction

from . import __version__
from .applications import (
    QuadricInstance,
    UnlikePowersInstance,
    count_quadric,
    count_unlike,
    predicted_exponents,
    quadric_cover_scale,
)
from .determinant import (
    MINOR_SAMPLE_CAP,
    aux_pipeline,
    build_matrix,
    congruence_certificates,
    rank_over_rationals,
)
from .enumeration import ResidueData, SideCondition, enumerate_points
from .errors import ContractViolation, HypothesisViolation, Record, SoundnessError, strict_int
from .exponents import (
    BoxBounds,
    ExactLog,
    build_exponent_set,
    main_term_deviation,
    max_exponent,
    side_log_height,
    staircase_size,
)
from .polynomials import IntegerPolynomial


class UsageError(Exception):
    """Bad invocation or config; maps to exit code 1."""


# -- config parsing ---------------------------------------------------------------


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise UsageError(f"missing field '{key}'")
    return cfg[key]


def _is_int(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_field(cfg: dict, key: str, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise UsageError(f"missing field '{key}'")
        return default
    v = cfg[key]
    if not _is_int(v):
        raise UsageError(f"field '{key}' must be an integer")
    return v


def _int_list_field(cfg: dict, key: str, length: int | None = None) -> list:
    v = _require(cfg, key)
    if (not isinstance(v, list) or not all(map(_is_int, v))
            or (length is not None and len(v) != length)):
        what = "integers" if length is None else f"{length} integers"
        raise UsageError(f"field '{key}' must be a list of {what}")
    return v


def _float_field(cfg: dict, key: str, default: float | None = None) -> float:
    if key not in cfg and default is not None:
        return default
    v = _require(cfg, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise UsageError(f"field '{key}' must be a finite number")
    return float(v)


def _floor_const_field(cfg: dict) -> int | None:
    """Optional nonnegative 'floor_const'; absent or null means the default."""
    if cfg.get("floor_const") is None:
        return None
    v = _int_field(cfg, "floor_const")
    if v < 0:
        raise UsageError("field 'floor_const' must be a nonnegative integer")
    return v


def _samples_field(cfg: dict) -> int:
    """Optional 'minor_samples' in [0, MINOR_SAMPLE_CAP], 32 by default."""
    v = _int_field(cfg, "minor_samples", 32)
    if not 0 <= v <= MINOR_SAMPLE_CAP:
        raise UsageError(
            f"field 'minor_samples' must be an integer in [0, {MINOR_SAMPLE_CAP}]"
        )
    return v


def _poly_field(cfg: dict, key: str) -> IntegerPolynomial:
    """Check the JSON shape only; IntegerPolynomial checks the values."""
    obj = _require(cfg, key)
    if not isinstance(obj, dict) or "nvars" not in obj or "terms" not in obj:
        raise UsageError(f"field '{key}' must have 'nvars' and 'terms'")
    terms = obj["terms"]
    if not isinstance(terms, list) or not all(
        isinstance(t, list) and len(t) == 2 and isinstance(t[0], list) for t in terms
    ):
        raise UsageError(f"field '{key}.terms' must list [exponents, coefficient] pairs")
    try:
        return IntegerPolynomial(obj["nvars"], terms)
    except ContractViolation as exc:
        raise UsageError(f"field '{key}': {exc}") from None


# The most fibers (x2, x3) a command may enumerate, (2 B2 + 1)(2 B3 + 1).
# B1 does not count: a fiber's x1 values are roots, and a value table over
# [-B1, B1] is built only when the fibers outnumber its entries.  The largest
# box the tests, CI, README and benchmark enumerate is the certify box
# [10^6, 1000, 1001], with 2001 * 2003 < 5 * 10^6 fibers.
BOX_FIBER_CAP = 10 ** 8


def _check_fibers(b2: int, b3: int) -> None:
    """Refuse, before anything is allocated, a box with over BOX_FIBER_CAP fibers."""
    if (2 * b2 + 1) * (2 * b3 + 1) > BOX_FIBER_CAP:
        raise UsageError(f"a box with x2, x3 bounds {b2}, {b3} needs over "
                         f"{BOX_FIBER_CAP} fibers")


def _box_field(cfg: dict) -> BoxBounds:
    box = BoxBounds(*_int_list_field(cfg, "box", 3))
    _check_fibers(box.b2, box.b3)
    return box


# -- serialization helpers ----------------------------------------------------------


def _num(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def _exact(value) -> dict:
    return _num(value, "exact")


def _count(n: int) -> dict:
    return _num(str(int(n)), "exact")


def _flt(value) -> dict:
    return _num(float(value), "float")


def _frac(value: Fraction) -> dict:
    return _num(str(value), "exact")


def _poly_json(p: IntegerPolynomial) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [[list(e), str(c)] for e, c in sorted(p.terms.items())],
        "degree": _exact(p.total_degree()),
    }


def _cutoff_json(cutoff: ExactLog) -> dict:
    return {"log": _flt(cutoff.value), "height": _count(cutoff.height)}


def _certificate_json(cert) -> dict:
    return {
        "modulus": _count(cert.base_modulus),
        "prime": _count(cert.prime),
        "prime_exponent": _exact(cert.prime_exponent),
        "lambda": _exact(cert.lam),
        "certified_divisor": _count(cert.certified_divisor),
        "shift": list(cert.shift),
        "inverse": _count(cert.inverse),
        "lift": _count(cert.lift),
        "det_transform": _count(cert.det_transform),
        "multiplicities": [
            [list(e), _exact(mu)] for e, mu in cert.multiplicities
        ],
        "checked_minors": [
            {
                "rows": list(cm.rows),
                "determinant_zero": cm.determinant_zero,
                "valuation": None if cm.valuation is None else _exact(cm.valuation),
            }
            for cm in cert.checked_minors
        ],
    }


def _params_json(params) -> dict:
    return {
        "modulus": _count(params.modulus),
        "epsilon": _flt(params.epsilon),
        "dominant_exponent": list(params.dominant),
        "side_exponent": list(params.side_exponent),
        "side_log_height": _flt(params.side.value),
        "log_top_height": _flt(params.log_top_height),
        "cover_scale": _flt(params.cover_scale),
        "cover_scale_eps": _flt(params.cover_scale_eps),
        "modulus_gain": _flt(params.modulus_gain),
    }


def _cover_json(report) -> tuple[dict, list, dict]:
    """Split a cover report into (result, certificates, diagnostics)."""
    classes = []
    certificates = []
    for oc in report.classes:
        cert_idx = []
        for cert in oc.certificates:
            cert_idx.append(len(certificates))
            certificates.append(_certificate_json(cert))
        entry = {
            "label": [list(map(int, t)) for t in oc.label],
            "points": _num([list(p) for p in oc.points], "exact"),
            "rows": _exact(oc.row_count),
            "columns": _exact(oc.column_count),
            "rank": _exact(oc.rank),
            "outcome": oc.outcome,
            "aux_index": oc.aux_index,
            "certificate_indices": cert_idx,
        }
        if oc.falsification is not None:
            rec = oc.falsification
            entry["falsification"] = {
                "rows": list(rec.rows),
                "determinant": _count(rec.determinant),
                "sqrt_columns_times_r": _flt(rec.sqrt_e_times_r),
                "threshold": _flt(rec.threshold),
                "valuations": [
                    {
                        "prime": _count(p),
                        "prime_exponent": _exact(j),
                        "lambda": _exact(lam),
                        "valuation": _exact(v),
                    }
                    for p, j, lam, v in rec.valuations
                ],
                "residue_valuations": [
                    {"prime": _count(rp), "valuation": _exact(v)}
                    for rp, v in rec.residue_valuations
                ],
            }
        classes.append(entry)
    result = {
        "branch": report.branch,
        "hypothesis_route": report.hypothesis_route,
        "auxiliary_count": _exact(len(report.auxiliaries)),
        "auxiliaries": [
            {
                "polynomial": _poly_json(a.poly),
                "degree": _exact(a.poly.total_degree()),
                "coprime_to_surface": a.coprime_to_f,
                "role": a.role,
                "vanishes_on": _exact(len(a.vanishes_on)),
            }
            for a in report.auxiliaries
        ],
        "classes": classes,
        "leftover_points": _num([list(p) for p in report.leftover], "exact"),
        "coverage_complete": report.coverage_complete,
    }
    e_count = report.set_size
    diagnostics = {
        "params": _params_json(report.params),
        "threshold": _flt(report.threshold),
        "residue_primes": [int(p) for p in report.residue_primes],
        "residue_product": _exact(report.residue_product),
        "cutoff": _cutoff_json(report.cutoff),
        "floor_constant": _exact(report.floor_constant),
        "set_size": _exact(e_count),
        "degree_cap": _exact(report.degree_cap),
        # reported beside any exact residue valuations, never asserted
        "residue_valuation_main_term": _num(
            2 * math.sqrt(2) * e_count ** 1.5 / 3, "main-term-diagnostic"
        ),
    }
    return result, certificates, diagnostics


def _timings(counts: dict) -> dict:
    out = {k: _exact(v) for k, v in sorted(counts.items())}
    out["note"] = "deterministic operation counters"
    return out


# -- per-command handlers -------------------------------------------------------------


def _run_enumerate(cfg: dict, seed: int) -> dict:
    f = _poly_field(cfg, "f")
    g = _poly_field(cfg, "g")
    q = _int_field(cfg, "q", 1)
    box = _box_field(cfg)
    nonsingular = cfg.get("nonsingular_only", False)
    if not isinstance(nonsingular, bool):
        raise UsageError("field 'nonsingular_only' must be true or false")
    pts = enumerate_points(f, SideCondition(g, q), box, nonsingular_only=nonsingular)
    return {
        "instance": {
            "f": _poly_json(f), "g": _poly_json(g),
            "q": _count(q), "box": list(box.bounds),
            "nonsingular_only": nonsingular,
        },
        "result": {
            "count": _count(len(pts)),
            "points": _num([list(p) for p in pts], "exact"),
        },
        "certificates": [],
        "diagnostics": {},
        "timings": _timings({"points": len(pts)}),
    }


# The most staircase columns `certify` builds, far above the largest
# certify config of the tests (16 384 columns) and the benchmark (169).
CERTIFY_COLUMN_CAP = 10 ** 6


def _certify_cutoff(box: BoxBounds, m, base: int, power: int) -> ExactLog:
    """The cutoff base^power unless its staircase has over CERTIFY_COLUMN_CAP
    columns.  A bound from bit lengths refuses a huge power before
    base ** power is formed: with base^power >= 2^a, each e with e_i = 0 < m_i
    and e_j + e_k <= a // max(bits of B_j, B_k) is a column.  Then the exact
    count decides."""
    bits = [b.bit_length() for b in box.bounds]
    a = power * (base.bit_length() - 1)
    n = max((a // max(bits[:i] + bits[i + 1:]) for i in range(3) if m[i]), default=0)
    if (n + 1) * (n + 2) // 2 <= CERTIFY_COLUMN_CAP:
        cutoff = ExactLog.power(base, power)
        if staircase_size(cutoff, m, box) <= CERTIFY_COLUMN_CAP:
            return cutoff
    raise UsageError(
        f"certify at cutoff {base}^{power} needs over {CERTIFY_COLUMN_CAP} columns"
    )


def _run_certify(cfg: dict, seed: int) -> dict:
    f = _poly_field(cfg, "f")
    g = _poly_field(cfg, "g")
    q = _int_field(cfg, "q")
    box = _box_field(cfg)
    base = _int_field(cfg, "cutoff_base", box.bmax)
    if base < 2:
        raise UsageError("field 'cutoff_base' must be an integer of at least 2")
    power = _int_field(cfg, "cutoff_power")
    if power < 1:
        raise UsageError("field 'cutoff_power' must be a positive integer")
    samples = _samples_field(cfg)
    m = max_exponent(f, box)
    cutoff = _certify_cutoff(box, m, base, power)
    E = build_exponent_set(cutoff, m, box)
    pts = enumerate_points(f, SideCondition(g, q), box)
    if not len(pts):
        raise ContractViolation("no points to certify")
    M = build_matrix(list(pts), E)
    _, S = side_log_height(g, box)
    certs = congruence_certificates(
        M, g, q, E, S, samples=samples, rng=random.Random(seed)
    )
    dev_count, dev_sum = main_term_deviation(E)
    return {
        "instance": {
            "f": _poly_json(f), "g": _poly_json(g),
            "q": _count(q), "box": list(box.bounds),
            "cutoff": _cutoff_json(cutoff),
        },
        "result": {
            "points": _count(len(pts)),
            "set_size": _exact(len(E)),
            "rank": _exact(rank_over_rationals(M)),
            "total_lambda": _exact(sum(c.lam for c in certs)),
        },
        "certificates": [_certificate_json(c) for c in certs],
        "diagnostics": {
            "dominant_exponent": list(m),
            "main_term_deviation_count": _num(float(dev_count), "main-term-diagnostic"),
            "main_term_deviation_sum": _num(float(dev_sum), "main-term-diagnostic"),
        },
        "timings": _timings({
            "points": len(pts),
            "minors_checked": sum(len(c.checked_minors) for c in certs),
        }),
    }


def _run_aux(cfg: dict, seed: int) -> dict:
    f = _poly_field(cfg, "f")
    g = _poly_field(cfg, "g")
    q = _int_field(cfg, "q")
    box = _box_field(cfg)
    epsilon = _float_field(cfg, "epsilon")
    residues = None
    if "residue_primes" in cfg:
        residues = ResidueData(tuple(_int_list_field(cfg, "residue_primes")))
    floor_const = _floor_const_field(cfg)
    scale_override = None
    if cfg.get("scale_override") is not None:
        scale_override = _float_field(cfg, "scale_override")
    samples = _samples_field(cfg)
    pts = enumerate_points(f, SideCondition(g, q), box)
    report = aux_pipeline(
        f, g, q, box, residues, epsilon, list(pts),
        seed=seed, minor_samples=samples,
        floor_const=floor_const, scale_override=scale_override,
    )
    result, certificates, diagnostics = _cover_json(report)
    E = report.exponent_set
    if E is None:
        E = build_exponent_set(report.cutoff, report.params.dominant, box)
    dev_count, dev_sum = main_term_deviation(E)
    diagnostics["main_term_deviation_count"] = _num(
        float(dev_count), "main-term-diagnostic"
    )
    diagnostics["main_term_deviation_sum"] = _num(
        float(dev_sum), "main-term-diagnostic"
    )
    result["count"] = _count(len(pts))
    return {
        "instance": {
            "f": _poly_json(f), "g": _poly_json(g),
            "q": _count(q), "box": list(box.bounds),
            "epsilon": _flt(epsilon),
        },
        "result": result,
        "certificates": certificates,
        "diagnostics": diagnostics,
        "timings": _timings(dict(report.counts)),
    }


def _run_quadric(cfg: dict, seed: int) -> dict:
    a = _int_list_field(cfg, "a", 3)
    n = _int_field(cfg, "n")
    B = _int_field(cfg, "B")
    mode = cfg.get("mode", "brute")
    inst = QuadricInstance(a[0], a[1], a[2], n, B)
    if mode in ("brute", "pipeline"):
        _check_fibers(inst.B, inst.B)
    kwargs = {}
    if mode == "pipeline":
        kwargs["epsilon"] = _float_field(cfg, "epsilon", 0.5)
        kwargs["floor_const"] = _floor_const_field(cfg)
        kwargs["seed"] = seed
        kwargs["minor_samples"] = _samples_field(cfg)
    out = count_quadric(inst, mode, **kwargs)
    exps = predicted_exponents(inst)
    instance = {
        "a": [inst.a1, inst.a2, inst.a3],
        "n": _exact(inst.n),
        "B": _exact(inst.B),
        "mode": mode,
    }
    result = {"count": _count(out.count)}
    certificates: list = []
    diagnostics: dict = {
        "predicted_box_powers": [_frac(v) for v in exps.box_powers],
        "predicted_coefficient_powers": [
            _frac(v) for v in exps.coefficient_powers
        ],
    }
    timings = {"points": len(out.points)}
    if out.report is not None:
        cover_result, certificates, cover_diag = _cover_json(out.report)
        result["cover"] = cover_result
        result["permutation"] = list(out.permutation)
        result["modulus"] = _count(out.modulus)
        diagnostics.update(cover_diag)
        diagnostics["sharpened_scale"] = _flt(
            quadric_cover_scale(out.modulus, inst.B)
        )
        timings.update(out.report.counts)
    return {
        "instance": instance,
        "result": result,
        "certificates": certificates,
        "diagnostics": diagnostics,
        "timings": _timings(timings),
    }


# The most work `unlike` starts, in its mode's estimate: (2B+1)^4
# quadruples for brute, (2B+1)^2 pair sums for meet-in-middle and 6B
# slices of (2B+1)^2 fibers for sliced-pipeline.  The largest config the
# tests, CI, README and benchmark run is brute at B = 20, 41^4 < 3 * 10^6.
UNLIKE_WORK_CAP = 10 ** 8


def _run_unlike(cfg: dict, seed: int) -> dict:
    inst = UnlikePowersInstance(
        _int_field(cfg, "k"), _int_field(cfg, "l"), _int_field(cfg, "m"),
        _int_field(cfg, "N"), _int_field(cfg, "B"),
    )
    mode = cfg.get("mode", "brute")
    n = 2 * inst.B + 1
    work = {"brute": n ** 4, "meet-in-middle": n ** 2, "sliced-pipeline": 6 * inst.B * n ** 2}
    if isinstance(mode, str) and work.get(mode, 0) > UNLIKE_WORK_CAP:
        raise UsageError(
            f"unlike mode '{mode}' at B = {inst.B} needs over {UNLIKE_WORK_CAP} steps"
        )
    out = count_unlike(inst, mode)
    exps = predicted_exponents(inst)
    result = {"count": _count(out.count)}
    if out.zero_slice is not None:
        result["zero_slice_count"] = _count(out.zero_slice)
        result["slices"] = [[u, _count(c)] for u, c in out.per_slice]
        result["assumed_hypothesis"] = out.assumed_hypothesis
    return {
        "instance": {
            "k": _exact(inst.k), "l": _exact(inst.l), "m": _exact(inst.m),
            "N": _exact(inst.N), "B": _exact(inst.B), "mode": mode,
        },
        "result": result,
        "certificates": [],
        "diagnostics": {
            "predicted_main_exponent": _flt(exps.main),
            "predicted_secondary_exponent": _flt(exps.secondary),
            "predicted_comparison_exponent": _flt(exps.comparison),
        },
        "timings": _timings({"slices": len(out.per_slice or ())}),
    }


class FitResult(Record):
    slope: float
    intercept: float
    residuals: tuple


def fit_exponent(counts) -> "FitResult":
    """Least-squares growth exponent of counts against box sizes.

    Fits log(count) on log(B), mapping zero counts to log 1, and returns
    the slope, intercept, and per-point residuals.
    """
    pts = []
    for item in counts:
        try:
            b, c = item
        except (TypeError, ValueError):
            raise ContractViolation("counts must be (box, count) pairs") from None
        pts.append((strict_int(b, "box size"), strict_int(c, "count")))
    if any(b < 2 for b, _ in pts):
        raise ContractViolation("box sizes must be at least 2")
    if any(c < 0 for _, c in pts):
        raise ContractViolation("counts must be nonnegative")
    if len({b for b, _ in pts}) < 3:
        raise ContractViolation("need at least 3 distinct box sizes")
    xs = [math.log(b) for b, _ in pts]
    ys = [math.log(c) if c >= 1 else 0.0 for _, c in pts]
    n = len(pts)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple(y - (slope * x + intercept) for x, y in zip(xs, ys))
    return FitResult(slope=slope, intercept=intercept, residuals=residuals)


def _run_fit(cfg: dict, seed: int) -> dict:
    counts = _require(cfg, "counts")
    if not isinstance(counts, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in counts
    ):
        raise UsageError("field 'counts' must be a list of [B, count] integer pairs")
    for key in ("quadric", "unlike"):
        if not isinstance(cfg.get(key, {}), dict):
            raise UsageError(f"field '{key}' must be an object")
    fit = fit_exponent(counts)
    diagnostics: dict = {}
    if "quadric" in cfg:
        sub = cfg["quadric"]
        inst = QuadricInstance(
            *_int_list_field(sub, "a", 3), _int_field(sub, "n"), _int_field(sub, "B", 2)
        )
        exps = predicted_exponents(inst)
        diagnostics["predicted_box_powers"] = [_frac(v) for v in exps.box_powers]
    if "unlike" in cfg:
        sub = cfg["unlike"]
        inst = UnlikePowersInstance(
            _int_field(sub, "k"), _int_field(sub, "l"), _int_field(sub, "m"),
            _int_field(sub, "N"), _int_field(sub, "B", 2),
        )
        exps = predicted_exponents(inst)
        diagnostics["predicted_main_exponent"] = _flt(exps.main)
    return {
        "instance": {"counts": [[b, str(c)] for b, c in counts]},
        "result": {
            "slope": _flt(fit.slope),
            "intercept": _flt(fit.intercept),
            "residuals": [_flt(r) for r in fit.residuals],
        },
        "certificates": [],
        "diagnostics": diagnostics,
        "timings": _timings({"points": len(counts)}),
    }


_HANDLERS = {
    "enumerate": _run_enumerate,
    "certify": _run_certify,
    "aux": _run_aux,
    "quadric": _run_quadric,
    "unlike": _run_unlike,
    "fit": _run_fit,
}


# -- entry point ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="detsieve", description=__doc__)
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def run(command: str, config, seed: int = 0) -> object:
    """Execute one command over a config document.

    A dict config yields a single report object; a list yields a list of
    per-instance reports computed independently, in input order.
    """
    handler = _HANDLERS.get(command)
    if handler is None:
        raise UsageError(f"unknown command '{command}'")

    def one(cfg) -> dict:
        if not isinstance(cfg, dict):
            raise UsageError("each instance config must be an object")
        report = handler(cfg, seed)
        report["provenance"] = {
            "command": command,
            "seed": seed,
            "version": __version__,
            "determinism": "fixed seed; counters in place of wall time",
        }
        return report

    if isinstance(config, dict):
        return one(config)
    if isinstance(config, list):
        return [one(c) for c in config]
    raise UsageError("config must be an object or a list of objects")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}")
        report = run(args.command, config, seed=args.seed)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 1
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except SoundnessError as exc:
        print(f"soundness failure (bug): {exc}", file=sys.stderr)
        return 3

    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
