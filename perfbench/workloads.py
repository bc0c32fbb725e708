"""The benchmark's workloads, their seeded inputs and their reference checks.

Every CLI op is a fixed config; the workload seed only picks the CLI
``--seed`` (which drives certificate minor sampling) and the power-sum
draws.  Each op checks its own output against ``references.json``, which
``make_references.py`` recorded from the program before any optimisation:
the SHA-256 of every report for each CLI seed, plus the seed-independent
result fields (counts, ranks, set sizes, total lambda) so that a mismatch
names what changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from mpmath import mp, mpf

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"

# The CLI seed is the workload seed modulo this, so every run's reports can
# be compared byte for byte with a recorded reference.
CLI_SEEDS = 8

# Draws per count pass: a pair from each of half this many strata of the
# reference pool ordered by term count, the pair mirrored about the
# stratum's middle, so every seed sums about the same number of terms and
# the pass cost hardly depends on the seed.
POWER_SUM_DRAWS = 30

# The power sums run at 96 bits.  Sequential summation of n positive terms
# is off by at most about n * 2^-96 relative, for the reference and for any
# rewrite (such as an fsum) alike, so two honest results differ by less than
# twice that; four times leaves room for rounding in the powers themselves.
POWER_SUM_REL_TOL_PER_TERM = 4 * 2.0 ** -96

# Report fields that do not depend on the CLI seed (the seed only picks
# which minors a certificate samples).
FIELD_KEYS = frozenset({
    "auxiliary_count", "columns", "count", "coverage_complete", "lambda",
    "points", "rank", "rows", "set_size", "total_lambda", "zero_slice_count",
})


class ProgramMissing(Exception):
    """The checkout has no detsieve sources to benchmark."""


def load_program(root: Path):
    """Import detsieve from ``root/src`` and return the package.

    Refuses to fall back on any other installed copy, so a directory
    without the sources fails instead of measuring something else.
    """
    src = (root / "src").resolve()
    if not (src / "detsieve" / "__init__.py").is_file():
        raise ProgramMissing(f"no detsieve sources under {src}")
    sys.path.insert(0, str(src))
    import detsieve
    import detsieve.cli  # noqa: F401  (the CLI is what the ops drive)

    if Path(detsieve.__file__).resolve().parent != src / "detsieve":
        raise ProgramMissing(f"detsieve was imported from {detsieve.__file__}")
    return detsieve


# -- configs ------------------------------------------------------------------


def _terms(a1, a2, a3, n, first=True):
    terms = [[[0, 2, 0], a2], [[0, 0, 2], a3], [[0, 0, 0], -n]]
    if first:
        terms.insert(0, [[2, 0, 0], a1])
    return {"nvars": 3, "terms": terms}


def _surface(a, n, q, box, **extra):
    """a1 x1^2 + a2 x2^2 + a3 x3^2 = n with side g = f - a1 x1^2 mod q."""
    cfg = {"f": _terms(*a, n), "g": _terms(*a, n, first=False), "q": q, "box": box}
    cfg.update(extra)
    return cfg


def _quadric(a, n, B, mode):
    return {"a": list(a), "n": n, "B": B, "mode": mode}


def _unlike(B):
    return {"k": 13, "l": 5, "m": 3, "N": 100, "B": B, "mode": "sliced-pipeline"}


def _brute(B):
    return [_quadric(a, n, B, "brute") for a, n in
            (((3, 1, 1), 1001), ((1, 1, 1), 1000), ((2, 3, 5), 10007), ((7, 1, 1), 3))]


# name -> (command, config).  Every op takes at most about a second on one
# core of an unloaded host, so a run repeats its workload's ops many times.
CLI_OPS = {
    # no points: the empty-cover path
    "cover-B10": ("quadric", _quadric((3, 1, 1), 1001, 10, "pipeline")),
    # 16x484 and 16x529 full-row-rank matrices: Fraction rank plus a large kernel
    "cover-B16": ("quadric", _quadric((3, 1, 1), 1001, 16, "pipeline")),
    "cover-B17": ("quadric", _quadric((3, 1, 1), 1001, 17, "pipeline")),
    "certify-Y16^12": ("certify", _surface(
        (3, 1, 1), 1001, 3, [16, 16, 16], cutoff_base=16, cutoff_power=12)),
    # tall full-column-rank certificates, 33 sampled Bareiss minors each
    "certify-q7-B25": ("certify", _surface(
        (7, 1, -1), 7, 7, [25, 25, 25], cutoff_base=25, cutoff_power=4)),
    "certify-q9-B35": ("certify", _surface(
        (9, 1, -1), 9, 9, [35, 35, 35], cutoff_base=35, cutoff_power=4)),
    # 96 one-point classes: per-matrix overhead and the largest report
    "aux-B30-p5-p7": ("aux", _surface(
        (3, 1, 1), 1001, 3, [30, 30, 30], epsilon=0.5, residue_primes=[5, 7])),
    # equal-box choose_Y scan on a point-free surface
    "rung-B60": ("quadric", _quadric((7, 1, 1), 3, 60, "pipeline")),
    # grid-scan choose_Y branch: 8 points
    "aux-grid-12-20-30": ("aux", _surface(
        (5, 1, 1), 6, 5, [12, 20, 30], epsilon=0.5)),
    "brute-batch-B70": ("quadric", _brute(70)),
    "unlike-B8": ("unlike", _unlike(8)),
    "enumerate-B150": ("enumerate", _surface((3, 1, 1), 1001, 3, [150, 150, 150])),
}

POWER_SUMS = "power-sums"

WORKLOADS = {
    "cover": ("cover-B10", "cover-B16", "cover-B17"),
    "certify": ("certify-Y16^12", "certify-q7-B25", "certify-q9-B35", "aux-B30-p5-p7"),
    "cutoff": ("rung-B60", "aux-grid-12-20-30"),
    "count": ("brute-batch-B70", "unlike-B8", "enumerate-B150", POWER_SUMS),
}


def criterion07_draws() -> list:
    """The 1000 (alpha, X, n) draws of acceptance criterion 07, in order."""
    rng = random.Random(777)
    draws = []
    for trial in range(1000):
        alpha = -rng.uniform(0.02, 0.98)
        if trial < 3:
            X, n = 10000, rng.choice([720, 840, 997])
        else:
            X = int(math.exp(rng.uniform(0, math.log(10000))))
            n = rng.randrange(1, 1001)
        draws.append((alpha, X, n))
    return draws


# -- checks -------------------------------------------------------------------


def key_fields(report) -> dict:
    """Seed-independent fields of a report (or a batch of reports), by path."""
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in sorted(node.items()):
                p = f"{path}.{k}" if path else k
                if (k in FIELD_KEYS and isinstance(v, dict) and "value" in v
                        and not isinstance(v["value"], list)):
                    out[p] = v["value"]
                elif k != "provenance":
                    walk(v, p)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(report, "")
    return out


def check_report(ref: dict, cli_seed: int, data: bytes) -> str | None:
    """None when the report matches its reference, else what differs."""
    if hashlib.sha256(data).hexdigest() == ref["sha256"][cli_seed]:
        return None
    try:
        fields = key_fields(json.loads(data))
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    diff = sorted(k for k in set(fields) | set(ref["fields"])
                  if fields.get(k) != ref["fields"].get(k))
    if diff:
        return "result fields differ: " + ", ".join(diff[:5])
    return "report bytes differ from the reference"


def check_power_sum(ref: list, out) -> str | None:
    """None when total <= majorant and both agree with the reference."""
    alpha, X, n, total, majorant, terms = ref
    if not out.total <= out.majorant:
        return f"total exceeds majorant for {(alpha, X, n)}"
    tol = POWER_SUM_REL_TOL_PER_TERM * terms
    with mp.workprec(192):
        for name, got, want in (("total", out.total, total),
                                ("majorant", out.majorant, majorant)):
            want = mpf(want)
            if abs(mpf(got) - want) > tol * want:
                return f"{name} off the reference for {(alpha, X, n)}"
    return None


# -- ops ----------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    error: str | None


def _timed(name: str, call, check) -> OpResult:
    """Run one op, timing only the program; a raise or a failed check is a
    failed op, not a crash."""
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = call()
    except Exception as exc:
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if error is None:
        error = check(out)
    return OpResult(name, wall, cpu, error)


@dataclass(frozen=True)
class CliOp:
    """One ``detsieve`` CLI invocation, timed from argument parsing to the
    written report."""

    name: str
    command: str
    config_path: Path
    out_path: Path
    cli_seed: int
    ref: dict

    def run(self, program) -> OpResult:
        argv = [self.command, "--config", str(self.config_path),
                "--out", str(self.out_path), "--seed", str(self.cli_seed)]
        self.out_path.unlink(missing_ok=True)
        return _timed(self.name, lambda: program.cli.main(argv), self._check)

    def _check(self, code) -> str | None:
        if code != 0:
            return f"exit code {code}"
        return check_report(self.ref, self.cli_seed, self.out_path.read_bytes())


@dataclass(frozen=True)
class PowerSumOp:
    """One ``gcd_power_sum`` call on a reference-pool draw."""

    ref: list
    name: str = POWER_SUMS

    def run(self, program) -> OpResult:
        return _timed(self.name, lambda: program.gcd_power_sum(*self.ref[:3]),
                      lambda out: check_power_sum(self.ref, out))


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def stratified_draws(pool: list, seed: int) -> list:
    """Pool indices, a mirrored pair per stratum of the pool ordered by
    term count."""
    order = sorted(range(len(pool)), key=lambda i: (pool[i][5], i))
    rng = random.Random(seed)
    strata = POWER_SUM_DRAWS // 2
    bounds = [len(order) * k // strata for k in range(strata + 1)]
    picks = []
    for lo, hi in zip(bounds, bounds[1:]):
        j = rng.randrange((hi - lo) // 2)
        picks += [order[lo + j], order[hi - 1 - j]]
    return picks


def make_ops(names, seed: int, workdir: Path, refs: dict) -> list:
    """The ops of one pass, in order, with their config files written."""
    workdir.mkdir(parents=True, exist_ok=True)
    cli_seed = seed % CLI_SEEDS
    ops = []
    for name in names:
        if name == POWER_SUMS:
            pool = refs["power_sums"]["draws"]
            ops.extend(PowerSumOp(pool[i]) for i in stratified_draws(pool, seed))
            continue
        command, config = CLI_OPS[name]
        slug = name.replace("^", "-")
        config_path = workdir / f"{slug}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        ops.append(CliOp(name, command, config_path, workdir / f"{slug}.out",
                         cli_seed, refs["reports"][name]))
    return ops
