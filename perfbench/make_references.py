"""Record the reference outputs the benchmark checks every run against.

Run from the root of a checkout whose program is the reference (the commit
that defined the benchmark):

    python3 perfbench/make_references.py

It runs every CLI op of every workload once per CLI seed and stores each
report's SHA-256 and its seed-independent fields, then evaluates the
criterion-07 power-sum pool.  Regenerating the file changes what the
benchmark accepts as correct, so it belongs only in a change that changes
reports on purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from mpmath import nstr

import workloads


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    program = workloads.load_program(root)
    reports = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        for name, (command, config) in workloads.CLI_OPS.items():
            cfg = tmp / "config.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            out = tmp / "report.json"
            shas, fields = [], None
            for seed in range(workloads.CLI_SEEDS):
                code = program.cli.main([command, "--config", str(cfg),
                                         "--out", str(out), "--seed", str(seed)])
                if code != 0:
                    raise SystemExit(f"{name}: exit code {code}")
                data = out.read_bytes()
                shas.append(hashlib.sha256(data).hexdigest())
                got = workloads.key_fields(json.loads(data))
                if fields is not None and got != fields:
                    raise SystemExit(f"{name}: key fields depend on the seed")
                fields = got
            reports[name] = {"sha256": shas, "fields": fields}
            print(f"{name}: {len(fields)} fields", file=sys.stderr, flush=True)

    draws = []
    for alpha, X, n in workloads.criterion07_draws():
        out = program.gcd_power_sum(alpha, X, n)
        draws.append([alpha, X, n, nstr(out.total, 40), nstr(out.majorant, 40),
                      out.terms])
    refs = {
        "program_version": program.__version__,
        "reports": reports,
        "power_sums": {
            "generator": "acceptance criterion 07: random.Random(777), 1000 draws",
            "fields": ["alpha", "X", "n", "total", "majorant", "terms"],
            "draws": draws,
        },
    }
    with open(workloads.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
