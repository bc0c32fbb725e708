"""Tests of the benchmark itself, on its cheapest ops.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The cheapest op of each workload.
CHEAP = {
    "cover": "cover-B10",
    "certify": "aux-B30-p5-p7",
    "cutoff": "aux-grid-12-20-30",
    "count": "unlike-B8",
}


@pytest.fixture(scope="module")
def program():
    return workloads.load_program(run.ROOT)


@pytest.fixture(scope="module")
def refs():
    return workloads.load_references()


@pytest.fixture
def tmp_path():
    """A temporary directory inside the checkout, like the benchmark's own."""
    parent = run.ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    yield path
    shutil.rmtree(path)
    try:
        parent.rmdir()
    except OSError:
        pass


def _ops(names, tmp_path, refs, seed=3):
    return workloads.make_ops(names, seed, tmp_path, refs)


def test_corrupted_report_counts_as_failure(program, refs, tmp_path, monkeypatch):
    real_main = program.cli.main

    def corrupting_main(argv):
        code = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        report = json.loads(out.read_text())
        report["result"]["count"]["value"] = "1"
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        return code

    ops = _ops(["cover-B10"], tmp_path, refs)
    assert run.run_pass(ops, program).failed == 0
    monkeypatch.setattr(program.cli, "main", corrupting_main)
    result = run.run_pass(ops, program)
    assert (len(result.results), result.failed) == (1, 1)
    assert "result fields differ" in result.results[0].error


def test_power_sum_off_reference_is_a_failure(program, refs):
    ref = refs["power_sums"]["draws"][5]
    good = program.gcd_power_sum(*ref[:3])
    assert workloads.check_power_sum(ref, good) is None
    bad = program.GcdPowerSum(total=good.total * (1 + 1e-20),
                              majorant=good.majorant, terms=good.terms)
    assert "total off the reference" in workloads.check_power_sum(ref, bad)


def test_traced_and_untraced_reports_are_identical(program, refs, tmp_path):
    names = ["cover-B16", "aux-B30-p5-p7", "unlike-B8", "enumerate-B150"]
    ops = _ops(names, tmp_path, refs)

    def reports():
        return [op.out_path.read_bytes() for op in ops]

    assert run.run_pass(ops, program).failed == 0
    untraced = reports()
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert run.run_pass(ops, program, tracer).failed == 0
    assert reports() == untraced
    assert {s[layertrace.NAME].split(".")[0] for s in tracer.spans} == set(
        layertrace.LAYERS)
    # the wrappers are gone again
    assert program.cli.main is program.cli.main.__globals__["main"]
    assert not hasattr(program.determinant.build_matrix, "__wrapped__")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_for_every_workload(program, refs, tmp_path, workload):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ops = _ops([CHEAP[workload]], tmp_path, refs)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        passes, metrics = run.measure(ops, program, 0, trace)
        assert sum(p.failed for p in passes) == 0
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert set(metrics) == set(declared)
        assert all(run.UNITS[name] == unit for name, unit in declared.items())
        assert all(isinstance(v, (int, float)) for v in metrics.values())
