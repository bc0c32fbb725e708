"""Exit codes, report schema, the report writer, determinism, slope fitting."""

import errno
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import detsieve.applications
import detsieve.cli
import detsieve.determinant
import detsieve.enumeration
import detsieve.exponents
from detsieve.applications import UnlikePowersInstance
from detsieve.cli import UsageError, _poly_field, fit_exponent, main, run
from detsieve.determinant import aux_pipeline
from detsieve.errors import CapExceeded, ContractViolation, SoundnessError
from detsieve.exponents import (
    BoxBounds,
    ExactLog,
    build_exponent_set,
    choose_Y,
    main_term_deviation,
    max_exponent,
    staircase_size,
)

SPHERE5 = {
    "nvars": 3,
    "terms": [[[2, 0, 0], 1], [[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -5]],
}
TRIVIAL_G = {"nvars": 3, "terms": [[[0, 1, 0], 1]]}
CONG_F = {
    "nvars": 3,
    "terms": [[[2, 0, 0], 5], [[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -6]],
}
CONG_G = {
    "nvars": 3,
    "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -6]],
}

TOP_KEYS = {"instance", "result", "certificates", "diagnostics", "timings", "provenance"}


def invoke(tmp_path, command, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *extra])


def invoke_json(tmp_path, capsys, command, config, *extra):
    code = invoke(tmp_path, command, config, *extra)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        assert invoke(tmp_path, "enumerate", cfg) == 0

    def test_missing_field_is_usage_error(self, tmp_path, capsys):
        cfg = {"a": [1, 1, 1], "B": 10}  # no 'n'
        assert invoke(tmp_path, "quadric", cfg) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_unreadable_config(self, capsys):
        assert main(["enumerate", "--config", "/nonexistent/x.json"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["enumerate", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", (
        # json.load raises a plain ValueError past the 4 300-digit limit
        b'{"a": [1, 1, 1], "n": ' + b"7" * 5000 + b', "B": 10}',
        b'{"a": [1, 1, 1], "n": 5, "B": 10, "note": "\xff"}',
    ), ids=("5000-digit-integer", "not-utf8"))
    def test_unparseable_config_is_a_usage_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["quadric", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot read config:")
        assert "Traceback" not in err

    def test_out_into_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        out = tmp_path / "missing" / "report.json"
        assert invoke(tmp_path, "enumerate", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: cannot write report:")
        assert not out.exists()

    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        assert invoke(tmp_path, "enumerate", cfg) == 1
        assert capsys.readouterr().err == ""

    def test_closed_pipe_leaves_nothing_for_the_exit_flush(self, tmp_path):
        # a buffered stdout would otherwise fail again when Python flushes
        # it at exit, with an "Exception ignored" message and exit 120
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"f": SPHERE5, "g": TRIVIAL_G, "box": [3, 3, 3]}))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = os.path.dirname(os.path.dirname(detsieve.cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "detsieve.cli", "enumerate", "--config", str(path)],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_invalid_instance(self, tmp_path, capsys):
        cfg = {"a": [1, 1, 1], "n": -4, "B": 10}  # rational lines possible
        assert invoke(tmp_path, "quadric", cfg) == 1
        assert capsys.readouterr().err.startswith("invalid instance:")

    def test_hypothesis_violation(self, tmp_path, capsys):
        bad_g = {
            "nvars": 3,
            "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -5]],
        }
        cfg = {
            "f": CONG_F, "g": bad_g, "q": 5,
            "box": [2, 2, 3], "epsilon": 0.5,
        }
        assert invoke(tmp_path, "aux", cfg) == 2
        assert capsys.readouterr().err.startswith("hypothesis violation:")

    def test_unknown_command(self, capsys):
        assert main(["transmute", "--config", "x.json"]) == 1

    def test_soundness_failure_has_its_own_code(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise SoundnessError("kernel polynomial fails to vanish")

        monkeypatch.setattr(detsieve.cli, "enumerate_points", broken)
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        assert invoke(tmp_path, "enumerate", cfg) == 3
        err = capsys.readouterr().err
        assert err.startswith("soundness failure (bug):")
        assert "fails to vanish" in err


class TestReportSchema:
    def test_enumerate_report(self, tmp_path, capsys):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        report = invoke_json(tmp_path, capsys, "enumerate", cfg)
        assert set(report) == TOP_KEYS
        assert report["result"]["count"] == {"value": "24", "provenance": "exact"}
        assert report["provenance"]["command"] == "enumerate"
        assert report["provenance"]["seed"] == 0

    def test_counts_are_decimal_strings(self, tmp_path, capsys):
        cfg = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2]}
        report = invoke_json(tmp_path, capsys, "enumerate", cfg)
        count = report["result"]["count"]["value"]
        assert isinstance(count, str)
        assert re.fullmatch(r"-?[0-9]+", count)

    def test_certify_report(self, tmp_path, capsys):
        cfg = {
            "f": CONG_F, "g": CONG_G, "q": 5,
            "box": [2, 2, 2], "cutoff_base": 2, "cutoff_power": 3,
        }
        report = invoke_json(tmp_path, capsys, "certify", cfg)
        assert set(report) == TOP_KEYS
        assert report["result"]["points"]["value"] == "8"
        assert report["result"]["set_size"]["value"] == 16
        assert report["result"]["rank"]["value"] == 8
        (cert,) = report["certificates"]
        assert cert["lambda"]["value"] == 4
        assert cert["certified_divisor"]["value"] == str(5**4)
        assert cert["shift"] == [0, 0, 0]
        dev = report["diagnostics"]["main_term_deviation_count"]
        assert dev["provenance"] == "main-term-diagnostic"

    def test_aux_report_flags_branch(self, tmp_path, capsys):
        cfg = {
            "f": CONG_F, "g": CONG_G, "q": 5,
            "box": [2, 2, 2], "epsilon": 0.5, "floor_const": 10,
        }
        report = invoke_json(tmp_path, capsys, "aux", cfg)
        assert report["result"]["branch"] == "standard"
        assert report["result"]["coverage_complete"] is True
        assert report["diagnostics"]["floor_constant"]["value"] == 10
        rv = report["diagnostics"]["residue_valuation_main_term"]
        assert rv["provenance"] == "main-term-diagnostic"

    def test_point_free_aux_report_builds_its_deviation(self, tmp_path, capsys):
        # 5 x1^2 + x2^2 + x3^2 = 3 has no points in these boxes, so no
        # member is walked: the report's staircase gives the main-term
        # deviation from its slab sums
        f = {"nvars": 3, "terms": CONG_F["terms"][:3] + [[[0, 0, 0], -3]]}
        g = {"nvars": 3, "terms": CONG_G["terms"][:2] + [[[0, 0, 0], -3]]}
        for box in ([2, 2, 2], [2, 2, 3]):
            cfg = {"f": f, "g": g, "q": 5, "box": box,
                   "epsilon": 0.5, "floor_const": 10}
            report = invoke_json(tmp_path, capsys, "aux", cfg)
            assert report["result"]["count"]["value"] == "0"
            assert report["result"]["classes"] == []
            bounds = BoxBounds(*box)
            rep = aux_pipeline(
                _poly_field(cfg, "f"), detsieve.exponents.SideCondition(_poly_field(cfg, "g"), 5),
                bounds, None, 0.5, [], floor_const=10,
            )
            E = rep.exponent_set
            assert E == build_exponent_set(rep.cutoff, rep.params.dominant, bounds)
            dev_count, dev_sum = main_term_deviation(E)
            assert "members" not in vars(E)
            diag = report["diagnostics"]
            assert diag["set_size"]["value"] == len(E) == rep.set_size
            assert diag["cutoff"]["height"]["value"] == str(rep.cutoff.height)
            assert diag["main_term_deviation_count"]["value"] == float(dev_count)
            assert diag["main_term_deviation_sum"]["value"] == float(dev_sum)

    def test_quadric_report_carries_predictions(self, tmp_path, capsys):
        cfg = {"a": [1, 1, 1], "n": 5, "B": 10}
        report = invoke_json(tmp_path, capsys, "quadric", cfg)
        assert report["result"]["count"]["value"] == "24"
        powers = report["diagnostics"]["predicted_box_powers"]
        assert [p["value"] for p in powers] == ["4/3", "7/6", "1/2"]

    def test_unlike_report(self, tmp_path, capsys):
        cfg = {"k": 5, "l": 3, "m": 2, "N": 4, "B": 1}
        report = invoke_json(tmp_path, capsys, "unlike", cfg)
        assert report["result"]["count"]["value"] == "2"

    def test_unlike_sliced_pipeline_report(self, tmp_path, capsys):
        cfg = {"k": 13, "l": 5, "m": 3, "N": 2, "B": 5, "mode": "sliced-pipeline"}
        result = invoke_json(tmp_path, capsys, "unlike", cfg)["result"]
        assert result["count"] == {"value": "18", "provenance": "exact"}
        assert result["zero_slice_count"] == {"value": "11", "provenance": "exact"}
        assert result["slices"] == [[1, {"value": "4", "provenance": "exact"}],
                                    [2, {"value": "3", "provenance": "exact"}]]
        assert result["assumed_hypothesis"] == (
            "slice surfaces assumed geometrically irreducible for every nonzero u"
        )
        meet = invoke_json(tmp_path, capsys, "unlike", dict(cfg, mode="meet-in-middle"))
        assert meet["result"] == {"count": result["count"]}

    def test_class_entries_read_each_number_from_its_owner(self, tmp_path, capsys):
        # one class, falsified: its rows are its points, its columns the
        # report's set size, and its threshold the report's threshold
        f = {"nvars": 3, "terms": [[[2, 0, 0], 5], [[0, 2, 0], 1], [[0, 0, 2], 1],
                                   [[0, 0, 0], -174]]}
        g = {"nvars": 3, "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -174]]}
        cfg = {"f": f, "g": g, "q": 5, "box": [13, 13, 13], "epsilon": 0.5,
               "scale_override": 2, "floor_const": 2}
        report = invoke_json(tmp_path, capsys, "aux", cfg)
        (entry,) = report["result"]["classes"]
        diag = report["diagnostics"]
        assert entry["outcome"] == "falsified"
        assert entry["rows"]["value"] == len(entry["points"]["value"]) == 32
        assert entry["columns"]["value"] == diag["set_size"]["value"] == 9
        rec = entry["falsification"]
        assert rec["threshold"] == diag["threshold"] == {"value": 2.0, "provenance": "float"}
        assert len(rec["rows"]) == 9
        (cert,) = (report["certificates"][i] for i in entry["certificate_indices"])
        assert cert["det_transform"]["value"] == "1"
        assert cert["certified_divisor"]["value"] == str(5 ** cert["lambda"]["value"])
        for m in cert["checked_minors"]:
            assert m["determinant_zero"] == (m["valuation"] is None)

    def test_timings_are_counters(self, tmp_path, capsys):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        report = invoke_json(tmp_path, capsys, "enumerate", cfg)
        assert "note" in report["timings"]
        assert "deterministic" in report["timings"]["note"]

    def test_out_file(self, tmp_path):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        out = tmp_path / "report.json"
        code = invoke(tmp_path, "enumerate", cfg, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["result"]["count"]["value"] == "24"


# one config per command; quadric's is a list config
EVERY_COMMAND = {
    "enumerate": {"f": SPHERE5, "g": TRIVIAL_G, "box": [3, 3, 3]},
    "certify": {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2],
                "cutoff_base": 2, "cutoff_power": 3},
    "aux": {"f": CONG_F, "g": CONG_G, "q": 5, "box": [4, 4, 4], "epsilon": 0.5,
            "residue_primes": [3]},
    "quadric": [{"a": [1, 1, 1], "n": 5, "B": 4},
                {"a": [3, 1, 1], "n": 1001, "B": 10, "mode": "pipeline"}],
    "unlike": {"k": 13, "l": 5, "m": 3, "N": 2, "B": 5, "mode": "sliced-pipeline"},
    "fit": {"counts": [[10, 100], [20, 400], [40, 1600]],
            "quadric": {"a": [1, 1, 1], "n": 5}, "unlike": {"k": 5, "l": 3, "m": 2, "N": 4}},
}

# characters json.dumps escapes or spells out: quotes, backslashes, control
# characters, DEL, non-ASCII inside and outside the basic plane
FUZZ_CHARS = 'ab Z"\\/\n\r\t\b\f\x00\x1f\x7f\xe9\u20ac\u2028\U0001f600'
FUZZ_SCALARS = [
    None, True, False, 0, -1, 2 ** 64, -(2 ** 64) - 1, 10 ** 40, 0.0, -0.0, 0.1, -2.5,
    1e16, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf, "", [], {}, (), [[]],
    {"": {}}, [(), {}],
]


def fuzz_text(rng):
    return "".join(rng.choice(FUZZ_CHARS) for _ in range(rng.randrange(6)))


def fuzz_tree(rng, depth):
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice(FUZZ_SCALARS)
    if kind == 1:
        return rng.choice((rng.uniform(-1e6, 1e6), rng.randint(-(2 ** 70), 2 ** 70)))
    if kind == 2:
        return fuzz_text(rng)
    items = [fuzz_tree(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 3:
        return items
    if kind == 4:
        return tuple(items)
    return {fuzz_text(rng): v for v in items}


def dumps(x) -> str:
    """What the CLI writes for x, less the final newline."""
    return "".join(detsieve.cli._encode(x, "\n", []))


def str_keys_only(x) -> bool:
    if isinstance(x, dict):
        return all(type(k) is str and str_keys_only(v) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return all(map(str_keys_only, x))
    return True


class TestReportWriter:
    """The CLI writes exactly json.dumps(report, sort_keys=True, indent=2)."""

    def test_every_command_matches_json_dumps(self, tmp_path, capsys):
        assert set(EVERY_COMMAND) == set(detsieve.cli._HANDLERS)
        for command, config in EVERY_COMMAND.items():
            report = run(command, config, seed=3)
            assert str_keys_only(report), command
            want = (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()
            out = tmp_path / f"{command}.json"
            assert invoke(tmp_path, command, config, "--seed", "3", "--out", str(out)) == 0
            assert out.read_bytes() == want, command
            assert invoke(tmp_path, command, config, "--seed", "3") == 0
            assert capsys.readouterr().out.encode() == want, command

    def test_fuzzed_trees_match_json_dumps(self):
        rng = random.Random(32)
        trees = FUZZ_SCALARS + [fuzz_tree(rng, 4) for _ in range(600)]
        for tree in trees:
            assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)
        assert dumps("\x00\u20ac\U0001f600") == '"\\u0000\\u20ac\\ud83d\\ude00"'
        assert dumps([math.nan, -math.inf, -0.0]) == "[\n  NaN,\n  -Infinity,\n  -0.0\n]"

    @pytest.mark.parametrize("bad", [{1, 2}, Fraction(1, 3), [{"a": frozenset()}], object()])
    def test_what_json_dumps_refuses_is_refused(self, bad):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)

    @pytest.mark.parametrize("bad", [{1: "a"}, {"a": {None: 1}}, [{2.5: 0}], {True: 1}])
    def test_a_key_that_is_not_a_str_is_refused(self, bad):
        # json.dumps writes these keys as strings; reports have none
        json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)


class TestDeterminism:
    def test_byte_identical_across_runs(self, tmp_path):
        config = [
            {"a": [1, 1, 1], "n": 5, "B": b} for b in (4, 6, 8)
        ] + [
            {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "pipeline", "floor_const": 10},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(config))
        first = tmp_path / "r1.json"
        second = tmp_path / "r2.json"
        assert main(["quadric", "--config", str(path), "--out", str(first)]) == 0
        assert main(["quadric", "--config", str(path), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_list_config_preserves_order(self, tmp_path, capsys):
        config = [
            {"k": 5, "l": 3, "m": 2, "N": 4, "B": 1},
            {"k": 5, "l": 3, "m": 2, "N": 9999, "B": 2},
        ]
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(config))
        assert main(["unlike", "--config", str(path)]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["result"]["count"]["value"] for r in reports] == ["2", "0"]

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        assert invoke(tmp_path, "enumerate", cfg, "--threads", "2") == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_seed_recorded(self, tmp_path, capsys):
        cfg = {"f": SPHERE5, "g": TRIVIAL_G, "box": [10, 10, 10]}
        report = invoke_json(tmp_path, capsys, "enumerate", cfg, "--seed", "17")
        assert report["provenance"]["seed"] == 17


class TestPolynomialConfigs:
    def test_terms_must_be_lists(self, tmp_path, capsys):
        cfg = {"f": {"nvars": 3, "terms": "x^2"}, "g": TRIVIAL_G, "box": [2, 2, 2]}
        assert invoke(tmp_path, "enumerate", cfg) == 1
        assert "usage error" in capsys.readouterr().err

    def test_exponent_arity_checked(self, tmp_path, capsys):
        cfg = {
            "f": {"nvars": 3, "terms": [[[2, 0], 1]]},
            "g": TRIVIAL_G, "box": [2, 2, 2],
        }
        assert invoke(tmp_path, "enumerate", cfg) == 1

    def test_boolean_int_fields_rejected(self, tmp_path, capsys):
        cfg = {"a": [1, 1, 1], "n": True, "B": 10}
        assert invoke(tmp_path, "quadric", cfg) == 1


class TestTypedFields:
    AUX = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2],
           "epsilon": 0.5, "floor_const": 10}

    def usage_error(self, tmp_path, capsys, command, cfg, field):
        assert invoke(tmp_path, command, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert f"'{field}'" in err

    def test_residue_primes_string_rejected(self, tmp_path, capsys):
        # a string used to be read digit by digit, as the primes [5, 7]
        cfg = dict(self.AUX, residue_primes="57")
        self.usage_error(tmp_path, capsys, "aux", cfg, "residue_primes")

    def test_residue_primes_list_accepted(self, tmp_path, capsys):
        report = invoke_json(tmp_path, capsys, "aux", dict(self.AUX, residue_primes=[3]))
        assert report["diagnostics"]["residue_primes"] == [3]

    def test_quadric_coefficients_must_be_integers(self, tmp_path, capsys):
        for a in (["x", 1, 1], [1.5, 1, 1], [1, 1]):
            cfg = {"a": a, "n": 5, "B": 10}
            self.usage_error(tmp_path, capsys, "quadric", cfg, "a")
        cfg = {"counts": [[10, 1], [20, 2], [40, 4]],
               "quadric": {"a": ["x", 1, 1], "n": 5}}
        self.usage_error(tmp_path, capsys, "fit", cfg, "a")

    def test_epsilon_must_be_a_number(self, tmp_path, capsys):
        self.usage_error(tmp_path, capsys, "aux", dict(self.AUX, epsilon="abc"), "epsilon")
        cfg = {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "pipeline", "epsilon": "abc"}
        self.usage_error(tmp_path, capsys, "quadric", cfg, "epsilon")


    def test_floor_const_must_be_a_nonnegative_integer(self, tmp_path, capsys):
        # "abc" used to escape as a traceback and 2.7 to run as 2
        for bad in ("abc", 2.7, True, -1, [10]):
            self.usage_error(tmp_path, capsys, "aux", dict(self.AUX, floor_const=bad),
                             "floor_const")
            cfg = {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "pipeline", "floor_const": bad}
            self.usage_error(tmp_path, capsys, "quadric", cfg, "floor_const")

    def test_scale_override_must_be_a_finite_number(self, tmp_path, capsys):
        for bad in ("abc", [1], True, math.inf, math.nan):
            self.usage_error(tmp_path, capsys, "aux", dict(self.AUX, scale_override=bad),
                             "scale_override")

    def test_box_must_be_three_integers(self, tmp_path, capsys):
        # "abc" and null used to escape as tracebacks, "5" and 2.0 to run as 5 and 2
        cfgs = {
            "enumerate": {"f": CONG_F, "g": CONG_G, "q": 5},
            "certify": {"f": CONG_F, "g": CONG_G, "q": 5, "cutoff_power": 3},
            "aux": self.AUX,
        }
        for command, cfg in cfgs.items():
            for bad in (["abc", 3, 3], [None, 3, 3], ["5", 3, 3], [2.0, 3, 3],
                        [2.5, 3, 3], [True, 3, 3], [2, 2]):
                self.usage_error(tmp_path, capsys, command, dict(cfg, box=bad), "box")
            assert invoke(tmp_path, command, dict(cfg, box=[1, 3, 3])) == 1
            assert capsys.readouterr().err.startswith("invalid instance:")

    def test_floor_const_and_scale_override_accepted(self, tmp_path, capsys):
        cfg = dict(self.AUX, floor_const=12, scale_override=3)
        report = invoke_json(tmp_path, capsys, "aux", cfg)
        assert report["diagnostics"]["floor_constant"]["value"] == 12
        assert report["diagnostics"]["threshold"]["value"] == 3.0


class TestStrictIntegers:
    CERTIFY = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2],
               "cutoff_base": 2, "cutoff_power": 3}

    usage_error = TestTypedFields.usage_error

    def test_polynomial_entries_must_be_integers(self, tmp_path, capsys):
        # 2.5, true, "5" and 5.0 used to run as 2, 1, 5 and 5; Infinity and
        # a terms of null or 2.5 used to escape as tracebacks
        lead = CONG_F["terms"][0]
        bad_terms = [[[2.5, 0, 0], 5]] + [[lead[0], c] for c in (True, "5", 5.0, math.inf)]
        for term in bad_terms:
            f = dict(CONG_F, terms=[term] + CONG_F["terms"][1:])
            self.usage_error(tmp_path, capsys, "certify", dict(self.CERTIFY, f=f), "f")
        for terms in (None, 2.5, -1, "x", [5], [[[2, 0, 0]]], [[2, 5]]):
            f = dict(CONG_F, terms=terms)
            self.usage_error(tmp_path, capsys, "certify", dict(self.CERTIFY, f=f), "f.terms")
        for nvars in (True, 3.0, "3", None, 0):
            g = dict(CONG_G, nvars=nvars)
            self.usage_error(tmp_path, capsys, "certify", dict(self.CERTIFY, g=g), "g")

    def test_duplicate_terms_still_add_up(self, tmp_path, capsys):
        f = dict(CONG_F, terms=CONG_F["terms"] + [[[2, 0, 0], 1], [[2, 0, 0], -1]])
        same = invoke_json(tmp_path, capsys, "certify", dict(self.CERTIFY, f=f))
        assert same == invoke_json(tmp_path, capsys, "certify", self.CERTIFY)

    def test_nonsingular_only_must_be_a_bool(self, tmp_path, capsys):
        # "false" used to switch the filter on, and the report echoed true
        cfg = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2]}
        for bad in ("false", "true", 0, 1, None, [True]):
            self.usage_error(tmp_path, capsys, "enumerate",
                             dict(cfg, nonsingular_only=bad), "nonsingular_only")
        for flag in (True, False):
            report = invoke_json(tmp_path, capsys, "enumerate",
                                 dict(cfg, nonsingular_only=flag))
            assert report["instance"]["nonsingular_only"] is flag

    def test_fit_counts_and_sub_configs(self, tmp_path, capsys):
        # 3.7, true and "3" used to run as 3, 1 and 3; a null or non-object
        # sub-config used to escape as a traceback
        cfg = {"counts": [[10, 100], [20, 400], [40, 1600]]}
        for bad in ([40, 3.7], [40, True], [40, "3"], [2.5, 3], [40], [40, 3, 1], 40):
            counts = cfg["counts"][:2] + [bad]
            self.usage_error(tmp_path, capsys, "fit", {"counts": counts}, "counts")
        for key, bad in (("quadric", None), ("unlike", 5), ("quadric", [1, 1, 1])):
            self.usage_error(tmp_path, capsys, "fit", dict(cfg, **{key: bad}), key)
        report = invoke_json(tmp_path, capsys, "fit", cfg)
        assert report["instance"]["counts"] == [[10, "100"], [20, "400"], [40, "1600"]]

    def test_cutoff_power_must_be_positive(self, tmp_path, capsys):
        # 0 used to escape as a ZeroDivisionError from the main-term diagnostic
        for bad in (0, -1):
            self.usage_error(tmp_path, capsys, "certify",
                             dict(self.CERTIFY, cutoff_power=bad), "cutoff_power")
        report = invoke_json(tmp_path, capsys, "certify", dict(self.CERTIFY, cutoff_power=1))
        assert report["instance"]["cutoff"]["height"]["value"] == "2"

    @pytest.mark.parametrize("command", ("certify", "aux", "quadric"))
    def test_minor_samples_must_be_nonnegative(self, tmp_path, capsys, command):
        # -3 used to run, checking the identity subset alone
        cfg = {
            "certify": self.CERTIFY,
            "aux": TestTypedFields.AUX,
            "quadric": {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "pipeline"},
        }[command]
        for bad in (-3, -1, 2.5, "8"):
            self.usage_error(tmp_path, capsys, command, dict(cfg, minor_samples=bad),
                             "minor_samples")
        invoke_json(tmp_path, capsys, command, dict(cfg, minor_samples=0))

    def test_minor_samples_count_on_a_tall_certificate(self, tmp_path, capsys):
        f = {"nvars": 3, "terms": [[[2, 0, 0], 7], [[0, 2, 0], 1], [[0, 0, 2], -1],
                                   [[0, 0, 0], -7]]}
        g = dict(f, terms=f["terms"][1:])
        cfg = {"f": f, "g": g, "q": 7, "box": [25, 25, 25],
               "cutoff_base": 25, "cutoff_power": 4}
        for samples, checked in ((None, 33), (0, 1), (3, 4)):
            run_cfg = cfg if samples is None else dict(cfg, minor_samples=samples)
            report = invoke_json(tmp_path, capsys, "certify", run_cfg)
            assert report["result"]["total_lambda"]["value"] == 10
            (cert,) = report["certificates"]
            assert len(cert["checked_minors"]) == checked

    def test_floor_const_zero_exits_cleanly(self, tmp_path, capsys):
        # a floor of 0 lets aux pick cutoff height 1, where the main terms
        # vanish; this used to escape as a ZeroDivisionError.  The report leaves out the two deviation
        # diagnostics, and the library call still refuses that height.
        sphere6 = {"nvars": 3, "terms": SPHERE5["terms"][:3] + [[[0, 0, 0], -6]]}
        configs = [dict(TestTypedFields.AUX, floor_const=0, residue_primes=[3])]
        configs += [{"f": sphere6, "g": CONG_G, "q": q, "box": [3, 3, 3], "epsilon": 0.5,
                     "floor_const": 0, "scale_override": 0.5} for q in (5, 1)]
        for cfg in configs:
            diag = invoke_json(tmp_path, capsys, "aux", cfg)["diagnostics"]
            assert diag["cutoff"]["height"]["value"] == "1"
            assert not any(key.startswith("main_term_deviation") for key in diag)
        E = build_exponent_set(ExactLog(1), (2, 0, 0), BoxBounds(3, 3, 3))
        with pytest.raises(ContractViolation, match="cutoff height 1"):
            main_term_deviation(E)


class Started(Exception):
    """Raised by a stand-in for the worker: the command got past its cap."""


class TestUnlikeWorkCap:
    @pytest.fixture(autouse=True)
    def no_count(self, monkeypatch):
        # no test here starts the work: the first power table, or in
        # sliced-pipeline the alternating factor, past the cap raises at once
        def stand_in(*args):
            raise Started(*args)

        for name in ("_power_map", "_alternating_factor"):
            monkeypatch.setattr(detsieve.applications, name, stand_in)

    @pytest.mark.parametrize("mode", ("brute", "meet-in-middle", "sliced-pipeline"))
    def test_huge_box_refused_before_counting(self, tmp_path, capsys, mode):
        cfg = {"k": 13, "l": 5, "m": 3, "N": 2, "B": 10 ** 30, "mode": mode}
        assert invoke(tmp_path, "unlike", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "needs over" in err
        assert "Traceback" not in err

    # brute (2B+1)^4 steps, meet-in-middle a table of (2B+1)^2 pair sums,
    # sliced-pipeline 4B + 1 slices of (2B+1)^2 steps
    @pytest.mark.parametrize("mode, B", (("brute", 49), ("meet-in-middle", 1580),
                                         ("sliced-pipeline", 183)))
    def test_cap_sits_between_two_box_sizes(self, mode, B):
        def work(b):
            n = 2 * b + 1
            return {"brute": n ** 4, "meet-in-middle": n ** 2,
                    "sliced-pipeline": (4 * b + 1) * n ** 2}[mode]

        apps = detsieve.applications
        cap = apps.UNLIKE_TABLE_CAP if mode == "meet-in-middle" else apps.UNLIKE_WORK_CAP
        assert work(B) <= cap < work(B + 1)
        cfg = {"k": 13, "l": 5, "m": 3, "N": 2, "B": B, "mode": mode}
        with pytest.raises(Started):
            run("unlike", cfg)
        with pytest.raises(CapExceeded, match="needs over"):
            run("unlike", dict(cfg, B=B + 1))


class TestQuadricUnitCube:
    # 3x1^2 + x2^2 + x3^2 = 5 has 8 points in [-1, 1]^3
    CFG = {"a": [3, 1, 1], "n": 5, "B": 1}

    def test_brute_counts_the_unit_cube(self, tmp_path, capsys):
        report = invoke_json(tmp_path, capsys, "quadric", self.CFG)
        plain = sum(1 for x in itertools.product(range(-1, 2), repeat=3)
                    if 3 * x[0] ** 2 + x[1] ** 2 + x[2] ** 2 == 5)
        assert report["result"]["count"]["value"] == str(plain) == "8"

    def test_pipeline_refuses_the_unit_cube(self, tmp_path, capsys):
        # the pipeline's box bounds are at least 2
        assert invoke(tmp_path, "quadric", dict(self.CFG, mode="pipeline")) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid instance:") and "Traceback" not in err


class TestEpsilonCap:
    AUX = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2], "epsilon": 1e300}
    QUADRIC = {"a": [3, 1, 1], "n": 1001, "B": 10, "mode": "pipeline", "epsilon": 1e8}

    # 1e300 used to end in an OverflowError traceback, 1e8 to run past 20 s
    @pytest.mark.parametrize("command, cfg", (("aux", AUX), ("quadric", QUADRIC)),
                             ids=("aux", "quadric"))
    def test_huge_epsilon_refused_at_once(self, tmp_path, capsys, command, cfg):
        start = time.perf_counter()
        assert invoke(tmp_path, command, cfg) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("invalid instance:") and "epsilon must be at most" in err
        assert "Traceback" not in err


class TestDegreeCap:
    X1_SQUARE = [[2, 0, 0], 1]
    ENUMERATE = {
        "f": {"nvars": 3, "terms": [X1_SQUARE, [[0, 0, 100000], 1], [[0, 0, 0], -2]]},
        "g": {"nvars": 3, "terms": [[[0, 2, 0], 1], [[0, 0, 0], -1]]},
        "q": 3, "box": [2, 2, 2],
    }
    UNLIKE = {"k": 10_000_001, "l": 5, "m": 3, "N": 2, "B": 5}

    # x3^100000 used to take 4.9 s, k = 10 000 001 to run past 30 s
    @pytest.mark.parametrize("command, cfg", (("enumerate", ENUMERATE), ("unlike", UNLIKE)),
                             ids=("enumerate", "unlike"))
    def test_huge_degree_refused_at_once(self, tmp_path, capsys, command, cfg):
        start = time.perf_counter()
        assert invoke(tmp_path, command, cfg) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "degree cap 1000" in err
        assert "Traceback" not in err

    def test_cap_sits_between_two_degrees(self):
        cap = detsieve.enumeration.DEGREE_CAP

        def term(e2, e3):
            return {"nvars": 3, "terms": [[[0, e2, e3], 1], [[0, 0, 0], -1]]}

        f_at = {"nvars": 3, "terms": [self.X1_SQUARE, [[0, 0, cap], 1], [[0, 0, 0], -2]]}
        report = run("enumerate", dict(self.ENUMERATE, f=f_at))
        # x1, x3 = +-1 and x2^2 = 1 mod 3 at x2 = +-1, +-2
        assert report["result"]["count"]["value"] == "16"
        # x2^999 x3 = 1 mod 3: x1 = +-1, x3 = +-1, two x2 for each x3
        report = run("enumerate", dict(self.ENUMERATE, f=f_at, g=term(cap - 1, 1)))
        assert report["result"]["count"]["value"] == "8"
        f_over = dict(f_at, terms=[self.X1_SQUARE, [[0, 0, cap + 1], 1], [[0, 0, 0], -2]])
        with pytest.raises(CapExceeded, match="surface polynomial has degree 1001"):
            run("enumerate", dict(self.ENUMERATE, f=f_over))
        with pytest.raises(CapExceeded, match="side polynomial has degree 1001"):
            run("enumerate", dict(self.ENUMERATE, f=f_at, g=term(cap, 1)))
        for name in ("k", "l", "m"):
            exps = {"k": 13, "l": 5, "m": 3}
            UnlikePowersInstance(**dict(exps, **{name: cap}), N=2, B=5)
            with pytest.raises(CapExceeded, match="exponent 1001 is over the degree cap"):
                UnlikePowersInstance(**dict(exps, **{name: cap + 1}), N=2, B=5)


class TestCertifyColumnCap:
    CERTIFY = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2],
               "cutoff_base": 2, "cutoff_power": 3}

    @pytest.fixture(autouse=True)
    def no_build(self, monkeypatch):
        # no test here builds a staircase: the stand-in raises at once
        def stand_in(cutoff, m, box):
            raise Started(cutoff.height)

        monkeypatch.setattr(detsieve.cli, "build_exponent_set", stand_in)

    def test_huge_power_refused_before_the_power_is_formed(self, tmp_path, capsys,
                                                           monkeypatch):
        def never(*args):
            raise Started("formed the cutoff")

        monkeypatch.setattr(detsieve.exponents.ExactLog, "power", never)
        monkeypatch.setattr(detsieve.exponents, "staircase_size", never)
        for base in (2, 10 ** 6):
            cfg = dict(self.CERTIFY, cutoff_base=base, cutoff_power=10 ** 30)
            assert invoke(tmp_path, "certify", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "columns" in err
            assert "Traceback" not in err

    def test_cap_sits_between_two_powers(self):
        # box (10^6, 2, 2) and dominant x1^2: the columns at 2^P are the
        # (e2, e3) with e2 + e3 <= P at e1 = 0 and <= P - 20 at e1 = 1
        def columns(P):
            return math.comb(P + 2, 2) + math.comb(P - 18, 2)

        cap = detsieve.exponents.COLUMN_CAP
        P = next(P for P in itertools.count(20) if columns(P + 1) > cap)
        box = BoxBounds(10 ** 6, 2, 2)
        for power in (P, P + 1):
            assert staircase_size(ExactLog.power(2, power), (2, 0, 0), box) == columns(power)
        cfg = dict(self.CERTIFY, box=[10 ** 6, 2, 2])
        with pytest.raises(Started):
            run("certify", dict(cfg, cutoff_power=P))
        with pytest.raises(CapExceeded, match="needs over"):
            run("certify", dict(cfg, cutoff_power=P + 1))

    def test_lower_bound_never_refuses_a_config_under_the_cap(self, monkeypatch):
        # with the cap at a config's exact column count it must still run,
        # and one below it must be refused
        rng = random.Random(3)
        f = _poly_field({"f": CONG_F}, "f")
        for _ in range(60):
            bounds = [rng.randint(2, 40) for _ in range(3)]
            base, power = rng.randint(2, 40), rng.randint(1, 12)
            box = BoxBounds(*bounds)
            m = max_exponent(f, box)
            exact = staircase_size(ExactLog.power(base, power), m, box)
            cfg = dict(self.CERTIFY, box=bounds, cutoff_base=base, cutoff_power=power)
            monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", exact)
            with pytest.raises(Started):
                run("certify", cfg)
            monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", exact - 1)
            with pytest.raises(CapExceeded, match="needs over"):
                run("certify", cfg)

    def test_cutoff_base_below_two_is_a_usage_error(self, tmp_path, capsys):
        for bad in (1, 0, -5):
            cfg = dict(self.CERTIFY, cutoff_base=bad, cutoff_power=10 ** 30)
            assert invoke(tmp_path, "certify", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "cutoff_base" in err


class TestCertifyRank:
    """certify reads its rank as |E| from a nonzero checked minor, else by
    elimination; either way it is the rank of the matrix."""

    TALL_F = {"nvars": 3, "terms": [[[2, 0, 0], 7], [[0, 2, 0], 1], [[0, 0, 2], -1],
                                    [[0, 0, 0], -7]]}
    TALL = {"f": TALL_F, "g": dict(TALL_F, terms=TALL_F["terms"][1:]), "q": 7,
            "box": [25, 25, 25], "cutoff_base": 25, "cutoff_power": 4}
    WIDE = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2],
            "cutoff_base": 2, "cutoff_power": 3}

    @staticmethod
    def matrix_rank(cfg):
        """The rank of the config's matrix, built and eliminated outside the CLI."""
        f, g = _poly_field(cfg, "f"), _poly_field(cfg, "g")
        box = BoxBounds(*cfg["box"])
        m = max_exponent(f, box)
        E = build_exponent_set(ExactLog.power(cfg["cutoff_base"], cfg["cutoff_power"]), m, box)
        side = detsieve.exponents.SideCondition(g, cfg["q"])
        pts = detsieve.enumeration.enumerate_points(f, side, box)
        return detsieve.determinant.rank_over_rationals(detsieve.determinant.build_matrix(pts, E))

    def certify(self, monkeypatch, cfg):
        """(report, checked minors, eliminations): the rank_over_rationals
        calls certify makes are counted."""
        calls = []
        real = detsieve.cli.rank_over_rationals
        monkeypatch.setattr(detsieve.cli, "rank_over_rationals",
                            lambda M: calls.append(M.shape) or real(M))
        report = run("certify", cfg)
        minors = [m for c in report["certificates"] for m in c["checked_minors"]]
        return report, minors, len(calls)

    def test_nonzero_minor_gives_full_rank(self, monkeypatch):
        report, minors, eliminations = self.certify(monkeypatch, self.TALL)
        assert not all(m["determinant_zero"] for m in minors)
        assert report["result"]["rank"]["value"] == self.matrix_rank(self.TALL) == 25
        assert eliminations == 0

    def test_wide_matrix_without_minors_is_eliminated(self, monkeypatch):
        report, minors, eliminations = self.certify(monkeypatch, self.WIDE)
        assert minors == []
        assert report["result"]["rank"]["value"] == self.matrix_rank(self.WIDE) == 8
        assert eliminations == 1

    def test_vanishing_minors_leave_the_rank_to_elimination(self, monkeypatch):
        # the first 25 points are dependent, so the one checked minor
        # vanishes, yet the 330 points have full rank
        cfg = dict(self.TALL, minor_samples=0)
        report, minors, eliminations = self.certify(monkeypatch, cfg)
        assert [m["determinant_zero"] for m in minors] == [True]
        assert minors[0]["rows"] == list(range(25))
        assert report["result"]["rank"]["value"] == self.matrix_rank(cfg) == 25
        assert eliminations == 1


class TestAuxGridCap:
    AUX = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [12, 20, 30], "epsilon": 0.5}

    def test_huge_floor_refused_before_any_height_is_formed(self, tmp_path, capsys,
                                                            monkeypatch):
        def never(*args):
            raise Started("formed a grid height")

        monkeypatch.setattr(detsieve.exponents, "_grid_height", never)
        monkeypatch.setattr(detsieve.determinant, "staircase_size", never)
        for floor_const in (10 ** 4, 10 ** 30):
            assert invoke(tmp_path, "aux", dict(self.AUX, floor_const=floor_const)) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "log grid 0" in err
            assert "Traceback" not in err

    def test_huge_scale_refused_below_the_cap(self, tmp_path, capsys, monkeypatch):
        # the search walks grid after grid; no grid past the cap forms a
        # height.  A tenth of the cap keeps the last counts short.
        box = BoxBounds(*self.AUX["box"])
        cap = detsieve.exponents.COLUMN_CAP // 10
        monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", cap)
        real = detsieve.exponents._grid_height
        starts = []
        sure_columns = detsieve.exponents._sure_columns
        log_bits = detsieve.exponents._log_bits

        def guarded(start, k):
            if sure_columns(log_bits(2 * start), box) > cap:
                raise Started("formed a height past the cap")
            starts.append(start)
            return real(start, k)

        monkeypatch.setattr(detsieve.exponents, "_grid_height", guarded)
        assert invoke(tmp_path, "aux", dict(self.AUX, scale_override=1e300)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "columns" in err
        assert "Traceback" not in err
        assert len(set(starts)) >= 5

    def test_huge_scale_refused_within_a_second(self, tmp_path, capsys):
        # the probes of grids 0 to 6 count staircases of up to 6 300 bits
        start = time.perf_counter()
        assert invoke(tmp_path, "aux", dict(self.AUX, scale_override=1e300)) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "cutoff search reaches log grid 7" in err

    def test_cap_sits_between_two_grids(self, monkeypatch):
        box = BoxBounds(4, 8, 16)
        z = Fraction(1, 1 << 8)
        start, log_bits = detsieve.exponents._grid_start, detsieve.exponents._log_bits
        tops = [detsieve.exponents._sure_columns(log_bits(2 * start(z, g)), box)
                for g in range(24)]
        g = next(g for g in range(24) if tops[g] > tops[g - 1] > 0)
        for cap, refused in ((tops[g], g + 1), (tops[g] - 1, g)):
            monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", cap)
            with pytest.raises(CapExceeded, match=f"log grid {refused},"):
                choose_Y(lambda y: False, box=box, floor_const=0, log_top=z)

    def test_sure_columns_never_exceed_the_staircase(self):
        rng = random.Random(8)
        for _ in range(200):
            box = BoxBounds(*(rng.choice((2, 3, 12, 30, 1000, 10 ** 6)) for _ in range(3)))
            m = tuple(rng.randint(0, 3) for _ in range(3))
            if not any(m):
                continue
            x = Fraction(rng.uniform(0, 60))
            cutoff = ExactLog(max(1, math.floor(math.exp(x))))
            a = detsieve.exponents._log_bits(x)
            exact = staircase_size(cutoff, m, box)
            assert detsieve.exponents._sure_columns(a, box) <= exact
            assert detsieve.exponents._sure_columns(a, box, m) <= exact


class TestAuxCutoffCap:
    # x1^10 + x2^2 + x3^2 = 3 on the equal box 5: the cutoff the search
    # chooses at scale 1100 holds 1 210 360 staircase columns
    AUX = {
        "f": {"nvars": 3, "terms": [[[10, 0, 0], 1], [[0, 2, 0], 1], [[0, 0, 2], 1],
                                    [[0, 0, 0], -3]]},
        "g": {"nvars": 3, "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -2]]},
        "q": 5, "box": [5, 5, 5], "epsilon": 0.5, "scale_override": 1100,
    }

    def test_equal_box_over_the_cap_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise Started("built a staircase")

        monkeypatch.setattr(detsieve.determinant, "build_exponent_set", never)
        monkeypatch.setattr(detsieve.cli, "build_exponent_set", never)
        assert invoke(tmp_path, "aux", self.AUX) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "1210360 staircase columns" in err
        assert "Traceback" not in err

    def test_cap_at_the_chosen_size_keeps_the_report(self, tmp_path, capsys, monkeypatch):
        cfg = TestTypedFields.AUX
        want = invoke_json(tmp_path, capsys, "aux", cfg)
        size = int(want["diagnostics"]["set_size"]["value"])
        monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", size)
        assert invoke_json(tmp_path, capsys, "aux", cfg) == want
        monkeypatch.setattr(detsieve.exponents, "COLUMN_CAP", size - 1)
        with pytest.raises(CapExceeded, match=f"needs {size} staircase columns"):
            run("aux", cfg)


class TestModulusFactoring:
    CERTIFY = {
        "f": {"nvars": 3, "terms": [[[2, 0, 0], 5], [[0, 2, 0], 1], [[0, 0, 2], 1],
                                    [[0, 0, 0], -7]]},
        "g": {"nvars": 3, "terms": [[[0, 2, 0], 1], [[0, 0, 2], 1], [[0, 0, 0], -2]]},
        "box": [2, 2, 2], "cutoff_base": 2, "cutoff_power": 3,
    }

    def test_mersenne_61_certified_within_a_second(self, tmp_path, capsys):
        q = 2 ** 61 - 1
        start = time.perf_counter()
        report = invoke_json(tmp_path, capsys, "certify", dict(self.CERTIFY, q=q))
        assert time.perf_counter() - start < 1
        (cert,) = report["certificates"]
        assert report["result"]["points"]["value"] == "8"
        assert cert["prime"]["value"] == str(q) and cert["prime_exponent"]["value"] == 1

    @pytest.mark.parametrize("command", ("certify", "aux"))
    def test_modulus_past_the_factoring_cap_is_a_usage_error(self, tmp_path, capsys,
                                                             command):
        q = 2 ** 89 - 1
        cfg = dict(self.CERTIFY, q=q)
        if command == "aux":
            del cfg["cutoff_base"], cfg["cutoff_power"]
            cfg.update(epsilon=0.5, floor_const=0, scale_override=1.5)
        assert invoke(tmp_path, command, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(q) in err
        assert "Traceback" not in err


class TestMinorSampleCap:
    CONFIGS = {
        "certify": TestStrictIntegers.CERTIFY,
        "aux": TestTypedFields.AUX,
        "quadric": {"a": [5, 1, 1], "n": 6, "B": 2, "mode": "pipeline"},
    }

    @pytest.fixture(autouse=True)
    def no_sampling(self, monkeypatch):
        # no test here samples a minor: the stand-ins raise at once
        def stand_in(*args, **kwargs):
            raise Started(kwargs.get("samples", kwargs.get("minor_samples")))

        for name in ("congruence_certificates", "aux_pipeline", "count_quadric"):
            monkeypatch.setattr(detsieve.cli, name, stand_in)

    @pytest.mark.parametrize("command", ("certify", "aux", "quadric"))
    def test_over_the_cap_refused_before_any_sampling(self, tmp_path, capsys, command):
        cap = detsieve.cli.MINOR_SAMPLE_CAP
        for bad in (cap + 1, 10 ** 8):
            cfg = dict(self.CONFIGS[command], minor_samples=bad)
            assert invoke(tmp_path, command, cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "minor_samples" in err
            assert "Traceback" not in err
        with pytest.raises(Started, match=str(cap)):
            run(command, dict(self.CONFIGS[command], minor_samples=cap))


class TestBoxFiberCap:
    SURFACE = {"f": CONG_F, "g": CONG_G, "q": 5, "box": [2, 2, 2]}
    CONFIGS = {
        "enumerate": SURFACE,
        "certify": dict(SURFACE, cutoff_base=2, cutoff_power=3),
        "aux": dict(SURFACE, epsilon=0.5),
    }
    QUADRIC = {"a": [3, 1, 1], "n": 1001}

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        # no test here walks a fiber: the first Horner pass past the cap
        # raises at once
        def stand_in(coeffs, xs):
            raise Started(len(xs))

        monkeypatch.setattr(detsieve.enumeration, "_horner_row", stand_in)

    @pytest.mark.parametrize("command", ("enumerate", "certify", "aux"))
    @pytest.mark.parametrize("box", ([2, 10 ** 30, 2], [2, 2, 10 ** 30]))
    def test_huge_x2_or_x3_refused_before_enumerating(self, tmp_path, capsys,
                                                      command, box):
        assert invoke(tmp_path, command, dict(self.CONFIGS[command], box=box)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "fibers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ("brute", "pipeline"))
    def test_huge_quadric_refused_before_enumerating(self, tmp_path, capsys, mode):
        assert invoke(tmp_path, "quadric", dict(self.QUADRIC, B=10 ** 30, mode=mode)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "fibers" in err

    def test_cap_sits_between_two_box_sizes(self):
        # (2B + 1)^2 fibers on an x2, x3 square of side B
        cap = detsieve.enumeration.BOX_FIBER_CAP
        B = 4999
        assert (2 * B + 1) ** 2 <= cap < (2 * B + 3) ** 2
        for command, cfg in self.CONFIGS.items():
            with pytest.raises(Started):
                run(command, dict(cfg, box=[2, B, B]))
            with pytest.raises(CapExceeded, match="fibers"):
                run(command, dict(cfg, box=[2, B + 1, B + 1]))
        for mode in ("brute", "pipeline"):
            with pytest.raises(Started):
                run("quadric", dict(self.QUADRIC, B=B, mode=mode))
            with pytest.raises(CapExceeded, match="fibers"):
                run("quadric", dict(self.QUADRIC, B=B + 1, mode=mode))

    def test_certify_refuses_the_box_before_counting_its_staircase(self, monkeypatch):
        # at power 200 the bit-length bound leaves the count to staircase_size,
        # which on this box would take minutes
        def never(*args):
            raise Started("counted the staircase")

        monkeypatch.setattr(detsieve.exponents, "staircase_size", never)
        cfg = dict(self.CONFIGS["certify"], box=[2, 10 ** 30, 10 ** 30], cutoff_power=200)
        del cfg["cutoff_base"]
        with pytest.raises(CapExceeded, match="fibers"):
            run("certify", cfg)

    def test_huge_x1_alone_is_not_capped(self):
        for command, cfg in self.CONFIGS.items():
            with pytest.raises(Started):
                run(command, dict(cfg, box=[10 ** 30, 2, 2]))


class TestFitExponent:
    def test_exact_quadratic_counts(self):
        fit = fit_exponent([[10, 100], [20, 400], [40, 1600]])
        assert abs(fit.slope - 2.0) <= 1e-9

    def test_constant_counts(self):
        fit = fit_exponent([[10, 7], [20, 7], [40, 7]])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_zero_counts_enter_as_log_one(self):
        fit = fit_exponent([[10, 0], [20, 0], [40, 0]])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_too_few_sizes(self):
        with pytest.raises(ContractViolation, match="3 distinct"):
            fit_exponent([[10, 100], [20, 400]])
        with pytest.raises(ContractViolation, match="3 distinct"):
            fit_exponent([[10, 1], [10, 2], [10, 3]])

    def test_cli_fit_with_prediction(self, tmp_path, capsys):
        cfg = {
            "counts": [[10, 100], [20, 400], [40, 1600]],
            "quadric": {"a": [1, 1, 1], "n": 5},
        }
        report = invoke_json(tmp_path, capsys, "fit", cfg)
        assert abs(report["result"]["slope"]["value"] - 2.0) <= 1e-9
        assert "predicted_box_powers" in report["diagnostics"]

    def test_run_rejects_non_object_configs(self):
        with pytest.raises(UsageError):
            run("fit", "not a config")
        with pytest.raises(UsageError):
            run("fit", [1, 2, 3])
