"""Exit codes, report schema, determinism, slope fitting."""

import itertools
import json
import math
import random
import re

import pytest

import detsieve.applications
import detsieve.cli
from detsieve.cli import UsageError, _poly_field, fit_exponent, main, run
from detsieve.determinant import aux_pipeline
from detsieve.errors import ContractViolation, SoundnessError
from detsieve.exponents import (
    BoxBounds,
    ExactLog,
    build_exponent_set,
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
        # 5 x1^2 + x2^2 + x3^2 = 3 has no points in these boxes, so the
        # pipeline builds no staircase and the CLI builds it for the
        # main-term deviation alone
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
                _poly_field(cfg, "f"), _poly_field(cfg, "g"), 5, bounds,
                None, 0.5, [], floor_const=10,
            )
            assert rep.exponent_set is None
            E = build_exponent_set(rep.cutoff, rep.params.dominant, bounds)
            dev_count, dev_sum = main_term_deviation(E)
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
        # vanish; this used to escape as a ZeroDivisionError
        cfg = dict(TestTypedFields.AUX, floor_const=0, residue_primes=[3])
        assert invoke(tmp_path, "aux", cfg) == 1
        assert capsys.readouterr().err.startswith("invalid instance: main terms vanish")


class Started(Exception):
    """Raised by a stand-in for the worker: the command got past its cap."""


class TestUnlikeWorkCap:
    @pytest.fixture(autouse=True)
    def no_count(self, monkeypatch):
        # no test here starts the work: the stand-in raises at once
        def stand_in(inst, mode):
            raise Started(mode, inst.B)

        monkeypatch.setattr(detsieve.cli, "count_unlike", stand_in)

    @pytest.mark.parametrize("mode", ("brute", "meet-in-middle", "sliced-pipeline"))
    def test_huge_box_refused_before_counting(self, tmp_path, capsys, mode):
        cfg = {"k": 13, "l": 5, "m": 3, "N": 2, "B": 10 ** 30, "mode": mode}
        assert invoke(tmp_path, "unlike", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "needs over" in err
        assert "Traceback" not in err

    # brute (2B+1)^4, meet-in-middle (2B+1)^2, sliced-pipeline 6B (2B+1)^2
    @pytest.mark.parametrize("mode, B", (("brute", 49), ("meet-in-middle", 4999),
                                         ("sliced-pipeline", 160)))
    def test_cap_sits_between_two_box_sizes(self, mode, B):
        def work(b):
            n = 2 * b + 1
            return {"brute": n ** 4, "meet-in-middle": n ** 2,
                    "sliced-pipeline": 6 * b * n ** 2}[mode]

        cap = detsieve.cli.UNLIKE_WORK_CAP
        assert work(B) <= cap < work(B + 1)
        cfg = {"k": 13, "l": 5, "m": 3, "N": 2, "B": B, "mode": mode}
        with pytest.raises(Started):
            run("unlike", cfg)
        with pytest.raises(UsageError, match="needs over"):
            run("unlike", dict(cfg, B=B + 1))


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

        monkeypatch.setattr(detsieve.cli.ExactLog, "power", never)
        monkeypatch.setattr(detsieve.cli, "staircase_size", never)
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

        cap = detsieve.cli.CERTIFY_COLUMN_CAP
        P = next(P for P in itertools.count(20) if columns(P + 1) > cap)
        box = BoxBounds(10 ** 6, 2, 2)
        for power in (P, P + 1):
            assert staircase_size(ExactLog.power(2, power), (2, 0, 0), box) == columns(power)
        cfg = dict(self.CERTIFY, box=[10 ** 6, 2, 2])
        with pytest.raises(Started):
            run("certify", dict(cfg, cutoff_power=P))
        with pytest.raises(UsageError, match="needs over"):
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
            monkeypatch.setattr(detsieve.cli, "CERTIFY_COLUMN_CAP", exact)
            with pytest.raises(Started):
                run("certify", cfg)
            monkeypatch.setattr(detsieve.cli, "CERTIFY_COLUMN_CAP", exact - 1)
            with pytest.raises(UsageError, match="needs over"):
                run("certify", cfg)

    def test_cutoff_base_below_two_is_a_usage_error(self, tmp_path, capsys):
        for bad in (1, 0, -5):
            cfg = dict(self.CERTIFY, cutoff_base=bad, cutoff_power=10 ** 30)
            assert invoke(tmp_path, "certify", cfg) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and "cutoff_base" in err


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
        # no test here enumerates a box: the stand-in raises at once
        def stand_in(f, side, box, nonsingular_only=False):
            raise Started(box.bounds)

        monkeypatch.setattr(detsieve.cli, "enumerate_points", stand_in)
        monkeypatch.setattr(detsieve.applications, "enumerate_points", stand_in)

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
        cap = detsieve.cli.BOX_FIBER_CAP
        B = 4999
        assert (2 * B + 1) ** 2 <= cap < (2 * B + 3) ** 2
        for command, cfg in self.CONFIGS.items():
            with pytest.raises(Started):
                run(command, dict(cfg, box=[2, B, B]))
            with pytest.raises(UsageError, match="fibers"):
                run(command, dict(cfg, box=[2, B + 1, B + 1]))
        for mode in ("brute", "pipeline"):
            with pytest.raises(Started):
                run("quadric", dict(self.QUADRIC, B=B, mode=mode))
            with pytest.raises(UsageError, match="fibers"):
                run("quadric", dict(self.QUADRIC, B=B + 1, mode=mode))

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
