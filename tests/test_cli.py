import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

from sineq.bodies import polydisc
from sineq import cli
from sineq.cli import _parsers, main
from sineq.integrate import DET_TOL, Engine, NonFiniteIntegrandError, tolerance
from sineq.verify import full_check


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    return code, capsys.readouterr().out


def parse_jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


class TestMeasureCommand:
    def test_cylinder_closed_form(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--body", "cylinder:R=1.1774100,n=2",
            "--measure", "complex-gaussian",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["value"] == pytest.approx(0.5, abs=1e-6)
        assert rec["method"] == "closed-form"
        assert rec["schema_version"] == 2

    def test_polydisc_mc(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--body", "polydisc:r=1,1",
            "--measure", "complex-gaussian", "--engine", "mc",
            "--samples", "100000", "--seed", "5",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        truth = (1 - math.exp(-0.5)) ** 2
        assert abs(rec["value"] - truth) <= 3 * rec["std_error"]
        assert rec["seed"] == 5 and rec["samples"] == 100000

    def test_invalid_descriptor_exits_2(self, capsys):
        assert main(["measure", "--body", "blob:x=1", "--measure", "complex-gaussian"]) == 2

    def test_exponential_strip(self, capsys):
        code, out = run_cli(
            capsys, "measure", "--body", "strip:p=0.6931471805599453,n=2",
            "--measure", "exponential",
        )
        (rec,) = parse_jsonl(out)
        assert rec["value"] == pytest.approx(0.5, abs=1e-12)


class TestVerifyCommand:
    def test_cylinder_all_margins_zero(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--body", "cylinder:R=1.5,n=2", "--grid", "1,2,3",
        )
        assert code == 0
        recs = parse_jsonl(out)
        for rec in recs:
            if rec["kind"] == "dilation":
                assert abs(rec["margin"]) <= 1e-10
            assert rec["verdict"] == "holds"

    def test_polydisc_holds(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--body", "polydisc:r=1,1", "--grid", "1,1.5,2",
        )
        assert code == 0
        kinds = {r["kind"] for r in parse_jsonl(out)}
        assert kinds == {"derivative", "gaussian-moment", "dilation"}

    def test_upward_set_rejected_exit_2(self, capsys):
        # the annulus holds radius 1.5 but not its shrink 0.5: not downward closed
        assert main(["verify", "--body", "annulus:inner=1,outer=2"]) == 2
        assert "is not a complete Reinhardt set" in capsys.readouterr().err

    def test_wrong_family_for_measure_exits_2(self, capsys):
        assert main(["verify", "--body", "polydisc:r=1.2", "--measure", "exponential"]) == 2
        err = capsys.readouterr().err
        assert "needs an unconditional body" in err and "polydisc:r=1.2" in err
        assert main(["verify", "--body", "box:a=1,2", "--measure", "complex-gaussian"]) == 2
        assert "needs a Reinhardt body" in capsys.readouterr().err

    def test_right_family_for_measure_exits_0(self, capsys):
        code, out = run_cli(capsys, "verify", "--body", "box:a=1,2", "--measure", "exponential",
                            "--grid", "1,2")
        assert code == 0
        assert {r["kind"] for r in parse_jsonl(out)} == {"derivative", "exponential-moment",
                                                         "dilation"}

    def test_annulus_experimental_certifies_violation_exit_3(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--body", "annulus:inner=1,outer=2",
            "--experimental", "--engine", "mc", "--samples", "30000", "--seed", "11",
            "--grid", "1,2",
        )
        assert code == 3
        assert any(r["verdict"] == "violated" for r in parse_jsonl(out))

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--body", "polydisc:r=1,1", "--grid", "1,2",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {r["kind"] for r in rows} == {"derivative", "gaussian-moment", "dilation"}
        assert all(r["verdict"] == "holds" for r in rows)


class TestEntropyCommand:
    def test_1d_equality_case(self, capsys):
        code, out = run_cli(
            capsys, "entropy", "--lemma", "1d",
            "--f", "step:0.6931471805599453:0,1", "--tail-measure", "exponential-1d",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["margin"] == pytest.approx(0.0, abs=1e-12)

    def test_1d_atoms_measure(self, capsys):
        code, out = run_cli(
            capsys, "entropy", "--lemma", "1d",
            "--f", "step:0.5:0,1", "--tail-measure", "atoms:0@0.5,1@0.5",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["reference"] == math.inf or rec["reference"] == float("inf")

    def test_1d_exact_prints_the_auto_bytes(self, capsys):
        argv = ["entropy", "--lemma", "1d", "--f", "step:0.6931:0,1",
                "--tail-measure", "exponential-1d"]
        assert run_cli(capsys, *argv, "--engine", "exact") == run_cli(capsys, *argv)

    def test_multidim_exact(self, capsys):
        code, out = run_cli(
            capsys, "entropy", "--lemma", "multidim", "--body", "polydisc:r=1,1",
            "--engine", "exact",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["margin"] == pytest.approx(0.09648872405403502, abs=1e-12)

    def test_subadditivity(self, capsys):
        code, out = run_cli(
            capsys, "entropy", "--lemma", "subadditivity", "--body",
            "cylinder:R=1.0,n=2", "--engine", "exact",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["margin"] == pytest.approx(0.0, abs=1e-10)


class TestMomentsCommand:
    def test_linf_holds(self, capsys):
        code, out = run_cli(
            capsys, "moments", "--norm", "linf", "--n", "3", "--p", "2", "--q", "1",
            "--samples", "100000",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["ratio"] <= 1.4142135623730951 + 3 * rec["ratio_se"]

    def test_bad_exponents_exit_2(self, capsys):
        assert main(["moments", "--norm", "linf", "--n", "2", "--p", "1", "--q", "2"]) == 2

    @staticmethod
    def lp_inf_record_is_linf(capsys, *extra) -> dict:
        """The record of ``lp:inf``, checked equal to that of ``linf`` but
        for the name."""
        args = ("--n", "3", "--p", "2", "--q", "1", *extra)
        code, out = run_cli(capsys, "moments", "--norm", "lp:inf", *args)
        assert code == 0
        (rec,) = parse_jsonl(out)
        (linf,) = parse_jsonl(run_cli(capsys, "moments", "--norm", "linf", *args)[1])
        assert rec["norm"] == "lp:inf"
        assert {k: v for k, v in rec.items() if k != "norm"} == {
            k: v for k, v in linf.items() if k != "norm"}
        return rec

    def test_lp_inf_is_linf(self, capsys):
        # the Monte Carlo kernels: lp_rows at p = inf gives fold_columns' bits
        rec = self.lp_inf_record_is_linf(capsys, "--samples", "2000", "--engine", "mc")
        assert rec["method"] == "mc(2000, 42)"

    def test_lp_inf_is_linf_on_the_closed_form(self, capsys):
        rec = self.lp_inf_record_is_linf(capsys)
        assert (rec["method"], rec["samples"]) == ("closed-form", 0)

    @pytest.mark.parametrize("spellings, name", [
        (["lp:3", "lp:3.0", "lp:03"], "lp:3"), (["coord", "coord:0"], "coord:0"),
    ], ids=["lp3", "coord0"])
    def test_one_norm_prints_one_name(self, capsys, spellings, name):
        args = ("--n", "2", "--p", "2", "--q", "1", "--samples", "2000")
        outs = [run_cli(capsys, "moments", "--norm", text, *args) for text in spellings]
        assert [code for code, _ in outs] == [0] * len(spellings)
        assert {out for _, out in outs} == {outs[0][1]}
        assert parse_jsonl(outs[0][1])[0]["norm"] == name

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", ["50", "400", "1000"])
    def test_large_lp_exponent_holds(self, capsys, p):
        # |x|^p overflows and underflows here: the norm must stay homogeneous
        code, out = run_cli(capsys, "moments", "--norm", f"lp:{p}", "--n", "2", "--p", "2",
                            "--q", "1", "--samples", "20000")
        assert code == 0
        assert [r["verdict"] for r in parse_jsonl(out)] == ["holds"]


class TestFuzzCommand:
    def test_small_polydisc_sweep(self, capsys):
        code, out = run_cli(
            capsys, "fuzz", "--family", "polydisc", "--n", "2", "--count", "4",
            "--samples", "30000", "--seed", "7", "--grid", "1,2",
        )
        assert code == 0
        recs = parse_jsonl(out)
        assert sum(r["kind"] == "fuzz-body" for r in recs) == 4
        summary = [r for r in recs if r["kind"] == "fuzz-summary"][0]
        assert summary["verdict"].startswith("4 holds")

    def test_small_box_sweep(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--family", "box", "--n", "2", "--count", "2",
                            "--samples", "2000")
        assert code == 0
        assert [r["kind"] for r in parse_jsonl(out)] == ["fuzz-body"] * 2 + ["fuzz-summary"]


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        args = [
            "verify", "--body", "polydisc:r=1,1.5", "--engine", "mc",
            "--samples", "50000", "--seed", "13", "--grid", "1,2",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        out1 = tmp_path / "w1.csv"
        out4 = tmp_path / "w4.csv"
        args = [
            "measure", "--body", "polydisc:r=1,1", "--measure", "complex-gaussian",
            "--engine", "mc", "--samples", "200000", "--format", "csv",
        ]
        assert main(args + ["--workers", "1", "--output", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--output", str(out4)]) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_config_file_defaults_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 50000, "seed": 3, "engine": "mc"}))
        code, out = run_cli(
            capsys, "--config", str(cfg), "measure", "--body", "polydisc:r=1,1",
            "--measure", "complex-gaussian",
        )
        assert code == 0
        (rec,) = parse_jsonl(out)
        assert rec["samples"] == 50000 and rec["seed"] == 3
        code, out = run_cli(
            capsys, "--config", str(cfg), "measure", "--body", "polydisc:r=1,1",
            "--measure", "complex-gaussian", "--samples", "60000",
        )
        (rec,) = parse_jsonl(out)
        assert rec["samples"] == 60000

    @pytest.mark.parametrize("flag", [["--samples=60000"], ["--samp", "60000"], ["--samp=60000"]])
    def test_explicit_flag_in_any_form_beats_config(self, tmp_path, capsys, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 50000, "seed": 3, "engine": "mc"}))
        code, out = run_cli(capsys, "--config", str(cfg), "measure", "--body", "polydisc:r=1,1",
                            *flag)
        (rec,) = parse_jsonl(out)
        assert (code, rec["samples"], rec["seed"]) == (0, 60000, 3)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lemma": "1d"}))
        assert main(["--config", str(cfg), "measure", "--body", "polydisc:r=1,1"]) == 2

    def test_missing_config_exits_2(self):
        assert main(["--config", "/nonexistent.json", "measure", "--body", "x:y=1"]) == 2


class TestParserReuse:
    """The parser is built once per process; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert _parsers()[0] is _parsers()[0]

    def test_config_does_not_leak_into_plain_call(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 50000, "seed": 3, "engine": "mc"}))
        args = ["measure", "--body", "polydisc:r=1,1", "--measure", "complex-gaussian"]
        code, out = run_cli(capsys, "--config", str(cfg), *args)
        assert code == 0
        assert parse_jsonl(out)[0]["samples"] == 50000
        code, out = run_cli(capsys, *args)
        (rec,) = parse_jsonl(out)
        assert (code, rec["seed"], rec["method"]) == (0, 42, "closed-form")

    def test_help_and_usage_errors_leave_parser_usable(self, capsys):
        assert main(["--help"]) == 0
        assert main(["measure", "--help"]) == 0
        assert main(["verify"]) == 2  # missing --body
        capsys.readouterr()
        code, out = run_cli(capsys, "measure", "--body", "polydisc:r=1,1")
        assert code == 0
        assert parse_jsonl(out)[0]["method"] == "closed-form"


class TestCertifiedExitCodes:
    def test_entropy_excursion_exits_0(self, capsys, choose_passes):
        # the equality case's slack reads -0.0197 at -3.09 sigma; the three
        # recheck passes read within tolerance
        mean_g, se = math.exp(-0.5), 0.0197 / 3.09

        def slack_pass(slack, err):
            return [0.0, mean_g, slack - mean_g * math.log(mean_g)], np.diag([0.0, 0.0, err * err])

        choose_passes({0: slack_pass(-0.0197, se),
                       **{k << 62: slack_pass(0.0, se / math.sqrt(2)) for k in (1, 2, 3)}})
        code, out = run_cli(
            capsys, "entropy", "--lemma", "multidim", "--body", "cylinder:R=1,n=1",
            "--engine", "mc", "--samples", "20000", "--seed", "5",
        )
        (rec,) = parse_jsonl(out)
        assert (code, rec["verdict"]) == (0, "holds")
        assert rec["margin"] < -rec["tolerance"] == -3 * rec["std_error"]

    def test_moments_excursion_exits_0(self, capsys):
        # the first seed from 0 at which the ratio reads 3.1 to 3.3 sigma
        # above C(2, 1) and no recheck repeats it, found by
        # tests/data/repin.py
        code, out = run_cli(
            capsys, "moments", "--norm", "coord", "--n", "1", "--p", "2", "--q", "1",
            "--engine", "mc", "--samples", "2000", "--seed", "16600",
        )
        (rec,) = parse_jsonl(out)
        assert (code, rec["verdict"]) == (0, "holds")
        assert rec["margin"] < -rec["tolerance"]

    @pytest.mark.parametrize("args", [
        ["entropy", "--lemma", "subadditivity", "--body", "polydisc:r=1,1",
         "--engine", "quadrature"],
        ["moments", "--norm", "lp:3", "--n", "2", "--engine", "exact"],
        ["moments", "--norm", "linf", "--n", "2", "--engine", "quadrature"],
        ["entropy", "--lemma", "multidim", "--body", "cylinder:R=1,n=2",
         "--engine", "quadrature"],
    ], ids=["subadditivity-quadrature", "moments-exact", "moments-quadrature",
            "multidim-indicator-quadrature"])
    def test_unsupported_path_exits_2(self, capsys, args):
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestMeasureAuto:
    def test_auto_without_closed_form_is_mc_measure(self, capsys):
        body = "weighted-lp-ball:p=2,w=1,1,scale=1.5"
        common = ["measure", "--body", body, "--samples", "5000", "--seed", "3"]
        _, auto = run_cli(capsys, *common)
        _, mc = run_cli(capsys, *common, "--engine", "mc")
        assert auto == mc
        (rec,) = parse_jsonl(auto)
        m = rec["value"]
        assert rec["std_error"] == math.sqrt(m * (1 - m) / 5000)
        assert rec["method"] == "mc(5000, 3)"



class TestRecordColumns:
    """Schema 2: each report writes its own columns; the CLI adds only the
    kind, body and seed a report lacks, and the schema version."""

    # the t = 3 tolerance of the curve below (pinned by tests/data/repin.py)
    T3_TOLERANCE = 0.018369181299861863

    def test_curve_tolerance_is_the_one_the_verdict_applied(self, capsys):
        code, out = run_cli(capsys, "verify", "--body", "polydisc:r=1,1", "--engine", "mc",
                            "--samples", "20000", "--seed", "41", "--grid", "1,3")
        assert code == 0
        curve = [r for r in parse_jsonl(out) if r["kind"] == "dilation"]
        rep = full_check(polydisc([1.0, 1.0]), Engine(method="mc", samples=20_000, seed=41),
                         (1.0, 3.0))
        assert [r["tolerance"] for r in curve] == [tolerance(p.margin_se)
                                                   for p in rep.curve.points]
        assert curve[0]["tolerance"] == DET_TOL
        assert curve[1]["tolerance"] == self.T3_TOLERANCE

    @pytest.mark.parametrize("lemma, body", [("multidim", "polydisc:r=1,1"),
                                             ("subadditivity", "cylinder:R=1.0,n=2")])
    def test_closed_form_entropy_records_carry_no_samples(self, capsys, lemma, body):
        code, out = run_cli(capsys, "entropy", "--lemma", lemma, "--body", body,
                            "--engine", "exact")
        (rec,) = parse_jsonl(out)
        assert (code, rec["method"], rec["samples"]) == (0, "closed-form", 0)
        assert rec.keys() == {"schema_version", "kind", "body", "seed", "value", "std_error",
                              "reference", "margin", "tolerance", "verdict", "samples",
                              "method", "sampling_contract", "status", "note"}

    def test_every_record_has_schema_version_2(self, capsys):
        for args in (["measure", "--body", "polydisc:r=1"],
                     ["verify", "--body", "box:a=1,2", "--measure", "exponential"],
                     ["moments", "--samples", "2000"],
                     ["fuzz", "--count", "2", "--samples", "2000", "--format", "csv"]):
            code, out = run_cli(capsys, *args)
            recs = (list(csv.DictReader(io.StringIO(out))) if "csv" in args
                    else parse_jsonl(out))
            assert code == 0 and recs
            assert {str(r["schema_version"]) for r in recs} == {"2"}


class TestConfigTyping:
    """Config entries are parsed and validated like the flags they become."""

    def run_with(self, tmp_path, capsys, config: dict, *args):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return run_cli(capsys, "--config", str(cfg), *args)

    def test_string_number_is_converted(self, tmp_path, capsys):
        code, out = self.run_with(tmp_path, capsys, {"samples": "5000", "engine": "mc"},
                                  "measure", "--body", "polydisc:r=1,1")
        (rec,) = parse_jsonl(out)
        assert (code, rec["samples"], rec["method"]) == (0, 5000, "mc(5000, 42)")

    @pytest.mark.parametrize("config", [{"samples": "many"}, {"engine": "fast"},
                                        {"samp": 5000}, {"experimental": True}],
                             ids=["bad-int", "bad-choice", "abbreviated-key", "foreign-key"])
    def test_bad_entry_exits_2(self, tmp_path, capsys, config):
        code, out = self.run_with(tmp_path, capsys, config, "measure", "--body", "polydisc:r=1")
        assert (code, out) == (2, "")

    def test_json_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["samples", 5000]))
        assert main(["--config", str(cfg), "measure", "--body", "polydisc:r=1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "is not a JSON object" in err

    def test_true_is_a_bare_flag_and_false_is_dropped(self, tmp_path, capsys):
        args = ("verify", "--body", "annulus:inner=1,outer=2", "--engine", "mc",
                "--samples", "2000", "--grid", "1,2")
        code, _ = self.run_with(tmp_path, capsys, {"experimental": False}, *args)
        assert code == 2  # an annulus needs --experimental
        code, out = self.run_with(tmp_path, capsys, {"experimental": True, "output": None}, *args)
        assert code in (0, 3) and parse_jsonl(out)


class TestDescriptorErrors:
    @pytest.mark.parametrize("body, measure", [
        ("strip:p=0.7,N=3", "exponential"),
        ("polydisc:r=1,r=2", "complex-gaussian"),
        ("cylinder:R=1,n=2,3", "complex-gaussian"),
    ])
    def test_malformed_body_exits_2(self, capsys, body, measure):
        assert main(["measure", "--body", body, "--measure", measure]) == 2
        assert "error: descriptor" in capsys.readouterr().err


class TestFailLoudly:
    """Bad input exits 2 with one ``error:`` line and no traceback, before
    any estimation runs."""

    @staticmethod
    def assert_invalid(capsys, argv) -> str:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("argv", [
        ["verify", "--body", "polydisc:r=nan,1", "--engine", "mc", "--samples", "1000"],
        ["verify", "--body", "polydisc:r=nan,1"],
        ["measure", "--body", "cube:a=nan,n=2", "--measure", "exponential", "--engine", "mc"],
        ["measure", "--body", "box:a=1,nan", "--measure", "exponential"],
        ["verify", "--body", "weighted-lp-ball:p=2,n=2,w=1,nan", "--measure", "exponential"],
    ], ids=["verify-mc", "verify-closed", "measure-mc", "measure-box", "verify-lp-weights"])
    def test_nan_body_parameter(self, capsys, argv):
        assert "got nan" in self.assert_invalid(capsys, argv)

    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_nan_dilation_scale(self, capsys, engine):
        err = self.assert_invalid(capsys, ["verify", "--body", "polydisc:r=1,1", "--grid", "nan,2",
                                           "--engine", engine, "--samples", "1000"])
        assert "dilation grid must be positive" in err

    @pytest.mark.parametrize("engine", ["auto", "mc"])
    @pytest.mark.parametrize("grid", ["1,inf", "inf", "2,inf,3"])
    def test_infinite_dilation_scale(self, capsys, engine, grid):
        err = self.assert_invalid(capsys, ["verify", "--body", "polydisc:r=1,1", "--grid", grid,
                                           "--engine", engine, "--samples", "1000"])
        assert "dilation grid must be positive and finite" in err

    def test_norm_body_of_another_dimension(self, capsys):
        err = self.assert_invalid(capsys, ["moments", "--norm", "body:cube:a=1,n=4", "--n", "2",
                                           "--samples", "2000"])
        assert "norm body 'cube:a=1.0,n=4' has dimension 4, not n = 2" in err

    @pytest.mark.parametrize("argv", [
        ["moments", "--n", "0"],
        ["measure", "--body", "cube:a=1,n=0", "--measure", "exponential"],
        ["measure", "--body", "cross-polytope:scale=1,n=0", "--measure", "exponential"],
    ], ids=["moments", "cube", "cross-polytope"])
    def test_zero_dimension(self, capsys, argv):
        assert "dimension must be >= 1, got 0" in self.assert_invalid(capsys, argv)

    def test_coordinate_index_outside_dimension(self, capsys):
        err = self.assert_invalid(
            capsys, ["moments", "--norm", "coord:5", "--n", "2", "--samples", "1000"])
        assert "coordinate index 5 outside [0, 2)" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["measure", "--body", "weighted-lp-ball:p=2,w=1,scale=1", "--engine", "mc",
         "--samples", "10"],
        ["entropy", "--lemma", "1d", "--f", "step:0.6931:0,1"],
    ], ids=["measure", "entropy-1d"])
    def test_workers_below_one(self, capsys, argv, workers):
        err = self.assert_invalid(capsys, argv + ["--workers", workers])
        assert "workers must be >= 1" in err

    @pytest.mark.parametrize("engine", ["mc", "quadrature"])
    def test_1d_lemma_rejects_a_path_it_lacks(self, capsys, engine):
        argv = ["entropy", "--lemma", "1d", "--f", "step:0.6931:0,1", "--engine", engine]
        if engine == "mc":
            err = self.assert_invalid(capsys, argv)
            assert "the 1-D entropy lemma has no mc path" in err
        else:
            # no command has a quadrature path, so the parser offers none
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "argument --engine: invalid choice: 'quadrature'" in err

    @pytest.mark.parametrize("extra", [
        ["--f", "step:0.5:0,nan"],
        ["--f", "step:0.5:0,inf"],
        ["--f", "step:nan:0,1"],
        ["--f", "step:0.5:0,1", "--tail-measure", "atoms:0@nan,1@1"],
        ["--f", "step:0.5:0,1", "--tail-measure", "atoms:0@0.5,nan@0.5"],
        ["--f", "step:0.5:0,1", "--tail-measure", "atoms:0@0.5,inf@0.5"],
    ], ids=["nan-value", "inf-value", "nan-jump", "nan-mass", "nan-atom", "inf-atom"])
    def test_1d_lemma_non_finite_input(self, capsys, extra):
        err = self.assert_invalid(capsys, ["entropy", "--lemma", "1d", *extra])
        assert "must be finite" in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--body", "product:parts=polydisc:r=1|strip:p=1"],
         "needs a Reinhardt body, got 'strip:p=1'"),
        (["moments", "--norm", "body:polydisc:r=1,2", "--n", "2"],
         "needs an unconditional body, got 'polydisc:r=1,2'"),
    ], ids=["verify-mixed-product", "moments-reinhardt-norm-body"])
    def test_body_of_the_other_family(self, capsys, argv, message):
        assert message in self.assert_invalid(capsys, argv)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", [
        ["measure", "--body", "polydisc:r=1,1", "--samples", "1000"],
        ["verify", "--body", "polydisc:r=1,1", "--engine", "mc", "--samples", "1000"],
        ["verify", "--body", "annulus:inner=1,outer=2"],
        ["entropy", "--lemma", "multidim", "--body", "polydisc:r=1,1.5", "--engine", "mc",
         "--samples", "1000"],
        ["moments", "--samples", "1000"],
        ["fuzz", "--count", "1", "--samples", "1000"],
    ], ids=["measure", "verify", "verify-annulus", "entropy-multidim", "moments", "fuzz"])
    def test_seed_outside_64_bits(self, capsys, argv, seed):
        # a seed is the low 64 bits of a block's key: -1 and 2**64 would
        # alias other seeds
        err = self.assert_invalid(capsys, argv + ["--seed", seed])
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("order", ["0", "1", "181"])
    def test_quadrature_order_outside_range(self, capsys, monkeypatch, order):
        # the CLI takes no quadrature order at all: no command has a
        # quadrature path (the library's range is pinned in test_integrate)
        def never(args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "measure", never)
        assert main(["measure", "--body", "polydisc:r=1", "--engine", "mc", "--samples", "100",
                     "--order", order]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: --order {order}" in err

    def test_non_finite_integrand_exits_1(self, capsys, monkeypatch):
        # no command line reaches this abort today: every built-in integrand
        # is finite, and a norm_ball takes no norm from the command line
        def abort(args):
            raise NonFiniteIntegrandError("norm returned nan at [0.5, 1.0]")

        monkeypatch.setitem(cli._COMMANDS, "verify", abort)
        assert main(["verify", "--body", "polydisc:r=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical abort: norm returned nan at [0.5, 1.0]\n"

    @pytest.mark.parametrize("output", ["missing/x.json", "."], ids=["no-directory", "directory"])
    def test_unwritable_output_fails_before_the_command(self, capsys, monkeypatch, tmp_path,
                                                        output):
        def never(args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "measure", never)
        err = self.assert_invalid(
            capsys, ["measure", "--body", "polydisc:r=1", "--output", str(tmp_path / output)])
        assert "cannot write --output" in err

    def test_failed_command_keeps_an_existing_output(self, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("kept\n")
        self.assert_invalid(capsys, ["measure", "--body", "polydisc:r=1,r=2", "--output", str(out)])
        assert out.read_text() == "kept\n"

    def test_failed_command_creates_no_output(self, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        self.assert_invalid(capsys, ["measure", "--body", "polydisc:r=1,r=2", "--output", str(out)])
        assert not out.exists()

    def test_valid_output_is_overwritten_on_success(self, capsys, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("old line that is longer than the record\n" * 40)
        assert main(["measure", "--body", "polydisc:r=1", "--output", str(out)]) == 0
        (rec,) = parse_jsonl(out.read_text())
        assert rec["kind"] == "measure"


class TestHugeParameters:
    """Parameters whose powers leave the binary64 range keep their sets."""

    @pytest.mark.parametrize("scale", ["0.1", "10"])
    def test_large_exponent_ball_holds_without_a_warning(self, capsys, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify", "--body", f"lp-ball:p=400,n=2,scale={scale}",
                         "--measure", "exponential", "--engine", "mc", "--samples", "20000"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert {r["verdict"] for r in parse_jsonl(out)} == {"holds"}

    @pytest.mark.parametrize("args", [
        ("verify", "--body", "polydisc:r=1,1e200", "--grid", "1,2"),
        ("entropy", "--lemma", "multidim", "--body", "polydisc:r=1,1e200", "--engine", "exact"),
    ], ids=["verify", "entropy"])
    def test_huge_polydisc_radius_is_a_cylinder(self, capsys, args):
        code, out = run_cli(capsys, *args)
        recs = parse_jsonl(out)
        assert code == 0 and recs
        assert all(r["margin"] == 0.0 and r["verdict"] == "holds" for r in recs)


class TestEntropyAndMomentInputs:
    @pytest.mark.parametrize("argv, message", [
        (["entropy", "--lemma", "multidim", "--body", "annulus:inner=1,outer=2"],
         "invalid input for entropy check"),
        (["entropy", "--lemma", "1d"], "--f step:JUMPS:VALUES is required"),
        (["entropy", "--f", "step:0.5:0,1", "--tail-measure", "bogus"], "unknown tail measure"),
        (["entropy", "--f", "step:0.5:0,1", "--tail-measure", "mu"], "unknown tail measure"),
        (["entropy", "--f", "step:0.5:0,1:exponential-1d"], "must be step:JUMPS:VALUES"),
        (["moments", "--norm", "bogus"], "unknown norm"),
    ], ids=["annulus-complement", "missing-f", "bogus-tail-measure", "tail-measure-alias",
            "inline-tail-measure", "bogus-norm"])
    def test_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestConfigBeforeCommand:
    """``--config PATH`` goes before the command; its flags are spliced in
    after the command token argparse took, whatever the path is called."""

    CONFIG = {"samples": 2000, "engine": "mc"}
    ARGS = ("measure", "--body", "polydisc:r=1,1")

    @pytest.mark.parametrize("name", ["measure", "verify"])
    @pytest.mark.parametrize("spelling", [("--config", "{}"), ("--config={}",), ("--conf", "{}")],
                             ids=["separate", "attached", "abbreviated"])
    def test_config_named_like_a_command(self, tmp_path, monkeypatch, capsys, name, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(self.CONFIG))
        (tmp_path / name).write_text(json.dumps(self.CONFIG))
        want = run_cli(capsys, "--config", "cfg.json", *self.ARGS)
        assert want[0] == 0 and parse_jsonl(want[1])[0]["samples"] == 2000
        got = run_cli(capsys, *(part.format(name) for part in spelling), *self.ARGS)
        assert got == want

    def test_repeated_config_takes_the_last(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "measure").write_text(json.dumps({"samples": 5}))
        (tmp_path / "cfg.json").write_text(json.dumps(self.CONFIG))
        got = run_cli(capsys, "--config", "measure", "--config", "cfg.json", *self.ARGS)
        assert got == run_cli(capsys, "--config", "cfg.json", *self.ARGS)


def _parse_outcome(parse, argv: list[str]):
    """(namespace or None, stdout, stderr, exit code or None) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parse(list(argv)), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, out.getvalue(), err.getvalue(), code


_COMMON = ["--engine", "mc", "--samples", "2000", "--seed", "3",
           "--workers", "2", "--format", "csv", "--output", "out.csv"]
_BODY = ["--body", "box:a=1,2", "--measure", "exponential"]

PARSE_CORPUS = {
    "empty": [],
    "top-help": ["-h"],
    "top-help-long": ["--help"],
    "help-before-command": ["-h", "measure"],
    "measure-defaults": ["measure", "--body", "polydisc:r=1,1"],
    "measure-all": ["measure", *_BODY, *_COMMON],
    "measure-missing-body": ["measure"],
    "measure-help": ["measure", "-h"],
    "measure-help-long": ["measure", "--help"],
    "verify-defaults": ["verify", "--body", "polydisc:r=1,1"],
    "verify-all": ["verify", *_BODY, "--grid", "1,2", "--experimental", *_COMMON],
    "verify-help": ["verify", "-h"],
    "entropy-defaults": ["entropy"],
    "entropy-1d": ["entropy", "--lemma", "1d", "--f", "step:0.5:0,1",
                   "--tail-measure", "radial-mu", *_COMMON],
    "entropy-all": ["entropy", "--lemma", "subadditivity", "--f", "step:0.5:0,1",
                    "--tail-measure", "atoms:0@1", *_BODY, *_COMMON],
    "moments-defaults": ["moments"],
    "moments-all": ["moments", "--norm", "lp:3", "--n", "3", "--p", "2.5", "--q", "0.5",
                    *_COMMON],
    "fuzz-defaults": ["fuzz"],
    "fuzz-all": ["fuzz", "--family", "box", "--n", "2", "--count", "5", "--grid", "1,2",
                 *_COMMON],
    "abbreviations": ["measure", "--samp", "10", "--bo", "polydisc:r=1", "--eng", "mc"],
    "attached-values": ["measure", "--samples=10", "--body=polydisc:r=1", "--engine=mc"],
    "negative-value": ["measure", "--body", "polydisc:r=1", "--samples", "-5"],
    "repeated-option": ["measure", "--body", "polydisc:r=1", "--seed", "1", "--seed", "2"],
    "ambiguous-abbreviation": ["measure", "--s", "5", "--body", "polydisc:r=1"],
    "unknown-command": ["bogus", "--samples", "3"],
    "command-case": ["MEASURE", "--body", "polydisc:r=1"],
    "unknown-option": ["measure", "--body", "polydisc:r=1", "--bogus", "1"],
    "option-of-another-command": ["measure", "--body", "polydisc:r=1", "--experimental"],
    "extra-positional": ["measure", "--body", "polydisc:r=1", "extra"],
    "unknown-then-help": ["measure", "--bogus", "-h"],
    "bad-int": ["measure", "--body", "polydisc:r=1", "--samples", "ten"],
    "bad-float": ["moments", "--p", "two"],
    "bad-grid": ["verify", "--body", "polydisc:r=1", "--grid", "1,x"],
    "bad-choice": ["measure", "--body", "polydisc:r=1", "--engine", "fast"],
    "missing-value": ["measure", "--body"],
    "double-dash": ["measure", "--body", "polydisc:r=1", "--", "--samples", "3"],
    "config-separate": ["--config", "cfg.json", "measure", "--body", "polydisc:r=1"],
    "config-attached": ["--config=cfg.json", "verify", "--body", "polydisc:r=1"],
    "config-named-like-a-command": ["--config", "measure", "measure", "--body", "polydisc:r=1"],
    "config-without-command": ["--config", "cfg.json"],
    "config-without-path": ["--config"],
    "config-after-command": ["measure", "--body", "polydisc:r=1", "--config", "cfg.json"],
}


@pytest.mark.parametrize("argv", PARSE_CORPUS.values(), ids=PARSE_CORPUS.keys())
def test_one_parse_is_the_top_level_parse(argv):
    # the namespace, stdout, stderr and exit code of the full top-level parse
    want = _parse_outcome(_parsers()[0].parse_args, argv)
    assert _parse_outcome(cli._parse, argv) == want


class TestClosedFormsOnlyWhenUsed:
    """The box closed forms are computed on the auto and exact paths only:
    a forced Monte Carlo pass never calls them, with the same bytes out."""

    BOX = ["--body", "box:a=1,1.5", "--measure", "exponential"]
    CALLS = {
        "measure": ["measure", *BOX],
        "verify": ["verify", *BOX],
        "multidim": ["entropy", "--lemma", "multidim", *BOX],
        "subadditivity": ["entropy", "--lemma", "subadditivity", *BOX],
    }

    @pytest.mark.parametrize("argv", CALLS.values(), ids=CALLS.keys())
    def test_mc_never_calls_box_closed_forms(self, capsys, monkeypatch, argv):
        from sineq import bodies

        argv = [*argv, "--engine", "mc", "--samples", "3000", "--seed", "5"]
        want = run_cli(capsys, *argv)
        calls = []
        box_closed_forms = bodies.box_closed_forms
        monkeypatch.setattr(bodies, "box_closed_forms",
                            lambda *a: calls.append(a) or box_closed_forms(*a))
        assert run_cli(capsys, *argv) == want and want[0] == 0
        assert calls == []
        # the auto path still takes them, through the same name
        code, out = run_cli(capsys, *argv[:-6])
        assert code == 0 and calls and parse_jsonl(out)[0]["method"] == "closed-form"
