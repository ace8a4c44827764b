import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tailbounds
from tailbounds import OutOfRange, geom_bounds, make_exponential_spec, montecarlo
from tailbounds.cli import main
from tailbounds.exact_oracle import exact_tail
from tailbounds.methods import Side, rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_P8 = "0.3,0.5,0.7,0.2,0.9,0.4,0.6,0.25"


def uniform_file(path, n: int, lo: float, hi: float):
    """A params file of n draws of U(lo, hi) from random.Random(1), one a line."""
    rng = random.Random(1)
    path.write_text("".join(f"{rng.uniform(lo, hi)}\n" for _ in range(n)))
    return path


@pytest.fixture(scope="module")
def params_1e4(tmp_path_factory):
    return uniform_file(tmp_path_factory.mktemp("params") / "params_1e4.txt", 10**4, 0.05, 1.0)


class TestBound:
    def test_thm1_spot(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 0
        assert "value: 0.541341132946" in out
        assert "log_value: " in out
        assert "internal_param: 0.25" in out
        assert "evaluations" not in out  # a closed form solves nothing

    @pytest.mark.parametrize("method", ["opt-chernoff", "opt-lemma1", "best"])
    def test_optimized_methods_report_evaluations(self, capsys, method):
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.3,0.2",
            "--lambda", "3", "--method", method,
        )
        assert code == 0
        count = int(out.split("evaluations: ")[1].split()[0])
        assert 1 <= count <= (256 if method == "best" else 128)

    @pytest.mark.parametrize(
        "method", [row.method.value for row in rows("geom", Side.UPPER)] + ["best"]
    )
    def test_no_negative_zero_at_lambda_one(self, capsys, method):
        # a log bound of -t * x at t = 0 is -0.0, which printed as "-0"
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "1", "--method", method,
        )
        assert code == 0
        assert "-0" not in out.split()
        lines = out.splitlines()
        assert ("value: 1" in lines) == ("log_value: 0" in lines)

    def test_opt_lemma1_keeps_a_tiny_p(self, capsys):
        # one summand: log P(X >= x) = (x - 1) ln(1 - p), about -20 here, where
        # 1 - p rounds to 1
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "7.37e-81",
            "--lambda", "20", "--method", "opt-lemma1",
        )
        assert code == 0
        assert "log_value: -20" in out.splitlines()

    def test_opt_chernoff_at_lambda_one_is_not_clamped(self, capsys):
        # the root at lambda = 1 is t = 0 exactly, where the bound is 1
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.3,0.7,0.05",
            "--lambda", "1", "--method", "opt-chernoff",
        )
        assert code == 0
        lines = out.splitlines()
        assert "internal_param: 0" in lines
        assert "clamped: true" not in lines

    @pytest.mark.parametrize("p, lam", [("1,1", "1"), ("4.491630506933066e-139", "1e20")],
                             ids=["tie", "thm1-below-thm2"])
    def test_best_reports_thm1(self, capsys, p, lam):
        # every row is 1 at p = (1, 1), and a tie goes to the earlier row;
        # at lambda = 1e20 thm1 rounds 2 ulps below thm2
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", p, "--lambda", lam, "--method", "best",
        )
        assert code == 0
        assert out.splitlines()[0] == "method: thm1"

    def test_best_prints_the_same_for_a_reversed_params_file(self, capsys, params_1e4, tmp_path):
        reversed_file = tmp_path / "reversed.txt"
        reversed_file.write_text("".join(reversed(params_1e4.read_text().splitlines(True))))
        first, second = (
            run(capsys, "bound", "--dist", "geom", "--params-file", str(path),
                "--lambda", "3", "--method", "best")
            for path in (params_1e4, reversed_file)
        )
        assert first == second
        assert first[0] == 0

    @pytest.mark.parametrize("method, dist, flag, params, lam, log_value", [
        ("cor1", "geom", "--p", "0.3,0.7,0.05", "1.000001", "-4.99999666585e-13"),
        ("thm1", "geom", "--p", "0.3,0.7,0.05", "1.000001", "-6.19047206248e-13"),
        ("tl1", "geom", "--p", "0.3,0.7,0.05", "0.999999", "-6.19048031782e-13"),
        ("texp-iii", "exp", "--a", "1,2,3", "0.999999", "-9.16667277831e-13"),
    ])
    def test_closed_forms_near_lambda_one(self, capsys, method, dist, flag, params, lam,
                                          log_value):
        # lam - 1 - ln lam cancels here: the old form printed cor1 as -5.00044450291e-13
        code, out, _ = run(
            capsys, "bound", "--dist", dist, flag, params, "--lambda", lam, "--method", method,
        )
        assert code == 0
        assert f"log_value: {log_value}" in out.splitlines()

    def test_cor1_at_one(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.9",
            "--lambda", "1", "--method", "cor1",
        )
        assert code == 0
        assert "value: 1\n" in out

    def test_lemma1_above_one_is_clamped(self, capsys):
        # below x = n the raw bound is 3 here; it prints as 1 and says so
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5", "--x", "1",
            "--method", "lemma1", "--z", "1.5",
        )
        assert code == 0
        assert {"value: 1", "log_value: 0", "clamped: true"} <= set(out.splitlines())

    def test_exp_method(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--dist", "exp", "--a", "1,1",
            "--lambda", "2", "--method", "texp-i",
        )
        assert code == 0
        assert "value: 0.270670566473" in out

    def test_x_flag_equivalent(self, capsys):
        code_lam, out_lam, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "2", "--method", "thm2",
        )
        code_x, out_x, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--x", "8", "--method", "thm2",
        )
        assert code_lam == code_x == 0
        assert out_lam == out_x

    def test_lambda_below_one_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "0.5", "--method", "thm1",
        )
        assert code == 3
        assert "error:" in err

    def test_threshold_below_mean_is_domain_error(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--x", "3", "--method", "thm1",
        )
        assert code == 3

    def test_bad_probability_is_domain_error(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,1.5",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 3

    def test_unparseable_params(self, capsys):
        code, out, err = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,abc",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 2
        assert out == ""
        assert err == "error: cannot parse 'abc' as a number\n"

    def test_inline_comment_is_an_empty_list(self, capsys):
        # an inline list reads like a params file: a line starting with '#' is a comment
        code, out, err = run(
            capsys, "bound", "--dist", "geom", "--p", "# 0.5",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 3
        assert out == ""
        assert err == "error: need at least one success probability\n"

    def test_wrong_param_flag_for_dist(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "exp", "--p", "0.5",
            "--lambda", "2", "--method", "texp-i",
        )
        assert code == 2

    def test_method_dist_mismatch(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "exp", "--a", "1,1",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 2

    def test_lemma1_requires_z(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--x", "8", "--method", "lemma1",
        )
        assert code == 2
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--x", "8", "--method", "lemma1", "--z", "1.5",
        )
        assert code == 0
        assert "value: 0.175582990398" in out

    @pytest.mark.parametrize("method", ["thm1", "opt-lemma1", "best"])
    def test_z_refused_unless_lemma1(self, capsys, method):
        code, out, err = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "2", "--method", method, "--z", "1.5",
        )
        assert code == 2
        assert out == ""
        assert err == "error: --z applies only to --method lemma1\n"

    def test_both_query_flags_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "bound", "--dist", "geom", "--p", "0.5", "--lambda", "2",
                "--x", "8", "--method", "thm1",
            ])
        assert exc.value.code == 2

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("# pair\n0.5\n0.5\n")
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--params-file", str(path),
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 0
        assert "value: 0.541341132946" in out

    def test_params_file_with_bad_token(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.5\n0.2 abc\n")
        code, out, err = run(
            capsys, "bound", "--dist", "geom", "--params-file", str(path),
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 2
        assert out == ""
        assert f"{path}:2: cannot parse 'abc' as a number" in err

    def test_params_file_and_inline_conflict(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("0.5\n")
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5",
            "--params-file", str(path), "--lambda", "2", "--method", "thm1",
        )
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--params-file", "/nonexistent",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 2

    def test_infinite_lambda_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda", "inf", "--method", "best",
        )
        assert code == 3
        assert "finite" in err


class TestExact:
    def test_geom(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "8"
        )
        assert code == 0
        assert "value: 0.0625\n" in out
        assert "error_bound: " in out

    def test_geom_deep_tail_has_relative_bound(self, capsys):
        # P(X >= 30) = 30 / 2^29 for two fair geometrics, certified relative
        # to the value rather than to eps (2 k0 + n) absolute
        code, out, _ = run(
            capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "30"
        )
        assert code == 0
        assert "value: 5.58793544769e-08\n" in out
        (line,) = [v for v in out.splitlines() if v.startswith("error_bound: ")]
        assert float(line.split()[1]) < 1e-20

    @pytest.mark.parametrize("x, value", [("60", "1.04083408559e-16"), ("3000", "0")])
    def test_two_fair_geometrics(self, capsys, x, value):
        # P(X >= k) = k / 2^(k-1), which underflows to 0 at k = 3000
        code, out, _ = run(capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", x)
        assert code == 0
        assert f"value: {value}\n" in out

    def test_geom_whole_support_is_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "method: closed-form"
        assert "value: 1\n" in out

    def test_exp(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--dist", "exp", "--a", "1,2", "--x", "1"
        )
        assert code == 0
        assert "value: 0.600423599106" in out
        code, out, _ = run(
            capsys, "exact", "--dist", "exp", "--a", "1,2,3", "--x", "4"
        )
        assert code == 0
        assert "value: 0.0539466729948" in out

    def test_geom_subnormal_tail(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--dist", "geom", "--p", "0.3,0.3,0.7", "--x", "2050"
        )
        assert code == 0
        assert "value: 6.20312929567e-315\n" in out

    def test_stiff_rates_print_the_same_in_any_order(self, capsys):
        # the true error here is about 1e-13, so a smaller bound would be wrong
        first, second = (
            run(capsys, "exact", "--dist", "exp", "--a", rates, "--x", "1")
            for rates in ("2,513,2.00001", "2.00001,2,513")
        )
        assert first == second
        code, out, _ = first
        assert code == 0
        assert float(out.split("error_bound: ")[1].split()[0]) >= 1e-13

    @pytest.mark.parametrize("orders, x", [
        (("0.3,0.9,0.3", "0.9,0.3,0.3"), "40"),
        (("0.76,0.69,0.76", "0.69,0.76,0.76"), "44"),
    ], ids=["x40", "x44"])
    def test_tied_p_print_the_same_in_any_order(self, capsys, orders, x):
        # tied p take the cascade, which reads the p sorted; in the caller's
        # order, the last printed digit of error_bound at x = 44 would differ
        first, second = (
            run(capsys, "exact", "--dist", "geom", "--p", p, "--x", x) for p in orders
        )
        assert first == second
        assert first[1].splitlines()[0] == "method: convolution"

    @pytest.mark.parametrize("argv", [
        ("--dist", "geom", "--p", _P8, "--lambda", "2"),
        ("--dist", "geom", "--p", _P8, "--x", "1.7976931348623157e308"),
        ("--dist", "exp", "--a", "1e-300,1e10", "--x", "1e300"),
    ], ids=["geom8", "geom8-largest-double", "exp-stiff-huge-x"])
    def test_partial_fractions_answer(self, capsys, argv):
        code, out, _ = run(capsys, "exact", *argv)
        assert code == 0
        assert out.splitlines()[0] == "method: partial-fractions"

    @pytest.mark.parametrize("lam", ["2", "3"])
    def test_params_file_of_1e3(self, capsys, tmp_path, lam):
        path = uniform_file(tmp_path / "params_1e3.txt", 10**3, 0.05, 1.0)
        code, out, _ = run(
            capsys, "exact", "--dist", "geom", "--params-file", str(path), "--lambda", lam
        )
        assert code == 0
        assert out.splitlines()[0] == "method: convolution"

    def test_tied_rates_past_the_matrix_cap_are_domain_error(self, capsys, tmp_path):
        path = tmp_path / "tied.txt"
        path.write_text("1.0\n" * 3000)
        code, out, err = run(
            capsys, "exact", "--dist", "exp", "--params-file", str(path), "--lambda", "1"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_negative_x_domain_error(self, capsys):
        code, _, _ = run(
            capsys, "exact", "--dist", "exp", "--a", "1,2", "--x", "-1"
        )
        assert code == 3

    @pytest.mark.parametrize("dist, flag", [("geom", "--p"), ("exp", "--a")])
    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_non_finite_x_is_domain_error(self, capsys, dist, flag, x):
        code, _, err = run(capsys, "exact", "--dist", dist, flag, "0.5,0.25", "--x", x)
        assert code == 3
        assert "finite" in err

    @pytest.mark.parametrize("dist, flag", [("geom", "--p"), ("exp", "--a")])
    def test_overflowing_mean_is_refused(self, capsys, dist, flag):
        # each 1/v is finite but their sum is not: fsum raised OverflowError
        code, _, err = run(capsys, "exact", "--dist", dist, flag, "1e-308,1e-308", "--x", "1")
        assert code == 3
        assert "overflows" in err

    def test_threshold_past_support_cap_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "1e10"
        )
        assert code == 3
        assert "10000000]" in err  # tied p need a grid, whose cap the refusal names

    def test_distinct_p_past_support_cap_answer(self, capsys):
        code, out, _ = run(capsys, "exact", "--dist", "geom", "--p", "0.5,0.2", "--x", "1e9")
        assert code == 0
        assert out.splitlines()[0] == "method: partial-fractions"
        assert "value: 0\n" in out and "error_bound: 9.88131291682e-324\n" in out

    @pytest.mark.parametrize("rates", ["1,1", "1,2"])
    def test_huge_x_is_domain_error(self, rates):
        # 1,1 takes the matrix exponential, whose norm 2 a x overflowed into
        # a traceback; 1,2 the partial fractions, whose error bound was NaN
        proc = python_fresh(
            "-m", "tailbounds.cli", "exact", "--dist", "exp", "--a", rates, "--x", "1e308"
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "x=1e+308" in lines[0]

    def test_tied_rates_at_the_top_of_the_double_range(self, capsys):
        # 2 a x overflowed at the parent's norm; the Erlang tail is 5 e^-4
        code, out, _ = run(capsys, "exact", "--dist", "exp", "--a", "1e308,1e308",
                           "--lambda", "2")
        assert code == 0
        assert "method: matrix-exp\n" in out
        assert "value: 0.0915781944437\n" in out

    def test_overflowing_squarings_are_one_error_line(self):
        # x is about 1e290 and s = 998: the squarings overflow to a NaN row sum
        proc = python_fresh(
            "-m", "tailbounds.cli", "exact", "--dist", "exp",
            "--a", "1e10,1e-10,1e-10,1e-10,1e-300", "--lambda", "1e-10",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "squarings" in line


class TestMc:
    def test_prints_seed_and_is_deterministic(self, capsys):
        args = (
            "mc", "--dist", "geom", "--p", "0.5,0.5", "--x", "8",
            "--samples", "100000", "--seed", "42",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed: 42" in out1
        value = float(out1.split("value: ")[1].splitlines()[0])
        assert abs(value - 0.0625) < 0.003

    def test_same_bytes_in_a_new_interpreter(self, capsys):
        argv = ("mc", "--dist", "geom", "--p", "0.5,0.5", "--x", "8",
                "--samples", "200000", "--seed", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert run_fresh(*argv)[:2] == (code, out)

    @pytest.mark.parametrize("x, value", [("2", "1"), ("2.5", "0")])
    def test_certain_summands(self, capsys, x, value):
        # p = (1, 1) makes X = 2 surely
        code, out, _ = run(
            capsys, "mc", "--dist", "geom", "--p", "1,1", "--x", x, "--samples", "1000"
        )
        assert code == 0
        assert f"value: {value}\n" in out

    def test_params_file_of_1e4(self, capsys, params_1e4):
        code, out, _ = run(
            capsys, "mc", "--dist", "geom", "--params-file", str(params_1e4),
            "--lambda", "1.02", "--samples", "2000",
        )
        assert code == 0
        assert "samples: 2000\n" in out

    def test_lower_side(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--dist", "exp", "--a", "1,2,3", "--lambda", "0.5",
            "--side", "lower", "--samples", "200000",
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines())
        assert fields["side"] == "lower"
        spec = make_exponential_spec([1.0, 2.0, 3.0])
        exact = exact_tail(spec, float(fields["x"]), "lower").value
        assert abs(float(fields["value"]) - exact) <= float(fields["error_bound"])

    def test_zero_samples_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--dist", "geom", "--p", "0.5", "--x", "4", "--samples", "0"])
        assert exc.value.code == 2

    def test_nan_x_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "mc", "--dist", "geom", "--p", "0.5", "--x", "nan")
        assert code == 3
        assert out == ""

    def test_confidence_just_below_one(self, capsys):
        # 0.5 + c / 2 rounds to 1 here, where the normal quantile is infinite
        code, out, _ = run(capsys, "mc", "--dist", "geom", "--p", "0.5,0.5",
                           "--lambda", "2", "--samples", "1000",
                           "--confidence", "0.9999999999999999")
        assert code == 0
        half = float(out.split("error_bound: ")[1].splitlines()[0])
        assert 0.0 < half < 1.0


def _fail_second_row(monkeypatch):
    """Make sweep's Monte Carlo call fail on its second row."""
    calls = []
    mc_tail = montecarlo.mc_tail

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise OutOfRange("second row")
        return mc_tail(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "mc_tail", fail_second)


class TestSweep:
    def test_single_trivial_row(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda-from", "1", "--lambda-to", "1", "--steps", "1",
            "--samples", "2000",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("lambda,x,thm1,thm2,cor1,cor2")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["lambda"] == "1"
        assert cells["x"] == "4"
        for col in ("thm1", "thm2", "cor1", "cor2", "opt_chernoff"):
            assert cells[col] == "1"
        assert float(cells["opt_lemma1"]) <= 1.0

    def test_tied_rates_at_the_top_of_the_double_range(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--dist", "exp", "--a", "9e307,9e307",
            "--lambda-from", "1", "--lambda-to", "3", "--steps", "2", "--samples", "100",
        )
        assert code == 0
        header, first, _ = out.strip().splitlines()
        assert dict(zip(header.split(","), first.split(",")))["exact"] == "0.40600584971"

    def test_rows_ordered_and_sandwiched(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda-from", "1", "--lambda-to", "3", "--steps", "5",
            "--samples", "5000",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 5
        for col in ("thm1", "thm2", "cor1", "cor2", "opt_chernoff", "opt_lemma1"):
            values = [float(r[col]) for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        for r in rows:
            assert float(r["tl_lower"]) <= float(r["exact"]) + 1e-10
            assert float(r["exact"]) <= float(r["thm2"]) + 1e-10

    def test_exp_columns(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--dist", "exp", "--a", "1,2",
            "--lambda-from", "1", "--lambda-to", "2", "--steps", "3",
            "--samples", "2000",
        )
        assert code == 0
        assert out.splitlines()[0] == "lambda,x,texp_i,texp_ii,texp_iv,exact,mc,mc_halfwidth"

    def test_byte_stable(self, capsys):
        args = (
            "sweep", "--dist", "geom", "--p", "0.4,0.7",
            "--lambda-from", "1", "--lambda-to", "2.5", "--steps", "4",
            "--samples", "3000", "--seed", "9",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "\r" not in out1
        assert "," in out1 and ";" not in out1.splitlines()[0]

    def test_numbers_round_trip(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.35,0.8",
            "--lambda-from", "1", "--lambda-to", "4", "--steps", "3",
            "--samples", "2000",
        )
        for line in out.strip().splitlines()[1:]:
            for cell in line.split(","):
                assert format(float(cell), ".12g") == cell

    def test_lambdas_as_linspace(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--dist", "exp", "--a", "1,2",
            "--lambda-from", "1.1", "--lambda-to", "2.3", "--steps", "7",
            "--samples", "1000",
        )
        lams = [line.split(",")[0] for line in out.splitlines()[1:]]
        assert lams == [format(v, ".12g") for v in np.linspace(1.1, 2.3, 7)]

    def test_rows_print_as_computed(self, capsys, monkeypatch):
        # a failure in the second row leaves the header and the first row on stdout
        _fail_second_row(monkeypatch)
        code, out, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.5,0.5",
            "--lambda-from", "1", "--lambda-to", "2", "--steps", "3",
            "--samples", "1000",
        )
        assert code == 3
        header, first = out.splitlines()
        assert header.startswith("lambda,x,")
        assert first.startswith("1,4,")

    def test_grid_is_not_allocated_up_front(self, capsys, monkeypatch):
        # a million steps cost no more memory before the first row than three:
        # the second row fails, so only the header and one row are computed
        import scipy.signal  # noqa: F401  (its import would be traced otherwise)

        _fail_second_row(monkeypatch)
        tracemalloc.start()
        try:
            code, out, _ = run(
                capsys, "sweep", "--dist", "geom", "--p", "0.5,0.5",
                "--lambda-from", "1", "--lambda-to", "2", "--steps", str(10**6),
                "--samples", "1000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert len(out.splitlines()) == 2
        assert peak < 4 * 2**20, peak

    def test_bad_range(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.5",
            "--lambda-from", "0.5", "--lambda-to", "2", "--steps", "3",
        )
        assert code == 3

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("nan", "2"), ("1", "nan")])
    def test_non_finite_range_is_domain_error(self, capsys, lo, hi):
        code, out, _ = run(
            capsys, "sweep", "--dist", "geom", "--p", "0.5",
            "--lambda-from", lo, "--lambda-to", hi, "--steps", "1",
        )
        assert code == 3
        assert out == ""

    def test_zero_steps_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep", "--dist", "geom", "--p", "0.5",
                "--lambda-from", "1", "--lambda-to", "2", "--steps", "0",
            ])
        assert exc.value.code == 2


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "1")
        assert code == 0
        assert "fixed instance p=[0.5, 0.5]" in out
        assert "verify: all properties hold" in out

    def test_fixed_instance_prints_five_numbers(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "1", "--seed", "3")
        assert code == 0
        line = next(l for l in out.splitlines() if "sandwich" in l)
        numbers = [float(tok) for tok in line.split(":")[-1].split()]
        assert len(numbers) == 5
        assert numbers == sorted(numbers)

    def test_zero_trials_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--trials", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_out_of_range_is_domain_error(self, capsys, seed):
        # the range mc and sweep take, refused before anything is printed
        code, out, err = run(capsys, "verify", "--trials", "1", "--seed", seed)
        assert code == 3
        assert out == ""
        assert err == f"error: seed must be an integer in [0, {2**64 - 1}], got {seed}\n"


# Runs the CLI as `python -m tailbounds.cli` would, then reports its exit
# code and the numpy and scipy modules it loaded as JSON on the last line of
# stderr.
_FRESH_CLI = """
import json, runpy, sys
code = 0
try:
    runpy.run_module("tailbounds.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = {top: [m for m in sys.modules if m.split(".")[0] == top] for top in ("numpy", "scipy")}
sys.stderr.write(json.dumps({"code": code, **loaded}) + "\\n")
"""


def python_fresh(*args) -> subprocess.CompletedProcess:
    """`python *args` in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tailbounds.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_fresh(*argv):
    """(exit code, stdout, numpy modules, scipy modules) of the CLI in a new
    interpreter, the modules being those it loaded."""
    proc = python_fresh("-c", _FRESH_CLI, *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    return report["code"], proc.stdout, report["numpy"], report["scipy"]


_BOUND_BEST = ("bound", "--dist", "geom", "--p", "0.5,0.5", "--lambda", "2", "--method", "best")
_MC = ("mc", "--dist", "geom", "--p", "0.5,0.5", "--x", "8", "--samples", "1000")
_EXACT_EXP = ("exact", "--dist", "exp", "--a", "1,2", "--x", "1")
_EXACT_GEOM8 = ("exact", "--dist", "geom", "--p", _P8, "--lambda", "2")


class TestFreshInterpreter:
    """The closed-form and partial-fraction paths, and the optimized bounds of
    small specs, never pay for importing numpy, and only the cascade pays for
    scipy."""

    def test_import_loads_no_scipy(self):
        # neither the package nor the CLI module loads numpy or scipy
        probe = (
            "import sys\n"
            "def heavy():\n"
            "    return [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]\n"
            "import tailbounds\n"
            "package = heavy()\n"
            "import tailbounds.cli\n"
            "print(package, heavy())"
        )
        proc = python_fresh("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] []\n"

    @pytest.mark.parametrize("argv", [_BOUND_BEST, _MC, _EXACT_EXP, _EXACT_GEOM8])
    def test_closed_form_commands_load_no_scipy(self, argv):
        code, out, _, scipy = run_fresh(*argv)
        assert code == 0
        assert "value: " in out
        assert scipy == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "--dist", "geom", "--p", "0.5,0.5", "--lambda", "2", "--method", "thm1"),
            ("bound", "--dist", "exp", "--a", "1,2", "--lambda", "2", "--method", "texp-i"),
            _BOUND_BEST,
            (*_BOUND_BEST[:-1], "opt-chernoff"),
            (*_BOUND_BEST[:-1], "opt-lemma1"),
            (*_BOUND_BEST[:-1], "lemma1", "--z", "1.2"),
            _EXACT_EXP,
            _EXACT_GEOM8,
        ],
        ids=["thm1", "texp-i", "best", "opt-chernoff", "opt-lemma1", "lemma1", "exact-exp",
             "exact-geom8"],
    )
    def test_closed_form_commands_load_no_numpy(self, argv):
        # the optimized rows of a spec this small solve on Python floats
        code, out, numpy, _ = run_fresh(*argv)
        assert code == 0
        assert "value: " in out
        assert numpy == []

    @pytest.mark.parametrize(
        "argv",
        [
            (*_BOUND_BEST[:4], "0.3,0.7,0.05", "--lambda", "1.0001", "--method", "opt-chernoff"),
            (*_BOUND_BEST[:4], _P8, "--lambda", "1.0001", "--method", "opt-chernoff"),
            (*_BOUND_BEST[:4], _P8, "--lambda", "1.0001", "--method", "best"),
            (*_BOUND_BEST[:4], _P8, "--lambda", "20", "--method", "opt-lemma1"),
            (*_BOUND_BEST[:4], _P8, "--lambda", "1.01", "--method", "lemma1", "--z", "1.05"),
        ],
        ids=["opt-chernoff-3", "opt-chernoff-8", "best-8", "opt-lemma1-8", "lemma1-8"],
    )
    def test_optimized_rows_print_the_same_with_numpy_loaded(self, capsys, argv):
        # the fresh interpreter solves on lists, this one (numpy loaded) on arrays;
        # near lam = 1 the logs cancel, so a last-bit difference would print
        code, out, numpy, _ = run_fresh(*argv)
        assert numpy == []
        assert (code, out) == run(capsys, *argv)[:2]

    @pytest.mark.parametrize("extra, loads", [(0, False), (1, True)])
    def test_optimized_rows_load_numpy_above_the_cut_off(self, extra, loads):
        p = ",".join(["0.5"] * (geom_bounds._LIST_MAX_N + extra))
        code, out, numpy, _ = run_fresh(*_BOUND_BEST[:4], p, *_BOUND_BEST[5:])
        assert code == 0
        assert "value: " in out
        assert bool(numpy) == loads

    def test_geom_exact_matches_in_process(self, capsys):
        argv = ("exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "8")
        code, out, _, scipy = run_fresh(*argv)
        assert code == 0
        assert scipy  # the convolution oracle loads it on first use
        assert (code, out) == run(capsys, *argv)[:2]
