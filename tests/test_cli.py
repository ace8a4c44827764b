import pytest

from tailbounds.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_cor1_at_one(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.9",
            "--lambda", "1", "--method", "cor1",
        )
        assert code == 0
        assert "value: 1\n" in out

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
        code, _, _ = run(
            capsys, "bound", "--dist", "geom", "--p", "0.5,abc",
            "--lambda", "2", "--method", "thm1",
        )
        assert code == 2

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

    def test_exp(self, capsys):
        code, out, _ = run(
            capsys, "exact", "--dist", "exp", "--a", "1,2", "--x", "1"
        )
        assert code == 0
        assert "value: 0.600423599106" in out

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

    def test_threshold_past_support_cap_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "exact", "--dist", "geom", "--p", "0.5,0.5", "--x", "1e10"
        )
        assert code == 3
        assert "cap" in err


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

    def test_zero_samples_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--dist", "geom", "--p", "0.5", "--x", "4", "--samples", "0"])
        assert exc.value.code == 2

    def test_nan_x_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "mc", "--dist", "geom", "--p", "0.5", "--x", "nan")
        assert code == 3
        assert out == ""


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
