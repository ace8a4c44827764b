import argparse

import pytest

import tailbounds
from tailbounds import Method, exp_bounds, geom_bounds, methods
from tailbounds.cli import build_parser, main
from tailbounds.methods import METHODS, Side
from tailbounds.model import bound_result


def _method_choices() -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    bound = sub.choices["bound"]
    return next(a for a in bound._actions if a.dest == "method").choices


class TestTable:
    def test_one_row_per_method_except_lemma1(self):
        counts = {m: sum(row.method is m for row in METHODS) for m in Method}
        assert counts.pop(Method.LEMMA1) == 0
        assert set(counts.values()) == {1}

    def test_bound_choices_are_rows_plus_lemma1_and_best(self):
        expected = {row.method.value for row in METHODS} | {"lemma1", "best"}
        choices = _method_choices()
        assert sorted(choices) == list(choices)
        assert set(choices) == expected

    def test_orderings_stay_within_a_side(self):
        by_method = {row.method: row for row in METHODS}
        for row in METHODS:
            for other in row.never_exceeds:
                assert by_method[other].dist == row.dist
                assert by_method[other].side is row.side

    def test_best_upper_is_the_table_minimum(self):
        assert tailbounds.best_upper is methods.best_upper
        spec = tailbounds.make_geometric_spec([0.5, 0.2, 0.1])
        q = tailbounds.make_tail_query(spec.mu, lam=2.5)
        upper = methods.rows("geom", Side.UPPER)
        values = [row.evaluate(spec, q).log_value for row in upper]
        assert methods.best_upper(spec, 2.5).log_value == min(values)

    def test_sweep_columns_come_from_the_table(self, capsys):
        code = main([
            "sweep", "--dist", "geom", "--p", "0.5", "--lambda-from", "1",
            "--lambda-to", "2", "--steps", "2", "--samples", "10",
        ])
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert code == 0
        table = methods.rows("geom", Side.UPPER, Side.UPPER_FROM_BELOW)
        columns = [row.column for row in table]
        assert header == ["lambda", "x", *columns, "exact", "mc", "mc_halfwidth"]


class TestVerifyCanFail:
    @pytest.mark.parametrize(
        "module, name, method, tag",
        [
            (geom_bounds, "upper_tail_cor2", Method.COR2, "sandwich exact<=cor2"),
            (geom_bounds, "upper_tail_lower_bound_tl", Method.TL, "sandwich tl<=exact"),
            (exp_bounds, "exp_upper_ii", Method.TEXP_II, "sandwich exact<=texp-ii"),
            (exp_bounds, "exp_lower_tail_iii", Method.TEXP_III,
             "sandwich exact_lower<=texp-iii"),
        ],
    )
    def test_wrong_bound_fails_its_sandwich(
        self, monkeypatch, capsys, module, name, method, tag
    ):
        # an upper bound far below its tail, or a lower bound at 1; the last
        # argument of every bound function is lam
        log = 0.0 if method is Method.TL else -1000.0
        monkeypatch.setattr(module, name, lambda *a: bound_result(method, a[-1], log))
        code = main(["verify", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert any(line.startswith(f"FAIL {tag} ") for line in out.splitlines())
        assert "verify: all properties hold" not in out

    def test_thm1_above_cor1_fails_dominance(self, monkeypatch, capsys):
        monkeypatch.setattr(
            geom_bounds,
            "upper_tail_thm1",
            lambda spec, lam: bound_result(Method.THM1, lam, 0.0),
        )
        code = main(["verify", "--trials", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("FAIL dominance thm1<=cor1 ") for line in lines)

    def test_fixed_instance_is_checked_through_the_table(self, monkeypatch, capsys):
        # thm2 at 1 on the fixed instance at lam = 3 only: the old hand-listed
        # chain looked at lam = 2 alone, the table checks every ratio
        thm2 = geom_bounds.upper_tail_thm2

        def wrong_at_three(spec, lam):
            if spec.params == (0.5, 0.5) and lam == 3.0:
                return bound_result(Method.THM2, lam, 0.0)
            return thm2(spec, lam)

        monkeypatch.setattr(geom_bounds, "upper_tail_thm2", wrong_at_three)
        code = main(["verify", "--trials", "2", "--seed", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert any(line.startswith("FAIL dominance thm2<=thm1 p=[0.5, 0.5] lam=3.0")
                   for line in lines)
