import argparse
import dataclasses
import math
import random

import pytest

import tailbounds
from conftest import OPTIMIZER_LAMS, optimizer_corpus
from tailbounds import Method, exact_oracle, exp_bounds, geom_bounds, methods
from tailbounds.cli import build_parser, main
from tailbounds.exact_oracle import OracleMethod
from tailbounds.methods import METHODS, Side
from tailbounds.model import bound_result


def _method_choices() -> list[str]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    bound = sub.choices["bound"]
    return next(a for a in bound._actions if a.dest == "method").choices


def _bits(r) -> tuple:
    """A bound result's reported fields, with every float as its exact bits."""
    param = None if r.internal_param is None else float(r.internal_param).hex()
    return (r.log_value.hex(), r.value.hex(), r.method, param, r.clamped,
            r.evaluations, float(r.lam).hex())


def _extreme_corpus():
    """Specs of n in {1, 2, 3, 5, 50}: p_min from 1e-300 up, alone, tied or
    next to p = 1 summands, and all-certain specs."""
    rng = random.Random(29)
    for n in (1, 2, 3, 5, 50):
        yield [1.0] * n
        for p_min in (1e-300, 1e-200, 4.491630506933066e-139, 1e-60, 1e-31, 1e-10, 0.05, 0.5):
            others = [rng.uniform(0.05, 1.0) for _ in range(n - 1)]
            yield [p_min, *others]
            yield [p_min] * n
            yield [p_min, *[1.0] * (n - 1)]


EXTREME_LAMS = (1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.01, 1.5, 2.0, 10.0, 1e3,
                1e10, 1e20, 1e50, 1e100, 1e200, 1e300, 1e308)


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
        # skipping the rows opt-lemma1 never exceeds, and comparing logs before
        # building one result, must not change any field of the table's
        # minimum with opt-lemma1's evaluations, nor which of two tied rows
        # reports it; on bench-style specs, and where the closed forms meet
        # in floating point (lambda = 1e20 and 1e200 with a tiny p_min, and
        # p = 1 summands at lambda = 1)
        assert tailbounds.best_upper is methods.best_upper
        rng = random.Random(8)
        bench = [[rng.uniform(0.05, 1.0) for _ in range(8)] for _ in range(40)]
        cases = [(p, (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0)) for p in bench]
        cases += [(p, EXTREME_LAMS) for p in _extreme_corpus()]
        for _ in range(300):  # where cor1 can round below thm1 and thm2
            p = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 30))]
            p[0] = 10.0 ** rng.uniform(-300.0, -20.0)
            cases.append((p, [10.0 ** rng.uniform(15.0, 300.0) for _ in range(4)]))
        table = methods.rows("geom", Side.UPPER)
        checked = set()
        for p, lams in cases:
            spec = tailbounds.make_geometric_spec(p)
            for lam in lams:
                if not math.isfinite(lam * spec.mu):
                    continue
                q = tailbounds.make_tail_query(spec.mu, lam=lam)
                results = [row.evaluate(spec, q) for row in table]
                every = min(results, key=lambda r: r.log_value)  # keeps the first of equals
                lemma1 = next(r for r in results if r.method is Method.OPT_LEMMA1)
                every = dataclasses.replace(every, evaluations=lemma1.evaluations)
                best = methods.best_upper(spec, lam)
                assert _bits(best) == _bits(every), (p[:3], len(p), lam)
                checked.add(best.method)
        assert {Method.THM1, Method.THM2, Method.COR1, Method.OPT_LEMMA1} <= checked

    def test_best_upper_never_solves_opt_chernoff(self, monkeypatch):
        spec = tailbounds.make_geometric_spec([0.3, 0.5, 0.7, 0.2])
        expected = [methods.best_upper(spec, lam) for lam in (1.0, 1.5, 3.0)]

        def refuse(spec, lam):
            raise AssertionError("opt-chernoff evaluated")

        monkeypatch.setattr(geom_bounds, "optimized_chernoff", refuse)
        answers = [methods.best_upper(spec, lam) for lam in (1.0, 1.5, 3.0)]
        assert answers == expected
        lemma1 = geom_bounds.optimized_lemma1(spec, 3.0 * spec.mu)
        assert answers[-1].evaluations == lemma1.evaluations

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


class TestOrderings:
    def test_geometric_orderings_hold_on_the_optimizer_corpus(self):
        # every never_exceeds pair of the geometric upper rows, with verify's
        # slack, on tied, tiny and certain p, on n = 1..100 and 10^3, at lambda to 100
        table = methods.rows("geom", Side.UPPER)
        pairs = {(row.method, other) for row in table for other in row.never_exceeds}
        assert (Method.OPT_LEMMA1, Method.OPT_CHERNOFF) in pairs
        rng = random.Random(1)
        wide = [tailbounds.make_geometric_spec([rng.uniform(0.05, 1.0) for _ in range(n)])
                for n in range(1, 101)]
        for spec in [*optimizer_corpus(), *wide]:
            for lam in (*OPTIMIZER_LAMS, 50.0, 100.0):
                q = tailbounds.make_tail_query(spec.mu, lam=lam)
                logs = {row.method: row.evaluate(spec, q).log_value for row in table}
                for m, other in pairs:
                    a, b = logs[m], logs[other]
                    assert a <= b + 1e-12 * (1.0 + abs(b)), (spec.params[:4], spec.n, lam, m)


def _answers(spec, lam: float) -> dict:
    """Every row of the spec's distribution whose side admits lam, and its oracles."""
    q = tailbounds.make_tail_query(spec.mu, lam=lam)
    geometric = isinstance(spec, tailbounds.GeometricSumSpec)
    out = {row.method: row.evaluate(spec, q)
           for row in methods.rows("geom" if geometric else "exp", *Side)
           if (lam <= 1.0 if row.side is Side.LOWER else lam >= 1.0)}
    if geometric:
        z = 1.0 + 0.5 * spec.p_min / (1.0 - spec.p_min)
        out.update(best=methods.best_upper(spec, lam),
                   lemma1=geom_bounds.lemma1_bound(spec, q.x, z))
    out["exact"] = exact_oracle.exact_tail(spec, q.x)
    return out


def _geometric_params(rng):
    for n, count in ((3, 12), (8, 12), (50, 8), (1000, 3)):
        for _ in range(count):
            yield [rng.uniform(0.05, 1.0) for _ in range(n)]


def _exponential_rates(rng):
    # distinct rates; n - 1 rates within 1e-6 of each other next to one more,
    # so the matrix route runs; and tied rates
    for n in (2, 3, 5, 8, 12):
        for _ in range(4):
            yield [rng.uniform(0.1, 10.0) for _ in range(n)]
            b = rng.uniform(0.1, 10.0)
            cluster = [b * (1.0 + rng.uniform(1e-9, 1e-6)) for _ in range(n - 1)]
            yield cluster + [rng.uniform(0.1, 10.0)]
            yield [float(rng.choice((1, 2, 3))) for _ in range(n)]


class TestOrderInvariance:
    def test_answers_depend_only_on_the_multiset(self):
        # each spec sorts its parameters once, so every sum over them runs in
        # one order, and both hypoexponential routes read the sorted rates
        rng = random.Random(5)
        cases = [(tailbounds.make_geometric_spec, p, (1.25, 2.0, 5.0))
                 for p in _geometric_params(rng)]
        cases += [(tailbounds.make_exponential_spec, a, (0.5, 1.0, 1.5, 3.0, 8.0))
                  for a in _exponential_rates(rng)]
        routes = set()
        for make, values, lams in cases:
            shuffled = values[:]
            rng.shuffle(shuffled)
            spec, other = make(values), make(shuffled)
            for lam in lams:
                answers = _answers(spec, lam)
                assert answers == _answers(other, lam), (values, lam)
                routes.add(answers["exact"].method)
        assert {OracleMethod.PARTIAL_FRACTIONS, OracleMethod.MATRIX_EXP} <= routes


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

    def test_opt_lemma1_above_opt_chernoff_fails_dominance(self, monkeypatch, capsys):
        # lifted just above opt-chernoff, opt-lemma1 is still an upper bound,
        # so only the ordering in the table catches it
        chernoff = geom_bounds.optimized_chernoff

        def lifted(spec, x):
            log = chernoff(spec, x / spec.mu).log_value
            return bound_result(Method.OPT_LEMMA1, x / spec.mu, log + 1e-6 * (1.0 + abs(log)))

        monkeypatch.setattr(geom_bounds, "optimized_lemma1", lifted)
        code = main(["verify", "--trials", "2", "--seed", "1"])
        failures = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("FAIL ")]
        assert code == 1
        assert failures
        assert all(line.startswith("FAIL dominance opt-lemma1<=opt-chernoff ")
                   for line in failures)

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
