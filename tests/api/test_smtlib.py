"""SMT-LIB2 serialization of the term language."""

from fractions import Fraction

import pytest

from repro.api.smtlib import rational, render, symbol, to_smt2
from repro.errors import SolverError
from repro.smt import And, Bool, BoolVal, Not, Or, Real


class TestSymbols:
    def test_simple_names_unquoted(self):
        assert symbol("x") == "x"
        assert symbol("foo_bar-1") == "foo_bar-1"

    def test_special_names_quoted(self):
        assert symbol("q0/g[m1][A]") == "|q0/g[m1][A]|"
        assert symbol("has space") == "|has space|"
        assert symbol("1starts_with_digit") == "|1starts_with_digit|"

    def test_unrepresentable_rejected(self):
        with pytest.raises(SolverError):
            symbol("pipe|name")


class TestRationals:
    def test_integers(self):
        assert rational(Fraction(3)) == "3.0"
        assert rational(Fraction(0)) == "0.0"

    def test_fractions_and_negatives(self):
        assert rational(Fraction(1, 3)) == "(/ 1.0 3.0)"
        assert rational(Fraction(-5)) == "(- 5.0)"
        assert rational(Fraction(-2, 7)) == "(- (/ 2.0 7.0))"


class TestRender:
    def test_boolean_structure(self):
        a, b = Bool("sr_a"), Bool("sr_b")
        assert render(And(a, b)) == "(and sr_a sr_b)"
        assert render(Or(a, Not(b))) == "(or sr_a (not sr_b))"
        assert render(BoolVal(True)) == "true"

    def test_atoms(self):
        x, y = Real("sr_x"), Real("sr_y")
        text = render(x + 2 * y <= 7)
        assert text == "(<= (+ sr_x (* 2.0 sr_y)) 7.0)"
        assert render(x < 0) == "(< sr_x 0.0)"


class TestScript:
    def test_full_script_checks(self):
        x = Real("ss_x")
        a = Bool("ss_a")
        script, terms = to_smt2([x >= 0, Or(Not(a), x <= 5)], [a])
        assert script.startswith("(set-option :produce-unsat-assumptions true)")
        assert "(declare-const ss_a Bool)" in script
        assert "(declare-const ss_x Real)" in script
        assert "(check-sat-assuming (ss_a))" in script
        assert terms == ["ss_a"]

    def test_non_literal_assumptions_get_guards(self):
        x = Real("ss2_x")
        script, terms = to_smt2([x >= 0], [x <= 3])
        assert terms == ["__assume!0"]  # '!' needs no quoting in SMT-LIB2
        assert "(declare-const __assume!0 Bool)" in script
        assert "(assert (= __assume!0 (<= ss2_x 3.0)))" in script
        assert "(check-sat-assuming (__assume!0))" in script

    def test_plain_check_sat_without_assumptions(self):
        x = Real("ss3_x")
        script, terms = to_smt2([x >= 0])
        assert script.rstrip().endswith("(check-sat)")
        assert terms == []

