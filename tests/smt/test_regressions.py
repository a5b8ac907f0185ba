"""QF_LRA regression corpus: tricky satisfiability cases for the DPLL(T)
stack (strict/non-strict mixes, degenerate equalities, coefficient
spreads, deep Boolean structure over arithmetic)."""

from fractions import Fraction

import pytest

from repro.api import Session
from repro.smt import (
    And,
    Bool,
    Implies,
    Not,
    Or,
    Real,
    SolverEngine,
    sat,
    unsat,
)


def check(formulas):
    s = SolverEngine()
    s.add(list(formulas))
    return s


class TestStrictness:
    def test_open_interval_chain(self):
        # x1 < x2 < x3 < x1 + 1 with x2 - x1 > 1/2 and x3 - x2 > 1/2: unsat.
        x1, x2, x3 = Real("ra1"), Real("ra2"), Real("ra3")
        s = check([
            x2 - x1 > Fraction(1, 2),
            x3 - x2 > Fraction(1, 2),
            x3 - x1 < 1,
        ])
        assert s.check() == unsat

    def test_strict_sandwich_sat(self):
        x = Real("rb")
        s = check([x > 0, x < Fraction(1, 10**9)])
        assert s.check() == sat
        assert 0 < s.model()[x] < Fraction(1, 10**9)

    def test_nonstrict_closure_of_strict_chain(self):
        # x >= y and y >= x and x != y: unsat (equality forced).
        x, y = Real("rc1"), Real("rc2")
        s = check([x >= y, y >= x, x != y])
        assert s.check() == unsat

    def test_equality_propagation(self):
        x, y, z = Real("rd1"), Real("rd2"), Real("rd3")
        s = check([x == y, y == z, x - z >= Fraction(1, 1000)])
        assert s.check() == unsat


class TestCoefficients:
    def test_large_spread(self):
        x, y = Real("re1"), Real("re2")
        s = check([10**9 * x + y <= 1, x >= 0, y >= 0,
                   x + 10**9 * y >= Fraction(1, 2)])
        assert s.check() == sat
        m = s.model()
        assert 10**9 * m[x] + m[y] <= 1

    def test_tiny_fractions(self):
        x = Real("rf")
        tiny = Fraction(1, 10**12)
        s = check([x >= tiny, x <= 2 * tiny])
        assert s.check() == sat
        assert tiny <= s.model()[x] <= 2 * tiny

    def test_cancellation(self):
        # (x + y) - (x - y) = 2y: solver must see through the rewriting.
        x, y = Real("rg1"), Real("rg2")
        s = check([(x + y) - (x - y) >= 4, y <= 1])
        assert s.check() == unsat


class TestBooleanArithmeticInterplay:
    def test_xor_style_selection(self):
        a, b = Bool("rha"), Bool("rhb")
        x = Real("rhx")
        s = check([
            Or(a, b),
            Or(Not(a), Not(b)),
            Implies(a, x >= 5),
            Implies(b, x <= -5),
            x >= 0,
        ])
        assert s.check() == sat
        m = s.model()
        assert m[a] is True and m[b] is False
        assert m[x] >= 5

    def test_deep_implication_tower_unsat(self):
        bools = [Bool(f"ri{k}") for k in range(8)]
        x = Real("rix")
        formulas = [bools[0], x <= 0]
        for k in range(7):
            formulas.append(Implies(bools[k], bools[k + 1]))
        formulas.append(Implies(bools[7], x >= 1))
        s = check(formulas)
        assert s.check() == unsat

    def test_at_most_one_window_packing(self):
        """Three unit jobs, two machines, horizon 2: pigeonhole-flavoured."""
        starts = [Real(f"rj{k}") for k in range(3)]
        on_m1 = [Bool(f"rjm{k}") for k in range(3)]
        formulas = []
        for t in starts:
            formulas += [t >= 0, t <= 1]
        for i in range(3):
            for j in range(i + 1, 3):
                same = And(on_m1[i], on_m1[j])
                diff = And(Not(on_m1[i]), Not(on_m1[j]))
                overlap_free = Or(
                    starts[i] - starts[j] >= 1, starts[j] - starts[i] >= 1
                )
                formulas.append(Implies(same, overlap_free))
                formulas.append(Implies(diff, overlap_free))
        s = check(formulas)
        # 2 machines x horizon [0,2] fit 4 unit jobs; 3 jobs are fine.
        assert s.check() == sat

    def test_contention_triangle_unsat(self):
        """Three messages pairwise >= 1 apart inside a window of 2."""
        t = [Real(f"rk{k}") for k in range(3)]
        formulas = []
        for x in t:
            formulas += [x >= 0, x <= Fraction(3, 2) - 1]  # starts in [0, 1/2]
        for i in range(3):
            for j in range(i + 1, 3):
                formulas.append(Or(t[i] - t[j] >= 1, t[j] - t[i] >= 1))
        s = check(formulas)
        assert s.check() == unsat


class TestIncrementalPatterns:
    def test_alternating_sat_unsat(self):
        x = Real("rl")
        s = SolverEngine()
        s.add(x >= 0)
        assert s.check() == sat
        s.add(x <= 10)
        assert s.check() == sat
        s.add(Or(x <= 2, x >= 8))
        assert s.check() == sat
        s.add(x >= 3, x <= 7)
        assert s.check() == unsat

    def test_model_stability_across_checks(self):
        x, y = Real("rm1"), Real("rm2")
        s = SolverEngine()
        s.add(x + y == 10, x >= 0, y >= 0)
        assert s.check() == sat
        m1 = s.model()
        assert m1[x] + m1[y] == 10
        s.add(x >= 6)
        assert s.check() == sat
        m2 = s.model()
        assert m2[x] >= 6 and m2[x] + m2[y] == 10

    def test_many_small_checks(self):
        s = SolverEngine()
        x = Real("rn")
        s.add(x >= 0, x <= 100)
        for k in range(20):
            s.add(x >= k)
            assert s.check() == sat
        s.add(x <= 18)
        assert s.check() == unsat


class TestRecycledNodeAddresses:
    """The CNF layer caches composite nodes by identity.

    The cache used to be keyed on ``id(expr)`` with nothing keeping
    ``expr`` alive: once a scope was popped (or a composite assumption
    went out of use) CPython handed the freed address to the next
    ``And`` node, and ``literal_for`` answered with the *stale* Tseitin
    literal of a different formula -- a wrong ``sat``.  Each test frees a
    batch of cached nodes and then builds 1,000 fresh ones, 25 to a
    check that is unsat only if every one of them is read as itself; the
    old code aliases in the first round, a cache that holds its keys
    never can.
    """

    ROUNDS, BATCH = 40, 25

    @staticmethod
    def _bools(tag):
        return [Bool(f"rz{tag}{k}") for k in "abcde"]

    def _after_pop(self, s, tag):
        a, b, c, d, e = self._bools(tag)
        s.push()
        s.add([Or(a, And(b, c)) for _ in range(64)])
        assert s.check() == sat
        s.pop()
        for _ in range(self.ROUNDS):
            s.push()
            # Some (d and e) holds, but d does not.
            s.add(Or([And(d, e) for _ in range(self.BATCH)]), Not(d))
            assert s.check() == unsat
            s.pop()

    def test_nodes_freed_by_session_pop(self):
        self._after_pop(Session(), "s")

    def test_nodes_freed_by_legacy_solver_pop(self):
        self._after_pop(SolverEngine(), "l")

    def test_composite_assumptions_freed_after_check(self):
        a, b, c, d, e = self._bools("q")
        s = Session()
        s.add(Or(a, b))
        assert s.check([And(b, c) for _ in range(64)]) == sat
        for _ in range(self.ROUNDS):
            some = Or([And(d, e) for _ in range(self.BATCH)])
            assert s.check(some, Not(d)) == unsat
