"""Theory propagation: equivalence with a propagation-free solver.

Theory propagation is a *search* optimization — it assigns entailed atoms
instead of branching on them — so it must never change a sat/unsat answer
or produce a non-certifying model.  These tests race a propagating solver
against ``SolverEngine(theory_propagation=False)`` on seeded random QF_LRA
formulas and on directed scenarios where propagation provably fires.
"""

import random
from fractions import Fraction

import pytest

from repro.smt import And, Bool, Not, Or, Real, SolverEngine, sat, unsat


def _random_formula(seed: int):
    """A small random mix of difference atoms, bounds and Booleans."""
    rng = random.Random(seed)
    xs = [Real(f"tp{seed}_x{i}") for i in range(4)]
    bs = [Bool(f"tp{seed}_b{i}") for i in range(3)]
    clauses = []
    for _ in range(rng.randint(4, 10)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if kind < 0.4:
                a, b = rng.sample(range(len(xs)), 2)
                atom = xs[a] - xs[b] <= rng.randint(-4, 4)
            elif kind < 0.7:
                atom = xs[rng.randrange(len(xs))] <= rng.randint(-4, 4)
            elif kind < 0.85:
                # A general (non-difference) atom: 3 variables.
                a, b, c = rng.sample(range(len(xs)), 3)
                atom = (
                    xs[a] * Fraction(rng.randint(1, 2))
                    + xs[b] * Fraction(rng.randint(1, 2))
                    + xs[c] * Fraction(rng.randint(-2, -1))
                    <= rng.randint(-3, 3)
                )
            else:
                atom = bs[rng.randrange(len(bs))]
            if rng.random() < 0.4:
                atom = Not(atom)
            lits.append(atom)
        clauses.append(Or(*lits))
    return clauses


@pytest.mark.parametrize("seed", range(15))
def test_propagation_preserves_answers(seed):
    clauses = _random_formula(seed)
    s_on = SolverEngine(theory_propagation=True)
    s_off = SolverEngine(theory_propagation=False)
    s_on.add(*clauses)
    s_off.add(*clauses)
    r_on = s_on.check()
    r_off = s_off.check()
    assert r_on.name == r_off.name
    if r_on == sat:
        # Both models must certify the full formula.
        for solver in (s_on, s_off):
            m = solver.model()
            for clause in clauses:
                assert m.eval_bool(clause)


def test_propagation_fires_and_is_counted():
    """An entailed atom is assigned by the theory, not decided."""
    x = Real("tp_fire_x")
    b = Bool("tp_fire_b")
    s = SolverEngine()
    # x <= 5 is forced; the clause atom (x <= 7) is then entailed, so the
    # solver should never branch on it.
    s.add(x <= 5, Or(b, x <= 7), Or(Not(b), x <= 7))
    assert s.check() == sat
    assert s.statistics["theory_propagations"] >= 1
    assert s.last_check_statistics["theory_propagations"] >= 1


def test_propagation_disabled_reports_zero():
    x = Real("tp_off_x")
    s = SolverEngine(theory_propagation=False)
    s.add(x <= 5, Or(Bool("tp_off_b"), x <= 7))
    assert s.check() == sat
    assert s.statistics["theory_propagations"] == 0


def test_propagated_literal_in_conflict_analysis():
    """Conflicts that resolve on propagated literals still learn/answer."""
    x, y = Real("tp_ca_x"), Real("tp_ca_y")
    b = Bool("tp_ca_b")
    s = SolverEngine()
    # x - y <= 2 entails x - y <= 5; forcing its negation via b makes the
    # reason clause of the propagated literal participate in analysis.
    s.add(x - y <= 2)
    s.add(Or(b, Not(x - y <= 5)))
    s.add(Or(b, y - x <= -6))
    assert s.check() == sat
    m = s.model()
    assert m[b] is True

    s2 = SolverEngine()
    s2.add(x - y <= 2, Not(x - y <= 5))
    assert s2.check() == unsat


def test_shared_canonical_slack_between_orientations():
    """Opposite-orientation difference atoms interact through one var."""
    x, y = Real("tp_cs_x"), Real("tp_cs_y")
    s = SolverEngine()
    # x - y <= 3   and   y - x <= -5  (i.e. x - y >= 5): unsat, and the
    # conflict is visible at bound-assertion time on the shared slack.
    s.add(x - y <= 3, y - x <= -5)
    assert s.check() == unsat

    s2 = SolverEngine()
    s2.add(x - y <= 3, y - x <= -2)   # x - y in [2, 3]: sat
    assert s2.check() == sat
    assert m_diff(s2) <= 3


def m_diff(solver):
    m = solver.model()
    x, y = Real("tp_cs_x"), Real("tp_cs_y")
    return m[x] - m[y]
