"""Multi-literal theory reasons in the SAT core.

A theory's ``propagate`` may explain an implied literal with any number
of asserted literals.  The LRA theory ships one (the simplex bound's
asserting literal); these tests drive arity-2 reasons through a stub
theory so conflict analysis and final-conflict (unsat core) analysis
stay covered for any arity.
"""

from repro.sat.literals import UNASSIGNED, neg, var_of
from repro.sat.solver import SatSolver, TheoryBackend


class _PairImplies(TheoryBackend):
    """Implies ``target`` with a two-literal explanation once both
    ``premises`` are asserted (positive phase)."""

    def __init__(self, premises, target):
        self.premises = list(premises)
        self.target = target
        self.asserted = set()

    def on_assert(self, literal):
        self.asserted.add(literal)
        return None

    def on_backjump(self, n_kept):
        # The stub re-derives from scratch; forget everything newer.
        self.asserted.clear()

    def propagate(self, assigns):
        if (all(p in self.asserted for p in self.premises)
                and assigns[var_of(self.target)] == UNASSIGNED):
            return [(self.target, tuple(self.premises))]
        return []


def _pos(v):
    return 2 * v


def test_multi_literal_reason_in_conflict_analysis_and_core():
    """Conflict analysis resolves through an arity-2 theory reason and
    final-conflict analysis walks it into ``failed_assumptions``."""
    theory = _PairImplies(premises=[], target=0)
    solver = SatSolver(theory)
    a, b, c, d = (solver.new_var() for _ in range(4))
    theory.premises = [_pos(a), _pos(b)]
    theory.target = _pos(c)
    # c (theory-implied from a, b) forces d and then clashes on it.
    assert solver.add_clause([neg(_pos(c)), _pos(d)])
    assert solver.add_clause([neg(_pos(c)), neg(_pos(d))])
    assert not solver.solve([_pos(a), _pos(b)])
    core = set(solver.failed_assumptions)
    assert core <= {_pos(a), _pos(b)}
    assert _pos(b) in core  # the deepest premise is always reached
    # Without the premises the instance is satisfiable.
    assert solver.solve([])


def test_multi_literal_reason_survives_when_conflict_is_deeper():
    """The learnt clause from a multi-literal reason keeps pruning."""
    theory = _PairImplies(premises=[], target=0)
    solver = SatSolver(theory)
    a, b, c = (solver.new_var() for _ in range(3))
    e, f = solver.new_var(), solver.new_var()
    theory.premises = [_pos(a), _pos(b)]
    theory.target = _pos(c)
    assert solver.add_clause([neg(_pos(c)), _pos(e), _pos(f)])
    assert solver.add_clause([neg(_pos(c)), neg(_pos(e))])
    assert solver.add_clause([neg(_pos(c)), neg(_pos(f))])
    assert not solver.solve([_pos(a), _pos(b)])
    assert set(solver.failed_assumptions) <= {_pos(a), _pos(b)}
    assert solver.solve([_pos(a)])
