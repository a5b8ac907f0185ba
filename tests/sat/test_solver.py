"""Unit tests for the CDCL SAT solver."""

import pytest

from repro.errors import SolverError
from repro.sat import SatSolver, from_dimacs, lit, luby, neg, to_dimacs


def make_solver(n):
    s = SatSolver()
    for _ in range(n):
        s.new_var()
    return s


class TestBasics:
    def test_empty_formula_is_sat(self):
        s = SatSolver()
        assert s.solve()

    def test_single_unit_clause(self):
        s = make_solver(1)
        assert s.add_clause([lit(1)])
        assert s.solve()
        assert s.model_value(1) is True

    def test_negative_unit_clause(self):
        s = make_solver(1)
        assert s.add_clause([lit(1, False)])
        assert s.solve()
        assert s.model_value(1) is False

    def test_contradicting_units_unsat(self):
        s = make_solver(1)
        s.add_clause([lit(1)])
        assert not s.add_clause([lit(1, False)]) or not s.solve()

    def test_two_var_implication_chain(self):
        s = make_solver(3)
        s.add_clause([lit(1)])
        s.add_clause([lit(1, False), lit(2)])
        s.add_clause([lit(2, False), lit(3)])
        assert s.solve()
        assert s.model_value(1) and s.model_value(2) and s.model_value(3)

    def test_simple_unsat_triangle(self):
        s = make_solver(2)
        s.add_clause([lit(1), lit(2)])
        s.add_clause([lit(1, False), lit(2)])
        s.add_clause([lit(1), lit(2, False)])
        s.add_clause([lit(1, False), lit(2, False)])
        assert not s.solve()

    def test_tautological_clause_ignored(self):
        s = make_solver(2)
        assert s.add_clause([lit(1), lit(1, False)])
        s.add_clause([lit(2)])
        assert s.solve()
        assert s.model_value(2)

    def test_duplicate_literals_collapsed(self):
        s = make_solver(1)
        s.add_clause([lit(1), lit(1), lit(1)])
        assert s.solve()
        assert s.model_value(1)

    def test_unknown_variable_rejected(self):
        s = make_solver(1)
        with pytest.raises(SolverError):
            s.add_clause([lit(5)])

    def test_model_query_before_solve_raises(self):
        s = make_solver(1)
        with pytest.raises(SolverError):
            s.model_value(1)

    def test_model_satisfies_all_clauses(self):
        s = make_solver(4)
        clauses = [
            [lit(1), lit(2, False)],
            [lit(2), lit(3)],
            [lit(3, False), lit(4, False)],
            [lit(1, False), lit(4)],
        ]
        for c in clauses:
            s.add_clause(list(c))
        assert s.solve()
        for c in clauses:
            assert any(
                s.model_value(v // 2) == (v % 2 == 0) for v in c
            ), f"clause {c} falsified"


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = make_solver(2)
        s.add_clause([lit(1), lit(2)])
        assert s.solve([lit(1, False)])
        assert s.model_value(2)

    def test_unsat_under_assumptions_recoverable(self):
        s = make_solver(2)
        s.add_clause([lit(1), lit(2)])
        assert not s.solve([lit(1, False), lit(2, False)])
        # Solver stays usable afterwards.
        assert s.solve()
        assert s.solve([lit(1)])

    def test_conflicting_assumptions(self):
        s = make_solver(1)
        assert not s.solve([lit(1), lit(1, False)])
        assert s.solve()


class TestIncremental:
    def test_add_clauses_between_solves(self):
        s = make_solver(3)
        s.add_clause([lit(1), lit(2)])
        assert s.solve()
        s.add_clause([lit(1, False)])
        assert s.solve()
        assert s.model_value(2)
        s.add_clause([lit(2, False)])
        assert not s.solve()

    def test_php_3_pigeons_2_holes_unsat(self):
        # Pigeonhole principle: var p_ij = pigeon i in hole j.
        s = SatSolver()
        v = {}
        for i in range(3):
            for j in range(2):
                v[i, j] = s.new_var()
        for i in range(3):
            s.add_clause([lit(v[i, 0]), lit(v[i, 1])])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    s.add_clause([lit(v[i1, j], False), lit(v[i2, j], False)])
        assert not s.solve()

    def test_php_4_pigeons_3_holes_unsat(self):
        s = SatSolver()
        v = {}
        pigeons, holes = 4, 3
        for i in range(pigeons):
            for j in range(holes):
                v[i, j] = s.new_var()
        for i in range(pigeons):
            s.add_clause([lit(v[i, j]) for j in range(holes)])
        for j in range(holes):
            for i1 in range(pigeons):
                for i2 in range(i1 + 1, pigeons):
                    s.add_clause([lit(v[i1, j], False), lit(v[i2, j], False)])
        assert not s.solve()

    def test_statistics_populated(self):
        s = make_solver(2)
        s.add_clause([lit(1), lit(2)])
        s.solve()
        stats = s.statistics
        assert stats["vars"] == 2
        assert stats["clauses"] >= 0


class TestLuby:
    def test_luby_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestDimacsSolver:
    """The core driven in signed DIMACS literals via ``from_dimacs`` /
    ``to_dimacs``."""

    @staticmethod
    def signed_model(s):
        return {to_dimacs(lit(v, s.model_value(v)))
                for v in range(1, s.num_vars + 1)}

    def test_signed_interface(self):
        s = make_solver(3)
        clauses = ([1, -2], [2, 3], [-1, -3])
        for clause in clauses:
            s.add_clause([from_dimacs(l) for l in clause])
        assert s.solve()
        model = self.signed_model(s)
        for clause in clauses:
            assert any(l in model for l in clause)

    def test_solve_under_signed_assumptions(self):
        s = make_solver(2)
        s.add_clause([from_dimacs(1), from_dimacs(2)])
        assert s.solve([from_dimacs(-1)])
        assert 2 in self.signed_model(s)
