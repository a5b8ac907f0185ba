"""Property-based tests: CDCL agrees with brute-force enumeration."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import SatSolver, from_dimacs, lit, to_dimacs


def signed_solver(num_vars):
    """A solver over variables ``1..num_vars``."""
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    return solver


def add_signed(solver, clause):
    return solver.add_clause([from_dimacs(l) for l in clause])


def signed_model(solver):
    return {to_dimacs(lit(v, solver.model_value(v)))
            for v in range(1, solver.num_vars + 1)}


def brute_force_sat(num_vars, clauses):
    """Reference oracle: enumerate all assignments."""
    for bits in product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@st.composite
def cnf_formulas(draw, max_vars=6, max_clauses=14, max_len=4):
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    n_clauses = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = []
    for _ in range(n_clauses):
        length = draw(st.integers(min_value=1, max_value=max_len))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(length)
        ]
        clauses.append(clause)
    return num_vars, clauses


@given(cnf_formulas())
@settings(max_examples=200, deadline=None)
def test_cdcl_matches_brute_force(formula):
    num_vars, clauses = formula
    solver = signed_solver(num_vars)
    trivially_unsat = False
    for clause in clauses:
        if not add_signed(solver, clause):
            trivially_unsat = True
    expected = brute_force_sat(num_vars, clauses)
    got = solver.solve() and not trivially_unsat
    assert got == expected


@given(cnf_formulas(max_vars=5, max_clauses=10))
@settings(max_examples=100, deadline=None)
def test_model_satisfies_formula(formula):
    num_vars, clauses = formula
    solver = signed_solver(num_vars)
    ok = True
    for clause in clauses:
        ok = add_signed(solver, clause) and ok
    if ok and solver.solve():
        model = signed_model(solver)
        for clause in clauses:
            assert any(l in model for l in clause)


@given(cnf_formulas(max_vars=5, max_clauses=8), st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_assumptions_consistent_with_added_units(formula, assume_var):
    """solve([a]) must equal solve() of the formula with unit clause a."""
    num_vars, clauses = formula
    if assume_var > num_vars:
        assume_var = num_vars
    s1 = signed_solver(num_vars)
    ok1 = all(add_signed(s1, c) for c in clauses)
    res_assume = ok1 and s1.solve([from_dimacs(assume_var)])

    s2 = signed_solver(num_vars)
    ok2 = all(add_signed(s2, c) for c in clauses)
    ok2 = add_signed(s2, [assume_var]) and ok2
    res_unit = ok2 and s2.solve()
    assert res_assume == res_unit
