"""Theory propagation over pure difference-logic systems.

The simplex-bound channel is the only theory propagation the solver
has: it assigns span atoms ``x - y <= c`` that the current bounds
already entail, each with a one-literal reason. On seeded random
difference systems — unit facts, guarded and negated spans, and flipped
``>=`` atoms — ``theory_propagation`` on and off must agree on the
status, both models must satisfy every clause, and the off engine must
report no propagations.
"""

import random

import pytest

from repro.smt import Bool, Not, Or, Real, SolverEngine, sat


def _random_difference_system(seed: int):
    """Random difference constraints with entailed/refuted span atoms."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    xs = [Real(f"dlp{seed}_x{i}") for i in range(n)]
    bs = [Bool(f"dlp{seed}_b{i}") for i in range(3)]
    clauses = []
    for _ in range(rng.randint(5, 12)):
        kind = rng.random()
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-4, 4)
        atom = xs[i] - xs[j] <= c
        if kind < 0.35:
            clauses.append(atom)  # unit difference fact
        elif kind < 0.7:
            clauses.append(Or(atom, bs[rng.randrange(3)]))
        elif kind < 0.85:
            clauses.append(Or(Not(atom), bs[rng.randrange(3)]))
        else:
            clauses.append(Or(xs[i] - xs[j] >= c, bs[rng.randrange(3)]))
    return clauses


@pytest.mark.parametrize("seed", range(20))
def test_on_off_equivalence_random_difference_systems(seed):
    clauses = _random_difference_system(seed)
    on = SolverEngine(theory_propagation=True)
    off = SolverEngine(theory_propagation=False)
    on.add(*clauses)
    off.add(*clauses)
    r_on, r_off = on.check(), off.check()
    assert r_on.name == r_off.name
    if r_on == sat:
        for engine in (on, off):
            model = engine.model()
            for clause in clauses:
                assert model.eval_bool(clause)
    assert off.statistics["theory_propagations"] == 0
