"""Relevancy-filtered decisions: don't-care atoms stay undecided.

A variable declared with ``SatSolver.mark_atom`` is decided only while a
problem clause containing it has no true literal; otherwise it is parked
and a SAT answer may leave it open.  UNSAT answers and cores cannot be
hurt by that (every conflict is still derived from asserted literals),
so the one hazard is a ``True`` with a clause left unsatisfied.  These
tests close it from the SAT core's side:

* :class:`CheckedSolver` asserts, at **every** ``True`` answer, that each
  problem clause ever added has a true literal among the *assigned*
  variables and that every assumption holds.
* :class:`OrderTheory` is a small complete theory (strict total orders
  over a handful of points, an atom being ``p < q``) so that parked atoms
  get their truth from a theory model, conflicts come with explanations,
  and the ground truth is brute force over permutations x Booleans.
* Seeded guarded-disjunction formulas -- the shape of the paper's Eq. 5
  next to Eq. 8 -- are driven through plain solves, assumptions, clauses
  added after a ``sat``, forced restarts and ``_reduce_db``.
* One deterministic scenario per way of getting the bookkeeping wrong
  (the four hand mutants of the PR that introduced the filter: no
  re-insertion on backjump, none at ``solve()`` start, parking without
  the satisfied-clause check, an occurrence list blind to one polarity).
"""

import random
from itertools import combinations, permutations, product

import pytest

from repro.errors import SolverError
from repro.sat import SatSolver, lit
from repro.sat import solver as solver_module
from repro.sat.literals import UNASSIGNED, is_positive, var_of
from repro.sat.solver import TheoryBackend


class CheckedSolver(SatSolver):
    """``SatSolver`` that refuses to answer ``True`` over an open clause."""

    def __init__(self, theory=None):
        super().__init__(theory)
        self.problem = []
        self.undecided_at_sat = []

    def add_clause(self, lits):
        lits = list(lits)
        if not any(l ^ 1 in lits for l in lits):  # tautologies bind nothing
            self.problem.append(lits)
        return super().add_clause(lits)

    def lit_is_true(self, l):
        # UNASSIGNED is -1: neither -1 ^ 0 nor -1 ^ 1 equals 1.
        return self._model[var_of(l)] ^ (l & 1) == 1

    def solve(self, assumptions=(), max_conflicts=None):
        answer = super().solve(assumptions, max_conflicts)
        if answer:
            for clause in self.problem:
                assert any(self.lit_is_true(l) for l in clause), (
                    f"sat answered with clause {clause} open")
            for l in assumptions:
                assert self.lit_is_true(l), f"assumption {l} not asserted"
            self.undecided_at_sat.append(
                [v for v in range(1, self.num_vars + 1)
                 if self._model[v] == UNASSIGNED])
        return answer


class OrderTheory(TheoryBackend):
    """Strict total orders over ``n`` points; an atom says ``p < q``.

    The positive literal of an atom's variable asserts the edge
    ``p -> q``, the negative one ``q -> p`` (two distinct points are
    always comparable).  A set of asserted edges is consistent iff it is
    acyclic -- and then extends to a total order, in which every atom the
    SAT core left open has a truth value too.
    """

    def __init__(self, n_points):
        self.n_points = n_points
        self.pairs = {}      # SAT variable -> (p, q)
        self.log = []        # per trail literal: (src, dst, literal) or None
        self.position = None

    def _edge(self, literal):
        pair = self.pairs.get(var_of(literal))
        if pair is None:
            return None
        p, q = pair if is_positive(literal) else pair[::-1]
        return (p, q, literal)

    def _path(self, src, dst):
        """Literals of an asserted path ``src ->* dst``, or None."""
        stack, seen = [(src, [])], {src}
        while stack:
            node, lits = stack.pop()
            if node == dst:
                return lits
            for edge in self.log:
                if edge is not None and edge[0] == node and edge[1] not in seen:
                    seen.add(edge[1])
                    stack.append((edge[1], lits + [edge[2]]))
        return None

    def on_assert(self, literal):
        edge = self._edge(literal)
        back = None if edge is None else self._path(edge[1], edge[0])
        self.log.append(edge)
        return None if back is None else back + [literal]

    def on_backjump(self, n_kept):
        del self.log[n_kept:]

    def final_check(self):
        below = {p: set() for p in range(self.n_points)}
        for edge in self.log:
            if edge is not None:
                below[edge[1]].add(edge[0])
        order = []
        while len(order) < self.n_points:
            order.append(next(p for p in below
                              if p not in order and below[p] <= set(order)))
        self.position = {p: i for i, p in enumerate(order)}
        return None

    def atom_is_true(self, var):
        p, q = self.pairs[var]
        return self.position[p] < self.position[q]


def model_satisfies(solver, theory, clauses):
    """Every clause true with atoms read from the *theory* model."""
    def lit_holds(l):
        v = var_of(l)
        value = (theory.atom_is_true(v) if v in theory.pairs
                 else solver.model_value(v))
        return value == is_positive(l)
    return all(any(lit_holds(l) for l in clause) for clause in clauses)


def holds(value, clause):
    return any(value[var_of(l)] == is_positive(l) for l in clause)


class GroundTruth:
    """Brute force: the total assignments (Booleans x total orders over
    the theory's points) that satisfy every clause added so far."""

    def __init__(self, n_bools, theory):
        self.models = []
        for order in permutations(range(theory.n_points)):
            position = {p: i for i, p in enumerate(order)}
            atoms = {v: position[p] < position[q]
                     for v, (p, q) in theory.pairs.items()}
            for bits in product((False, True), repeat=n_bools):
                value = dict(enumerate(bits, start=1))
                value.update(atoms)
                self.models.append(value)

    def add(self, clauses):
        self.models = [m for m in self.models
                       if all(holds(m, c) for c in clauses)]

    def sat(self, assumptions=()):
        return any(all(holds(m, [l]) for l in assumptions)
                   for m in self.models)


def build(n_points=4, n_messages=3, n_routes=2, mark=True):
    """Selectors (exactly one per message, Eq. 8), order atoms, and a
    solver holding both; atoms are marked unless ``mark`` is off.  The
    default size is what :class:`GroundTruth` enumerates in no time."""
    theory = OrderTheory(n_points)
    solver = CheckedSolver(theory)
    selectors = [[solver.new_var() for _ in range(n_routes)]
                 for _ in range(n_messages)]
    n_bools = solver.num_vars
    atoms = []
    for p, q in combinations(range(n_points), 2):
        v = solver.new_var()
        if mark:
            solver.mark_atom(v)
        theory.pairs[v] = (p, q)
        atoms.append(v)
    for group in selectors:
        solver.add_clause([lit(v) for v in group])
        for a, b in combinations(group, 2):
            solver.add_clause([lit(a, False), lit(b, False)])
    return solver, theory, selectors, atoms, n_bools


def random_lit(rng, variables):
    return lit(rng.choice(variables), rng.random() < 0.5)


def guarded_clause(rng, selectors, atoms):
    """``not sel_1 or not sel_2 or atom or atom`` (Eq. 5's shape)."""
    m1, m2 = rng.sample(range(len(selectors)), 2)
    guards = [lit(rng.choice(selectors[m1]), False),
              lit(rng.choice(selectors[m2]), False)]
    a, b = rng.sample(atoms, 2)
    return guards + [lit(a, rng.random() < 0.5), lit(b, rng.random() < 0.5)]


def random_clauses(rng, selectors, atoms, n_guarded, n_free):
    flat = [v for group in selectors for v in group]
    clauses = [guarded_clause(rng, selectors, atoms)
               for _ in range(n_guarded)]
    for _ in range(n_free):
        # Unguarded atom clauses (units included) and mixed ones: the
        # part of the formula that binds whatever gets selected.
        width = rng.choice((1, 2, 2, 3))
        pool = atoms if rng.random() < 0.6 else atoms + flat
        clauses.append([random_lit(rng, pool) for _ in range(width)])
    return clauses


@pytest.fixture(params=(False, True), ids=("plain", "churned"))
def churn(request, monkeypatch):
    """Second mode: restart after every conflict and reduce the learnt
    database at every restart, so parking meets both all the time."""
    if request.param:
        monkeypatch.setattr(solver_module, "luby", lambda i: 0.01)
    return request.param


def arm(solver, churn):
    if churn:
        solver.on_restart = lambda s: s._reduce_db()


SEEDS = range(24)


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_and_models_on_guarded_disjunctions(seed, churn):
    rng = random.Random(7000 + seed)
    solver, theory, selectors, atoms, n_bools = build()
    arm(solver, churn)
    clauses = random_clauses(rng, selectors, atoms, n_guarded=14, n_free=5)
    alive = all([solver.add_clause(c) for c in clauses])
    truth = GroundTruth(n_bools, theory)
    truth.add(solver.problem)
    assert bool(alive and solver.solve()) == truth.sat()
    if truth.sat():
        assert model_satisfies(solver, theory, solver.problem)


@pytest.mark.parametrize("seed", SEEDS)
def test_assumptions_and_failed_assumptions(seed, churn):
    rng = random.Random(8000 + seed)
    solver, theory, selectors, atoms, n_bools = build()
    arm(solver, churn)
    for c in random_clauses(rng, selectors, atoms, n_guarded=12, n_free=2):
        solver.add_clause(c)
    truth = GroundTruth(n_bools, theory)
    truth.add(solver.problem)
    flat = [v for group in selectors for v in group]
    for _ in range(6):
        chosen = rng.sample(flat, 2) + rng.sample(atoms, 2)
        assumptions = [lit(v, rng.random() < 0.6) for v in chosen]
        assert bool(solver.solve(assumptions)) == truth.sat(assumptions)
        if truth.sat(assumptions):
            assert model_satisfies(solver, theory, solver.problem)
            assert model_satisfies(solver, theory, [[l] for l in assumptions])
        elif truth.sat():
            core = solver.failed_assumptions
            assert set(core) <= set(assumptions)
            assert not truth.sat(core)


@pytest.mark.parametrize("seed", SEEDS)
def test_clauses_added_after_a_sat(seed, churn):
    rng = random.Random(9000 + seed)
    solver, theory, selectors, atoms, n_bools = build()
    arm(solver, churn)
    truth = GroundTruth(n_bools, theory)
    truth.add(solver.problem)
    fresh = random_clauses(rng, selectors, atoms, n_guarded=6, n_free=0)
    alive = True
    for _ in range(8):
        alive = all([solver.add_clause(c) for c in fresh]) and alive
        truth.add(fresh)
        assert bool(alive and solver.solve()) == truth.sat()
        if not truth.sat():
            break
        assert model_satisfies(solver, theory, solver.problem)
        fresh = random_clauses(rng, selectors, atoms, n_guarded=2, n_free=2)


@pytest.mark.parametrize("seed", range(12))
def test_same_verdicts_as_the_full_assignment_search(seed, churn):
    # Too large to enumerate, large enough for conflicts deep below the
    # levels atoms get parked at.  The oracle for ``unsat`` is the same
    # clauses with no variable marked -- the search as it was before the
    # filter; every ``sat`` of either is certified by CheckedSolver and
    # by the theory's model.  Marking may change models and effort,
    # never a verdict.
    size = dict(n_points=7, n_messages=5, n_routes=3)
    filtered, theory, selectors, atoms, _ = build(**size)
    full, full_theory, _, _, _ = build(**size, mark=False)
    arm(filtered, churn)
    arm(full, churn)
    rng = random.Random(9500 + seed)
    flat = [v for group in selectors for v in group]
    fresh = random_clauses(rng, selectors, atoms, n_guarded=70, n_free=10)
    for _ in range(5):
        for c in fresh:
            filtered.add_clause(c)
            full.add_clause(c)
        chosen = rng.sample(flat, 2) + rng.sample(atoms, 3)
        for assumptions in ((), [lit(v, rng.random() < 0.6) for v in chosen]):
            verdict = filtered.solve(assumptions)
            assert verdict == full.solve(assumptions)
            if verdict:
                clauses = filtered.problem + [[l] for l in assumptions]
                assert model_satisfies(filtered, theory, clauses)
                assert model_satisfies(full, full_theory, clauses)
        fresh = random_clauses(rng, selectors, atoms, n_guarded=10, n_free=3)
    assert not any(full.undecided_at_sat)
    if filtered.undecided_at_sat:
        assert (filtered.statistics["decisions"]
                < full.statistics["decisions"])


def test_the_seeded_formulas_do_leave_atoms_undecided():
    # Non-vacuity of everything above: with guards that mostly do not
    # bind, most sat answers are partial over the atoms -- and never over
    # an unmarked variable.
    partial = total = 0
    for seed in SEEDS:
        rng = random.Random(7000 + seed)
        solver, theory, selectors, atoms, n_bools = build()
        for c in random_clauses(rng, selectors, atoms, 14, 5):
            solver.add_clause(c)
        if solver.solve():
            total += 1
            open_vars = solver.undecided_at_sat[-1]
            assert set(open_vars) <= set(atoms)
            partial += bool(open_vars)
    assert total >= 8 and partial * 2 >= total


# ----------------------------------------------------------------------
# One scenario per way of breaking the bookkeeping
# ----------------------------------------------------------------------


def atoms_and_bools(n_bools, n_atoms, theory=None):
    solver = CheckedSolver(theory)
    bools = [solver.new_var() for _ in range(n_bools)]
    atoms = [solver.new_var() for _ in range(n_atoms)]
    for v in atoms:
        solver.mark_atom(v)
    return solver, bools, atoms


@pytest.mark.parametrize("positive", (True, False), ids=("pos", "neg"))
def test_a_clause_of_atoms_only_still_gets_a_true_literal(positive):
    # Parking without the satisfied-clause check would skip both atoms;
    # so would an occurrence list that sees one polarity only, for the
    # clause that mentions them in the other one.
    solver, _, (a, b) = atoms_and_bools(0, 2)
    solver.add_clause([lit(a, positive), lit(b, positive)])
    assert solver.solve() is True
    assert (solver.lit_is_true(lit(a, positive))
            or solver.lit_is_true(lit(b, positive)))


def test_a_satisfied_guard_leaves_its_atoms_undecided():
    solver, (s,), (a, b) = atoms_and_bools(1, 2)
    solver.add_clause([lit(s), lit(a), lit(b)])
    solver.add_clause([lit(s)])
    assert solver.solve() is True
    assert solver.undecided_at_sat == [[a, b]]
    assert solver.model_value(s) is True
    assert solver.statistics["decisions"] == 0


def test_a_variable_parked_at_level_zero_reenters_when_a_clause_arrives():
    # (s or a or b) is satisfied at the root, so a and b are parked at
    # level 0, below every backjump.  A clause added after the sat makes
    # them relevant: solve() must look at every parked variable again.
    solver, (s,), (a, b) = atoms_and_bools(1, 2)
    solver.add_clause([lit(s), lit(a), lit(b)])
    solver.add_clause([lit(s)])
    assert solver.solve() is True
    assert solver.undecided_at_sat[-1] == [a, b]
    solver.add_clause([lit(a), lit(b)])
    assert solver.solve() is True
    assert solver.lit_is_true(lit(a)) or solver.lit_is_true(lit(b))
    solver.add_clause([lit(a, False)])
    solver.add_clause([lit(b, False)])
    assert solver.solve() is False


def test_a_backjump_below_the_parking_level_returns_the_variable(churn):
    # Decision order at equal activity is: first variable, then the last
    # ones downwards.  So: not-x is decided (level 1) and implies s, which
    # satisfies (s or a or b); a and b come up next and are parked at
    # level 1; deciding y then runs into two conflicts whose second learns
    # the unit x and backjumps to level 0 -- below the parking level.
    # There x implies not-s, (s or a or b) is open again, and a or b must
    # be back in the heap to be decided.  (Churned: the restart after the
    # first conflict is one more backjump below the parking level.)
    parked_seen = []

    class Watched(CheckedSolver):
        def _pick_branch_var(self):
            v = super()._pick_branch_var()
            parked_seen.append((v, list(self._parked)))
            return v

    solver = Watched()
    arm(solver, churn)
    x, s, w, z, y = (solver.new_var() for _ in range(5))
    b, a = solver.new_var(), solver.new_var()
    solver.mark_atom(a)
    solver.mark_atom(b)
    for clause in (
        [lit(x), lit(s)],
        [lit(x, False), lit(s, False)],
        [lit(s), lit(a), lit(b)],
        [lit(x), lit(y), lit(z)],
        [lit(x), lit(y), lit(z, False)],
        [lit(x), lit(y, False), lit(w)],
        [lit(x), lit(y, False), lit(w, False)],
    ):
        solver.add_clause(clause)
    assert solver.solve() is True
    assert (y, [(a, 1), (b, 1)]) in parked_seen, "scenario did not happen"
    assert solver.statistics["conflicts"] == 2
    assert solver.model_value(x) is True and solver.model_value(s) is False
    assert solver.lit_is_true(lit(a)) or solver.lit_is_true(lit(b))


def test_theory_conflicts_on_relevant_atoms_are_still_found():
    # p0 < p1 < p2 < p0 is forced by units: unsat with nothing to decide.
    theory = OrderTheory(3)
    solver, _, atoms = atoms_and_bools(0, 3, theory)
    theory.pairs.update(zip(atoms, ((0, 1), (1, 2), (0, 2))))
    solver.add_clause([lit(atoms[0])])
    solver.add_clause([lit(atoms[1])])
    assert solver.solve() is True
    assert solver.undecided_at_sat[-1] == [atoms[2]]
    assert theory.atom_is_true(atoms[2])  # the theory model decides it
    assert solver.solve([lit(atoms[2], False)]) is False
    assert solver.failed_assumptions == [lit(atoms[2], False)]


# ----------------------------------------------------------------------
# The API around it
# ----------------------------------------------------------------------


def test_model_value_of_an_undecided_atom_raises():
    # It used to answer False (UNASSIGNED == TRUE is false), a value no
    # part of the search ever gave the variable.
    solver, (s,), (a, _) = atoms_and_bools(1, 2)
    solver.add_clause([lit(s), lit(a)])
    solver.add_clause([lit(s)])
    assert solver.solve() is True
    assert solver.model_value(s) is True
    with pytest.raises(SolverError, match="undecided"):
        solver.model_value(a)


def test_marking_a_variable_already_in_use_is_rejected():
    solver = SatSolver()
    u, v, w = solver.new_var(), solver.new_var(), solver.new_var()
    solver.add_clause([lit(u), lit(v)])
    solver.add_clause([lit(w)])
    with pytest.raises(SolverError, match="before it occurs"):
        solver.mark_atom(u)
    with pytest.raises(SolverError, match="before it occurs"):
        solver.mark_atom(w)


def test_an_unmarked_solver_never_parks():
    rng = random.Random(5)
    solver = CheckedSolver()
    variables = [solver.new_var() for _ in range(30)]
    for _ in range(90):
        solver.add_clause([random_lit(rng, variables) for _ in range(3)])
    assert solver.solve() is True
    assert solver.undecided_at_sat == [[]]
    assert not solver._parked
