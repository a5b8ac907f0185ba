"""Transitive difference-logic propagation (Cotton & Maler SSSP pass).

Three layers of coverage:

* the :class:`DifferenceLogic` engine's ``watch_pair`` /
  ``implied_bounds`` surface (derived bounds, path explanations,
  threshold pruning, undo hygiene);
* full-solver equivalence — ``dl_propagation`` on vs off must agree on
  statuses and produce certifying models on random difference systems,
  the chain microworkloads, and the deterministic funnel/sharing
  synthesis workloads — with ``dl_propagations > 0`` and strictly fewer
  decisions on the chain-heavy instances;
* the SAT core's handling of *multi-literal* theory reasons, which DL
  path explanations are the first producer of: conflict analysis must
  resolve through them and final-conflict analysis must walk them into
  unsat cores.
"""

import random
from fractions import Fraction

import pytest

from repro.core.synthesizer import SynthesisOptions, solve
from repro.eval import workloads
from repro.sat.literals import neg
from repro.sat.solver import SatSolver, TheoryBackend
from repro.smt import (
    And,
    Bool,
    DeltaRational,
    DifferenceLogic,
    Not,
    Or,
    Real,
    SolverEngine,
    sat,
    unsat,
)

from .scaled import assert_constraint, watch_pair


def dr(x, d=0):
    return DeltaRational(x, d)


# ---------------------------------------------------------------------------
# Engine-level: implied_bounds
# ---------------------------------------------------------------------------


class TestImpliedBounds:
    def test_chain_derives_watched_pair(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        # Watch the span (a, c): paths a ~> c bound val(c) - val(a).
        watch_pair(dl, a, c, dr(100))
        # Negative-weight chain (precedence style, so the potential
        # moves and passes are scheduled): c - b <= -1, b - a <= -2.
        assert assert_constraint(dl, b, a, dr(-2), lit=2) is None
        assert assert_constraint(dl, c, b, dr(-1), lit=4) is None
        entries = dl.implied_bounds()
        by_pair = {(e.src, e.dst): e for e in entries}
        assert (a, c) in by_pair
        entry = by_pair[(a, c)]
        assert entry.bound == dr(-3)
        assert set(entry.path_lits()) == {2, 4}

    def test_drain_clears_fresh_edges(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        watch_pair(dl, a, c, dr(100))
        assert assert_constraint(dl, b, a, dr(-2), lit=2) is None
        assert assert_constraint(dl, c, b, dr(-1), lit=4) is None
        assert dl.implied_bounds() != []
        assert dl.implied_bounds() == []  # drained

    def test_threshold_prunes_weak_derivations(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        # Only derivations at least as tight as -10 are interesting.
        watch_pair(dl, a, c, dr(-10))
        assert assert_constraint(dl, b, a, dr(-2), lit=2) is None
        assert assert_constraint(dl, c, b, dr(-1), lit=4) is None
        # Derived bound is -3 > -10: pruned inside the pass.
        assert dl.implied_bounds() == []

    def test_undo_drops_pending_candidates(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        watch_pair(dl, a, c, dr(100))
        assert assert_constraint(dl, b, a, dr(-2), lit=2) is None
        mark = dl.mark()
        assert assert_constraint(dl, c, b, dr(-1), lit=4) is None
        dl.undo_to(mark)
        # The candidate cites an undone edge: it must not surface.
        assert dl.implied_bounds() == []

    def test_longer_chain_explanation_collects_all_literals(self):
        dl = DifferenceLogic()
        nodes = [dl.new_node() for _ in range(5)]
        watch_pair(dl, nodes[0], nodes[4], dr(100))
        lits = []
        for i in range(4):
            lit = 2 * (i + 1)
            lits.append(lit)
            assert assert_constraint(dl, 
                nodes[i + 1], nodes[i], dr(-1), lit=lit
            ) is None
        entries = {(e.src, e.dst): e for e in dl.implied_bounds()}
        entry = entries[(nodes[0], nodes[4])]
        assert entry.bound == dr(-4)
        assert set(entry.path_lits()) == set(lits)

    def test_slack_edges_schedule_no_pass(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        watch_pair(dl, a, c, dr(100))
        # Positive weights never move the all-zero potential: by design
        # no pass is scheduled (the canonical-slack bound channel still
        # covers the directly-asserted pairs).
        assert assert_constraint(dl, b, a, dr(2), lit=2) is None
        assert assert_constraint(dl, c, b, dr(1), lit=4) is None
        assert dl.implied_bounds() == []

    def test_propagation_disabled_engine_stays_quiet(self):
        dl = DifferenceLogic(propagation=False)
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        watch_pair(dl, a, c, dr(100))
        assert assert_constraint(dl, b, a, dr(-2), lit=2) is None
        assert assert_constraint(dl, c, b, dr(-1), lit=4) is None
        assert dl.implied_bounds() == []

    def test_non_extremal_fractional_threshold_stays_sound(self):
        """Regression: a pair bound strictly between the existing
        thresholds used to skip the scale-folding in ``watch_pair``, so
        the theory's scaled watch mirror rescaled mid-rebuild and
        compared mixed-scale quantities — implying ``x2 - x0 <= 7/3``
        from a path that only proves ``<= 3``."""
        x0, x1, x2 = (Real(f"dlmix_x{i}") for i in range(3))
        b1, b2, b3 = (Bool(f"dlmix_b{i}") for i in range(3))
        frac_atom = x2 - x0 <= Fraction(7, 3)
        results = {}
        for dl in (False, True):
            engine = SolverEngine(dl_propagation=dl)
            # The chain proves x2 - x0 <= 3; the 5/2 lower bound then
            # makes frac_atom false in every model.  None of the pair
            # atoms is ever unit-asserted, so only the watch
            # registration can fold the /3 denominator into the scale.
            engine.add(x1 - x0 <= 4, x2 - x1 <= -1)
            engine.add(x2 - x0 >= Fraction(5, 2))
            engine.add(Or(x2 - x0 <= 10, b1))
            engine.add(Or(x2 - x0 <= 1, b2))
            engine.add(Or(frac_atom, b3))
            status = engine.check()
            assert status == sat
            model = engine.model()
            assert Fraction(5, 2) <= model[x2 - x0] <= 3
            assert model.eval_bool(frac_atom) is False
            results[dl] = status.name
        assert results[True] == results[False]

    def test_rescale_keeps_thresholds_consistent(self):
        dl = DifferenceLogic()
        a, b, c = dl.new_node(), dl.new_node(), dl.new_node()
        watch_pair(dl, a, c, dr(100))
        assert assert_constraint(dl, b, a, dr(Fraction(-5, 3)), lit=2) is None
        assert assert_constraint(dl, c, b, dr(Fraction(-1, 7)), lit=4) is None
        entries = {(e.src, e.dst): e for e in dl.implied_bounds()}
        assert entries[(a, c)].bound == dr(Fraction(-5, 3) + Fraction(-1, 7))


# ---------------------------------------------------------------------------
# Full solver: on/off equivalence and effect
# ---------------------------------------------------------------------------


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
    on = SolverEngine(dl_propagation=True)
    off = SolverEngine(dl_propagation=False)
    on.add(*clauses)
    off.add(*clauses)
    r_on, r_off = on.check(), off.check()
    assert r_on.name == r_off.name
    if r_on == sat:
        for engine in (on, off):
            model = engine.model()
            for clause in clauses:
                assert model.eval_bool(clause)
    assert off.statistics["dl_propagations"] == 0


@pytest.mark.parametrize("seed", range(5))
def test_chain_formulas_fewer_decisions_and_counted(seed):
    clauses = workloads.difference_chain_formulas(seed)
    on = SolverEngine(dl_propagation=True)
    off = SolverEngine(dl_propagation=False)
    on.add(*clauses)
    off.add(*clauses)
    assert on.check() == off.check() == sat
    for engine in (on, off):
        model = engine.model()
        for clause in clauses:
            assert model.eval_bool(clause)
    assert on.statistics["dl_propagations"] > 0
    assert on.statistics["dl_explanation_lits"] >= (
        2 * on.statistics["dl_propagations"]
    ) // 2
    assert on.statistics["decisions"] < off.statistics["decisions"]
    assert on.statistics["conflicts"] <= off.statistics["conflicts"]


def test_theory_propagation_off_disables_dl_channel():
    clauses = workloads.difference_chain_formulas(97)
    engine = SolverEngine(theory_propagation=False)
    engine.add(*clauses)
    assert engine.check() == sat
    assert engine.statistics["theory_propagations"] == 0
    assert engine.statistics["dl_propagations"] == 0


def test_per_check_statistics_carry_dl_counters():
    clauses = workloads.difference_chain_formulas(98)
    engine = SolverEngine()
    engine.add(*clauses)
    assert engine.check() == sat
    stats = engine.last_check_statistics
    assert "dl_propagations" in stats and "dl_explanation_lits" in stats
    assert stats["dl_propagations"] > 0


class TestSynthesisWorkloadEquivalence:
    """Full driver runs: statuses and models identical, chains cheaper."""

    def test_chain_problem_sat_fewer_decisions(self):
        problem = workloads.chain_problem()
        results = {}
        for dl in (False, True):
            results[dl] = solve(problem, SynthesisOptions(dl_propagation=dl))
        assert results[True].status == results[False].status == "sat"
        assert (results[True].solution.schedules
                == results[False].solution.schedules)
        assert results[True].statistics["dl_propagations"] > 0
        assert (results[True].statistics["decisions"]
                < results[False].statistics["decisions"])

    def test_chain_problem_unsat_statuses_agree(self):
        problem = workloads.chain_problem(period=Fraction(9, 1000))
        results = {}
        for dl in (False, True):
            results[dl] = solve(problem, SynthesisOptions(dl_propagation=dl))
        assert results[True].status == results[False].status == "unsat"
        assert results[True].statistics["dl_propagations"] > 0

    @pytest.mark.parametrize("factory,routes,unique_model", [
        (lambda: workloads.bottleneck_problem(3, islands=1), 2, False),
        (lambda: workloads.bottleneck_problem(
            3, period=Fraction(35, 10000)), 2, False),
        (lambda: workloads.sharing_problem(), 2, True),
        (lambda: workloads.sharing_unsat_problem(), 1, False),
    ])
    def test_funnel_and_sharing_statuses_and_models_identical(
            self, factory, routes, unique_model):
        from repro.core import collect_violations

        problem = factory()
        results = {}
        for dl in (False, True):
            results[dl] = solve(
                problem, SynthesisOptions(routes=routes, dl_propagation=dl))
        assert results[True].status == results[False].status
        if results[True].status == "sat":
            for result in results.values():
                assert collect_violations(result.solution) == []
            if unique_model:
                # sharing_problem pins a unique schedule by construction.
                assert (results[True].solution.schedules
                        == results[False].solution.schedules)


# ---------------------------------------------------------------------------
# Multi-literal theory reasons in the SAT core
# ---------------------------------------------------------------------------


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
        from repro.sat.literals import UNASSIGNED, var_of

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


def test_dl_path_explanations_reach_unsat_cores():
    """End-to-end: a DL path implication's multi-literal explanation is
    walked by final-conflict analysis into the session-level core."""
    x, y, z = Real("dlc_x"), Real("dlc_y"), Real("dlc_z")
    a1 = x - y <= -1
    a2 = y - z <= -1
    span = x - z <= -2
    nspan = Not(span)
    engine = SolverEngine()
    engine.add(Or(a1, Not(a1)))  # register the atoms with the theory
    engine.add(Or(a2, Not(a2)))
    engine.add(Or(span, nspan))
    assert engine.check(a1, a2, nspan) == unsat
    core = engine.unsat_core()
    assert set(core) == {a1, a2, nspan}
    # And the implication fired through the DL channel.
    assert engine.statistics["dl_propagations"] >= 1


def test_dl_propagation_assigns_chain_spans_without_branching():
    """The canonical entailment scenario: chain implies the span atom."""
    x0, x1, x2, x3 = (Real(f"dlspan_x{i}") for i in range(4))
    guard = Bool("dlspan_guard")
    engine = SolverEngine()
    engine.add(x1 - x0 >= 2, x2 - x1 >= 2, x3 - x2 >= 2)
    engine.add(Or(x3 - x0 >= 6, guard))
    assert engine.check() == sat
    # The span atom was implied, not decided: the guard stays free and
    # the DL counters show the multi-literal implication.
    assert engine.statistics["dl_propagations"] >= 1
    assert engine.statistics["dl_explanation_lits"] >= 3
    model = engine.model()
    assert model[x3 - x0] >= 6
