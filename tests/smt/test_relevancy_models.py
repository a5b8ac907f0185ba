"""A ``sat`` model is partial over atoms -- and nothing above notices.

The SAT core no longer decides a theory atom once every clause that
mentions it has a true literal (``docs/perf.md``, "Relevancy-filtered
decisions"), so the propositional model behind a ``sat`` may leave atoms
open.  ``Model`` evaluates atoms from the real-valued theory model, never
from the SAT assignment, which is why that is invisible above
``SolverEngine``.  These tests hold the engine to it at ``Session`` level:

* seeded selector-guarded difference / LRA systems, driven through
  push / pop, assumptions and assertions added after a ``sat``, answer
  exactly like an engine whose atoms are ordinary variables (the search
  as it was before the filter); at every ``sat`` every live assertion and
  every assumption is true under ``Model``; every unsat core is a subset
  of the assumptions and unsat on its own;
* the filter is not vacuous on the paper's workload: at every ``sat`` of
  a staged ``gm_case_study(5)`` solve with three routes per message at
  least a fifth of the registered atoms are undecided.

``tests/sat/test_relevancy.py`` is the SAT-core half (checked solver,
stub theory, the hand mutants).
"""

import random
from fractions import Fraction

import pytest

from repro.api import NativeBackend, Session
from repro.core import Encoder, collect_violations
from repro.core.solution import Solution
from repro.core.synthesizer import _slice_messages, refine
from repro.errors import SolverError
from repro.eval.workloads import gm_case_study
from repro.sat.literals import UNASSIGNED
from repro.smt import And, Bool, Not, Or, Real, SolverEngine


def native_session(mark_atoms=True):
    """A native session and its engine; with ``mark_atoms`` off the SAT
    core is told about no atom, so it decides every one of them."""
    engine = SolverEngine()
    if not mark_atoms:
        engine._sat.mark_atom = lambda var: None
    return Session(backend=NativeBackend(engine=engine)), engine


def undecided_atoms(engine):
    """(atoms the last sat left open, atoms registered)."""
    model = engine._sat._model
    atoms = engine._theory._atoms
    return sum(model[v] == UNASSIGNED for v in atoms), len(atoms)


class _System:
    """Seeded formulas over six start times and 3 x 3 route selectors."""

    def __init__(self, seed):
        self.rng = random.Random(4200 + seed)
        self.t = [Real(f"rel{seed}_t{i}") for i in range(6)]
        self.sel = [[Bool(f"rel{seed}_m{m}r{r}") for r in range(3)]
                    for m in range(3)]

    def base(self):
        out = [t >= 0 for t in self.t] + [t <= 12 for t in self.t]
        for group in self.sel:
            out.append(Or(group))
            out.extend(Or(Not(a), Not(b))
                       for i, a in enumerate(group) for b in group[i + 1:])
        return out

    def guards(self):
        m1, m2 = self.rng.sample(range(3), 2)
        return [Not(self.rng.choice(self.sel[m1])),
                Not(self.rng.choice(self.sel[m2]))]

    def separation(self):
        """Eq. 5: two selected routes may not overlap on a link (one in
        four binds whatever is selected, so there is something to search
        for)."""
        a, b = self.rng.sample(self.t, 2)
        d = Fraction(self.rng.randint(1, 9), self.rng.choice((1, 2)))
        guards = self.guards() if self.rng.random() < 0.75 else []
        return Or(guards + [a - b >= d, b - a >= d])

    def general(self):
        """A guarded row that is not a difference constraint, once flat
        and once under a conjunction (a Tseitin definition)."""
        a, b, c = self.rng.sample(self.t, 3)
        k = self.rng.randint(4, 30)
        row = 2 * a + 3 * b <= k
        if self.rng.random() < 0.5:
            return Or(self.guards()[:1] + [row])
        return Or(self.guards()[:1] + [And(row, c - a >= 1)])

    def tight(self):
        """An unguarded difference bound, or a guarded *negated* atom."""
        a, b = self.rng.sample(self.t, 2)
        if self.rng.random() < 0.5:
            return a - b <= self.rng.randint(-6, 2)
        return Or(self.guards()[:1] + [Not(a - b >= self.rng.randint(-3, 3)),
                                       Not(b >= self.rng.randint(2, 9))])

    def batch(self, separations, generals, tights):
        return ([self.separation() for _ in range(separations)]
                + [self.general() for _ in range(generals)]
                + [self.tight() for _ in range(tights)])

    def assumptions(self):
        picked = [self.rng.choice(group) for group in self.sel[:2]]
        a, b = self.rng.sample(self.t, 2)
        return picked + [a >= self.rng.randint(0, 10),
                         a - b >= self.rng.randint(-2, 6)]


def _agree(filtered, full, assumptions=()):
    """One check on both sessions; certify whatever comes back."""
    outcome = filtered.check(*assumptions)
    other = full.check(*assumptions)
    assert outcome == other.status
    if outcome == "sat":
        for session, answer in ((filtered, outcome), (full, other)):
            model = answer.require_model()
            for formula in session.assertions + list(assumptions):
                assert model.eval_bool(formula), formula
    elif assumptions:
        core = list(outcome.unsat_core)
        assert set(map(id, core)) <= set(map(id, assumptions))
        alone, _ = native_session(mark_atoms=False)
        alone.add(filtered.assertions, core)
        assert alone.check() == "unsat"
    return outcome


@pytest.mark.parametrize("seed", range(20))
def test_guarded_systems_agree_with_the_full_assignment_search(seed):
    system = _System(seed)
    filtered, engine = native_session()
    full, _ = native_session(mark_atoms=False)
    sessions = (filtered, full)
    open_atoms = []

    def check(assumptions=()):
        if _agree(filtered, full, assumptions) == "sat":
            open_atoms.append(undecided_atoms(engine)[0])

    first = system.base() + system.batch(12, 3, 1)
    for s in sessions:
        s.add(first)
    check()
    check(system.assumptions())
    for round_idx in range(3):
        for s in sessions:
            s.push()
        extra = system.batch(4, 1, 2)
        for s in sessions:
            s.add(extra)
        check()
        check(system.assumptions())
        if round_idx == 1:
            # A nested scope on top, popped together with its parent.
            for s in sessions:
                s.push()
            nested = system.batch(2, 1, 1)
            for s in sessions:
                s.add(nested)
            check(system.assumptions())
            for s in sessions:
                s.pop()
        for s in sessions:
            s.pop()
        check()
        # Assertions that arrive after a sat, outside any scope -- one of
        # them over atoms the popped scope left behind with no live
        # clause, i.e. parked below every backjump.
        later = system.batch(1, 0, 0) + extra[:1]
        for s in sessions:
            s.add(later)
        check()
    # The selectors leave most separations unbound: some sat had to stop
    # with atoms open, or this test exercised nothing new.
    assert any(open_atoms)


def test_atoms_left_behind_by_a_popped_scope_come_back_with_a_new_clause():
    # Once the scope is popped its clause is true at the root, so its
    # atoms are parked at level 0, below every backjump.  The same atoms
    # in a later assertion must be decided again (at x = y = 0, where the
    # simplex starts, the new clause is false).
    session, engine = native_session()
    x, y = Real("rel_pop_x"), Real("rel_pop_y")
    session.add(x >= 0, y >= 0)
    session.push()
    session.add(Or(x >= 3, y >= 3))
    assert session.check() == "sat"
    session.pop()
    assert session.check() == "sat"
    assert undecided_atoms(engine) == (2, 4)
    session.add(Or(x >= 3, y >= 3))
    outcome = session.check()
    assert outcome == "sat"
    assert undecided_atoms(engine)[0] < 2
    model = outcome.require_model()
    assert model[x] >= 3 or model[y] >= 3


def test_model_reads_an_undecided_atom_from_the_reals():
    session, engine = native_session()
    x, flag = Real("rel_model_x"), Bool("rel_model_flag")
    bound = x <= 3
    session.add(Or(flag, bound), flag, x >= 2)
    outcome = session.check()
    assert outcome == "sat"
    assert undecided_atoms(engine) == (1, 2)
    model = outcome.require_model()
    assert model[flag] is True and model[x] >= 2
    assert model.eval_bool(bound) == (model[x] <= 3)
    # The SAT core has no value for it, and says so instead of "False".
    bound_var = engine._cnf.literal_for(bound) >> 1
    with pytest.raises(SolverError, match="undecided"):
        engine._sat.model_value(bound_var)
    # Assumed, either way, it is asserted like any other literal.
    outcome = session.check(bound)
    assert outcome == "sat"
    assert undecided_atoms(engine) == (0, 2) and outcome.model[x] <= 3
    outcome = session.check(Not(bound))
    assert outcome == "sat"
    assert undecided_atoms(engine) == (0, 2) and outcome.model[x] > 3
    assert session.check(Not(bound), x <= 3) == "unsat"


def test_most_atoms_of_a_staged_gm_solve_stay_undecided():
    # With three candidate routes per message, the transposition and
    # deadline atoms of the two unselected routes sit in clauses their
    # negated selector already satisfies; they must stay out of the
    # theory.  (Eq. 5 clauses exist only for pairs a model overlapped,
    # so few of their atoms are left to park: 31-41 % open per stage
    # when this was re-pinned, 168 of 542 at the last one.)  The driver
    # encodes a route only when a core asks for it, and every
    # gm_case_study(5) stage solves on shortest routes (375 atoms, all
    # decided), so this run gives every message its three routes up
    # front with the same encoder, and checks each stage as the driver
    # does: 149 of 566 atoms open at the last stage.
    shares = []

    class Counting(Session):
        def check(self, *assumptions):
            outcome = super().check(*assumptions)
            if outcome == "sat":
                shares.append(undecided_atoms(engine))
            return outcome

    engine = SolverEngine()
    session = Counting(backend=NativeBackend(engine=engine))
    problem = gm_case_study(5)
    encoder = Encoder(problem, session, 3)
    stages = _slice_messages(problem, 5)
    schedules = {}
    for stage, messages in enumerate(stages):
        plans = [encoder.encode_message(m) for m in messages]
        for m in messages:
            encoder.reach_route(m.uid, 3)
        for name in sorted({m.flow.name for m in messages}):
            encoder.add_stability_constraints(problem.app_by_name[name],
                                              tag=f"s{stage}")
        outcome = refine(session, encoder)
        assert outcome == "sat"
        model = outcome.require_model()
        for plan in plans:
            schedules[plan.message.uid] = encoder.freeze_message(
                plan, model, pin=any(stages[stage + 1:]))
    assert collect_violations(Solution(problem, schedules)) == []
    assert len(shares) >= 5 and shares[-1][1] > 400
    for open_atoms, registered in shares:
        assert 5 * open_atoms >= registered
