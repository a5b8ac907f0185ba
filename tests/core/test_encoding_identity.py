"""Golden formula identity: the encode path must emit the same formula.

``Encoder`` -> ``smt/terms.py`` -> ``CnfConverter`` ->
``LraTheory.register_atom`` -> ``Simplex.add_row`` may be made cheaper,
but never different: the same clauses in the same order over the same
SAT variable numbering, every atom on the same simplex variable with the
same bounds and the same difference-logic edges.  That is what keeps
every search trajectory (and every committed ``BENCH_*.json`` counter)
byte-identical across a construction-cost change.

For three staged runs this test drives ``core.solve`` on a session whose
SAT core records every ``add_clause`` call, and at every
``Session.check`` -- i.e. after each stage's encode, and after each
freeze -- digests

* the clause stream so far (integer literals, in emission order),
* ``sat_var -> serialize_literal(origin)`` for every BoolVar/Atom,
* ``sat_var -> (sx_var, is_upper, bound, dl_edge)`` for both phases of
  every registered atom.

Only the digests are committed (``GOLDEN`` below).  The first state of
every case is stage 1's formula, emitted before any search.  Every later
state depends on the search as well: each stage freezes the previous
stages' *model values* into the formula, and Eq. 5's pair clauses are
emitted only for the pairs a model overlaps (lazy contention, see
``docs/perf.md``), so a search change moves which clauses exist.  All
states were re-recorded when contention became lazy
(gm_case_study(3): 3,461 -> 1,845 clauses, 2,251 -> 879 variables,
1,864 -> 492 atoms), and again when frozen messages entered the
stability rows as constants (1,845 -> 818 clauses, 879 -> 475
variables, 492 -> 361 atoms).  The later states were re-recorded once
more when the transitive difference-logic propagation pass was deleted:
the search found other models, which froze other values (475 -> 472
variables, 361 -> 358 atoms; the first two states are unchanged).
Every state moved when a route limit became an assumption: each
message is encoded on its shortest route plus a beyond literal, and a
route is added only where an unsat core asks for it (818 -> 345
clauses, 472 -> 301 variables, 358 -> 244 atoms).

To re-record after a change that is *meant* to alter the formula::

    PYTHONPATH=src python tests/core/test_encoding_identity.py

prints a fresh ``GOLDEN`` table to paste here; say in CHANGES.md why the
formula moved, and expect the ``BENCH_*.json`` trajectories to move too.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from repro.api import NativeBackend, Session
from repro.core import (
    ControlApplication,
    SynthesisOptions,
    SynthesisProblem,
    solve,
)
from repro.eval.workloads import TABLE1_ROWS, bottleneck_problem, gm_case_study
from repro.network import DelayModel, gm_topology
from repro.smt.solver import SolverEngine
from repro.smt.terms import serialize_literal
from repro.stability import StabilitySpec


def gm_variant(seed):
    """Fig. 1 topology, Table I rows, seeded sensor/controller pairs."""
    rng = random.Random(seed)
    spec = {period: (alpha, beta) for period, alpha, beta in TABLE1_ROWS}
    periods_ms = (40, 50, 40)
    sensors = rng.sample(range(8), len(periods_ms))
    controllers = rng.sample(range(8), len(periods_ms))
    apps = []
    for i, period_ms in enumerate(periods_ms):
        alpha, beta_ms = spec[period_ms]
        apps.append(ControlApplication(
            name=f"gv{i}", sensor=f"S{sensors[i]}",
            controller=f"C{controllers[i]}", period=Fraction(period_ms, 1000),
            stability=StabilitySpec.single_line(
                alpha, str(Fraction(beta_ms) / 1000))))
    return SynthesisProblem(gm_topology(8, 8), apps, DelayModel.table1())


CASES = {
    "gm_case_study(3) routes=3 stages=5": lambda: (
        gm_case_study(3), SynthesisOptions(routes=3, stages=5)),
    "gm_variant(seed 13) routes=3 stages=4": lambda: (
        gm_variant(13), SynthesisOptions(routes=3, stages=4)),
    "bottleneck_problem(3) routes=2": lambda: (
        bottleneck_problem(3), SynthesisOptions(routes=2)),
}

#: case -> (status, clauses emitted, SAT variables, atoms registered,
#: one 16-hex digest per distinct formula state seen by a check()).
GOLDEN = {
    'gm_case_study(3) routes=3 stages=5': (
        'sat', 345, 301, 244, (
            'b5cc926b5fe12311',
            'f78025b84dba7a69',
            'a0769fb833957034',
            'a5b9958817678968',
            'd2243e843780bc6b',
        )),
    'gm_variant(seed 13) routes=3 stages=4': (
        'sat', 294, 262, 220, (
            '69e014349b9579e0',
            '16264dfba8e56607',
            'bd966fc836041bcd',
            '6d47bf3a1f2a0a08',
        )),
    'bottleneck_problem(3) routes=2': (
        'sat', 87, 60, 39, (
            '3c5007d78c39c2fd',
            '13788d7308b7d239',
            '2b4e9486a809e0f3',
        )),
}


def _bound(pair, scale):
    # The engines hold bounds as integer pairs over their scale; the
    # digests were recorded from the Fractions those pairs stand for.
    return (str(Fraction(pair[0], scale)), str(Fraction(pair[1], scale)))


def _phase(action, theory):
    edge = None
    if action.dl_bound is not None:
        edge = (action.dl_x, action.dl_y,
                _bound(action.dl_bound, theory.dl.scale))
    return (action.sx_var, action.sx_is_upper,
            _bound(action.sx_bound, theory.simplex.scale), edge)


class _RecordingSession(Session):
    """A native session that digests its formula at every ``check()``."""

    def __init__(self):
        self.engine = SolverEngine()
        super().__init__(backend=NativeBackend(engine=self.engine))
        self.clauses = 0
        self.digests = []
        self._stream = hashlib.sha256()
        sat_core = self.engine._sat
        add_clause = sat_core.add_clause

        def recording_add_clause(lits):
            lits = list(lits)
            self._stream.update((" ".join(map(str, lits)) + "\n").encode())
            self.clauses += 1
            return add_clause(lits)

        sat_core.add_clause = recording_add_clause

    def snapshot(self):
        state = self._stream.copy()
        origins = self.engine._cnf._origins
        theory = self.engine._theory
        atoms = theory._atoms
        for var in sorted(origins):
            state.update(repr(
                (var, serialize_literal(origins[var], False))).encode())
        for var in sorted(atoms):
            watch = atoms[var]
            state.update(repr(
                (var, _phase(watch.pos, theory), _phase(watch.neg, theory),
                 watch.general)).encode())
        digest = state.hexdigest()[:16]
        if not self.digests or self.digests[-1] != digest:
            self.digests.append(digest)

    def check(self, *assumptions):
        self.snapshot()
        return super().check(*assumptions)


def record(case):
    return record_run(*CASES[case]())


def record_run(problem, options):
    session = _RecordingSession()
    result = solve(problem, options, session=session)
    session.snapshot()
    engine = session.engine
    return (result.status, session.clauses, engine._sat.num_vars,
            len(engine._theory._atoms), tuple(session.digests))


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_formula_matches_golden(case):
    status, clauses, n_vars, n_atoms, digests = record(case)
    want_status, want_clauses, want_vars, want_atoms, want = GOLDEN[case]
    assert status == want_status
    # Counts first: they say *how* the formula moved when it did.
    assert (clauses, n_vars, n_atoms) == (want_clauses, want_vars, want_atoms)
    assert len(digests) == len(want)
    for state, (got, expected) in enumerate(zip(digests, want)):
        assert got == expected, (
            f"formula state {state} of {len(want)} differs from the "
            "recorded one (see this module's docstring to re-record)")


def test_recording_is_not_vacuous():
    # gm_case_study(3) fell under these floors (818 clauses, 361 atoms)
    # once frozen messages entered the stability rows as constants, so
    # the instance grew: gm_case_study(5) gave 1,232 and 542.  It fell
    # under them too (526 and 375) once routes were encoded lazily under
    # every limit: gm_case_study(10) gives 1,177 and 884.
    status, clauses, n_vars, n_atoms, digests = record_run(
        gm_case_study(10), SynthesisOptions(routes=3, stages=5))
    assert status == "sat"
    assert clauses > 1000 and n_atoms > 400
    assert len(digests) >= 5  # at least one formula state per stage


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CASES:
        status, clauses, n_vars, n_atoms, digests = record(name)
        print(f"    {name!r}: (")
        print(f"        {status!r}, {clauses}, {n_vars}, {n_atoms}, (")
        for digest in digests:
            print(f"            {digest!r},")
        print("        )),")
    print("}")
