"""No ``Fraction`` and no ``DeltaRational`` is built inside the search loop.

Both theory engines run on integers over a scale; the theory converts an
atom's bounds when it registers the atom.  This pins that down on the
staged ``gm_case_study(3)`` solve by counting constructions between
entry and return of every ``Session.check()``, attributed to the
innermost of the instrumented methods on the stack:

* zero under ``on_assert``, ``propagate``, ``on_backjump``,
  ``assert_lower`` / ``assert_upper``, ``Simplex.check`` / ``undo_to`` and
  the difference-logic entry points — including the checks whose pivots
  grow the scale;
* model extraction may build one ``Fraction`` per simplex variable plus
  epsilon, per sat check, and nothing else in ``check()`` builds any.

The solve made about 100,000 such objects inside ``check()`` before.
"""

from collections import Counter
from fractions import Fraction

from repro.api import Session
from repro.core import SynthesisOptions, solve, validate_solution
from repro.eval import gm_case_study
from repro.smt.difflogic import DifferenceLogic
from repro.smt.rationals import DeltaRational
from repro.smt.simplex import Simplex
from repro.smt.theory import LraTheory

SEARCH = (
    (LraTheory, ("on_assert", "propagate", "on_backjump")),
    (Simplex, ("assert_lower", "assert_upper", "check", "undo_to")),
    (DifferenceLogic, ("assert_constraint", "implied_bounds", "undo_to")),
)


def test_staged_solve_builds_no_fraction_in_the_search_loop(monkeypatch):
    built = Counter()
    zone = ["outside"]
    models = []

    def zoned(owner, name, label):
        method = owner.__dict__[name]

        def wrapper(*args, **kwargs):
            zone.append(label)
            try:
                return method(*args, **kwargs)
            finally:
                zone.pop()
        monkeypatch.setattr(owner, name, wrapper)

    def counted(owner, name):
        raw = owner.__dict__[name]
        method = getattr(raw, "__func__", raw)  # static- or classmethod

        def wrapper(*args, **kwargs):
            built[zone[-1]] += 1
            return method(*args, **kwargs)
        monkeypatch.setattr(
            owner, name,
            classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)

    zoned(Session, "check", "check")
    for owner, names in SEARCH:
        for name in names:
            zoned(owner, name, "search")
    simplex_model = Simplex.model

    def model(self):
        zone.append("model")
        try:
            values = simplex_model(self)
        finally:
            zone.pop()
        models.append(len(values))
        return values
    monkeypatch.setattr(Simplex, "model", model)
    counted(Fraction, "__new__")
    if "_from_coprime_ints" in Fraction.__dict__:       # Python >= 3.12
        counted(Fraction, "_from_coprime_ints")
    counted(DeltaRational, "__init__")

    result = solve(gm_case_study(3), SynthesisOptions(routes=3, stages=5))
    monkeypatch.undo()

    assert result.status == "sat"
    validate_solution(result.solution)
    assert len(models) >= 3             # one model per sat check
    assert built["outside"] > 1000      # the counters do count (encoding)
    assert built["search"] == 0
    assert built["check"] == 0
    assert 0 < built["model"] <= sum(n + 1 for n in models)
