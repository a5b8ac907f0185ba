"""Spans recorded from the harness, around the layers' public functions.

Nothing inside ``src/repro`` knows it is traced: :func:`install` swaps
timing wrappers onto the public entry points of each layer (class
attributes and one module function) and :func:`uninstall` puts the
originals back.  Spans live in memory as a tree of :class:`Span` nodes
and are written out when the run ends.

Two kinds of span share the tree:

* an *individual* span per call, for calls that happen a few thousand
  times a run (an op, ``Session.check``, an ``Encoder`` method, a cache
  lookup);
* an *aggregate* span per (parent, name), for the solver's theory
  callbacks, which fire millions of times: it keeps the call count, the
  summed duration (``busy``) and the first start / last end.  Storing
  each call would cost more memory than the solver itself uses.

A span's self time is its ``busy`` minus the ``busy`` of its children.
Children of one parent never overlap (the traced code is synchronous
within a thread), so self times add up to the root's duration exactly.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "busy", "count",
                 "aggregates", "index")

    def __init__(self, name: str, parent: Optional["Span"],
                 op: Optional[str], start: float) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.busy = 0.0
        self.count = 0
        self.aggregates: Optional[Dict[str, "Span"]] = None
        self.index = -1

    def to_json(self) -> Dict[str, Any]:
        return {"id": self.index, "name": self.name,
                "parent": self.parent.index if self.parent else None,
                "op": self.op, "start": self.start, "end": self.end,
                "busy": self.busy, "count": self.count}


class Tracer:
    """The span tree of one traced run (one current span per thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_aggregates: Dict[str, Span] = {}

    # -- recording ---------------------------------------------------------

    def _current(self) -> Optional[Span]:
        return getattr(self._local, "span", None)

    def _register(self, span: Span) -> None:
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Span]:
        """An individual span around a block of harness code."""
        parent = self._current()
        node = Span(name, parent, op or (parent.op if parent else None),
                    _now())
        self._register(node)
        self._local.span = node
        try:
            yield node
        finally:
            node.end = _now()
            node.busy = node.end - node.start
            node.count = 1
            self._local.span = parent

    def record(self, name: str, start: float, end: float,
               op: Optional[str] = None) -> Span:
        """A finished root-level span (for overlapping async requests)."""
        node = Span(name, None, op, start)
        node.end, node.busy, node.count = end, end - start, 1
        self._register(node)
        return node

    def wrap(self, name: str, fn: Callable, aggregate: bool = False,
             tally: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` with a span around every call.

        ``tally`` sees each result, to count outcomes (conflicts,
        implied literals) at the boundary where they happen.
        """
        local = self._local
        register = self._register
        roots = self._root_aggregates

        if aggregate:
            def traced(*args: Any, **kwargs: Any) -> Any:
                parent = getattr(local, "span", None)
                if parent is None:
                    table = roots
                else:
                    table = parent.aggregates
                    if table is None:
                        table = parent.aggregates = {}
                node = table.get(name)
                start = _now()
                if node is None:
                    node = Span(name, parent,
                                parent.op if parent else None, start)
                    table[name] = node
                    register(node)
                local.span = node
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _now()
                    node.end = end
                    node.busy += end - start
                    node.count += 1
                    local.span = parent
                if tally is not None:
                    tally(result)
                return result
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                parent = getattr(local, "span", None)
                node = Span(name, parent, parent.op if parent else None,
                            _now())
                register(node)
                local.span = node
                try:
                    result = fn(*args, **kwargs)
                finally:
                    node.end = _now()
                    node.busy = node.end - node.start
                    node.count = 1
                    local.span = parent
                if tally is not None:
                    tally(result)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def clear(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self._root_aggregates.clear()

    # -- reading -----------------------------------------------------------

    def to_json(self) -> List[Dict[str, Any]]:
        return [span.to_json() for span in self.spans]

    def busy(self, name: str) -> float:
        return sum(s.busy for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(s.count for s in self.spans if s.name == name)


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: ``busy`` minus the children's ``busy``."""
    out = {span["id"]: span["busy"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["busy"]
    return out


def self_time_table(spans: List[Dict[str, Any]]) -> List[Tuple[str, int, float, float]]:
    """``(name, calls, busy, self)`` per span name, largest self first."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += span["count"]
        row[1] += span["busy"]
        row[2] += selfs[span["id"]]
    return sorted(((name, int(r[0]), r[1], r[2]) for name, r in rows.items()),
                  key=lambda row: -row[3])


def closure_error(spans: List[Dict[str, Any]], root: str = "op") -> float:
    """Largest relative gap between a ``root`` span's duration and the
    self times summed over its subtree (0.0 when the tree closes)."""
    selfs = self_times(spans)
    children: Dict[int, List[int]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span["id"])
    worst = 0.0
    for span in spans:
        if span["name"] != root or not span["busy"]:
            continue
        total, stack = 0.0, [span["id"]]
        while stack:
            node = stack.pop()
            total += selfs[node]
            stack.extend(children.get(node, ()))
        worst = max(worst, abs(total - span["busy"]) / span["busy"])
    return worst


# ---------------------------------------------------------------------------
# Installation on the layers' public entry points
# ---------------------------------------------------------------------------

_PATCHES: List[Tuple[Any, str, Any]] = []


def _patch(owner: Any, attr: str, replacement: Any) -> None:
    _PATCHES.append((owner, attr, owner.__dict__[attr]
                     if isinstance(owner, type) else getattr(owner, attr)))
    setattr(owner, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions (see the README's layer table)."""
    from repro.api import Session
    from repro.core import Encoder
    from repro.eval import workloads
    from repro.service import KnowledgeCache, ServiceWorker
    from repro.smt.difflogic import DifferenceLogic
    from repro.smt.simplex import Simplex
    from repro.smt.theory import LraTheory

    if _PATCHES:
        raise RuntimeError("tracing is already installed")
    counts = tracer.counts

    def individual(owner: Any, attr: str, name: str,
                   tally: Optional[Callable[[Any], None]] = None) -> None:
        _patch(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                        tally=tally))

    def aggregate(owner: Any, attr: str, name: str,
                  tally: Optional[Callable[[Any], None]] = None) -> None:
        _patch(owner, attr, tracer.wrap(name, getattr(owner, attr),
                                        aggregate=True, tally=tally))

    def conflict_counter(key: str) -> Callable[[Any], None]:
        def tally(result: Any) -> None:
            if result is not None:
                counts[key] += 1
        return tally

    def length_counter(total: str, hits: str) -> Callable[[Any], None]:
        def tally(result: Any) -> None:
            if result:
                counts[total] += len(result)
                counts[hits] += 1
        return tally

    individual(workloads, "stability_spec_for", "stability.spec")
    individual(Encoder, "candidates_for", "network.candidates")
    for method in ("encode_message", "add_contention_constraints",
                   "add_stability_constraints", "freeze_message"):
        individual(Encoder, method, f"encoding.{method}")
    _patch(Session, "check", _traced_check(tracer, Session.check))
    # Session.add is where formulas become clauses and theory atoms.
    aggregate(Session, "add", "session.add")
    individual(KnowledgeCache, "lookup", "cache.lookup")
    individual(KnowledgeCache, "store", "cache.store")
    individual(ServiceWorker, "solve", "workers.solve")

    aggregate(LraTheory, "on_assert", "theory.on_assert",
              conflict_counter("theory.conflicts"))
    aggregate(LraTheory, "on_backjump", "theory.on_backjump")
    aggregate(LraTheory, "propagate", "theory.propagate",
              length_counter("theory.implied_lits", "theory.propagate_hits"))
    aggregate(LraTheory, "final_check", "theory.final_check",
              conflict_counter("theory.conflicts"))
    aggregate(Simplex, "assert_lower", "simplex.assert_bound",
              conflict_counter("simplex.conflicts"))
    aggregate(Simplex, "assert_upper", "simplex.assert_bound",
              conflict_counter("simplex.conflicts"))
    aggregate(Simplex, "check", "simplex.check",
              conflict_counter("simplex.conflicts"))
    aggregate(Simplex, "undo_to", "simplex.undo_to")
    aggregate(DifferenceLogic, "assert_constraint", "difflogic.assert",
              conflict_counter("difflogic.conflicts"))
    aggregate(DifferenceLogic, "implied_bounds", "difflogic.implied_bounds",
              length_counter("difflogic.implied_bounds",
                             "difflogic.implied_hits"))
    aggregate(DifferenceLogic, "undo_to", "difflogic.undo_to")


#: Per-check search counters summed into ``sat.*`` (see CheckOutcome).
_SAT_KEYS = ("conflicts", "decisions", "propagations", "restarts",
             "theory_propagations")


def _traced_check(tracer: Tracer, check: Callable) -> Callable:
    """``Session.check`` with a span, its outcome's search counters, and
    the learnt-clause count only the engine behind the session knows."""
    spanned = tracer.wrap("session.check", check)
    counts = tracer.counts

    def traced(self: Any, *assumptions: Any) -> Any:
        outcome = spanned(self, *assumptions)
        statistics = outcome.statistics
        for key in _SAT_KEYS:
            counts["sat." + key] += statistics.get(key, 0)
        counts["session.core_min_checks"] += statistics.get(
            "core_minimization_checks", 0)
        engine = getattr(self.backend, "engine", None)
        if engine is not None:
            counts["sat.learnts"] = max(counts["sat.learnts"],
                                        engine.statistics["learnts"])
        return outcome

    return traced


def uninstall() -> None:
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)
