"""Canonical problem fingerprints and ancestor matching for the cache.

The knowledge cache (:mod:`repro.service.cache`) is keyed by a stable
hash of *everything that determines the encoded formula*: the topology,
the delay model, the application set (periods, endpoints, stability
specs, frame sizes), and the encoding-affecting synthesis options.
Semantically identical problems — applications listed in a different
order, wire dicts with reordered keys, options differing only in
non-encoding knobs (``dl_propagation``, ``max_conflicts``) — must
produce the *same* fingerprint, while any change that
alters the asserted constraints or the interned variable vocabulary
(mode, route limit, stage count, path cutoff, repair guards, the
encoder namespace, any period — and through it the hyper-period
horizon) must change it.

Ancestor matching
-----------------

A request that misses exactly can still warm-start from a *compatible
ancestor*: a cached entry over the **same topology, delays, mode, path
cutoff, namespace and hyper-period** whose application set equals or
is a subset of the request's.  The soundness rules mirror PR 4's
route-limit pad-up/import-down argument, transposed to message sets:

* **Subset ancestor** (cached apps ⊆ request apps): the encoded formula
  of the larger problem contains every constraint of the smaller one
  verbatim — same hyper-period means the shared flows expand to the
  same message instances with the same releases, same topology and path
  cutoff mean the same candidate route enumeration, and adding
  applications only *adds* contention/stability constraints.  So
  ``F_request == F_cached ∧ Extra``: learned clauses and route vetoes
  of the cached run are entailed by the request's formula and import
  soundly (clauses still subject to the route-limit pad rules of
  :mod:`repro.core.seeding`).
* **Superset entries** (cached apps ⊃ request apps) are never paired:
  the entailment runs the wrong way — the cached clauses may depend on
  contention with messages the request does not have — so nothing
  transfers and the request misses.

Entries with different compatibility keys are never paired: a different
topology, delay model, mode, path cutoff, namespace, or hyper-period
changes the constraint semantics or the route enumeration, and nothing
is transferable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from fractions import Fraction
from typing import Dict, Optional, Tuple

from ..core.encoding import SHARED_NAMESPACE
from ..core.synthesizer import SynthesisOptions
from .protocol import app_to_wire, problem_to_wire


def _frac(value: Fraction) -> str:
    """Exact, canonical rendering of a rational (hash-stable)."""
    return str(Fraction(value))


def canonical_problem(problem) -> Dict[str, object]:
    """Order-independent canonical form of a :class:`SynthesisProblem`:
    its wire form (nodes and links sorted, rationals rendered exactly)
    with the applications sorted by name.  Two problems with the same
    canonical form encode the same constraint system (given equal
    options).
    """
    canon = problem_to_wire(problem)
    canon["apps"].sort(key=lambda entry: entry["name"])
    return canon


def canonical_options(options) -> Dict[str, object]:
    """The encoding-affecting subset of :class:`SynthesisOptions`: the
    fields of its :attr:`~repro.core.synthesizer.SynthesisOptions.signature`.

    Deliberately excluded: ``dl_propagation`` / ``max_conflicts``
    (search behavior, not constraints), and the transient
    ``seed_knowledge`` / ``faults`` bundles.  ``repair`` is *included*:
    it swaps permanent freezes for guarded ones, changing the asserted
    formula of every stage after the first.
    """
    return asdict(options.signature)


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def problem_fingerprint(problem, options=None,
                        namespace: str = SHARED_NAMESPACE) -> str:
    """The cache key: hash of canonical problem + encoding options.

    ``options=None`` fingerprints with the default
    :class:`~repro.core.SynthesisOptions` (monolithic, all routes).
    ``namespace`` defaults to the one the synthesis driver encodes
    under: every cached literal is serialized over it.
    """
    return _digest({
        "problem": canonical_problem(problem),
        "options": canonical_options(options or SynthesisOptions()),
        "namespace": namespace,
        "horizon": _frac(problem.hyperperiod),
    })


def compatibility_key(problem, options=None,
                      namespace: str = SHARED_NAMESPACE) -> str:
    """The ancestor-matching bucket (see the module docstring).

    Everything that must agree for *any* knowledge transfer: topology,
    delays, mode, path cutoff, namespace, and the hyper-period (equal
    horizons guarantee shared flows expand to identical message
    instances).  Route limit, stage count, and repair are deliberately
    absent — transfers across those are governed by the pad/import rules
    of :mod:`repro.core.seeding` and by how the seed is applied, not by
    the bucket.
    """
    signature = (options or SynthesisOptions()).signature
    canon = problem_to_wire(problem)
    return _digest({
        "nodes": canon["nodes"],
        "links": canon["links"],
        "delays": canon["delays"],
        **signature.compatibility(),
        "namespace": namespace,
        "horizon": _frac(problem.hyperperiod),
    })


def app_set_key(problem) -> Dict[str, str]:
    """Per-application identity map: name -> descriptor digest.

    Two applications are "the same" for ancestor matching only when
    their *full* descriptors agree (endpoints, period, frame size,
    stability spec) — the name alone is not enough, because the interned
    vocabulary carries the name while the constraints carry the rest.
    """
    return {app.name: _digest(app_to_wire(app)) for app in problem.apps}


def ancestor_relation(request_apps: Dict[str, str],
                      cached_apps: Dict[str, str]) -> Optional[str]:
    """How a cached entry's app set relates to a request's.

    Returns ``"equal"``, ``"subset"`` (cached ⊂ request: clauses and
    vetoes import soundly), or None when the cached set is not contained
    in the request's or any shared name maps to a different descriptor
    (nothing transfers — never paired).
    """
    for name, digest in cached_apps.items():
        if name in request_apps and request_apps[name] != digest:
            return None
    cached = set(cached_apps)
    request = set(request_apps)
    if cached == request:
        return "equal"
    if cached < request:
        return "subset"
    return None


def match_quality(relation: Optional[str], cached_apps: Dict[str, str],
                  request_apps: Dict[str, str]) -> Tuple[int, int]:
    """Rank compatible ancestors: prefer equal over subset, then the
    largest overlap (ties broken by the caller on recency)."""
    if relation is None:
        return (-1, 0)
    order = {"equal": 2, "subset": 1}
    overlap = len(set(cached_apps) & set(request_apps))
    return (order[relation], overlap)
