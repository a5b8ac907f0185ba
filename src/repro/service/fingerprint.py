"""Canonical problem fingerprints: the knowledge cache's one key.

The knowledge cache (:mod:`repro.service.cache`) is keyed by a stable
hash of *everything that determines the encoded formula*: the topology,
the delay model, the application set (periods, endpoints, stability
specs, frame sizes), and the encoding-affecting synthesis options.
Semantically identical problems — applications listed in a different
order, wire dicts with reordered keys, options differing only in the
non-encoding ``max_conflicts`` — must produce the *same* fingerprint,
while any change that alters the asserted constraints or the interned
variable vocabulary (mode, route limit, stage count, path cutoff, repair
guards, the encoder namespace, any period — and through it the
hyper-period horizon) must change it.  Two requests with equal
fingerprints solve literally the same formula, so everything one of
them learned holds for the other; a request with any other fingerprint
is a miss.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Dict

from ..core.encoding import SHARED_NAMESPACE
from ..core.synthesizer import SynthesisOptions
from .protocol import problem_to_wire


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

    Deliberately excluded: ``max_conflicts`` (search behavior, not
    constraints), and the transient ``seed_knowledge`` / ``faults``
    bundles.  ``repair`` is *included*:
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
        "horizon": str(problem.hyperperiod),
    })

