"""Synthesis-as-a-service: a long-lived scheduling server.

Everything the earlier PRs built — the declarative
:class:`repro.api.Session`, the supervised portfolio machinery, and the
cross-worker :class:`~repro.runtime.knowledge.KnowledgePool` — lives
inside one process solving one problem.  This package turns the stack
into a *service*: an asyncio front-end (:class:`SynthesisServer`)
accepts synthesis requests (single and batched) over a small JSON-line
protocol or through the in-process :class:`ServiceClient`, dispatches
them onto a pool of persistent solver workers, and — the headline — a
persistent, disk-backed :class:`KnowledgeCache` keyed by **problem
fingerprint** answers a repeated ``sat`` request from its stored
schedule, once the validator has certified it, and warm-starts the
other repeats from learned clauses and route vetoes instead of solving
cold.  A request whose fingerprint is not cached solves cold.

See ``docs/service.md`` for the protocol, what the fingerprint hashes,
the admission/deadline knobs, the cache format, and the metrics table.
"""

from .cache import CacheEntry, KnowledgeCache
from .client import ServiceClient, request_over_tcp
from .fingerprint import (
    canonical_options,
    canonical_problem,
    problem_fingerprint,
)
from .protocol import (
    SynthesisRequest,
    decode_frame,
    encode_frame,
    problem_from_wire,
    problem_to_wire,
)
from .server import ServicePolicy, SynthesisServer
from .workers import ServiceWorker

__all__ = [
    "CacheEntry",
    "KnowledgeCache",
    "ServiceClient",
    "ServicePolicy",
    "ServiceWorker",
    "SynthesisRequest",
    "SynthesisServer",
    "canonical_options",
    "canonical_problem",
    "decode_frame",
    "encode_frame",
    "problem_fingerprint",
    "problem_from_wire",
    "problem_to_wire",
    "request_over_tcp",
]
