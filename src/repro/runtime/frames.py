"""The pipe-frame vocabulary: every ``{"kind": ...}`` string on a pipe.

Workers, the portfolio parent and the service workers exchange dict
frames discriminated by a ``"kind"`` key: liveness, streamed knowledge,
results, and the service workers' request/shutdown envelope.  A kind
constructed somewhere that no consumer dispatches on (or consumed but
never constructed) is a protocol bug waiting for a quiet pipe, so every
producer and consumer names its kinds through these constants, and
:data:`PIPE_PROTOCOL` says in which order a sender may put them on one
pipe.  Streamed knowledge has no kinds of its own: an artifact frame
carries one :class:`~repro.core.seeding.Knowledge` value.
"""

from __future__ import annotations

# -- pipe frames -----------------------------------------------------------

#: Worker liveness frame (see :mod:`repro.runtime.supervision`).
KIND_HEARTBEAT = "heartbeat"
#: Knowledge streamed mid-race (a ``Knowledge`` under ``"artifact"``).
KIND_ARTIFACT = "artifact"
#: A worker's terminal answer (payload under ``"payload"``).
KIND_RESULT = "result"
#: Service parent -> worker: solve this request.
KIND_REQUEST = "request"
#: Service worker -> parent: this request's solve has begun (under
#: ``"id"``); a cancel signal sent from now on reaches it.
KIND_STARTED = "started"
#: Service parent -> worker: exit the request loop cleanly.
KIND_SHUTDOWN = "shutdown"

# -- pipe protocol state machine -------------------------------------------
#
# What a *sender* may put on one Connection, as consumers implement it:
#
#              heartbeat/artifact                 request
#            +------------------+             +-----------+
#            v                  |             v           |
#   start --heartbeat/artifact--> streaming   start --request--> await
#     |   \--------started------^  |
#     +----------result------------+---result--> done
#     |
#     any non-closed state --shutdown--> closed
#
# * heartbeat/artifact frames may stream before the result, never after:
#   the readers of ``WorkerProcess.drain()`` stop at the result.
# * a started frame is only ever an exchange's first frame: a service
#   worker opens each answer with it.
# * exactly one result: a second result frame is never consumed.
# * shutdown is terminal — the worker loop exits on it.
# * a ``recv()`` starts a fresh exchange (state back to ``start``);
#   ``close()`` is terminal like shutdown.
#
# ``tests/runtime/test_pipe_protocol.py`` runs both child entry points
# on a recording pipe end and folds every send through this table; keep
# it in lockstep with the consumers.

PROTOCOL_START = "start"
PROTOCOL_STREAMING = "streaming"
PROTOCOL_DONE = "done"
PROTOCOL_AWAIT = "await"
PROTOCOL_CLOSED = "closed"

#: kind -> (states a send is legal from, state after the send).
PIPE_PROTOCOL = {
    KIND_HEARTBEAT: (frozenset({PROTOCOL_START, PROTOCOL_STREAMING}),
                     PROTOCOL_STREAMING),
    KIND_ARTIFACT: (frozenset({PROTOCOL_START, PROTOCOL_STREAMING}),
                    PROTOCOL_STREAMING),
    KIND_RESULT: (frozenset({PROTOCOL_START, PROTOCOL_STREAMING}),
                  PROTOCOL_DONE),
    KIND_STARTED: (frozenset({PROTOCOL_START}), PROTOCOL_STREAMING),
    KIND_REQUEST: (frozenset({PROTOCOL_START}), PROTOCOL_AWAIT),
    KIND_SHUTDOWN: (frozenset({PROTOCOL_START, PROTOCOL_STREAMING,
                               PROTOCOL_DONE, PROTOCOL_AWAIT}),
                    PROTOCOL_CLOSED),
}
