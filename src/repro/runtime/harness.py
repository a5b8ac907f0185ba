"""The solve side of a supervised worker: one harness, one interrupt pump.

Whatever runs a solve on behalf of a scheduler — a portfolio worker
process, a persistent service worker, or their in-process twins (the
serial race backend, ``InlineWorker``) — runs it through
:func:`supervised_solve`: the session is the one
:func:`repro.core.synthesizer.open_session` builds for any run, its
engine tagged for the per-check statistics stream and given a throttled
heartbeat plus the caller's restart hooks; the attempt's injected faults
(``options.faults``) fire around the solve; and an
:class:`InterruptPump` bounds it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional, Sequence, Tuple

from ..api import Session
from ..core import synthesizer as synth
from .faults import apply_presolve, install_engine_triggers
from .supervision import heartbeat_frame


class InterruptPump:
    """Keep interrupting a session while its solve should be over.

    One ``interrupt()`` only aborts the *current* check — the engine
    clears the flag at every ``check()`` entry, and ``core.solve`` runs
    several checks per request (probe ladder, stages) — so a daemon
    thread re-fires it every ``interval`` seconds for as long as the
    ``deadline`` (absolute ``perf_counter`` time) has passed or
    ``cancelled()`` is true, until the ``with`` block exits.  The engine
    honours the flag at its next conflict and answers ``unknown``.

    No thread is started when there is nothing to watch (no deadline and
    no cancel source) or nothing to interrupt (only the native backend
    exposes an interruptible engine).
    """

    def __init__(self, session: Session, deadline: Optional[float] = None,
                 cancelled: Optional[Callable[[], bool]] = None,
                 interval: float = 0.025) -> None:
        self._session = session
        self._deadline = deadline
        self._cancelled = cancelled
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "InterruptPump":
        watching = self._deadline is not None or self._cancelled is not None
        if watching and self._session.can_interrupt:
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="interrupt-pump")
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            wait = self._interval
            if self._deadline is not None:
                wait = min(wait, self._deadline - time.perf_counter())
            if wait <= 0 or (self._cancelled is not None
                             and self._cancelled()):
                self._session.interrupt()
                wait = self._interval
            self._stop.wait(wait)


def pipe_sink(conn) -> Callable[[dict], None]:
    """A heartbeat sink over a worker's pipe end that survives the
    parent going away: the solve's result still matters."""
    def beat(frame: dict) -> None:
        try:
            conn.send(frame)
        except (OSError, ValueError):
            pass
    return beat


def supervised_solve(
    problem, options, tag: str, *,
    deadline: Optional[float] = None,
    cancelled: Optional[Callable[[], bool]] = None,
    heartbeat: Optional[Callable[[dict], None]] = None,
    heartbeat_interval: float = 0.0,
    restart_hooks: Sequence[Callable] = (),
    on_session: Optional[Callable[[Optional[Session]], None]] = None,
) -> Tuple["synth.SynthesisResult", object]:
    """Run ``core.solve`` under supervision; return ``(result, engine)``.

    ``engine`` is the locally built native engine (None on any other
    backend) — callers export knowledge from it afterwards.  Its
    statistics-stream tag becomes ``native[<tag>]``, and ``tag`` also
    labels the heartbeat frames handed to ``heartbeat`` from the
    engine's restart boundaries, at most one per ``heartbeat_interval``
    seconds counted from now.  ``restart_hooks`` run after it at every
    restart boundary.  ``deadline`` / ``cancelled`` arm the
    :class:`InterruptPump`; ``on_session`` sees the session before the
    solve and None after it, for callers that interrupt it themselves.

    ``options.faults`` is injected here and nowhere else: the pre-solve
    faults fire just before the solve, and the conflict-threshold
    trigger wraps the restart chain (heartbeat, then ``restart_hooks``)
    — it runs *first*, so a crashing worker gets no final heartbeat or
    knowledge flush.
    """
    session, engine = synth.open_session(options)
    if engine is not None:
        engine.backend_name = f"native[{tag}]"
        hooks = list(restart_hooks)
        if heartbeat is not None:
            last_beat = time.perf_counter()

            def beat(eng) -> None:
                nonlocal last_beat
                now = time.perf_counter()
                if now - last_beat >= heartbeat_interval:
                    last_beat = now
                    heartbeat(heartbeat_frame(tag, eng.statistics))
            hooks.insert(0, beat)
        if hooks:
            def on_restart(eng) -> None:
                for hook in hooks:
                    hook(eng)
            engine.on_restart = on_restart
    if on_session is not None:
        on_session(session)
    try:
        with InterruptPump(session, deadline, cancelled):
            if options.faults:
                apply_presolve(options.faults)
                if engine is not None:
                    install_engine_triggers(engine, options.faults)
            result = synth.solve(problem, options, session=session)
    finally:
        if on_session is not None:
            on_session(None)
    return result, engine
