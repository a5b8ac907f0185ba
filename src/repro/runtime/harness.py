"""The solve side of a supervised worker: one harness.

Whatever runs a solve on behalf of a scheduler — a portfolio worker
process, a persistent service worker, or their in-process twins (the
serial race backend, ``InlineWorker``) — runs it through
:func:`supervised_solve`: the session is the native one
:func:`repro.core.synthesizer.open_session` builds for any run, its
engine tagged for the per-check statistics stream and given a throttled
heartbeat plus the caller's restart hooks; the attempt's injected faults
(``options.faults``) fire around the solve; and a stop predicate on the
engine bounds it.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Tuple

from ..core import synthesizer as synth
from .faults import apply_presolve, install_engine_triggers
from .supervision import heartbeat_frame


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
) -> Tuple["synth.SynthesisResult", object]:
    """Run ``core.solve`` under supervision; return ``(result, engine)``.

    ``engine`` is the run's native engine — callers export knowledge
    from it afterwards.  Its
    statistics-stream tag becomes ``native[<tag>]``, and ``tag`` also
    labels the heartbeat frames handed to ``heartbeat`` from the
    engine's restart boundaries, at most one per ``heartbeat_interval``
    seconds counted from now.  ``restart_hooks`` run after it at every
    restart boundary.  ``deadline`` (absolute ``perf_counter`` time)
    and ``cancelled`` become the engine's ``stop`` predicate for the
    length of the solve: the SAT core polls it before every decision of
    every check, so once the deadline passes or ``cancelled()`` turns
    true each remaining check answers ``unknown`` at once.

    ``options.faults`` is injected here and nowhere else: the pre-solve
    faults fire just before the solve, and the conflict-threshold
    trigger wraps the restart chain (heartbeat, then ``restart_hooks``)
    — it runs *first*, so a crashing worker gets no final heartbeat or
    knowledge flush.
    """
    session, engine = synth.open_session(options)
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
    engine.stop = _stop_predicate(deadline, cancelled)
    try:
        if options.faults:
            apply_presolve(options.faults)
            install_engine_triggers(engine, options.faults)
        result = synth.solve(problem, options, session=session)
    finally:
        engine.stop = None
    return result, engine


def _stop_predicate(deadline: Optional[float],
                    cancelled: Optional[Callable[[], bool]],
                    ) -> Optional[Callable[[], bool]]:
    """True once ``deadline`` has passed or ``cancelled()`` is; None
    when there is nothing to watch."""
    if deadline is None:
        return cancelled
    clock = time.perf_counter
    if cancelled is None:
        return lambda: clock() >= deadline
    return lambda: cancelled() or clock() >= deadline
