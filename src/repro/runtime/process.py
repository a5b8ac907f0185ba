"""The parent-side handle of one supervised solver process.

A :class:`WorkerProcess` owns the child ``Process`` and the parent's end
of its pipe, and is the only code that spawns, signals, reads or tears
down a worker.  Schedulers see frames already classified and a death
already detected; how they *wait* stays theirs — the portfolio race
sleeps in one :func:`wait_ready` over all its one-shot workers, the
service blocks in :meth:`WorkerProcess.drain` on its one persistent
worker.

Teardown always escalates ``terminate()`` → ``join(kill_grace)`` →
``kill()`` → ``join()`` and closes the pipe end, so a reaped worker
leaves neither a zombie nor a file descriptor behind.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from typing import Callable, Iterator, List, Sequence, Tuple

from .frames import KIND_ARTIFACT, KIND_HEARTBEAT, KIND_RESULT, KIND_STARTED

#: ``drain()`` classifications beyond the frame kinds a child may send.
GARBAGE = "garbage"     # not a frame at all, or a kind no parent expects
DIED = "died"           # EOF: the child is gone, whatever its exit code

_CHILD_KINDS = frozenset({KIND_HEARTBEAT, KIND_ARTIFACT, KIND_RESULT,
                          KIND_STARTED})


class WorkerProcess:
    """One spawned worker: ``target(child_conn, *args)`` in a daemon child.

    ``duplex`` follows from the worker's lifetime, not from a user
    choice: a one-shot worker only ever reports (one-way pipe), a
    persistent one is also sent requests.  Raises ``OSError`` — with
    both pipe ends closed again — when the process cannot be started.
    """

    def __init__(self, target: Callable, args: Sequence = (), *, name: str,
                 duplex: bool, kill_grace: float) -> None:
        ctx = multiprocessing.get_context()
        self._kill_grace = kill_grace
        conn, child_conn = ctx.Pipe(duplex=duplex)
        try:
            # start() failed on the except path, so no OS process exists
            # and there is nothing to reap.
            proc = ctx.Process(target=target, args=(child_conn, *args),
                               name=name, daemon=True)
            proc.start()
        except OSError:
            conn.close()
            raise
        finally:
            child_conn.close()
        self._proc, self._conn = proc, conn
        self.pid = proc.pid

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def send(self, frame: dict) -> bool:
        """Ship one frame to the child; False when it is past receiving."""
        try:
            self._conn.send(frame)
            return True
        except (OSError, ValueError):
            return False

    def signal(self, signum: int) -> bool:
        """Deliver ``signum`` to the child; False when there is none."""
        if not self.alive:
            return False
        try:
            os.kill(self.pid, signum)
            return True
        except OSError:
            return False

    def drain(self, timeout: float = 0.0) -> Iterator[Tuple[str, object]]:
        """Yield ``(kind, frame)`` for every frame queued on the pipe.

        Waits up to ``timeout`` seconds for the first one.  ``kind`` is
        the frame's own for the four a child may send (heartbeat,
        artifact, result, started), :data:`GARBAGE` for anything else —
        readers quarantine it and keep going, one garbled frame must not
        cost the attempt — and :data:`DIED` (last, with no frame) once the
        pipe is at EOF: a death, whatever the exit code says.
        """
        try:
            while self._conn.poll(timeout):
                timeout = 0.0
                frame = self._conn.recv()
                kind = frame.get("kind") if isinstance(frame, dict) else None
                yield (kind if kind in _CHILD_KINDS else GARBAGE), frame
        except (EOFError, OSError):
            yield DIED, None

    def reap(self, linger: bool = False) -> None:
        """Tear the worker down and leave it joined; safe to repeat.

        ``linger`` first gives a child that is exiting on its own (it
        reported, or was told to shut down) ``kill_grace`` seconds to
        finish.  A child still alive then — or one that ignores SIGTERM
        for as long again — gets SIGKILL, which cannot be ignored.  The
        ``Process`` object is closed too: its sentinel descriptors would
        otherwise live for as long as this handle is referenced.
        """
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if linger:
            proc.join(self._kill_grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(self._kill_grace)
            if proc.is_alive():
                proc.kill()
        proc.join()
        proc.close()
        self._conn.close()


def wait_ready(workers: Sequence[WorkerProcess],
               timeout: float) -> List[WorkerProcess]:
    """Sleep up to ``timeout`` s; the workers with something to drain."""
    if not workers:
        time.sleep(timeout)
        return []
    ready = multiprocessing.connection.wait(
        [worker._conn for worker in workers], timeout)
    return [worker for worker in workers if worker._conn in ready]
