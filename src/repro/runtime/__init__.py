"""The supervised-worker runtime under the portfolio race and the service.

One neutral layer (it imports neither :mod:`repro.portfolio` nor
:mod:`repro.service`) holding what both schedulers need to run solver
processes they can trust to die rudely:

* :mod:`~repro.runtime.frames` — the pipe-frame kinds and the pipe
  protocol state machine;
* :mod:`~repro.runtime.faults` — deterministic fault injection
  (:class:`FaultPlan`), fired by the harness;
* :mod:`~repro.runtime.knowledge` — what a solve exports for others
  (one :class:`~repro.core.seeding.Knowledge` value), the gate that
  validates it, and :class:`KnowledgePool`;
* :mod:`~repro.runtime.supervision` — :class:`SupervisionPolicy`, the
  heartbeat frame, and :class:`Supervisor` with the one retry rule;
* :mod:`~repro.runtime.process` — :class:`WorkerProcess`, the one
  process handle (spawn, send, classified ``drain()``, escalating
  ``reap()``);
* :mod:`~repro.runtime.harness` — :func:`supervised_solve`, the solve
  side shared by worker processes and their in-process twins, bounded
  by the engine's stop predicate.

Import the submodules directly: this package imports nothing, so
``core.synthesizer`` can take its event kind from ``frames`` and its
fault-bundle type from ``faults`` (leaf modules: they import nothing
from :mod:`repro.core`) while ``harness`` and ``knowledge`` import
``core``.  See ``docs/robustness.md``, "Worker runtime".
"""
