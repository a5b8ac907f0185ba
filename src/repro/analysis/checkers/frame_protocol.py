"""``frame-protocol``: pipe traffic must follow the frame state machine.

``frame-drift`` checks the *vocabulary* (every kind is registered and
has both a producer and a consumer); this rule checks the *grammar*:
the order of frames on one Connection, as
:data:`repro.runtime.frames.PIPE_PROTOCOL` specifies and the
consumers implement — heartbeat/artifact frames may stream before
exactly one result (readers of ``WorkerProcess.drain()`` stop at the
result, so anything after it is never consumed), ``request`` opens an
exchange that must be answered before the next one,
``shutdown``/``close()`` are terminal.

Per function, every connection expression (``conn``, ``self._conn``,
``self._worker``) gets a may-set of protocol states propagated forward
over the :mod:`repro.analysis.dataflow` CFG (union join, so a state that
is possible on *some* path is checked).  A ``send`` whose frame kind
resolves — a dict literal with a ``"kind"`` key, or a call to a frame
constructor harvested cross-file (any in-scope function returning such
a literal, e.g. ``heartbeat_frame``) — must be legal from every state
in the set; sends whose kind cannot be resolved statically are skipped
rather than guessed.  ``recv()`` starts a fresh exchange.

Two module-scoped extras ride along: the knowledge cache may only
construct ``ARTIFACT_*`` kinds (pipe envelopes never reach the cache),
and so may the sharing module's artifact builders.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core import Checker, Finding, ModuleUnit
from ..dataflow import build_cfg, header_exprs, solve
from ..dataflow.solver import run_block

RULE = "frame-protocol"

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

#: Modules whose ``{"kind": ...}`` literals must all be artifact kinds.
_ARTIFACT_ONLY_MODULES = ("repro.service.cache", "repro.runtime.knowledge")

StateSet = FrozenSet[str]
ProtoEnv = Dict[str, StateSet]


def _registry():
    from repro.runtime import frames
    consts = {
        name: value for name, value in vars(frames).items()
        if isinstance(value, str) and not name.startswith("_")
    }
    return (consts, frames.PIPE_PROTOCOL, frames.ARTIFACT_KINDS,
            frames.PROTOCOL_START, frames.PROTOCOL_CLOSED)


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _dotted(expr: ast.AST) -> Optional[str]:
    """``conn`` / ``self._conn`` / ``att.conn`` receiver names."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    return None


class _PipeCall:
    """One ``<conn>.send/recv/close(...)`` call in program order."""

    __slots__ = ("conn", "method", "node")

    def __init__(self, conn: str, method: str, node: ast.Call) -> None:
        self.conn = conn
        self.method = method
        self.node = node


class FrameProtocolChecker(Checker):
    rule = RULE
    description = "frame send/recv order vs. the pipe protocol machine"
    scope = (
        "repro.portfolio.engine",
        "repro.runtime.harness",
        "repro.runtime.knowledge",
        "repro.runtime.process",
        "repro.runtime.supervision",
        "repro.service.cache",
        "repro.service.server",
        "repro.service.workers",
    )

    def __init__(self, scope: Optional[Tuple[str, ...]] = None) -> None:
        if scope is not None:
            self.scope = scope
        (self._consts, self._protocol, self._artifact_kinds,
         self._start, self._closed) = _registry()

    # -- cross-file driver ----------------------------------------------

    def check_project(self, units: Sequence[ModuleUnit]) -> Iterable[Finding]:
        constructors = self._harvest_constructors(units)
        for unit in units:
            if unit.module in _ARTIFACT_ONLY_MODULES:
                yield from self._check_artifact_only(unit)
            for node in ast.walk(unit.tree):
                if isinstance(node, _FUNC_NODES):
                    yield from self._check_function(unit, node, constructors)

    def _harvest_constructors(self,
                              units: Sequence[ModuleUnit]) -> Dict[str, str]:
        """Function name -> frame kind, for every in-scope frame builder."""
        constructors: Dict[str, str] = {}
        for unit in units:
            for node in ast.walk(unit.tree):
                if not isinstance(node, _FUNC_NODES):
                    continue
                kinds = {
                    kind for child in _walk_shallow(node)
                    if isinstance(child, ast.Dict)
                    for kind in [self._dict_kind(child)]
                    if kind is not None
                }
                if len(kinds) == 1:
                    constructors[node.name] = next(iter(kinds))
        return constructors

    # -- kind resolution -------------------------------------------------

    def _resolve_const(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        return self._consts.get(name) if name is not None else None

    def _dict_kind(self, node: ast.Dict) -> Optional[str]:
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and key.value == "kind"):
                return self._resolve_const(value)
        return None

    def _frame_kind(self, arg: ast.AST, fn: ast.AST,
                    constructors: Dict[str, str]) -> Optional[str]:
        """The kind ``conn.send(arg)`` puts on the wire, if resolvable."""
        if isinstance(arg, ast.Dict):
            return self._dict_kind(arg)
        if isinstance(arg, ast.Call):
            name = None
            if isinstance(arg.func, ast.Name):
                name = arg.func.id
            elif isinstance(arg.func, ast.Attribute):
                name = arg.func.attr
            if name is not None:
                return constructors.get(name)
        if isinstance(arg, ast.Name):
            kinds = set()
            for node in _walk_shallow(fn):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and node.targets[0].id == arg.id):
                    continue
                kinds.add(self._frame_kind(node.value, fn, constructors))
            if len(kinds) == 1:
                return next(iter(kinds))
        return None

    # -- per-function state machine --------------------------------------

    def _pipe_calls(self, stmt: ast.stmt) -> List[_PipeCall]:
        """send/recv/close calls one CFG element evaluates, in order."""
        headers = header_exprs(stmt)
        roots: List[ast.AST] = list(headers) if headers is not None \
            else [stmt]
        calls: List[_PipeCall] = []
        for root in roots:
            for node in [root, *_walk_shallow(root)]:
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("send", "recv", "close")):
                    continue
                conn = _dotted(node.func.value)
                if conn is not None:
                    calls.append(_PipeCall(conn, node.func.attr, node))
        calls.sort(key=lambda c: (c.node.lineno, c.node.col_offset))
        return calls

    def _check_function(self, unit: ModuleUnit, fn: ast.AST,
                        constructors: Dict[str, str]) -> Iterator[Finding]:
        sends: List[Tuple[_PipeCall, str]] = []
        conns: Set[str] = set()
        for node in _walk_shallow(fn):
            if isinstance(node, ast.stmt):
                for call in self._pipe_calls(node):
                    conns.add(call.conn)
                    if call.method == "send" and call.node.args:
                        kind = self._frame_kind(call.node.args[0], fn,
                                                constructors)
                        if kind is not None and kind in self._protocol:
                            sends.append((call, kind))
        if not sends:
            return
        cfg = build_cfg(fn)
        start: StateSet = frozenset({self._start})

        def step(stmt: ast.stmt, env: ProtoEnv) -> ProtoEnv:
            for call in self._pipe_calls(stmt):
                env = self._apply_call(call, env, fn, constructors)
            return env

        def transfer(block, env):
            return run_block(block, env, step)

        def join(a: ProtoEnv, b: ProtoEnv) -> ProtoEnv:
            out: ProtoEnv = {}
            for key in set(a) | set(b):
                out[key] = a.get(key, start) | b.get(key, start)
            return out

        facts = solve(cfg, direction="forward", init={},
                      boundary={c: start for c in conns},
                      transfer=transfer, join=join)
        flagged_sends = {id(call.node): kind for call, kind in sends}
        for block in cfg.blocks:
            env = facts[block.id][0]
            for stmt in block.stmts:
                for call in self._pipe_calls(stmt):
                    kind = flagged_sends.get(id(call.node))
                    if kind is not None:
                        states = env.get(call.conn, start)
                        bad = states - self._protocol[kind][0]
                        if bad:
                            yield self._violation(unit, call, kind, bad)
                    env = self._apply_call(call, env, fn, constructors)

    def _apply_call(self, call: _PipeCall, env: ProtoEnv, fn: ast.AST,
                    constructors: Dict[str, str]) -> ProtoEnv:
        """One pipe call's effect on the per-connection state sets."""
        out = dict(env)
        if call.method == "recv":
            out[call.conn] = frozenset({self._start})
        elif call.method == "close":
            out[call.conn] = frozenset({self._closed})
        elif call.method == "send" and call.node.args:
            kind = self._frame_kind(call.node.args[0], fn, constructors)
            if kind is not None and kind in self._protocol:
                out[call.conn] = frozenset({self._protocol[kind][1]})
        return out

    def _violation(self, unit: ModuleUnit, call: _PipeCall, kind: str,
                   bad: StateSet) -> Finding:
        detail = {
            "done": "consumers stop reading after the first result frame",
            "closed": "the connection is already closed or shut down",
            "await": "the previous request has not been answered yet",
            "streaming": "streamed frames are already in flight",
        }
        reasons = "; ".join(detail[s] for s in sorted(bad) if s in detail)
        if not reasons:
            reasons = "illegal per the pipe protocol state machine"
        state_list = ", ".join(sorted(bad))
        return Finding(
            rule=RULE, path=unit.path, line=call.node.lineno,
            message=f"{kind!r} frame sent on `{call.conn}` which may be "
                    f"in state {state_list} here — {reasons}")

    # -- artifact-only modules -------------------------------------------

    def _check_artifact_only(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Dict):
                continue
            kind = self._dict_kind(node)
            if kind is not None and kind not in self._artifact_kinds:
                yield Finding(
                    rule=RULE, path=unit.path, line=node.lineno,
                    message=f"{kind!r} frame constructed in an artifact-"
                            "only module — cache entries and sharing "
                            "payloads carry ARTIFACT_* kinds only")
