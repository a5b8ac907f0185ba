"""``resource-hygiene`` v2: cleanup must be *reachable on every path*.

PR 7's leak class: a worker ``Connection`` or ``Process`` created in a
function where the cleanup call (``close`` / ``terminate`` / ``join`` /
``kill``) sits only on the happy path — an early return or exception
path leaks the fd or zombifies the child.

v1 was lexical ("some cleanup exists and at least one is not inside an
``if`` arm"), which both missed conditional-only closes hidden behind
gotos-in-disguise (``break``, early ``return``) and flagged perfectly
fine ``with``-managed resources.  v2 runs a backward **must**-analysis
over the :mod:`repro.analysis.dataflow` CFG: the fact is the set of
names guaranteed to be *released* on every path to the function exit,
with intersection as the meet.  A release is:

* a cleanup method call on the name;
* ownership escape — the bare name returned, stored, passed to a call
  (``contextlib.closing(conn)`` is therefore a release), or put in a
  container: the recipient is responsible;
* a ``with`` binding or a ``with`` whose context expression is the name
  (``__exit__`` runs on every path out of the block).

A creation site is flagged when its name is not in the must-release set
immediately after the creation: either no release exists at all, or
every release sits on a conditional path (the finally-cloned CFG makes
``try/finally`` cleanup count on *all* abrupt exits, so the classic
fix — move the close into ``finally`` — silences the rule for real).
Rebinding a name kills the guarantee for the old object.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..core import Checker, Finding, ModuleUnit
from ..dataflow import build_cfg, header_exprs, solve
from ..dataflow.solver import run_block

RULE = "resource-hygiene"

_CLEANUP_METHODS = {"close", "terminate", "join", "kill"}
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that skips nested def/class/lambda bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _creation_bindings(stmt: ast.stmt) -> List[Tuple[str, int, str]]:
    """``(name, line, what)`` for resource constructors bound by ``stmt``."""
    if not (isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Call)):
        return []
    kind = _call_name(stmt.value.func)
    out: List[Tuple[str, int, str]] = []
    if kind == "Pipe":
        for target in stmt.targets:
            if isinstance(target, ast.Tuple):
                for el in target.elts:
                    if isinstance(el, ast.Name):
                        out.append((el.id, stmt.lineno, "connection"))
            elif isinstance(target, ast.Name):
                out.append((target.id, stmt.lineno, "pipe"))
    elif kind == "Process":
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out.append((target.id, stmt.lineno, "process"))
    return out


def _scan_roots(stmt: ast.stmt) -> List[ast.AST]:
    """The expression roots one CFG element actually evaluates."""
    headers = header_exprs(stmt)
    if headers is None:
        return [stmt]
    roots: List[ast.AST] = list(headers)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots.extend(item.optional_vars for item in stmt.items
                     if item.optional_vars is not None)
    return roots


class ResourceHygieneChecker(Checker):
    rule = RULE
    description = "Pipe/Process cleanup must reach every exit path"
    scope = ("repro.portfolio.", "repro.runtime.", "repro.service.")

    def __init__(self, scope: Optional[Tuple[str, ...]] = None) -> None:
        if scope is not None:
            self.scope = scope

    def check_module(self, unit: ModuleUnit) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if isinstance(node, _FUNC_NODES):
                yield from self._check_function(unit, node)

    def _check_function(self, unit: ModuleUnit,
                        func: ast.AST) -> Iterator[Finding]:
        names: Set[str] = set()
        for node in _walk_shallow(func):
            if isinstance(node, ast.stmt):
                names.update(n for n, _, _ in _creation_bindings(node))
        if not names:
            return
        cfg = build_cfg(func)

        def step(stmt: ast.stmt, fact: FrozenSet[str]) -> FrozenSet[str]:
            return self._transfer(stmt, fact, names)

        def transfer(block, fact):
            return run_block(block, fact, step, backward=True)

        facts = solve(cfg, direction="backward",
                      init=frozenset(names), boundary=frozenset(),
                      transfer=transfer,
                      join=lambda a, b: a & b)
        released_somewhere = self._any_release_sites(func, names)
        for block in cfg.blocks:
            fact = facts[block.id][1]  # fact at the block's exit
            for stmt in reversed(block.stmts):
                fact_after = fact
                fact = step(stmt, fact)
                for name, line, what in _creation_bindings(stmt):
                    if name in fact_after:
                        continue
                    if name in released_somewhere:
                        message = (f"{what} {name!r} is not released on "
                                   "every path from here; move a cleanup "
                                   "into a finally block or the "
                                   "unconditional path")
                    else:
                        message = (f"{what} {name!r} is created here but "
                                   "never closed, joined or handed off")
                    yield Finding(rule=RULE, path=unit.path, line=line,
                                  message=message)

    # -- transfer --------------------------------------------------------

    def _transfer(self, stmt: ast.stmt, fact: FrozenSet[str],
                  names: Set[str]) -> FrozenSet[str]:
        out = set(fact)
        out.difference_update(self._killed(stmt, names))
        out.update(self._released(stmt, names))
        return frozenset(out)

    @staticmethod
    def _killed(stmt: ast.stmt, names: Set[str]) -> Set[str]:
        """Names rebound by this element (old object loses its releases)."""
        killed: Set[str] = set()

        def targets_of(node: ast.AST) -> Iterator[ast.AST]:
            if isinstance(node, ast.Assign):
                yield from node.targets
            elif isinstance(node, ast.AnnAssign):
                yield node.target
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.target

        def collect(target: ast.AST) -> None:
            if isinstance(target, ast.Name) and target.id in names:
                killed.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    collect(el)
            elif isinstance(target, ast.Starred):
                collect(target.value)

        if header_exprs(stmt) is None or isinstance(
                stmt, (ast.For, ast.AsyncFor)):
            for target in targets_of(stmt):
                collect(target)
        return killed

    def _released(self, stmt: ast.stmt, names: Set[str]) -> Set[str]:
        released: Set[str] = set()
        for root in _scan_roots(stmt):
            nodes = [root, *_walk_shallow(root)]
            parents: Dict[ast.AST, ast.AST] = {}
            for node in nodes:
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            for node in nodes:
                if isinstance(node, ast.Name) and node.id in names:
                    parent = parents.get(node)
                    if isinstance(parent, ast.Attribute) \
                            and parent.value is node:
                        call = parents.get(parent)
                        if (isinstance(call, ast.Call)
                                and call.func is parent
                                and parent.attr in _CLEANUP_METHODS):
                            released.add(node.id)
                        # plain attribute access (conn.poll(), proc.pid):
                        # neither escape nor cleanup
                        continue
                    if isinstance(node.ctx, ast.Load):
                        # bare use: returned / stored / passed / contained
                        # — ownership transfers (closing(conn), with conn)
                        released.add(node.id)
                    elif isinstance(node.ctx, ast.Store) and isinstance(
                            stmt, (ast.With, ast.AsyncWith)):
                        # with ... as name: __exit__ releases it
                        released.add(node.id)
        return released

    def _any_release_sites(self, func: ast.AST,
                           names: Set[str]) -> Set[str]:
        """Names with at least one release anywhere (message selection)."""
        released: Set[str] = set()
        for node in _walk_shallow(func):
            if isinstance(node, ast.stmt):
                released.update(self._released(node, names))
        return released
