"""``exact-arith`` v2: intraprocedural float-taint in the exact cores.

The difference-logic engine and the simplex core both hold their state
as integers over one scale per engine (``ScaledEngine``: a stored pair
``(r, d)`` stands for ``(r + d*delta) / S``), and the theory glue hands
them bounds in those units; all three prove *theory lemmas* the SAT core
then treats as ground truth, so a single rounding error becomes an
unsound refutation.  With integer state the two ways to round are a
float and a ``//`` that leaves a remainder.  This rule sees the first;
the second is kept out by construction — every ``//`` on solver state
sits behind the scale step (or gcd) that makes it exact, and
``tests/smt/test_simplex_scaled.py`` fails on a mutant that divides
first.  PR 9's syntactic rule flagged direct float expressions only — a
float smuggled through a variable (``g = time.monotonic(); self._t =
g``) passed unnoticed.

v2 runs the :mod:`repro.analysis.dataflow` taint analysis per function
and flags taint only where it *escapes* into exactness-critical places:

* stores into ``self.*`` solver state (including through subscripts and
  through local aliases of ``self`` attributes);
* arguments to the exact constructors ``Fraction``/``DeltaRational``;
* ``return`` values (a float handed to callers of an exact module);
* module- and class-level constant bindings;
* in-place true division on solver state.

Booleans from comparisons are not floats, so a verdict derived from a
float comparison flows freely.  None of the exact modules holds a float
today, so the tree carries no ``allow[exact-arith]`` pragma.
Parameters with float defaults start tainted; other parameters are
assumed exact (the analysis is intraprocedural).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core import Checker, Finding, ModuleUnit
from ..dataflow import build_cfg, header_exprs, solve
from ..dataflow.solver import run_block
from ..dataflow.taint import (
    ModuleTaint,
    TaintEnv,
    eval_taint,
    is_fraction_expr,
    join_envs,
    transfer_stmt,
)

RULE = "exact-arith"

#: Constructors whose arguments must be exact already.
EXACT_CONSTRUCTORS = ("Fraction", "DeltaRational")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _iter_functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested def/class/lambda."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, _DEFS):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _self_attr(expr: ast.AST) -> Optional[str]:
    if (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"):
        return f"self.{expr.attr}"
    return None


def _self_aliases(fn: ast.AST) -> Dict[str, str]:
    """Local names bound to ``self`` attributes (``rows = self._rows``)."""
    aliases: Dict[str, str] = {}
    for node in _walk_shallow(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            dotted = _self_attr(node.value)
            if dotted is not None:
                aliases[node.targets[0].id] = dotted
    return aliases


def _param_taints(fn: ast.AST) -> TaintEnv:
    """Parameters with float defaults start tainted."""
    env: TaintEnv = {}
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(positional[len(positional) - len(args.defaults):],
                            args.defaults):
        if isinstance(default, ast.Constant) \
                and isinstance(default.value, float):
            env[arg.arg] = (f"float default {default.value!r} "
                            f"(line {default.lineno})")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if isinstance(default, ast.Constant) \
                and isinstance(default.value, float):
            env[arg.arg] = (f"float default {default.value!r} "
                            f"(line {default.lineno})")
    return env


class ExactArithChecker(Checker):
    rule = RULE
    description = ("float taint escaping into solver state, exact "
                   "constructors, or returns of exact modules")
    scope = ("repro.smt.difflogic", "repro.smt.simplex", "repro.smt.theory")

    def __init__(self, scope: Optional[Tuple[str, ...]] = None) -> None:
        if scope is not None:
            self.scope = scope

    # -- module driver ---------------------------------------------------

    def check_module(self, unit: ModuleUnit) -> Iterable[Finding]:
        ctx = ModuleTaint.of_module(unit.tree)
        yield from self._check_toplevel(unit, unit.tree.body, ctx)
        for stmt in unit.tree.body:
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_toplevel(unit, stmt.body, ctx)
        for fn in _iter_functions(unit.tree):
            yield from self._check_function(unit, fn, ctx)

    def _check_toplevel(self, unit: ModuleUnit, body: List[ast.stmt],
                        ctx: ModuleTaint) -> Iterator[Finding]:
        """Module/class bodies: any tainted constant binding is a leak."""
        env: TaintEnv = {}
        for stmt in body:
            if isinstance(stmt, _DEFS):
                continue
            yield from self._constructor_sinks(unit, stmt, env, ctx)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is not None and not is_fraction_expr(value, ctx):
                    origin = eval_taint(value, dict(env), ctx)
                    if origin is not None:
                        yield Finding(
                            rule=RULE, path=unit.path, line=stmt.lineno,
                            message="constant binding carries float "
                                    f"taint: {origin}")
            env = transfer_stmt(stmt, env, ctx)

    # -- function driver -------------------------------------------------

    def _check_function(self, unit: ModuleUnit, fn: ast.AST,
                        ctx: ModuleTaint) -> Iterator[Finding]:
        aliases = _self_aliases(fn)
        cfg = build_cfg(fn)

        def transfer(block, env):
            return run_block(block, env,
                             lambda s, e: transfer_stmt(s, e, ctx))

        facts = solve(cfg, direction="forward", init={},
                      boundary=_param_taints(fn), transfer=transfer,
                      join=join_envs)
        for block in cfg.blocks:
            env = facts[block.id][0]
            for stmt in block.stmts:
                yield from self._stmt_sinks(unit, stmt, env, ctx, aliases)
                env = transfer_stmt(stmt, env, ctx)

    # -- sinks -----------------------------------------------------------

    def _stmt_sinks(self, unit: ModuleUnit, stmt: ast.stmt, env: TaintEnv,
                    ctx: ModuleTaint,
                    aliases: Dict[str, str]) -> Iterator[Finding]:
        yield from self._constructor_sinks(unit, stmt, env, ctx)
        if header_exprs(stmt) is not None:
            return  # compound header: bodies live in other blocks
        if isinstance(stmt, ast.Assign):
            origin = eval_taint(stmt.value, dict(env), ctx)
            if origin is not None:
                for target in stmt.targets:
                    yield from self._store_sinks(
                        unit, target, origin, aliases)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            origin = eval_taint(stmt.value, dict(env), ctx)
            if origin is not None:
                yield from self._store_sinks(
                    unit, stmt.target, origin, aliases)
        elif isinstance(stmt, ast.AugAssign):
            state = self._state_name(stmt.target, aliases)
            origin = eval_taint(stmt.value, dict(env), ctx)
            if state is not None and origin is not None:
                yield Finding(
                    rule=RULE, path=unit.path, line=stmt.lineno,
                    message=f"float-tainted value folded into solver "
                            f"state `{state}`: {origin}")
            elif state is not None and isinstance(stmt.op, ast.Div) \
                    and not is_fraction_expr(stmt.target, ctx):
                yield Finding(
                    rule=RULE, path=unit.path, line=stmt.lineno,
                    message=f"in-place true division on solver state "
                            f"`{state}` (use `//`, behind the scale "
                            "step or gcd that makes it exact)")
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            origin = eval_taint(stmt.value, dict(env), ctx)
            if origin is not None:
                yield Finding(
                    rule=RULE, path=unit.path, line=stmt.lineno,
                    message="float-tainted value returned from exact "
                            f"module: {origin}")

    def _constructor_sinks(self, unit: ModuleUnit, stmt: ast.stmt,
                           env: TaintEnv,
                           ctx: ModuleTaint) -> Iterator[Finding]:
        headers = header_exprs(stmt)
        roots: List[ast.AST] = list(headers) if headers is not None \
            else [stmt]
        for root in roots:
            nodes = [root, *_walk_shallow(root)] if headers is not None \
                else list(_walk_shallow(root))
            for node in nodes:
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in EXACT_CONSTRUCTORS):
                    continue
                for arg in [*node.args,
                            *(kw.value for kw in node.keywords)]:
                    origin = eval_taint(arg, dict(env), ctx)
                    if origin is not None:
                        yield Finding(
                            rule=RULE, path=unit.path, line=node.lineno,
                            message=f"float-tainted argument to "
                                    f"{node.func.id}(): {origin}")

    def _state_name(self, target: ast.AST,
                    aliases: Dict[str, str]) -> Optional[str]:
        """``self.x`` / ``self.x[i]`` / alias-of-self ``rows[i]`` names."""
        dotted = _self_attr(target)
        if dotted is not None:
            return dotted
        if isinstance(target, ast.Subscript):
            dotted = _self_attr(target.value)
            if dotted is not None:
                return dotted
            if isinstance(target.value, ast.Name):
                return aliases.get(target.value.id)
        return None

    def _store_sinks(self, unit: ModuleUnit, target: ast.AST, origin: str,
                     aliases: Dict[str, str]) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                yield from self._store_sinks(unit, el, origin, aliases)
            return
        if isinstance(target, ast.Starred):
            yield from self._store_sinks(unit, target.value, origin, aliases)
            return
        state = self._state_name(target, aliases)
        if state is not None:
            yield Finding(
                rule=RULE, path=unit.path, line=target.lineno,
                message=f"float-tainted value stored into solver state "
                        f"`{state}`: {origin}")
