"""``trail-discipline``: trail-backed state mutates only through its helpers.

PR 5 fixed backjump-hygiene bugs in ``Simplex.undo_to()``: state that
the trail is supposed to restore had been touched by code that did not
record an undo entry, so a backjump silently desynchronized bounds from
the SAT trail.  The invariant since then: every mutation of a
trail-backed structure goes through the small set of methods that pair
the mutation with its trail record (or replay the trail).

This rule hard-codes that contract per exact module: a registered
attribute set and the methods allowed to mutate it.  Any other method
assigning to, deleting from, or calling a mutating method on
``self.<attr>`` is a finding.  Reads are always fine.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set, Tuple

from ..core import Checker, Finding, ModuleUnit

RULE = "trail-discipline"

_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
             "add", "discard", "update", "setdefault", "popitem"}

#: module -> (trail-backed attribute names, methods allowed to mutate them)
#: ``_rescale`` is each engine's change of units: it multiplies the live
#: values in place and leaves the trail list alone (the DL engine scales
#: the parked ``_Edge`` cells, the simplex parks each bound with its scale
#: and ``undo_to`` brings it up to date).
DEFAULT_CONTRACTS: Dict[str, Tuple[Set[str], Set[str]]] = {
    "repro.smt.simplex": (
        {"_lower", "_upper", "_lower_lit", "_upper_lit", "_trail",
         "touched_bounds"},
        {"__init__", "new_var", "undo_to", "assert_lower", "assert_upper",
         "_rescale"},
    ),
    "repro.smt.difflogic": (
        {"_out", "_in", "_trail", "_fresh"},
        {"__init__", "new_node", "undo_to", "assert_constraint",
         "_rescale", "implied_bounds"},
    ),
}


def _self_attr(node: ast.AST) -> Optional[str]:
    """The ``attr`` in a ``self.<attr>[...][...]`` access chain, if any."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


class TrailDisciplineChecker(Checker):
    rule = RULE
    description = "trail-backed state mutated outside its recording helpers"
    scope = tuple(sorted(DEFAULT_CONTRACTS))

    def __init__(self,
                 contracts: Optional[Dict[str, Tuple[Set[str], Set[str]]]]
                 = None) -> None:
        self.contracts = contracts if contracts is not None \
            else DEFAULT_CONTRACTS
        self.scope = tuple(sorted(self.contracts))

    def check_module(self, unit: ModuleUnit) -> Iterable[Finding]:
        attrs, allowed = self.contracts[unit.module]
        for cls in ast.walk(unit.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name in allowed:
                    continue
                yield from self._scan_method(unit, method, attrs)

    def _scan_method(self, unit: ModuleUnit, method: ast.FunctionDef,
                     attrs: Set[str]) -> Iterable[Finding]:
        for node in ast.walk(method):
            targets = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                attr = _self_attr(target)
                if attr in attrs:
                    yield Finding(
                        rule=RULE, path=unit.path, line=node.lineno,
                        message=f"trail-backed self.{attr} mutated in "
                                f"{method.name}(), which is not a "
                                "registered trail-recording helper")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                attr = _self_attr(node.func.value)
                if attr in attrs:
                    yield Finding(
                        rule=RULE, path=unit.path, line=node.lineno,
                        message=f"trail-backed self.{attr}."
                                f"{node.func.attr}() called in "
                                f"{method.name}(), which is not a "
                                "registered trail-recording helper")
