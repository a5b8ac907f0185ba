"""``frame-drift``: every ``{"kind": ...}`` frame checked against the registry.

PR 4's phantom-``unsat`` bug was protocol drift: a producer shipping a
payload shape no consumer fully handled.  The wire vocabulary now lives
in :mod:`repro.runtime.frames`; this cross-file rule enforces it:

* construction sites (``{"kind": X, ...}`` dict literals and
  ``frame["kind"] = X`` stores) must use a registry constant, not a
  bare string;
* every constructed kind must resolve to a registry member;
* every kind a consumer dispatches on (``== / != / in`` comparisons
  against a ``.get("kind")`` / ``["kind"]`` expression or a ``kind``
  variable) must be a registry member;
* project-wide, every constructed kind must have at least one consumer
  dispatch and vice versa — a frame nobody reads (or a dispatch arm
  nothing can reach) is drift.

Fault injection deliberately forges an off-registry kind to exercise
quarantine; that one site carries a justifying suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import Checker, Finding, ModuleUnit

RULE = "frame-drift"

_SET_NAMES = ("PIPE_KINDS", "ARTIFACT_KINDS", "EVENT_KINDS", "FRAME_KINDS")


def _registry() -> Tuple[Dict[str, str], Dict[str, frozenset]]:
    """(constant name -> kind string, set name -> kind strings)."""
    from repro.runtime import frames
    consts = {
        name: value for name, value in vars(frames).items()
        if isinstance(value, str) and not name.startswith("_")
    }
    sets = {name: getattr(frames, name) for name in _SET_NAMES
            if hasattr(frames, name)}
    return consts, sets


class _Site:
    __slots__ = ("kind", "path", "line")

    def __init__(self, kind: str, path: str, line: int) -> None:
        self.kind = kind
        self.path = path
        self.line = line


class FrameDriftChecker(Checker):
    rule = RULE
    description = "frame kinds vs. the repro.runtime.frames registry"
    scope = (
        "repro.core.synthesizer",
        "repro.portfolio.engine",
        "repro.runtime.faults",
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
        self._consts, self._sets = _registry()
        self._kinds = frozenset().union(*self._sets.values()) \
            if self._sets else frozenset(self._consts.values())

    # -- resolution ------------------------------------------------------

    def _resolve(self, node: ast.AST) -> Optional[str]:
        """The kind string a Name/Attribute/Constant expression denotes."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            return self._consts.get(name)
        return None

    @staticmethod
    def _is_kind_expr(node: ast.AST) -> bool:
        """``x.get("kind")`` / ``x["kind"]`` / a variable named ``kind``."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "kind"):
            return True
        if (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value == "kind"):
            return True
        return isinstance(node, ast.Name) and node.id == "kind"

    # -- collection ------------------------------------------------------

    def _constructions(self, unit: ModuleUnit,
                       out: List[_Site]) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            value = None
            if isinstance(node, ast.Dict):
                for key, val in zip(node.keys, node.values):
                    if (isinstance(key, ast.Constant)
                            and key.value == "kind"):
                        value = val
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and target.slice.value == "kind"):
                        value = node.value
            if value is None:
                continue
            line = value.lineno
            if isinstance(value, ast.Constant) and isinstance(value.value,
                                                              str):
                yield Finding(
                    rule=RULE, path=unit.path, line=line,
                    message=f"frame kind constructed as bare literal "
                            f"{value.value!r}; use the "
                            "repro.runtime.frames constant")
                continue
            kind = self._resolve(value)
            if kind is None:
                yield Finding(
                    rule=RULE, path=unit.path, line=line,
                    message="frame kind constructed from an expression the "
                            "registry cannot resolve")
            elif kind not in self._kinds:
                yield Finding(
                    rule=RULE, path=unit.path, line=line,
                    message=f"constructed frame kind {kind!r} is not in "
                            "the frames registry")
            else:
                out.append(_Site(kind, unit.path, line))

    def _consumptions(self, unit: ModuleUnit,
                      out: List[_Site]) -> Iterable[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            left, right = node.left, node.comparators[0]
            op = node.ops[0]
            if isinstance(op, (ast.In, ast.NotIn)):
                # kind in ARTIFACT_KINDS — dispatches on the whole set.
                if self._is_kind_expr(left):
                    set_name = None
                    if isinstance(right, ast.Name):
                        set_name = right.id
                    elif isinstance(right, ast.Attribute):
                        set_name = right.attr
                    if set_name in self._sets:
                        for kind in sorted(self._sets[set_name]):
                            out.append(_Site(kind, unit.path, node.lineno))
                continue
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for kind_side, value_side in ((left, right), (right, left)):
                if not self._is_kind_expr(kind_side):
                    continue
                kind = self._resolve(value_side)
                if kind is None:
                    continue
                if kind not in self._kinds:
                    yield Finding(
                        rule=RULE, path=unit.path, line=node.lineno,
                        message=f"consumer dispatches on frame kind "
                                f"{kind!r} which is not in the frames "
                                "registry")
                else:
                    out.append(_Site(kind, unit.path, node.lineno))

    # -- the cross-file check --------------------------------------------

    def check_project(self, units: Sequence[ModuleUnit],
                      ) -> Iterable[Finding]:
        constructed: List[_Site] = []
        consumed: List[_Site] = []
        for unit in units:
            yield from self._constructions(unit, constructed)
            yield from self._consumptions(unit, consumed)
        consumed_kinds = {site.kind for site in consumed}
        constructed_kinds = {site.kind for site in constructed}
        reported = set()
        for site in constructed:
            if site.kind not in consumed_kinds and site.kind not in reported:
                reported.add(site.kind)
                yield Finding(
                    rule=RULE, path=site.path, line=site.line,
                    message=f"frame kind {site.kind!r} is constructed but "
                            "no consumer dispatches on it")
        for site in consumed:
            if (site.kind not in constructed_kinds
                    and site.kind not in reported):
                reported.add(site.kind)
                yield Finding(
                    rule=RULE, path=site.path, line=site.line,
                    message=f"consumer dispatches on frame kind "
                            f"{site.kind!r} but nothing constructs it")
