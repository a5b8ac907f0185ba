"""The analysis engine: findings, parsed units, suppression, driving.

The engine is deliberately small.  A *checker* is an object with a rule
id, a scope predicate over module dotted names, and two hooks:
``check_module`` (runs per file, sees one :class:`ModuleUnit`) and
``check_project`` (runs once, sees every in-scope unit — used by
cross-file rules like frame-drift).  :func:`analyze` parses the tree
once, fans units out to every checker, applies the suppression map, and
returns a :class:`Report` sorted for deterministic output.

Suppression is source-level: a ``# repro: allow[rule-id]`` pragma on
the finding's line, or on a comment-only line directly above it,
silences that rule there.  A *region* pragma pair —
``# repro: allow[rule-id]:begin <reason>`` ... ``# repro: allow[rule-id]:end``
— silences the rule for every line in between, so a deliberately
rule-breaking section carries one justification instead of one pragma
per line.  Suppressed findings are
kept in the report (JSON consumers see them with ``"suppressed":
true``) but do not affect the exit status.  Every pragma records
whether it actually suppressed something; ``analyze(...,
check_pragmas=True)`` turns the stale ones into unsuppressible
``unused-pragma`` findings.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: ``repro: allow[...]`` with an optional ``:begin``/``:end`` region
#: marker — matched inside comment tokens only, so the leading ``#`` is
#: implied; several pragmas may share one comment.
_ALLOW_RE = re.compile(r"repro:\s*allow\[([a-z0-9-]+)\](?::(begin|end))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False

    def to_dict(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "suppressed": self.suppressed}

    def render(self) -> str:
        mark = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}{mark}"


@dataclass
class Pragma:
    """One suppression comment, with its coverage and a used flag.

    ``kind`` is ``"line"`` (plain pragma), ``"region"`` (a
    ``:begin``/``:end`` pair — ``covers`` spans the whole region), or
    ``"end"`` (an orphan ``:end`` with no opener, kept so
    ``check_pragmas`` can flag it).  ``used`` is flipped by the engine
    when the pragma suppresses at least one finding.
    """

    rule: str
    line: int
    kind: str
    covers: Tuple[int, int]
    used: bool = False


@dataclass
class ModuleUnit:
    """One parsed source file plus everything checkers need from it."""

    path: str                    #: path as given (repo-relative in CI)
    module: str                  #: dotted module name, e.g. ``repro.smt.simplex``
    source: str
    tree: ast.AST
    lines: List[str]             #: source split into lines (1-based via index-1)
    #: line -> rule ids allowed there (pragma on the line or just above)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: every pragma comment, for used-tracking (empty on hand-built units)
    pragmas: List[Pragma] = field(default_factory=list)
    #: line -> first line of the simple statement spanning it
    _anchors: Optional[Dict[int, int]] = field(default=None, repr=False)

    def allows(self, rule: str, line: int) -> bool:
        if self.pragmas:
            return self.suppressing_pragma(rule, line) is not None
        if rule in self.suppressions.get(line, ()):
            return True
        anchor = self._statement_anchors().get(line)
        return (anchor is not None
                and rule in self.suppressions.get(anchor, ()))

    def suppressing_pragma(self, rule: str, line: int) -> Optional[Pragma]:
        """The pragma suppressing ``rule`` at ``line``, if any.

        Line pragmas win over enclosing regions so used-tracking
        credits the most specific annotation.
        """
        anchor = self._statement_anchors().get(line)
        region: Optional[Pragma] = None
        for p in self.pragmas:
            if p.rule != rule or p.kind == "end":
                continue
            lo, hi = p.covers
            if not (lo <= line <= hi
                    or (anchor is not None and lo <= anchor <= hi)):
                continue
            if p.kind == "line":
                return p
            if region is None:
                region = p
        return region

    def _statement_anchors(self) -> Dict[int, int]:
        """Map every line of a multi-line *simple* statement to its first.

        A pragma on (or above) the first line of e.g. a parenthesized
        assignment then covers findings anywhere in that statement.
        Compound statements (def/if/for/try/...) are excluded so a
        pragma never silently blankets a whole block.
        """
        if self._anchors is None:
            anchors: Dict[int, int] = {}
            compound = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                        ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
                        ast.AsyncWith, ast.Try)
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt) \
                        or isinstance(node, compound):
                    continue
                end = getattr(node, "end_lineno", None) or node.lineno
                for line in range(node.lineno + 1, end + 1):
                    anchors.setdefault(line, node.lineno)
            self._anchors = anchors
        return self._anchors


def scan_pragmas(source: str) -> List[Pragma]:
    """Every suppression pragma in ``source``, with coverage resolved.

    A line pragma covers its own line; on a *comment-only* line it also
    covers the code line the comment block precedes (chaining through
    any further comment-only lines), so a statement can carry a
    multi-line justification comment above it.  A ``:begin`` marker
    opens a region closed by the next ``:end`` for the same rule (or
    the end of file when unmatched); an ``:end`` with no opener is kept
    as an orphan for ``check_pragmas`` to flag.  Pragmas are read from
    real tokens, not string-matched, so a pragma inside a string
    literal is inert.
    """
    pragmas: List[Pragma] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    lines = source.splitlines()

    def comment_only(line: int) -> bool:
        return (line <= len(lines)
                and lines[line - 1].strip().startswith("#"))

    open_regions: Dict[str, Pragma] = {}
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line = tok.start[0]
        for match in _ALLOW_RE.finditer(tok.string):
            rule, marker = match.group(1), match.group(2)
            if marker == "begin":
                pragma = Pragma(rule=rule, line=line, kind="region",
                                covers=(line, max(len(lines), line)))
                pragmas.append(pragma)
                open_regions[rule] = pragma
            elif marker == "end":
                opener = open_regions.pop(rule, None)
                if opener is not None:
                    opener.covers = (opener.covers[0], line)
                else:
                    pragmas.append(Pragma(rule=rule, line=line, kind="end",
                                          covers=(line, line)))
            else:
                cover_end = line
                if comment_only(line):
                    nxt = line + 1
                    while comment_only(nxt):
                        nxt += 1
                    cover_end = nxt
                pragmas.append(Pragma(rule=rule, line=line, kind="line",
                                      covers=(line, cover_end)))
    return pragmas


def scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map each source line to the rule ids suppressed on it."""
    allowed: Dict[int, Set[str]] = {}
    for p in scan_pragmas(source):
        if p.kind == "end":
            continue
        if p.kind == "line":
            allowed.setdefault(p.line, set()).add(p.rule)
            if p.covers[1] != p.line:
                allowed.setdefault(p.covers[1], set()).add(p.rule)
        else:
            for line in range(p.covers[0], p.covers[1] + 1):
                allowed.setdefault(line, set()).add(p.rule)
    return allowed


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, rooted at the innermost package.

    Walks up while ``__init__.py`` siblings exist, so both
    ``src/repro/smt/simplex.py`` and a copy in a tmpdir fixture resolve
    to the same ``repro.smt.simplex`` name checkers scope on.
    """
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[-1] != path.stem and parts[0] == "__init__":
        parts = parts[1:]
    return ".".join(reversed(parts))


def load_unit(path: Path, display_path: Optional[str] = None) -> ModuleUnit:
    """Parse one file into a :class:`ModuleUnit` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return ModuleUnit(
        path=display_path or str(path),
        module=module_name_for(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
        suppressions=scan_suppressions(source),
        pragmas=scan_pragmas(source),
    )


def iter_python_files(roots: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``roots`` (files accepted verbatim), sorted."""
    out: Set[Path] = set()
    for root in roots:
        if root.is_file():
            if root.suffix == ".py":
                out.add(root)
        else:
            out.update(p for p in root.rglob("*.py"))
    return sorted(out)


class Checker:
    """Base contract for a rule.  Subclasses set ``rule`` and ``scope``.

    ``scope`` is a collection of dotted module names (or prefixes ending
    in ``.``); empty means every module.  Findings are yielded raw —
    the engine stamps suppression.
    """

    rule: str = ""
    description: str = ""
    scope: Tuple[str, ...] = ()

    def in_scope(self, module: str) -> bool:
        if not self.scope:
            return True
        for pat in self.scope:
            if pat.endswith("."):
                if module.startswith(pat) or module == pat[:-1]:
                    return True
            elif module == pat:
                return True
        return False

    def check_module(self, unit: ModuleUnit) -> Iterable[Finding]:
        return ()

    def check_project(self, units: Sequence[ModuleUnit]) -> Iterable[Finding]:
        return ()


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: List[Finding]
    files_checked: int
    rules: List[str]

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "findings": [f.to_dict() for f in self.findings],
            "unsuppressed": len(self.unsuppressed),
            "ok": self.ok,
        }


def _stamp(finding: Finding, unit: ModuleUnit) -> Finding:
    if unit.pragmas:
        pragma = unit.suppressing_pragma(finding.rule, finding.line)
        if pragma is None:
            return finding
        pragma.used = True
    elif not unit.allows(finding.rule, finding.line):
        return finding
    return Finding(rule=finding.rule, path=finding.path,
                   line=finding.line, message=finding.message,
                   suppressed=True)


def _pragma_findings(units: Sequence[ModuleUnit],
                     known_rules: Set[str]) -> List[Finding]:
    """``unused-pragma`` findings: stale, unknown-rule, or orphan-end.

    These are deliberately unsuppressible — a pragma cannot vouch for
    itself; delete it or fix the rule id instead.
    """
    out: List[Finding] = []
    for unit in units:
        for p in unit.pragmas:
            if p.kind == "end":
                message = (f"allow[{p.rule}]:end has no matching :begin")
            elif p.rule not in known_rules:
                message = (f"pragma names unknown rule {p.rule!r}; "
                           "known rules: "
                           + ", ".join(sorted(known_rules)))
            elif not p.used:
                what = ("region suppresses no findings"
                        if p.kind == "region" else "suppresses nothing")
                message = (f"allow[{p.rule}] {what} — the code it excused "
                           "moved or the rule got more precise; delete it")
            else:
                continue
            out.append(Finding(rule="unused-pragma", path=unit.path,
                               line=p.line, message=message))
    return out


def analyze(roots: Sequence[Path], checkers: Sequence[Checker],
            *, check_pragmas: bool = False) -> Report:
    """Run ``checkers`` over every python file under ``roots``.

    With ``check_pragmas``, pragmas that suppressed nothing (or name an
    unknown rule, or are orphan ``:end`` markers) become unsuppressible
    ``unused-pragma`` findings after the regular rules have run.
    """
    units: List[ModuleUnit] = []
    findings: List[Finding] = []
    for path in iter_python_files(roots):
        try:
            units.append(load_unit(path))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="parse-error", path=str(path),
                line=exc.lineno or 0,
                message=f"file does not parse: {exc.msg}"))
    by_path = {u.path: u for u in units}
    for checker in checkers:
        scoped = [u for u in units if checker.in_scope(u.module)]
        for unit in scoped:
            for f in checker.check_module(unit):
                findings.append(_stamp(f, unit))
        for f in checker.check_project(scoped):
            unit = by_path.get(f.path)
            findings.append(_stamp(f, unit) if unit is not None else f)
    if check_pragmas:
        findings.extend(_pragma_findings(
            units, {c.rule for c in checkers}))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return Report(findings=findings, files_checked=len(units),
                  rules=[c.rule for c in checkers])
