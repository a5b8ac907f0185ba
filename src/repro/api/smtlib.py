"""Serialization of the term language: SMT-LIB2 scripts.

This is the exchange half of the :class:`~repro.api.backends.SerializationBackend`:
a session's assertion set (plus per-check assumptions) is rendered to a
standard-format script that any external SMT solver — z3, cvc5 — can
consume.  The renderer is total over the term language of
:mod:`repro.smt.terms`: Boolean constants/variables, ``not``/``and``/
``or`` nodes, and normalized linear atoms ``sum(c_i * x_i) (<= | <) rhs``.

Assumptions in SMT-LIB2 must be literals, so non-literal assumption
formulas are bridged with fresh guard symbols::

    (declare-const |__assume!0| Bool)
    (assert (= |__assume!0| (<= (+ x y) 7)))
    ...
    (check-sat-assuming (|__assume!0| ...))

which keeps the script's satisfiability identical to the session check
and lets ``(get-unsat-assumptions)`` name the failed guards.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ..errors import SolverError
from ..smt.terms import (
    AndExpr,
    Atom,
    BoolConst,
    BoolExpr,
    BoolVar,
    NotExpr,
    OrExpr,
    RealVar,
)

#: Characters allowed in an unquoted SMT-LIB2 simple symbol.
_SIMPLE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "~!@$%^&*_-+=<>.?/"
)


def symbol(name: str) -> str:
    """Render ``name`` as an SMT-LIB2 symbol, quoting when required."""
    if name and all(ch in _SIMPLE_CHARS for ch in name) and not name[0].isdigit():
        return name
    if "|" in name or "\\" in name:
        raise SolverError(
            f"name {name!r} cannot be an SMT-LIB2 symbol ('|' and '\\\\' "
            "are unrepresentable even quoted)"
        )
    return f"|{name}|"


def rational(value: Fraction) -> str:
    """Render an exact rational constant."""
    value = Fraction(value)
    if value < 0:
        return f"(- {rational(-value)})"
    if value.denominator == 1:
        return f"{value.numerator}.0"
    return f"(/ {value.numerator}.0 {value.denominator}.0)"


def _term(coeffs: Tuple[Tuple[RealVar, Fraction], ...]) -> str:
    parts = []
    for var, coeff in coeffs:
        sym = symbol(var.name)
        parts.append(sym if coeff == 1 else f"(* {rational(coeff)} {sym})")
    if len(parts) == 1:
        return parts[0]
    return "(+ " + " ".join(parts) + ")"


def render(expr: BoolExpr) -> str:
    """Render one Boolean formula as an SMT-LIB2 term."""
    if isinstance(expr, BoolConst):
        return "true" if expr.value else "false"
    if isinstance(expr, BoolVar):
        return symbol(expr.name)
    if isinstance(expr, NotExpr):
        return f"(not {render(expr.arg)})"
    if isinstance(expr, AndExpr):
        return "(and " + " ".join(render(a) for a in expr.args) + ")"
    if isinstance(expr, OrExpr):
        return "(or " + " ".join(render(a) for a in expr.args) + ")"
    if isinstance(expr, Atom):
        op = "<" if expr.strict else "<="
        return f"({op} {_term(expr.coeffs)} {rational(expr.rhs)})"
    raise SolverError(f"cannot serialize {expr!r} to SMT-LIB2")


def _collect_vars(
    expr: BoolExpr, bools: Dict[str, BoolVar], reals: Dict[str, RealVar]
) -> None:
    if isinstance(expr, BoolVar):
        bools.setdefault(expr.name, expr)
    elif isinstance(expr, NotExpr):
        _collect_vars(expr.arg, bools, reals)
    elif isinstance(expr, (AndExpr, OrExpr)):
        for a in expr.args:
            _collect_vars(a, bools, reals)
    elif isinstance(expr, Atom):
        for var, _coeff in expr.coeffs:
            reals.setdefault(var.name, var)


def _is_literal(expr: BoolExpr) -> bool:
    if isinstance(expr, BoolVar):
        return True
    return isinstance(expr, NotExpr) and isinstance(expr.arg, BoolVar)


def to_smt2(
    assertions: Sequence[BoolExpr],
    assumptions: Sequence[BoolExpr] = (),
) -> Tuple[str, List[str]]:
    """Render a full SMT-LIB2 script for one ``check``.

    Returns ``(script, assumption_terms)`` where ``assumption_terms[i]``
    is the literal naming ``assumptions[i]`` inside the script's
    ``(check-sat-assuming ...)`` — the i-th assumption formula itself when
    it is already a literal, otherwise a fresh ``__assume!i`` guard.
    """
    bools: Dict[str, BoolVar] = {}
    reals: Dict[str, RealVar] = {}
    for expr in assertions:
        _collect_vars(expr, bools, reals)
    for expr in assumptions:
        _collect_vars(expr, bools, reals)

    lines: List[str] = []
    if assumptions:
        lines.append("(set-option :produce-unsat-assumptions true)")
    lines.append("(set-logic QF_LRA)")
    guard_lines: List[str] = []
    assumption_terms: List[str] = []
    for i, expr in enumerate(assumptions):
        if _is_literal(expr):
            assumption_terms.append(render(expr))
        else:
            guard = f"__assume!{i}"
            guard_lines.append(f"(declare-const {symbol(guard)} Bool)")
            guard_lines.append(
                f"(assert (= {symbol(guard)} {render(expr)}))"
            )
            assumption_terms.append(symbol(guard))

    for name in sorted(bools):
        lines.append(f"(declare-const {symbol(name)} Bool)")
    for name in sorted(reals):
        lines.append(f"(declare-const {symbol(name)} Real)")
    lines.extend(guard_lines)
    for expr in assertions:
        lines.append(f"(assert {render(expr)})")
    if assumptions:
        lines.append(
            "(check-sat-assuming (" + " ".join(assumption_terms) + "))"
        )
        lines.append("(get-unsat-assumptions)")
    else:
        lines.append("(check-sat)")
    return "\n".join(lines) + "\n", assumption_terms
