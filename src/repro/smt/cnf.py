"""Tseitin CNF conversion from the term language to the SAT core.

Each distinct subformula gets one SAT variable; linear atoms are
deduplicated by canonical key and registered with the theory backend so
both phases of their SAT variable drive theory assertions.

Keep-alive rule: the two identity-keyed caches (composite nodes, and the
atom objects that own a SAT variable) are dicts keyed on the term
*object*.  Terms hash by identity, so that is an ``id()`` lookup which
also holds a strong reference -- a cached node can not be freed and have
its address handed to a different formula while its entry is live.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..errors import SolverError
from ..sat.solver import SatSolver
from .terms import (
    AndExpr,
    Atom,
    BoolConst,
    BoolExpr,
    BoolVar,
    NotExpr,
    OrExpr,
)
from .theory import LraTheory


class CnfConverter:
    """Converts Boolean formulas to clauses inside a :class:`SatSolver`."""

    def __init__(self, sat: SatSolver, theory: LraTheory):
        self._sat = sat
        self._theory = theory
        self._bool_vars: Dict[BoolVar, int] = {}
        self._atom_vars: Dict[Tuple, int] = {}
        # Identity-first shortcut past ``Atom.key``: the atom object that
        # first claimed each SAT variable (exactly the atoms ``_origins``
        # holds).  Equal atoms built separately fall back to the key.
        self._atom_objects: Dict[Atom, int] = {}
        self._node_cache: Dict[BoolExpr, int] = {}
        self._true_lit: int | None = None
        # SAT variable -> originating BoolVar/Atom, for the clause-sharing
        # export path (Tseitin and scope variables have no stable origin
        # and are deliberately absent).
        self._origins: Dict[int, BoolExpr] = {}

    # ------------------------------------------------------------------

    @property
    def bool_vars(self) -> Dict[BoolVar, int]:
        return self._bool_vars

    def origin_of(self, var: int) -> BoolExpr | None:
        """The interned BoolVar/Atom a SAT variable stands for, if any.

        Returns None for internal variables (Tseitin definitions, the
        constant-true variable): their meaning is solver-local, so clauses
        over them are not exportable.
        """
        return self._origins.get(var)

    def assert_formula(self, expr: BoolExpr) -> None:
        """Assert ``expr`` at the root level."""
        kind = type(expr)
        if kind is OrExpr:
            # Top-level disjunction: one clause over the children literals.
            literal_for = self.literal_for
            self._sat.add_clause([literal_for(a) for a in expr.args])
        elif kind is AndExpr:
            # Top-level conjunctions do not need Tseitin variables.
            for arg in expr.args:
                self.assert_formula(arg)
        elif kind is BoolConst:
            if not expr.value:
                # Assert false: add an empty clause via two contradicting units.
                v = self._sat.new_var()
                self._sat.add_clause([2 * v])
                self._sat.add_clause([2 * v + 1])
        else:
            self._sat.add_clause([self.literal_for(expr)])

    def assert_guarded(self, guard: BoolVar, expr: BoolExpr) -> None:
        """Assert ``guard -> expr`` as the one clause ``[~guard] + literals``.

        The clause :meth:`assert_formula` makes of ``Or(Not(guard),
        expr)``, built without the term: a disjunction contributes its
        children's literals, ``True`` adds nothing (and allocates no
        guard variable), ``False`` the unit ``~guard``.
        """
        kind = type(expr)
        if kind is BoolConst:
            if not expr.value:
                self._sat.add_clause([self.literal_for(guard) ^ 1])
            return
        off = self.literal_for(guard) ^ 1
        literal_for = self.literal_for
        args = expr.args if kind is OrExpr else (expr,)
        self._sat.add_clause([off] + [literal_for(a) for a in args])

    # ------------------------------------------------------------------

    def literal_for(self, expr: BoolExpr) -> int:
        """Return a SAT literal equisatisfiably representing ``expr``.

        Dispatches on the exact node type, most frequent first; a
        positive literal is ``2 * var`` and negation is ``^ 1``
        (:mod:`repro.sat.literals`).
        """
        kind = type(expr)
        if kind is Atom:
            v = self._atom_objects.get(expr)
            return 2 * (v if v is not None else self._var_for_atom(expr))
        if kind is NotExpr:
            return self.literal_for(expr.arg) ^ 1
        if kind is BoolVar:
            v = self._bool_vars.get(expr)
            return 2 * (v if v is not None else self._var_for_bool(expr))
        if kind is BoolConst:
            return self._const_literal(expr.value)
        cached = self._node_cache.get(expr)
        if cached is not None:
            return cached
        if kind is AndExpr:
            out = self._tseitin_and([self.literal_for(a) for a in expr.args])
        elif kind is OrExpr:
            out = self._tseitin_or([self.literal_for(a) for a in expr.args])
        else:
            raise SolverError(f"unsupported formula node: {expr!r}")
        self._node_cache[expr] = out
        return out

    # ------------------------------------------------------------------

    def _const_literal(self, value: bool) -> int:
        if self._true_lit is None:
            v = self._sat.new_var()
            self._true_lit = 2 * v
            self._sat.add_clause([self._true_lit])
        return self._true_lit if value else self._true_lit ^ 1

    def _var_for_bool(self, var: BoolVar) -> int:
        """Allocate the SAT variable of a BoolVar seen for the first time."""
        v = self._sat.new_var()
        self._bool_vars[var] = v
        self._origins[v] = var
        return v

    def _var_for_atom(self, atom: Atom) -> int:
        """The SAT variable of an atom object not in the identity map:
        an equal atom's by key, else a fresh registered one."""
        key = atom.key
        v = self._atom_vars.get(key)
        if v is None:
            v = self._sat.new_var()
            # An atom no unsatisfied clause mentions stays undecided: the
            # SAT model is partial over atoms, the theory model is not.
            self._sat.mark_atom(v)
            self._atom_vars[key] = v
            self._atom_objects[atom] = v
            self._origins[v] = atom
            if self._sat.theory is None:
                self._sat.attach_theory(self._theory)
            self._theory.register_atom(atom, v)
        return v

    def _tseitin_and(self, lits: list[int]) -> int:
        p = 2 * self._sat.new_var()
        add_clause = self._sat.add_clause
        for l in lits:
            add_clause([p ^ 1, l])
        add_clause([p] + [l ^ 1 for l in lits])
        return p

    def _tseitin_or(self, lits: list[int]) -> int:
        p = 2 * self._sat.new_var()
        add_clause = self._sat.add_clause
        add_clause([p ^ 1] + lits)
        for l in lits:
            add_clause([p, l ^ 1])
        return p
