"""Conjunctive normal form container used between bit-blasting and SAT.

Variables are positive integers; literals are non-zero integers where a
negative literal denotes the negation of the corresponding variable
(DIMACS convention).  :class:`CnfBuilder` hands out fresh variables and
accumulates clauses, and offers the handful of gate encodings (Tseitin)
the bit-blaster needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union


@dataclass
class Cnf:
    """A CNF formula: a clause list over ``num_vars`` variables."""

    num_vars: int = 0
    clauses: List[List[int]] = field(default_factory=list)

    def add_clause(self, literals: Sequence[int]) -> None:
        clause = list(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable; keep
            # it so the SAT solver reports UNSAT rather than silently dropping
            # the contradiction.
            self.clauses.append(clause)
            return
        for literal in clause:
            if literal == 0:
                raise ValueError("literal 0 is not allowed")
            self.num_vars = max(self.num_vars, abs(literal))
        self.clauses.append(clause)


class CnfBuilder:
    """Fresh-variable factory plus Tseitin gate encodings.

    Besides accumulating clauses, the builder records *provenance*: every
    gate encoding registers its clauses as the definition of the gate's
    output variable (``var_defs``), and top-level assertions are kept in
    ``root_clauses``.  That split is what makes :meth:`cone` possible --
    extracting just the clauses a query literal transitively depends on,
    so a verdict-only check never pays for the rest of a long-lived
    builder's variable space.
    """

    def __init__(self) -> None:
        self.cnf = Cnf()
        self._next_var = 1
        #: gate output variable -> indices of the clauses defining it.  A
        #: gate's clauses are contiguous, so its entry is a ``range``; a
        #: variable that anchors relational clauses holds a list instead.
        self.var_defs: Dict[int, Union[range, List[int]]] = {}
        #: indices of top-level (always-asserted) clauses.
        self.root_clauses: List[int] = []
        # A dedicated constant-true variable keeps gate encodings uniform.
        self.true_var = self.new_var()
        self.cnf.add_clause([self.true_var])
        self.root_clauses.append(0)

    # -- variables -----------------------------------------------------------

    def new_var(self) -> int:
        var = self._next_var
        self._next_var += 1
        self.cnf.num_vars = max(self.cnf.num_vars, var)
        return var

    def new_vars(self, count: int) -> List[int]:
        return [self.new_var() for _ in range(count)]

    def const(self, value: bool) -> int:
        return self.true_var if value else -self.true_var

    # -- clauses --------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        self.cnf.add_clause(list(literals))

    def add_anchored_clause(
        self, anchors: Sequence[int], literals: Iterable[int]
    ) -> None:
        """Add a relational clause reachable through any of ``anchors``.

        For constraints that are not biconditional gate definitions (the
        div/rem relation), the clause must enter a query's cone whenever
        one of the anchor variables does.
        """

        index = len(self.cnf.clauses)
        self.cnf.add_clause(list(literals))
        var_defs = self.var_defs
        for var in anchors:
            defs = var_defs.get(var)
            if isinstance(defs, list):
                defs.append(index)
            else:
                var_defs[var] = [*(defs or ()), index]

    def _define(self, var: int, start: int) -> None:
        self.var_defs[var] = range(start, len(self.cnf.clauses))

    # -- gate encodings --------------------------------------------------------

    def encode_and(self, inputs: Sequence[int]) -> int:
        """Return a literal equivalent to the conjunction of ``inputs``."""

        if not inputs:
            return self.const(True)
        if len(inputs) == 1:
            return inputs[0]
        out = self.new_var()
        start = len(self.cnf.clauses)
        for literal in inputs:
            self.add_clause([-out, literal])
        self.add_clause([out] + [-literal for literal in inputs])
        self._define(out, start)
        return out

    def encode_or(self, inputs: Sequence[int]) -> int:
        """Return a literal equivalent to the disjunction of ``inputs``."""

        if not inputs:
            return self.const(False)
        if len(inputs) == 1:
            return inputs[0]
        out = self.new_var()
        start = len(self.cnf.clauses)
        for literal in inputs:
            self.add_clause([out, -literal])
        self.add_clause([-out] + list(inputs))
        self._define(out, start)
        return out

    def encode_xor(self, left: int, right: int) -> int:
        """Return a literal equivalent to ``left xor right``."""

        out = self.new_var()
        start = len(self.cnf.clauses)
        self.add_clause([-out, left, right])
        self.add_clause([-out, -left, -right])
        self.add_clause([out, -left, right])
        self.add_clause([out, left, -right])
        self._define(out, start)
        return out

    def encode_iff(self, left: int, right: int) -> int:
        """Return a literal equivalent to ``left <-> right``."""

        return -self.encode_xor(left, right)

    def encode_ite(self, cond: int, then: int, orelse: int) -> int:
        """Return a literal equivalent to ``cond ? then : orelse``."""

        out = self.new_var()
        start = len(self.cnf.clauses)
        self.add_clause([-out, -cond, then])
        self.add_clause([-out, cond, orelse])
        self.add_clause([out, -cond, -then])
        self.add_clause([out, cond, -orelse])
        self._define(out, start)
        return out

    def encode_full_adder(self, a: int, b: int, carry_in: int) -> tuple[int, int]:
        """Return ``(sum, carry_out)`` literals for a full adder."""

        partial = self.encode_xor(a, b)
        total = self.encode_xor(partial, carry_in)
        carry_ab = self.encode_and([a, b])
        carry_pc = self.encode_and([partial, carry_in])
        carry_out = self.encode_or([carry_ab, carry_pc])
        return total, carry_out

    def assert_literal(self, literal: int) -> None:
        self.root_clauses.append(len(self.cnf.clauses))
        self.add_clause([literal])

    # -- cone extraction -------------------------------------------------------

    def cone(self, seed_vars: Iterable[int]) -> Tuple[List[int], Set[int]]:
        """The sub-CNF a query over ``seed_vars`` actually depends on.

        Returns ``(clause_indices, variables)``: every root (asserted)
        clause plus the transitive closure of gate definitions reachable
        from the seeds.  Every clause outside the cone is a biconditional
        definition of an unrelated gate, so any model of the cone extends
        to a model of the full CNF by evaluating the remaining gates
        bottom-up — SAT and UNSAT verdicts on the cone are verdicts on the
        full formula.  The clause list is sorted, so extraction is
        deterministic for a deterministic builder.
        """

        clauses = self.cnf.clauses
        var_defs = self.var_defs
        seen_clauses: Set[int] = set(self.root_clauses)
        seen_vars: Set[int] = set()
        stack: List[int] = []

        def visit(var: int) -> None:
            if var not in seen_vars:
                seen_vars.add(var)
                stack.append(var)

        for var in seed_vars:
            visit(var)
        for index in self.root_clauses:
            for literal in clauses[index]:
                visit(abs(literal))
        while stack:
            var = stack.pop()
            for index in var_defs.get(var, ()):
                if index not in seen_clauses:
                    seen_clauses.add(index)
                    for literal in clauses[index]:
                        visit(abs(literal))
        return sorted(seen_clauses), seen_vars
