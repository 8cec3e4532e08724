"""Immutable term language for fixed-width bit vectors and Booleans.

Terms form a DAG: every node is an immutable :class:`Term` with an operator
name, a sort, children and (for leaves) a payload.  Construction goes through
small factory functions (``Add``, ``Eq``, ``Ite``...) which validate sorts and
perform *light* canonicalisation (constant folding is left to
:mod:`repro.smt.simplify`).

Two sorts exist:

* ``BoolSort()`` -- the Booleans.
* ``BitVecSort(width)`` -- unsigned bit vectors of a fixed ``width``.

The design intentionally mirrors the z3py subset Gauntlet relies on so the
symbolic interpreter reads like the original tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sort:
    """Base class for term sorts."""

    def is_bool(self) -> bool:
        return isinstance(self, _BoolSort)

    def is_bv(self) -> bool:
        return isinstance(self, _BitVecSort)


@dataclass(frozen=True)
class _BoolSort(Sort):
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "Bool"


@dataclass(frozen=True)
class _BitVecSort(Sort):
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"bit-vector width must be positive, got {self.width}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BitVec({self.width})"


_BOOL_SORT = _BoolSort()
_BV_SORT_CACHE: dict[int, _BitVecSort] = {}


def BoolSort() -> _BoolSort:
    """Return the Boolean sort."""

    return _BOOL_SORT


def BitVecSort(width: int) -> _BitVecSort:
    """Return the bit-vector sort of ``width`` bits (cached)."""

    sort = _BV_SORT_CACHE.get(width)
    if sort is None:
        sort = _BitVecSort(width)
        _BV_SORT_CACHE[width] = sort
    return sort


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """A node in the term DAG.

    Terms are immutable, hashable and *hash-consed*: constructing a term
    that is structurally equal to an existing one returns the existing
    object, so structural equality coincides with pointer identity.  Every
    memo table downstream (the simplifier, the bit-blaster, solver caches)
    can therefore key on the term object itself and rely on ``is`` hits.
    """

    __slots__ = ("op", "sort", "children", "payload", "_hash")

    #: The global hash-cons table: (op, sort, children, payload) -> Term.
    _intern_table: dict = {}

    def __new__(
        cls,
        op: str,
        sort: Sort,
        children: Tuple["Term", ...] = (),
        payload: Optional[object] = None,
    ) -> "Term":
        key = (op, sort, children, payload)
        term = cls._intern_table.get(key)
        if term is None:
            term = super().__new__(cls)
            term.op = op
            term.sort = sort
            term.children = children
            term.payload = payload
            term._hash = hash(key)
            cls._intern_table[key] = term
        return term

    def __init__(self, *args: object, **kwargs: object) -> None:
        # All construction happens in __new__ (interned instances must not
        # be re-initialised when the table returns an existing object).
        pass

    # -- dunder plumbing ---------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Interning makes identity the common case; the structural fallback
        # only matters for hash-bucket collisions inside dict lookups.
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.sort == other.sort
            and self.payload == other.payload
            and self.children == other.children
        )

    def __copy__(self) -> "Term":
        return self

    def __deepcopy__(self, memo: dict) -> "Term":
        return self

    def __reduce__(self):
        # Re-intern on unpickle so identity-based equality keeps holding.
        return (Term, (self.op, self.sort, self.children, self.payload))

    def __repr__(self) -> str:
        return self.to_sexpr()

    # -- convenience accessors ----------------------------------------------

    @property
    def width(self) -> int:
        """Width of a bit-vector term (raises for Booleans)."""

        if not isinstance(self.sort, _BitVecSort):
            raise TypeError(f"term {self.op} is not a bit vector")
        return self.sort.width

    def is_const(self) -> bool:
        """True when the term is a literal constant (bit vector or Boolean)."""

        return self.op in ("bvconst", "boolconst")

    def is_symbol(self) -> bool:
        """True when the term is a free variable."""

        return self.op in ("bvsym", "boolsym")

    @property
    def value(self) -> int:
        """Constant value of a literal term."""

        if not self.is_const():
            raise TypeError(f"term {self.op} is not a constant")
        return self.payload  # type: ignore[return-value]

    @property
    def name(self) -> str:
        """Name of a symbol term."""

        if not self.is_symbol():
            raise TypeError(f"term {self.op} is not a symbol")
        return self.payload  # type: ignore[return-value]

    def symbols(self) -> set["Term"]:
        """Return the set of free symbols appearing in the term."""

        seen: set[int] = set()
        out: set[Term] = set()
        stack = [self]
        while stack:
            term = stack.pop()
            if id(term) in seen:
                continue
            seen.add(id(term))
            if term.is_symbol():
                out.add(term)
            stack.extend(term.children)
        return out

    def to_sexpr(self) -> str:
        """Render the term as an s-expression (for debugging and reports)."""

        if self.op == "bvconst":
            return f"#x{self.payload:0{(self.width + 3) // 4}x}"
        if self.op == "boolconst":
            return "true" if self.payload else "false"
        if self.is_symbol():
            return str(self.payload)
        if self.op == "extract":
            high, low = self.payload  # type: ignore[misc]
            return f"((_ extract {high} {low}) {self.children[0].to_sexpr()})"
        if self.op == "zero_ext":
            return f"((_ zero_extend {self.payload}) {self.children[0].to_sexpr()})"
        parts = " ".join(child.to_sexpr() for child in self.children)
        return f"({self.op} {parts})"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def _mask(width: int) -> int:
    return (1 << width) - 1


def BitVecVal(value: int, width: int) -> Term:
    """A bit-vector literal of ``width`` bits (value is reduced modulo 2^width)."""

    return Term("bvconst", BitVecSort(width), payload=value & _mask(width))


def BitVecSym(name: str, width: int) -> Term:
    """A free bit-vector variable."""

    return Term("bvsym", BitVecSort(width), payload=name)


def BoolVal(value: bool) -> Term:
    """A Boolean literal."""

    return Term("boolconst", BoolSort(), payload=bool(value))


def BoolSym(name: str) -> Term:
    """A free Boolean variable."""

    return Term("boolsym", BoolSort(), payload=name)


TRUE = BoolVal(True)
FALSE = BoolVal(False)


def _require_bv(term: Term, context: str) -> None:
    if not term.sort.is_bv():
        raise TypeError(f"{context}: expected bit-vector operand, got {term.sort!r}")


def _require_bool(term: Term, context: str) -> None:
    if not term.sort.is_bool():
        raise TypeError(f"{context}: expected Boolean operand, got {term.sort!r}")


def _require_same_width(left: Term, right: Term, context: str) -> None:
    _require_bv(left, context)
    _require_bv(right, context)
    if left.width != right.width:
        raise TypeError(
            f"{context}: width mismatch {left.width} vs {right.width}"
        )


def _binary_bv(op: str, left: Term, right: Term) -> Term:
    _require_same_width(left, right, op)
    return Term(op, left.sort, (left, right))


def Add(left: Term, right: Term) -> Term:
    """Modular addition."""

    return _binary_bv("bvadd", left, right)


def Sub(left: Term, right: Term) -> Term:
    """Modular subtraction."""

    return _binary_bv("bvsub", left, right)


def Mul(left: Term, right: Term) -> Term:
    """Modular multiplication."""

    return _binary_bv("bvmul", left, right)


def UDiv(left: Term, right: Term) -> Term:
    """Unsigned division; division by zero yields the all-ones vector."""

    return _binary_bv("bvudiv", left, right)


def URem(left: Term, right: Term) -> Term:
    """Unsigned remainder; remainder by zero yields the dividend."""

    return _binary_bv("bvurem", left, right)


def BvAnd(left: Term, right: Term) -> Term:
    """Bitwise and."""

    return _binary_bv("bvand", left, right)


def BvOr(left: Term, right: Term) -> Term:
    """Bitwise or."""

    return _binary_bv("bvor", left, right)


def BvXor(left: Term, right: Term) -> Term:
    """Bitwise xor."""

    return _binary_bv("bvxor", left, right)


def BvNot(operand: Term) -> Term:
    """Bitwise complement."""

    _require_bv(operand, "bvnot")
    return Term("bvnot", operand.sort, (operand,))


def Shl(left: Term, right: Term) -> Term:
    """Logical shift left (shift amount is an unsigned bit vector)."""

    return _binary_bv("bvshl", left, right)


def LShr(left: Term, right: Term) -> Term:
    """Logical shift right."""

    return _binary_bv("bvlshr", left, right)


def Concat(*operands: Term) -> Term:
    """Concatenate bit vectors, first operand becomes the most significant bits."""

    if len(operands) < 2:
        raise ValueError("concat needs at least two operands")
    for operand in operands:
        _require_bv(operand, "concat")
    total = sum(operand.width for operand in operands)
    return Term("concat", BitVecSort(total), tuple(operands))


def Extract(high: int, low: int, operand: Term) -> Term:
    """Extract bits ``high`` down to ``low`` (both inclusive)."""

    _require_bv(operand, "extract")
    if not (0 <= low <= high < operand.width):
        raise ValueError(
            f"extract bounds [{high}:{low}] invalid for width {operand.width}"
        )
    return Term("extract", BitVecSort(high - low + 1), (operand,), payload=(high, low))


def ZeroExt(extra: int, operand: Term) -> Term:
    """Zero-extend a bit vector by ``extra`` bits."""

    _require_bv(operand, "zero_ext")
    if extra < 0:
        raise ValueError("zero_ext amount must be non-negative")
    if extra == 0:
        return operand
    return Term("zero_ext", BitVecSort(operand.width + extra), (operand,), payload=extra)


def Eq(left: Term, right: Term) -> Term:
    """Equality over bit vectors or Booleans."""

    if left.sort != right.sort:
        raise TypeError(f"eq: sort mismatch {left.sort!r} vs {right.sort!r}")
    return Term("eq", BoolSort(), (left, right))


def Ne(left: Term, right: Term) -> Term:
    """Disequality."""

    return Not(Eq(left, right))


def _comparison(op: str, left: Term, right: Term) -> Term:
    _require_same_width(left, right, op)
    return Term(op, BoolSort(), (left, right))


def Ult(left: Term, right: Term) -> Term:
    """Unsigned less-than."""

    return _comparison("bvult", left, right)


def Ule(left: Term, right: Term) -> Term:
    """Unsigned less-or-equal."""

    return _comparison("bvule", left, right)


def Ugt(left: Term, right: Term) -> Term:
    """Unsigned greater-than."""

    return _comparison("bvult", right, left)


def Uge(left: Term, right: Term) -> Term:
    """Unsigned greater-or-equal."""

    return _comparison("bvule", right, left)


def _flatten(op: str, operands: Iterable[Term]) -> Tuple[Term, ...]:
    out: list[Term] = []
    for operand in operands:
        if operand.op == op:
            out.extend(operand.children)
        else:
            out.append(operand)
    return tuple(out)


def And(*operands: Term) -> Term:
    """Boolean conjunction (n-ary, flattened)."""

    if not operands:
        return TRUE
    for operand in operands:
        _require_bool(operand, "and")
    flat = _flatten("and", operands)
    if len(flat) == 1:
        return flat[0]
    return Term("and", BoolSort(), flat)


def Or(*operands: Term) -> Term:
    """Boolean disjunction (n-ary, flattened)."""

    if not operands:
        return FALSE
    for operand in operands:
        _require_bool(operand, "or")
    flat = _flatten("or", operands)
    if len(flat) == 1:
        return flat[0]
    return Term("or", BoolSort(), flat)


def Not(operand: Term) -> Term:
    """Boolean negation."""

    _require_bool(operand, "not")
    if operand.op == "not":
        return operand.children[0]
    return Term("not", BoolSort(), (operand,))


def Implies(antecedent: Term, consequent: Term) -> Term:
    """Boolean implication."""

    return Or(Not(antecedent), consequent)


def Ite(cond: Term, then: Term, orelse: Term) -> Term:
    """If-then-else over bit vectors or Booleans."""

    _require_bool(cond, "ite")
    if then.sort != orelse.sort:
        raise TypeError(
            f"ite: branch sort mismatch {then.sort!r} vs {orelse.sort!r}"
        )
    return Term("ite", then.sort, (cond, then, orelse))


BoolOrInt = Union[bool, int]


# ---------------------------------------------------------------------------
# Hash-cons table maintenance
# ---------------------------------------------------------------------------


def intern_table_size() -> int:
    """Number of distinct terms currently interned (for stats/benchmarks)."""

    return len(Term._intern_table)


def clear_term_caches() -> None:
    """Drop the hash-cons table and every memo keyed by terms.

    The campaign engine calls this at the start of every work unit, so a
    worker's term state is bounded by one program and a unit's result
    never depends on the units its process ran before.  Structural
    ``__eq__``/``__hash__`` stay correct for terms that survive a clear,
    but the ``is``-identity fast paths only apply among terms constructed
    under the same table generation, so the memos keyed by terms (the
    simplifier's in :mod:`repro.smt.simplify`, the equivalence verdicts
    in :mod:`repro.smt.solver`) are cleared with it.
    """

    # The package re-exports the ``simplify`` *function*, shadowing the
    # module attribute, so import the helper from the module path directly.
    from repro.smt.simplify import clear_simplify_cache
    from repro.smt.solver import _EQUIV_CACHE

    Term._intern_table.clear()
    clear_simplify_cache()
    _EQUIV_CACHE.clear()
    # Re-intern the module-level singletons so they stay canonical.
    Term._intern_table[("boolconst", _BOOL_SORT, (), True)] = TRUE
    Term._intern_table[("boolconst", _BOOL_SORT, (), False)] = FALSE
