"""Rewriting simplifier and constant folder for SMT terms.

The simplifier is a bottom-up single pass over the term DAG with
*persistent* memoisation: because terms are hash-consed
(:mod:`repro.smt.terms`), the input -> simplified mapping is a pure
function of the term object, so results are kept in a module-level cache
that survives across calls until :func:`~repro.smt.terms.clear_term_caches`
drops it with the intern table (the campaign engine does so at every
unit boundary).  Repeated sub-DAGs -- the common case across per-pass
snapshots of the same program -- simplify exactly once per program.  It
performs:

* full constant folding for every operator,
* identity/absorption rules (``x & 0 = 0``, ``x | 0 = x``, ``x ^ x = 0``...),
* if-then-else collapsing when the condition is a constant or both branches
  are identical,
* Boolean simplification (double negation, constant propagation in
  ``and``/``or``),
* structural equality short cuts for ``eq``, and
* **cross-pass canonicalisation**: rewrites that different compiler
  passes use interchangeably are normalised to one spelling, so the
  validator's syntactic fast path fires instead of the SAT solver.
  Concretely: ``ite(not c, a, b)`` becomes ``ite(c, b, a)`` (predication
  flips branch polarity), and the three spellings of "multiply by a
  power of two" — ``x * 2**k``, ``x << k`` and
  ``concat(extract(w-1-k, 0, x), 0_k)`` (strength reduction's slice
  form) — all normalise to the shift.

The simplifier must be *semantics preserving*; the hypothesis property tests
in ``tests/smt/test_simplify_properties.py`` check exactly that.
"""

from __future__ import annotations

from typing import Dict

from repro.smt import terms as t
from repro.smt.terms import Term


def _mask(width: int) -> int:
    return (1 << width) - 1


def _power_of_two(value: int) -> int | None:
    """The exponent k when ``value == 2**k`` (k >= 1), else None."""

    if value > 1 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


#: Memo cache: interned term -> interned simplified term.  Sound because
#: terms are immutable and unique within one intern-table generation, and
#: rewriting is pure.
_CACHE: Dict[Term, Term] = {}

#: Guard-propagation memo: (branch, cond, polarity) -> propagated branch.
#: Caching the *result* under its own key makes propagation a declared
#: fixpoint, which both bounds the cost of the re-rewrite after a branch
#: changes and guarantees the ite rule terminates.
_ASSUME_CACHE: Dict[tuple, Term] = {}


def simplify(term: Term) -> Term:
    """Return a simplified term equivalent to ``term``."""

    cache = _CACHE

    def walk(node: Term) -> Term:
        cached = cache.get(node)
        if cached is not None:
            return cached
        original = node
        if node.children:
            children = tuple(walk(child) for child in node.children)
            if children != node.children:
                node = Term(node.op, node.sort, children, node.payload)
            node = _rewrite(node)
        # Map both the original node and its normal form to the result so a
        # second occurrence of either is a single dict hit, and simplify is
        # idempotent by construction (cache[result] is result).
        cache[original] = node
        cache[node] = node
        return node

    return walk(term)


def clear_simplify_cache() -> None:
    """Drop the persistent memo cache (see ``clear_term_caches``)."""

    _CACHE.clear()
    _ASSUME_CACHE.clear()


def simplify_cache_size() -> int:
    """Number of memoised entries (for stats/benchmarks)."""

    return len(_CACHE)


def _all_const(node: Term) -> bool:
    return all(child.is_const() for child in node.children)


def _assume(branch: Term, facts: Dict[Term, Term]) -> Term:
    """Rewrite ``branch`` under known truth values for some Boolean terms.

    ``facts`` maps hash-consed Boolean terms to ``t.TRUE``/``t.FALSE``.
    Every occurrence is replaced and the surrounding structure re-rewritten
    bottom-up, which collapses guard-redundant reads like an inner
    ``ite(h.$valid, ...)`` sitting under an outer branch on ``h.$valid``.
    """

    memo: Dict[Term, Term] = {}

    def walk(node: Term) -> Term:
        hit = facts.get(node)
        if hit is not None:
            return hit
        if not node.children:
            return node
        cached = memo.get(node)
        if cached is not None:
            return cached
        children = tuple(walk(child) for child in node.children)
        if children == node.children:
            result = node
        else:
            result = _rewrite(Term(node.op, node.sort, children, node.payload))
        memo[node] = result
        return result

    return walk(branch)


def _propagate_guard(branch: Term, cond: Term, polarity: bool) -> Term:
    """Memoised :func:`_assume` for one branch of ``ite(cond, ...)``."""

    key = (branch, cond, polarity)
    cached = _ASSUME_CACHE.get(key)
    if cached is not None:
        return cached
    value = t.TRUE if polarity else t.FALSE
    facts: Dict[Term, Term] = {cond: value}
    # A conjunction that holds pins every conjunct; a disjunction that
    # fails pins every disjunct.  Negated literals pin their operand to
    # the opposite value.
    subs = ()
    if polarity and cond.op == "and":
        subs = cond.children
    elif not polarity and cond.op == "or":
        subs = cond.children
    for sub in subs:
        facts[sub] = value
        if sub.op == "not":
            facts[sub.children[0]] = t.FALSE if polarity else t.TRUE
    result = _assume(branch, facts)
    _ASSUME_CACHE[key] = result
    # Declare the result a fixpoint so the re-rewrite of the rebuilt ite
    # terminates immediately instead of re-walking the branch.
    _ASSUME_CACHE[(result, cond, polarity)] = result
    return result


def _rewrite(node: Term) -> Term:
    op = node.op
    children = node.children

    if op in _ARITH_FOLDERS and _all_const(node):
        return _ARITH_FOLDERS[op](node)

    if op == "bvadd":
        left, right = children
        if right.is_const() and right.value == 0:
            return left
        if left.is_const() and left.value == 0:
            return right
        return node
    if op == "bvsub":
        left, right = children
        if right.is_const() and right.value == 0:
            return left
        if left == right:
            return t.BitVecVal(0, node.width)
        return node
    if op == "bvmul":
        left, right = children
        for constant, other in ((left, right), (right, left)):
            if constant.is_const():
                if constant.value == 0:
                    return t.BitVecVal(0, node.width)
                if constant.value == 1:
                    return other
                shift = _power_of_two(constant.value)
                if shift is not None:
                    # Canonical power-of-two multiply: the shift spelling
                    # (strength reduction emits it, so pre-pass snapshots
                    # must normalise to it too).
                    return _rewrite(
                        Term(
                            "bvshl",
                            node.sort,
                            (other, t.BitVecVal(shift, node.width)),
                        )
                    )
        return node
    if op == "bvand":
        left, right = children
        if left == right:
            return left
        for constant, other in ((left, right), (right, left)):
            if constant.is_const():
                if constant.value == 0:
                    return t.BitVecVal(0, node.width)
                if constant.value == _mask(node.width):
                    return other
        return node
    if op == "bvor":
        left, right = children
        if left == right:
            return left
        for constant, other in ((left, right), (right, left)):
            if constant.is_const():
                if constant.value == 0:
                    return other
                if constant.value == _mask(node.width):
                    return t.BitVecVal(_mask(node.width), node.width)
        return node
    if op == "bvxor":
        left, right = children
        if left == right:
            return t.BitVecVal(0, node.width)
        for constant, other in ((left, right), (right, left)):
            if constant.is_const() and constant.value == 0:
                return other
        return node
    if op == "bvnot":
        (operand,) = children
        if operand.is_const():
            return t.BitVecVal(~operand.value, node.width)
        if operand.op == "bvnot":
            return operand.children[0]
        return node
    if op in ("bvshl", "bvlshr"):
        left, right = children
        if right.is_const():
            amount = right.value
            if amount == 0:
                return left
            if left.is_const():
                if amount >= node.width:
                    return t.BitVecVal(0, node.width)
                if op == "bvshl":
                    return t.BitVecVal(left.value << amount, node.width)
                return t.BitVecVal(left.value >> amount, node.width)
        if left.is_const() and left.value == 0:
            return t.BitVecVal(0, node.width)
        return node
    if op == "concat":
        if _all_const(node):
            value = 0
            for child in children:
                value = (value << child.width) | child.value
            return t.BitVecVal(value, node.width)
        if len(children) == 2:
            head, tail = children
            if (
                tail.is_const()
                and tail.value == 0
                and head.op == "extract"
                and head.payload is not None
                and head.payload[1] == 0
                and head.children[0].width == node.width
                and head.payload[0] == node.width - tail.width - 1
            ):
                # concat(extract(w-1-k, 0, x), 0_k) is "x << k" in slice
                # spelling; normalise to the shift so it meets the
                # strength-reduced form syntactically.
                return _rewrite(
                    Term(
                        "bvshl",
                        node.sort,
                        (
                            head.children[0],
                            t.BitVecVal(tail.width, node.width),
                        ),
                    )
                )
        return node
    if op == "extract":
        high, low = node.payload  # type: ignore[misc]
        (operand,) = children
        if operand.is_const():
            return t.BitVecVal(operand.value >> low, node.width)
        if low == 0 and high == operand.width - 1:
            return operand
        return node
    if op == "zero_ext":
        (operand,) = children
        if operand.is_const():
            return t.BitVecVal(operand.value, node.width)
        return node
    if op == "eq":
        left, right = children
        if left == right:
            return t.TRUE
        if left.is_const() and right.is_const():
            return t.BoolVal(left.value == right.value)
        return node
    if op == "bvult":
        left, right = children
        if left == right:
            return t.FALSE
        if left.is_const() and right.is_const():
            return t.BoolVal(left.value < right.value)
        if right.is_const() and right.value == 0:
            return t.FALSE
        return node
    if op == "bvule":
        left, right = children
        if left == right:
            return t.TRUE
        if left.is_const() and right.is_const():
            return t.BoolVal(left.value <= right.value)
        if left.is_const() and left.value == 0:
            return t.TRUE
        return node
    if op == "and":
        kept: list[Term] = []
        for child in children:
            if child.is_const():
                if not child.value:
                    return t.FALSE
                continue
            # Flatten nested conjunctions so the two associations a pass
            # rewrite can produce -- and(and(a, b), c) vs and(a, and(b, c))
            # -- meet in one n-ary spelling.
            grand = child.children if child.op == "and" else (child,)
            for sub in grand:
                if sub not in kept:
                    kept.append(sub)
        if not kept:
            return t.TRUE
        if len(kept) == 1:
            return kept[0]
        return Term("and", node.sort, tuple(kept))
    if op == "or":
        kept = []
        for child in children:
            if child.is_const():
                if child.value:
                    return t.TRUE
                continue
            grand = child.children if child.op == "or" else (child,)
            for sub in grand:
                if sub not in kept:
                    kept.append(sub)
        if not kept:
            return t.FALSE
        if len(kept) == 1:
            return kept[0]
        return Term("or", node.sort, tuple(kept))
    if op == "not":
        (operand,) = children
        if operand.is_const():
            return t.BoolVal(not operand.value)
        if operand.op == "not":
            return operand.children[0]
        return node
    if op == "ite":
        cond, then, orelse = children
        if cond.is_const():
            return then if cond.value else orelse
        if then == orelse:
            return then
        if cond.op == "not":
            # Canonical branch polarity: predication spells "if (!c)" as a
            # negated guard where the pre-pass snapshot swapped the arms.
            return _rewrite(
                Term("ite", node.sort, (cond.children[0], orelse, then))
            )
        # Contextual guard propagation: inside the then arm the condition
        # is known true (and inside the else arm known false), so any
        # occurrence of it -- e.g. a field read's own validity guard under
        # an outer validity branch -- collapses.  This is the rewrite that
        # makes interpreter snapshots from before and after predication
        # meet syntactically instead of going to the SAT solver.
        then_p = _propagate_guard(then, cond, True)
        orelse_p = _propagate_guard(orelse, cond, False)
        if then_p is not then or orelse_p is not orelse:
            return _rewrite(Term("ite", node.sort, (cond, then_p, orelse_p)))
        # Common-guard hoisting: when both arms branch on the same inner
        # condition and agree on one arm, the inner guard moves out --
        # ``ite(c, ite(v, a, x), ite(v, b, x))`` is ``ite(v, ite(c, a, b), x)``.
        # Predication hoists the header-validity guard of every assignment
        # this way, so pre- and post-pass snapshots only meet syntactically
        # once the validator's side does the same.
        if (
            then.op == "ite"
            and orelse.op == "ite"
            and then.children[0] == orelse.children[0]
        ):
            inner = then.children[0]
            if then.children[2] == orelse.children[2]:
                return _rewrite(
                    Term(
                        "ite",
                        node.sort,
                        (
                            inner,
                            _rewrite(
                                Term(
                                    "ite",
                                    node.sort,
                                    (cond, then.children[1], orelse.children[1]),
                                )
                            ),
                            then.children[2],
                        ),
                    )
                )
            if then.children[1] == orelse.children[1]:
                return _rewrite(
                    Term(
                        "ite",
                        node.sort,
                        (
                            inner,
                            then.children[1],
                            _rewrite(
                                Term(
                                    "ite",
                                    node.sort,
                                    (cond, then.children[2], orelse.children[2]),
                                )
                            ),
                        ),
                    )
                )
        # Guard fusion: a nested branch whose else arm rejoins the outer
        # else arm is one branch under a conjunction -- exactly the shape
        # predication flattens ``if (c1) { if (c2) ... }`` into.  The dual
        # absorbs a rejoining then arm into a disjunction.
        if then.op == "ite" and then.children[2] == orelse:
            return _rewrite(
                Term(
                    "ite",
                    node.sort,
                    (
                        _rewrite(t.And(cond, then.children[0])),
                        then.children[1],
                        orelse,
                    ),
                )
            )
        if orelse.op == "ite" and orelse.children[1] == then:
            return _rewrite(
                Term(
                    "ite",
                    node.sort,
                    (
                        _rewrite(t.Or(cond, orelse.children[0])),
                        then,
                        orelse.children[2],
                    ),
                )
            )
        if node.sort.is_bool():
            # Normalise Boolean selections to and/or so they can flatten
            # into the conjunction chains predicated code produces.
            if then is t.TRUE:
                return _rewrite(t.Or(cond, orelse))
            if then is t.FALSE:
                return _rewrite(t.And(t.Not(cond), orelse))
            if orelse is t.TRUE:
                return _rewrite(t.Or(t.Not(cond), then))
            if orelse is t.FALSE:
                return _rewrite(t.And(cond, then))
        return node
    return node


def _fold_udiv(node: Term) -> Term:
    left, right = node.children
    if right.value == 0:
        return t.BitVecVal(_mask(node.width), node.width)
    return t.BitVecVal(left.value // right.value, node.width)


def _fold_urem(node: Term) -> Term:
    left, right = node.children
    if right.value == 0:
        return t.BitVecVal(left.value, node.width)
    return t.BitVecVal(left.value % right.value, node.width)


_ARITH_FOLDERS = {
    "bvadd": lambda n: t.BitVecVal(n.children[0].value + n.children[1].value, n.width),
    "bvsub": lambda n: t.BitVecVal(n.children[0].value - n.children[1].value, n.width),
    "bvmul": lambda n: t.BitVecVal(n.children[0].value * n.children[1].value, n.width),
    "bvudiv": _fold_udiv,
    "bvurem": _fold_urem,
    "bvand": lambda n: t.BitVecVal(n.children[0].value & n.children[1].value, n.width),
    "bvor": lambda n: t.BitVecVal(n.children[0].value | n.children[1].value, n.width),
    "bvxor": lambda n: t.BitVecVal(n.children[0].value ^ n.children[1].value, n.width),
}
