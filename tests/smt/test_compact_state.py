"""The SAT/CNF state keeps one copy of each clause and packs its models.

* :meth:`SatSolver.add_clauses` owns the lists it is given: no copy, and a
  rebuild only for a clause with a duplicate literal;
* :class:`Solver` hands the builder's clause lists to its SAT solver;
* a :class:`Model` keeps its SAT assignment packed, one byte per variable;
* :class:`CnfBuilder` records a gate's defining clauses as a ``range``.
"""

import copy
import random

import pytest

from repro import smt
from repro.smt import CheckResult, Solver
from repro.smt.cnf import CnfBuilder
from repro.smt.sat import SatSolver


X = smt.BitVecSym("x", 8)
Y = smt.BitVecSym("y", 8)


def check_model(clauses, assignment):
    return all(
        any((literal > 0) == assignment.get(abs(literal), False) for literal in clause)
        for clause in clauses
    )


def satisfiable(num_vars, clauses):
    """Brute force over every assignment of ``num_vars`` variables."""

    return any(
        check_model(clauses, {v: bool((mask >> (v - 1)) & 1) for v in range(1, num_vars + 1)})
        for mask in range(1 << num_vars)
    )


def _copied_input(clause):
    """A deduplicated copy of ``clause``, or None for a tautology."""

    seen = set()
    out = []
    for literal in clause:
        if -literal in seen:
            return None
        if literal not in seen:
            seen.add(literal)
            out.append(literal)
    return out


def _random_clause(rng, num_vars):
    """Mostly plain clauses, with duplicate literals and tautologies mixed in."""

    clause = [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
    ]
    roll = rng.random()
    if roll < 0.15:
        clause.insert(rng.randrange(len(clause) + 1), rng.choice(clause))
    elif roll < 0.25:
        clause.insert(rng.randrange(len(clause) + 1), -rng.choice(clause))
    return clause


class TestClauseOwnership:
    @pytest.mark.parametrize("seed", range(30))
    def test_owned_lists_search_like_copies(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 9)
        owner = SatSolver()
        reference = SatSolver()
        given = []
        for _ in range(3):
            batch = [_random_clause(rng, num_vars) for _ in range(rng.randint(2, 2 * num_vars))]
            given.extend(batch)
            copies = [_copied_input(clause) for clause in batch]
            reference.add_clauses([clause for clause in copies if clause is not None])
            owner.add_clauses(batch)
            for _ in range(4):
                assumptions = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                ]
                got = owner.solve(assumptions)
                want = reference.solve(assumptions)
                assert (got.satisfiable, got.phases, got.core, got.complete) == (
                    want.satisfiable,
                    want.phases,
                    want.core,
                    want.complete,
                )
                assert owner.last_conflicts == reference.last_conflicts
                units = [[literal] for literal in assumptions]
                assert got.satisfiable == satisfiable(num_vars, given + units)
                if got.satisfiable:
                    assert check_model(given + units, got.assignment)
                else:
                    core_units = [[literal] for literal in got.core]
                    assert not satisfiable(num_vars, given + core_units)

    def test_clauses_are_kept_without_a_copy(self):
        plain = [1, 2, 3]
        duplicated = [-1, 2, -1]
        solver = SatSolver()
        solver.add_clauses([plain, duplicated, [3, -3]])
        kept = [clause.literals for clause in solver.clauses]
        assert kept[0] is plain
        assert kept[1] is not duplicated and kept[1] == [-1, 2]
        assert len(kept) == 2  # the tautology is dropped

    def test_solver_feeds_the_builders_clause_lists(self, monkeypatch):
        fed = []
        add_clauses = SatSolver.add_clauses

        def spy(self, clauses):
            fed.extend(clauses)
            add_clauses(self, clauses)

        monkeypatch.setattr(SatSolver, "add_clauses", spy)
        solver = Solver()
        solver.add(smt.Ult(smt.Add(X, Y), smt.BitVecVal(9, 8)))
        assert solver.check() == CheckResult.SAT
        solver.add(smt.Ne(X, smt.BitVecVal(0, 8)))
        assert solver.check(smt.Ugt(Y, smt.BitVecVal(2, 8))) == CheckResult.SAT
        clauses = solver._blaster.builder.cnf.clauses
        assert len(fed) == len(clauses)
        assert all(given is clause for given, clause in zip(fed, clauses))


class TestPackedModels:
    def test_packed_assignment_restores_the_dict_phases(self, monkeypatch):
        # The dict form is what the SAT solver's assignment held at the end
        # of the solve that found the model.
        dicts = []
        solve = SatSolver.solve

        def spy(self, *args, **kwargs):
            result = solve(self, *args, **kwargs)
            if result.satisfiable:
                dicts.append(
                    {var: bool(value) for var, value in enumerate(self.assignment) if var}
                )
            return result

        monkeypatch.setattr(SatSolver, "solve", spy)
        solver = Solver()
        solver.add(smt.Ult(X, smt.BitVecVal(100, 8)), smt.Ugt(Y, X))
        assert solver.check() == CheckResult.SAT
        first = solver.model()
        assert isinstance(first.assignment, bytes)
        assert {var: bool(v) for var, v in enumerate(first.assignment) if var} == dicts[0]
        assert solver.check(smt.Ne(X, smt.BitVecVal(first["x"], 8))) == CheckResult.SAT

        sat = solver._sat
        twin = copy.deepcopy(sat)
        solver.restore_phases(first)
        twin._backtrack(0)
        for var, value in dicts[0].items():
            twin.phase[var] = value
        assert sat.phase == twin.phase

    def test_model_values_read_from_the_packed_vector(self):
        solver = Solver()
        solver.add(smt.Eq(smt.Add(X, Y), smt.BitVecVal(7, 8)), smt.Eq(X, smt.BitVecVal(3, 8)))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert (model["x"], model["y"]) == (3, 4)
        bits = solver._blaster.symbol_bits()["x"]
        assert [model.assignment[var] for var in bits] == [1, 1, 0, 0, 0, 0, 0, 0]


class TestRangeDefinitions:
    def _reference_cone(self, builder, seeds):
        """Cone closure over list-valued definitions (the pre-range form)."""

        clauses = builder.cnf.clauses
        definitions = {var: list(defs) for var, defs in builder.var_defs.items()}
        chosen = set(builder.root_clauses)
        seen = set()
        stack = list(seeds) + [abs(lit) for i in builder.root_clauses for lit in clauses[i]]
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            for index in definitions.get(var, ()):
                chosen.add(index)
                stack.extend(abs(lit) for lit in clauses[index])
        return sorted(chosen), seen

    def test_cone_matches_the_list_form(self):
        builder = CnfBuilder()
        a, b, c, d, e = builder.new_vars(5)
        gate_and = builder.encode_and([a, b])
        gate_xor = builder.encode_xor(gate_and, c)
        gate_ite = builder.encode_ite(d, gate_xor, e)
        unrelated = builder.encode_or([d, e])
        # A relational clause anchored on a gate variable and a plain one.
        builder.add_anchored_clause([gate_and, e], [gate_and, -e, c])
        builder.add_anchored_clause([gate_and], [-gate_and, d])
        builder.assert_literal(gate_ite)

        assert isinstance(builder.var_defs[gate_xor], range)
        assert isinstance(builder.var_defs[unrelated], range)
        and_defs = builder.var_defs[gate_and]
        assert isinstance(and_defs, list) and len(and_defs) == 5
        assert and_defs[:3] == [1, 2, 3]  # the gate's own clauses come first

        for seeds in ([gate_and], [gate_xor], [unrelated], [e], [gate_ite, unrelated], []):
            assert builder.cone(seeds) == self._reference_cone(builder, seeds)
