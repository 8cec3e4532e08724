"""Unit tests for the CDCL SAT solver."""

import random

import pytest

from repro.smt.sat import SatSolver, solve_cnf


def check_model(clauses, assignment):
    for clause in clauses:
        satisfied = any(
            (literal > 0) == assignment.get(abs(literal), False) for literal in clause
        )
        if not satisfied:
            return False
    return True


def satisfiable(num_vars, clauses):
    """Brute force: does any assignment of ``num_vars`` variables satisfy ``clauses``?"""

    for mask in range(1 << num_vars):
        assignment = {v: bool((mask >> (v - 1)) & 1) for v in range(1, num_vars + 1)}
        if check_model(clauses, assignment):
            return True
    return False


class TestBasicCases:
    def test_empty_formula_is_sat(self):
        assert solve_cnf(0, []).satisfiable

    def test_single_unit_clause(self):
        result = solve_cnf(1, [[1]])
        assert result.satisfiable
        assert result.assignment[1] is True

    def test_contradictory_units(self):
        assert not solve_cnf(1, [[1], [-1]]).satisfiable

    def test_empty_clause_is_unsat(self):
        assert not solve_cnf(1, [[1], []]).satisfiable

    def test_simple_implication_chain(self):
        # (x1) and (x1 -> x2) and (x2 -> x3)
        clauses = [[1], [-1, 2], [-2, 3]]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        assert result.assignment[3] is True

    def test_requires_backtracking(self):
        # Forces at least one decision to be revised.
        clauses = [[1, 2], [-1, 3], [-2, -3], [-1, -2], [1, -3]]
        result = solve_cnf(3, clauses)
        assert result.satisfiable
        assert check_model(clauses, result.assignment)

    def test_unsat_pigeonhole_2_into_1(self):
        # Two pigeons, one hole.
        clauses = [[1], [2], [-1, -2]]
        assert not solve_cnf(2, clauses).satisfiable

    def test_tautological_clause_ignored(self):
        result = solve_cnf(2, [[1, -1], [2]])
        assert result.satisfiable
        assert result.assignment[2] is True


class TestPigeonhole:
    def _pigeonhole(self, pigeons, holes):
        # var(p, h) = p * holes + h + 1
        def var(p, h):
            return p * holes + h + 1

        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return pigeons * holes, clauses

    def test_php_3_into_3_sat(self):
        num_vars, clauses = self._pigeonhole(3, 3)
        result = solve_cnf(num_vars, clauses)
        assert result.satisfiable
        assert check_model(clauses, result.assignment)

    def test_php_4_into_3_unsat(self):
        num_vars, clauses = self._pigeonhole(4, 3)
        assert not solve_cnf(num_vars, clauses).satisfiable

    def test_php_5_into_4_unsat(self):
        num_vars, clauses = self._pigeonhole(5, 4)
        assert not solve_cnf(num_vars, clauses).satisfiable


class TestRandom3Sat:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_agree_with_bruteforce(self, seed):
        rng = random.Random(seed)
        num_vars = 8
        num_clauses = 30
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])

        expected = satisfiable(num_vars, clauses)
        result = solve_cnf(num_vars, clauses)
        assert result.satisfiable == expected
        if result.satisfiable:
            assert check_model(clauses, result.assignment)


class TestSolverReuse:
    def test_solver_object_usable_directly(self):
        solver = SatSolver(2, [[1, 2], [-1, 2]])
        result = solver.solve()
        assert result.satisfiable
        assert result.assignment[2] is True


def _random_literals(rng, num_vars, count):
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), count)]


class TestFailedAssumptionCore:
    """On UNSAT under assumptions, ``core`` names the assumptions used."""

    @pytest.mark.parametrize("seed", range(40))
    def test_core_is_an_unsat_subset_of_the_assumptions(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 10)
        clauses = [
            _random_literals(rng, num_vars, rng.randint(2, 3))
            for _ in range(rng.randint(num_vars, 3 * num_vars))
        ]
        # One incremental solver answers every query, so learned clauses
        # and level-0 facts of earlier queries shape the later cores.
        solver = SatSolver(num_vars, clauses)
        for _ in range(12):
            assumptions = _random_literals(rng, num_vars, rng.randint(0, num_vars))
            result = solver.solve(assumptions)
            units = [[literal] for literal in assumptions]
            assert result.satisfiable == satisfiable(num_vars, clauses + units)
            if result.satisfiable:
                assert check_model(clauses + units, result.assignment)
                assert result.core == []
                continue
            assert set(result.core) <= set(assumptions)
            core_units = [[literal] for literal in result.core]
            assert not satisfiable(num_vars, clauses + core_units)

    @pytest.mark.parametrize("seed", range(20))
    def test_refuted_clauses_give_an_empty_core(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(3, 10)
        clauses = []
        while satisfiable(num_vars, clauses):
            clauses.append(_random_literals(rng, num_vars, rng.randint(1, 3)))
        solver = SatSolver(num_vars, clauses)
        assert solver.solve([]).core == []
        for _ in range(5):
            assumptions = _random_literals(rng, num_vars, rng.randint(1, num_vars))
            result = solver.solve(assumptions)
            assert not result.satisfiable
            assert result.core == []

    def test_level_zero_conflict_gives_an_empty_core(self):
        result = SatSolver(3, [[1], [-1, 2], [-2]]).solve([3])
        assert not result.satisfiable
        assert result.core == []

    def test_core_names_only_the_clashing_assumption(self):
        # x1 -> x2 and x2 -> not x3: assuming x1 and x3 clashes; x4 is idle.
        result = SatSolver(4, [[-1, 2], [-2, -3]]).solve([4, 1, 3])
        assert not result.satisfiable
        assert sorted(result.core) == [1, 3]
