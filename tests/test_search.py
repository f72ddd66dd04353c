"""Tests for the constraint-propagating sequence search."""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass.arith import PrimeField
from maxclass.exceptional import ExceptionalParams, closed_form_betas
from maxclass.search import SEARCH_MAX_LEVELS, SearchReport, search_sequences
from maxclass.sequences import (
    BetaSequence,
    bracket_coeff,
    constituents,
    jacobi_verify,
)

F3 = PrimeField(3)

# Every admissible prefix over F_3 with n = 2 up to depth 12, first nonzero
# scaled to 1.  Frozen from a run that was cross-checked against the
# exhaustive oracle below at depth 8.
P3_N2_D12 = [
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 2),
    (0, 0, 0, 0, 0, 0, 1, 1, 0, 0),
    (0, 0, 1, 2, 0, 1, 2, 0, 0, 0),
    (0, 0, 1, 2, 0, 1, 2, 0, 1, 2),
    (0, 0, 1, 2, 0, 1, 2, 0, 2, 1),
    (1, 1, 0, 2, 1, 0, 2, 1, 0, 2),
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 1, 2, 0, 1, 2, 0, 1, 2, 0),
]


def brute_force_solutions(field, n, depth):
    """Filter all tuples through the full bracket constraint set.

    Only usable for tiny depths; exists to certify the incremental search.
    """
    p = field.p
    out = []
    for tail in itertools.product(range(p), repeat=depth - n):
        seq = BetaSequence(field, n, tail)
        good = True
        for s in range(2 * n, depth + n + 1):
            for a in range(n, s // 2 + 1):
                g = bracket_coeff(seq, a, s - a)
                h = bracket_coeff(seq, s - a, a)
                if g is None or h is None:
                    good = False
                    break
                if (g + h) % p != 0:
                    good = False
                    break
            if not good:
                break
        if not good:
            continue
        for a in range(n, depth):
            for b in range(a, depth):
                for c in range(b, depth):
                    if a + b + c > depth + n:
                        break
                    gbc = bracket_coeff(seq, b, c)
                    gab = bracket_coeff(seq, a, b)
                    gac = bracket_coeff(seq, a, c)
                    v = (
                        gbc * bracket_coeff(seq, a, b + c)
                        - gab * bracket_coeff(seq, a + b, c)
                        + gac * bracket_coeff(seq, a + c, b)
                    )
                    if v % p != 0:
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            out.append(tail)
    return sorted(out)


class TestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            search_sequences(F3, 0, 10)

    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            search_sequences(F3, 2, 2)

    def test_rejects_depth_above_bound(self):
        # the bound counts levels, depth - n
        with pytest.raises(ValueError, match="SEARCH_MAX_LEVELS"):
            search_sequences(F3, 2, 3 + SEARCH_MAX_LEVELS, budget=1)
        report = search_sequences(F3, 2, 2 + SEARCH_MAX_LEVELS, budget=1)
        assert report.exhausted and report.nodes == 2

    def test_rejects_seed_deeper_than_target(self):
        with pytest.raises(ValueError):
            search_sequences(F3, 2, 5, seed=[0, 0, 0, 0])

    def test_seed_entries_reduced_like_sequence_entries(self):
        # Plain ints are taken mod p, matching the BetaSequence constructor.
        wrapped = search_sequences(F3, 2, 12, seed=[0, 4])
        plain = search_sequences(F3, 2, 12, seed=[0, 1])
        assert wrapped.solutions == plain.solutions

    @pytest.mark.parametrize("seed", [[1.5], [0, "1"], [True]])
    def test_seed_entries_must_be_ints(self, seed):
        # int() would have read 1.5 as 1 and "1" and True as 1
        with pytest.raises(ValueError, match="integers"):
            search_sequences(F3, 2, 12, seed=seed)


class TestSmallDepthExhaustive:
    def test_matches_brute_force_depth_eight(self):
        report = search_sequences(F3, 2, 8, normalize=False)
        expected = brute_force_solutions(F3, 2, 8)
        assert report.solution_count == len(expected) == 15
        assert sorted(report.solutions) == expected

    def test_depth_twelve_normalized_frozen(self):
        report = search_sequences(F3, 2, 12)
        assert report.solution_count == 9
        assert list(report.solutions) == P3_N2_D12
        assert report.nodes == 167
        assert not report.exhausted
        assert report.complete

    def test_depth_twelve_unnormalized_count(self):
        # Each nonzero normalized solution rescales in p - 1 ways.
        report = search_sequences(F3, 2, 12, normalize=False)
        assert report.solution_count == 1 + 8 * 2 == 17
        assert report.nodes == 324

    def test_solutions_emitted_in_lexicographic_order(self):
        report = search_sequences(F3, 2, 12, normalize=False)
        assert list(report.solutions) == sorted(report.solutions)

    def test_all_solutions_pass_full_verification(self):
        report = search_sequences(F3, 2, 12)
        for sol in report.solutions:
            seq = BetaSequence(F3, 2, sol)
            assert jacobi_verify(seq).ok
            summary = constituents(seq)
            if summary.ell is not None:
                assert summary.ell % 2 == 0

    def test_exceptional_member_is_found(self):
        # The power q = 3 algebra normalizes into the depth-12 list.
        params = ExceptionalParams(F3, 1, 2, 1)
        member = BetaSequence(F3, 2, closed_form_betas(params, 12)).normalize()
        assert member.betas in set(search_sequences(F3, 2, 12).solutions)


class TestSeeding:
    def test_contradictory_seed_yields_nothing(self):
        # First nonzero at index 4 starts a length-5 first constituent,
        # which the diagonal antisymmetry check kills almost immediately.
        report = search_sequences(F3, 2, 10, seed=[0, 1])
        assert report.solution_count == 0
        assert report.nodes == 2
        assert report.deepest == 3

    def test_exceptional_prefix_extends_uniquely(self):
        params = ExceptionalParams(F3, 2, 2, 1)
        prefix = closed_form_betas(params, 24)
        report = search_sequences(F3, 2, 30, seed=prefix)
        assert report.solution_count == 1
        assert report.nodes == 40
        assert report.solutions[0] == tuple(closed_form_betas(params, 30))

    def test_deep_sparse_seed_has_unique_continuation(self):
        # A first constituent of length 54 = 2q over F_3 (q = 27): forcing
        # beta_53 = 1 after fifty zeros leaves exactly one way forward.
        report = search_sequences(F3, 2, 60, seed=[0] * 50 + [1])
        assert report.solution_count == 1
        assert not report.exhausted
        sol = report.solutions[0]
        assert sol[:50] == (0,) * 50
        assert sol[50:] == (1, 2, 0, 0, 0, 0, 0, 0)
        seq = BetaSequence(F3, 2, sol)
        assert jacobi_verify(seq).ok
        assert constituents(seq).ell == 54


class TestLimits:
    def test_budget_exhaustion_is_flagged(self):
        report = search_sequences(F3, 2, 12, budget=20)
        assert report.exhausted
        assert report.nodes == 21
        assert report.solution_count == 2
        assert not report.complete
        assert report.deepest == 12

    def test_solution_cap(self):
        report = search_sequences(F3, 2, 12, max_solutions=3)
        assert len(report.solutions) == 3
        assert report.solution_count == 9
        assert report.truncated_solutions
        assert not report.complete

    def test_full_run_is_complete(self):
        report = search_sequences(F3, 2, 12)
        assert report.complete
        assert not report.truncated_solutions


class TestDepthSteps:
    def test_deep_budgeted_search_counts(self):
        # 1100 assigned levels.  The recursive walk takes one frame per
        # level, more than the default limit of 1000 allows, so the limit
        # is raised for this call; a walk with an explicit stack must give
        # the same numbers at the default limit.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2000)
        try:
            report = search_sequences(F3, 1000, 2100, budget=3000)
        finally:
            sys.setrecursionlimit(limit)
        assert report.nodes == 3001
        assert report.solution_count == 318
        assert report.exhausted
        assert report.deepest == 2100

    def test_type_past_the_levels_does_not_matter(self):
        # with fewer levels than n, no row, residual or triple depends on n
        base = search_sequences(F3, 13, 25)
        for n in (10**6, 2**63):
            report = search_sequences(F3, n, n + 12)
            assert (report.solutions, report.solution_count, report.nodes) == \
                (base.solutions, base.solution_count, base.nodes)
            assert report.deepest - n == base.deepest - 13

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from([3, 5]), st.integers(1, 3), st.integers(4, 16),
           st.booleans())
    def test_solutions_truncate_to_solutions(self, p, n, depth, normalize):
        field = PrimeField(p)
        shallow = search_sequences(field, n, depth, normalize=normalize)
        deep = search_sequences(field, n, depth + 1, normalize=normalize)
        assert shallow.complete and deep.complete
        assert {sol[:-1] for sol in deep.solutions} <= set(shallow.solutions)


class TestTypeOne:
    def test_type_one_enumeration(self):
        report = search_sequences(F3, 1, 26, seed=[0])
        assert report.solution_count == 13
        assert report.nodes == 313
        for sol in report.solutions:
            assert BetaSequence(F3, 1, sol).depth == 26
            # in a type-1 algebra one of any two consecutive entries vanishes
            assert not any(a and b for a, b in zip(sol, sol[1:]))

    def test_frozen_alpha_fixture_is_canonical(self, fixture_dir):
        with open(fixture_dir / "alpha_p3_d26.json") as fh:
            data = json.load(fh)
        alpha = BetaSequence(PrimeField(data["p"]), 1, data["alphas"])
        assert alpha.depth == data["depth"]
        report = search_sequences(F3, 1, 26, seed=[0])
        spiked = [
            sol
            for sol in report.solutions
            if [v != 0 for v in sol] == [v != 0 for v in alpha.betas]
        ]
        # Three solutions share the support; the fixture is the first.
        assert len(spiked) == 3
        assert spiked[0] == alpha.betas


class TestReportShape:
    def test_to_dict_round_trips_through_json(self):
        report = search_sequences(F3, 2, 12)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        data = json.loads(blob)
        assert data["solution_count"] == 9
        assert data["p"] == 3
        assert [tuple(s) for s in data["solutions"]] == P3_N2_D12

    def test_report_is_dataclass_with_expected_fields(self):
        report = search_sequences(F3, 2, 8)
        assert isinstance(report, SearchReport)
        assert report.seed_depth == 2
        assert report.normalized
        assert report.budget == 500_000
