import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxclass.arith import PrimeField
from maxclass.exceptional import ExceptionalParams, closed_form_betas
from maxclass.sequences import (
    BetaSequence,
    DepthError,
    RationalSeries,
    bracket_coeff,
    bridge_check,
    constituents,
    first_constituent_poly,
    jacobi_verify,
    project_type1,
    subalgebra_sequence,
)
from maxclass.sequences import _is_ordinary
from poly_helpers import FpPoly
from sequence_helpers import constituents_via_lcs, eih_residual

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def genfunc(seq):
    """Generating series prefix sum_i beta_i X^i, i over (n, depth]."""
    return FpPoly(seq.field, [0] * (seq.n + 1) + list(seq.betas))


def periodic_fixture(depth=41):
    """A type-2 sequence over F_5 with first constituent length 6 and
    eventually periodic pattern (0, 0, 0, 1, 4); verified below to satisfy
    the full Jacobi sweep.  Series form: X^5 (2 - X - X^5) / (1 - X^5)."""
    num = [0] * 5 + [2, -1, 0, 0, 0, -1]
    den = [1, 0, 0, 0, 0, -1]
    return BetaSequence(F5, 2, RationalSeries(F5, num, den).expand(depth)[3:])


class TestBetaSequence:
    def test_window(self):
        seq = BetaSequence(F5, 2, [0, 1, 2])
        assert seq.depth == 5
        assert seq.beta(3) == 0
        assert seq.beta(5) == 2
        with pytest.raises(DepthError):
            seq.beta(2)
        with pytest.raises(DepthError):
            seq.beta(6)

    def test_read_past_the_window_is_a_value_error(self):
        # so the command line reports it as a usage error, not a traceback
        with pytest.raises(ValueError, match="outside recorded window"):
            BetaSequence(F5, 2, [0, 1, 2]).beta(6)

    def test_entries_reduced_mod_p(self):
        seq = BetaSequence(F5, 2, [-1, 7, 8])
        assert seq.betas == (4, 2, 3)
        assert BetaSequence(F5, 2, iter([-1, 7, 8])) == seq

    @pytest.mark.parametrize("entry", [2.9, "3", True, None])
    def test_entries_must_be_ints(self, entry):
        # int() would have read 2.9, "3" and True as 2, 3 and 1
        with pytest.raises(ValueError, match="integers"):
            BetaSequence(F5, 2, [0, entry])

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BetaSequence(F5, 0, [1])

    def test_normalize(self):
        seq = BetaSequence(F5, 2, [0, 3, 1, 5])
        assert seq.support == (4, 5)   # 5 is 0 mod 5
        assert seq.first_nonzero() == 4 and seq.beta(4) == 3
        norm = seq.normalize()
        assert norm.beta(norm.first_nonzero()) == 1
        assert norm.betas == (0, 1, 2, 0)  # scaled by 3^(-1) = 2
        zero = BetaSequence(F5, 2, [0] * (9 - 2))
        assert zero.support == ()
        assert zero.first_nonzero() is None and zero.normalize() == zero

    def test_truncate(self):
        seq = BetaSequence(F5, 2, [1, 2, 3, 4])
        assert seq.truncate(4).betas == (1, 2)
        with pytest.raises(ValueError):
            seq.truncate(7)

    def test_serialization_round_trip(self, tmp_path):
        seq = periodic_fixture(20)
        path = tmp_path / "seq.json"
        seq.to_file(path)
        assert BetaSequence.from_file(path) == seq
        data = json.loads(path.read_text())
        assert data["p"] == 5 and data["n"] == 2 and data["depth"] == 20

    def test_from_dict_depth_mismatch(self):
        with pytest.raises(ValueError, match="depth"):
            BetaSequence.from_dict({"p": 5, "n": 2, "depth": 9, "betas": [1, 2]})


class TestBracketCoeff:
    def test_small_values(self):
        # n = 2: [e_3, e_4] = (beta_3 - 2 beta_4 + beta_5) e_7 with beta_2 -> 0
        seq = BetaSequence(F5, 2, [1, 2, 3, 0])
        assert bracket_coeff(seq, 3, 2) == 1
        assert bracket_coeff(seq, 3, 4) == (1 - 2 * 2 + 3) % 5
        assert bracket_coeff(seq, 2, 3) == (0 - 1) % 5

    def test_defined_iff_window_closes(self):
        seq = periodic_fixture()
        assert bracket_coeff(seq, 3, 40) is not None   # window ends at 41
        assert bracket_coeff(seq, 4, 40) is None       # would need beta_42

    def test_below_type_rejected(self):
        seq = BetaSequence(F5, 3, [1, 2])
        with pytest.raises(ValueError):
            bracket_coeff(seq, 2, 3)

    @settings(max_examples=150, derandomize=True)
    @given(st.integers(0, 2), st.lists(st.integers(0, 6), min_size=8, max_size=16),
           st.data())
    def test_pascal_identity(self, fi, betas, data):
        # the z-instances of Jacobi: gamma(a,b) = gamma(a+1,b) + gamma(a,b+1),
        # an identity in the entries, whatever the prefix
        field = (F3, F5, F7)[fi]
        n = data.draw(st.integers(1, 3))
        seq = BetaSequence(field, n, betas)
        a = data.draw(st.integers(n, seq.depth - n - 1))
        b = data.draw(st.integers(n, seq.depth - a - 1))
        lhs = bracket_coeff(seq, a, b)
        rhs = (bracket_coeff(seq, a + 1, b) + bracket_coeff(seq, a, b + 1)) % field.p
        assert lhs == rhs


class TestJacobiVerify:
    def test_all_ones_consistent(self):
        report = jacobi_verify(BetaSequence(F3, 2, [1] * (40 - 2)))
        assert report.ok
        assert report.pairs_checked == 361
        assert report.triples_checked == 324

    def test_all_zero_consistent(self):
        assert jacobi_verify(BetaSequence(F7, 3, [0] * (30 - 3))).ok

    def test_periodic_fixture_consistent(self):
        report = jacobi_verify(periodic_fixture())
        assert report.ok
        assert report.triples_checked == 342

    def test_single_flip_detected(self):
        betas = list(periodic_fixture().betas)
        betas[30 - 3] = 3  # beta_30: 1 -> 3
        report = jacobi_verify(BetaSequence(F5, 2, betas))
        assert not report.ok
        assert report.failure == {"kind": "antisymmetry", "indices": [2, 30], "value": 4}

    def test_zeroed_trailing_term_detected(self):
        betas = list(periodic_fixture().betas)
        betas[31 - 3] = 0  # beta_31: 4 -> 0
        report = jacobi_verify(BetaSequence(F5, 2, betas))
        assert not report.ok
        assert report.failure["kind"] == "antisymmetry"

    def test_odd_first_length_refuted(self):
        # first nonzero at index 4 for n = 2 would mean a first constituent
        # of odd length 5; the diagonal bracket [e_3, e_3] rules it out
        report = jacobi_verify(BetaSequence(F5, 2, [0, 1, 0, 0]))
        assert report.failure == {"kind": "antisymmetry", "indices": [2, 4], "value": 2}

    def test_forced_equality_at_small_depth(self):
        # n = 2: antisymmetry of [e_2, e_4] forces beta_4 = beta_3
        assert not jacobi_verify(BetaSequence(F5, 2, [1, 2, 0, 0])).ok
        assert jacobi_verify(BetaSequence(F5, 2, [1, 1, 1, 1])).ok

    def test_truncation_sets_the_depth_checked(self):
        # the prefix fails antisymmetry at [2, 4]: cut at depth 5 it
        # passes, cut at 6 it fails there, and it is never cut below n
        seq = BetaSequence(F3, 2, [1, 2, 1, 1, 2, 2, 0, 1])
        report = jacobi_verify(seq.truncate(5))
        assert report.ok and report.depth == 5 and report.pairs_checked == 2
        report = jacobi_verify(seq.truncate(6))
        assert report.depth == 6 and report.failure["indices"] == [2, 4]
        with pytest.raises(ValueError, match="cannot truncate"):
            seq.truncate(1)

    def test_counts_on_passing_prefixes_count_the_sweep(self):
        # pairs n <= a <= b with a + b <= D and triples (e_n, e_b, e_c) with
        # n <= b <= c, n + b + c <= D; none of either below depth 2n, and
        # no triple below 3n (n = 4, D = 8 once reported one)
        for n in range(1, 8):
            for D in range(n, 4 * n + 4):
                report = jacobi_verify(BetaSequence(F7, n, [0] * (D - n)))
                pairs = sum(max(0, D - 2 * a + 1) for a in range(n, D + 1))
                triples = sum(max(0, D - n - 2 * b + 1) for b in range(n, D + 1))
                assert (report.pairs_checked, report.triples_checked) == (pairs, triples), (n, D)

    def test_deterministic(self):
        a = jacobi_verify(periodic_fixture()).to_dict()
        b = jacobi_verify(periodic_fixture()).to_dict()
        assert a == b

    def test_memory_is_a_window_of_levels(self):
        # the full table to depth 600 would hold about 90,000 coefficients
        params = ExceptionalParams(F7, 3, 3, 2)
        seq = BetaSequence(F7, 3, closed_form_betas(params, 600))
        tracemalloc.start()
        try:
            report = jacobi_verify(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 256 * 1024


class TestConstituents:
    def test_all_zero_metabelian(self):
        report = constituents(BetaSequence(F5, 2, [0] * (30 - 2)))
        assert report.metabelian_within_depth
        assert report.ell is None
        assert report.constituents == []

    def test_all_ones(self):
        # the other metabelian sequence: ell = 2n, then all constituents of
        # length n, none of them ordinary (for n > 1)
        report = constituents(BetaSequence(F3, 2, [1] * (40 - 2)))
        assert report.ell == 4
        assert report.lengths() == [4] + [2] * 18
        assert report.violations == []
        assert all(c.ordinary is False for c in report.constituents)

    def test_periodic_fixture(self):
        report = constituents(periodic_fixture())
        assert report.ell == 6
        assert report.lengths() == [6] + [5] * 7
        assert report.incomplete_tail is None
        assert report.violations == []
        first, later = report.constituents[0], report.constituents[1:]
        assert first.ordinary is False
        assert first.leading == 5 and first.trailing == 6
        assert all(c.ordinary for c in later)
        assert all(c.entries[-1] == 4 for c in later)  # trailing value -1

    def test_incomplete_tail_no_leading(self):
        report = constituents(periodic_fixture().truncate(39))
        assert report.lengths() == [6] + [5] * 6
        assert report.incomplete_tail == {"start": 37, "leading": None}

    def test_incomplete_tail_with_leading(self):
        report = constituents(periodic_fixture().truncate(40))
        assert report.incomplete_tail == {"start": 37, "leading": 40}

    def test_zero_run_and_long_constituent_flagged(self):
        report = constituents(BetaSequence(F5, 2, [1, 1, 0, 0, 0, 1, 4]))
        assert report.lengths() == [4, 5]
        assert "zero_run_exceeds:5-7" in report.violations
        assert "length_exceeds_first:2" in report.violations

    def test_short_constituent_flagged(self):
        report = constituents(BetaSequence(F5, 2, [0, 0, 1, 1, 1, 4]))
        assert report.lengths() == [6, 2]
        assert report.violations == ["length_below_half:2"]

    def test_odd_ell_flagged(self):
        report = constituents(BetaSequence(F5, 2, [0, 1, 0, 0]))
        assert report.ell == 5
        assert "ell_odd" in report.violations

    def test_to_dict_json_safe(self):
        json.dumps(constituents(periodic_fixture()).to_dict())


class TestOrdinary:
    def test_binomial_pattern(self):
        # n = 3, last entry 2: wants (..., C(2,2)*2, -C(2,1)*2, C(2,0)*2)
        assert _is_ordinary([0, 0, 2, -4 % 5, 2], 3, 5)
        assert not _is_ordinary([0, 1, 2, -4 % 5, 2], 3, 5)
        assert _is_ordinary([0, 0, 1, 4], 2, 5)
        assert not _is_ordinary([1, 1], 2, 3)


class TestAlphaSequence:
    """Type-1 data, the sequence (alpha_i) of a type-1 algebra, is a
    BetaSequence with n = 1."""

    def test_consecutive_nonzero_rejected(self):
        message = "^consecutive entries alpha_4, alpha_5 are both nonzero$"
        with pytest.raises(ValueError, match=message):
            project_type1(BetaSequence(F5, 1, [0, 0, 1, 2, 0]), 2)
        with pytest.raises(ValueError, match="alpha_6, alpha_7"):
            project_type1(BetaSequence(F5, 1, [0, 1, 0, 0, 1, 3]), 2)

    def test_window(self):
        al = BetaSequence(F5, 1, [0, 1, 0, 2])
        assert al.depth == 5
        assert al.beta(3) == 1
        with pytest.raises(DepthError):
            al.beta(1)

    def test_round_trip(self, tmp_path):
        al = BetaSequence(F3, 1, [1, 0, 2, 0, 0, 1])
        path = tmp_path / "alpha.json"
        al.to_file(path)
        assert BetaSequence.from_file(path) == al

    @pytest.mark.parametrize("document, message", [
        ([3, 1, 4, [0, 1, 0]], "JSON object"),
        ({"p": 3, "n": 1, "depth": 4}, "JSON object"),
        ({"p": 3, "n": 1, "depth": 4, "betas": None}, "JSON object"),
        ({"p": 3.0, "n": 1, "depth": 4, "betas": [0, 1, 0]}, "integers"),
        ({"p": 3, "n": 1, "depth": 4, "betas": [0, 1.7, 0]}, "integers"),
        ({"p": 3, "n": 1, "depth": "4", "betas": [0, 1, 0]}, "integers"),
        ({"p": 3, "n": 1, "depth": 4, "betas": [0, True, 0]}, "integers"),
        ({"p": 3, "n": 1, "depth": 5, "betas": [0, 1, 0]}, "depth"),
    ])
    def test_from_dict_rejects_malformed(self, document, message):
        with pytest.raises(ValueError, match=message) as info:
            BetaSequence.from_dict(document)
        assert "\n" not in str(info.value)

    def test_type_two_refused_by_projection(self):
        message = "^projection needs a type-1 sequence, got type 2$"
        with pytest.raises(ValueError, match=message):
            project_type1(BetaSequence(F5, 2, [1, 0, 2, 0]), 2)


class TestProjection:
    def test_single_spike(self):
        # alpha_5 = 1 alone, n = 2: beta_i = alpha_i - alpha_(i+1) puts
        # -1 at beta_4 and 1 at beta_5
        al = BetaSequence(F5, 1, [0, 0, 0, 1, 0, 0, 0])
        seq = project_type1(al, 2)
        assert seq.n == 2 and seq.depth == 7
        assert seq.betas == (0, 4, 1, 0, 0)

    def test_identity_at_type_one(self):
        al = BetaSequence(F5, 1, [0, 1, 0, 2, 0])
        assert project_type1(al, 1) == al

    def test_too_shallow_rejected(self):
        with pytest.raises(ValueError, match="shallow"):
            project_type1(BetaSequence(F5, 1, [0, 1, 0]), 4)

    def test_type_zero_rejected(self):
        with pytest.raises(ValueError, match="type must be positive"):
            project_type1(BetaSequence(F5, 1, [0, 1, 0]), 0)

    def test_early_spike_projects_without_raising(self):
        # nonzero alphas 2 apart, but alpha_3 sits below 2n = 4: its block
        # beta_2, beta_3 is cut at index n + 1, leaving a non-ordinary
        # constituent that the spacing argument does not cover
        al = BetaSequence(F3, 1, [0, 1, 0, 2, 0, 1])
        seq = project_type1(al, 2)
        assert seq.betas == (1, 1, 2, 2)
        assert not all(c.ordinary for c in constituents(seq).constituents[1:])

    def test_spaced_spikes_give_ordinary_constituents(self):
        # isolated alpha entries at mutual distance >= n project to ordinary
        # blocks; project_type1 asserts this internally
        al = BetaSequence(F5, 1, [0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0])
        seq = project_type1(al, 3)
        report = constituents(seq)
        assert all(c.ordinary for c in report.constituents[1:])


class TestEihResidual:
    def test_frozen_example(self):
        # two isolated ones at beta_10 and beta_15, n = 2: with h = 3 the
        # residual collapses to 2 * beta_10 * beta_15 = 2
        betas = [0] * 15
        betas[10 - 3] = 1
        betas[15 - 3] = 1
        seq = BetaSequence(F5, 2, betas)
        assert eih_residual(seq, 10, 3) == 2

    def test_vanishes_on_consistent_sequence(self):
        # subsumed by Jacobi: on a fully consistent prefix every applicable
        # residual (those with beta_(n+h) = 0) is zero
        seq = periodic_fixture()
        checked = 0
        for h in range(1, 30):
            if int(seq.beta(2 + h)) != 0:
                continue
            for i in range(3, seq.depth - h - 1):
                r = eih_residual(seq, i, h)
                if r is not None:
                    assert int(r) == 0, (i, h)
                    checked += 1
        assert checked > 300

    def test_out_of_depth_is_none(self):
        seq = BetaSequence(F5, 2, [1, 1, 1])
        assert eih_residual(seq, 3, 1) is None

    def test_bad_arguments(self):
        seq = periodic_fixture()
        with pytest.raises(ValueError):
            eih_residual(seq, 2, 1)
        with pytest.raises(ValueError):
            eih_residual(seq, 5, 0)


class TestSeries:
    def test_genfunc_coefficients(self):
        seq = BetaSequence(F5, 2, [1, 0, 3])
        poly = genfunc(seq)
        assert [poly[i] for i in range(6)] == [0, 0, 0, 1, 0, 3]

    def test_rational_series_regression(self):
        assert periodic_fixture().betas[:14] == (0, 0, 2, 4, 0, 0, 0, 1, 4, 0, 0, 0, 1, 4)

    def test_constant_term_required(self):
        # 5 is 0 mod 5, and an empty denominator is the zero polynomial
        for den in ((0, 1), (5, 1), ()):
            with pytest.raises(ValueError, match="constant term"):
                RationalSeries(F5, (1,), den)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
           st.lists(st.integers(0, 4), min_size=0, max_size=5),
           st.integers(1, 4))
    def test_expansion_times_denominator(self, num_c, den_tail, d0):
        num = FpPoly(F5, num_c)
        den = FpPoly(F5, [d0] + den_tail)
        coeffs = RationalSeries(F5, num_c, [d0] + den_tail).expand(12)
        product = FpPoly(F5, coeffs) * den
        for k in range(13):
            assert product[k] == num[k]


class TestSubalgebra:
    def test_periodic_fixture_transform_consistent(self):
        sub = subalgebra_sequence(periodic_fixture())
        assert sub.n == 3 and sub.depth == 40
        assert sub.betas[:8] == (3, 3, 4, 0, 0, 4, 2, 4)
        assert jacobi_verify(sub).ok

    def test_all_ones_transforms_to_zero(self):
        sub = subalgebra_sequence(BetaSequence(F3, 2, [1] * (20 - 2)))
        assert sub == BetaSequence(F3, 3, [0] * (19 - 3))

    def test_prefix_of_depth_n_plus_one_refused(self):
        with pytest.raises(ValueError, match="prefix too shallow to transform"):
            subalgebra_sequence(BetaSequence(F5, 2, [1]))

    def test_invalid_input_rejected(self):
        # beta_3 != beta_4 cannot happen in an algebra (diagonal bracket),
        # also when beta_4 is the last recorded entry
        for betas in ([1, 2, 0, 0], [1, 0]):
            with pytest.raises(ValueError, match="beta_3 - beta_4"):
                subalgebra_sequence(BetaSequence(F5, 2, betas))


class TestLcs:
    def test_matches_direct_partition(self):
        seq = periodic_fixture()
        report = constituents_via_lcs(seq)
        direct = constituents(seq).lengths()
        assert not report.no_second_power
        assert report.contiguous
        assert report.lengths == direct[: len(report.lengths)]
        assert report.incomplete_count == 5

    def test_all_zero(self):
        report = constituents_via_lcs(BetaSequence(F5, 2, [0] * (25 - 2)))
        assert report.no_second_power
        assert report.lengths == []

    def test_nonzero_start_refused(self):
        with pytest.raises(ValueError, match="beta_\\(n\\+1\\) = 0"):
            constituents_via_lcs(BetaSequence(F3, 2, [1] * (30 - 2)))

    def test_truncated_agreement(self):
        seq = periodic_fixture().truncate(33)
        report = constituents_via_lcs(seq)
        assert report.lengths == constituents(seq).lengths()[: len(report.lengths)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_depth_n_has_no_second_power(self, n):
        # a prefix with no entries has no nonzero bracket, like one entry deeper
        seq = BetaSequence(F3, n, [0, 2, 1, 1, 2, 2, 0, 1])
        for depth in (n, n + 1):
            report = constituents_via_lcs(seq.truncate(depth))
            assert report.no_second_power and report.lengths == [], depth


class TestBridge:
    def test_periodic_fixture(self):
        report = bridge_check(periodic_fixture())
        assert report.ok
        assert (report.ell, report.ell2, report.k) == (6, 5, 5)
        assert report.window == (1, 4)

    def test_first_constituent_poly(self):
        g = first_constituent_poly(periodic_fixture())
        assert g == (4, 2)  # beta_5 X + beta_6

    def test_first_constituent_poly_needs_the_whole_constituent(self):
        # beta_5 leads the first constituent, which ends at beta_6
        with pytest.raises(ValueError, match="first constituent not complete within depth"):
            first_constituent_poly(BetaSequence(F5, 2, [0, 0, 2]))

    def test_vacuous_window(self):
        report = bridge_check(BetaSequence(F3, 2, [1] * (40 - 2)))
        assert report.ok and report.window == (2, 2)

    def test_violation_detected(self):
        # paired spikes at distance q on a prefix that is not an algebra
        # sequence: the window coefficient (X-1)^6 at X^1 survives
        seq = BetaSequence(F5, 2, [0, 0, 4, 1, 0, 0, 0, 0, 4, 1, 0])
        report = bridge_check(seq)
        assert not report.ok
        assert report.failures == [(1, 1)]

    def test_needs_two_constituents(self):
        assert bridge_check(BetaSequence(F5, 2, [0, 0, 2, 4, 0, 0])) is None
        assert bridge_check(BetaSequence(F5, 2, [0] * (20 - 2))) is None
