import json
import tracemalloc

import pytest

from maxclass import cli, exceptional
from maxclass.arith import PrimeField
from maxclass.divided_powers import RowElement, make_generators
from maxclass.exceptional import (
    CONSTRUCT_MAX_DEGREE,
    ConstructionError,
    ExceptionalParams,
    abelian_ideal_check,
    closed_form_betas,
    construct,
    exceptional_report,
    expected_first_length,
    expected_lengths,
    first_length_coverage,
    genfunc_closed_form,
    two_path_check,
)
from maxclass.polycheck import classify_admissible_k
from maxclass.sequences import (BetaSequence, constituents, first_constituent_poly,
                                jacobi_verify, subalgebra_sequence)
from paper_helpers import theorem_parameter_grid
from poly_helpers import FpPoly, x_minus_one_pow

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExceptionalParams(F5, 1, 2, 2)      # m < n
        with pytest.raises(ValueError):
            ExceptionalParams(F5, 1, 2, 0)      # m > 0
        with pytest.raises(ValueError):
            ExceptionalParams(F5, 1, 6, 1)      # n <= q
        with pytest.raises(ValueError):
            ExceptionalParams(F5, 0, 2, 1)      # c >= 1

    def test_mode(self):
        assert ExceptionalParams(F5, 1, 2, 1).mode == "construction"  # q = p
        assert ExceptionalParams(F5, 2, 2, 1).mode == "theorem"
        assert ExceptionalParams(F5, 2, 6, 1).mode == "construction"  # n >= p
        assert ExceptionalParams(F3, 3, 2, 1).mode == "theorem"

    def test_to_dict(self):
        d = ExceptionalParams(F3, 2, 2, 1).to_dict()
        assert d == {"p": 3, "c": 2, "q": 9, "n": 2, "m": 1, "mode": "theorem"}

    def test_theorem_grid_sizes(self):
        assert len(theorem_parameter_grid(F5, 2)) == 6
        assert len(theorem_parameter_grid(F7, 2)) == 15
        assert len(theorem_parameter_grid(F3, 3)) == 1
        assert theorem_parameter_grid(F7, 1) == []


class TestClosedForms:
    def test_small_case_frozen(self):
        # q = 3, n = 2, m = 1: entries 2, 2, then (0, 1, 2) repeating
        params = ExceptionalParams(F3, 1, 2, 1)
        got = closed_form_betas(params, 11)
        assert got == [2, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_requires_room_for_two_constituents(self):
        with pytest.raises(ValueError, match="2n <= q \\+ m"):
            closed_form_betas(ExceptionalParams(F5, 1, 4, 1), 20)
        with pytest.raises(ValueError):
            genfunc_closed_form(ExceptionalParams(F5, 1, 4, 1))

    @pytest.mark.parametrize("params", [
        ExceptionalParams(F3, 1, 2, 1),
        ExceptionalParams(F3, 2, 2, 1),
        ExceptionalParams(F5, 1, 2, 1),
        ExceptionalParams(F5, 2, 3, 1),
        ExceptionalParams(F5, 2, 3, 2),
        ExceptionalParams(F7, 1, 3, 2),
    ])
    def test_series_matches_piecewise(self, params):
        depth = 3 * params.q + 2 * params.n
        series = genfunc_closed_form(params).expand(depth)[params.n + 1:]
        assert series == closed_form_betas(params, depth)

    def test_series_matches_the_polynomial_expression(self):
        # the residue lists against (X-1)^(n-m-1) (1 - X^q) - (X-1)^(n-1),
        # shifted, built with the reference polynomial and expanded as
        # num (1 + X^q + X^2q + ...), without RationalSeries.expand
        grid = []
        for p, c in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]:
            q = p ** c
            for n in sorted({2, 3, p - 1, p, p + 1, q // 2, q}):
                for m in sorted({1, 2, n // 2, n - 1}):
                    if 0 < m < n <= q and 2 * n <= q + m:
                        grid.append(ExceptionalParams(PrimeField(p), c, n, m))
        assert len(grid) == 88
        for params in grid:
            field, q, n, m = params.field, params.q, params.n, params.m
            depth = 3 * q + 2 * n
            den = FpPoly.one(field) - FpPoly.monomial(field, 1, q)
            num = (x_minus_one_pow(field, n - m - 1) * den
                   - x_minus_one_pow(field, n - 1)).shift(q + m + 1 - n)
            series = num
            for r in range(1, depth // q + 1):
                series = series + num.shift(r * q)
            rs = genfunc_closed_form(params)
            assert (rs.num, rs.den) == (num.coeffs, den.coeffs), params
            assert rs.expand(depth) == [series[k] for k in range(depth + 1)], params

    def test_parent_specialization(self):
        # at n = m + 1 the series collapses to X^q - X^q (X-1)^m / (1 - X^q)
        for params in [ExceptionalParams(F3, 2, 2, 1), ExceptionalParams(F5, 2, 3, 2)]:
            q, m, field = params.q, params.m, params.field
            rs = genfunc_closed_form(params)
            one_minus_xq = FpPoly.one(field) - FpPoly.monomial(field, 1, q)
            want_num = (one_minus_xq - x_minus_one_pow(field, m)).shift(q)
            assert rs.num == want_num.coeffs
            assert rs.den == one_minus_xq.coeffs

    @pytest.mark.parametrize("params", theorem_parameter_grid(F5, 2)
                             + theorem_parameter_grid(F7, 2))
    def test_first_constituent_poly_is_a_classify_survivor(self, params):
        # the census contract: the member's g, in the form classify lists
        # it, is one of the survivors at its exponent k = ell - n + 1
        seq = BetaSequence(params.field, params.n,
                           closed_form_betas(params, params.default_depth)).normalize()
        g = first_constituent_poly(seq)
        assert type(g) is tuple and len(g) == params.n and g[-1] == 1
        k = constituents(seq).ell - params.n + 1
        assert g in classify_admissible_k(params.field, params.n, k).survivors[k]

    def test_first_length(self):
        assert expected_first_length(ExceptionalParams(F5, 2, 4, 1)) == 26
        assert expected_first_length(ExceptionalParams(F5, 2, 4, 2)) == 28
        assert expected_first_length(ExceptionalParams(F5, 2, 4, 3)) == 28

    def test_expected_lengths_even_m(self):
        assert expected_lengths(ExceptionalParams(F5, 2, 3, 2), 4) == [28, 24, 25, 25]
        assert expected_lengths(ExceptionalParams(F5, 2, 3, 1), 4) == [26, 25, 25, 25]


class TestConstruct:
    def test_matches_closed_form_q5(self):
        params = ExceptionalParams(F5, 1, 2, 1)
        algebra = construct(params)
        assert algebra.sequence.depth == params.default_depth == 19
        assert list(algebra.sequence.betas) == closed_form_betas(params, 19)
        assert sorted(algebra.elements) == list(range(19, 19 + 3))

    def test_matches_closed_form_q9(self):
        params = ExceptionalParams(F3, 2, 3, 2)
        algebra = construct(params, 40)
        assert list(algebra.sequence.betas) == closed_form_betas(params, 40)

    def test_depth_validation(self):
        with pytest.raises(ValueError, match="shallow"):
            construct(ExceptionalParams(F5, 1, 2, 1), 2)

    def test_tampered_generator_raises(self, monkeypatch, capsys):
        # e_n with module coefficient 2 stays homogeneous of degree n, so
        # only the closed-form comparison can catch it
        def tampered(ring, n, m):
            z, e_n = make_generators(ring, n, m)
            return z, RowElement(ring, m, n, 2, e_n.rows)

        monkeypatch.setattr(exceptional, "make_generators", tampered)
        with pytest.raises(ConstructionError, match="degree 3 deviates from its closed form"):
            construct(ExceptionalParams(F5, 1, 2, 1))
        code = cli.main(["construct", "--p", "5", "--c", "1", "--n", "2", "--m", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED
        assert out == ""
        assert err.startswith("construction failed:") and err.count("\n") == 1

    @pytest.mark.parametrize("p, c, n, m", [(3, 2, 2, 1), (3, 7, 2, 1), (7, 3, 3, 2)])
    def test_tampered_generator_operator_raises(self, monkeypatch, p, c, n, m):
        # one row of e_n's operator moved by 1 keeps e_n homogeneous of
        # degree n, and [e_n, z] keeps its module term -Z x^(q+m-n), so only
        # the comparison of operator rows can catch it
        def tampered(ring, n, m):
            z, e_n = make_generators(ring, n, m)
            rows = dict(e_n.rows)
            rows[min(rows)] += 1    # C(q - n, q - n) = 1 becomes 2
            return z, RowElement(ring, m, n, 1, rows)

        monkeypatch.setattr(exceptional, "make_generators", tampered)
        with pytest.raises(ConstructionError,
                           match=f"degree {n + 1} deviates from its closed form"):
            construct(ExceptionalParams(PrimeField(p), c, n, m))

    def test_vanishing_step_raises(self, monkeypatch):
        # with z = 0 every bracket step is the zero element; the closed form
        # always has its module term, so the comparison catches it
        def tampered(ring, n, m):
            _, e_n = make_generators(ring, n, m)
            return RowElement(ring, m, 1, 0, {}), e_n

        monkeypatch.setattr(exceptional, "make_generators", tampered)
        with pytest.raises(ConstructionError, match="degree 3 deviates from its closed form"):
            construct(ExceptionalParams(F5, 1, 2, 1))

    def test_z_other_than_the_generator_is_bracketed(self, monkeypatch, capsys):
        # z with 1 on row 0 instead of p - 1: e_n's row q - n meets it, so
        # [e_n, z] already deviates; only the general bracket sees that row
        def tampered(ring, n, m):
            z, e_n = make_generators(ring, n, m)
            return RowElement(ring, m, 1, 0, {**z.rows, 0: 1}), e_n

        monkeypatch.setattr(exceptional, "make_generators", tampered)
        with pytest.raises(ConstructionError, match="degree 3 deviates from its closed form"):
            construct(ExceptionalParams(F5, 1, 2, 1))
        code = cli.main(["construct", "--p", "5", "--c", "1", "--n", "2", "--m", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED
        assert out == ""
        assert err == "construction failed: element at degree 3 deviates from its closed form\n"

    def test_non_proportional_bracket_raises(self, monkeypatch, capsys):
        # at q = 5, [e_3, e_2] = 0 e_5; one row added to it leaves the module
        # coefficient 0, so the rows no longer match 0 times e_5's
        bracket = RowElement.bracket

        def tampered(self, other):
            x = bracket(self, other)
            if (self.degree, other.degree) == (3, 2):
                x.rows = {**x.rows, 0: 1}
            return x

        monkeypatch.setattr(RowElement, "bracket", tampered)
        with pytest.raises(ConstructionError,
                           match=r"^\[e_3, e_2\] is not a scalar multiple of e_5$"):
            construct(ExceptionalParams(F5, 1, 2, 1))
        code = cli.main(["construct", "--p", "5", "--c", "1", "--n", "2", "--m", "1"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED
        assert out == ""
        assert err == "construction failed: [e_3, e_2] is not a scalar multiple of e_5\n"

    @pytest.mark.parametrize("p, c, n, m, depth", [
        (211, 1, 2, 1, None), (3, 7, 2, 1, 350), (7, 3, 3, 2, 700)])
    def test_build_keeps_a_window(self, p, c, n, m, depth):
        # every element up to degree q holds a column of C(., q - j): about
        # q^2/2 operator entries in all at q = 211, 2.7 MiB if kept; at
        # q = 2187, z alone has 2187 rows
        params = ExceptionalParams(PrimeField(p), c, n, m)
        tracemalloc.start()
        try:
            algebra = construct(params, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        depth = params.default_depth if depth is None else depth
        assert sorted(algebra.elements) == list(range(depth, depth + n + 1))
        assert peak < 512 * 1024

    def test_depth_above_bound_is_refused(self, monkeypatch):
        params = ExceptionalParams(F3, 1, 2, 1)
        with pytest.raises(ValueError, match="CONSTRUCT_MAX_DEGREE"):
            construct(params, CONSTRUCT_MAX_DEGREE - 1)
        # the two-path check builds the n = m + 1 member n - m - 1 deeper,
        # to the same top degree, so a report at the largest depth runs
        monkeypatch.setattr(exceptional, "CONSTRUCT_MAX_DEGREE", 100)
        params = ExceptionalParams(F3, 2, 4, 1)
        assert two_path_check(params, construct(params, 96).sequence)
        with pytest.raises(ValueError, match="CONSTRUCT_MAX_DEGREE"):
            construct(params, 97)

    def test_constituent_structure_q27(self):
        params = ExceptionalParams(F3, 3, 2, 1)
        algebra = construct(params, 70)
        report = constituents(algebra.sequence)
        assert report.ell == 28
        assert report.lengths() == [28, 27]
        assert all(c.ordinary for c in report.constituents[1:])


class TestCoverage:
    def test_frozen_values(self):
        cov = first_length_coverage(F5, 2, 4)
        assert cov["by_m"] == {1: 26, 2: 28, 3: 28}
        assert cov["values"] == [26, 28] == cov["expected"]
        assert cov["ok"]

    @pytest.mark.parametrize("field,c,n", [
        (F3, 2, 2), (F3, 3, 2), (F5, 2, 2), (F5, 2, 3), (F5, 2, 4),
        (F7, 2, 4), (F7, 2, 5), (F7, 2, 6),
    ])
    def test_even_values_in_window(self, field, c, n):
        cov = first_length_coverage(field, c, n)
        assert cov["ok"], cov


class TestAbelianIdeal:
    def test_requires_parent_shape(self):
        params = ExceptionalParams(F5, 2, 4, 1)
        with pytest.raises(ValueError, match="n = m \\+ 1"):
            abelian_ideal_check(params, construct(params).sequence)

    @pytest.mark.parametrize("params", [
        ExceptionalParams(F3, 1, 2, 1),
        ExceptionalParams(F3, 2, 2, 1),
        ExceptionalParams(F5, 1, 2, 1),
        ExceptionalParams(F5, 2, 3, 2),
    ])
    def test_holds_on_family(self, params):
        report = abelian_ideal_check(params, construct(params).sequence)
        assert report.ok
        assert report.pairs_checked > 0
        assert report.failure is None

    def test_tampered_sequence_caught(self):
        params = ExceptionalParams(F5, 1, 2, 1)
        algebra = construct(params)
        betas = list(algebra.sequence.betas)
        betas[9 - 3] = 2   # beta_9 = 0 sits between constituents; 2 breaks it
        report = abelian_ideal_check(params, BetaSequence(F5, 2, betas))
        assert not report.ok
        assert report.failure is not None

    @pytest.mark.parametrize("check", [abelian_ideal_check, two_path_check,
                                       exceptional_report])
    @pytest.mark.parametrize("other", [ExceptionalParams(F5, 1, 2, 1),
                                       ExceptionalParams(F3, 2, 3, 2)])
    def test_sequence_of_another_member_refused(self, check, other):
        # an F_5 sequence, or one of type 3, is no sequence of the F_3
        # type-2 member, so its closed forms say nothing about it
        params = ExceptionalParams(F3, 2, 2, 1)
        with pytest.raises(ValueError, match="is not one of member p=3, n=2"):
            check(params, construct(other).sequence)

    def test_report_serializes(self):
        params = ExceptionalParams(F3, 1, 2, 1)
        report = abelian_ideal_check(params, construct(params).sequence)
        json.dumps(report.to_dict())

    def test_memory_is_a_level_not_a_table(self):
        # the pair block up to level D + n = 2193 holds 135,056
        # coefficients; the check reads two single entries per level and
        # keeps none of them
        params = ExceptionalParams(F3, 6, 2, 1)
        D = params.default_depth
        seq = BetaSequence(F3, 2, closed_form_betas(params, D))
        tracemalloc.start()
        try:
            report = abelian_ideal_check(params, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert report.pairs_checked == 135_056
        assert peak < 256 * 1024


class TestTwoPaths:
    def test_tower_raises_type_stepwise(self):
        params = ExceptionalParams(F5, 2, 2, 1)
        seq = construct(params, 60).sequence
        tower = subalgebra_sequence(subalgebra_sequence(seq))
        assert tower.n == 4 and tower.depth == 58

    @pytest.mark.parametrize("params", [
        ExceptionalParams(F5, 2, 4, 1),
        ExceptionalParams(F5, 2, 3, 1),
        ExceptionalParams(F3, 3, 2, 1),
        ExceptionalParams(F7, 1, 4, 2),
    ])
    def test_construction_and_tower_agree(self, params):
        assert two_path_check(params, construct(params, 2 * params.q + 2 * params.n).sequence)

    def test_tampered_sequence_caught(self):
        params = ExceptionalParams(F5, 2, 4, 1)
        algebra = construct(params, 60)
        betas = list(algebra.sequence.betas)
        betas[-1] = (betas[-1] + 1) % 5
        assert not two_path_check(params, BetaSequence(F5, 4, betas))

    def test_substituted_parent_member_caught_by_closed_forms(self):
        # n = m + 1 is its own parent: the two-path check builds nothing
        # and has nothing to compare, so the closed forms catch it
        params = ExceptionalParams(F5, 2, 2, 1)
        algebra = construct(params, 60)
        betas = list(algebra.sequence.betas)
        betas[-1] = (betas[-1] + 1) % 5
        fake = BetaSequence(F5, 2, betas)
        assert two_path_check(params, fake)
        report = exceptional_report(params, fake)
        assert not report.closed_form_ok
        assert not report.genfunc_ok
        assert not report.ok


class TestReport:
    @pytest.mark.parametrize("params", [
        ExceptionalParams(F3, 1, 2, 1),
        ExceptionalParams(F3, 2, 2, 1),
        ExceptionalParams(F3, 3, 2, 1),
        ExceptionalParams(F5, 1, 2, 1),
        ExceptionalParams(F5, 1, 3, 2),
        ExceptionalParams(F5, 2, 3, 2),
    ])
    def test_family_members_pass(self, params):
        report = exceptional_report(params, construct(params).sequence)
        assert report.ok, report.to_dict()

    def test_report_contents(self):
        params = ExceptionalParams(F3, 2, 3, 2)
        report = exceptional_report(params, construct(params).sequence)
        assert report.ell == 12
        assert report.lengths[:3] == [12, 8, 9]
        assert report.ideal_ok is True      # n = m + 1: the ideal check runs
        assert report.jacobi_depth == 27
        data = json.dumps(report.to_dict(), sort_keys=True)
        assert '"ok": true' in data

    def test_ideal_check_skipped_off_parent(self):
        params = ExceptionalParams(F3, 2, 3, 1)
        report = exceptional_report(params, construct(params).sequence)
        assert report.ideal_ok is None
        assert report.ok

    def test_flipped_entry_fails_report(self):
        params = ExceptionalParams(F5, 1, 2, 1)
        algebra = construct(params)
        betas = list(algebra.sequence.betas)
        betas[10 - 3] = (betas[10 - 3] + 3) % 5
        report = exceptional_report(params, BetaSequence(F5, 2, betas))
        assert not report.ok
        assert not report.closed_form_ok
        assert not report.jacobi_ok

    def test_jacobi_cap_respected(self):
        params = ExceptionalParams(F3, 1, 2, 1)
        report = exceptional_report(params, construct(params).sequence, jacobi_cap=7)
        assert report.jacobi_depth == 7

    def test_jacobi_cap_below_type_refused(self):
        # no prefix is shallower than n, so a lower cap would check nothing
        params = ExceptionalParams(F3, 1, 2, 1)
        seq = construct(params).sequence
        with pytest.raises(ValueError, match="^jacobi depth must be at least n = 2, got 1$"):
            exceptional_report(params, seq, jacobi_cap=1)
        assert exceptional_report(params, seq, jacobi_cap=2).jacobi_depth == 2

    def test_jacobi_cap_past_the_prefix_checks_all_of_it(self):
        params = ExceptionalParams(F3, 1, 2, 1)
        seq = construct(params).sequence
        report = exceptional_report(params, seq, jacobi_cap=10 * seq.depth)
        assert report.jacobi_depth == seq.depth and report.jacobi_ok


class TestConstructionMode:
    def test_large_n_small_q(self):
        # n just below q, still inside the permitted parameter range
        params = ExceptionalParams(F3, 1, 3, 2)
        assert params.mode == "construction"
        algebra = construct(params, 20)
        assert jacobi_verify(algebra.sequence).ok

    def test_sequence_need_not_follow_theorem_forms(self):
        # 2n > q + m: constructible, but the closed forms refuse
        params = ExceptionalParams(F5, 1, 4, 1)
        algebra = construct(params, 25)
        assert jacobi_verify(algebra.sequence).ok
        with pytest.raises(ValueError):
            closed_form_betas(params, 25)
