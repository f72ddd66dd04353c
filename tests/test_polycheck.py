"""Window-vanishing checks and the admissible-k classification."""

import itertools
import random
from pathlib import Path

import pytest

from maxclass.arith import FpPoly, PrimeField, product_coeff_int, x_minus_one_pow
from maxclass.polycheck import (ClassifyReport, _check_structure, classify_admissible_k,
                                in_small_k_menu)

from paper_helpers import expected_pairs, in_large_k_menu, lemma_pairs_check

FIXTURES = Path(__file__).parent / "fixtures"
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


# The window evaluated one coefficient at a time, as a cross-check of the
# row reduction in classify_admissible_k, and the fixture text format.

def product_coeff(g: FpPoly, k: int, j: int) -> int:
    return product_coeff_int(g.coeffs, k, j, g.field.p)


class RangeCondition:
    """The window ceil((k + n)/2) <= j < k for a fixed exponent k and degree
    cutoff n."""

    def __init__(self, field: PrimeField, n: int, k: int):
        p = field.p
        if not (1 < n < p):
            raise ValueError(f"need 1 < n < p, got n={n}, p={p}")
        if k <= n + 1:
            raise ValueError(f"need k > n + 1, got k={k}")
        self.field = field
        self.n = n
        self.k = k
        self.j_lo = (k + n + 1) // 2  # ceil((k + n)/2)
        self.j_hi = k  # exclusive


def range_condition_holds(g: FpPoly, cond: RangeCondition) -> bool:
    """Whether every window coefficient of (X - 1)^k g(X) vanishes.

    g must be monic of degree n - 1 over the condition's field.
    """
    if g.field != cond.field:
        raise ValueError("polynomial and condition live over different fields")
    if len(g.coeffs) != cond.n or g.coeffs[-1] != 1:
        raise ValueError(f"g must be monic of degree {cond.n - 1}, got {g!r}")
    return all(product_coeff_int(g.coeffs, cond.k, j, cond.field.p) == 0
               for j in range(cond.j_lo, cond.j_hi))


def classify_fixture_text(report: ClassifyReport) -> str:
    """One line per admissible k, '(p, n, k): g1; g2; ...' with g as
    comma-separated coefficients, low degree first."""
    lines = [f"# classify p={report.field.p} n={report.n} k_max={report.k_max}"]
    for k in sorted(report.survivors):
        gs = "; ".join(",".join(str(c) for c in g) for g in report.survivors[k])
        lines.append(f"({report.field.p}, {report.n}, {k}): {gs}")
    return "\n".join(lines) + "\n"


class TestRangeCondition:
    def test_window_bounds(self):
        cond = RangeCondition(F5, 3, 48)
        assert cond.j_lo == 26  # ceil((48 + 3)/2)
        assert cond.j_hi == 48
        assert RangeCondition(F5, 3, 7).j_lo == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            RangeCondition(F5, 1, 10)  # n too small
        with pytest.raises(ValueError):
            RangeCondition(F5, 5, 10)  # n = p
        with pytest.raises(ValueError):
            RangeCondition(F5, 3, 4)  # k <= n + 1


class TestProductCoeff:
    def test_against_full_product(self):
        # dual route: the windowed coefficient must equal the coefficient of
        # the fully expanded product (X - 1)^k g
        rng = random.Random(7)
        for field in (F3, F5, F7):
            p = field.p
            for _ in range(25):
                k = rng.randrange(1, 60)
                g = FpPoly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                full = x_minus_one_pow(field, k) * g
                for j in range(k + len(g.coeffs) + 1):
                    assert product_coeff_int(g.coeffs, k, j, p) == full[j], (p, k, j)

    def test_fp_wrapper(self):
        g = FpPoly(F5, [1, 3, 1])
        assert product_coeff(g, 2, 0) == 1


class TestRangeConditionHolds:
    def test_x_minus_one_square_at_48(self):
        # k = 2q - n + 1 with q = 25: (X - 1)^50 = (X^25 - 1)^2 has support
        # {0, 25, 50}, missing the whole window
        g = x_minus_one_pow(F5, 2)
        assert g.coeffs == (1, 3, 1)
        assert range_condition_holds(g, RangeCondition(F5, 3, 48))

    def test_x_squared_at_q(self):
        # k = q: (X^q - 1) g has no coefficients strictly between deg g and q
        assert range_condition_holds(FpPoly(F5, [0, 0, 1]), RangeCondition(F5, 3, 25))

    def test_generic_failure(self):
        assert not range_condition_holds(FpPoly(F5, [1, 1, 1]), RangeCondition(F5, 3, 30))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            range_condition_holds(FpPoly(F5, [1, 2]), RangeCondition(F5, 3, 10))
        with pytest.raises(ValueError):
            range_condition_holds(FpPoly(F5, [1, 0, 2]), RangeCondition(F5, 3, 10))


class TestClassify:
    def test_p5_n3_k60(self):
        rep = classify_admissible_k(F5, 3, 60)
        assert rep.ok
        assert sorted(rep.survivors) == [5, 6, 7, 8, 23, 24, 25, 26, 27, 48]
        # unique survivor at k = 2q - n + 1 is (X - 1)^(n-1)
        assert rep.survivors[48] == [(1, 3, 1)]
        # at k = q every monic g survives
        assert len(rep.survivors[25]) == 25
        # at k = q + 1 every survivor is divisible by X
        assert all(g[0] == 0 for g in rep.survivors[26])
        # at k = q - 1 every survivor is divisible by (X - 1): g(1) = 0
        assert all(sum(g) % 5 == 0 for g in rep.survivors[24])

    def test_menu_membership_helpers(self):
        assert in_large_k_menu(5, 3, 48)
        assert in_large_k_menu(5, 3, 127) and not in_large_k_menu(5, 3, 128)
        assert not in_large_k_menu(5, 3, 30)
        assert in_small_k_menu(5, 3, 8)  # interval 2p - n < k < 2p
        assert in_small_k_menu(3, 2, 9)  # k = q for the small power q = 9
        assert not in_small_k_menu(5, 3, 11)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_menus_agree_from_4p(self, p):
        # classify tests every survivor against the small-k menu alone
        for n in range(2, p):
            for k in range(4 * p, 4 * p ** 3 + 1):
                assert in_small_k_menu(p, n, k) == in_large_k_menu(p, n, k), (n, k)

    def test_regression_fixture_p5(self):
        rep = classify_admissible_k(F5, 3, 130)
        assert rep.ok
        expected = (FIXTURES / "classify_p5_n3_k130.txt").read_text()
        assert classify_fixture_text(rep) == expected

    def test_regression_fixture_p7(self):
        rep = classify_admissible_k(F7, 3, 120)
        assert rep.ok
        expected = (FIXTURES / "classify_p7_n3_k120.txt").read_text()
        assert classify_fixture_text(rep) == expected

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            classify_admissible_k(F7, 6, 400)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            classify_admissible_k(F5, 5, 30)


def x_minus_one_power_coeffs(e: int, p: int) -> list[int]:
    """(X - 1)^e over F_p by repeated multiplication, low degree first."""
    out = [1]
    for _ in range(e):
        out = [((out[i - 1] if i else 0) - (out[i] if i < len(out) else 0)) % p
               for i in range(len(out) + 1)]
    return out


def long_division_remainder(g, d, p: int) -> list[int]:
    """g mod d over F_p by schoolbook long division, for monic d;
    coefficient lists low degree first."""
    rem = [c % p for c in g]
    for top in range(len(rem) - 1, len(d) - 2, -1):
        if f := rem[top]:
            for j, c in enumerate(d):
                rem[top - len(d) + 1 + j] = (rem[top - len(d) + 1 + j] - f * c) % p
    return rem[:len(d) - 1]


class TestStructureCheck:
    def test_each_violation_branch(self):
        # p = 5, n = 3, q = 25: one survivor breaking each of the three shapes
        survivors = {
            24: [(1, 3, 1), (1, 1, 1)],  # k = q - 1: g(1) = 3, so X - 1 does not divide g
            26: [(0, 1, 1), (1, 0, 1)],  # k = q + 1: g(0) = 1, so X does not divide g
            48: [(1, 0, 1)],             # k = 2q - n + 1: not (X - 1)^2 = X^2 + 3X + 1
        }
        report = ClassifyReport(F5, 3, 60, survivors, [])
        _check_structure(report)
        assert report.structure_violations == [
            (24, (1, 1, 1), "(X-1)^1 does not divide g"),
            (26, (1, 0, 1), "X^1 does not divide g"),
            (48, (1, 0, 1), "expected unique survivor (X-1)^2"),
        ]
        assert not report.structure_ok and report.menu_ok
        second = ClassifyReport(F5, 3, 60, {48: [(1, 3, 1), (1, 0, 1)]}, [])
        _check_structure(second)
        assert second.structure_violations == [
            (48, (1, 3, 1), "expected unique survivor (X-1)^2")]

    @pytest.mark.parametrize("p", [5, 7])
    def test_divisibility_matches_long_division(self, p):
        # every monic g of degree n - 1 <= 3 at k = q - e, e < n, q = p^2
        q = p * p
        for n in (2, 3, 4):
            gs = [(*head, 1) for head in itertools.product(range(p), repeat=n - 1)]
            report = ClassifyReport(PrimeField(p), n, 2 * q,
                                    {q - e: list(gs) for e in range(1, n)}, [])
            _check_structure(report)
            flagged = {(k, g) for k, g, why in report.structure_violations}
            assert all("does not divide g" in why for _, _, why in report.structure_violations)
            want = {(q - e, g) for e in range(1, n) for g in gs
                    if any(long_division_remainder(g, x_minus_one_power_coeffs(e, p), p))}
            assert flagged == want, (p, n)
            assert want  # some g is not divisible, so the check is exercised


class TestLemmaPairs:
    def test_p5_k60_exact(self):
        pairs = lemma_pairs_check(F5, 60)
        assert set(pairs) == expected_pairs(F5, 60)
        assert set(pairs) == {(2, 3), (3, 2), (4, 1), (5, 0), (9, 1), (24, 1), (25, 0), (49, 1)}

    def test_p5_strengthened_drops_odd_k_members(self):
        pairs = set(lemma_pairs_check(F5, 60, strengthened=True))
        assert pairs == expected_pairs(F5, 60, strengthened=True)
        assert (3, 2) not in pairs and (9, 1) not in pairs and (49, 1) not in pairs
        assert (2, 3) in pairs and (24, 1) in pairs

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_menu_equality_to_2p2(self, p):
        field = PrimeField(p)
        for strengthened in (False, True):
            pairs = set(lemma_pairs_check(field, 2 * p * p, strengthened=strengthened))
            assert pairs == expected_pairs(field, 2 * p * p, strengthened=strengthened)

    def test_regression_fixture(self):
        lines = ["# lemma pairs (k, a) for k <= 2 p^2, basic window"]
        for p in (3, 5, 7):
            for k, a in lemma_pairs_check(PrimeField(p), 2 * p * p):
                lines.append(f"p={p}: ({k}, {a})")
        assert "\n".join(lines) + "\n" == (FIXTURES / "lemma_pairs.txt").read_text()
