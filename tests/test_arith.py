"""Prime-field residues, digit-wise binomials, and polynomial arithmetic."""

import math
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from maxclass.arith import (
    _FACTORIALS,
    TABLE_LIMIT,
    FieldMismatch,
    PrimeField,
    binom_columns_mod_p,
    binom_mod_p,
    signed_binom_row,
)
from maxclass.divided_powers import DividedPowers
from maxclass.sequences import BetaSequence, bracket_coeff

from element_helpers import SemidirectElement, generic_generators
from paper_helpers import is_power_of, lucas_symmetry_check
from poly_helpers import FpPoly, x_minus_one_pow

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_pow(f: FpPoly, e: int) -> FpPoly:
    """f^e by repeated squaring."""
    if e < 0:
        raise ValueError("negative exponent")
    result = FpPoly.one(f.field)
    base = f
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


class TestPrimeField:
    def test_rejects_nonprime(self):
        for bad in (0, 1, 4, 6, 9, 15, 100):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_rejects_characteristic_two(self):
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_rejects_a_prime_above_the_bound(self):
        # 10^9 + 7 is prime: the bound, not the primality test, refuses it
        with pytest.raises(ValueError, match="^modulus 1000000007 exceeds the supported bound "
                                             "1000000000$"):
            PrimeField(10**9 + 7)

    def test_context_equality(self):
        assert PrimeField(5) == F5
        assert PrimeField(5) != F7

    def test_cross_context_rejected_eagerly(self):
        with pytest.raises(FieldMismatch):
            _ = FpPoly(F5, [1, 2]) * FpPoly(F7, [1])


class TestResidues:
    """Scalars leave the package as plain ints in [0, p)."""

    @pytest.mark.parametrize("p", [3, 5, 101])
    def test_edges_return_residues(self, p):
        def residue(x):
            assert type(x) is int and 0 <= x < p, x
            return x

        field = PrimeField(p)
        rng = random.Random(p)
        seq = BetaSequence(field, 2, [rng.randrange(-3 * p, 3 * p) for _ in range(12)])
        for a in range(3, seq.depth + 1):
            residue(seq.beta(a))
            for b in range(2, seq.depth - a + 3):   # window end a + b - 2 <= depth
                residue(bracket_coeff(seq, a, b))
            assert bracket_coeff(seq, a, seq.depth - a + 3) is None
        al = BetaSequence(field, 1, [rng.randrange(-3 * p, 3 * p) if k % 2 else 0
                                     for k in range(10)])
        for i in range(2, al.depth + 1):
            residue(al.beta(i))
        f = FpPoly(field, [rng.randrange(-3 * p, 3 * p) for _ in range(6)] + [1])
        for j in range(-1, len(f.coeffs) + 2):
            residue(f[j])
        ring = DividedPowers(field, 1)
        z, e_n = generic_generators(ring, 2, 1)
        u = e_n.bracket(z)
        for k in (-p - 3, -1, 0, 1, 2, p + 2):
            assert residue(u.scale(k).proportional_to(u)) == k % p
        assert residue(SemidirectElement.zero(ring).proportional_to(u)) == 0
        assert u.proportional_to(z) is None


class TestBinom:
    def test_small_values(self):
        # C(26, 5) = 65780 = 5 * 13156, so it vanishes mod 5
        assert binom_mod_p(26, 5, 5) == 0
        assert math.comb(26, 5) % 5 == 0
        assert binom_mod_p(4, 2, 5) == 1  # 6 mod 5
        assert binom_mod_p(3, 5, 7) == 0  # lower index exceeds upper

    # c = 1 builds every column from the digit rows alone
    @pytest.mark.parametrize("p, c", [(2, 5), (3, 4), (5, 3), (7, 2), (31, 1), (101, 1)])
    def test_column_is_the_nonzero_part(self, p, c):
        q = p ** c
        want = [{a: v for a in range(q) if (v := binom_mod_p(a, b, p))} for b in range(q)]
        for b in range(q):
            column = next(binom_columns_mod_p(b, q, p))
            assert column == want[b]
            assert list(column) == sorted(column)
            # a run down from b crosses the block boundary below it
            assert list(islice(binom_columns_mod_p(b, q, p), p + 1)) == want[b::-1][:p + 1]
        assert list(binom_columns_mod_p(q - 1, q, p)) == want[::-1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binom_mod_p(-1, 0, 5)
        with pytest.raises(ValueError):
            binom_mod_p(3, -2, 5)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_factorial_oracle_exhaustive(self, p):
        # independent oracle: exact factorial-based binomial, reduced mod p
        for a in range(401):
            for b in range(401):
                assert binom_mod_p(a, b, p) == math.comb(a, b) % p

    @pytest.mark.parametrize("p", [3, 5, 7, 1999, 10007])
    def test_factorial_oracle_sampled_to_2000(self, p):
        rng = random.Random(20260823 + p)
        for _ in range(5000):
            a = rng.randrange(2001)
            b = rng.randrange(2001)
            assert binom_mod_p(a, b, p) == (math.comb(a, b) % p if b <= a else 0)

    def test_digits_past_the_table_limit(self):
        # p may be as large as MAX_PRIME: a digit d >= TABLE_LIMIT is multiplied
        # out from min(e, d - e) factors, and the table of p stays below the limit
        p, rng = 999999937, random.Random(20261020)
        assert binom_mod_p(10**8, 1, p) == 10**8
        assert binom_mod_p(10**8, 10**8 - 2, p) == math.comb(10**8, 2) % p
        assert binom_mod_p(TABLE_LIMIT + 5, 3, p) == math.comb(TABLE_LIMIT + 5, 3) % p
        for _ in range(300):
            a, k = rng.randrange(TABLE_LIMIT, 3 * p), rng.randrange(40)
            assert binom_mod_p(a, rng.choice((k, a - k)), p) == math.comb(a, k) % p
        assert len(_FACTORIALS[p][0]) <= TABLE_LIMIT

    def test_signed_row(self):
        # (-1)^i C(4, i) mod 5: 1, -4, 6, -4, 1
        assert signed_binom_row(4, 5) == (1, 1, 1, 1, 1)
        assert signed_binom_row(2, 7) == (1, 5, 1)


class TestLucasSymmetry:
    @pytest.mark.parametrize("p,q", [(3, 9), (5, 25), (3, 27), (7, 49)])
    def test_exhaustive(self, p, q):
        for a in range(q):
            for b in range(q):
                assert lucas_symmetry_check(a, b, q, p), (a, b, q, p)

    def test_worked_instance(self):
        # a=3, b=5, q=9: C(3, 3) = 1 and (+1) * C(5, 5) = 1
        assert binom_mod_p(3, 3, 3) == 1
        assert lucas_symmetry_check(3, 5, 9, 3)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            lucas_symmetry_check(1, 1, 10, 3)
        with pytest.raises(ValueError):
            lucas_symmetry_check(9, 0, 9, 3)

    @settings(max_examples=300, derandomize=True)
    @given(st.sampled_from([(3, 3), (3, 9), (3, 27), (3, 81), (3, 2187),
                            (5, 5), (5, 25), (5, 125), (5, 3125),
                            (7, 7), (7, 49), (7, 2401)]),
           st.integers(0, 10 ** 4), st.integers(0, 10 ** 4))
    def test_randomized_up_to_1e4(self, pq, a, b):
        p, q = pq
        assert lucas_symmetry_check(a % q, b % q, q, p)


class TestVandermonde:
    def test_randomized(self):
        # convolution identity: sum_g C(u, g) C(v, w - g) = C(u + v, w) mod p
        rng = random.Random(1729)
        configs = [(3, 27), (5, 25), (7, 49)]
        for _ in range(10 ** 4):
            p, q = configs[rng.randrange(3)]
            u, v, w = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            total = 0
            for g in range(w + 1):
                total += binom_mod_p(u, g, p) * binom_mod_p(v, w - g, p)
            assert total % p == binom_mod_p(u + v, w, p)


class TestIsPowerOf:
    def test_values(self):
        assert is_power_of(9, 3) and is_power_of(27, 3) and is_power_of(3, 3)
        assert not is_power_of(1, 3)
        assert not is_power_of(12, 3)
        assert not is_power_of(25, 3)
        assert is_power_of(3125, 5)


coeff_lists = st.lists(st.integers(-20, 20), max_size=8)


class TestFpPoly:
    def test_normalization(self):
        f = FpPoly(F5, [1, 2, 0, 0])
        assert f.coeffs == (1, 2)
        assert FpPoly.zero(F5).coeffs == ()
        assert FpPoly(F5, [0, 0, 5]).is_zero()

    def test_worked_product(self):
        # (2t)(2t) = 4t^2 = t^2 over F_3
        f = FpPoly.monomial(F3, 2, 1)
        assert f * f == FpPoly(F3, [0, 0, 1])

    def test_coeff_outside_support_is_zero(self):
        f = FpPoly(F5, [1, 2])
        assert f[5] == 0 and f[-1] == 0
        assert f[1] == 2

    @settings(max_examples=200, derandomize=True)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_ring_axioms(self, a, b, c):
        f, g, h = FpPoly(F7, a), FpPoly(F7, b), FpPoly(F7, c)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + FpPoly.zero(F7) == f
        assert f * FpPoly.one(F7) == f
        assert f - f == FpPoly.zero(F7)

    def test_pow_matches_repeated_mul(self):
        f = FpPoly(F5, [4, 1])
        acc = FpPoly.one(F5)
        for e in range(8):
            assert poly_pow(f, e) == acc
            acc = acc * f

    def test_shift(self):
        assert FpPoly(F5, [1, 2]).shift(2) == FpPoly(F5, [0, 0, 1, 2])
        with pytest.raises(ValueError):
            FpPoly(F5, [1]).shift(-1)


class TestXMinusOnePow:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_repeated_squaring(self, p):
        field = PrimeField(p)
        base = FpPoly(field, [-1, 1])
        for k in (0, 1, 2, 7, p, p + 1, 2 * p, 25, 49):
            assert x_minus_one_pow(field, k) == poly_pow(base, k)

    @pytest.mark.parametrize("p,k", [(5, 50), (5, 27), (3, 28), (7, 52)])
    def test_frobenius_factorization(self, p, k):
        # (X - 1)^k = (X^p - 1)^(k') (X - 1)^(k0) where k = k' p + k0
        field = PrimeField(p)
        kp, k0 = divmod(k, p)
        frob = FpPoly(field, [-1] + [0] * (p - 1) + [1])  # X^p - 1
        assert x_minus_one_pow(field, k) == poly_pow(frob, kp) * x_minus_one_pow(field, k0)
