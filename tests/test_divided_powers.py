import random

import pytest

from maxclass.arith import PrimeField
from maxclass.divided_powers import DividedPowers, make_generators
from maxclass.sequences import BetaSequence, RationalSeries, constituents, jacobi_verify
from element_helpers import (DPElement, Endo, SemidirectElement, dp_mul, generic_generators,
                             graded_degree, mul_coeff, poly_scale)
from poly_helpers import FpPoly

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

SMALL_CONFIGS = [(F3, 1), (F5, 1), (F7, 1), (F3, 2), (F5, 2), (F3, 3)]


def dp_product_coeff(ring, exponents):
    """Scalar picked up by multiplying out x^(e1) x^(e2) ...; 0 if truncated."""
    coeff, total = 1, 0
    for e in exponents:
        out = dp_mul(ring, total, e)
        if out is None:
            return 0
        c, total = out
        coeff = coeff * c % ring.field.p
    return coeff


class TestDividedPowersRing:
    def test_mul_coeff(self):
        ring = DividedPowers(F3, 2)
        assert mul_coeff(ring, 1, 1) == 2
        assert mul_coeff(ring, 1, 2) == 0      # C(3,1) = 3
        assert mul_coeff(ring, 0, 7) == 1

    def test_dp_mul_examples(self):
        ring = DividedPowers(F3, 2)
        assert dp_mul(ring, 4, 5) is None      # reaches q = 9
        assert dp_mul(ring, 1, 2) is None      # C(3,1) vanishes mod 3
        assert dp_mul(ring, 1, 1) == (2, 2)
        assert dp_mul(ring, 0, 8) == (1, 8)

    def test_exponent_range_enforced(self):
        ring = DividedPowers(F5, 1)
        with pytest.raises(ValueError):
            dp_mul(ring, 5, 0)
        with pytest.raises(ValueError):
            dp_mul(ring, 0, -1)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            DividedPowers(F5, 0)

    @pytest.mark.parametrize("field,c", SMALL_CONFIGS)
    def test_truncation_coefficient_vanishes(self, field, c):
        # for exponents inside [0, q), any product reaching q has binomial
        # coefficient 0 mod p, so truncation discards nothing visible
        ring = DividedPowers(field, c)
        for i in range(ring.q):
            for j in range(ring.q - i, ring.q):
                assert mul_coeff(ring, i, j) == 0, (i, j)

    @pytest.mark.parametrize("field,c", SMALL_CONFIGS)
    def test_commutative(self, field, c):
        ring = DividedPowers(field, c)
        for i in range(ring.q):
            for j in range(i, ring.q):
                assert dp_mul(ring, i, j) == dp_mul(ring, j, i)

    @pytest.mark.parametrize("field,c", SMALL_CONFIGS)
    def test_associative(self, field, c):
        # (x^(i) x^(j)) x^(k) == x^(i) (x^(j) x^(k)), truncation included
        ring = DividedPowers(field, c)
        p = ring.field.p
        for i in range(ring.q):
            for j in range(ring.q):
                for k in range(ring.q):
                    left = dp_product_coeff(ring, (i, j, k))
                    inner = dp_mul(ring, j, k)
                    if inner is None:
                        right = 0
                    else:
                        outer = dp_mul(ring, i, inner[1])
                        right = 0 if outer is None else inner[0] * outer[0] % p
                    assert left == right, (i, j, k)


class TestDPElement:
    def test_zero_and_add(self):
        ring = DividedPowers(F5, 1)
        a = DPElement.basis(ring, 2)
        b = DPElement.basis(ring, 2, coeff=4)
        assert not (a + b)
        assert a + DPElement(ring) == a

    def test_scale_by_poly(self):
        # t^s times an operator or element shifts the t-power of every key;
        # mult_op writes that power into its keys directly
        ring = DividedPowers(F5, 1)
        t = FpPoly.monomial(F5, 1, 1)
        assert poly_scale(DPElement.basis(ring, 1), t) == DPElement.basis(ring, 1, t_power=1)
        for shift in range(ring.q):
            for s in range(3):
                want = poly_scale(Endo.mult_op(ring, shift), FpPoly.monomial(F5, 1, s))
                assert Endo.mult_op(ring, shift, t_power=s) == want

    def test_monomials(self):
        ring = DividedPowers(F5, 1)
        el = DPElement.basis(ring, 0, t_power=2, coeff=3) + DPElement.basis(ring, 4)
        assert sorted(el.entries.items()) == [((0, 2), 3), ((4, 0), 1)]

    def test_exponent_bounds(self):
        ring = DividedPowers(F3, 1)
        with pytest.raises(ValueError):
            DPElement.basis(ring, 3)


def random_endo(ring, rng, max_entries=4, max_tdeg=2):
    polys = {}
    for _ in range(rng.randrange(max_entries + 1)):
        key = (rng.randrange(ring.q), rng.randrange(ring.q))
        polys[key] = [rng.randrange(ring.field.p) for _ in range(max_tdeg + 1)]
    return Endo(ring, {(row, col, s): c for (row, col), coeffs in polys.items()
                       for s, c in enumerate(coeffs)})


def random_element(ring, rng):
    parts = {}
    for _ in range(rng.randrange(4)):
        coeffs = [rng.randrange(ring.field.p) for _ in range(3)]
        parts[rng.randrange(ring.q)] = coeffs
    vec = DPElement(ring, {(i, s): c for i, coeffs in parts.items()
                           for s, c in enumerate(coeffs)})
    return SemidirectElement(vec, random_endo(ring, rng))


class TestEndo:
    def test_derivation_steps_down(self):
        ring = DividedPowers(F3, 2)
        d = Endo.derivation(ring)
        assert d.apply(DPElement.basis(ring, 5)) == DPElement.basis(ring, 4)
        assert not d.apply(DPElement.basis(ring, 0))

    @pytest.mark.parametrize("field,c", [(F3, 2), (F5, 2)])
    def test_derivation_bracket_with_multiplication(self, field, c):
        # [d/dx, mult by x^(r)] = mult by x^(r-1): the Leibniz rule in
        # operator form, driven by the Pascal identity on coefficients
        ring = DividedPowers(field, c)
        d = Endo.derivation(ring)
        for r in range(1, ring.q):
            assert d.bracket(Endo.mult_op(ring, r)) == Endo.mult_op(ring, r - 1)

    def test_mult_op_shift_of_q_refused(self):
        ring = DividedPowers(F3, 2)
        with pytest.raises(ValueError, match=r"shift must lie in \[0, 9\)"):
            Endo.mult_op(ring, ring.q)

    def test_z_op_action(self):
        ring = DividedPowers(F5, 1)
        z = Endo.z_op(ring)
        for i in range(1, ring.q):
            assert z.apply(DPElement.basis(ring, i)) == DPElement.basis(ring, i - 1, coeff=-1)
        assert z.apply(DPElement.basis(ring, 0)) == DPElement.basis(ring, ring.q - 1, t_power=1, coeff=-1)

    @pytest.mark.parametrize("field,c", [(F3, 2), (F5, 2)])
    def test_scaled_multiplication_bracket_z(self, field, c):
        # [t x^(a) mult, Z] = t x^(a-1) mult: the ladder the construction
        # climbs; exact for every a >= 1 including the wrap at x^(0)
        ring = DividedPowers(field, c)
        z = Endo.z_op(ring)
        for a in range(1, ring.q):
            lhs = Endo.mult_op(ring, a, t_power=1).bracket(z)
            assert lhs == Endo.mult_op(ring, a - 1, t_power=1), a

    def test_multiplications_commute(self):
        ring = DividedPowers(F3, 2)
        ops = [Endo.mult_op(ring, r) for r in range(ring.q)]
        for a in ops:
            for b in ops:
                assert not a.bracket(b)

    def test_compose_associative_random(self):
        ring = DividedPowers(F3, 2)
        rng = random.Random(101)
        for _ in range(50):
            a, b, c = (random_endo(ring, rng) for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_apply_respects_composition(self):
        ring = DividedPowers(F5, 1)
        rng = random.Random(202)
        for _ in range(50):
            a, b = random_endo(ring, rng), random_endo(ring, rng)
            v = random_element(ring, rng).vec
            assert a.compose(b).apply(v) == a.apply(b.apply(v))

    def test_cross_ring_rejected(self):
        a = Endo.derivation(DividedPowers(F3, 1))
        b = Endo.derivation(DividedPowers(F3, 2))
        with pytest.raises(ValueError):
            a.compose(b)


class TestSemidirect:
    @pytest.mark.parametrize("field,c", [(F3, 1), (F5, 1), (F7, 1), (F3, 2)])
    def test_jacobi_random_triples(self, field, c):
        ring = DividedPowers(field, c)
        rng = random.Random(20260823 + field.p * 10 + c)
        zero = SemidirectElement.zero(ring)
        for _ in range(200):
            u, v, w = (random_element(ring, rng) for _ in range(3))
            total = (u.bracket(v).bracket(w) + v.bracket(w).bracket(u)
                     + w.bracket(u).bracket(v))
            assert total == zero

    def test_parts_from_two_rings_refused(self):
        with pytest.raises(ValueError,
                           match="module part and operator part from different rings"):
            SemidirectElement(DPElement(DividedPowers(F3, 2)), Endo(DividedPowers(F5, 1)))

    def test_antisymmetric(self):
        ring = DividedPowers(F5, 1)
        rng = random.Random(7)
        for _ in range(50):
            u, v = random_element(ring, rng), random_element(ring, rng)
            assert u.bracket(v) == -(v.bracket(u))
            assert not u.bracket(u)

    def test_module_is_abelian_ideal(self):
        ring = DividedPowers(F5, 1)
        rng = random.Random(8)
        for _ in range(20):
            f = SemidirectElement(random_element(ring, rng).vec, Endo(ring))
            g = SemidirectElement(random_element(ring, rng).vec, Endo(ring))
            assert not f.bracket(g)
            h = random_element(ring, rng)
            assert not h.bracket(f).op.entries

    def test_proportionality(self):
        ring = DividedPowers(F5, 1)
        rng = random.Random(9)
        u = random_element(ring, rng)
        assert u.scale(3).proportional_to(u) == 3
        assert SemidirectElement.zero(ring).proportional_to(u) == 0
        assert u.proportional_to(SemidirectElement.zero(ring)) is None
        v = u + SemidirectElement(DPElement.basis(ring, 2, t_power=4), Endo(ring))
        assert v.proportional_to(u) is None
        t_scaled = SemidirectElement(poly_scale(u.vec, FpPoly.monomial(F5, 1, 1)), Endo(ring))
        base = SemidirectElement(u.vec, Endo(ring))
        if u.vec:
            assert t_scaled.proportional_to(base) is None


class TestGenerators:
    def test_parameter_validation(self):
        ring = DividedPowers(F5, 1)
        with pytest.raises(ValueError):
            make_generators(ring, 2, 2)     # m < n required
        with pytest.raises(ValueError):
            make_generators(ring, 2, 0)
        with pytest.raises(ValueError):
            make_generators(ring, 6, 1)     # n <= q required

    @pytest.mark.parametrize("field, c, n, m", [
        (F5, 1, 2, 1), (F7, 1, 7, 3), (F3, 2, 3, 2), (F3, 2, 9, 4), (F5, 2, 4, 1),
        (F3, 3, 2, 1)])
    def test_row_forms_are_the_operator_generators(self, field, c, n, m):
        # q prime and q = p^c with c >= 2, with n < q and n = q
        ring = DividedPowers(field, c)
        q = ring.q
        z, e_n = generic_generators(ring, n, m)
        assert z == SemidirectElement(DPElement(ring), Endo.z_op(ring))
        assert e_n == SemidirectElement(DPElement.basis(ring, q + m - n),
                                        Endo.mult_op(ring, q - n, t_power=1))

    def test_closed_forms_q5(self):
        ring = DividedPowers(F5, 1)
        q, n, m = ring.q, 2, 1
        z, e_n = generic_generators(ring, n, m)
        e = {n: e_n}
        for j in range(n + 1, 3 * q + m + 1):
            e[j] = e[j - 1].bracket(z)
        for j in range(n, q + m + 1):
            want_op = Endo.mult_op(ring, q - j, t_power=1) if j <= q else Endo(ring)
            assert e[j] == SemidirectElement(DPElement.basis(ring, q + m - j), want_op), j
        for r in (1, 2):
            for j in range(1, q + 1):
                deg = r * q + m + j
                if deg <= q + m or deg > 3 * q + m:
                    continue
                want = SemidirectElement(DPElement.basis(ring, q - j, t_power=r), Endo(ring))
                assert e[deg] == want, deg

    def test_degrees_are_graded(self):
        ring = DividedPowers(F3, 2)
        z, e_n = generic_generators(ring, 3, 2)
        assert graded_degree(z, 2) == 1
        assert graded_degree(e_n, 2) == 3
        e = e_n
        for j in range(4, 30):
            e = e.bracket(z)
            assert graded_degree(e, 2) == j

    def test_extracted_betas_match_series_q5(self):
        # the structure constants of the q = 5, n = 2, m = 1 algebra equal
        # the expansion of X^5 (2 - X - X^5) / (1 - X^5) over F_5
        ring = DividedPowers(F5, 1)
        n, D = 2, 19
        z, e_n = generic_generators(ring, n, 1)
        e = {n: e_n}
        for j in range(n + 1, D + n + 1):
            e[j] = e[j - 1].bracket(z)
        betas = []
        for i in range(n + 1, D + 1):
            lam = e[i].bracket(e_n).proportional_to(e[i + n])
            assert lam is not None, i
            betas.append(int(lam))
        num = [0] * 5 + [2, -1, 0, 0, 0, -1]
        den = [1, 0, 0, 0, 0, -1]
        assert betas == RationalSeries(F5, num, den).expand(D)[n + 1:]
        assert jacobi_verify(BetaSequence(F5, n, betas)).ok

    def test_even_m_constituents_q9(self):
        # even m: first length q + m + 1 and the second constituent is one
        # short of q
        ring = DividedPowers(F3, 2)
        n, m, D = 3, 2, 30
        z, e_n = generic_generators(ring, n, m)
        e = {n: e_n}
        for j in range(n + 1, D + n + 1):
            e[j] = e[j - 1].bracket(z)
        betas = [int(e[i].bracket(e_n).proportional_to(e[i + n]))
                 for i in range(n + 1, D + 1)]
        seq = BetaSequence(F3, n, betas)
        assert jacobi_verify(seq).ok
        report = constituents(seq)
        assert report.ell == ring.q + m + 1
        assert report.lengths() == [12, 8, 9]


class TestGradedDegree:
    def test_zero_rejected(self):
        ring = DividedPowers(F5, 1)
        with pytest.raises(ValueError, match="zero"):
            graded_degree(SemidirectElement.zero(ring), 1)

    def test_inhomogeneous_rejected(self):
        ring = DividedPowers(F5, 1)
        z, e_n = generic_generators(ring, 2, 1)
        with pytest.raises(ValueError, match="inhomogeneous"):
            graded_degree(z + e_n, 1)

    def test_module_monomial_degree(self):
        ring = DividedPowers(F5, 1)
        el = SemidirectElement(DPElement.basis(ring, 3, t_power=2), Endo(ring))
        # degree r q + (q + m) - i = 2*5 + 6 - 3 with m = 1
        assert graded_degree(el, 1) == 13


class _Span:
    """Row-echelon span of operators over F_p, keyed by minimal coordinate."""

    def __init__(self, p):
        self.p = p
        self.rows = {}
        self.members = []

    def insert(self, endo):
        vec = dict(endo.entries)
        while vec:
            pivot = min(vec)
            if pivot not in self.rows:
                inv = pow(vec[pivot], self.p - 2, self.p)
                self.rows[pivot] = {k: v * inv % self.p for k, v in vec.items()}
                self.members.append(endo)
                return True
            ref = self.rows[pivot]
            coeff = vec[pivot]
            vec = {k: (vec.get(k, 0) - coeff * ref.get(k, 0)) % self.p
                   for k in set(vec) | set(ref)}
            vec = {k: v for k, v in vec.items() if v}
        return False

    @property
    def dim(self):
        return len(self.rows)


class TestOperatorSpan:
    @pytest.mark.parametrize("field,c,n", [(F3, 1, 2), (F5, 1, 2), (F3, 2, 2), (F3, 2, 3)])
    def test_generated_algebra_small_and_metabelian(self, field, c, n):
        # the operator parts alone generate a Lie algebra of dimension
        # q - n + 2 whose derived subalgebra consists of commuting
        # multiplication operators
        ring = DividedPowers(field, c)
        span = _Span(field.p)
        work = [Endo.z_op(ring), Endo.mult_op(ring, ring.q - n, t_power=1)]
        for op in work:
            span.insert(op)
        grew = True
        while grew:
            grew = False
            members = list(span.members)
            for a in members:
                for b in members:
                    if span.insert(a.bracket(b)):
                        grew = True
        assert span.dim == ring.q - n + 2
        derived = [a.bracket(b) for a in span.members for b in span.members]
        derived = [d for d in derived if d]
        for a in derived:
            for b in derived:
                assert not a.bracket(b)
