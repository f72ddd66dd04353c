"""The row form of `divided_powers` against the generic model.

`RowElement` holds a homogeneous element as one module coefficient and a
map from operator row to coefficient; `construct` runs on it.  The tests'
generic arithmetic (`element_helpers.SemidirectElement`) is its reference:
random homogeneous elements, built here from the grading alone, must
convert, bracket and compare for proportionality exactly as the generic
elements do.
"""

import random

import pytest

from maxclass.arith import ConstructionError, PrimeField
from maxclass.divided_powers import DividedPowers, make_generators
from element_helpers import (DPElement, Endo, SemidirectElement, generic_generators,
                             graded_degree, reference, row_form)

# (p, c, m): q = 9, 5, 7, 27
CONFIGS = [(3, 2, 1), (5, 1, 2), (7, 1, 3), (3, 3, 2)]


def homogeneous(rng, ring, m, degree, size, with_vec=True):
    """A random generic element of the degree: a module monomial when one
    of the degree exists and with_vec holds, and `size` operator rows."""
    q, p = ring.q, ring.field.p
    vec = {}
    if with_vec:
        # t^r x^(i) has degree r q + q + m - i
        vec = {(i, r): rng.randrange(1, p) for i in range(q)
               for r in range(degree // q + 2) if r * q + q + m - i == degree}
    op = {}
    for row in rng.sample(range(q), size):
        # (row, col, s) has degree col - row + s q
        s, col = divmod(row + degree, q)
        op[(row, col, s)] = rng.randrange(1, p)
    x = SemidirectElement(DPElement(ring, vec), Endo(ring, op))
    if x:
        assert graded_degree(x, m) == degree
    return x


def random_homogeneous(rng, ring, m, degree=None):
    q = ring.q
    if degree is None:
        degree = rng.randrange(1, 3 * q)
    size = rng.choice([0, rng.randrange(1, 4), rng.randrange(q + 1)])
    return degree, homogeneous(rng, ring, m, degree, size, rng.random() < 0.7)


@pytest.mark.parametrize("p,c,m", CONFIGS)
def test_bracket_matches_generic(p, c, m):
    ring = DividedPowers(PrimeField(p), c)
    rng = random.Random(p * 100 + c)
    seen = set()
    for _ in range(300):
        a, x = random_homogeneous(rng, ring, m)
        b, y = random_homogeneous(rng, ring, m)
        rx, ry = row_form(x, a, m), row_form(y, b, m)
        # each order iterates the other operand when the sizes differ
        for left, right, want in ((rx, ry, x.bracket(y)), (ry, rx, y.bracket(x))):
            got = left.bracket(right)
            assert got.degree == a + b
            assert reference(got.to_element()) == want
            seen.add("iterates left" if len(left.rows) <= len(right.rows) else "iterates right")
        if not x.vec:
            seen.add("zero module part")
        if not x.op:
            seen.add("empty operator")
        if a > ring.q:
            seen.add("above q")
    assert seen == {"iterates left", "iterates right", "zero module part", "empty operator",
                    "above q"}


@pytest.mark.parametrize("p,c,n,m", [(3, 2, 2, 1), (5, 2, 3, 2), (3, 3, 4, 1), (7, 1, 4, 2)])
def test_family_chain_matches_generic(p, c, n, m):
    # the elements of the construction, up past the re-entry at degree q + m
    # where t-powers reach 2, and their brackets with e_n in both orders
    ring = DividedPowers(PrimeField(p), c)
    z, e_n = generic_generators(ring, n, m)
    rz, re_n = row_form(z, 1, m), row_form(e_n, n, m)
    e, row = e_n, re_n
    for j in range(n + 1, 2 * ring.q + m + n):
        e, row = e.bracket(z), row.bracket(rz)
        assert row.degree == j
        assert reference(row.to_element()) == e
        assert reference(row.bracket(re_n).to_element()) == e.bracket(e_n)
        assert reference(re_n.bracket(row).to_element()) == e_n.bracket(e)


@pytest.mark.parametrize("p,c,m", CONFIGS)
def test_conversion_round_trips_and_refuses_mixed_degrees(p, c, m):
    ring = DividedPowers(PrimeField(p), c)
    q = ring.q
    rng = random.Random(p * 1000 + c)
    for _ in range(200):
        d, x = random_homogeneous(rng, ring, m)
        assert reference(row_form(x, d, m).to_element()) == x
        # a term of another degree, in either part
        e = rng.choice([e for e in range(1, 3 * q) if e != d])
        other = homogeneous(rng, ring, m, e, 1, with_vec=False)
        if e >= m + 1:
            other = rng.choice([other, homogeneous(rng, ring, m, e, 0)])
        with pytest.raises(ConstructionError, match=f"not homogeneous of degree {d}$"):
            row_form(SemidirectElement(x.vec + other.vec, x.op + other.op), d, m)
    zero = SemidirectElement.zero(ring)
    for d in (1, q, 3 * q):
        assert reference(row_form(zero, d, m).to_element()) == zero


@pytest.mark.parametrize("p,c,m", CONFIGS)
def test_proportionality_matches_generic(p, c, m):
    ring = DividedPowers(PrimeField(p), c)
    rng = random.Random(p * 10000 + c)
    zero = SemidirectElement.zero(ring)
    for _ in range(300):
        d, x = random_homogeneous(rng, ring, m)
        kind = rng.randrange(4)
        if kind == 0:
            e, y = d, x.scale(rng.randrange(p))
        elif kind == 1:   # lam times x plus a random element of the degree
            _, extra = random_homogeneous(rng, ring, m, d)
            e, y = d, SemidirectElement(x.vec.scale(2) + extra.vec, x.op.scale(2) + extra.op)
        elif kind == 2:
            e, y = random_homogeneous(rng, ring, m)
        else:
            e, y = d, zero
        rx, ry = row_form(x, d, m), row_form(y, e, m)
        assert rx.proportional_to(ry) == x.proportional_to(y)
        assert ry.proportional_to(rx) == y.proportional_to(x)


def test_bracket_refuses_another_ring_or_grading():
    field = PrimeField(5)
    ring = DividedPowers(field, 1)
    rz, _ = make_generators(ring, 2, 1)
    for other, m in ((ring, 2), (DividedPowers(field, 2), 1)):
        zero = row_form(SemidirectElement.zero(other), 2, m)
        with pytest.raises(ValueError, match="different rings or gradings"):
            rz.bracket(zero)
