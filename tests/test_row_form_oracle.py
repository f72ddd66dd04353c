"""The row form of `divided_powers` against the generic model.

`RowElement` holds a homogeneous element as one module coefficient and a
map from operator row to coefficient; `construct` runs on it.  The tests'
generic arithmetic (`element_helpers.SemidirectElement`) is its reference:
random homogeneous elements, built here from the grading alone, must
convert and bracket exactly as the generic elements do.  The row rule for
ad z, `bracket_with_z`, has `RowElement.bracket` with the z of
`make_generators` as its reference.
"""

import random

import pytest

from maxclass.arith import ConstructionError, PrimeField
from maxclass.divided_powers import (DividedPowers, RowElement, bracket_with_z,
                                     make_generators)
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


def assert_rule_is_bracket(e, z):
    got, want = bracket_with_z(e), e.bracket(z)
    assert (got.degree, got.coeff, got.rows) == (want.degree, want.coeff, want.rows)
    return got


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_z_rule_matches_bracket(p, c):
    # random row forms for every m: empty, sparse and full row maps, the
    # wrap rows 0 and q - 1, module coefficients 0 and nonzero, and degrees
    # over several multiples of q
    ring = DividedPowers(PrimeField(p), c)
    q = ring.q
    rng = random.Random(p * 10 + c)
    seen = set()
    for m in range(1, q):
        z, _ = make_generators(ring, m + 1, m)
        for size in (0, rng.randrange(1, 4), q):
            rows = {k: rng.randrange(1, p) for k in rng.sample(range(q), size)}
            if size and rng.random() < 0.5:
                rows[rng.choice([0, q - 1])] = rng.randrange(1, p)
            degree = rng.randrange(1, 4 * q + 1)
            coeff = rng.choice([0, rng.randrange(1, p)])
            assert_rule_is_bracket(RowElement(ring, m, degree, coeff, rows), z)
            seen.add({0: "empty", q: "full"}.get(len(rows), "sparse"))
            seen.update(f"row {k}" for k in {0, q - 1} & rows.keys())
            seen.add("coeff 0" if coeff == 0 else "coeff nonzero")
            seen.add("above 2q" if degree > 2 * q else "below 2q")
    assert seen == {"empty", "sparse", "full", "row 0", f"row {q - 1}", "coeff 0",
                    "coeff nonzero", "above 2q", "below 2q"}


@pytest.mark.parametrize("p,c,n,m", [(3, 2, 2, 1), (5, 2, 4, 1), (7, 2, 3, 2)])
def test_z_rule_matches_bracket_on_family_chain(p, c, n, m):
    # e_n, [e_n, z], ... up to degree 3q + 2n, through the re-entry at q + m
    ring = DividedPowers(PrimeField(p), c)
    z, e = make_generators(ring, n, m)
    while e.degree < 3 * ring.q + 2 * n:
        e = assert_rule_is_bracket(e, z)
    assert e.degree == 3 * ring.q + 2 * n


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


def test_bracket_refuses_another_ring_or_grading():
    field = PrimeField(5)
    ring = DividedPowers(field, 1)
    rz, _ = make_generators(ring, 2, 1)
    for other, m in ((ring, 2), (DividedPowers(field, 2), 1)):
        zero = row_form(SemidirectElement.zero(other), 2, m)
        with pytest.raises(ValueError, match="different rings or gradings"):
            rz.bracket(zero)
