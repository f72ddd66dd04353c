"""Reference operator arithmetic with one FpPoly per matrix entry.

`maxclass.divided_powers` stores operators and module elements as sparse
dicts of residues keyed by (row, col, t-power) and (exponent, t-power), and
`element_helpers` adds the tests' generic arithmetic to them.  The functions
here are the earlier representation, one polynomial in t per (row, col) or
per exponent, with its compose, apply, bracket, scale, proportionality and
degree reading.  Random operators with polynomial entries, converted
between the two forms, must give the same results on both sides.
"""

import random

import pytest

from maxclass.arith import PrimeField
from maxclass.divided_powers import DividedPowers
from element_helpers import (DPElement, Endo, SemidirectElement, generic_generators,
                             graded_degree, poly_scale)
from poly_helpers import FpPoly

CONFIGS = [(PrimeField(3), 2), (PrimeField(5), 1), (PrimeField(7), 1), (PrimeField(3), 3)]


def to_polys(sparse):
    """Flat {(..., s): c} to {(...): FpPoly in t}."""
    coeffs = {}
    for key, c in sparse.entries.items():
        row = coeffs.setdefault(key[:-1], {})
        row[key[-1]] = c
    field = sparse.ring.field
    return {head: FpPoly(field, [cs.get(s, 0) for s in range(max(cs) + 1)])
            for head, cs in coeffs.items()}


def as_polys(x):
    return to_polys(x.vec), to_polys(x.op)


def from_polys(cls, ring, polys):
    return cls(ring, {head + (s,): c for head, poly in polys.items()
                      for s, c in enumerate(poly.coeffs)})


def _clean(polys):
    return {key: poly for key, poly in polys.items() if poly}


def poly_sub(field, a, b):
    zero = FpPoly.zero(field)
    return _clean({key: a.get(key, zero) - b.get(key, zero) for key in set(a) | set(b)})


def reference_compose(field, left, right):
    zero = FpPoly.zero(field)
    right_rows = {}
    for (row, col), poly in right.items():
        right_rows.setdefault(row, []).append((col, poly))
    out = {}
    for (row, mid), a in left.items():
        for col, b in right_rows.get(mid, ()):
            out[(row, col)] = out.get((row, col), zero) + a * b
    return _clean(out)


def reference_apply(field, op, parts):
    zero = FpPoly.zero(field)
    out = {}
    for (row, col), poly in op.items():
        part = parts.get((col,))
        if part is not None:
            out[(row,)] = out.get((row,), zero) + poly * part
    return _clean(out)


def reference_bracket(field, x, y):
    """[(f, A), (g, B)] = (A g - B f, AB - BA) on (vec polys, op polys) pairs."""
    (f, a), (g, b) = x, y
    return (poly_sub(field, reference_apply(field, a, g), reference_apply(field, b, f)),
            poly_sub(field, reference_compose(field, a, b), reference_compose(field, b, a)))


def reference_proportional_to(field, mine, theirs):
    """mine and theirs are (vec polys, op polys) pairs."""
    if not any(mine):
        return 0
    if not any(theirs):
        return None
    pairs = []
    for a, b in zip(mine, theirs):
        if set(a) != set(b):
            return None
        for key, poly in a.items():
            ref = b[key]
            if len(poly.coeffs) != len(ref.coeffs):
                return None
            pairs.append((poly, ref))
    lam = None
    for poly, ref in pairs:
        for k in range(len(ref.coeffs)):
            a, b = poly[k], ref[k]
            if (a == 0) != (b == 0):
                return None
            if b == 0:
                continue
            ratio = a * pow(b, -1, field.p) % field.p
            if lam is None:
                lam = ratio
            elif lam != ratio:
                return None
    return lam


def reference_degrees(q, m, vec, op):
    degrees = set()
    for (i,), poly in vec.items():
        degrees.update(r * q + q + m - i for r, c in enumerate(poly.coeffs) if c)
    for (row, col), poly in op.items():
        degrees.update(col - row + s * q for s, c in enumerate(poly.coeffs) if c)
    return degrees


def random_polys(rng, field, keys, count, max_tdeg=3):
    return _clean({keys(): FpPoly(field, [rng.randrange(field.p)
                                          for _ in range(rng.randint(1, max_tdeg + 1))])
                   for _ in range(count)})


def random_pair(rng, ring, count=6):
    q, field = ring.q, ring.field
    op = random_polys(rng, field, lambda: (rng.randrange(q), rng.randrange(q)), count)
    vec = random_polys(rng, field, lambda: (rng.randrange(q),), count // 2)
    return op, vec


def structured_ops(ring):
    ops = [Endo.derivation(ring), Endo.z_op(ring)]
    ops += [Endo.mult_op(ring, r, t_power=1) for r in range(0, ring.q, max(1, ring.q // 5))]
    return ops


def operands(ring, rng, count=40):
    """The structured operators among `count` random ones, and 20 random
    module elements with zero."""
    ops = structured_ops(ring) + [
        from_polys(Endo, ring, random_pair(rng, ring, rng.randrange(12))[0]) for _ in range(count)]
    vecs = [from_polys(DPElement, ring, random_pair(rng, ring, rng.randrange(12))[1])
            for _ in range(20)]
    return ops, vecs + [DPElement(ring)]


@pytest.mark.parametrize("field,c", CONFIGS)
def test_conversion_round_trips(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 100 + c)
    for _ in range(100):
        op, vec = random_pair(rng, ring)
        assert to_polys(from_polys(Endo, ring, op)) == op
        assert to_polys(from_polys(DPElement, ring, vec)) == vec


def assert_compose_and_apply(field, rng, ops, vecs, rounds):
    for _ in range(rounds):
        a, b = rng.choice(ops), rng.choice(ops)
        assert to_polys(a.compose(b)) == reference_compose(field, to_polys(a), to_polys(b))
        vec = rng.choice(vecs)
        assert to_polys(a.apply(vec)) == reference_apply(field, to_polys(a), to_polys(vec))


@pytest.mark.parametrize("field,c", CONFIGS)
def test_compose_and_apply_match_reference(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 1000 + c)
    assert_compose_and_apply(field, rng, *operands(ring, rng, 60), 300)


@pytest.mark.parametrize("field,c", CONFIGS)
def test_indexed_compose_and_apply_match_reference(field, c):
    # the structured operators, Z and multiplications, among random ones
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 3000 + c)
    assert_compose_and_apply(field, rng, *operands(ring, rng), 150)


# The next three tests keep their names from when they compared fused package
# code with unfused copies here; they now check the tests' reference
# arithmetic, the unfused form, against the polynomial representation.
@pytest.mark.parametrize("field,c", CONFIGS)
def test_fused_brackets_match_unfused(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 5000 + c)
    ops, vecs = operands(ring, rng)
    for _ in range(150):
        a, b = rng.choice(ops), rng.choice(ops)
        f, g = rng.choice(vecs), rng.choice(vecs)
        x, y = SemidirectElement(f, a), SemidirectElement(g, b)
        want = reference_bracket(field, as_polys(x), as_polys(y))
        assert to_polys(a.bracket(b)) == want[1]
        assert as_polys(x.bracket(y)) == want


@pytest.mark.parametrize("field,c,n,m", [(PrimeField(3), 2, 2, 1), (PrimeField(5), 2, 3, 2),
                                         (PrimeField(3), 3, 4, 1), (PrimeField(7), 1, 4, 2)])
def test_fused_bracket_walks_the_family_like_unfused(field, c, n, m):
    # the elements of the construction, up past the re-entry at degree q + m,
    # and their brackets with e_n
    ring = DividedPowers(field, c)
    z, e_n = generic_generators(ring, n, m)
    pz, pe_n = as_polys(z), as_polys(e_n)
    e, want = e_n, pe_n
    for _ in range(2 * ring.q + n):
        e, want = e.bracket(z), reference_bracket(field, want, pz)
        assert as_polys(e) == want
        assert as_polys(e.bracket(e_n)) == reference_bracket(field, want, pe_n)


@pytest.mark.parametrize("field,c", CONFIGS)
def test_sub_and_scale_match_unfused(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 6000 + c)
    ops, vecs = operands(ring, rng)
    for _ in range(200):
        for values in (ops, vecs):
            a, b = rng.choice(values), rng.choice(values)
            assert to_polys(a - b) == poly_sub(field, to_polys(a), to_polys(b))
            k = rng.randrange(-2 * field.p, 2 * field.p)
            k_poly = FpPoly(field, [k])
            assert to_polys(a.scale(k)) == _clean({key: poly * k_poly
                                                   for key, poly in to_polys(a).items()})


@pytest.mark.parametrize("field,c", CONFIGS)
def test_linear_operations_match_reference(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 10000 + c)
    zero = FpPoly.zero(field)
    for _ in range(200):
        a, _ = random_pair(rng, ring)
        b, _ = random_pair(rng, ring)
        f = FpPoly(field, [rng.randrange(field.p) for _ in range(rng.randint(0, 3))])
        k = rng.randrange(-field.p, 2 * field.p)
        left, right = from_polys(Endo, ring, a), from_polys(Endo, ring, b)
        total = {key: a.get(key, zero) + b.get(key, zero) for key in set(a) | set(b)}
        assert to_polys(left + right) == _clean(total)
        assert to_polys(left - right) == poly_sub(field, a, b)
        assert to_polys(-left) == {key: -poly for key, poly in a.items()}
        assert to_polys(poly_scale(left, f)) == _clean({key: poly * f for key, poly in a.items()})
        k_poly = FpPoly(field, [k])
        assert to_polys(left.scale(k)) == _clean({key: poly * k_poly for key, poly in a.items()})


@pytest.mark.parametrize("field,c", CONFIGS)
def test_proportionality_matches_reference(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 7 + c)
    t = FpPoly.monomial(field, 1, 1)
    for _ in range(300):
        op, vec = random_pair(rng, ring, rng.randrange(4))
        base = SemidirectElement(from_polys(DPElement, ring, vec), from_polys(Endo, ring, op))
        kind = rng.randrange(4)
        if kind == 0:
            other = base.scale(rng.randrange(field.p))
        elif kind == 1:
            other = SemidirectElement(poly_scale(base.vec, t), poly_scale(base.op, t))
        elif kind == 2:
            op2, vec2 = random_pair(rng, ring, rng.randrange(3))
            other = base.scale(rng.randrange(1, field.p)) + SemidirectElement(
                from_polys(DPElement, ring, vec2), from_polys(Endo, ring, op2))
        else:
            other = SemidirectElement.zero(ring)
        for x, y in ((other, base), (base, other)):
            want = reference_proportional_to(field, as_polys(x), as_polys(y))
            assert x.proportional_to(y) == want


@pytest.mark.parametrize("field,c,n,m", [(PrimeField(3), 2, 3, 2), (PrimeField(5), 2, 2, 1),
                                         (PrimeField(7), 1, 4, 1)])
def test_graded_degree_matches_reference(field, c, n, m):
    ring = DividedPowers(field, c)
    z, e = generic_generators(ring, n, m)
    for j in range(n, 3 * ring.q + m):
        degrees = reference_degrees(ring.q, m, *as_polys(e))
        assert degrees == {j}
        assert graded_degree(e, m) == j
        e = e.bracket(z)
