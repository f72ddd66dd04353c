"""Reference operator arithmetic with one FpPoly per matrix entry.

`maxclass.divided_powers` stores operators and module elements as sparse
dicts of residues keyed by (row, col, t-power) and (exponent, t-power).
The functions here are the earlier representation, one polynomial in t per
(row, col) or per exponent, with its compose, apply, scale, proportionality
and degree reading.  Random operators with polynomial entries, converted
between the two forms, must give the same results on both sides.

The brackets add both products into one dict and reduce it once.  The
`unfused_*` functions keep the earlier route as a second reference: the
bracket as two products and a subtraction, subtraction as adding a negated
copy, and scaling by a number through the per-key rebuild of the
polynomial case.
"""

import random

import pytest

from maxclass.arith import PrimeField
from maxclass.divided_powers import (
    DividedPowers,
    DPElement,
    Endo,
    SemidirectElement,
)
from element_helpers import generic_generators, graded_degree, poly_scale
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


def from_polys(cls, ring, polys):
    return cls(ring, {head + (s,): c for head, poly in polys.items()
                      for s, c in enumerate(poly.coeffs)})


def _clean(polys):
    return {key: poly for key, poly in polys.items() if poly}


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


def unfused_sub(a, b):
    return a + (-b)


def unfused_scale(x, value):
    return poly_scale(x, FpPoly(x.ring.field, [value]))


def unfused_endo_bracket(a, b):
    return unfused_sub(a.compose(b), b.compose(a))


def unfused_bracket(x, y):
    return SemidirectElement(unfused_sub(x.op.apply(y.vec), y.op.apply(x.vec)),
                             unfused_endo_bracket(x.op, y.op))


@pytest.mark.parametrize("field,c", CONFIGS)
def test_conversion_round_trips(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 100 + c)
    for _ in range(100):
        op, vec = random_pair(rng, ring)
        assert to_polys(from_polys(Endo, ring, op)) == op
        assert to_polys(from_polys(DPElement, ring, vec)) == vec


@pytest.mark.parametrize("field,c", CONFIGS)
def test_compose_and_apply_match_reference(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 1000 + c)
    ops = [to_polys(op) for op in structured_ops(ring)]
    ops += [random_pair(rng, ring, rng.randrange(12))[0] for _ in range(60)]
    vecs = [random_pair(rng, ring, rng.randrange(12))[1] for _ in range(20)]
    for _ in range(300):
        a, b = rng.choice(ops), rng.choice(ops)
        got = from_polys(Endo, ring, a).compose(from_polys(Endo, ring, b))
        assert to_polys(got) == reference_compose(field, a, b)
        vec = rng.choice(vecs)
        got = from_polys(Endo, ring, a).apply(from_polys(DPElement, ring, vec))
        assert to_polys(got) == reference_apply(field, a, vec)


@pytest.mark.parametrize("field,c", CONFIGS)
def test_indexed_compose_and_apply_match_reference(field, c):
    # the structured operators, Z and multiplications, among random ones
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 3000 + c)
    ops = structured_ops(ring)
    ops += [from_polys(Endo, ring, random_pair(rng, ring, rng.randrange(12))[0])
            for _ in range(40)]
    vecs = [from_polys(DPElement, ring, random_pair(rng, ring, rng.randrange(12))[1])
            for _ in range(20)]
    vecs.append(DPElement.zero(ring))
    for _ in range(150):
        a, b = rng.choice(ops), rng.choice(ops)
        want = reference_compose(field, to_polys(a), to_polys(b))
        assert to_polys(a.compose(b)) == want
        vec = rng.choice(vecs)
        want = reference_apply(field, to_polys(a), to_polys(vec))
        assert to_polys(a.apply(vec)) == want


@pytest.mark.parametrize("field,c", CONFIGS)
def test_fused_brackets_match_unfused(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 5000 + c)
    ops = structured_ops(ring)
    ops += [from_polys(Endo, ring, random_pair(rng, ring, rng.randrange(12))[0])
            for _ in range(40)]
    vecs = [from_polys(DPElement, ring, random_pair(rng, ring, rng.randrange(12))[1])
            for _ in range(20)]
    vecs.append(DPElement.zero(ring))
    for _ in range(150):
        a, b = rng.choice(ops), rng.choice(ops)
        f, g = rng.choice(vecs), rng.choice(vecs)
        want = unfused_endo_bracket(a, b).entries
        want_pair = unfused_bracket(SemidirectElement(f, a), SemidirectElement(g, b))
        assert a.bracket(b).entries == want
        assert SemidirectElement(f, a).bracket(SemidirectElement(g, b)) == want_pair


@pytest.mark.parametrize("field,c,n,m", [(PrimeField(3), 2, 2, 1), (PrimeField(5), 2, 3, 2),
                                         (PrimeField(3), 3, 4, 1), (PrimeField(7), 1, 4, 2)])
def test_fused_bracket_walks_the_family_like_unfused(field, c, n, m):
    # the elements of the construction, up past the re-entry at degree q + m,
    # and their brackets with e_n
    ring = DividedPowers(field, c)
    z, e_n = generic_generators(ring, n, m)
    fused = unfused = e_n
    for _ in range(2 * ring.q + n):
        fused, unfused = fused.bracket(z), unfused_bracket(unfused, z)
        assert fused == unfused
        assert fused.bracket(e_n) == unfused_bracket(unfused, e_n)


@pytest.mark.parametrize("field,c", CONFIGS)
def test_sub_and_scale_match_unfused(field, c):
    ring = DividedPowers(field, c)
    rng = random.Random(field.p * 6000 + c)
    ops = structured_ops(ring)
    ops += [from_polys(Endo, ring, random_pair(rng, ring, rng.randrange(12))[0])
            for _ in range(40)]
    vecs = [from_polys(DPElement, ring, random_pair(rng, ring, rng.randrange(12))[1])
            for _ in range(20)]
    vecs.append(DPElement.zero(ring))
    for _ in range(200):
        for values in (ops, vecs):
            a, b = rng.choice(values), rng.choice(values)
            assert (a - b).entries == unfused_sub(a, b).entries
            k = rng.randrange(-2 * field.p, 2 * field.p)
            assert a.scale(k).entries == unfused_scale(a, k).entries


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
        diff = {key: a.get(key, zero) - b.get(key, zero) for key in set(a) | set(b)}
        assert to_polys(left + right) == _clean(total)
        assert to_polys(left - right) == _clean(diff)
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
            want = reference_proportional_to(field, (to_polys(x.vec), to_polys(x.op)),
                                             (to_polys(y.vec), to_polys(y.op)))
            assert x.proportional_to(y) == want


@pytest.mark.parametrize("field,c,n,m", [(PrimeField(3), 2, 3, 2), (PrimeField(5), 2, 2, 1),
                                         (PrimeField(7), 1, 4, 1)])
def test_graded_degree_matches_reference(field, c, n, m):
    ring = DividedPowers(field, c)
    z, e = generic_generators(ring, n, m)
    for j in range(n, 3 * ring.q + m):
        degrees = reference_degrees(ring.q, m, to_polys(e.vec), to_polys(e.op))
        assert degrees == {j}
        assert graded_degree(e, m) == j
        e = e.bracket(z)
