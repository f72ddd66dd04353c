"""Element readings the tests use but the package does not run."""

from typing import Optional

from maxclass.arith import binom_mod_p
from maxclass.divided_powers import DividedPowers, SemidirectElement
from poly_helpers import FpPoly


def mul_coeff(ring: DividedPowers, i: int, j: int) -> int:
    """C(i+j, i) mod p, without truncation."""
    if i < 0 or j < 0:
        raise ValueError("divided-power exponents must be nonnegative")
    return binom_mod_p(i + j, i, ring.field.p)


def dp_mul(ring: DividedPowers, i: int, j: int) -> Optional[tuple[int, int]]:
    """x^(i) x^(j) as (coefficient, exponent), or None when it vanishes.

    Exponents must lie in [0, q); products reaching q are truncated
    (their binomial coefficient is 0 mod p regardless).
    """
    if not (0 <= i < ring.q and 0 <= j < ring.q):
        raise ValueError(f"exponents must lie in [0, {ring.q}), got ({i}, {j})")
    if i + j >= ring.q:
        return None
    coeff = mul_coeff(ring, i, j)
    if coeff == 0:
        return None
    return coeff, i + j


def poly_scale(x, value: FpPoly):
    """A module element or operator x times a polynomial in t: each term of
    value adds its power of t to every key."""
    out = {}
    for key, c in x.entries.items():
        for k, f in enumerate(value.coeffs):
            if f:
                shifted = key[:-1] + (key[-1] + k,)
                out[shifted] = out.get(shifted, 0) + c * f
    return type(x)(x.ring, out)


def graded_degree(element: SemidirectElement, m: int) -> int:
    """Degree of a homogeneous element: a monomial t^r x^(i) in the module
    sits in degree r q + (q + m) - i, and an operator entry t^s at
    (row, col) in degree col - row + s q.  Raises on zero or mixed input.
    """
    q = element.ring.q
    degrees = {r * q + q + m - i for i, r in element.vec.entries}
    degrees.update(col - row + s * q for row, col, s in element.op.entries)
    if not degrees:
        raise ValueError("the zero element has no degree")
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous element, degrees {sorted(degrees)}")
    return degrees.pop()
