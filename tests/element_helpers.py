"""Element readings and the generic operator arithmetic the tests use but
the package does not run.

`maxclass.divided_powers` keeps `DPElement`, `Endo` and `SemidirectElement`
as the data `RowElement.to_element` returns.  The subclasses here, under the
same names, add their arithmetic, each operation written the plain way: a
difference adds a negated copy, an operator bracket is two products and a
difference, and the semidirect bracket is (A g - B f, AB - BA).  They are the
tests' one reference for the row form; `reference` converts a package
element to them.
"""

from typing import Optional

from maxclass import divided_powers
from maxclass.arith import ConstructionError, binom_column_mod_p, binom_mod_p
from maxclass.divided_powers import DividedPowers, RowElement, make_generators
from poly_helpers import FpPoly


class _Linear:
    """Sums and integer multiples of a sparse value."""

    __slots__ = ()

    def __add__(self, other):
        self._check_ring(other)
        out = dict(self.entries)
        for key, c in other.entries.items():
            out[key] = out.get(key, 0) + c
        return type(self)(self.ring, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value: int):
        """Multiply by an int."""
        return type(self)(self.ring, {key: c * value for key, c in self.entries.items()})


class DPElement(_Linear, divided_powers.DPElement):
    __slots__ = ()

    @classmethod
    def basis(cls, ring: DividedPowers, exponent: int, t_power: int = 0,
              coeff: int = 1) -> "DPElement":
        """coeff * t^t_power * x^(exponent)."""
        if not (0 <= exponent < ring.q):
            raise ValueError(f"exponent {exponent} outside [0, {ring.q})")
        return cls(ring, {(exponent, t_power): coeff})


class Endo(_Linear, divided_powers.Endo):
    __slots__ = ()

    @classmethod
    def derivation(cls, ring: DividedPowers) -> "Endo":
        """x^(i) -> x^(i-1); kills 1.  A derivation of the divided-power
        product, by the Pascal rule on the coefficients."""
        return cls(ring, {(i - 1, i, 0): 1 for i in range(1, ring.q)})

    @classmethod
    def mult_op(cls, ring: DividedPowers, shift: int, t_power: int = 0) -> "Endo":
        """Multiplication by t^(t_power) x^(shift):
        x^(j) -> C(j+shift, shift) t^(t_power) x^(j+shift)."""
        if not (0 <= shift < ring.q):
            raise ValueError(f"shift must lie in [0, {ring.q})")
        column = binom_column_mod_p(shift, ring.q, ring.field.p)
        return cls(ring, {(a, a - shift, t_power): v for a, v in column.items()})

    @classmethod
    def z_op(cls, ring: DividedPowers) -> "Endo":
        """Z = -(d/dx) - t * (multiplication by x^(q-1))."""
        return -cls.derivation(ring) - cls.mult_op(ring, ring.q - 1, t_power=1)

    def bracket(self, other: "Endo") -> "Endo":
        """self other - other self."""
        return self.compose(other) - other.compose(self)


class SemidirectElement(divided_powers.SemidirectElement):
    __slots__ = ()

    @classmethod
    def zero(cls, ring: DividedPowers) -> "SemidirectElement":
        return cls(DPElement(ring), Endo(ring))

    def __add__(self, other: "SemidirectElement") -> "SemidirectElement":
        return SemidirectElement(self.vec + other.vec, self.op + other.op)

    def __neg__(self) -> "SemidirectElement":
        return SemidirectElement(-self.vec, -self.op)

    def scale(self, value: int) -> "SemidirectElement":
        return SemidirectElement(self.vec.scale(value), self.op.scale(value))

    def bracket(self, other: "SemidirectElement") -> "SemidirectElement":
        """[(f, A), (g, B)] = (A g - B f, AB - BA)."""
        return SemidirectElement(self.op.apply(other.vec) - other.op.apply(self.vec),
                                 self.op.bracket(other.op))

    def proportional_to(self, other: "SemidirectElement") -> Optional[int]:
        """The residue lam with self == lam * other, or None if there is none.

        The zero element is 0 * anything; a nonzero self against zero other
        has no scalar.
        """
        if not self:
            return 0
        if not other:
            return None
        # lam is fixed by any one entry of other; then check all of them
        mine, theirs = (self.vec, other.vec) if other.vec else (self.op, other.op)
        key, ref = next(iter(theirs.entries.items()))
        p = self.ring.field.p
        lam = mine.entries.get(key, 0) * pow(ref, p - 2, p) % p
        return lam if other.scale(lam) == self else None


def reference(element: divided_powers.SemidirectElement) -> SemidirectElement:
    """A package element, such as `RowElement.to_element` returns, as the
    reference classes hold it."""
    ring = element.ring
    return SemidirectElement(DPElement(ring, element.vec.entries),
                             Endo(ring, element.op.entries))


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


def graded_degree(element: divided_powers.SemidirectElement, m: int) -> int:
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


def generic_generators(ring: DividedPowers, n: int, m: int
                       ) -> tuple[SemidirectElement, SemidirectElement]:
    """z and e_n of `make_generators` in the reference classes."""
    return tuple(reference(g.to_element()) for g in make_generators(ring, n, m))


def row_form(element: divided_powers.SemidirectElement, degree: int, m: int) -> RowElement:
    """The row form of element at degree; ConstructionError if element has
    a term of another degree."""
    ring = element.ring
    q = ring.q
    vec = dict(element.vec.entries)
    coeff = vec.pop(RowElement._module_key(q, m, degree), 0)
    rows = {row: c for (row, col, s), c in element.op.entries.items()
            if col + s * q - row == degree}
    if vec or len(rows) != len(element.op.entries):
        raise ConstructionError(f"element is not homogeneous of degree {degree}")
    return RowElement(ring, m, degree, coeff, rows)
