"""The tests' reference polynomial over F_p: the package's FpPoly, which
keeps only its product, with the ring arithmetic the oracles build with.

The package writes polynomials as residue tuples, low degree first; the
tests compare against .coeffs, which has that form without trailing zeros.
"""

from maxclass import arith
from maxclass.arith import PrimeField, x_minus_one_coeff


class FpPoly(arith.FpPoly):
    """Univariate polynomial over F_p, stored dense, low degree first.

    Used both for coefficient polynomials in t and for the series variable X;
    the indeterminate has no name of its own.  Instances are immutable and
    always normalized (no trailing zero coefficients).
    """

    __slots__ = ()

    @classmethod
    def zero(cls, field: PrimeField) -> "FpPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "FpPoly":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: PrimeField, coefficient: int, exponent: int) -> "FpPoly":
        c = int(coefficient) % field.p
        if c == 0:
            return cls.zero(field)
        return cls(field, (0,) * exponent + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, j: int) -> int:
        # coefficient of the j-th power; 0 outside the support
        if j < 0 or j >= len(self.coeffs):
            return 0
        return self.coeffs[j]

    def _check(self, other: "FpPoly") -> None:
        if other.field != self.field:
            raise arith.FieldMismatch("cannot mix polynomials over different prime fields")

    def __add__(self, other: "FpPoly") -> "FpPoly":
        if not isinstance(other, FpPoly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.p
        return FpPoly(self.field, out)

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FpPoly":
        p = self.field.p
        return FpPoly(self.field, tuple((-c) % p for c in self.coeffs))

    def shift(self, k: int) -> "FpPoly":
        """Multiply by the k-th power of the indeterminate, k >= 0."""
        if k < 0:
            raise ValueError("negative shift")
        if self.is_zero():
            return self
        return FpPoly(self.field, (0,) * k + self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpPoly):
            return NotImplemented
        return other.field == self.field and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"FpPoly(p={self.field.p}, {list(self.coeffs)})"


def x_minus_one_pow(field: PrimeField, k: int) -> FpPoly:
    """(X - 1)^k, expanded via binomials rather than repeated multiplication."""
    return FpPoly(field, [x_minus_one_coeff(k, j, field.p) for j in range(k + 1)])
