"""Truncated divided powers and the operator model built on them.

The ring has basis x^(0), ..., x^(q-1) over F_p with q = p^c and product
x^(i) x^(j) = C(i+j, i) x^(i+j), truncated to zero when i + j >= q (the
binomial coefficient vanishes mod p there anyway, by Kummer).  Scalars are
extended to polynomials in a central variable t, and the algebra acting on
this module is generated by multiplication operators together with

    Z = -(d/dx) - t * (multiplication by x^(q-1)),

whose key property is Z x^(i) = -x^(i-1) for 0 < i < q and Z 1 = -t x^(q-1),
so iterating Z walks down the divided-power ladder and re-enters at the top
with one more factor of t.  Pairs (module element, operator) form a Lie
algebra under the semidirect bracket; generators of the maximal-class
algebras live there.

Module elements and operators are stored alike: a dict from monomial keys,
(i, s) for t^s x^(i) and (row, col, s) for a matrix entry t^s, to nonzero
residues mod p.  In the package these generic classes are data: what
`RowElement.to_element` returns, with equality, truth, and `Endo.compose`
and `Endo.apply`, which the benchmark tracer times.  Their arithmetic (sums,
scalings, the named operators d/dx, Z and multiplication by x^(r), the
semidirect bracket written as two products and a difference, and
proportionality) is the tests' reference, in `tests/element_helpers.py`.

Every element of the family is homogeneous, and `RowElement` holds a
homogeneous element of degree d in row form: the coefficient of its one
module monomial, at x^((m - d) mod q), and a map from operator row to
coefficient, the row's column being (row + d) mod q and its t-power
(row + d) // q.  A product of two such operators has one term per row, so
the row-form bracket iterates the operand with fewer rows, by antisymmetry,
and looks the other up by row: [e_i, e_n] costs e_n's few rows, not e_i's.  The family's
generators are written in row form, and its construction runs on row forms
alone.  `RowElement.bracket` is the package's one general semidirect
bracket; ad z, for the z of `make_generators`, also has a row rule,
`bracket_with_z`, one pass over the other operand's rows, which the tests
check against the bracket.
"""

from __future__ import annotations

from typing import Optional

from .arith import PrimeField, binom_columns_mod_p


class DividedPowers:
    """Context object fixing the field and the truncation order q = p^c."""

    __slots__ = ("field", "c", "q")

    def __init__(self, field: PrimeField, c: int):
        if c < 1:
            raise ValueError(f"exponent c must be positive, got {c}")
        self.field = field
        self.c = c
        self.q = field.p ** c

    def __eq__(self, other) -> bool:
        if not isinstance(other, DividedPowers):
            return NotImplemented
        return self.field == other.field and self.c == other.c


class _Sparse:
    """Sparse F_p-linear combination of monomials: entries maps a key, whose
    last component is the power of t, to a nonzero residue mod p.

    The constructor reduces mod p and drops zeros, so equal values have
    equal entries.  Instances are immutable by convention.
    """

    __slots__ = ("ring", "entries")

    def __init__(self, ring: DividedPowers, entries: Optional[dict] = None):
        p = ring.field.p
        self.ring = ring
        self.entries = {key: r for key, c in entries.items() if (r := c % p)} if entries else {}

    def _check_ring(self, other) -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("values from different rings")

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.entries == other.entries


class DPElement(_Sparse):
    """Module element sum c t^s x^(i), with entries[(i, s)] = c."""

    __slots__ = ()


class Endo(_Sparse):
    """t-linear endomorphism of the module, as a sparse matrix over F_p[t].

    entries[(row, col, s)] = c means x^(col) contributes c t^s x^(row).
    """

    __slots__ = ()

    def compose(self, other: "Endo") -> "Endo":
        """Operator product self applied after other: iterates self, and
        looks other up by row."""
        self._check_ring(other)
        by_row = {}
        for (mid, col, r), c in other.entries.items():
            by_row.setdefault(mid, []).append((col, r, c))
        out = {}
        for (row, mid, s), left in self.entries.items():
            for col, r, right in by_row.get(mid, ()):
                key = (row, col, s + r)
                out[key] = out.get(key, 0) + left * right
        return type(self)(self.ring, out)

    def apply(self, element: DPElement) -> DPElement:
        """The operator applied to a module element: iterates the
        operator's entries, and looks the element up by exponent."""
        self._check_ring(element)
        by_exponent = {}
        for (i, r), c in element.entries.items():
            by_exponent.setdefault(i, []).append((r, c))
        out = {}
        for (row, col, s), c in self.entries.items():
            for r, part in by_exponent.get(col, ()):
                key = (row, s + r)
                out[key] = out.get(key, 0) + c * part
        return type(element)(self.ring, out)


class SemidirectElement:
    """Pair (module element, operator) of the semidirect product, whose
    bracket is

        [(f, A), (g, B)] = (A g - B f, AB - BA).

    Operators act on the module; the module itself brackets to zero, so
    pairs (f, 0) span an abelian ideal.
    """

    __slots__ = ("vec", "op")

    def __init__(self, vec: DPElement, op: Endo):
        if vec.ring is not op.ring and vec.ring != op.ring:
            raise ValueError("module part and operator part from different rings")
        self.vec = vec
        self.op = op

    @property
    def ring(self) -> DividedPowers:
        return self.vec.ring

    def __bool__(self) -> bool:
        return bool(self.vec) or bool(self.op)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemidirectElement):
            return NotImplemented
        return self.vec == other.vec and self.op == other.op


class RowElement:
    """Homogeneous element of degree d in row form.

    m places the module in the grading: a module term t^r x^(i) has degree
    r q + q + m - i, and an operator entry (row, col, s) has degree
    col - row + s q.  So degree d leaves one module monomial, at
    x^((m - d) mod q), whose coefficient is `coeff`, and one entry per
    operator row, at column (row + d) mod q with t-power (row + d) // q,
    whose coefficient is rows[row].  Coefficients are residues, and rows
    holds only nonzero ones.  Immutable by convention.
    """

    __slots__ = ("ring", "m", "degree", "coeff", "rows")

    def __init__(self, ring: DividedPowers, m: int, degree: int, coeff: int, rows: dict):
        self.ring = ring
        self.m = m
        self.degree = degree
        self.coeff = coeff
        self.rows = rows

    @staticmethod
    def _module_key(q: int, m: int, degree: int) -> tuple[int, int]:
        """(i, r) of the module monomial t^r x^(i) of the degree."""
        i = (m - degree) % q
        return i, (degree - m + i) // q - 1

    def to_element(self) -> SemidirectElement:
        """The element in the generic model."""
        q, d = self.ring.q, self.degree
        vec = {self._module_key(q, self.m, d): self.coeff} if self.coeff else {}
        op = {(row, (row + d) % q, (row + d) // q): c for row, c in self.rows.items()}
        return SemidirectElement(DPElement(self.ring, vec), Endo(self.ring, op))

    def bracket(self, other: "RowElement") -> "RowElement":
        """[(f, A), (g, B)] = (A g - B f, AB - BA), of degree a + b.

        Row k of AB is A[k] B[(k + a) mod q] and row k of BA is
        B[k] A[(k + b) mod q], so each product has one term per row of
        either factor: the loop iterates the factor with fewer rows and
        looks the other up by row, swapping the operands, and the sign of
        the operator part, when that is B.  The module monomial of degree
        a + b is A's row (m - a - b) mod q applied to g, less B's applied
        to f.
        """
        if (self.ring is not other.ring and self.ring != other.ring) or self.m != other.m:
            raise ValueError("row forms from different rings or gradings")
        q, p = self.ring.q, self.ring.field.p
        A, B, a, b = self.rows, other.rows, self.degree, other.degree
        i = (self.m - a - b) % q
        coeff = (A.get(i, 0) * other.coeff - B.get(i, 0) * self.coeff) % p
        sign = 1
        if len(A) > len(B):   # [B, A] = -[A, B]
            A, B, a, b, sign = B, A, b, a, -1
        out = {}
        for k, x in A.items():
            y = B.get((k + a) % q)
            if y:
                out[k] = out.get(k, 0) + x * y
            row = (k - b) % q
            y = B.get(row)
            if y:
                out[row] = out.get(row, 0) - y * x
        rows = {k: r for k, c in out.items() if (r := sign * c % p)}
        return RowElement(self.ring, self.m, a + b, coeff, rows)


def make_generators(ring: DividedPowers, n: int, m: int) -> tuple[RowElement, RowElement]:
    """The degree-1 and degree-n generators of the type-n algebra with
    parameter m, in row form: z = (0, Z), with p - 1 = -1 on every row, and
    e_n = (x^(q+m-n), t * multiplication by x^(q-n)), whose row a holds
    C(a, q - n).

    Requires 0 < m < n <= q.
    """
    q, p = ring.q, ring.field.p
    if not (0 < m < n <= q):
        raise ValueError(f"need 0 < m < n <= q = {q}, got n={n}, m={m}")
    z = RowElement(ring, m, 1, 0, dict.fromkeys(range(q), p - 1))
    e_n = RowElement(ring, m, n, 1, next(binom_columns_mod_p(q - n, q, p)))
    return z, e_n


def bracket_with_z(e: RowElement) -> RowElement:
    """[e, z] for the z of `make_generators`, by its row rule: module
    coefficient e's, and row k e's row (k + 1) mod q less its row k, mod p.

    Write A for e's rows and a for its degree.  z has q rows, so
    `RowElement.bracket(e, z)` iterates A without swapping; it adds
    A[k] z[(k + a) mod q] = -A[k] at row k and -z[(k - 1) mod q] A[k] =
    +A[k] at row (k - 1) mod q, and its module coefficient is
    A.get(i) * 0 - (p - 1) * coeff = coeff.  On the family this is Pascal's
    rule C(k + 1, N) - C(k, N) = C(k, N - 1).
    """
    q, p = e.ring.q, e.ring.field.p
    out = {(k - 1) % q: x for k, x in e.rows.items()}
    for k, x in e.rows.items():
        out[k] = out.get(k, 0) - x
    rows = {k: r for k, c in out.items() if (r := c % p)}
    return RowElement(e.ring, e.m, e.degree + 1, e.coeff % p, rows)
