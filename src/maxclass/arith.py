"""Exact arithmetic over prime fields.

Scalars are plain ints, residues in [0, p), and polynomials are tuples of
residues, low degree first.  Binomial coefficients are computed digit-wise
in base p, and single coefficients of (X - 1)^k g(X) come from them.
signed_binom_row reads whole rows of (X - 1)^h, for the ordinary-constituent
and classify structure checks.  Record is the base of the result classes.
FpPoly keeps only its constructor and product, because perfbench/run.py
times it (arith.fppoly_mul_ns); no package code uses it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

# Largest modulus accepted: primality is decided by trial division to sqrt(p).
MAX_PRIME = 10**9


class FieldMismatch(ValueError):
    """Values from different prime-field contexts were combined."""


class ConstructionError(Exception):
    """An internal invariant of the operator construction failed."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# p -> ([k! mod p], [(k!)^-1 mod p]), k = 0, 1, .., grown in place to k = d by
# _factorials(d, p).  A reader of whole digit rows (binom_columns_mod_p,
# signed_binom_row) grows it to the largest digit it reads; a single binomial
# grows it only below TABLE_LIMIT, as p may be up to MAX_PRIME.
_FACTORIALS: dict[int, tuple[list[int], list[int]]] = {}
TABLE_LIMIT = 1 << 15


def _factorials(d: int, p: int) -> tuple[list[int], list[int]]:
    fact, inv = _FACTORIALS.setdefault(p, ([1], [1]))
    for k in range(len(fact), d + 1):
        fact.append(fact[-1] * k % p)
        inv.append(inv[-1] * pow(k, -1, p) % p)
    return fact, inv


def binom_mod_p(a: int, b: int, p: int) -> int:
    """C(a, b) mod p via the base-p digit product, 0 whenever b > a.  Each
    digit factor C(d, e), d < p, is d! / (e! (d - e)!) from the table of p,
    or for d >= TABLE_LIMIT min(e, d - e) factors over their factorial."""
    if a < 0 or b < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({a}, {b})")
    if b > a:
        return 0
    result = 1
    fact, inv = _FACTORIALS.get(p, ((), ()))
    while b > 0:
        ad, bd = a % p, b % p
        if bd > ad:
            return 0
        try:
            result = result * fact[ad] * inv[bd] * inv[ad - bd] % p
        except IndexError:      # the table of p stops short of ad
            if ad < TABLE_LIMIT:
                fact, inv = _factorials(ad, p)
                continue
            num = den = 1
            for i in range(min(bd, ad - bd)):
                num, den = num * (ad - i) % p, den * (i + 1) % p
            result = result * num * pow(den, -1, p) % p
        a //= p
        b //= p
    return result


def binom_columns_mod_p(b: int, q: int, p: int) -> Iterator[dict[int, int]]:
    """The columns {a: C(a, b') mod p} over the a < q where the value is
    nonzero, for b' = b, b - 1, ..., 0 in turn; q is a power of p and
    0 <= b < q.

    By Lucas, C(a' p + d, b' p + e) = C(a', b') C(d, e) with d, e < p, and
    C(d, e) is nonzero mod p exactly when d >= e.  So each column is the
    column of its high digits b' // p over q / p, every key a' spread to the
    keys a' p + d with e <= d < p.  p consecutive b' share that high column,
    so each digit level keeps one column and rebuilds it once per p columns
    of the level below; a column costs about one step per nonzero entry, its
    digit factors read from the factorial table of p.  Keys come out ascending.
    """
    if q == 1:
        yield {0: 1}
        return
    fact, inv = _factorials(p - 1, p)
    top = b % p
    for high in binom_columns_mod_p(b // p, q // p, p):
        for e in range(top, -1, -1):
            digit = [(d, fact[d] * inv[e] * inv[d - e] % p) for d in range(e, p)]
            yield {a * p + d: v * w % p for a, v in high.items() for d, w in digit}
        top = p - 1


def x_minus_one_coeff(k: int, m: int, p: int) -> int:
    """[X^m](X - 1)^k = (-1)^(k-m) C(k, m) mod p, as a residue; 0 unless 0 <= m <= k."""
    if m < 0 or m > k:
        return 0
    c = binom_mod_p(k, m, p)
    return (-c) % p if (k - m) % 2 else c


def product_coeff_int(g_coeffs: Iterable[int], k: int, j: int, p: int) -> int:
    """[X^j] of (X - 1)^k g(X), with g given by its coefficients, constant first.

    Only deg(g) + 1 terms contribute, so no full product is ever formed.
    """
    return sum(gi * x_minus_one_coeff(k, j - i, p) for i, gi in enumerate(g_coeffs) if gi) % p


@lru_cache(maxsize=None)
def signed_binom_row(h: int, p: int) -> tuple[int, ...]:
    """Row ((-1)^i C(h, i) mod p for 0 <= i <= h), cached: the coefficients
    of (X - 1)^h from the top down.  No digit exceeds min(h, p - 1), so the
    factorial table grows to that first, never past the length of the row."""
    _factorials(min(h, p - 1), p)
    return tuple(x_minus_one_coeff(h, h - i, p) for i in range(h + 1))


def _to_json(value):
    """value as JSON data: lists and tuples become lists, item by item, and
    objects with a to_dict their dicts.  Dicts are taken as they are."""
    if isinstance(value, (list, tuple)):
        return [v if type(v) is int else _to_json(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


class Record:
    """Base of the result classes: named fields in __slots__, no __dict__.

    Arguments bind to the subclass's __slots__ in order, by position or by
    keyword.  Fields named in _defaults may be left out; a list default is
    copied for each instance.  A missing, unknown or repeated field is a
    TypeError.  to_dict maps every field, then each name in _derived, to
    JSON data.
    """

    __slots__ = ()
    _defaults: dict = {}
    _derived: tuple = ()

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name} has {len(fields)} fields, got {len(args)} arguments")
        values = dict(zip(fields, args))
        if twice := values.keys() & kwargs:
            raise TypeError(f"{name} got field {min(twice)!r} twice")
        values.update(kwargs)
        for field in fields:
            if field in values:
                setattr(self, field, values.pop(field))
            elif field in self._defaults:
                default = self._defaults[field]
                setattr(self, field, list(default) if isinstance(default, list) else default)
            else:
                raise TypeError(f"{name} is missing field {field!r}")
        if values:
            raise TypeError(f"{name} has no field {min(values)!r}")

    def to_dict(self) -> dict:
        return {f: _to_json(getattr(self, f)) for f in (*self.__slots__, *self._derived)}


class PrimeField:
    """Arithmetic context for the field with p elements, p an odd prime.

    p = 2 is accepted nowhere in this package: the constructions divide by 2
    and the parity arguments need -1 != 1.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p > MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


def residues(betas: Iterable[int], p: int) -> tuple[int, ...]:
    """The entries of a sequence prefix reduced mod p; any entry that is not
    an int (a bool, a float, a string) is refused."""
    betas = tuple(betas)
    if not all(type(b) is int for b in betas):
        raise ValueError("entries of betas must be integers")
    return tuple(b % p for b in betas)


class FpPoly:
    """Univariate polynomial over F_p, stored dense, low degree first and
    normalized (no trailing zero coefficients).  Only the product is kept:
    the package itself writes polynomials as residue tuples.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: PrimeField, coeffs: Iterable[int] = ()):
        p = field.p
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def __mul__(self, other):
        if not isinstance(other, FpPoly):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch("cannot mix polynomials over different prime fields")
        p = self.field.p
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)   # empty when a factor is zero
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return type(self)(self.field, out)
