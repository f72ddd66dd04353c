"""Coefficient-vanishing window checks for (X - 1)^k g(X) over F_p.

The central question: for which exponents k does some monic g of degree n - 1
make every coefficient of (X - 1)^k g(X) vanish in the window
ceil((k + n)/2) <= j < k?  The window conditions are affine-linear in the
coefficients of g, so classify_admissible_k row-reduces them over F_p per k
and lists the affine solution space; the admissible k are then compared
against a short menu of values tied to powers of p.  The rows are read
through the Lucas blocks of k: one new coefficient per row, at most one
base-p digit product per p rows, and no row whose coefficients are all zero.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Iterator

from .arith import PrimeField, Record, binom_mod_p, x_minus_one_coeff

# Bound on p^(n-1) * k_max per call.  At k = q every one of the p^(n-1) monic
# g survives, so this caps the size of the report, not its time: each k
# solves a window of up to about k/2 rows, less the rows that are all zero.
# In one process on a 2-core Xeon (Python 3.11), p = 3, n = 2 (cost 3 k_max)
# takes 0.1 s at k_max = 5,000, 0.5 s at 20,000, 1.9 s at 80,000 and 44 s at
# 1,666,666, the whole budget.  Eleven other (p, n) at the whole budget, p
# from 5 to 4999, took 0.1 to 21 s.
CLASSIFY_BUDGET = 5_000_000


def _window_rows(p: int, k: int, n: int, j_lo: int, j_hi: int) -> Iterator[list[int]]:
    """The rows ([X^(j-i)](X - 1)^k for 0 <= i < n), j_lo <= j < j_hi, that
    are not all zero, in order of j.

    Write k = k1 p + k0 and e = b p + r with 0 <= k0, r < p.  By Lucas, and
    since p is odd so that (-1)^(k-e) = (-1)^(k1-b) (-1)^(k0-r),
    [X^e](X - 1)^k = [X^r](X - 1)^k0 * [X^b](X - 1)^k1, for every integer e.
    So a table of the low digit, filled in once per k as the rows reach it,
    times one high-part coefficient per block of p consecutive e gives each
    coefficient, and row j reads one new coefficient, sharing the other
    n - 1 with row j - 1.  A zero coefficient has r > k0 or a high part of
    0, and either way the rest of its block is zero too.  So once the newest
    n coefficients are zero, the rows up to the next block with a nonzero
    high part are all zero, and are skipped whole; the digits of k1 give
    that block.
    """
    k1, k0 = divmod(k, p)
    low: dict[int, int] = {}   # r -> [X^r](X - 1)^k0, as the rows reach r
    window = deque([0] * n, maxlen=n)   # coefficients of X^e, X^(e-1), ...
    zeros = n   # how many of the newest coefficients in window are zero
    e = j_lo - n + 1
    b, r = divmod(e, p)
    high = x_minus_one_coeff(k1, b, p)
    while e < j_hi:
        c = low.get(r)
        if c is None:
            c = low[r] = x_minus_one_coeff(k0, r, p)
        c = c * high % p
        window.appendleft(c)
        zeros = 0 if c else zeros + 1
        if zeros < n:
            if e >= j_lo:
                yield list(window)
            e, r = e + 1, r + 1
            if r < p:
                continue
            b += 1
        else:   # c = 0, so r > k0 or high = 0: the block is zero to its end
            b = _next_lucas_block(b + 1, k1, p)
            e = b * p
        r = 0
        high = x_minus_one_coeff(k1, b, p)


def _next_lucas_block(b: int, k: int, p: int) -> int:
    """The least b' >= b whose base-p digits are each at most k's, that is,
    with C(k, b') != 0 mod p by Lucas; b itself once b > k."""
    place = 1
    while place <= b <= k:
        if b // place % p > k // place % p:   # round b up past this digit
            b = (b // (place * p) + 1) * place * p
        place *= p
    return b


def window_solutions(p: int, k: int, n: int, j_lo: int, j_hi: int) -> list[tuple[int, ...]]:
    """All monic g of degree n - 1 with [X^j](X - 1)^k g(X) = 0 for j_lo <= j < j_hi.

    Coefficient tuples, low degree first, sorted lexicographically.  The
    rows come from _window_rows, which reads one new coefficient per row and
    leaves out the rows that are all zero, each of which would reduce to
    0 = 0.  Each row is reduced against the pivots so far and kept in
    reduced echelon form; the first row reducing to 0 = c with c != 0 ends
    the call, so an exponent with no survivors rarely builds its whole
    window.
    """
    m = n - 1  # unknowns g_0 .. g_(n-2); column m is the constant from g_(n-1) = 1
    pivots: dict[int, list[int]] = {}  # pivot column -> its row, scaled to 1 there
    for row in _window_rows(p, k, n, j_lo, j_hi):
        for col, prow in pivots.items():
            if c := row[col]:
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        lead = next((i for i in range(m) if row[i]), None)
        if lead is None:
            if row[m]:
                return []
            continue
        inv = pow(row[lead], p - 2, p)
        row = [a * inv % p for a in row]
        for col, prow in pivots.items():
            if c := prow[lead]:
                pivots[col] = [(a - c * b) % p for a, b in zip(prow, row)]
        pivots[lead] = row
    free = [i for i in range(m) if i not in pivots]
    known = free + [m]
    out = []
    for values in product(range(p), repeat=len(free)):
        g = [0] * m + [1]
        for i, v in zip(free, values):
            g[i] = v
        for col, prow in pivots.items():
            g[col] = -sum(prow[i] * g[i] for i in known) % p
        out.append(tuple(g))
    return sorted(out)


def powers_of(p: int, limit: int, above: int = 1) -> list[int]:
    """Powers p^e <= limit with p^e > above."""
    out, q = [], p
    while q <= limit:
        if q > above:
            out.append(q)
        q *= p
    return out


def in_small_k_menu(p: int, n: int, k: int) -> bool:
    """The menu classify tests every exponent against: the short interval
    list plus the power-of-p values taken over every power q > 1 (small
    powers matter, e.g. q = p itself).  For 1 < n < p the intervals and the
    q = p values lie below 4p, so from k = 4p on only the powers q > p
    can match."""
    if n + 1 < k < p or 2 * p - n < k < 2 * p or 3 * p - n < k < 3 * p or k == 4 * p - n + 1:
        return True
    for q in powers_of(p, 2 * k + n):
        if k == 2 * q - n + 1 or q - n < k < q + n:
            return True
    return False


class ClassifyReport(Record):
    # survivors: only the k with survivors
    __slots__ = ("field", "n", "k_max", "survivors", "menu_violations",
                 "structure_violations")
    _defaults = {"menu_violations": [], "structure_violations": []}

    @property
    def menu_ok(self) -> bool:
        return not self.menu_violations

    @property
    def structure_ok(self) -> bool:
        return not self.structure_violations

    @property
    def ok(self) -> bool:
        return self.menu_ok and self.structure_ok

    def to_dict(self) -> dict:
        return {
            "p": self.field.p,
            "n": self.n,
            "k_max": self.k_max,
            "admissible": {str(k): [list(g) for g in gs] for k, gs in sorted(self.survivors.items())},
            "menu_ok": self.menu_ok,
            "menu_violations": self.menu_violations,
            "structure_ok": self.structure_ok,
            "structure_violations": [[k, list(g), why] for k, g, why in self.structure_violations],
        }


def _check_structure(report: ClassifyReport) -> None:
    """Per-survivor shape assertions at the power-of-p exponents, on the
    coefficient tuples themselves:

    - k = 2q - n + 1 (q > p) -> g = (X - 1)^(n-1), and it is the only survivor
    - q - n < k < q          -> (X - 1)^(q - k) divides g
    - k = q + k0, 0 < k0 < n -> X^k0 divides g
    """
    n, p = report.n, report.field.p
    want = tuple(x_minus_one_coeff(n - 1, j, p) for j in range(n))
    for k, gs in sorted(report.survivors.items()):
        for q in powers_of(p, 2 * k + n, above=p):
            if k == 2 * q - n + 1 and gs != [want]:
                report.structure_violations.append(
                    (k, gs[0] if gs else (), f"expected unique survivor (X-1)^{n - 1}"))
            if q - n < k < q:
                for g in gs:
                    # Taylor at 1: (X - 1)^e | g iff sum_i C(i, t) g_i = 0 for t < e
                    if any(sum(binom_mod_p(i, t, p) * gi for i, gi in enumerate(g)) % p
                           for t in range(q - k)):
                        report.structure_violations.append(
                            (k, g, f"(X-1)^{q - k} does not divide g"))
            if q < k < q + n:
                k0 = k - q
                for g in gs:
                    if any(g[i] for i in range(k0)):
                        report.structure_violations.append((k, g, f"X^{k0} does not divide g"))


def classify_admissible_k(field: PrimeField, n: int, k_max: int) -> ClassifyReport:
    """All monic g of degree n - 1 passing the window, per exponent n + 1 < k <= k_max.

    Requires 1 < n < p and k_max >= n + 2.  Survivors of each k come from
    window_solutions, lexicographic on the coefficient vector, low degree
    first, so reports are deterministic.  Refuses when p^(n-1) * k_max
    exceeds CLASSIFY_BUDGET.
    """
    p = field.p
    if not (1 < n < p):
        raise ValueError(f"need 1 < n < p, got n={n}, p={p}")
    if k_max < n + 2:
        raise ValueError(f"need k_max >= n + 2 = {n + 2}, got k_max={k_max}")
    cost = p ** (n - 1) * k_max
    if cost > CLASSIFY_BUDGET:
        raise ValueError(
            f"refusing classify run: cost p^(n-1)*k_max = {cost} exceeds budget {CLASSIFY_BUDGET}")
    survivors: dict[int, list[tuple[int, ...]]] = {}
    for k in range(n + 2, k_max + 1):
        gs = window_solutions(p, k, n, (k + n + 1) // 2, k)
        if gs:
            survivors[k] = gs
    report = ClassifyReport(field, n, k_max, survivors,
                            [k for k in sorted(survivors) if not in_small_k_menu(p, n, k)])
    _check_structure(report)
    return report
