"""The window solver against its row-by-row reference, past the brute-force grid.

window_solutions reads its coefficients through the Lucas blocks of
_window_rows and skips the rows that are all zero.  The reference below
builds every row of the window from x_minus_one_coeff and reduces it; the
two must give the same survivors in the same order for every exponent.
The ranges cross the p^2 and p^3 block boundaries, which the brute-force
grid of test_polycheck_oracle (k <= 120) does not reach.
"""

from itertools import product

import pytest

from maxclass.arith import binom_mod_p, x_minus_one_coeff
from maxclass.polycheck import _next_lucas_block, window_solutions


def reference_window_solutions(p: int, k: int, n: int, j_lo: int, j_hi: int) -> list[tuple[int, ...]]:
    """All monic g of degree n - 1 with [X^j](X - 1)^k g(X) = 0 for j_lo <= j < j_hi.

    Coefficient tuples, low degree first, sorted lexicographically.  Each row
    is reduced against the pivots so far and kept in reduced echelon form; the
    first row reducing to 0 = c with c != 0 ends the call, so an exponent with
    no survivors rarely builds its whole window.
    """
    m = n - 1  # unknowns g_0 .. g_(n-2); column m is the constant from g_(n-1) = 1
    pivots: dict[int, list[int]] = {}  # pivot column -> its row, scaled to 1 there
    for j in range(j_lo, j_hi):
        row = [x_minus_one_coeff(k, j - i, p) for i in range(n)]
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


# (101, 2): every window of k < p sits in one block, and the later ones in few
@pytest.mark.parametrize("p,n,k_max", [(3, 2, 1000), (7, 4, 1000), (5, 3, 400),
                                       (5, 4, 400), (11, 3, 400), (13, 3, 400),
                                       (101, 2, 400)])
def test_window_solutions_match_reference(p, n, k_max):
    for k in range(n + 2, k_max + 1):
        j_lo = (k + n + 1) // 2
        assert window_solutions(p, k, n, j_lo, k) == reference_window_solutions(p, k, n, j_lo, k), k


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lemma_window_matches_reference(p):
    # the n = 2 lemma reads the window up to j = k itself, whose row holds
    # the leading coefficient, and starts it from ceil(k/2 + 1)
    for k in range(2, 2 * p ** 3 + 1):
        j_lo = k // 2 + 2 if k % 2 else k // 2 + 1
        assert window_solutions(p, k, 2, j_lo, k + 1) == reference_window_solutions(p, k, 2, j_lo, k + 1), k


@pytest.mark.parametrize("p", [3, 5, 7])
def test_next_lucas_block_is_the_next_nonzero_binomial(p):
    for k in range(200):
        for b in range(k + 1):
            want = next(c for c in range(b, k + 1) if binom_mod_p(k, c, p))
            assert _next_lucas_block(b, k, p) == want, (k, b)
        assert _next_lucas_block(k + 1, k, p) == k + 1
