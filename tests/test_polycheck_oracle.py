"""The window solver against brute force over every candidate polynomial.

window_solutions row-reduces each exponent's window system over F_p.  The
oracles here try all p^(n-1) monic g per exponent, and every a in F_p for
the lemma pairs, and must give the same lists in the same order.
"""

from itertools import product

import pytest

from maxclass.arith import PrimeField, binom_mod_p
from maxclass.polycheck import window_solutions

from paper_helpers import lemma_pairs_check


def brute_survivors(p, n, k):
    """All monic g (as coefficient tuples, low degree first) passing the window at k."""
    j_lo = (k + n + 1) // 2
    # per-window row of signed C(k, j - i) values, indexed so that
    # row[j - j_lo][i] multiplies g_i
    rows = []
    for j in range(j_lo, k):
        row = []
        for i in range(n):
            m = j - i
            if m < 0 or m > k:
                row.append(0)
                continue
            c = binom_mod_p(k, m, p)
            if (k - m) % 2:
                c = -c % p
            row.append(c)
        rows.append(tuple(row))
    out = []
    for low in product(range(p), repeat=n - 1):
        g = low + (1,)
        ok = True
        for row in rows:
            s = 0
            for gi, ci in zip(g, row):
                if gi:
                    s += gi * ci
            if s % p:
                ok = False
                break
        if ok:
            out.append(g)
    return out


def brute_lemma_pairs(p, k_max, strengthened):
    out = []
    for k in range(2, k_max + 1):
        if strengthened:
            j_lo = (k + 2) // 2  # ceil((k + 1)/2)
        else:
            j_lo = k // 2 + 2 if k % 2 else k // 2 + 1  # ceil(k/2 + 1)
        for a in range(p):
            ok = True
            for j in range(j_lo, k + 1):
                # [X^j](X - 1)^k (X - a) = [X^(j-1)](X-1)^k - a [X^j](X-1)^k
                c1 = binom_mod_p(k, j - 1, p)
                if (k - j + 1) % 2:
                    c1 = -c1
                c2 = binom_mod_p(k, j, p)
                if (k - j) % 2:
                    c2 = -c2
                if (c1 - a * c2) % p:
                    ok = False
                    break
            if ok:
                out.append((k, a))
    return out


# every k to 120 where p^(n-1) <= 400, to 50 where 400 < p^(n-1) <= 3000
GRID = [(p, n, 120 if p ** (n - 1) <= 400 else 50)
        for p in (3, 5, 7, 11, 13) for n in range(2, min(p, 6))
        if p ** (n - 1) <= 3000]


def test_grid_size():
    assert sum(k_max - n - 1 for _, n, k_max in GRID) == 1413


@pytest.mark.parametrize("p,n,k_max", GRID)
def test_survivors_match_brute_force(p, n, k_max):
    for k in range(n + 2, k_max + 1):
        assert window_solutions(p, k, n, (k + n + 1) // 2, k) == brute_survivors(p, n, k), k


@pytest.mark.parametrize("strengthened", [False, True])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_lemma_pairs_match_brute_force(p, strengthened):
    k_max = 2 * p * p + 50
    assert (lemma_pairs_check(PrimeField(p), k_max, strengthened=strengthened)
            == brute_lemma_pairs(p, k_max, strengthened))
