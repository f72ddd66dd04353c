"""Statements the tests check but the package does not run."""

from maxclass.arith import PrimeField, binom_mod_p
from maxclass.exceptional import ExceptionalParams
from maxclass.polycheck import powers_of, window_solutions


def is_power_of(q: int, p: int) -> bool:
    """True when q = p^e for some e >= 1."""
    if q < p:
        return False
    while q % p == 0:
        q //= p
    return q == 1


def lucas_symmetry_check(a: int, b: int, q: int, p: int) -> bool:
    """Check C(a, q-1-b) = (-1)^(a+b) C(b, q-1-a) mod p for 0 <= a, b < q.

    Here q must be a power of p.  Both sides vanish together when the
    column index exceeds the row index.
    """
    if not is_power_of(q, p):
        raise ValueError(f"{q} is not a power of {p}")
    if not (0 <= a < q and 0 <= b < q):
        raise ValueError(f"need 0 <= a, b < q, got a={a}, b={b}, q={q}")
    lhs = binom_mod_p(a, q - 1 - b, p)
    rhs = binom_mod_p(b, q - 1 - a, p)
    if (a + b) % 2 == 1:
        rhs = (-rhs) % p
    return lhs == rhs


def in_large_k_menu(p: int, n: int, k: int) -> bool:
    """k = 2q - n + 1 or q - n < k < q + n for some power q > p of p."""
    for q in powers_of(p, 2 * k + n, above=p):
        if k == 2 * q - n + 1 or q - n < k < q + n:
            return True
    return False


def lemma_pairs_check(field: PrimeField, k_max: int, strengthened: bool = False) -> list[tuple[int, int]]:
    """All pairs (k, a) with 1 < k <= k_max and a in F_p such that every
    coefficient of (X - 1)^k (X - a) vanishes for k/2 + 1 <= j <= k
    (strengthened: (k + 1)/2 <= j <= k; differs only for odd k).

    Returned as (k, a) with a a residue in [0, p); sorted.  X - a is the
    n = 2 case of window_solutions, with a = -g_0.
    """
    p = field.p
    out = []
    for k in range(2, k_max + 1):
        if strengthened:
            j_lo = (k + 2) // 2  # ceil((k + 1)/2)
        else:
            j_lo = k // 2 + 2 if k % 2 else k // 2 + 1  # ceil(k/2 + 1)
        out.extend(sorted((k, -g[0] % p) for g in window_solutions(p, k, 2, j_lo, k + 1)))
    return out


def expected_pairs(field: PrimeField, k_max: int, strengthened: bool = False) -> set[tuple[int, int]]:
    """The pair menu {(2, -2), (3, -3)} plus {(q-1, 1), (q, 0), (2q-1, 1)} over
    powers q of p, restricted to 1 < k <= k_max.  The strengthened window
    drops (3, -3) and (2q-1, 1)."""
    p = field.p
    pairs = {(2, (-2) % p)}
    if not strengthened:
        pairs.add((3, (-3) % p))
    for q in powers_of(p, k_max + 1):
        pairs.add((q - 1, 1))
        pairs.add((q, 0))
        if not strengthened:
            pairs.add((2 * q - 1, 1))
    return {(k, a) for (k, a) in pairs if 1 < k <= k_max}


def theorem_parameter_grid(field: PrimeField, c: int) -> list[ExceptionalParams]:
    """All (n, m) in theorem mode for the given prime power: 1 < n < p,
    0 < m < n.  Empty unless q > p."""
    if c < 2:
        return []
    return [ExceptionalParams(field, c, n, m)
            for n in range(2, field.p)
            for m in range(1, n)]
