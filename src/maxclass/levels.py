"""The bracket table of a type-n sequence, one level at a time.

Write gamma(a, b) for the coefficient of e_(a+b) in [e_a, e_b], a, b >= n.
Level s holds the gamma(a, s - a); it is fixed by level s - 1 and
beta_(s-n) = gamma(s - n, n) through the Pascal recurrence

    gamma(a, b) = gamma(a, b + 1) + gamma(a + 1, b),

which is Jacobi on (e_a, e_b, z).  Both sweeps, sequences.jacobi_verify
and search.search_sequences, keep a level only once it is antisymmetric, so
they store its left part: row s holds gamma(a, s - a) for a = n .. n + H,
H = min((s - n) // 2, s - 2n), and gamma(a, b) with a > n + H is read as
-gamma(b, a).  The left part reaches a little past the middle of the level
because the Jacobi check reads gamma(b + n, c) for b <= c.  The level-2n
row is [0].

For each level, pair_residual checks the pair (n, s - n) from the row
below, level_row builds the new row, and level_failure checks its Jacobi
triples.
"""

from __future__ import annotations

from typing import Optional


def row_size(s: int, n: int) -> int:
    """Entries in the left part of level s, H + 1 for s >= 2n."""
    return min((s - n) // 2, s - 2 * n) + 1


def level_row(prev: list[int], beta: int, s: int, n: int, p: int) -> list[int]:
    """Left part of level s from that of level s - 1 and beta = beta_(s-n),
    for a level that passes pair_residual.

    Then gamma(n, s - n) = -beta_(s-n), and the recurrence read as
    gamma(a + 1, s - a - 1) = gamma(a, s - 1 - a) - gamma(a, s - a) gives
    the rest from left to right: row[k + 1] = prev[k] - row[k].
    """
    g = -beta % p
    row = [g]
    for x in prev[:row_size(s, n) - 1]:
        g = (x - g) % p
        row.append(g)
    return row


def pair_residual(prev: list[int], beta: int, s: int, n: int, p: int) -> int:
    """gamma(n, s - n) + gamma(s - n, n) on level s, from the left part of an
    antisymmetric level s - 1 and beta = beta_(s-n).

    Write A(a, b) = gamma(a, b) + gamma(b, a); the recurrence gives
    A(a, b) = A(a, b + 1) + A(a + 1, b).  As level s - 1 holds, the defects
    of level s alternate in sign along it, so they are all +-A(n, s - n):
    the level is antisymmetric exactly when this pair is.  When s is odd,
    A(a, b) = A(b, a) makes them vanish, so the residual is 0.  When s is
    even, the full level s - 1 has s - 2n entries, its right half the left
    half mirrored and negated, and stepping it from beta_(s-n) = gamma(s -
    n, n) gives gamma(n, s - n) = 2 sum_(k<h) (-1)^k prev[k] + beta, with
    h = (s - 2n) / 2, so the residual is 2 (sum_(k<h) (-1)^k prev[k] + beta).
    """
    if s % 2:
        return 0
    h = (s - 2 * n) // 2
    return 2 * (sum(prev[:h:2]) - sum(prev[1:h:2]) + beta) % p


def level_failure(row: list[int], low: list[int], col: list[int],
                  s: int, n: int, p: int) -> Optional[dict]:
    """First Jacobi triple (e_n, e_b, e_c), n <= b <= c, n + b + c = s, that
    fails on level s, in order of b: None, or a failure dict as in
    sequences.JacobiReport.

    row is the left part of level s, low that of level s - n, and col[j] =
    gamma(n, n + j), the first entry of level 2n + j, for the levels up to
    s - n.  The levels below s must be antisymmetric, and level s must pass
    pair_residual; the triple then reads gamma(c + n, b) as -row[b - n].

    This is the one copy of the Jacobi residual.  It is linear in row, as low
    and col come from lower levels, so search.level_solutions also runs it
    on the slope vector of a level to solve for its new entry.
    """
    top = s - 3 * n
    g = row[0]
    for j in range(top // 2 + 1):
        v = (low[j] * g - col[j] * row[j + n] - col[top - j] * row[j]) % p
        if v:
            return {"kind": "jacobi", "indices": [n, j + n, s - 2 * n - j], "value": v}
    return None
