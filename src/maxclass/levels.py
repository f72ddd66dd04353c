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
triples; level_solutions solves a level for every passing entry, and Walk,
a list of rows, steps a given or a solved entry and owns the zero prefix:
check stores a zero level as its column entry alone.
"""

from __future__ import annotations

from typing import Iterator, Optional


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
    and col come from lower levels, so level_solutions also runs it
    on the slope vector of a level to solve for its new entry.
    """
    top = s - 3 * n
    g = row[0]
    for j in range(top // 2 + 1):
        v = (low[j] * g - col[j] * row[j + n] - col[top - j] * row[j]) % p
        if v:
            return {"kind": "jacobi", "indices": [n, j + n, s - 2 * n - j], "value": v}
    return None


def level_solutions(prev: list[int], low: list[int], col: list[int], s: int, n: int,
                    p: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (beta, row) for every beta, in increasing order, for which level s
    passes pair_residual and level_failure (prev, low, col as in both), and its row.

    The entry is solved for, not tried: level_row(prev, beta) = row0 + beta u,
    with row0 = level_row(prev, 0) and u[k] = (-1)^(k + 1), so each residual,
    linear in the row, is v0 + beta v1, with v0 its value on row0 and v1 on
    u, and the admissible entries are none, one, or all of F_p.
    - Even level: the pair residual is pair_residual(prev, 0) + 2 beta.
      That forces beta before any row is built.
    - Odd level: the pair residual is 0, because the levels below hold.
      beta = 0 is checked on row0.  The nonzero entries are solved only when
      the caller asks for more, by one level_failure pass on u, which finds
      the first nonzero slope v1.  If row0 passes, they all pass when no
      slope is nonzero, and none does otherwise.  If row0 first fails a
      Jacobi triple with value v0, the triples before it have v0 = 0, so
      only beta = -v0 / v1 can pass, and only when u's first nonzero slope
      is at that triple; its row is then checked in full.
    """
    # 0 on odd levels, where the pair residual is 0
    beta = -pair_residual(prev, 0, s, n, p) * ((p + 1) // 2) % p
    row = level_row(prev, beta, s, n, p)
    failure = level_failure(row, low, col, s, n, p)
    if failure is None:
        yield beta, row
    if s % 2 == 0:
        return
    # u, twice as long as a row; level_failure reads only the row's part
    slope = level_failure([p - 1, 1] * len(row), low, col, s, n, p)
    if failure is None:
        if slope is None:
            for beta in range(1, p):
                yield beta, level_row(prev, beta, s, n, p)
    elif slope is not None and slope["indices"] == failure["indices"]:
        beta = -failure["value"] * pow(slope["value"], p - 2, p) % p
        row = level_row(prev, beta, s, n, p)
        if level_failure(row, low, col, s, n, p) is None:
            yield beta, row


class Walk:
    """A walk up the levels from 2n: rows holds left parts of the levels
    stepped, from the level-2n row on, and col[j] = gamma(n, n + j) =
    -beta_(n+j).  The next level is s = 2n + len(col); rows[-1] is level s - 1.

    On a zero prefix every level is zero and passes every check (even levels
    force beta = 0, odd ones admit all); they build no row and share one,
    zero, the level-2n row grown in place to each level's size, as readers
    read prefixes.  rows[-1] is zero exactly on a zero prefix, as level_row
    builds a new list and the levels below a zero level are zero.  push
    stores zero for a zero level; check, which never steps back, stores none
    and keeps the last n rows.  So level s - n, read from s = 3n on, is
    rows[-n] if len(rows) > n, else rows[0]: zero, or rows[-n] if n are held.
    """

    __slots__ = ("n", "p", "rows", "col", "zero")

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p
        self.zero = [0]
        self.rows, self.col = [self.zero], [0]

    def _grow(self, s: int) -> None:
        """Grow zero to the left part of level s, at most one entry past level s - 1's."""
        if len(self.zero) < row_size(s, self.n):
            self.zero.append(0)

    def check(self, beta: int) -> Optional[dict]:
        """pair_residual's failure at the next level for beta, or level_failure's on its step."""
        rows, col, n, p = self.rows, self.col, self.n, self.p
        s = 2 * n + len(col)
        prev = rows[-1]
        if prev is self.zero and not beta:
            self._grow(s)
            col.append(0)
            return None
        r = pair_residual(prev, beta, s, n, p)
        if r:
            return {"kind": "antisymmetry", "indices": [n, s - n], "value": r}
        row = level_row(prev, beta, s, n, p)
        failure = level_failure(row, rows[-n] if len(rows) > n else rows[0], col, s, n, p)
        self.push(row)
        if len(rows) > n:
            del rows[0]
        return failure

    def solutions(self) -> Iterator[tuple[int, list[int]]]:
        """level_solutions at the next level; on a zero level, zero for beta = 0
        and, at odd s, the rows of beta = 1 .. p - 1, built as they are asked for."""
        rows, col, n, p, zero = self.rows, self.col, self.n, self.p, self.zero
        s = 2 * n + len(col)
        if rows[-1] is zero:
            self._grow(s)
            return ((beta, level_row(zero, beta, s, n, p) if beta else zero)
                    for beta in range(p if s % 2 else 1))
        return level_solutions(rows[-1], rows[-n] if len(rows) > n else rows[0], col, s, n, p)

    def push(self, row: list[int]) -> None:
        """Step to row's level."""
        self.rows.append(row)
        self.col.append(row[0])

    def pop(self) -> None:
        self.rows.pop()
        self.col.pop()
