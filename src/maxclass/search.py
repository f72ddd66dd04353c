"""Depth-first enumeration of admissible structure-constant prefixes.

Entries beta_(n+1), ..., beta_depth are assigned one index at a time.
Assigning beta_i completes the bracket level s = i + n.  Writing gamma(a, b)
for the coefficient of [e_a, e_b], the level is checked at the pair
(n, s - n) by levels.pair_residual and, once that holds, built from level
s - 1 by levels.level_row and checked at its Jacobi triples (e_n, e_b, e_c),
n + b + c = s, by levels.level_failure: the same per-level checks that
jacobi_verify runs.  They suffice because every lower level on the branch
already passed, which also makes every kept level antisymmetric, so a row
keeps only its left part (see levels).  The branch is cut on the first
violation.

An index is solved for its entry, not tried once per candidate.  Every
residual of the level is linear in its row, and level_row(prev, beta) =
level_row(prev, 0) + beta u with u[k] = (-1)^(k + 1), so each residual is
v0 + beta v1 and the admissible entries are none, one, or all of F_p
(level_solutions).  Whatever p is, an index costs at most one row and one
residual pass, for beta = 0 at odd levels and for the forced entry at even
ones, and nothing while the prefix is zero.  Once the walk gets past
beta = 0, an odd level adds one pass on u and a row for each admissible
nonzero entry.  Rejected candidates still count as nodes, in their usual
order, so `nodes`, `deepest` and the budget cut do not depend on the solve.
A seeded index is solved the same way, with its seed as the one candidate.

Prefixes surviving to full depth are emitted; they pass jacobi_verify by
construction (the search checks a superset of its constraints).  Odd
first-constituent lengths die immediately: placing the first nonzero entry
at index c with c + n even makes the diagonal coefficient gamma(a, a) at
a = (c + n) / 2 a unit multiple of beta_c, and the pair check at that level
rejects it.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional, Sequence

from .arith import PrimeField, Record, residues
from .levels import level_failure, level_row, pair_residual, row_size

# Largest depth that search_sequences accepts.  Nothing is allocated up front;
# the bound caps the rows of a branch, one per level reached: level s keeps
# about (s - n) / 2 entries, so a branch holds about (depth - n)^2 / 4.  The
# walk itself takes one stack frame per level, so until it keeps an explicit
# stack, a branch of more than about 1,000 levels (the interpreter's default
# recursion limit) is refused with a ValueError.
SEARCH_MAX_DEPTH = 100_000


class SearchReport(Record):
    __slots__ = ("p", "n", "depth", "seed_depth", "normalized", "budget", "nodes",
                 "solution_count", "solutions", "truncated_solutions", "exhausted", "deepest")
    _defaults = {"nodes": 0, "solution_count": 0, "solutions": [],
                 "truncated_solutions": False, "exhausted": False, "deepest": 0}

    @property
    def complete(self) -> bool:
        """Whether the whole tree was covered and every solution stored."""
        return not self.exhausted and not self.truncated_solutions


def level_solutions(prev: list[int], low: list[int], col: list[int], s: int, n: int,
                    p: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (beta, level_row(prev, beta, s, n, p)) for every beta, in
    increasing order, for which level s passes pair_residual and
    level_failure(row, low, col, s, n, p).

    level_row(prev, beta) = row0 + beta u, where row0 = level_row(prev, 0)
    and u[k] = (-1)^(k + 1).  Each Jacobi residual is v0 + beta v1, with v0
    its value on row0 and v1 its value on u.
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
    A zero prev means a zero prefix.  Then row0 is zero and passes every
    check, as each residual has a factor from the row, and even levels
    force beta = 0; neither takes a row or a pass.
    """
    if not any(prev):
        row = [0] * row_size(s, n)
        failure = None
        yield 0, row
        if s % 2 == 0:
            return
    elif s % 2 == 0:
        beta = -pair_residual(prev, 0, s, n, p) * ((p + 1) // 2) % p
        row = level_row(prev, beta, s, n, p)
        if level_failure(row, low, col, s, n, p) is None:
            yield beta, row
        return
    else:
        row = level_row(prev, 0, s, n, p)
        failure = level_failure(row, low, col, s, n, p)
        if failure is None:
            yield 0, row
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


def search_sequences(field: PrimeField, n: int, depth: int,
                     seed: Optional[Sequence[int]] = None,
                     normalize: bool = True,
                     budget: int = 500_000,
                     max_solutions: int = 1000) -> SearchReport:
    """Enumerate all beta prefixes to `depth` satisfying every bracket
    constraint determined within the window.

    seed pins the leading entries: a list of ints from beta_(n+1) on, taken
    as BetaSequence entries are (reduced mod p; any other type is refused).
    Seeded levels are checked, not trusted.  With normalize=True the first
    nonzero entry is restricted to 1 (any other value is a rescaling of
    e_n).  budget caps the number of assignments tried; on exhaustion the
    report carries exhausted=True and whatever was found so far.  Solutions
    appear in lexicographic order; at most max_solutions are stored, all
    are counted.  Negative limits, depths above SEARCH_MAX_DEPTH and walks
    that reach the recursion limit are refused with a ValueError.
    """
    if n < 1:
        raise ValueError(f"type must be a positive integer, got {n}")
    if depth < n + 1:
        raise ValueError(f"depth {depth} leaves no entries to assign")
    if depth > SEARCH_MAX_DEPTH:
        raise ValueError(f"refusing search: depth {depth} exceeds "
                         f"SEARCH_MAX_DEPTH = {SEARCH_MAX_DEPTH}")
    if budget < 0 or max_solutions < 0:
        raise ValueError(f"budget and max_solutions must be nonnegative, "
                         f"got {budget} and {max_solutions}")
    p = field.p
    seed_vals = residues(seed or [], p)
    if n + len(seed_vals) > depth:
        raise ValueError(
            f"seed depth {n + len(seed_vals)} exceeds search depth {depth}")

    report = SearchReport(p=p, n=n, depth=depth, seed_depth=n + len(seed_vals),
                          normalized=normalize, budget=budget, deepest=n)
    # Stacks along the current branch, pushed before each recursive call and
    # popped after it.  At level s, rows holds the left parts of levels
    # n + 1 .. s - 1 (as levels.level_row; those below 2n are empty), so
    # rows[-1] is level s - 1 and rows[-n] level s - n; col[j] = gamma(n,
    # n + j) = -beta_(n+j), so the branch's entries are read off col[1:].
    rows: list[list[int]] = [[]] * (n - 1) + [[0]]
    col = [0]
    full_range = range(p)
    norm_range = (0, 1)

    def extend(idx: int, has_nonzero: bool) -> None:
        if idx > depth:
            report.solution_count += 1
            if len(report.solutions) < max_solutions:
                report.solutions.append(tuple(-g % p for g in col[1:]))
            else:
                report.truncated_solutions = True
            return
        prev, low = rows[-1], rows[-n]
        if idx <= report.seed_depth:
            candidates = (seed_vals[idx - n - 1],)
        else:
            candidates = norm_range if normalize and not has_nonzero else full_range
        solved = level_solutions(prev, low, col, idx + n, n, p)
        # the next admissible entry not below the candidate; p when none is left
        beta, row = -1, None
        for value in candidates:
            if report.exhausted:
                return
            report.nodes += 1
            if report.nodes > budget:
                report.exhausted = True
                return
            while beta < value:
                beta, row = next(solved, (p, None))
            if beta != value:
                continue
            if idx > report.deepest:
                report.deepest = idx
            rows.append(row)
            col.append(row[0])
            extend(idx + 1, has_nonzero or value != 0)
            rows.pop()
            col.pop()

    try:
        extend(n + 1, False)
    except RecursionError:
        raise ValueError(f"refusing search: depth {depth} needs a stack frame per "
                         f"level, past the recursion limit {sys.getrecursionlimit()}") from None
    return report
