"""Depth-first enumeration of admissible structure-constant prefixes.

Entries beta_(n+1), ..., beta_depth are assigned one index at a time.
Assigning beta_i completes the bracket level s = i + n, and a levels.Walk
solves that level for the entries that pass the checks jacobi_verify runs
on it: the pair (n, s - n) and the Jacobi triples (e_n, e_b, e_c),
n + b + c = s.  They suffice because every lower level on the branch
already passed, which also makes every kept level antisymmetric, so a row
keeps only its left part (see levels).  The branch is cut on the first
violation; prefixes surviving to full depth are emitted, and they pass
jacobi_verify by construction.

Each index is solved for its entries, not tried once per candidate (see
levels.level_solutions).  Rejected candidates still count as nodes, in their
usual order, so `nodes`, `deepest` and the budget cut do not depend on the
solve.  A seeded index is solved the same way, with its seed as the one
candidate.

Odd first-constituent lengths die immediately: placing the first nonzero entry
at index c with c + n even makes the diagonal coefficient gamma(a, a) at
a = (c + n) / 2 a unit multiple of beta_c, and the pair check at that level
rejects it.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from .arith import PrimeField, Record, residues
from .levels import Walk

# Most levels, depth - n, that search_sequences walks.  A branch holds a row
# per level, the L-th at most L + 1 entries long, whatever n is.  Each level
# takes a stack frame, so until the walk keeps an explicit stack, a branch past
# about 1,000 levels (the default recursion limit) is refused with a ValueError.
SEARCH_MAX_LEVELS = 100_000


class SearchReport(Record):
    __slots__ = ("p", "n", "depth", "seed_depth", "normalized", "budget", "nodes",
                 "solution_count", "solutions", "truncated_solutions", "exhausted", "deepest")
    _defaults = {"nodes": 0, "solution_count": 0, "solutions": [],
                 "truncated_solutions": False, "exhausted": False, "deepest": 0}

    @property
    def complete(self) -> bool:
        """Whether the whole tree was covered and every solution stored."""
        return not self.exhausted and not self.truncated_solutions


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
    are counted.  Negative limits, over SEARCH_MAX_LEVELS levels (depth - n)
    and walks that reach the recursion limit are refused with a ValueError.
    """
    if n < 1:
        raise ValueError(f"type must be a positive integer, got {n}")
    if depth < n + 1:
        raise ValueError(f"depth {depth} leaves no entries to assign")
    if depth - n > SEARCH_MAX_LEVELS:
        raise ValueError(f"refusing search: depth {depth} walks {depth - n} levels, "
                         f"above SEARCH_MAX_LEVELS = {SEARCH_MAX_LEVELS}")
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
    walk = Walk(n, p)
    full_range = range(p)
    norm_range = (0, 1)

    def extend(idx: int) -> None:
        if idx > depth:
            report.solution_count += 1
            if len(report.solutions) < max_solutions:
                report.solutions.append(tuple(-g % p for g in walk.col[1:]))
            else:
                report.truncated_solutions = True
            return
        if idx <= report.seed_depth:
            candidates = (seed_vals[idx - n - 1],)
        else:
            candidates = norm_range if normalize and walk.rows[-1] is walk.zero else full_range
        solved = walk.solutions()
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
            walk.push(row)
            extend(idx + 1)
            walk.pop()

    try:
        extend(n + 1)
    except RecursionError:
        raise ValueError(f"refusing search: depth {depth} needs a stack frame per "
                         f"level, past the recursion limit {sys.getrecursionlimit()}") from None
    return report
