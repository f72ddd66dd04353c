"""Sequence checks the tests use but the package does not run."""

import random
from typing import Optional

from maxclass.arith import Record, signed_binom_row
from maxclass.sequences import BetaSequence, bracket_coeff


def reference_bracket_coeff(seq: BetaSequence, a: int, b: int) -> Optional[int]:
    """bracket_coeff as a walk along the whole signed-binomial row of b - n:
    every window entry is read, and the first nonzero term past the depth
    gives None."""
    n = seq.n
    if a < n or b < n:
        raise ValueError(f"bracket_coeff needs a, b >= n = {n}, got ({a}, {b})")
    p = seq.field.p
    row = signed_binom_row(b - n, p)
    total = 0
    for i, c in enumerate(row):
        if c == 0:
            continue
        idx = a + i
        if idx > seq.depth:
            return None
        if idx > n:  # beta_n is 0, by [e_n, e_n] = 0
            total += c * seq.betas[idx - n - 1]
    return total % p


def pascal_row(prev: list[int], beta: int, p: int) -> list[int]:
    """The bracket coefficients of level s from those of level s - 1: the
    full-row reference for levels.level_row.

    Entry a - n of the row for level s is gamma(a, s - a), a = n .. s - n.
    The last entry is gamma(s - n, n) = beta_(s-n); the others follow right
    to left from gamma(a, b) = gamma(a, b - 1) - gamma(a + 1, b - 1), which
    is Jacobi on (e_a, e_(b-1), z).  The level-2n row is [0].
    """
    row = [beta]
    right = beta
    for g in reversed(prev):
        right = (g - right) % p
        row.append(right)
    row.reverse()
    return row


def level_failure(row: list[int], low: list[int], col: list[int],
                  n: int, p: int) -> Optional[dict]:
    """First bracket-axiom violation on one level, given that antisymmetry
    holds on the levels below it: None, or a failure dict as in JacobiReport.

    row is level s, low is level s - n, and col[j] = gamma(n, n + j), the
    first entry of level 2n + j, for the levels up to s - n.

    Antisymmetry needs one pair per level.  Write A(a, b) = gamma(a, b) +
    gamma(b, a); the Pascal recurrence gamma(a, b) = gamma(a, b + 1) +
    gamma(a + 1, b) gives A(a, b) = A(a, b + 1) + A(a + 1, b).  If level
    s - 1 holds, the defects of level s alternate in sign along the row, so
    they are all +-A(n, s - n), and A(a, b) = A(b, a) makes them vanish when
    s is odd.  So the pair (n, s - n) fails whenever any pair of the level
    does.  Jacobi is checked on the triples (e_n, e_b, e_c) of the level, in
    order of b (see jacobi_verify).

    The full-row reference for levels.pair_residual and levels.level_failure,
    which read only the left part of each level.
    """
    s = len(row) + 2 * n - 1
    r = (row[0] + row[-1]) % p
    if r:
        return {"kind": "antisymmetry", "indices": [n, s - n], "value": r}
    for b in range(n, (s - n) // 2 + 1):
        c = s - n - b
        v = (low[b - n] * row[0] - col[b - n] * row[b] + col[c - n] * row[c]) % p
        if v:
            return {"kind": "jacobi", "indices": [n, b, c], "value": v}
    return None


def left_size(s: int, n: int) -> int:
    """Entries of the left part of level s, as maxclass.levels keeps it."""
    return min((s - n) // 2, s - 2 * n) + 1


def completed(left: list[int], t: int, n: int, p: int) -> list[int]:
    """The full level t, by antisymmetry, of a row holding at least its left
    part; [] below level 2n."""
    size = max(0, t - 2 * n + 1)
    return [left[k] if k < len(left) else -left[size - 1 - k] % p for k in range(size)]


def random_antisymmetric(rng: random.Random, t: int, n: int, p: int,
                         density: float = 1.0) -> list[int]:
    """A random antisymmetric full level t, t >= 2n: its diagonal is 0."""
    size = t - 2 * n + 1
    half = [rng.randrange(p) if rng.random() < density else 0 for _ in range(size // 2)]
    return half + [0] * (size % 2) + [-v % p for v in reversed(half)]


def eih_residual(seq: BetaSequence, i: int, h: int) -> Optional[int]:
    """The two-row constraint usable whenever beta_(n+h) = 0 (caller-checked):

        beta_(i+h+n) sum_g (-1)^g C(h, g) beta_(i+g)
          - beta_i sum_g (-1)^g C(h, g) beta_(i+n+g)  = 0,

    that is beta_(i+h+n) gamma(i, n+h) - beta_i gamma(i+n, n+h) = 0.
    Returns None when the depth is below i + h + n.
    """
    n = seq.n
    if i <= n or h <= 0:
        raise ValueError(f"need i > n and h > 0, got i={i}, h={h}")
    if i + h + n > seq.depth:
        return None
    return (seq.beta(i + h + n) * bracket_coeff(seq, i, n + h)
            - seq.beta(i) * bracket_coeff(seq, i + n, n + h)) % seq.field.p


class LcsReport(Record):
    """Constituent lengths recovered from the lower central series of the
    derived subalgebra: the r-th length is dim of the r-th quotient, the
    first with n added.  incomplete_count holds the entries of the last,
    depth-cut quotient."""

    __slots__ = ("depth", "lengths", "incomplete_count", "no_second_power", "contiguous")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LcsReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def constituents_via_lcs(seq: BetaSequence) -> LcsReport:
    """Recover constituent lengths from dimensions of lower-central-series
    quotients of the derived subalgebra, as an independent cross-check.

    Requires beta_(n+1) = 0; the dimension bookkeeping breaks down otherwise
    (the all-ones sequence is the standing counterexample), so such input is
    refused.  A prefix with no nonzero bracket among degrees > n reports
    no_second_power instead of lengths.  The series is read to the prefix's
    depth; pass seq.truncate(d) for a shorter one.
    """
    D, n = seq.depth, seq.n
    if D > n + 1 and seq.beta(n + 1) != 0:
        raise ValueError(
            "constituent lengths via the lower central series require beta_(n+1) = 0")
    # The terms are nested: e_d lies in terms 0 .. ranks[d - n - 1], and e_s
    # joins term r + 1 iff [e_d, e_(s-d)] != 0 for some e_d of term r, s - d > n.
    ranks = [0] * (min(D, 2 * n) - n)
    row = [0]
    for s in range(2 * n + 1, D + 1):
        row = pascal_row(row, seq.betas[s - 2 * n - 1], seq.field.p)
        ranks.append(1 + max((r for r, g in zip(ranks, row[1:s - 2 * n]) if g),
                             default=-1))
    counts = [ranks.count(r) for r in range(max(ranks, default=-1) + 1)]
    # at depth n there are no entries, so no term at all
    if len(counts) <= 1:
        return LcsReport(depth=D, lengths=[], incomplete_count=None,
                         no_second_power=True, contiguous=True)
    counts[0] += n
    # the last term is cut off by the horizon, not a true dimension
    return LcsReport(depth=D, lengths=counts[:-1], incomplete_count=counts[-1],
                     no_second_power=False,
                     contiguous=all(a <= b for a, b in zip(ranks, ranks[1:])))
