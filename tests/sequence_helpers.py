"""Sequence checks the tests use but the package does not run."""

from typing import Optional

from maxclass.arith import Record, signed_binom_row
from maxclass.sequences import BetaSequence, bracket_coeff, bracket_levels


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
    for s, row in bracket_levels(seq, D):
        if s > 2 * n:
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
