"""Structure-constant sequences for graded Lie algebras of maximal class.

An algebra of type n is generated by elements z (degree 1) and e_n (degree n),
with e_i = [e_(i-1), z] and [e_i, e_n] = beta_i e_(i+n) for i > n.  The whole
bracket table is determined by the sequence (beta_i): expanding e_b as an
iterated bracket of e_n with z gives

    [e_a, e_b] = sum_i (-1)^i C(b - n, i) beta_(a+i) e_(a+b),

with beta_n read as 0.  bracket_coeff evaluates this sum for one entry,
over the nonzero beta_i only; jacobi_verify steps the table level by level
through the equivalent Pascal recurrence (levels.Walk).  Everything
here works with finite prefixes of the sequence: reads beyond the recorded
depth are unknowns, never silent zeros.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from .arith import (PrimeField, Record, product_coeff_int, residues, signed_binom_row,
                    x_minus_one_coeff)
from .levels import Walk


class DepthError(ValueError):
    """A sequence entry outside the recorded window (n, depth] was requested."""


class BetaSequence:
    """A finite prefix (beta_i) for n < i <= depth of a type-n sequence.

    Entry i of the backing list holds beta_(n+1+i), an int reduced mod p,
    and support lists the indices i with beta_i != 0, in increasing order.
    Type-1 data, the sequence (alpha_i) of a type-1 algebra, is the case
    n = 1: project_type1 validates it and projects it to type n.
    """

    __slots__ = ("field", "n", "betas", "support")

    def __init__(self, field: PrimeField, n: int, betas: Sequence[int]):
        if n < 1:
            raise ValueError(f"type must be a positive integer, got {n}")
        self.field = field
        self.n = n
        self.betas = residues(betas, field.p)
        self.support = tuple(i for i, b in enumerate(self.betas, n + 1) if b)

    @property
    def depth(self) -> int:
        return self.n + len(self.betas)

    def beta(self, i: int) -> int:
        if not (self.n < i <= self.depth):
            raise DepthError(f"beta_{i} outside recorded window ({self.n}, {self.depth}]")
        return self.betas[i - self.n - 1]

    def first_nonzero(self) -> Optional[int]:
        return self.support[0] if self.support else None

    def normalize(self) -> "BetaSequence":
        """Rescale so the first nonzero entry becomes 1 (rescaling e_n scales
        the whole sequence uniformly)."""
        i = self.first_nonzero()
        if i is None:
            return self
        p = self.field.p
        inv = pow(self.betas[i - self.n - 1], -1, p)
        return BetaSequence(self.field, self.n, [v * inv % p for v in self.betas])

    def truncate(self, depth: int) -> "BetaSequence":
        if not (self.n <= depth <= self.depth):
            raise ValueError(f"cannot truncate depth {self.depth} prefix to {depth}")
        return BetaSequence(self.field, self.n, self.betas[: depth - self.n])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BetaSequence):
            return NotImplemented
        return (other.field == self.field and other.n == self.n and other.betas == self.betas)

    def __repr__(self) -> str:
        return f"BetaSequence(p={self.field.p}, n={self.n}, depth={self.depth})"

    def to_dict(self) -> dict:
        return {"p": self.field.p, "n": self.n, "depth": self.depth, "betas": list(self.betas)}

    @classmethod
    def from_dict(cls, data: dict) -> "BetaSequence":
        if not isinstance(data, dict) or not isinstance(data.get("betas"), list):
            raise ValueError('a sequence must be a JSON object with a "betas" list')
        if not all(type(data.get(key)) is int for key in ("p", "n", "depth")):
            raise ValueError("p, n and depth must be integers")
        seq = cls(PrimeField(data["p"]), data["n"], data["betas"])
        if seq.depth != data["depth"]:
            raise ValueError(f"depth field {data['depth']} does not match {len(data['betas'])} entries")
        return seq

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_file(cls, path) -> "BetaSequence":
        """A nesting too deep for the JSON parser is a ValueError, like any
        other malformed document."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError(f"{path}: JSON nesting too deep to parse") from None
        return cls.from_dict(data)


def bracket_coeff(seq: BetaSequence, a: int, b: int) -> Optional[int]:
    """Coefficient of e_(a+b) in [e_a, e_b], for a, b >= n.

    The per-entry form of the bracket table: whole levels come from
    maxclass.levels, and the tests use this sum as their reference for the
    Pascal rows.
    Returns None when the value is not determined by the recorded prefix,
    which happens exactly when the window end a + b - n exceeds the depth
    (that term always carries a unit binomial coefficient).  Only the
    nonzero beta_j of the window a <= j <= a + b - n are read, found in
    seq.support by bisection, so a sparse prefix costs a few binomials.
    """
    n = seq.n
    if a < n or b < n:
        raise ValueError(f"bracket_coeff needs a, b >= n = {n}, got ({a}, {b})")
    h = b - n
    if a + h > seq.depth:
        return None
    p, support = seq.field.p, seq.support
    window = support[bisect_left(support, a):bisect_right(support, a + h)]
    return sum(x_minus_one_coeff(h, h - j + a, p) * seq.betas[j - n - 1]
               for j in window) % p


def _sweep_count(n: int, top: int, a: int) -> int:
    """Number of pairs (x, y) with n <= x < a and x <= y <= top - x, for
    a <= top // 2 + 1: a sum of top + 1 - 2x over x, empty when a <= n."""
    return max(0, a - n) * (top + 2 - a - n)


class JacobiReport(Record):
    __slots__ = ("depth", "pairs_checked", "triples_checked", "failure")
    _defaults = {"pairs_checked": 0, "triples_checked": 0, "failure": None}
    _derived = ("ok",)

    @property
    def ok(self) -> bool:
        return self.failure is None


def jacobi_verify(seq: BetaSequence) -> JacobiReport:
    """Consistency of the bracket table determined by the prefix.

    Checks, over all indices that close within the prefix's depth, and
    reports the first violation with its indices and value (pass
    seq.truncate(d) to check a shorter prefix):
      1. antisymmetry [e_a, e_b] = -[e_b, e_a], diagonal included, for
         n <= a <= b, a + b <= depth, in order of a, then b;
      2. Jacobi on (e_n, e_b, e_c) for n <= b <= c, n + b + c <= depth, in
         order of b, then c.

    Jacobi with z holds by construction: the table is built by the Pascal
    recurrence, which says ad z is a derivation.  Then J(e_(a+1), e_b, e_c)
    = J([e_a, z], e_b, e_c) is a combination of [J(e_a, e_b, e_c), z],
    J(e_a, e_(b+1), e_c) and J(e_a, e_b, e_(c+1)), none of higher degree, so
    by induction on a every triple within the depth holds once those with
    a = n do.  A sweep over all a <= b <= c visits the a = n triples first,
    in this order, so it stops at the same witness; only triples_checked on
    passing prefixes differs.

    Each level s is stepped by a levels.Walk, which checks the pair (n, s -
    n) first: that pair holds for the whole level when it holds, so a first
    failing level fails there, the first failing pair in the order above.
    Otherwise it builds the level's left part and checks its triples.  The
    smallest Jacobi witness (b, c) over all levels is kept, and the counts
    are the witness's positions in the sweep order.
    """
    D = seq.depth
    n, p, betas = seq.n, seq.field.p, seq.betas
    report = JacobiReport(depth=D)
    # level 2n has no residual and no triples, so the sweep starts above it
    walk = Walk(n, p)
    for s in range(2 * n + 1, D + 1):
        failure = walk.check(betas[s - 2 * n - 1])
        if failure is not None and failure["kind"] == "antisymmetry":
            report.pairs_checked, report.failure = s - 2 * n + 1, failure
            return report
        if failure is not None and (report.failure is None
                                    or failure["indices"] < report.failure["indices"]):
            report.failure = failure
    report.pairs_checked = _sweep_count(n, D, D // 2 + 1)
    if report.failure is None:
        report.triples_checked = _sweep_count(n, D - n, (D - n) // 2 + 1)
    else:
        _, b, c = report.failure["indices"]
        report.triples_checked = _sweep_count(n, D - n, b) + c - b + 1
    return report


class Constituent(Record):
    # start: index of the first entry; length: covered indices (the first
    # constituent counts from n + 1 and adds n); leading: index of the
    # leading term, n-th from the end; trailing: last nonzero index;
    # ordinary: binomial form relative to the last entry
    __slots__ = ("start", "length", "leading", "trailing", "entries", "ordinary")


class ConstituentReport(Record):
    # ell: first constituent length, None if no nonzero entry was seen;
    # incomplete_tail: {"start": .., "leading": .. or None}
    __slots__ = ("p", "n", "depth", "ell", "constituents", "incomplete_tail",
                 "metabelian_within_depth", "violations")
    _defaults = {"constituents": [], "incomplete_tail": None,
                 "metabelian_within_depth": False, "violations": []}

    def lengths(self) -> list[int]:
        return [c.length for c in self.constituents]


def _is_ordinary(entries: list[int], n: int, p: int) -> bool:
    """Entries (lam_(j-m+1), ..., lam_j) with lam_(j-i) = (-1)^i C(n-1, i) lam_j."""
    last, tail = entries[-1], entries[:-n - 1:-1]
    return (not any(entries[:-n])
            and all(e == c * last % p for e, c in zip(tail, signed_binom_row(n - 1, p))))


def constituents(seq: BetaSequence) -> ConstituentReport:
    """Partition the prefix into constituents.

    After a constituent ending at index j (starting from j = n), the next
    nonzero entry, at index lead, opens a constituent (beta_(j+1), ...,
    beta_(lead+n-1)) of length lead + n - 1 - j; the first one's length
    lead + n - 1 = ell also counts e_1, ..., e_n.  A trailing fragment cut
    off by the depth horizon is reported as incomplete, never dropped.
    Violations of the general bounds (even ell, zero runs of at most
    ell - n, lengths between ell/2 and ell) are flagged; the last two
    cannot fire on the first constituent.
    """
    report = ConstituentReport(p=seq.field.p, n=seq.n, depth=seq.depth, ell=None)
    n, D, betas = seq.n, seq.depth, seq.betas
    j, ell = n, None
    while True:
        lead = next((i for i in range(j + 1, D + 1) if betas[i - n - 1]), None)
        if lead is None:
            if ell is None:
                report.metabelian_within_depth = True
            elif j < D:
                report.incomplete_tail = {"start": j + 1, "leading": None}
                if D - j > ell - n:
                    report.violations.append(f"zero_run_exceeds:{j + 1}-{D}")
            return report
        end = lead + n - 1
        if ell is None:
            ell = report.ell = end
            if ell % 2:
                report.violations.append("ell_odd")
        if lead - 1 - j > ell - n:
            report.violations.append(f"zero_run_exceeds:{j + 1}-{lead - 1}")
        if end > D:
            report.incomplete_tail = {"start": j + 1, "leading": lead}
            return report
        entries = list(betas[j - n:end - n])
        trailing = end - next(k for k, v in enumerate(reversed(entries)) if v)
        m = end if j == n else end - j
        report.constituents.append(Constituent(
            start=j + 1, length=m, leading=lead, trailing=trailing, entries=entries,
            ordinary=_is_ordinary(entries, n, seq.field.p)))
        if m > ell:
            report.violations.append(f"length_exceeds_first:{len(report.constituents)}")
        if 2 * m < ell:
            report.violations.append(f"length_below_half:{len(report.constituents)}")
        j = end


def project_type1(alpha: BetaSequence, n: int) -> BetaSequence:
    """Sequence of the type-n subalgebra generated by z and e_n inside a
    type-1 algebra with sequence alpha, a BetaSequence with n = 1 whose
    entries alpha_2, ..., alpha_depth are read as alpha.beta(i):

        beta_i = sum_k (-1)^k C(n-1, k) alpha_(i+k),  0 <= k <= n - 1,

    which is the bracket coefficient of [e_i, e_n] in the type-1 algebra.
    Output depth is alpha.depth - n + 1.  A nonzero alpha_K spreads over the
    block beta_(K-k) = (-1)^k C(n-1, k) alpha_K, 0 <= k < n, cut below index
    n + 1 when K < 2n.  When consecutive nonzero alpha entries are at least
    n apart and the first is at index 2n or more, the blocks do not overlap
    and each, opening with +-alpha_K, closes a constituent at K: every
    complete later constituent is ordinary.
    Refuses alpha unless it has type 1 and, as in every type-1 algebra, one
    of any two consecutive entries vanishes.
    """
    if alpha.n != 1:
        raise ValueError(f"projection needs a type-1 sequence, got type {alpha.n}")
    nz = alpha.support
    for a, b in zip(nz, nz[1:]):
        if b == a + 1:
            raise ValueError(f"consecutive entries alpha_{a}, alpha_{b} are both nonzero")
    if n < 1:
        raise ValueError("type must be positive")
    D_out = alpha.depth - n + 1
    if D_out <= n:
        raise ValueError(f"alpha depth {alpha.depth} too shallow to project to type {n}")
    return BetaSequence(alpha.field, n,
                        [bracket_coeff(alpha, i, n) for i in range(n + 1, D_out + 1)])


def subalgebra_sequence(seq: BetaSequence) -> BetaSequence:
    """Sequence of the type-(n+1) subalgebra generated by z and e_(n+1):
    tilde beta_i = beta_i - beta_(i+1), one depth shallower.

    In series form this is multiplication by (1 - 1/X) plus a correction
    discarding the action on e_n.  The coefficient surviving at X^(n+1)
    must vanish (it equals [e_(n+1), e_(n+1)]); a nonzero value means the
    input was not the sequence of an algebra, and is rejected.
    """
    n, p = seq.n, seq.field.p
    D_out = seq.depth - 1
    if D_out < n + 1:
        raise ValueError("prefix too shallow to transform")
    resid = (seq.beta(n + 1) - seq.beta(n + 2)) % p
    if resid:
        raise ValueError(
            f"beta_{n + 1} - beta_{n + 2} = {resid} != 0: not an algebra sequence")
    betas = [(seq.beta(i) - seq.beta(i + 1)) % p for i in range(n + 2, D_out + 1)]
    return BetaSequence(seq.field, n + 1, betas)


class RationalSeries:
    """num/den over F_p in X, with den(0) invertible; expandable to any depth.

    num and den are residue tuples, low degree first.  Immutable by
    convention."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: PrimeField, num: Sequence[int], den: Sequence[int]):
        p = field.p
        self.field = field
        self.num = tuple(c % p for c in num)
        self.den = tuple(c % p for c in den)
        if not self.den or self.den[0] == 0:
            raise ValueError("denominator must have invertible constant term")

    def expand(self, depth: int) -> list[int]:
        """Coefficients 0..depth of the power-series expansion."""
        p, num = self.field.p, self.num
        d0_inv = pow(self.den[0], p - 2, p)
        tail = [(j, d) for j, d in enumerate(self.den) if j and d]
        out = []
        for k in range(depth + 1):
            s = num[k] if k < len(num) else 0
            for j, d in tail:
                if j > k:
                    break
                s -= d * out[k - j]
            out.append(s * d0_inv % p)
        return out


def first_constituent_poly(seq: BetaSequence) -> tuple[int, ...]:
    """g(X) = beta_(ell-n+1) X^(n-1) + beta_(ell-n+2) X^(n-2) + ... + beta_ell,
    built from the last n entries of the first constituent, as the tuple
    (beta_ell, beta_(ell-1), ..., beta_(ell-n+1)) of n residues, low degree
    first: the form in which classify_admissible_k lists its survivors."""
    rep = constituents(seq)
    if rep.ell is None or rep.ell > seq.depth:
        raise ValueError("first constituent not complete within depth")
    return tuple(seq.beta(rep.ell - k) for k in range(seq.n))


class BridgeReport(Record):
    # k: exponent ell - n + 1; window: j range, half-open (lo, hi]
    __slots__ = ("ell", "ell2", "k", "window", "ok", "failures")


def bridge_check(seq: BetaSequence) -> Optional[BridgeReport]:
    """Link between the linear recurrence satisfied across the second
    constituent and coefficient vanishing: with g built from the first
    constituent's last n entries,

        [X^j] (X - 1)^(ell - n + 1) g(X) = 0  for ell - ell2 < j <= ell - n.

    Needs two complete constituents; returns None otherwise.
    """
    rep = constituents(seq)
    if len(rep.constituents) < 2:
        return None
    first, second = rep.constituents[:2]
    ell, ell2, n = first.length, second.length, seq.n
    g = tuple(reversed(first.entries[-n:]))
    k = ell - n + 1
    p = seq.field.p
    failures = []
    for j in range(ell - ell2 + 1, ell - n + 1):
        v = product_coeff_int(g, k, j, p)
        if v:
            failures.append((j, v))
    return BridgeReport(ell=ell, ell2=ell2, k=k, window=(ell - ell2, ell - n),
                        ok=not failures, failures=failures)
