"""The exceptional family of maximal-class algebras and its validation.

For a prime power q = p^c and parameters 0 < m < n <= q, the pair

    z   = (0, Z),
    e_n = (x^(q+m-n), t * multiplication by x^(q-n))

inside the semidirect product of divided-power operators generates a graded
Lie algebra of maximal class of type n.  This module constructs it to a
requested depth, reads its structure constants off the module coefficients
of [e_i, e_n], and checks everything against independent closed forms:
piecewise formulas for the entries, a rational generating series, expected
constituent lengths, and the subalgebra route that reaches the same algebra
from the type-(m+1) member of the family.

Parameters with 1 < n < p and q > p are the ones the classification
theorem speaks about ("theorem mode"); the construction itself works for
any 0 < m < n <= q ("construction mode").
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .arith import (ConstructionError, PrimeField, Record, binom_columns_mod_p,
                    x_minus_one_coeff)
from .divided_powers import DividedPowers, bracket_with_z, make_generators
from .sequences import (
    BetaSequence,
    RationalSeries,
    _sweep_count,
    bracket_coeff,
    constituents,
    jacobi_verify,
    subalgebra_sequence,
)


# Largest q = p^c that construct accepts.  z is built with q operator rows
# before any check runs, so without a bound `--p 3 --c 20` would ask for
# about 3.5e9 of them.  The build keeps n + 1 elements, each with at most q
# operator rows, but its time grows with the rows of all elements up to
# degree q, about (p(p+1)/2)^c: 1.7e6 at q = 3^8, and about q^2/2 = 5e7 at
# a prime q near the bound (shared 2-core Xeon, fresh processes: 0.5 s at
# q = 997, 1.5-1.9 s at 1999; at 4999 and 9973 about 17 s and 68 s, the
# earlier 24 s and 97 s scaled by the per-row ratio 0.70 measured at 1999).
# The bound caps the generators, not that sum.
CONSTRUCT_MAX_Q = 10_000

# Largest degree that construct builds.  The build keeps n + 1 elements
# whatever the depth, but each degree is one ad z step and one residue of
# the sequence: q = 3 builds 60,000 degrees in 0.7-0.8 s as a fresh process
# on a shared 2-core Xeon, so `--depth 10000000` would take about two
# minutes before any check ran; the report's checks are linear in the
# depth, a whole q = 3 report 1.0-1.2 s at the bound.  Depths above CONSTRUCT_MAX_DEGREE - n are refused.  The default
# depth 3q + 2n reaches degree 3q + 3n <= 6q, so every member under
# CONSTRUCT_MAX_Q may run at it.  The bound is on the top degree, not the
# depth, because the two-path check builds the type-(m+1) member n - m - 1
# deeper, to the same top degree.
CONSTRUCT_MAX_DEGREE = 6 * CONSTRUCT_MAX_Q


class ExceptionalParams:
    """The member (p, c, n, m) of the family.  Immutable by convention."""

    __slots__ = ("field", "c", "n", "m")

    def __init__(self, field: PrimeField, c: int, n: int, m: int):
        if c < 1:
            raise ValueError(f"exponent c must be positive, got {c}")
        # p^k > n once k reaches n.bit_length(), so a large c forms no p^c
        if not (0 < m < n <= field.p ** min(c, n.bit_length())):
            raise ValueError(f"need 0 < m < n <= q = {field.p}^{c}, got n={n}, m={m}")
        self.field = field
        self.c = c
        self.n = n
        self.m = m

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def q(self) -> int:
        return self.field.p ** self.c

    @property
    def mode(self) -> str:
        """'theorem' when 1 < n < p and q > p, else 'construction'."""
        if 1 < self.n < self.p and self.q > self.p:
            return "theorem"
        return "construction"

    @property
    def default_depth(self) -> int:
        """Three full periods plus slack: enough to see the first
        constituent and at least two complete later ones."""
        return 3 * self.q + 2 * self.n

    def to_dict(self) -> dict:
        return {"p": self.p, "c": self.c, "q": self.q, "n": self.n,
                "m": self.m, "mode": self.mode}


class ConstructedAlgebra(Record):
    __slots__ = ("params", "sequence", "elements")


def construct(params: ExceptionalParams, depth: Optional[int] = None) -> ConstructedAlgebra:
    """Build the algebra by iterating ad z and read off the sequence, in
    one pass over the degrees.  Each step applies ad z by its row rule,
    `bracket_with_z`, when z is exactly the generator of `make_generators`,
    and otherwise brackets with z by `RowElement.bracket`; the choice is
    made once per build.

    Each degree j is compared with its closed form: up to degree q + m,
    x^(q+m-j) with t times multiplication by x^(q-j), whose entries are the
    Lucas support of C(., q - j), and no operator part past degree q; above
    q + m, t^r x^(q-1-jp) with j - m - 1 = r q + jp.  The build runs on
    row forms (`RowElement`) from the generators on, where every closed form
    has module coefficient 1 and the row map {a: C(a, q - j)} up to degree
    q, none above; the closed form always has its module term, so the
    comparison also fails whenever bracketing dies.  The row maps come from
    binom_columns_mod_p, which spreads each from the column of its high
    base-p digits, never from the rows it is compared with.  Then beta_i,
    i = j - n, defined by [e_i, e_n] = beta_i e_j, is the module coefficient
    of [e_i, e_n], since e_j's is 1; the rows of [e_i, e_n] must be beta_i
    times e_j's, none when beta_i = 0, or ConstructionError names the
    offending degree.
    Only e_(j-n), ..., e_j are kept, and `elements` is the last such window,
    degrees depth, ..., depth + n.  Refuses q above CONSTRUCT_MAX_Q and
    depth + n above CONSTRUCT_MAX_DEGREE.
    """
    # decided from c, since p^c has millions of digits at c = 10^7
    p, c = params.p, params.c
    if p ** min(c, CONSTRUCT_MAX_Q.bit_length()) > CONSTRUCT_MAX_Q:
        raise ValueError(
            f"refusing construct: q = {p}^{c} exceeds CONSTRUCT_MAX_Q = {CONSTRUCT_MAX_Q}")
    if depth is None:
        depth = params.default_depth
    q, n, m = params.q, params.n, params.m
    if depth < n + 1:
        raise ValueError(f"depth {depth} too shallow, need at least {n + 1}")
    if depth + n > CONSTRUCT_MAX_DEGREE:
        raise ValueError(f"refusing construct: depth {depth} builds to degree {depth + n}, "
                         f"above CONSTRUCT_MAX_DEGREE = {CONSTRUCT_MAX_DEGREE}")
    ring = DividedPowers(params.field, c)
    z, e_n = make_generators(ring, n, m)
    # ad z by its row rule when z is the generator, else by the bracket
    if (z.degree, z.coeff, z.m, z.ring) == (1, 0, m, ring) \
            and z.rows == dict.fromkeys(range(q), p - 1):
        step = bracket_with_z
    else:
        def step(e):
            return e.bracket(z)
    window = deque((e_n,), maxlen=n + 1)
    columns = binom_columns_mod_p(q - n - 1, q, p)   # C(., q - j) for j = n + 1, ..., q
    betas = []
    for j in range(n + 1, depth + n + 1):
        current = step(window[-1])
        if current.coeff != 1 or current.rows != (next(columns) if j <= q else {}):
            raise ConstructionError(f"element at degree {j} deviates from its closed form")
        window.append(current)
        i = j - n
        if i > n:   # the window is full: window[0] is e_i
            x = window[0].bracket(e_n)
            beta = x.coeff
            if x.rows != ({k: beta * c % p for k, c in current.rows.items()} if beta else {}):
                raise ConstructionError(
                    f"[e_{i}, e_{n}] is not a scalar multiple of e_{j}")
            betas.append(beta)
    return ConstructedAlgebra(params=params,
                              sequence=BetaSequence(params.field, n, betas),
                              elements={e.degree: e.to_element() for e in window})


def _require_member(params: ExceptionalParams, seq: BetaSequence) -> None:
    if seq.field != params.field or seq.n != params.n:
        raise ValueError(f"sequence of p={seq.field.p}, n={seq.n} is not one of member "
                         f"p={params.p}, n={params.n}")


def expected_first_length(params: ExceptionalParams) -> int:
    """q + m for odd m, q + m + 1 for even m."""
    return params.q + params.m + (0 if params.m % 2 else 1)


def expected_lengths(params: ExceptionalParams, count: int) -> list[int]:
    """The first `count` constituent lengths: the first length, then q - 1
    in second place when m is even, then q forever."""
    q, m = params.q, params.m
    out = [expected_first_length(params)]
    if count > 1:
        out.append(q - 1 if m % 2 == 0 else q)
    out.extend([q] * (count - len(out)))
    return out[:count]


def _require_two_constituent_room(params: ExceptionalParams) -> None:
    if 2 * params.n > params.q + params.m:
        raise ValueError(
            f"closed forms require 2n <= q + m, got n={params.n}, "
            f"q={params.q}, m={params.m}")


def closed_form_betas(params: ExceptionalParams, depth: int) -> list[int]:
    """Piecewise formula for the entries beta_(n+1), ..., beta_depth.

    Up to index q + m only the top n positions are nonzero:
        beta_(q+m-j) = (-1)^j ((-1)^m C(n-1-m, j-m) - C(n-1, j)),  0 <= j < n.
    Past q + m the pattern has period q: writing i = r q + m + j' with
    r >= 1 and 0 < j' <= q, entries vanish for j' <= q - n, and for
    j' = q - j with 0 <= j < n:
        beta_i = (-1)^(j+1) C(n-1, j).
    """
    _require_two_constituent_room(params)
    p, q, n, m = params.p, params.q, params.n, params.m

    def entry(i: int) -> int:
        # (-1)^(j-m) C(n-1-m, j-m) and (-1)^j C(n-1, j) are the coefficients
        # of X^(n-1-j) in (X - 1)^(n-1-m) and (X - 1)^(n-1)
        if i <= q + m:
            j = q + m - i
            if j >= n:
                return 0
            return (x_minus_one_coeff(n - 1 - m, n - 1 - j, p)
                    - x_minus_one_coeff(n - 1, n - 1 - j, p)) % p
        r, jp = divmod(i - m - 1, q)
        jp += 1
        if jp <= q - n:
            return 0
        j = q - jp
        return -x_minus_one_coeff(n - 1, n - 1 - j, p) % p

    return [entry(i) for i in range(n + 1, depth + 1)]


def genfunc_closed_form(params: ExceptionalParams) -> RationalSeries:
    """The sequence as a rational series:

        sum_i beta_i X^i
          = X^(q+m+1-n) ((X-1)^(n-m-1) (1 - X^q) - (X-1)^(n-1)) / (1 - X^q).

    The numerator's coefficient of X^(q+m+1-n+j) is
    [X^j](X-1)^(n-m-1) - [X^(j-q)](X-1)^(n-m-1) - [X^j](X-1)^(n-1).
    """
    _require_two_constituent_room(params)
    p, q, n, m = params.p, params.q, params.n, params.m
    num = [0] * (q + m + 1 - n) + [
        (x_minus_one_coeff(n - m - 1, j, p) - x_minus_one_coeff(n - m - 1, j - q, p)
         - x_minus_one_coeff(n - 1, j, p)) % p
        for j in range(q + n - m)]
    return RationalSeries(params.field, num, [1] + [0] * (q - 1) + [p - 1])


def first_length_coverage(field: PrimeField, c: int, n: int) -> dict:
    """First constituent lengths over all m: as m runs through 1..n-1 the
    value q + m (m odd) or q + m + 1 (m even) sweeps out exactly the even
    numbers in (q, q + n], with odd m and the following even m landing on
    the same value.
    """
    q = field.p ** c
    by_m = {m: expected_first_length(ExceptionalParams(field, c, n, m))
            for m in range(1, n)}
    expected = [v for v in range(q + 1, q + n + 1) if v % 2 == 0]
    values = sorted(set(by_m.values()))
    return {"q": q, "n": n, "by_m": by_m,
            "values": values,
            "expected": expected,
            "ok": values == expected}


class AbelianIdealReport(Record):
    __slots__ = ("depth", "pairs_checked", "pairs_ok", "adjoint_series_ok",
                 "adjoint_window", "top_action_ok", "failure")
    _defaults = {"failure": None}
    _derived = ("ok",)

    @property
    def ok(self) -> bool:
        return self.pairs_ok and self.adjoint_series_ok and self.top_action_ok


def abelian_ideal_check(params: ExceptionalParams, seq: BetaSequence) -> AbelianIdealReport:
    """For the n = m + 1 member with sequence seq: the span of e_i for i > q
    is an abelian ideal (an ideal automatically, by grading).

    Three confirmations:
      1. every bracket coefficient gamma(i, j) with i, j > q vanishes;
      2. the adjoint action of e_(q+1) in series form equals
         X^m (X-1)^(q-m) + X^m, whose coefficients vanish past degree q;
      3. [e_i, e_q] = -e_(i+q) for i > q, so the complement degree q still
         acts transitively down the ideal.

    Each level s up to D + n, the last the prefix determines, is read at one
    entry, c(i) = gamma(i, q + 1) for i = s - q - 1, a bracket_coeff sum over
    the nonzero beta.  Those sums satisfy the Pascal recurrence gamma(a, b) =
    gamma(a, b + 1) + gamma(a + 1, b), so gamma(a, b + t) =
    sum_k (-1)^k C(t, k) gamma(a + k, b), and that suffices:
      - pairs: if the pairs of level s - 1 vanish, then gamma(a, s - a) =
        -gamma(a + 1, s - a - 1) for q < a <= (s - 1)/2, so the first failing
        pair in order of i, then j, is the first nonzero gamma(q + 1, i).  At
        a = b = q + 1 the identity makes that (q + 1, i0), i0 the least i > q
        with c(i) != 0, of value (-1)^(i0 - q - 1) c(i0).  pairs_checked
        counts the pairs q < i <= j, i + j <= D + n in that order, up to it;
      - top action: once the adjoint series holds, gamma(i, q + 1) = 0 for
        q < i <= D + n - q - 1, so gamma(i, q) = gamma(i + 1, q), and every
        [e_i, e_q] with q < i <= D - q has the coefficient gamma(q + 1, q).
    Past q the series expects 0: a nonzero c(i) there is the pair failure.
    Failures are reported in the order pairs, adjoint series, top action.
    Refuses a sequence over another field or of another type.
    """
    if params.n != params.m + 1:
        raise ValueError("the abelian ideal lives in the n = m + 1 member")
    _require_member(params, seq)
    q, n, m, p = params.q, params.n, params.m, params.p
    D = seq.depth
    report = AbelianIdealReport(depth=D, pairs_ok=True, adjoint_series_ok=True,
                                pairs_checked=_sweep_count(q + 1, D + n, (D + n) // 2 + 1),
                                adjoint_window=(n, D - q - 1 + n), top_action_ok=True)
    adjoint = None
    for i in range(n, D + n - q):
        if (v := bracket_coeff(seq, i, q + 1)) and i > q:
            report.pairs_checked, report.pairs_ok = i - q, False
            report.failure = {"kind": "pair", "indices": [q + 1, i],
                              "value": v if (i - q) % 2 else p - v}
            return report
        # i >= n > m, so the series' X^m term lies below the window
        if adjoint is None and v != (want := x_minus_one_coeff(q - m, i - m, p)):
            adjoint = {"kind": "adjoint_series", "index": i, "value": v, "expected": want}
    if adjoint is not None:
        report.adjoint_series_ok, report.failure = False, adjoint
    elif 2 * q + 1 <= D and (v := bracket_coeff(seq, q + 1, q)) != p - 1:
        report.top_action_ok = False
        report.failure = {"kind": "top_action", "index": q + 1, "value": v}
    return report


def two_path_check(params: ExceptionalParams, seq: BetaSequence) -> bool:
    """The member's sequence seq, built directly with (n, m), also arises by
    transforming the type-(m + 1) family member n - m - 1 times, each
    subalgebra_sequence step raising the type by one and losing one depth.
    For n = m + 1 the member is its own parent: nothing is built or
    compared, and the result is True whatever seq holds, so there the
    report's two_path_ok is a constant and the closed forms are what catch
    a wrong sequence.  Refuses a sequence over another field or of another
    type."""
    _require_member(params, seq)
    steps = params.n - params.m - 1
    if steps == 0:
        return True
    tower = construct(ExceptionalParams(params.field, params.c, params.m + 1, params.m),
                      seq.depth + steps).sequence
    for _ in range(steps):
        tower = subalgebra_sequence(tower)
    return tower == seq


class ExceptionalReport(Record):
    # ideal_ok: present on the n = m + 1 member, else None
    __slots__ = ("params", "depth", "ell", "ell_expected", "lengths", "lengths_expected",
                 "ordinary_ok", "trailing_ok", "closed_form_ok", "genfunc_ok",
                 "two_path_ok", "jacobi_ok", "jacobi_depth", "ideal_ok", "violations")
    _derived = ("ok",)

    @property
    def ok(self) -> bool:
        return (self.ell == self.ell_expected
                and self.lengths == self.lengths_expected
                and self.ordinary_ok and self.trailing_ok
                and self.closed_form_ok and self.genfunc_ok
                and self.two_path_ok and self.jacobi_ok
                and self.ideal_ok is not False
                and not self.violations)


def exceptional_report(params: ExceptionalParams, seq: BetaSequence,
                       jacobi_cap: Optional[int] = None) -> ExceptionalReport:
    """Full validation of one family member's sequence seq, all at
    tolerance zero: constituent statistics against their predicted values,
    entries against the piecewise closed form and the rational series, the
    two construction paths against each other, and the bracket axioms
    through jacobi_verify on the prefix to min(D, jacobi_cap), where
    jacobi_cap defaults to 3q.  Refuses a cap below n, which would check
    nothing, a sequence over another field or of another type, and a depth
    too shallow to hold two complete constituents, which could not be
    decided.
    """
    if jacobi_cap is not None and jacobi_cap < params.n:
        raise ValueError(f"jacobi depth must be at least n = {params.n}, got {jacobi_cap}")
    _require_member(params, seq)
    _require_two_constituent_room(params)
    D, need = seq.depth, sum(expected_lengths(params, 2))
    if D < need:
        raise ValueError(f"report needs depth at least {need} to hold two complete "
                         f"constituents, got {D}")
    rep = constituents(seq)
    count = len(rep.constituents)
    ordinary_ok = all(c.ordinary for c in rep.constituents[1:]) and count > 1
    trailing_ok = all(c.entries[-1] == params.p - 1 for c in rep.constituents[1:])
    closed_ok = list(seq.betas) == closed_form_betas(params, D)
    genfunc_ok = list(seq.betas) == genfunc_closed_form(params).expand(D)[params.n + 1:]
    jacobi_depth = min(D, 3 * params.q if jacobi_cap is None else jacobi_cap)
    jacobi_ok = jacobi_verify(seq.truncate(jacobi_depth)).ok
    two_path_ok = two_path_check(params, seq)
    ideal_ok = None
    if params.n == params.m + 1:
        ideal_ok = abelian_ideal_check(params, seq).ok
    return ExceptionalReport(
        params=params, depth=D, ell=rep.ell,
        ell_expected=expected_first_length(params),
        lengths=rep.lengths(), lengths_expected=expected_lengths(params, count),
        ordinary_ok=ordinary_ok, trailing_ok=trailing_ok,
        closed_form_ok=closed_ok, genfunc_ok=genfunc_ok,
        two_path_ok=two_path_ok, jacobi_ok=jacobi_ok, jacobi_depth=jacobi_depth,
        ideal_ok=ideal_ok, violations=rep.violations)
