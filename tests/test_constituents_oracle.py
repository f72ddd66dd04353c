"""`constituents` against the two-loop partition it replaced.

`constituents` walks first and later constituents in one loop and reads each
constituent's trailing index off its entries.  The reference below is the
earlier version: the first constituent handled on its own, then a loop for
the later ones, each trailing index found by a second scan of the prefix.
The two must agree on `to_dict()` exactly, violations and incomplete tails
included.  The reference decides ordinariness with the per-entry formula
`_is_ordinary` used before it read the cached row `signed_binom_row`; the
two ordinariness checks are compared directly as well.
"""

import itertools
import random
from collections import Counter

import pytest

from maxclass.arith import PrimeField, x_minus_one_coeff
from maxclass.exceptional import ExceptionalParams, closed_form_betas
from maxclass.sequences import (
    BetaSequence,
    Constituent,
    ConstituentReport,
    _is_ordinary,
    constituents,
)

from paper_helpers import theorem_parameter_grid


def reference_is_ordinary(entries: list[int], n: int, p: int) -> bool:
    """Entries (lam_(j-m+1), ..., lam_j) with lam_(j-i) = (-1)^i C(n-1, i) lam_j."""
    last = entries[-1]
    return all(e == x_minus_one_coeff(n - 1, n - 1 - i, p) * last % p
               for i, e in enumerate(reversed(entries)))


def reference_constituents(seq: BetaSequence) -> ConstituentReport:
    """Partition the prefix into constituents.

    The first constituent is (beta_(n+1), ..., beta_ell) where the first
    nonzero entry sits at index ell - n + 1.  After a constituent ending at
    index j, the next nonzero entry at index j + m - n + 1 opens a
    constituent (beta_(j+1), ..., beta_(j+m)) of length m.  A trailing
    fragment cut off by the depth horizon is reported as incomplete, never
    dropped.  Violations of the general bounds (even ell, zero runs of at
    most ell - n, lengths between ell/2 and ell) are flagged.
    """
    report = ConstituentReport(p=seq.field.p, n=seq.n, depth=seq.depth, ell=None)
    n, D = seq.n, seq.depth
    c = seq.first_nonzero()
    if c is None:
        report.metabelian_within_depth = True
        return report
    ell = c + n - 1
    report.ell = ell
    if ell % 2:
        report.violations.append("ell_odd")
    if ell > D:
        report.incomplete_tail = {"start": n + 1, "leading": c}
        return report
    entries = [seq.beta(i) for i in range(n + 1, ell + 1)]
    trailing = max(i for i in range(n + 1, ell + 1) if seq.beta(i))
    report.constituents.append(Constituent(
        start=n + 1, length=ell, leading=c, trailing=trailing, entries=entries,
        ordinary=reference_is_ordinary(entries, n, seq.field.p) if entries else None))
    j = ell
    while True:
        lead = None
        for i in range(j + 1, D + 1):
            if seq.beta(i):
                lead = i
                break
        if lead is None:
            if j < D:
                report.incomplete_tail = {"start": j + 1, "leading": None}
                if D - j > ell - n:
                    report.violations.append(f"zero_run_exceeds:{j + 1}-{D}")
            break
        m = lead - j + n - 1
        end = j + m
        if lead - 1 - j > ell - n:
            report.violations.append(f"zero_run_exceeds:{j + 1}-{lead - 1}")
        if end > D:
            report.incomplete_tail = {"start": j + 1, "leading": lead}
            break
        entries = [seq.beta(i) for i in range(j + 1, end + 1)]
        trailing = max(i for i in range(j + 1, end + 1) if seq.beta(i))
        report.constituents.append(Constituent(
            start=j + 1, length=m, leading=lead, trailing=trailing, entries=entries,
            ordinary=reference_is_ordinary(entries, n, seq.field.p)))
        if m > ell:
            report.violations.append(f"length_exceeds_first:{len(report.constituents)}")
        if 2 * m < ell:
            report.violations.append(f"length_below_half:{len(report.constituents)}")
        j = end
    return report


def outcome(report: dict) -> set:
    """What a report exercises: its violation kinds and how it ends."""
    kinds = {v.split(":")[0] for v in report["violations"]}
    if report["metabelian_within_depth"]:
        kinds.add("metabelian")
    tail = report["incomplete_tail"]
    if tail is not None:
        kinds.add("tail_open" if tail["leading"] is None else "tail_led")
    if any(not c["ordinary"] for c in report["constituents"][1:]):
        kinds.add("not_ordinary")
    return kinds


def check(seq: BetaSequence, seen: Counter) -> None:
    got = constituents(seq).to_dict()
    assert got == reference_constituents(seq).to_dict(), seq.to_dict()
    seen.update(outcome(got))


ALL_KINDS = {"ell_odd", "zero_run_exceeds", "length_exceeds_first", "length_below_half",
             "metabelian", "tail_open", "tail_led", "not_ordinary"}


# every p = 3 prefix, and at p = 5 those with entries 0, 1 and -1
@pytest.mark.parametrize("p, values, length", [(3, (0, 1, 2), 8), (5, (0, 1, 4), 7)])
def test_every_small_prefix(p, values, length):
    field, seen, count = PrimeField(p), Counter(), 0
    for n in (1, 2, 3):
        for depth in range(n + 1, n + length + 1):
            for betas in itertools.product(values, repeat=depth - n):
                check(BetaSequence(field, n, betas), seen)
                count += 1
    assert count == 3 * sum(3 ** k for k in range(1, length + 1))
    assert set(seen) == ALL_KINDS


def test_family_members_with_perturbed_entries():
    rng = random.Random(9)
    seen = Counter()
    grid = [params for p, c in [(3, 2), (3, 3), (5, 2), (7, 2)]
            for params in theorem_parameter_grid(PrimeField(p), c)]
    grid.append(ExceptionalParams(PrimeField(5), 1, 2, 1))
    for params in grid:
        p, n = params.p, params.n
        betas = closed_form_betas(params, params.default_depth)
        check(BetaSequence(params.field, n, betas), seen)
        for _ in range(20):
            moved = list(betas)
            k = rng.randrange(len(moved))
            # half the moves clear an entry, half set it to another residue
            moved[k] = 0 if moved[k] and rng.random() < 0.5 else (moved[k] + rng.randrange(1, p)) % p
            seq = BetaSequence(params.field, n, moved)
            check(seq, seen)
            check(seq.truncate(rng.randrange(n + 1, seq.depth + 1)), seen)
    assert set(seen) == ALL_KINDS


def test_random_prefixes():
    rng = random.Random(10)
    seen = Counter()
    for _ in range(5000):
        p = rng.choice((3, 5, 7))
        n = rng.randrange(1, 7)
        density = rng.random() ** 2
        depth = rng.randrange(n + 1, n + 121)
        betas = [rng.randrange(1, p) if rng.random() < density else 0
                 for _ in range(depth - n)]
        check(BetaSequence(PrimeField(p), n, betas), seen)
    assert set(seen) == ALL_KINDS


@pytest.mark.parametrize("p", [3, 5, 7, 13, 1000003])
def test_is_ordinary_matches_the_per_entry_formula(p):
    # lam times the row of (X - 1)^(n - 1), led by up to 2n + 1 zeros, each
    # also with one entry moved, and random entries, of lengths 1 .. 3n + 1
    rng, outcomes = random.Random(p), Counter()
    for n in range(1, 13):
        row = [x_minus_one_coeff(n - 1, i, p) for i in range(n)]
        for length in range(1, 3 * n + 2):
            lam = rng.randrange(1, p)
            shaped = ([0] * max(0, length - n) + [c * lam % p for c in row])[-length:]
            assert reference_is_ordinary(shaped, n, p)
            cases = [shaped, [rng.randrange(p) for _ in range(length)],
                     [0] * (length - 1) + [rng.randrange(1, p)]]
            for k in range(length):
                moved = list(shaped)
                moved[k] = (moved[k] + rng.randrange(1, p)) % p
                cases.append(moved)
            for entries in cases:
                got = _is_ordinary(entries, n, p)
                assert got == reference_is_ordinary(entries, n, p), (entries, n, p)
                outcomes[got] += 1
    assert outcomes[True] >= sum(3 * n + 1 for n in range(1, 13)) and outcomes[False]
