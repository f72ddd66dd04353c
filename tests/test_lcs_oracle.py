"""The streamed lower-central-series count against the set sweep it replaced.

`constituents_via_lcs` reads one bracket level at a time and keeps, per
index, the last term of the series that holds it.  The reference below
builds every term as a set from the full coefficient table.  Both must
give the same report, or refuse the same input, on every prefix tried.
"""

import itertools
import random

import pytest

from maxclass.arith import PrimeField
from maxclass.sequences import BetaSequence

from sequence_helpers import LcsReport, constituents_via_lcs
from test_jacobi_oracle import family_prefixes, gamma_rows

F3 = PrimeField(3)


def set_sweep(seq):
    """Terms of the lower central series of the derived subalgebra as sets
    of indices, each from the previous one through the full table."""
    D = seq.depth
    n = seq.n
    if D > n + 1 and seq.betas[0] != 0:
        raise ValueError(
            "constituent lengths via the lower central series require beta_(n+1) = 0")
    G = gamma_rows(seq, D)
    levels = [set(range(n + 1, D + 1))]
    while levels[-1]:
        nxt = set()
        for d in levels[-1]:
            for b in range(n + 1, D - d + 1):
                if G[d + b][d - n]:
                    nxt.add(d + b)
        levels.append(nxt)
    if len(levels) < 2 or not levels[1]:
        return LcsReport(depth=D, lengths=[], incomplete_count=None,
                         no_second_power=True, contiguous=True)
    contiguous = all(lv == set(range(min(lv), D + 1)) for lv in levels if lv)
    lengths = []
    incomplete = None
    for r in range(len(levels) - 1):
        count = len(levels[r]) - len(levels[r + 1])
        if r == 0:
            count += n
        if levels[r + 1]:
            lengths.append(count)
        else:
            incomplete = count
    return LcsReport(depth=D, lengths=lengths, incomplete_count=incomplete,
                     no_second_power=False, contiguous=contiguous)


def assert_agrees(seq):
    """Same report, or ValueError from both; returns the report or None."""
    try:
        old = set_sweep(seq)
    except ValueError:
        with pytest.raises(ValueError):
            constituents_via_lcs(seq)
        return None
    new = constituents_via_lcs(seq)
    assert new == old, seq.betas
    return new


class TestAgreement:
    def test_every_small_p3_prefix(self):
        reports = 0
        for n, depth in ((1, 10), (2, 11), (3, 12)):
            for tail in itertools.product(range(3), repeat=depth - n):
                reports += assert_agrees(BetaSequence(F3, n, tail)) is not None
        assert reports == 3 * 3 ** 8

    def test_short_prefixes(self):
        for n in (1, 2, 3):
            for depth in range(n, 2 * n + 3):
                assert_agrees(BetaSequence(PrimeField(5), n, [0] * (depth - n)))

    def test_family_and_seeded_perturbations(self):
        rng = random.Random(20261018)
        for seq in family_prefixes(lambda params: 3 * params.q):
            report = assert_agrees(seq)
            assert report is not None and len(report.lengths) >= 2
            p = seq.field.p
            for _ in range(8):
                betas = list(seq.betas)
                k = rng.randrange(1, len(betas))
                betas[k] = (betas[k] + rng.randrange(1, p)) % p
                assert_agrees(BetaSequence(seq.field, seq.n, betas))
