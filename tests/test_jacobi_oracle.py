"""The bracket-axiom check against the exhaustive sweep it replaced.

`jacobi_verify` builds its coefficient table with the Pascal recurrence and
checks Jacobi only on triples (e_n, e_b, e_c).  The reference below is the
full O(D^3) sweep over every triple a <= b <= c, on a table expanded entry
by entry from signed binomial rows.  Both must name the same first
violation after the same number of pairs, on every prefix tried.
"""

import itertools
import random

import pytest

from maxclass.arith import PrimeField, signed_binom_row
from maxclass.exceptional import closed_form_betas, theorem_parameter_grid
from maxclass.sequences import (
    BetaSequence,
    JacobiReport,
    bracket_coeff,
    bracket_levels,
    jacobi_verify,
)

from test_acceptance import FAMILY_PRIMES
from test_sequences import periodic_fixture

F3 = PrimeField(3)


def gamma_rows(seq, bound):
    """rows[s][a - n] = gamma(a, s - a) for 2n <= s <= bound (empty below 2n)."""
    return [[]] * (2 * seq.n) + [row for _, row in bracket_levels(seq, bound)]


def binomial_gamma_table(seq, bound):
    """gamma[a - n][b - n] = coefficient of [e_a, e_b] for a + b <= bound,
    each entry a signed binomial window over the prefix."""
    n, p = seq.n, seq.field.p
    betas = (0,) + seq.betas  # local index i - n
    table = []
    for a in range(n, bound - n + 1):
        row_out = []
        base = a - n
        for b in range(n, bound - a + 1):
            srow = signed_binom_row(b - n, p)
            s = 0
            for i, c in enumerate(srow):
                if c:
                    s += c * betas[base + i]
            row_out.append(s % p)
        table.append(row_out)
    return table


def full_sweep(seq):
    """Antisymmetry on all pairs, then Jacobi on all triples a <= b <= c."""
    D = seq.depth
    n, p = seq.n, seq.field.p
    report = JacobiReport(depth=D)
    if D < 2 * n:
        return report
    G = binomial_gamma_table(seq, D)

    def g(a, b):
        return G[a - n][b - n]

    for a in range(n, D // 2 + 1):
        for b in range(a, D - a + 1):
            report.pairs_checked += 1
            r = (g(a, b) + g(b, a)) % p
            if r:
                report.failure = {"kind": "antisymmetry", "indices": [a, b], "value": r}
                return report
    for a in range(n, D // 3 + 1):
        for b in range(a, (D - a) // 2 + 1):
            gab = g(a, b)
            for c in range(b, D - a - b + 1):
                report.triples_checked += 1
                v = (g(b, c) * g(a, b + c) - gab * g(a + b, c) + g(a, c) * g(a + c, b)) % p
                if v:
                    report.failure = {"kind": "jacobi", "indices": [a, b, c], "value": v}
                    return report
    return report


def assert_agrees(seq):
    """Same verdict, witness and pair count; the same triple count too
    whenever a triple fails.  Returns the reduced check's report."""
    new, old = jacobi_verify(seq), full_sweep(seq)
    assert (new.failure, new.pairs_checked) == (old.failure, old.pairs_checked), seq.betas
    if new.failure is not None:
        assert new.triples_checked == old.triples_checked, seq.betas
    return new


def family_prefixes(depth_of):
    for p, c in FAMILY_PRIMES:
        for params in theorem_parameter_grid(PrimeField(p), c):
            depth = depth_of(params)
            yield BetaSequence(params.field, params.n, closed_form_betas(params, depth))


class TestTable:
    @pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (7, 3)])
    def test_matches_binomial_table_on_random_prefixes(self, p, n):
        rng = random.Random(20260823 + p)
        field = PrimeField(p)
        for _ in range(20):
            seq = BetaSequence(field, n, [rng.randrange(p) for _ in range(40)])
            rows = gamma_rows(seq, seq.depth)
            table = binomial_gamma_table(seq, seq.depth)
            for a in range(n, seq.depth - n + 1):
                for b in range(n, seq.depth - a + 1):
                    assert rows[a + b][a - n] == table[a - n][b - n]

    def test_matches_bracket_coeff_to_full_level(self):
        # rows reach level depth + n, the last one bracket_coeff can close
        seq = periodic_fixture()
        n = seq.n
        rows = gamma_rows(seq, seq.depth + n)
        for s in range(2 * n, seq.depth + n + 1):
            assert rows[s] == [int(bracket_coeff(seq, a, s - a))
                               for a in range(n, s - n + 1)]

    def test_matches_binomial_table_on_the_family(self):
        for seq in family_prefixes(lambda params: 2 * params.q):
            rows = gamma_rows(seq, seq.depth)
            table = binomial_gamma_table(seq, seq.depth)
            n = seq.n
            assert all(rows[a + b][a - n] == table[a - n][b - n]
                       for a in range(n, seq.depth - n + 1)
                       for b in range(n, seq.depth - a + 1))


class TestFullSweepCounts:
    def test_all_ones(self):
        report = full_sweep(BetaSequence.all_ones(F3, 2, 40))
        assert report.ok
        assert report.pairs_checked == 361
        assert report.triples_checked == 1461

    def test_periodic_fixture(self):
        report = full_sweep(periodic_fixture())
        assert report.ok
        assert report.triples_checked == 1581


class TestAgreement:
    def test_every_small_p3_prefix(self):
        triple_failures = 0
        for n, depth in ((1, 10), (2, 11), (3, 12)):
            for tail in itertools.product(range(3), repeat=depth - n):
                report = assert_agrees(BetaSequence(F3, n, tail))
                if report.failure is not None and report.failure["kind"] == "jacobi":
                    triple_failures += 1
        assert triple_failures == 1260
        # and random prefixes over larger fields: uniform ones, which fail
        # antisymmetry early, and ones drawing each entry among the values
        # that close the pair (n, i) on its level, which reach Jacobi
        rng = random.Random(20261018)
        kinds = {"antisymmetry": 0, "jacobi": 0, None: 0}
        for p in (5, 7, 11):
            field = PrimeField(p)
            for n in range(1, 6):
                for closing in (False, True) * 5:
                    tail = []
                    for i in range(n + 1, n + 31):
                        fits = [v for v in range(p) if closing and (v + int(
                            bracket_coeff(BetaSequence(field, n, tail + [v]), n, i))) % p == 0]
                        tail.append(rng.choice(fits or range(p)))
                    report = assert_agrees(BetaSequence(field, n, tail))
                    kinds[report.failure and report.failure["kind"]] += 1
        assert kinds["antisymmetry"] > 0 and kinds["jacobi"] > 0

    def test_family_and_its_single_entry_perturbations(self):
        # each member past its first constituent, and every entry moved by 1
        kinds = {"antisymmetry": 0, "jacobi": 0, None: 0}
        for seq in family_prefixes(lambda params: params.q + 2 * params.n + 6):
            assert assert_agrees(seq).ok
            for k in range(len(seq.betas)):
                betas = list(seq.betas)
                betas[k] = (betas[k] + 1) % seq.field.p
                report = assert_agrees(BetaSequence(seq.field, seq.n, betas))
                kinds[report.failure and report.failure["kind"]] += 1
        assert kinds == {"antisymmetry": 1016, "jacobi": 28, None: 92}
