"""Acceptance gate: every headline check in one place, all exact.

Each test covers one acceptance criterion end to end; `pytest -v` prints
one pass/fail line per criterion.  Everything asserts integer equality
over F_p, so there is no tolerance anywhere.
"""

import json
import random

import pytest

from maxclass.arith import PrimeField, binom_mod_p
from maxclass.divided_powers import DividedPowers
from maxclass.exceptional import exceptional_report, genfunc_closed_form
from maxclass.polycheck import classify_admissible_k, powers_of
from maxclass.search import search_sequences
from maxclass.sequences import (
    BetaSequence,
    bridge_check,
    constituents,
    jacobi_verify,
    project_type1,
)

from element_helpers import SemidirectElement, dp_mul
from paper_helpers import (
    expected_pairs,
    in_large_k_menu,
    lemma_pairs_check,
    lucas_symmetry_check,
    theorem_parameter_grid,
)
from poly_helpers import FpPoly, x_minus_one_pow
from sequence_helpers import constituents_via_lcs
from test_divided_powers import random_element

FAMILY_PRIMES = [(5, 2), (7, 2), (3, 3)]


@pytest.fixture(scope="module")
def family(algebra_cache):
    """All theorem-mode members at desk scale with their full reports."""
    out = []
    for p, c in FAMILY_PRIMES:
        for params in theorem_parameter_grid(PrimeField(p), c):
            algebra = algebra_cache(p, c, params.n, params.m)
            report = exceptional_report(params, algebra.sequence)
            out.append((params, algebra, report))
    return out


def test_criterion_1_constituent_statistics_of_the_family(family):
    assert len(family) == 22
    for params, _, report in family:
        q, m = params.q, params.m
        assert report.ell == (q + m if m % 2 else q + m + 1), params
        later = report.lengths[1:]
        assert len(later) >= 2, params
        if m % 2 == 0:
            assert later[0] == q - 1, params
            assert all(length == q for length in later[1:]), params
        else:
            assert all(length == q for length in later), params
        assert report.ordinary_ok and report.trailing_ok, params
        assert report.ok, params


def test_criterion_2_generating_function_identity(family):
    for params, algebra, report in family:
        series = genfunc_closed_form(params)
        depth = algebra.sequence.depth
        assert series.expand(depth)[params.n + 1:] == list(algebra.sequence.betas), params
        assert report.genfunc_ok, params
    # On the n = m + 1 members the numerator collapses to
    # X^q (1 - X^q - (X - 1)^m), still over the denominator 1 - X^q.
    parents = [(p_, a_) for p_, a_, _ in family if p_.n == p_.m + 1]
    assert len(parents) == 9
    for params, algebra in parents:
        field, q, m = params.field, params.q, params.m
        one = FpPoly.one(field)
        xq = FpPoly.monomial(field, 1, q)
        expected_num = (one - xq - x_minus_one_pow(field, m)).shift(q)
        series = genfunc_closed_form(params)
        assert series.num == expected_num.coeffs, params
        assert series.den == (one - xq).coeffs, params
        depth = algebra.sequence.depth
        assert series.expand(depth)[params.n + 1:] == list(algebra.sequence.betas)


def test_criterion_3_two_construction_paths_agree(family):
    for params, _, report in family:
        assert report.closed_form_ok, params
        assert report.two_path_ok, params


def test_criterion_4_admissible_exponent_classification():
    jobs = [(5, 3, 130, 15, 107), (7, 3, 120, 12, 138),
            (7, 4, 120, 14, 908), (7, 5, 120, 15, 6051)]
    for p, n, k_max, k_count, survivor_count in jobs:
        report = classify_admissible_k(PrimeField(p), n, k_max)
        assert report.menu_ok and report.structure_ok, (p, n)
        assert len(report.survivors) == k_count, (p, n)
        assert sum(len(v) for v in report.survivors.values()) == survivor_count
        for k in report.survivors:
            if k >= 4 * p:
                assert in_large_k_menu(p, n, k), (p, n, k)


def test_criterion_5_vanishing_pair_enumeration():
    for p in (3, 5, 7):
        field = PrimeField(p)
        k_max = 2 * p * p
        menu = expected_pairs(field, k_max)
        pairs = set(lemma_pairs_check(field, k_max))
        assert pairs <= menu, p
        assert pairs == menu, p
        narrowed = set(lemma_pairs_check(field, k_max, strengthened=True))
        assert narrowed == expected_pairs(field, k_max, strengthened=True), p
        for q in powers_of(p, k_max):
            assert (3, -3) not in narrowed
            assert (2 * q - 1, 1) not in narrowed


def test_criterion_6_bracket_axioms_and_witnesses(family, fixture_dir):
    # the family, swept to depth 3q
    for params, _, report in family:
        assert report.jacobi_ok and report.jacobi_depth == 3 * params.q, params
    # both metabelian sequences of each small type
    for p in (3, 5, 7):
        field = PrimeField(p)
        for n in (1, 2, 3):
            assert jacobi_verify(BetaSequence(field, n, [0] * (30 - n))).ok
            assert jacobi_verify(BetaSequence(field, n, [1] * (30 - n))).ok
    # sequences projected down from a stored type-1 algebra
    with open(fixture_dir / "alpha_p3_d26.json") as fh:
        data = json.load(fh)
    alpha = BetaSequence(PrimeField(data["p"]), 1, data["alphas"])
    assert alpha.depth == data["depth"]
    projected = [project_type1(alpha, n) for n in (2, 3)]
    for seq in projected:
        assert jacobi_verify(seq).ok
    # a single flipped entry is caught, with a witness saying where
    params, algebra, _ = family[0]
    betas = list(algebra.sequence.betas)
    betas[30] = (betas[30] + 1) % params.p
    flipped = jacobi_verify(BetaSequence(params.field, params.n, betas))
    assert not flipped.ok
    assert flipped.failure is not None
    assert flipped.failure["kind"] in ("antisymmetry", "jacobi")
    # recurrence-to-vanishing bridge on everything with two complete blocks
    checked = 0
    for _, algebra, _ in family:
        report = bridge_check(algebra.sequence)
        if report is not None:
            assert report.ok, algebra.params
            checked += 1
    for seq in projected:
        report = bridge_check(seq)
        if report is not None:
            assert report.ok
            checked += 1
    assert checked >= 22


def test_criterion_7_lower_central_series_cross_check(family):
    for params, algebra, _ in family:
        seq = algebra.sequence
        direct = constituents(seq)
        via_lcs = constituents_via_lcs(seq)
        complete = direct.lengths()[:len(via_lcs.lengths)]
        assert via_lcs.lengths == complete, params
        assert via_lcs.contiguous, params
    field = PrimeField(5)
    ones = BetaSequence(field, 2, [1] * (30 - 2))
    with pytest.raises(ValueError, match="beta_\\(n\\+1\\) = 0"):
        constituents_via_lcs(ones)


def test_criterion_8_property_suites():
    # binomial symmetry across a truncation window, exhaustive
    for p, q in ((3, 9), (5, 25), (3, 27), (7, 49)):
        for a in range(q):
            for b in range(q):
                assert lucas_symmetry_check(a, b, q, p)
    # convolution identity, randomized
    rng = random.Random(20260823)
    configs = [(3, 27), (5, 25), (7, 49)]
    for _ in range(10 ** 4):
        p, q = configs[rng.randrange(3)]
        u, v, w = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        total = sum(binom_mod_p(u, g, p) * binom_mod_p(v, w - g, p)
                    for g in range(w + 1))
        assert total % p == binom_mod_p(u + v, w, p)
    # truncated product associativity, exhaustive through q = 27
    for p, c in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        ring = DividedPowers(PrimeField(p), c)
        q = ring.q
        for i in range(q):
            for j in range(q):
                left = dp_mul(ring, i, j)
                for k in range(q):
                    right = dp_mul(ring, j, k)
                    lhs = None
                    if left is not None:
                        step = dp_mul(ring, left[1], k)
                        if step is not None:
                            lhs = (left[0] * step[0] % p, step[1])
                    rhs = None
                    if right is not None:
                        step = dp_mul(ring, i, right[1])
                        if step is not None:
                            rhs = (right[0] * step[0] % p, step[1])
                    if lhs is not None and lhs[0] == 0:
                        lhs = None
                    if rhs is not None and rhs[0] == 0:
                        rhs = None
                    assert lhs == rhs, (p, c, i, j, k)
    # bracket closure of the operator pairs, randomized
    for p, c in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
        ring = DividedPowers(PrimeField(p), c)
        rng = random.Random(20260823 + 10 * p + c)
        zero = SemidirectElement.zero(ring)
        for _ in range(200):
            u, v, w = (random_element(ring, rng) for _ in range(3))
            total = (u.bracket(v).bracket(w) + v.bracket(w).bracket(u)
                     + w.bracket(u).bracket(v))
            assert total == zero, (p, c)


def test_long_first_blocks_stay_on_the_menu(family):
    # Every observed first constituent longer than 4p is even and sits at
    # 2q or inside (q, q+n] for a power q; the deep seeded enumeration
    # below reaches the 2q form.
    observed = [(params.p, params.n, params.q, report.ell)
                for params, _, report in family]
    deep = search_sequences(PrimeField(3), 2, 60, seed=[0] * 50 + [1])
    assert deep.solution_count == 1
    seq = BetaSequence(PrimeField(3), 2, deep.solutions[0])
    assert jacobi_verify(seq).ok
    observed.append((3, 2, 27, constituents(seq).ell))
    long_blocks = [entry for entry in observed if entry[3] > 4 * entry[0]]
    assert len(long_blocks) == 23
    for p, n, q, ell in long_blocks:
        assert ell % 2 == 0, (p, n, ell)
        assert ell == 2 * q or q < ell <= q + n, (p, n, ell)
        assert in_large_k_menu(p, n, ell - n + 1), (p, n, ell)
