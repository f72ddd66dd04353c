"""Fast paths of `exceptional` against the loops they replaced.

`abelian_ideal_check` reads two coefficients per level, in order of the
level, `eih_residual` and `project_type1` read theirs from `bracket_coeff`,
and `signed_binom_row` from `x_minus_one_coeff`.  The references below are
the earlier loops, each coefficient a signed-binomial window over the
prefix; both sides must agree exactly, witnesses included.  The abelian
reference reads every pair of the ideal, not one per level, and takes its
values from `bracket_coeff`, which test_bracket_coeff_oracle checks
against the signed-row walk.

`construct` brackets on row forms, compares each degree with the closed
form's nonzero entries, read off the Lucas support, and keeps the last
n + 1 elements; its reference brackets generic elements from the tests'
arithmetic, builds one multiplication operator per degree from
`binom_mod_p`, compares whole elements and keeps every one.
"""

import random
from collections import Counter

import pytest

from maxclass.arith import PrimeField, binom_mod_p, signed_binom_row
from maxclass.divided_powers import DividedPowers
from maxclass.exceptional import (
    AbelianIdealReport,
    ConstructedAlgebra,
    ExceptionalParams,
    abelian_ideal_check,
    construct,
)
from maxclass.sequences import (
    BetaSequence,
    bracket_coeff,
    constituents,
    project_type1,
)
from element_helpers import DPElement, Endo, SemidirectElement, graded_degree, poly_scale
from paper_helpers import theorem_parameter_grid
from poly_helpers import FpPoly, x_minus_one_pow
from sequence_helpers import eih_residual

# (p, c): q = 9, 25, 27, 49; every n = m + 1 member with 1 < n < p
SHAPES = [(3, 2), (3, 3), (5, 2), (7, 2)]
MEMBERS = [(p, c, n) for p, c in SHAPES for n in range(2, p)]
PERTURBATIONS = 40


def reference_abelian_ideal_check(params, algebra):
    """The three checks with every coefficient from bracket_coeff."""
    seq = algebra.sequence
    q, n, m, p = params.q, params.n, params.m, params.p
    D = seq.depth
    report = AbelianIdealReport(depth=D, pairs_checked=0, pairs_ok=True,
                                adjoint_series_ok=True,
                                adjoint_window=(n, D - q - 1 + n), top_action_ok=True)
    for i in range(q + 1, D):
        for j in range(i, D):
            if i + j - n > D:
                break
            report.pairs_checked += 1
            val = bracket_coeff(seq, i, j)
            if int(val) != 0:
                report.pairs_ok = False
                report.failure = {"kind": "pair", "indices": [i, j], "value": int(val)}
                return report
    rhs = x_minus_one_pow(params.field, q - m).shift(m) + FpPoly.monomial(params.field, 1, m)
    for i in range(n, D - q - 1 + n + 1):
        val = bracket_coeff(seq, i, q + 1)
        if val is None:
            break
        if int(val) != rhs[i]:
            report.adjoint_series_ok = False
            report.failure = {"kind": "adjoint_series", "index": i,
                              "value": int(val), "expected": rhs[i]}
            return report
    for i in range(q + 1, D - q + 1):
        val = bracket_coeff(seq, i, q)
        if int(val) != (p - 1):
            report.top_action_ok = False
            report.failure = {"kind": "top_action", "index": i, "value": int(val)}
            return report
    return report


def reference_mult_op(ring, shift, scale):
    p = ring.field.p
    return poly_scale(Endo(ring, {(j + shift, j, 0): binom_mod_p(j + shift, shift, p)
                                  for j in range(ring.q - shift)}), scale)


def reference_construct(params, depth):
    """The construction loop on generic elements, with one multiplication
    operator per degree j <= q for the closed form."""
    q, n, m = params.q, params.n, params.m
    ring = DividedPowers(params.field, params.c)
    t = FpPoly.monomial(params.field, 1, 1)
    z = SemidirectElement(DPElement(ring),
                          -Endo.derivation(ring) - reference_mult_op(ring, q - 1, t))
    e_n = SemidirectElement(DPElement.basis(ring, q + m - n),
                            reference_mult_op(ring, q - n, t))
    elements = {n: e_n}
    current = e_n
    for j in range(n + 1, depth + n + 1):
        current = current.bracket(z)
        assert graded_degree(current, m) == j
        if j <= q + m:
            expected = SemidirectElement(
                DPElement.basis(ring, q + m - j),
                reference_mult_op(ring, q - j, t) if j <= q else Endo(ring))
        else:
            r, jp = divmod(j - m - 1, q)
            expected = SemidirectElement(DPElement.basis(ring, q - jp - 1, t_power=r), Endo(ring))
        assert current == expected, j
        elements[j] = current
    betas = [int(elements[i].bracket(e_n).proportional_to(elements[i + n]))
             for i in range(n + 1, depth + 1)]
    return BetaSequence(params.field, n, betas), elements


# every theorem-mode member for the shapes above, and two construction-mode ones
CONSTRUCT_GRID = [params for p, c in SHAPES
                  for params in theorem_parameter_grid(PrimeField(p), c)]
CONSTRUCT_GRID += [ExceptionalParams(PrimeField(3), 2, 5, 2),
                   ExceptionalParams(PrimeField(5), 1, 4, 1)]


@pytest.mark.parametrize("params", CONSTRUCT_GRID,
                         ids=lambda x: "p{p}-c{c}-n{n}-m{m}".format(**x.to_dict()))
def test_construct_matches_reference_loop(params):
    for depth in (params.default_depth, params.n + 1):
        algebra = construct(params, depth)
        sequence, elements = reference_construct(params, depth)
        # both loops compare every degree with its closed form, so equal
        # windows and sequences mean equal elements at every degree
        assert algebra.sequence == sequence
        assert sorted(algebra.elements) == list(range(depth, depth + params.n + 1))
        for j, got in algebra.elements.items():
            e = elements[j]
            assert (got.vec.entries, got.op.entries) == (e.vec.entries, e.op.entries), j


def reference_eih_residual(seq, i, h):
    n = seq.n
    if i + h + n > seq.depth:
        return None
    row = signed_binom_row(h, seq.field.p)
    s1 = s2 = 0
    for g, c in enumerate(row):
        if c == 0:
            continue
        if i + n + g > seq.depth:
            return None
        s1 += c * seq.beta(i + g)
        s2 += c * seq.beta(i + n + g)
    return (seq.beta(i + h + n) * s1 - seq.beta(i) * s2) % seq.field.p


def reference_project_type1(alpha, n):
    p = alpha.field.p
    row = signed_binom_row(n - 1, p)
    return tuple(sum(c * alpha.betas[i + k - 2] for k, c in enumerate(row) if c) % p
                 for i in range(n + 1, alpha.depth - n + 2))


def reference_signed_binom_row(h, p):
    row = []
    for i in range(h + 1):
        v = binom_mod_p(h, i, p)
        row.append((-v) % p if i % 2 else v)
    return tuple(row)


def _member(algebra_cache, p, c, n):
    params = ExceptionalParams(PrimeField(p), c, n, n - 1)
    return params, algebra_cache(p, c, n, n - 1).sequence


def _cases(algebra_cache):
    """Every member at its default depth and at depth q + 2n + 3, each with
    PERTURBATIONS seeded single-entry changes."""
    rng = random.Random(4)
    for p, c, n in MEMBERS:
        params, full = _member(algebra_cache, p, c, n)
        for depth in (full.depth, params.q + 2 * n + 3):
            seq = full.truncate(depth)
            yield params, seq
            for _ in range(PERTURBATIONS):
                betas = list(seq.betas)
                k = rng.randrange(len(betas))
                betas[k] = (betas[k] + rng.randrange(1, p)) % p
                yield params, BetaSequence(params.field, n, betas)


def _both(params, seq):
    return (abelian_ideal_check(params, seq).to_dict(),
            reference_abelian_ideal_check(params, ConstructedAlgebra(params, seq, {})).to_dict())


def top_action_only_prefix(params, seq):
    """seq plus a sequence k with k_n = 0 killed by (1 - S)^(q+1-n), S the
    shift i -> i + 1.  Every gamma(i, b) with b > q reads k through that
    operator, so the pair and adjoint-series checks see nothing, while
    gamma(i, q) moves by ((1 - S)^(q-n) k)_n = (-1)^(q-n) for every i."""
    q, n, p = params.q, params.n, params.p
    L = q + 1 - n
    row = signed_binom_row(L, p)
    k = [0] * (seq.depth + 1)
    k[q] = 1
    for a in range(n, seq.depth - L + 1):
        s = sum(row[t] * k[a + t] for t in range(L))
        k[a + L] = -s * row[L] % p   # row[L] = (-1)^L is its own inverse
    return BetaSequence(params.field, n,
                        [(b + k[i]) % p for i, b in enumerate(seq.betas, start=n + 1)])


class TestAbelianIdealOracle:
    def test_agrees_on_members_and_perturbations(self, algebra_cache):
        kinds = Counter()
        for params, seq in _cases(algebra_cache):
            new, ref = _both(params, seq)
            assert new == ref, (params.to_dict(), seq.depth)
            kinds[new["failure"]["kind"] if new["failure"] else "ok"] += 1
        assert kinds == {"ok": 20, "pair": 292, "adjoint_series": 508}

    @pytest.mark.parametrize("p, c, n", [(3, 2, 2), (3, 3, 2), (5, 2, 4)])
    def test_agrees_at_every_depth(self, algebra_cache, p, c, n):
        # below level 2q + 2 no pair closes and pairs_checked stays 0
        params, full = _member(algebra_cache, p, c, n)
        rng = random.Random(p * c * n)
        zero_pairs = 0
        for depth in range(n + 1, full.depth + 1):
            seq = full.truncate(depth)
            betas = list(seq.betas)
            k = rng.randrange(len(betas))
            betas[k] = (betas[k] + 1) % p
            for case in (seq, BetaSequence(params.field, n, betas)):
                new, ref = _both(params, case)
                assert new == ref, (params.to_dict(), case.to_dict())
            zero_pairs += new["pairs_checked"] == 0
        assert zero_pairs == 2 * params.q + 1 - 2 * n

    @pytest.mark.parametrize("p, c, n", MEMBERS)
    def test_members_pass_at_both_depths(self, algebra_cache, p, c, n):
        params, full = _member(algebra_cache, p, c, n)
        for depth in (full.depth, params.q + 2 * n + 3):
            new, ref = _both(params, full.truncate(depth))
            assert new == ref and new["ok"]

    @pytest.mark.parametrize("p, c, n", MEMBERS)
    def test_top_action_only_failure(self, algebra_cache, p, c, n):
        params, full = _member(algebra_cache, p, c, n)
        new, ref = _both(params, top_action_only_prefix(params, full))
        assert new == ref
        assert new["pairs_ok"] and new["adjoint_series_ok"]
        assert new["failure"]["kind"] == "top_action"
        assert new["failure"]["index"] == params.q + 1

    @pytest.mark.parametrize("p, c, n", MEMBERS)
    def test_top_action_window_opens_at_depth_2q_plus_1(self, algebra_cache, p, c, n):
        # level 2q + 1 closes within D + n from depth 2q + 1 - n on, but
        # [e_(q+1), e_q] lies within the depth only from 2q + 1
        params, full = _member(algebra_cache, p, c, n)
        shifted = top_action_only_prefix(params, full)
        q = params.q
        for depth in range(2 * q + 1 - n, 2 * q + 2):
            new, ref = _both(params, shifted.truncate(depth))
            assert new == ref
            assert new["ok"] == (depth <= 2 * q)


def _random_sequence(rng, p, n, depth, density):
    return BetaSequence(PrimeField(p), n,
                        [rng.randrange(1, p) if rng.random() < density else 0
                         for _ in range(depth - n)])


def _random_alpha(rng, p, depth, density):
    alphas, prev = [], 0
    for _ in range(depth - 1):
        prev = rng.randrange(1, p) if not prev and rng.random() < density else 0
        alphas.append(prev)
    return BetaSequence(PrimeField(p), 1, alphas)


class TestBracketSumOracles:
    def test_eih_residual(self):
        rng = random.Random(11)
        nones = 0
        for _ in range(3000):
            p = rng.choice((3, 5, 7))
            n = rng.randrange(1, 5)
            seq = _random_sequence(rng, p, n, rng.randrange(n + 2, 40), rng.random())
            i = rng.randrange(n + 1, seq.depth + 1)
            h = rng.randrange(1, 30)
            got, want = eih_residual(seq, i, h), reference_eih_residual(seq, i, h)
            assert (got if got is None else int(got)) == want, (seq.to_dict(), i, h)
            nones += got is None
        assert 0 < nones < 3000

    def test_project_type1(self):
        # when the nonzero alpha are at least n apart, the first at index 2n or
        # more, every complete later constituent of the projection is ordinary
        rng = random.Random(12)
        checked = 0
        for _ in range(500):
            p = rng.choice((3, 5, 7))
            n = rng.randrange(1, 6)
            alpha = _random_alpha(rng, p, rng.randrange(2 * n + 1, 60), rng.random())
            got = project_type1(alpha, n).betas
            assert got == reference_project_type1(alpha, n)
            nz = [k + 2 for k, v in enumerate(alpha.betas) if v]
            if nz and nz[0] >= 2 * n and all(b - a >= n for a, b in zip(nz, nz[1:])):
                later = constituents(BetaSequence(alpha.field, n, got)).constituents[1:]
                assert all(c.ordinary for c in later)
                checked += len(later) if n > 1 else 0
        assert checked > 100   # 135 later constituents of type n > 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_signed_binom_row(self, p):
        for h in range(3 * p * p):
            assert signed_binom_row(h, p) == reference_signed_binom_row(h, p)
