"""The single-entry bracket against the signed-row walk it replaced.

bracket_coeff sums over the nonzero beta_j of its window, found by
bisection in the sequence's support, and decides None from the window end
alone.  The reference, reference_bracket_coeff, walks the whole row
((-1)^i C(b - n, i)) and returns None at the first nonzero term past the
depth.  Both must agree on every pair (a, b) whose window ends at most one
past the depth, so each a meets the None boundary at window ends depth
and depth + 1.
"""

import random

import pytest

from maxclass.arith import PrimeField
from maxclass.exceptional import closed_form_betas
from maxclass.sequences import BetaSequence, bracket_coeff

from paper_helpers import theorem_parameter_grid
from sequence_helpers import reference_bracket_coeff

# (p, c): q = 9, 27, 25, 49, whose theorem-mode members have n = 2 .. 4
SHAPES = [(3, 2), (3, 3), (5, 2), (7, 2)]


def assert_agrees(seq):
    """Compare every pair whose window ends by depth + 1; count the Nones."""
    n, D = seq.n, seq.depth
    nones = 0
    for a in range(n, D + 2):
        for b in range(n, D + n + 2 - a):
            got = bracket_coeff(seq, a, b)
            assert got == reference_bracket_coeff(seq, a, b), (seq.to_dict(), a, b)
            nones += got is None
    assert nones == D + 2 - n   # one per a: the window ending at depth + 1


def random_prefix(rng, p, n, density):
    depth = rng.randrange(n + 1, 45)
    return BetaSequence(PrimeField(p), n, [rng.randrange(1, p) if rng.random() < density
                                           else 0 for _ in range(depth - n)])


def family_prefixes():
    for p, c in SHAPES:
        for params in theorem_parameter_grid(PrimeField(p), c):
            if params.n <= 4:
                depth = params.q + 2 * params.n + 6
                yield BetaSequence(params.field, params.n, closed_form_betas(params, depth))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("density", [1.0, 0.5, 0.1])
def test_random_prefixes(n, density):
    rng = random.Random(1000 * n + int(100 * density))
    for _ in range(8):
        assert_agrees(random_prefix(rng, rng.choice((3, 5, 7, 11)), n, density))


def test_type1_prefixes():
    # type-1 data: of any two consecutive alpha, one vanishes
    rng = random.Random(26)
    for _ in range(20):
        p = rng.choice((3, 5, 7))
        alphas, prev = [], 0
        for _ in range(rng.randrange(2, 60)):
            prev = rng.randrange(1, p) if not prev and rng.random() < 0.3 else 0
            alphas.append(prev)
        assert_agrees(BetaSequence(PrimeField(p), 1, alphas))


def test_family_and_single_entry_perturbations():
    rng = random.Random(27)
    members = 0
    for seq in family_prefixes():
        members += 1
        assert_agrees(seq)
        assert len(seq.support) < seq.depth - seq.n   # sparse
        p = seq.field.p
        for _ in range(3):
            betas = list(seq.betas)
            k = rng.randrange(len(betas))
            betas[k] = (betas[k] + rng.randrange(1, p)) % p
            assert_agrees(BetaSequence(seq.field, seq.n, betas))
    assert members == 1 + 1 + 6 + 6   # n <= 4 on q = 9, 27, 25, 49

