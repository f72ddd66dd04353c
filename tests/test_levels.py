"""The left-part level engine against the full Pascal rows.

`maxclass.levels` keeps only the left part of each antisymmetric level.
On random antisymmetric levels s - 1, for every level s from 2n + 1 on,
including those below 3n where a level has no Jacobi triple, its pair
residual, row and Jacobi check must agree with `pascal_row` and the
full-row `level_failure` of `sequence_helpers`.  A `Walk` pops back to the
rows and column it held before each push, and its `check` keeps only the
last n rows.  On a zero prefix the walk steps its levels on one shared zero
row, and `level_solutions` and the three checks, run on explicit zero rows,
are its oracle; there `check` stores no row, only a column entry, whatever
n is.
"""

import random

import pytest

from maxclass.arith import PrimeField
from maxclass.exceptional import ExceptionalParams, closed_form_betas
from maxclass.levels import Walk, level_failure, level_row, level_solutions, pair_residual
from sequence_helpers import completed, left_size, pascal_row, random_antisymmetric
from sequence_helpers import level_failure as full_level_failure


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_left_parts_agree_with_full_rows(p):
    rng = random.Random(20261019 + p)
    kinds = set()
    for n in range(1, 6):
        for s in range(2 * n + 1, 2 * n + 41):
            for density in (1.0, 0.3):
                full_prev = random_antisymmetric(rng, s - 1, n, p, density)
                prev = full_prev[:left_size(s - 1, n)]
                assert completed(prev, s - 1, n, p) == full_prev
                # low and col as the levels below would give them
                low = random_antisymmetric(rng, s - n, n, p, density) if s >= 3 * n else []
                col = [rng.randrange(p) if rng.random() < density else 0
                       for _ in range(max(1, s - 3 * n + 1))]
                left_low = low[:left_size(s - n, n)]
                for beta in range(p):
                    full = pascal_row(full_prev, beta, p)
                    r = pair_residual(prev, beta, s, n, p)
                    assert r == (full[0] + full[-1]) % p
                    if s % 2:
                        assert r == 0
                    if r:
                        continue
                    row = level_row(prev, beta, s, n, p)
                    assert len(row) == left_size(s, n)
                    assert completed(row, s, n, p) == full
                    failure = level_failure(row, left_low, col, s, n, p)
                    assert failure == full_level_failure(full, low, col, n, p)
                    kinds.add(failure and failure["indices"][1] == n)
    # levels pass, and fail at the first triple and at later ones
    assert kinds == {None, True, False}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 6))
def test_walk_pop_undoes_push(n, p):
    # a depth-first walk to level 2n + 40, in random order, pushing the rows
    # the walk's solutions yield: each pop must restore the rows and the
    # column, and a zero level's row for beta = 0 is the shared zero row
    rng = random.Random(1000 * n + p)
    walk = Walk(n, p)

    def descend() -> bool:
        s = 2 * n + len(walk.col)
        if s > 2 * n + 40:
            return True
        solutions = list(walk.solutions())
        rng.shuffle(solutions)
        for beta, row in solutions:
            rows, col = list(walk.rows), list(walk.col)
            if beta == 0 and not any(col):
                assert row is walk.zero
            walk.push(row)
            assert walk.rows == rows + [row] and walk.rows[-1] is row
            assert walk.col == col + [-beta % p]
            reached = descend()
            walk.pop()
            assert walk.rows == rows and walk.col == col
            if reached:
                return True
        return False

    assert descend()
    assert walk.rows == [walk.zero] and walk.col == [0] and not any(walk.zero)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", range(1, 6))
def test_zero_prefix_agrees_with_the_solver(n, p):
    # a walk fed only zeros steps each level without the solver or the
    # checks; they, run on explicit zero rows of the exact left-part sizes,
    # must give the same entries, rows (on their left part) and failures
    def zero_walk(s):
        walk = Walk(n, p)
        while 2 * n + len(walk.col) < s:
            assert walk.check(0) is None and walk.rows[-1] is walk.zero
        return walk

    walk = zero_walk(2 * n + 1)
    for s in range(2 * n + 1, 2 * n + 41):
        prev, low = [0] * left_size(s - 1, n), [0] * max(0, left_size(s - n, n))
        col, size = [0] * (s - 2 * n), left_size(s, n)
        solved = [(beta, row[:size]) for beta, row in walk.solutions()]
        assert solved == list(level_solutions(prev, low, col, s, n, p)), (s, solved)
        for beta in range(p):
            stepped = zero_walk(s)
            failure = stepped.check(beta)
            r = pair_residual(prev, beta, s, n, p)
            if r:
                assert failure == {"kind": "antisymmetry", "indices": [n, s - n], "value": r}
                assert len(stepped.col) == s - 2 * n
                continue
            row = level_row(prev, beta, s, n, p)
            assert failure == level_failure(row, low, col, s, n, p)
            assert stepped.rows[-1][:size] == row and stepped.col[-1] == row[0]
        assert walk.check(0) is None and walk.rows[-1] is walk.zero
        assert walk.rows[-1][:size] == [0] * size


@pytest.mark.parametrize("p, c, n, m", [(3, 3, 2, 1), (5, 2, 4, 1), (7, 2, 3, 2)])
def test_check_keeps_n_rows(p, c, n, m):
    # along a family prefix to depth 3q every level passes, and check keeps
    # the last n rows: the zero row and, past the zero prefix, one per level
    q = p ** c
    betas = closed_form_betas(ExceptionalParams(PrimeField(p), c, n, m), 3 * q)
    walk = Walk(n, p)
    stored = 0
    for s in range(2 * n + 1, 3 * q + 1):
        assert walk.check(betas[s - 2 * n - 1]) is None
        stored += any(betas[:s - 2 * n])
        assert len(walk.rows) == min(n, stored + 1)
        assert len(walk.rows[-1]) == left_size(s, n)


@pytest.mark.parametrize("n", [1, 4, 10**6])
def test_check_stores_no_zero_level(n):
    # a zero level costs check one column entry, whatever n is
    walk = Walk(n, 3)
    for _ in range(60):
        assert walk.check(0) is None
    assert walk.rows == [walk.zero] and len(walk.col) == 61
