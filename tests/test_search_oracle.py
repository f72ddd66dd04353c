"""The solving search against the search that tries every candidate.

`reference_search` is the earlier `search_sequences`: at every index it
builds a full row for each candidate and runs the full-row `level_failure`
of `sequence_helpers` on it, then recurses.  The search under test solves
each level for its entry on left parts of rows instead, and must give the
same report, field for field: solutions in the same order, and the same
`nodes`, `deepest` and budget cut point.

The kernel tests compare `level_solutions` with trying every entry on the
completed rows, at the level states the searches reach and at random ones.
"""

import random

import pytest

from maxclass import levels
from maxclass.arith import PrimeField
from maxclass.levels import level_solutions
from maxclass.search import SearchReport, search_sequences
from maxclass.sequences import BetaSequence
from sequence_helpers import (completed, left_size, level_failure, pascal_row,
                              random_antisymmetric)

PRIMES = [3, 5, 7, 11, 13, 31, 101]
TYPES = range(1, 6)
BUDGETS = (7, 50, 137, 333)
# nodes allowed to the runs that are not cut on purpose, so p = 101 stays cheap
FULL_BUDGET = 3000


def reference_search(field, n, depth, seed=None, normalize=True, budget=500_000,
                     max_solutions=1000):
    p = field.p
    if isinstance(seed, BetaSequence):
        seed_vals = list(seed.betas)
    else:
        seed_vals = [int(v) % p for v in (seed or [])]
    report = SearchReport(p=p, n=n, depth=depth, seed_depth=n + len(seed_vals),
                          normalized=normalize, budget=budget, deepest=n)
    betas = [0] * (depth - n)
    rows = [[]] * (depth + n + 1)
    rows[2 * n] = [0]
    col = [0]
    full_range = range(p)
    norm_range = (0, 1)

    def extend(idx, has_nonzero):
        if idx > depth:
            report.solution_count += 1
            if len(report.solutions) < max_solutions:
                report.solutions.append(tuple(betas))
            else:
                report.truncated_solutions = True
            return
        if idx <= report.seed_depth:
            candidates = (seed_vals[idx - n - 1],)
        elif normalize and not has_nonzero:
            candidates = norm_range
        else:
            candidates = full_range
        for value in candidates:
            if report.exhausted:
                return
            report.nodes += 1
            if report.nodes > budget:
                report.exhausted = True
                return
            betas[idx - n - 1] = value
            s = idx + n
            row = pascal_row(rows[s - 1], value, p)
            if level_failure(row, rows[s - n], col, n, p) is not None:
                continue
            if idx > report.deepest:
                report.deepest = idx
            rows[s] = row
            del col[s - 2 * n:]
            col.append(row[0])
            extend(idx + 1, has_nonzero or value != 0)
        betas[idx - n - 1] = 0

    extend(n + 1, False)
    return report


def grid_depth(n):
    return 4 * n + 8


def seeds(field, n, rng):
    """Seeds for one (p, n): prefixes of solutions, the same with one entry
    changed (most fail at a seeded level), and a lone 1 after zeros at both
    parities of the first-constituent length (the odd one fails)."""
    p = field.p
    depth = grid_depth(n)
    found = reference_search(field, n, depth, budget=FULL_BUDGET).solutions
    out = [[0] * j + [1] for j in (n, n + 1)]
    for sol in rng.sample(found, min(3, len(found))):
        prefix = list(sol[:rng.randrange(1, depth - n)])
        out.append(prefix)
        changed = list(prefix)
        k = rng.randrange(len(changed))
        changed[k] = (changed[k] + rng.randrange(1, p)) % p
        out.append(changed)
    return out


def runs(p, n):
    field = PrimeField(p)
    rng = random.Random(f"{p}:{n}")
    depth = grid_depth(n)
    for normalize in (True, False):
        yield dict(field=field, n=n, depth=depth, normalize=normalize, budget=FULL_BUDGET)
        yield dict(field=field, n=n, depth=depth, normalize=normalize, budget=FULL_BUDGET,
                   max_solutions=3)
        for budget in BUDGETS:
            yield dict(field=field, n=n, depth=depth, normalize=normalize, budget=budget)
        for seed in seeds(field, n, rng):
            yield dict(field=field, n=n, depth=depth, normalize=normalize, seed=seed,
                       budget=FULL_BUDGET)


@pytest.mark.parametrize("p", PRIMES)
def test_reports_match_the_reference(p):
    cut = failed_seeds = 0
    for n in TYPES:
        for kwargs in runs(p, n):
            got = search_sequences(**kwargs).to_dict()
            assert got == reference_search(**kwargs).to_dict(), kwargs
            cut += got["exhausted"]
            failed_seeds += "seed" in kwargs and got["deepest"] < got["seed_depth"]
    # the grid reaches budget cuts and seeds that die at a seeded level
    assert cut and failed_seeds


def level_states(kwargs, monkeypatch):
    """The (prev, low, col, s, n, p) of every level the search solves on the run."""
    states = []
    real = levels.level_solutions

    def recording(prev, low, col, s, n, p):
        states.append((prev, low, list(col), s, n, p))
        return real(prev, low, col, s, n, p)

    with monkeypatch.context() as m:
        m.setattr(levels, "level_solutions", recording)
        search_sequences(**kwargs)
    return states


def assert_solves(prev, low, col, s, n, p):
    full_prev, full_low = completed(prev, s - 1, n, p), completed(low, s - n, n, p)
    tried = []
    for beta in range(p):
        row = pascal_row(full_prev, beta, p)
        if level_failure(row, full_low, col, n, p) is None:
            tried.append((beta, row[:left_size(s, n)]))
    solved = list(level_solutions(prev, low, col, s, n, p))
    assert solved == tried, (prev, low, col, s, n, p)
    return len(tried)


@pytest.mark.parametrize("p", PRIMES)
def test_level_solutions_on_reached_states(p, monkeypatch):
    sizes = set()
    for n in TYPES:
        for normalize in (True, False):
            kwargs = dict(field=PrimeField(p), n=n, depth=grid_depth(n),
                          normalize=normalize, budget=500)
            for state in level_states(kwargs, monkeypatch):
                sizes.add(min(assert_solves(*state), 2))
    # dead, forced and free levels all occur
    assert sizes == {0, 1, 2}


def test_level_solutions_on_random_states():
    rng = random.Random(5)
    sizes = set()
    for _ in range(3000):
        p = rng.choice((3, 5, 7, 11))
        n = rng.randrange(1, 5)
        s = 2 * n + rng.randrange(1, 29)   # the level being solved
        length = s - 2 * n + 1             # of its full row
        # prev is the left part of an antisymmetric level, the only kind a
        # walk keeps; low and col are as long as level_failure can read
        prev = random_antisymmetric(rng, s - 1, n, p)[:left_size(s - 1, n)]
        low = [rng.randrange(p) for _ in range(max(0, length - n))]
        col = [rng.randrange(p) for _ in range(max(1, length - n))]
        if rng.random() < 0.5:
            # sparse states pass more often, so forced and free levels occur
            low = [v if rng.random() < 0.2 else 0 for v in low]
            col = [v if rng.random() < 0.2 else 0 for v in col]
        if rng.random() < 0.1:
            prev = [0] * len(prev)
        sizes.add(min(assert_solves(prev, low, col, s, n, p), 2))
    assert sizes == {0, 1, 2}
