"""Shared fixtures: fixture paths and a cache of constructed algebras."""

import os
from pathlib import Path

import pytest

from maxclass.arith import PrimeField
from maxclass.exceptional import ExceptionalParams, construct

# Tests that run `python -m maxclass` in a subprocess find the package in
# src/ too, as the test process does through pytest's pythonpath setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def fixture_dir():
    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def algebra_cache():
    """Memoized operator-algebra constructions keyed by (p, c, n, m).

    Construction dominates the runtime of the deeper checks, so the
    acceptance suite and the module tests share one instance per shape.
    """
    cache = {}

    def get(p, c, n, m, depth=None):
        key = (p, c, n, m, depth)
        if key not in cache:
            params = ExceptionalParams(PrimeField(p), c, n, m)
            cache[key] = construct(params, depth=depth)
        return cache[key]

    return get
