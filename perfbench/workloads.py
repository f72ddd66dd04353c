"""The benchmark's four workloads: their requests, seeded inputs and oracles.

Each workload is a list of `maxclass` command lines.  Requests with fixed
arguments are checked against the recorded sha256 of their stdout and their
exit code (`oracle.json`).  Requests whose inputs come from the workload seed
are checked by invariants that do not depend on a recording:

- a valid family prefix must verify `ok`;
- a single-entry perturbation must fail at the witness predicted below, and
  the witness value is recomputed through `sequences.bracket_coeff`;
- a seeded search must list the family continuation it was seeded from,
  unless its solution list is truncated;
- the deep-search probe must print a search report whose exit code matches
  its completeness.

Every workload has a full size, which the timed runs use, and a toy size,
which the self-check uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from maxclass import (
    BetaSequence,
    ExceptionalParams,
    PrimeField,
    bracket_coeff,
    closed_form_betas,
)

# check(exit_code, payload) returns None when the output passes, else a reason
Check = Callable[[int, dict], Optional[str]]


@dataclass
class Request:
    name: str
    argv: list[str]           # arguments after `python -m maxclass`
    check: Optional[Check]    # None: compare with the recorded stdout hash


@dataclass
class Workload:
    requests: list[Request]
    top: str                  # name of the ladder-top request
    # arith microbenchmarks for traced runs: prime, largest argument, and
    # whether the workload builds signed binomial rows and multiplies FpPoly
    micro: Optional[dict]


PROBE = "deep-probe"


def _args(command: str, **flags) -> list[str]:
    argv = [command]
    for key, value in flags.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _fixed(name: str, command: str, **flags) -> Request:
    return Request(name, _args(command, **flags), None)


# ---------------------------------------------------------------- family

def family(rng: random.Random, work: Path, toy: bool) -> Workload:
    """Divided-power construction and the full family report.

    The only workload that runs `divided_powers` and most of `exceptional`.
    q = 125 has one n = m + 1 member (abelian ideal check) and one member
    with n - m - 1 = 2 (subalgebra tower in the two-path check).
    """
    if toy:
        return Workload([
            _fixed("q25-report", "construct", p=5, c=2, n=2, m=1, report=True),
            _fixed("q27-tower", "construct", p=3, c=3, n=2, m=1, report=True),
            _fixed("q81-build", "construct", p=3, c=4, n=2, m=1),
        ], top="q81-build", micro={"p": 5, "depth": 80, "rows": True, "poly": True})
    return Workload([
        _fixed("q25-report", "construct", p=5, c=2, n=2, m=1, report=True),
        _fixed("q125-ideal", "construct", p=5, c=3, n=2, m=1, report=True,
               jacobi_depth=120),
        _fixed("q125-tower", "construct", p=5, c=3, n=4, m=1, report=True,
               jacobi_depth=120),
        _fixed("q343-capped", "construct", p=7, c=3, n=3, m=2, report=True,
               depth=700, jacobi_depth=120),
        _fixed("q2187-build-cut", "construct", p=3, c=7, n=2, m=1, depth=350),
    ], top="q2187-build-cut", micro={"p": 5, "depth": 383, "rows": True, "poly": True})


# ---------------------------------------------------------------- verify

def _family_prefix(p: int, c: int, n: int, m: int) -> BetaSequence:
    params = ExceptionalParams(PrimeField(p), c, n, m)
    return BetaSequence(params.field, n,
                        closed_form_betas(params, params.default_depth))


def _write(seq: BetaSequence, path: Path) -> str:
    seq.to_file(path)
    if BetaSequence.from_file(path) != seq:
        raise RuntimeError(f"{path} does not read back as written")
    return str(path)


def _valid(name: str, rng: random.Random, work: Path, p: int, c: int, n: int,
           depth: Optional[int] = None) -> Request:
    seq = _family_prefix(p, c, n, rng.randrange(1, n))
    argv = ["verify", "--file", _write(seq, work / f"{name}.json")]
    if depth is not None:
        argv += ["--depth", str(depth)]
    want_depth = seq.depth if depth is None else depth

    def check(code: int, out: dict) -> Optional[str]:
        if code != 0 or out["ok"] is not True or not out["jacobi"]["ok"]:
            return f"valid prefix rejected: exit {code}, jacobi {out['jacobi']}"
        if (out["p"], out["n"], out["depth"]) != (p, n, want_depth):
            return f"reported (p, n, depth) {(out['p'], out['n'], out['depth'])}"
        return None

    return Request(name, argv, check)


def _perturbed(name: str, rng: random.Random, work: Path,
               p: int, c: int, n: int, depth: Optional[int] = None) -> Request:
    """A family prefix with one entry beta_i moved by delta.

    For i - n even and i <= depth - n the first antisymmetry pair in sweep
    order that sees beta_i is (n, i): gamma(n, i) carries beta_i with sign
    (-1)^(i-n) = 1 and gamma(i, n) = beta_i, so the pair sum moves by
    2 delta, while every earlier pair reads only entries below i.
    """
    seq = _family_prefix(p, c, n, rng.randrange(1, n))
    checked = seq.depth if depth is None else depth
    i = n + 2 * rng.randrange(1, (checked - 2 * n) // 2 + 1)
    delta = rng.randrange(1, p)
    betas = list(seq.betas)
    betas[i - n - 1] = (betas[i - n - 1] + delta) % p
    bad = BetaSequence(seq.field, n, betas)
    argv = ["verify", "--file", _write(bad, work / f"{name}.json")]
    if depth is not None:
        argv += ["--depth", str(depth)]
    want = {"kind": "antisymmetry", "indices": [n, i], "value": 2 * delta % p}

    def check(code: int, out: dict) -> Optional[str]:
        if code != 1 or out["ok"] is not False:
            return f"perturbed prefix accepted: exit {code}"
        got = out["jacobi"]["failure"]
        if got != want:
            return f"witness {got}, want {want}"
        again = (int(bracket_coeff(bad, n, i)) + int(bracket_coeff(bad, i, n))) % p
        if again != want["value"]:
            return f"bracket_coeff gives {again} at {want['indices']}"
        return None

    return Request(name, argv, check)


def verify(rng: random.Random, work: Path, toy: bool) -> Workload:
    """The sweep in `sequences` alone, on seed-generated prefix files.

    Valid prefixes spend their time in the triple sweep; perturbed ones
    fail antisymmetry at once and spend it building the gamma table.  The
    seed picks m of each member, and the position and size of each
    perturbation.
    """
    if toy:
        return Workload([
            _valid("q25-valid", rng, work, 5, 2, 3),
            _valid("q27-valid-cut", rng, work, 3, 3, 2, depth=60),
            _perturbed("q25-perturbed", rng, work, 5, 2, 3),
            _perturbed("q49-perturbed-cut", rng, work, 7, 2, 3, depth=120),
        ], top="q49-perturbed-cut", micro={"p": 7, "depth": 120, "rows": True})
    return Workload([
        _valid("q125-valid-cut", rng, work, 5, 3, 4, depth=220),
        _valid("q343-valid-cut", rng, work, 7, 3, 3, depth=220),
        _perturbed("q125-perturbed-cut", rng, work, 5, 3, 4, depth=300),
        _perturbed("q343-perturbed-cut", rng, work, 7, 3, 3, depth=380),
    ], top="q343-perturbed-cut", micro={"p": 7, "depth": 380, "rows": True})


# -------------------------------------------------------------- classify

def classify(rng: random.Random, work: Path, toy: bool) -> Workload:
    """`polycheck` and `arith` only, in one process.

    p = 7, n = 4 spends its time in the 343-candidate loop per exponent;
    n = 3 at p = 5 and p = 11 spends it building binomial window rows.
    """
    if toy:
        return Workload([
            _fixed("p7-n4", "classify", p=7, n=4, k_max=60),
            _fixed("p5-n3", "classify", p=5, n=3, k_max=60),
            _fixed("p11-n3", "classify", p=11, n=3, k_max=60),
        ], top="p7-n4", micro={"p": 7, "depth": 60})
    return Workload([
        _fixed("p7-n4", "classify", p=7, n=4, k_max=260),
        _fixed("p5-n3", "classify", p=5, n=3, k_max=400),
        _fixed("p11-n3", "classify", p=11, n=3, k_max=260),
    ], top="p7-n4", micro={"p": 7, "depth": 260})


# ---------------------------------------------------------------- search

def _search_report(p: int, n: int, depth: int) -> Check:
    def check(code: int, out: dict) -> Optional[str]:
        if (out["p"], out["n"], out["depth"]) != (p, n, depth):
            return f"reported (p, n, depth) {(out['p'], out['n'], out['depth'])}"
        complete = not out["exhausted"] and not out["truncated_solutions"]
        if code != (0 if complete else 1):
            return f"exit {code} for a report with complete={complete}"
        return None
    return check


def _seeded(name: str, rng: random.Random, depth: int, prefix: range) -> Request:
    """Search below a pinned prefix of a p = 3, n = 2 family member."""
    c = rng.choice((2, 3, 4))
    params = ExceptionalParams(PrimeField(3), c, 2, 1)
    family_seq = BetaSequence(params.field, 2,
                              closed_form_betas(params, depth)).normalize()
    pinned = family_seq.betas[:rng.choice(prefix) - 2]
    argv = _args("search", p=3, n=2, depth=depth,
                 seed=",".join(str(v) for v in pinned))
    report_ok = _search_report(3, 2, depth)

    def check(code: int, out: dict) -> Optional[str]:
        why = report_ok(code, out)
        if why is None and not out["truncated_solutions"] \
                and list(family_seq.betas) not in out["solutions"]:
            why = f"q={params.q} family continuation missing"
        return why

    return Request(name, argv, check)


def search(rng: random.Random, work: Path, toy: bool) -> Workload:
    """`search` alone: its Jacobi rows are the second bracket engine.

    The deep probe assigns more than about 990 levels, which the recursive
    search does not survive; it stays cheap through a large type and a small
    budget, and counts as a failed request until the search is iterative.
    """
    probe = Request(PROBE, _args("search", p=3, n=1000, depth=2100, budget=3000),
                    _search_report(3, 1000, 2100))
    if toy:
        return Workload([
            _fixed("p3-d40", "search", p=3, n=2, depth=40),
            _fixed("p3-d30-free", "search", p=3, n=2, depth=30, no_normalize=True),
            _fixed("p5-d30", "search", p=5, n=3, depth=30),
            _seeded("p3-seeded", rng, 80, range(30, 61)),
            probe,
        ], top="p3-d40", micro=None)
    return Workload([
        _fixed("p3-d90", "search", p=3, n=2, depth=90),
        _fixed("p3-d60-free", "search", p=3, n=2, depth=60, no_normalize=True),
        _fixed("p5-d50", "search", p=5, n=3, depth=50),
        _seeded("p3-seeded", rng, 140, range(50, 111)),
        probe,
    ], top="p3-d90", micro=None)


WORKLOADS = {"family": family, "verify": verify,
             "classify": classify, "search": search}


def build(name: str, seed: int, work: Path, toy: bool = False) -> Workload:
    """The workload's requests for this seed, with input files under work."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work, toy)
