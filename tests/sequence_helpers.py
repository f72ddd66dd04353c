"""Sequence constraints the tests use but the package does not run."""

from typing import Optional

from maxclass.sequences import BetaSequence, bracket_coeff


def eih_residual(seq: BetaSequence, i: int, h: int) -> Optional[int]:
    """The two-row constraint usable whenever beta_(n+h) = 0 (caller-checked):

        beta_(i+h+n) sum_g (-1)^g C(h, g) beta_(i+g)
          - beta_i sum_g (-1)^g C(h, g) beta_(i+n+g)  = 0,

    that is beta_(i+h+n) gamma(i, n+h) - beta_i gamma(i+n, n+h) = 0.
    Returns None when the depth is below i + h + n.
    """
    n = seq.n
    if i <= n or h <= 0:
        raise ValueError(f"need i > n and h > 0, got i={i}, h={h}")
    if i + h + n > seq.depth:
        return None
    return (seq.beta(i + h + n) * bracket_coeff(seq, i, n + h)
            - seq.beta(i) * bracket_coeff(seq, i + n, n + h)) % seq.field.p
