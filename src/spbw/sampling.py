"""Seeded random element generators used by the sampled pipeline checks.

All sampling is driven by a caller-supplied ``random.Random`` so every run
with the same seed checks the same elements.
"""

from __future__ import annotations

from .core import Presentation, SkewPoly
from .lincomb import add_terms


def random_skew(P: Presentation, rng, degree: int = 4, max_terms: int = 3) -> SkewPoly:
    """Random normal-form element: a few terms of bounded total degree with
    small integer scalars, sprinkled with parameter factors when available."""
    acc: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, degree)
        tdeg = rng.randint(0, total) if P.ring.nvars else 0
        xdeg = total - tdeg
        beta = random_expo(rng, P.ring.nvars, tdeg)
        alpha = random_expo(rng, P.n, xdeg)
        s = P.ring.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
        if P.ring.nparams:
            j = rng.randrange(P.ring.nparams)
            if rng.randint(0, 1):
                s = s * P.ring.param(P.ring.params[j])
        add_terms(acc, P.monomial(alpha, P.ring.monomial(beta, s)).terms)
    return SkewPoly(acc, P.n)


def random_expo(rng, nvars: int, total: int) -> tuple:
    e = [0] * nvars
    if nvars:
        for _ in range(total):
            e[rng.randrange(nvars)] += 1
    return tuple(e)
