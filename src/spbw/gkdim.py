"""Growth of the extension along its generator frame, and the final verdict
that combines every pipeline check.

The frame spans 1, the coefficient variables and the generators.  Once the
relations are filtration-compatible, the normal monomials of total degree at
most m in s symbols number C(s+m, m), so the dimension table is that closed
form, and its growth exponent is s, read from the table as dims[1] - 1.  The
tests count the monomials by enumeration as the independent oracle, and
check the estimate against the finite differences of the table.

The estimate needs only dims[1].  The table's depth fixes only what
``spbw gkdim`` prints (``--max-degree``); the pipeline asks for depth 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .coefficients import apply_endo, apply_sder
from .core import Presentation, tail_name
from .errors import UnsupportedPresentationError

CERTIFIED = "certified-smooth"
NOT_CERTIFIED = "not-certified"
FAILED = "failed"


def check_filtration_compatible(P: Presentation):
    """Every relation tail must stay within the degree of its leading word,
    so the frame powers are spanned by low-degree normal monomials."""
    ring = P.ring
    for i in range(P.n):
        for j in range(ring.nvars):
            if apply_endo(P.sigma[i], ring.var(j)).total_degree() > 1:
                raise UnsupportedPresentationError(
                    f"sigma of {P.names[i]} raises the degree of {ring.coeff_vars[j]}"
                )
            if apply_sder(P.delta[i], ring.var(j)).total_degree() > 2:
                raise UnsupportedPresentationError(
                    f"delta of {P.names[i]} overshoots the degree of the pair "
                    f"{P.names[i]}*{ring.coeff_vars[j]}"
                )
    for (i, j), tails in P.tails.items():
        label = f"({P.names[j]},{P.names[i]})"
        for c, w in tails:
            if c.total_degree() + len(w) <= 2:
                continue
            if len(w) == 2:
                message = f"leading coefficient of relation {label} has positive degree"
            elif w:
                message = f"linear tail {tail_name(w)} of relation {label} too large"
            else:
                message = f"constant tail of relation {label} too large"
            raise UnsupportedPresentationError(message)


def filtration_dims(P: Presentation, m_max: int) -> list:
    """Number of normal monomials of total degree <= m: C(s+m, m) in the s
    symbols of the frame, for m up to ``m_max`` or s + 1, whichever is
    larger: at depth s + 1 the table shows its finite differences settle."""
    check_filtration_compatible(P)
    nsyms = P.ring.nvars + P.n
    return [comb(nsyms + m, m) for m in range(max(m_max, nsyms + 1) + 1)]


def gk_estimate(dims: list) -> int:
    """Integer growth exponent of a :func:`filtration_dims` table.  The
    table is C(s+m, m), so the exponent is s = dims[1] - 1, the order at
    which its finite differences settle at 1."""
    return dims[1] - 1


# -- verdict ----------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    status: str  # pass | fail | skipped | error
    witnesses: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


HARD_CHECKS = ("pbw-consistency", "compatibility")


def smoothness_verdict(checks, calculus_dimension, gk) -> tuple:
    """Combine the per-stage records into ``(verdict, failed_check,
    failing)``: certified only when every check passed and the calculus
    dimension equals the growth estimate; ``failed_check`` is the hard check
    that failed, or None, and ``failing`` names every check that did not
    pass."""
    failing = [rec.name for rec in checks if rec.status == "fail" or rec.status == "error"]
    hard = next((name for name in HARD_CHECKS if name in failing), None)
    dimension_match = (
        calculus_dimension is not None and gk is not None and calculus_dimension == gk
    )
    if not dimension_match and "gk-dimension-match" not in failing:
        failing.append("gk-dimension-match")
    if hard is not None:
        verdict = FAILED
    elif not failing and all(rec.status in ("pass", "skipped") for rec in checks):
        verdict = CERTIFIED
    else:
        verdict = NOT_CERTIFIED
    return verdict, hard, failing
